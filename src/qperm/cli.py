"""Command-line front end for the package.

Subcommands: cohomology, verify, semigroup, central, simulate, selftest.
Exit codes: 0 success, 1 validation failure, 2 budget or resource error,
64 usage errors.  All floats are serialized with 17 significant digits and
the output is byte-identical for identical arguments.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import __version__, selftest as selftest_mod
from .central import AdInvariantSpec, DiscreteMeasure, _ad_invariant_values, dims
from .cohomology import _h1_complement, coboundary_space, cocycle_space
from .config import DEFAULT_CONFIG
from .errors import BudgetError, QpermError, ValidationError
from .magic import (
    HadamardMatrix,
    MagicUnitary,
    _complex_from_json,
    _json_field,
    f4_phi,
    fourier,
    from_hadamard,
    from_permutation,
    require_valid,
    validate,
)
from .perms import format_cycles, parse_cycles
from .schurmann import (
    SchurmannTriple,
    _relation_defect,
    cocycle_violation,
    is_gaussian,
    is_symmetric_words,
    is_tracial,
    poisson_certificate,
)
from .semigroup import conv_exp, fundamental_semigroup, generator_matrix
from .stochsim import PermProcessSpec, path_sample, process_triple, simulate_marginals
from .words import format_word, parse_word

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_BUDGET = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# --- serialization ------------------------------------------------------------


_NON_FINITE = "cannot serialize a non-finite number"


def _spell(values: list) -> list[str]:
    """Finite Python floats as 17 significant digits, with one spelling "0" for +-0.0."""
    return ["0" if x == 0.0 else format(x, ".17g") for x in values]


def _f(x) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValidationError(_NON_FINITE)
    return _spell([x])[0]


def _emit_rows(a: np.ndarray, out) -> None:
    """A finite float or complex array of rank >= 1, one `%` format and one write per last-axis row.

    `%` and `format` share CPython's float formatter, so "%.17g" spells a
    number as `_spell` does; adding 0.0 first turns -0.0 into 0.0, spelled "0".
    """
    cell = "[%.17g,%.17g]" if a.dtype.kind == "c" else "%.17g"
    template = "[" + ",".join([cell] * a.shape[-1]) + "]"
    if a.dtype.kind == "c":  # re and im interleaved along the last axis
        a = np.stack([a.real, a.imag], axis=-1).reshape(a.shape[:-1] + (2 * a.shape[-1],))
    _emit_nested((a + 0.0).tolist(), a.ndim, template, out)


def _emit_nested(rows: list, ndim: int, template: str, out) -> None:
    if ndim == 1:
        out.write(template % tuple(rows))
        return
    out.write("[")
    for pos, sub in enumerate(rows):
        if pos:
            out.write(",")
        _emit_nested(sub, ndim - 1, template, out)
    out.write("]")


def _emit(obj, out) -> None:
    if obj is None:
        out.write("null")
    elif isinstance(obj, (bool, np.bool_)):
        out.write("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.write(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.write(_f(obj))
    elif isinstance(obj, (complex, np.complexfloating)):
        out.write(f"[{_f(obj.real)},{_f(obj.imag)}]")
    elif isinstance(obj, str):
        out.write(json.dumps(obj))
    elif isinstance(obj, dict):
        out.write("{")
        for pos, (key, val) in enumerate(obj.items()):
            if pos:
                out.write(",")
            out.write(json.dumps(str(key)))
            out.write(":")
            _emit(val, out)
        out.write("}")
    elif isinstance(obj, np.ndarray) and obj.ndim and obj.dtype.kind in "fc":
        # a 0-d array falls through and fails as any iteration over it does
        if not np.isfinite(obj).all():
            raise ValidationError(_NON_FINITE)
        _emit_rows(obj, out)
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.write("[")
        for pos, val in enumerate(obj):
            if pos:
                out.write(",")
            _emit(val, out)
        out.write("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _to_json(obj) -> str:
    buf = io.StringIO()
    _emit(obj, buf)
    buf.write("\n")
    return buf.getvalue()


def _to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow(
            [_f(v) if isinstance(v, (float, np.floating)) else v for v in row]
        )
    return buf.getvalue()


def _save(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


def _write(text: str, args) -> int:
    if getattr(args, "out", None):
        _save(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# --- input parsing ------------------------------------------------------------


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:  # json.load recurses once per level of nesting
        raise ValidationError(f"{path} nests its JSON too deeply to read") from exc


def _parse_floats(text: str, what: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ValidationError(f"could not parse {what} {text!r}: {exc}") from exc


def _parse_atoms(text: str) -> list[tuple[float, float]]:
    atoms = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            pos, weight = chunk.split(":")
            atoms.append((float(pos), float(weight)))
        except ValueError as exc:
            raise ValidationError(f"atom {chunk!r} is not 'position:weight'") from exc
    return atoms


def _rep_from_args(args) -> MagicUnitary:
    if args.fourier is not None:
        return from_hadamard(fourier(args.fourier))
    if args.f4 is not None:
        return from_hadamard(f4_phi(args.f4))
    if args.sigma is not None:
        return from_permutation(parse_cycles(args.sigma, args.n), args.mult)
    if args.magic is not None:
        return MagicUnitary.from_json(_load_json(args.magic))
    return from_hadamard(HadamardMatrix.from_json(_load_json(args.hadamard)))


def _triple_from_args(args) -> SchurmannTriple:
    """The triple of --triple or --sigma; a --triple file is checked at the run's --tol."""
    if args.triple is not None:
        tol = getattr(args, "tol", DEFAULT_CONFIG.tol)  # semigroup has no --tol
        data = _load_json(args.triple)
        rep = MagicUnitary.from_json(_json_field(data, "rep"))
        xs = _complex_from_json(_json_field(data, "xs"))
        if xs.shape != (rep.n, rep.d):
            raise ValidationError(f"xs: expected shape {(rep.n, rep.d)} of [re, im] pairs")
        return SchurmannTriple(require_valid(rep, tol), xs, tol)
    return process_triple(_spec_from_args(args))


def _spec_from_args(args) -> PermProcessSpec:
    return PermProcessSpec(parse_cycles(args.sigma, args.n), _parse_floats(args.rates, "--rates"))


# --- subcommands --------------------------------------------------------------


def _cmd_cohomology(args) -> int:
    rep = _rep_from_args(args)
    z = cocycle_space(rep, args.rank_threshold)
    b = coboundary_space(rep, args.rank_threshold)
    payload = {"zdim": z.dim, "bdim": b.dim, "h1dim": z.dim - b.dim}
    if args.format == "csv":
        return _write(_to_csv([["key", "value"]] + [[k, v] for k, v in payload.items()]), args)
    if args.basis:
        payload["basis"] = _h1_complement(z, b, args.rank_threshold).vectors
    return _write(_to_json(payload), args)


def _cmd_verify(args) -> int:
    t = _triple_from_args(args)
    report = validate(t.rep, args.tol)
    symmetric, sym_worst = is_symmetric_words(t, args.max_word_len, args.tol)
    cert = poisson_certificate(t)
    payload = {
        "n": t.n,
        "d": t.d,
        "gaussian": is_gaussian(t, args.tol),
        "poisson": cert is not None,
        "symmetric": symmetric,
        "tracial": is_tracial(t, args.max_word_len, args.tol),
        "violations": {
            "representation": report.max_violation,
            "cocycle": cocycle_violation(t.rep, t.xs),
            "relations": _relation_defect(t),
            "symmetry": sym_worst,
            "poisson_residual": cert.residual if cert is not None else None,
        },
    }
    if args.format == "csv":
        rows = [["key", "value"]]
        for key in ("n", "d", "gaussian", "poisson", "symmetric", "tracial"):
            rows.append([key, payload[key]])
        for key, val in payload["violations"].items():
            rows.append([f"violations.{key}", "" if val is None else val])
        return _write(_to_csv(rows), args)
    return _write(_to_json(payload), args)


def _cmd_semigroup(args) -> int:
    t = _triple_from_args(args)
    times = _parse_floats(args.time, "--time")
    if not times:
        raise ValidationError("--time must list at least one value")
    q = generator_matrix(t)
    mats = [fundamental_semigroup(t, tt) for tt in times]
    words = []
    for text in args.word or []:
        w = parse_word(text, t.n)
        vals = [conv_exp(t, tt, w) for tt in times]
        words.append(
            {
                "word": format_word(w),
                "values": [v for v, _ in vals],
                "last_terms": [e for _, e in vals],
            }
        )
    if args.format == "csv":
        rows = [["t", "word", "re", "im"]]
        for pos, (tt, mat) in enumerate(zip(times, mats)):
            for i in range(t.n):
                for j in range(t.n):
                    rows.append([tt, f"p({i + 1},{j + 1})", float(mat[i, j]), 0.0])
            for entry in words:
                val = entry["values"][pos]
                rows.append([tt, entry["word"], val.real, val.imag])
        return _write(_to_csv(rows), args)
    payload = {
        "n": t.n,
        "times": times,
        "q": q,
        "marginals": mats,
        "words": words,
    }
    return _write(_to_json(payload), args)


def _cmd_central(args) -> int:
    atoms = _parse_atoms(args.atoms)
    spec = AdInvariantSpec(args.n, args.a, DiscreteMeasure(atoms))
    fd = dims(args.n, args.smax)
    values = _ad_invariant_values(spec, args.smax)
    if args.format == "csv":
        rows = [["s", "dim", "value"]]
        for s in range(args.smax + 1):
            rows.append([s, fd.dims[s], values[s]])
        return _write(_to_csv(rows), args)
    payload = {
        "n": args.n,
        "a": float(args.a),
        "atoms": [[x, w] for x, w in atoms],
        "smax": args.smax,
        "dims": list(fd.dims),
        "values": values,
    }
    return _write(_to_json(payload), args)


def _cmd_simulate(args) -> int:
    spec = _spec_from_args(args)
    # the path is cheap and draws from its own streams: a bad grid or file fails before sampling
    if args.paths is not None:
        if args.times is None:
            raise ValidationError("--paths needs --times with the sampling grid")
        grid = _parse_floats(args.times, "--times")
        rows = [["t"] + [str(i) for i in range(1, spec.n + 1)]]
        for tt, image in zip(grid, path_sample(spec, grid, args.seed)):
            rows.append([tt] + list(image))
        _save(args.paths, _to_csv(rows))
    est = simulate_marginals(spec, args.t, args.samples, args.seed)
    if args.format == "csv":
        rows = [["i", "j", "prob", "stderr"]]
        for i in range(spec.n):
            for j in range(spec.n):
                rows.append([i + 1, j + 1, float(est.probs[i, j]), float(est.stderr[i, j])])
        return _write(_to_csv(rows), args)
    payload = {
        "sigma": format_cycles(spec.sigma),
        "n": spec.n,
        "t": float(est.t),
        "samples": est.samples,
        "seed": est.seed,
        "probs": est.probs,
        "stderr": est.stderr,
    }
    return _write(_to_json(payload), args)


def _cmd_selftest(args) -> int:
    if args.list:
        text = "\n".join(selftest_mod.CHECKS) + "\n"
        _write(text, args)
        return EXIT_OK
    profile = "full" if args.full else "quick"
    results = selftest_mod.run_all(profile, names=args.only or None)
    ok = all(r.passed for r in results)
    if args.format == "json":
        payload = {
            "profile": profile,
            "passed": ok,
            "results": [
                {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
            ],
        }
        _write(_to_json(payload), args)
    elif args.format == "csv":
        rows = [["name", "passed", "detail"]]
        rows += [[r.name, r.passed, r.detail] for r in results]
        _write(_to_csv(rows), args)
    else:
        lines = [r.line() for r in results]
        lines.append(f"{'OK' if ok else 'FAILED'} ({sum(r.passed for r in results)}/{len(results)} checks, profile {profile})")
        _write("\n".join(lines) + "\n", args)
    return EXIT_OK if ok else EXIT_VALIDATION


# --- parser -------------------------------------------------------------------


def _add_output_args(sp, formats=("json", "csv"), default="json"):
    sp.add_argument("--out", metavar="FILE", help="write the result here instead of stdout")
    sp.add_argument("--format", choices=formats, default=default)


def _add_rep_args(sp):
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--fourier", type=int, metavar="N", help="Fourier representation of size N")
    group.add_argument("--sigma", metavar="CYCLES", help="permutation in cycle notation, e.g. \"(1 2)(3 4 5)\"")
    group.add_argument("--f4", type=float, metavar="PHI", help="deformed Fourier family at angle PHI")
    group.add_argument("--magic", metavar="FILE", help="magic unitary from a JSON file")
    group.add_argument("--hadamard", metavar="FILE", help="complex Hadamard matrix from a JSON file")
    sp.add_argument("--n", type=int, help="ambient size when --sigma omits trailing fixed points")
    sp.add_argument("--mult", type=int, default=1, help="multiplicity for --sigma (default 1)")


def _add_triple_args(sp):
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--triple", metavar="FILE", help="JSON file {rep, xs}")
    group.add_argument("--sigma", metavar="CYCLES", help="classical process: permutation cycles")
    sp.add_argument("--rates", metavar="LIST", help="comma-separated rates, one per nontrivial cycle")
    sp.add_argument("--n", type=int, help="ambient size when --sigma omits trailing fixed points")


def _add_cohomology_args(sp):
    _add_rep_args(sp)
    sp.add_argument("--basis", action="store_true", help="include representative cocycles")
    sp.add_argument("--rank-threshold", type=float, default=DEFAULT_CONFIG.rank_threshold)
    _add_output_args(sp)
    sp.set_defaults(func=_cmd_cohomology)


def _add_verify_args(sp):
    _add_triple_args(sp)
    sp.add_argument("--max-word-len", type=int, default=DEFAULT_CONFIG.max_word_len)
    sp.add_argument("--tol", type=float, default=DEFAULT_CONFIG.tol)
    _add_output_args(sp)
    sp.set_defaults(func=_cmd_verify)


def _add_semigroup_args(sp):
    _add_triple_args(sp)
    sp.add_argument("--time", default="1.0", metavar="LIST", help="comma-separated times")
    sp.add_argument("--word", action="append", metavar="TEXT", help="word like \"p(1,2) p(2,1)\"; repeatable")
    _add_output_args(sp)
    sp.set_defaults(func=_cmd_semigroup)


def _add_central_args(sp):
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--a", type=float, default=0.0, help="drift coefficient")
    sp.add_argument("--atoms", default="", metavar="LIST", help="measure atoms 'x:w,x:w'")
    sp.add_argument("--smax", type=int, default=8)
    _add_output_args(sp)
    sp.set_defaults(func=_cmd_central)


def _add_simulate_args(sp):
    sp.add_argument("--sigma", required=True, metavar="CYCLES")
    sp.add_argument("--rates", required=True, metavar="LIST")
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--samples", type=int, default=100_000)
    sp.add_argument("--seed", type=int, default=DEFAULT_CONFIG.seed)
    sp.add_argument("--n", type=int, help="ambient size when --sigma omits trailing fixed points")
    sp.add_argument("--paths", metavar="FILE", help="also write a CSV path sample here")
    sp.add_argument("--times", metavar="LIST", help="grid for --paths")
    _add_output_args(sp)
    sp.set_defaults(func=_cmd_simulate)


def _add_selftest_args(sp):
    sp.add_argument("--full", action="store_true", help="acceptance scales instead of quick ones")
    sp.add_argument("--only", action="append", metavar="NAME", help="run only this check; repeatable")
    sp.add_argument("--list", action="store_true", help="list check names and exit")
    _add_output_args(sp, formats=("text", "json", "csv"), default="text")
    sp.set_defaults(func=_cmd_selftest)


# name -> (help line, function adding the subcommand's arguments), in help order
COMMANDS = {
    "cohomology": ("cocycle and coboundary dimensions, h1", _add_cohomology_args),
    "verify": ("classify a Schurmann triple", _add_verify_args),
    "semigroup": ("Q-matrix, marginal semigroup, word states", _add_semigroup_args),
    "central": ("fusion dimensions and ad-invariant values", _add_central_args),
    "simulate": ("Monte-Carlo marginals of a permutation process", _add_simulate_args),
    "selftest": ("run the cross-validation suite", _add_selftest_args),
}


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser for `argv`: when argv starts with a command, only that subparser is built.

    Everything after the command goes to its subparser, so the others are
    never consulted; any other argv (help, version, none or an unknown
    command) gets all six, which the top-level help and errors list.
    """
    parser = _Parser(prog="qperm", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"qperm {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True, metavar="COMMAND")
    names = argv[:1] if argv and argv[0] in COMMANDS else COMMANDS
    for name in names:
        help_line, add_args = COMMANDS[name]
        add_args(sub.add_parser(name, help=help_line))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv)
    args = parser.parse_args(argv)
    if getattr(args, "sigma", None) is not None and getattr(args, "triple", "") is None:
        if getattr(args, "rates", None) is None:
            parser.error("--sigma needs --rates for this command")
    if getattr(args, "basis", False) and args.format != "json":
        parser.error("--basis needs --format json")
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"qperm: budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except QpermError as exc:
        print(f"qperm: error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
