"""The benchmark's three workloads.

Each workload draws one round of operations from a numpy Generator
(`build`), runs the round through qperm's public functions (`solve`, the
only timed part), and checks every operation's output against `oracles`
(`check`). An operation is one unit that passes or fails as a whole.

Every round draws fresh inputs and builds fresh triples: the semigroup
layer caches transfer rows per triple object, so a round that reused the
previous round's triples would time cache hits.

Operations flagged `known_fault` run on fixed inputs that do not depend on
the seed and fail today because of `stochsim.process_triple` (see the
README); every round holds the same number of them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles
import pace

TOL = 1e-8  # state values and functionals are O(1) on these inputs
Z_BOUND = 6.0  # Monte-Carlo entries may sit this many standard errors off


@dataclass
class Op:
    """One operation: a label, the qperm inputs, and what its check needs."""

    label: str
    kind: str
    args: dict
    known_fault: bool = False
    meta: dict = field(default_factory=dict)


def reduce_word(letters):
    """Reduced form of a word, or None for the zero word (equal letters collapse)."""
    kept = []
    for let in letters:
        if kept and kept[-1] == let:
            continue
        if kept and (kept[-1][0] == let[0] or kept[-1][1] == let[1]):
            return None
        kept.append(let)
    return tuple(kept)


def random_word(rng, n: int, length: int, rows, cols=None) -> tuple:
    """A reduced word of exactly `length` letters, rows and columns drawn from the given sets."""
    rows = list(rows)
    cols = list(range(1, n + 1)) if cols is None else list(cols)
    out = []
    for _ in range(length):
        prev = out[-1] if out else (0, 0)
        r = int(rng.choice([v for v in rows if v != prev[0]]))
        c = int(rng.choice([v for v in cols if v != prev[1]]))
        out.append((r, c))
    return tuple(out)


def random_cycle_perm(rng, n: int, lengths) -> tuple:
    """A permutation of 1..n with disjoint cycles of the given lengths on random points."""
    points = [int(v) for v in rng.permutation(np.arange(1, n + 1))]
    sigma = list(range(1, n + 1))
    pos = 0
    for ell in lengths:
        cyc = points[pos : pos + ell]
        pos += ell
        for a, v in enumerate(cyc):
            sigma[v - 1] = cyc[(a + 1) % ell]
    return tuple(sigma)


def nontrivial_cycles(sigma):
    return [c for c in oracles.cycles(sigma) if len(c) > 1]


def classical_xs(sigma, rates) -> np.ndarray:
    """The cocycle of the classical process: sqrt(rate) e_c on the points of cycle c."""
    cycs = nontrivial_cycles(sigma)
    d = max(len(cycs), 1)
    xs = np.zeros((len(sigma), d), dtype=complex)
    for c, (cyc, lam) in enumerate(zip(cycs, rates)):
        for v in cyc:
            xs[v - 1, c] = math.sqrt(lam)
    return xs


def random_cocycle(rng, blocks, scale: float) -> np.ndarray:
    """A random cocycle tuple with max_i |xi_i|^2 = scale."""
    basis = oracles.cocycle_basis(blocks)
    coeff = rng.standard_normal(basis.shape[0]) + 1j * rng.standard_normal(basis.shape[0])
    xs = (coeff @ basis).reshape(blocks.shape[0], blocks.shape[2])
    return xs * math.sqrt(scale / float(np.max(np.sum(np.abs(xs) ** 2, axis=1))))


def random_projection(rng, d: int, rank: int, real: bool) -> np.ndarray:
    z = rng.standard_normal((d, rank))
    if not real:
        z = z + 1j * rng.standard_normal((d, rank))
    q, _ = np.linalg.qr(z)
    return (q @ q.conj().T).astype(complex)


def _close(a, b, tol=TOL) -> bool:
    return abs(complex(a) - complex(b)) <= tol


class Workload:
    """Shared round structure: a program error in one operation fails that operation.

    `pace_sample` is the workload's reference work (see `pace`), and
    `PACE_NOMINAL_S` its time on the host the reference figures in
    README.md come from; `solve_s` is scaled to that host's speed. Where
    `PACE_NOMINAL_S` is None the run takes no pace samples and `solve_s`
    is plain wall time; `pace_sample` then only warms up before round 0.
    """

    PACE_NOMINAL_S: float | None = None

    def pace_sample(self) -> None:
        raise NotImplementedError

    def solve(self, ops) -> list:
        from qperm import QpermError

        outs = []
        for op in ops:
            try:
                outs.append(self.solve_one(op))
            except (QpermError, np.linalg.LinAlgError) as exc:
                outs.append(exc)
        return outs

    def check(self, op, out) -> bool:
        return not isinstance(out, Exception) and self.check_one(op, out)

    def output_bytes(self, outs) -> int:
        return 0

    def close(self) -> None:
        pass


# --- word-states ------------------------------------------------------------


class WordStates(Workload):
    """omega_t = exp_*(tL) on families of words, through `semigroup.conv_exp`.

    A family is a reduced word w of length 1-3 at one time t, with w*, w p_kj
    and p_k'j w for every j of a row k (k'), and w*w when |w| <= 2. Words in
    a family have at most 4 letters: one 5-letter word costs ~7 s here. The
    Fourier family with |w| = 3 takes w p_kj only: its four 4-letter words
    are most of a round's time, and eight would double the round, halving
    the rounds whose median is `solve_s`.
    """

    # (process shape, family lengths) for the classical triples of a round
    CLASSICAL = (((4,), (3, 3, 3, 2, 2, 1)), ((3,), (3, 3, 2, 1)), ((2, 2), (3, 3, 2, 1)))
    # (|w|, with p_k'j w) for the Fourier families of a round
    FOURIER = ((3, False), (2, True), (2, True), (1, True), (1, True))

    PACE_NOMINAL_S = 0.0061

    def __init__(self):
        import qperm

        self.qp = qperm
        self.fourier_blocks = oracles.hadamard_blocks(oracles.fourier_matrix(4))

    def pace_sample(self) -> None:
        pace.python_work(6000)
        pace.small_matrix_work(150)

    def _family(self, label, triple, blocks, xs, w, time, k_right, k_left, classical=None,
                known_fault=False):
        qp, n = self.qp, blocks.shape[0]
        wstar = tuple(reversed(w))
        words = [w, wstar]
        words += [w + ((k_right, j),) for j in range(1, n + 1)] if k_right else []
        words += [((k_left, j),) + w for j in range(1, n + 1)] if k_left else []
        if len(w) <= 2:
            words.append(wstar + w)
        return Op(
            label, "family",
            {"triple": triple, "time": time, "words": [qp.Word(x, n) for x in words]},
            known_fault,
            {"blocks": blocks, "xs": xs, "letters": words, "w": w, "n": n,
             "k_right": k_right, "k_left": k_left, "classical": classical},
        )

    def _classical(self, rng, spec_shape, lengths, r):
        qp = self.qp
        n = 4
        sigma = random_cycle_perm(rng, n, spec_shape)
        rates = [float(rng.uniform(0.5, 1.2)) for _ in spec_shape]
        triple = qp.process_triple(qp.PermProcessSpec(sigma, rates))
        xs = classical_xs(sigma, rates)
        blocks = oracles.permutation_blocks(sigma, xs.shape[1])
        cycs = nontrivial_cycles(sigma)
        ops = []
        for f, length in enumerate(lengths):
            # with several cycles a family stays inside one: words touching two
            # cycles are the known fault, kept to the fixed families below
            rows = list(cycs[f % len(cycs)]) if len(cycs) > 1 else list(range(1, n + 1))
            w = random_word(rng, n, length, rows, rows)
            k_right = int(rng.choice([v for v in rows if v != w[-1][0]]))
            k_left = int(rng.choice([v for v in rows if v != w[0][0]]))
            ops.append(self._family(
                f"round{r}/classical{spec_shape}/{f}", triple, blocks, xs, w,
                float(rng.uniform(0.2, 1.0)), k_right, k_left, (sigma, rates)))
        return ops

    def _known_faults(self, r):
        # words touching both cycles of a two-cycle process; ROADMAP item 4
        qp, ops = self.qp, []
        for sigma, rates, w, k_right, k_left in (
            ((2, 1, 4, 3), (1.0, 0.7), ((1, 2), (3, 4)), 1, 3),
            ((2, 3, 4, 1, 6, 5), (1.0, 0.7), ((1, 2), (5, 6), (2, 3)), 0, 0),
        ):
            triple = qp.process_triple(qp.PermProcessSpec(sigma, rates))
            xs = classical_xs(sigma, rates)
            ops.append(self._family(
                f"round{r}/two-cycle-cross{sigma}", triple,
                oracles.permutation_blocks(sigma, xs.shape[1]), xs, w, 0.8, k_right, k_left,
                (sigma, rates), known_fault=True))
        return ops

    def build(self, rng, r: int) -> list[Op]:
        qp, n = self.qp, 4
        xs = random_cocycle(rng, self.fourier_blocks, float(rng.uniform(0.5, 1.0)))
        triple = qp.SchurmannTriple(qp.from_hadamard(qp.fourier(n)), xs)
        ops = []
        for f, (length, left) in enumerate(self.FOURIER):
            w = random_word(rng, n, length, range(1, n + 1))
            k_right = int(rng.choice([v for v in range(1, n + 1) if v != w[-1][0]]))
            k_left = int(rng.choice([v for v in range(1, n + 1) if v != w[0][0]])) * left
            ops.append(self._family(f"round{r}/fourier4/{f}", triple, self.fourier_blocks, xs,
                                    w, float(rng.uniform(0.2, 1.0)), k_right, k_left))
        for shape, lengths in self.CLASSICAL:
            ops += self._classical(rng, shape, lengths, r)
        return ops + self._known_faults(r)

    def solve_one(self, op):
        conv_exp, a = self.qp.conv_exp, op.args
        return [conv_exp(a["triple"], a["time"], w)[0] for w in a["words"]]

    def check_one(self, op, vals) -> bool:
        m, t = op.meta, op.args["time"]
        n, w = m["n"], m["w"]
        base = vals[0]
        ok = _close(vals[1], complex(base).conjugate())
        pos = 2
        for k in (m["k_right"], m["k_left"]):
            if k:
                ok &= _close(sum(vals[pos : pos + n]), base)
                pos += n
        if len(w) <= 2:
            sq = complex(vals[pos])
            ok &= sq.real >= -TOL and abs(sq.imag) <= TOL
        marg = oracles.expm(t * oracles.generator_matrix(m["blocks"], m["xs"]))
        for letters, val in zip(m["letters"], vals):
            red = reduce_word(letters)
            if red is None:
                ok &= _close(val, 0.0)
            elif len(red) == 1:
                (i, j), = red
                ok &= _close(val, marg[i - 1, j - 1])
            if m["classical"] is not None:
                sigma, rates = m["classical"]
                ok &= _close(val, oracles.joint_law(sigma, rates, t, letters))
        return bool(ok)


# --- cohomology-scan --------------------------------------------------------


class CohomologyScan(Workload):
    """`qperm cohomology --basis` through `qperm.cli.main`, output captured in memory."""

    FOURIER_SIZES = (6, 8, 9, 10, 12, 16)
    # not paced: no small SVD tracked the n=16 SVDs' speed (see README.md)
    PACE_NOMINAL_S = None

    def __init__(self, workdir: Path):
        from qperm import cli

        self.cli = cli
        self.workdir = workdir
        self.fourier_blocks = {
            n: oracles.hadamard_blocks(oracles.fourier_matrix(n)) for n in self.FOURIER_SIZES
        }

    def pace_sample(self) -> None:
        pace.lapack_work(1)

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _op(self, label, argv, blocks, h1, **meta):
        return Op(label, "cohomology", {"argv": ["cohomology", *argv, "--basis"]},
                  meta={"blocks": blocks, "h1": h1, **meta})

    def _two_block_file(self, name, blocks) -> str:
        self.workdir.mkdir(parents=True, exist_ok=True)
        path = self.workdir / f"{name}.json"
        entries = np.stack([blocks.real, blocks.imag], axis=-1).tolist()
        n, d = blocks.shape[0], blocks.shape[2]
        path.write_text(json.dumps({"n": n, "d": d, "entries": entries}))
        return str(path)

    def build(self, rng, r: int) -> list[Op]:
        ops = [self._op(f"round{r}/fourier{n}", ["--fourier", str(n)], self.fourier_blocks[n],
                        oracles.fourier_h1(n)) for n in self.FOURIER_SIZES]
        generic = float(rng.choice([rng.uniform(0.2, 1.3), rng.uniform(1.8, 3.0)]))
        for phi, h1 in ((generic, 1), (math.pi / 2, 3)):
            ops.append(self._op(f"round{r}/f4({phi:.4f})", ["--f4", repr(phi)],
                                oracles.hadamard_blocks(oracles.f4_matrix(phi)), h1))
        for p in range(4):
            n = int(rng.integers(5, 9))
            lengths, left = [], n
            while left >= 2 and (not lengths or rng.random() < 0.6):
                ell = int(rng.integers(2, min(left, 4) + 1))
                lengths.append(ell)
                left -= ell
            sigma = random_cycle_perm(rng, n, lengths)
            mult = 1 + p % 2
            text = "".join("(" + " ".join(map(str, c)) + ")" for c in nontrivial_cycles(sigma))
            ops.append(self._op(f"round{r}/perm{sigma}x{mult}",
                                ["--sigma", text, "--n", str(n), "--mult", str(mult)],
                                oracles.permutation_blocks(sigma, mult),
                                oracles.perm_h1(sigma, mult)))
        for p in range(4):
            d = int(rng.integers(3, 7))
            if p % 2 == 0:
                # complements share k directions, so the meet is nontrivial
                k = int(rng.integers(1, d - 1))
                z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                base = np.linalg.qr(z)[0][:, :k]
                extra_p = int(rng.integers(0, d - k))
                extra_q = int(rng.integers(0, d - k))

                def _complement(extra):
                    cols = np.hstack([base, rng.standard_normal((d, extra))])
                    q = np.linalg.qr(cols)[0]
                    return np.eye(d) - q @ q.conj().T

                P, Q = _complement(extra_p), _complement(extra_q)
            else:
                P = random_projection(rng, d, int(rng.integers(1, d)), real=False)
                Q = random_projection(rng, d, int(rng.integers(1, d)), real=False)
            blocks = oracles.two_block_blocks(P, Q)
            path = self._two_block_file(f"two_block_{p}", blocks)
            ops.append(self._op(f"round{r}/two-block{p}(d={d})", ["--magic", path], blocks,
                                oracles.meet_rank(P, Q)))
        return ops

    def solve_one(self, op):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(op.args["argv"])
        return code, buf.getvalue()

    def output_bytes(self, outs) -> int:
        return sum(len(out[1].encode()) for out in outs if not isinstance(out, Exception))

    def check_one(self, op, out) -> bool:
        code, text = out
        if code != 0:
            return False
        payload = json.loads(text)
        blocks, h1 = op.meta["blocks"], op.meta["h1"]
        n, d = blocks.shape[0], blocks.shape[2]
        basis = np.asarray(payload["basis"], dtype=float).reshape(-1, n * d, 2)
        basis = basis[..., 0] + 1j * basis[..., 1]
        if payload["h1dim"] != h1 or payload["zdim"] - payload["bdim"] != h1:
            return False
        if basis.shape[0] != h1:
            return False
        if h1 == 0:
            return True
        if float(np.max(np.abs(basis @ basis.conj().T - np.eye(h1)))) > TOL:
            return False
        if max(oracles.cocycle_defect(blocks, row.reshape(n, d)) for row in basis) > TOL:
            return False
        return float(np.max(np.abs(basis.conj() @ oracles.coboundaries(blocks)))) <= TOL


# --- process-classify -------------------------------------------------------


class ProcessClassify(Workload):
    """Classification as `qperm verify` does it, and Monte-Carlo marginals."""

    MAX_LEN = 4
    SAMPLES = 2_000_000
    CLASSICAL = ((2,), (3,), (4,))
    MC_SHAPES = ((4,), (3,), (2, 2))
    PACE_NOMINAL_S = 0.0057

    def __init__(self):
        import qperm

        self.qp = qperm
        self.fourier_blocks = oracles.hadamard_blocks(oracles.fourier_matrix(4))

    def pace_sample(self) -> None:
        pace.array_work(12)
        pace.python_work(2500)
        pace.small_matrix_work(100)

    def _classify(self, label, triple, blocks, xs, rng, known_fault=False, **meta):
        n = blocks.shape[0]
        words = [np.array([random_word(rng, n, length, range(1, n + 1)) for _ in range(4)])
                 for length in range(1, 5)]
        return Op(label, "classify", {"triple": triple, "words": words}, known_fault,
                  {"blocks": blocks, "xs": xs, **meta})

    def _two_block(self, rng, r, idx, d, real, coboundary):
        qp = self.qp
        while True:
            P = random_projection(rng, d, int(rng.integers(1, d)), real)
            Q = random_projection(rng, d, int(rng.integers(1, d)), real)
            v = rng.standard_normal(d) + (0 if real else 1j * rng.standard_normal(d))
            u = rng.standard_normal(d) + (0 if real else 1j * rng.standard_normal(d))
            xi = (P - np.eye(d)) @ v
            zeta = (Q - np.eye(d)) @ (v if coboundary else u)
            blocks = oracles.two_block_blocks(P, Q)
            xs = np.array([xi, xi, zeta, zeta])
            pairing = oracles.two_block_pairing(P, Q, xi, zeta)
            residual = oracles.coboundary_residual(blocks, xs)
            # redraw the rare inputs whose verdicts sit near a decision threshold
            if (min(np.linalg.norm(xi), np.linalg.norm(zeta)) > 0.1
                    and not 1e-9 < pairing < 1e-3 and not 1e-9 < residual < 1e-3):
                break
        triple = qp.two_block_triple(qp.TwoBlockSpec(P, Q), xi, zeta)
        return self._classify(
            f"round{r}/two-block{idx}(d={d},{'real' if real else 'complex'}"
            f"{',coboundary' if coboundary else ''})",
            triple, blocks, xs, rng, symmetric=pairing <= 1e-9, real=real,
            coboundary=coboundary, residual=residual)

    def build(self, rng, r: int) -> list[Op]:
        qp = self.qp
        ops = []
        for idx in range(8):
            ops.append(self._two_block(rng, r, idx, 2 + idx % 4, idx % 2 == 0, idx in (2, 5)))
        # the C^3 counterexample: complex data, pairing not real, so not symmetric
        P = np.diag([1.0, 1.0, 0.0]).astype(complex)
        Q = np.full((3, 3), 1.0 / 3.0).astype(complex)
        v = np.array([1.0, 0.0, 1.0j])
        xi, zeta = v - P @ v, v - Q @ v
        blocks = oracles.two_block_blocks(P, Q)
        xs = np.array([xi, xi, zeta, zeta])
        ops.append(self._classify(
            f"round{r}/two-block-C3", qp.two_block_triple(qp.TwoBlockSpec(P, Q), xi, zeta),
            blocks, xs, rng, symmetric=False, real=False, coboundary=False,
            residual=oracles.coboundary_residual(blocks, xs)))
        rep = qp.from_hadamard(qp.fourier(4))
        for idx, coboundary in enumerate((False, True)):
            if coboundary:
                v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
                xs = np.array([(self.fourier_blocks[i, i] - np.eye(4)) @ v for i in range(4)])
            else:
                while True:
                    xs = random_cocycle(rng, self.fourier_blocks, float(rng.uniform(0.5, 1.0)))
                    if oracles.coboundary_residual(self.fourier_blocks, xs) > 1e-3:
                        break
            ops.append(self._classify(
                f"round{r}/fourier4/{idx}", qp.SchurmannTriple(rep, xs), self.fourier_blocks,
                xs, rng, coboundary=coboundary,
                residual=oracles.coboundary_residual(self.fourier_blocks, xs)))
        specs = [(random_cycle_perm(rng, 4, shape), [float(rng.uniform(0.5, 1.5))])
                 for shape in self.CLASSICAL]
        # two cycles: classified non-Poisson and non-tracial today (ROADMAP item 4)
        specs.append(((2, 1, 4, 3), [1.0, 0.7]))
        for sigma, rates in specs:
            xs = classical_xs(sigma, rates)
            ops.append(self._classify(
                f"round{r}/classical{sigma}", qp.process_triple(qp.PermProcessSpec(sigma, rates)),
                oracles.permutation_blocks(sigma, xs.shape[1]), xs, rng,
                known_fault=len(rates) > 1, classical=(sigma, rates), coboundary=True,
                residual=0.0))
        for shape in self.MC_SHAPES:
            sigma = random_cycle_perm(rng, 4, shape)
            rates = [float(rng.uniform(0.5, 1.5)) for _ in shape]
            spec = qp.PermProcessSpec(sigma, rates)
            ops.append(Op(f"round{r}/simulate{sigma}", "simulate",
                          {"spec": spec, "triple": qp.process_triple(spec),
                           "t": float(rng.uniform(0.3, 1.5)), "seed": int(rng.integers(2 ** 31))},
                          meta={"sigma": sigma, "rates": rates}))
        return ops

    def solve_one(self, op):
        qp, a = self.qp, op.args
        t = a["triple"]
        if op.kind == "simulate":
            est = qp.simulate_marginals(a["spec"], a["t"], self.SAMPLES, a["seed"])
            return {"probs": est.probs, "samples": est.samples,
                    "semigroup": qp.fundamental_semigroup(t, a["t"])}
        rel = 0.0
        for x in qp.defining_relations(t.n):
            rel = max(rel, float(np.linalg.norm(qp.eta(t, x))), abs(qp.gen_functional(t, x)))
        cert = qp.poisson_certificate(t)
        return {
            "representation": qp.validate(t.rep).ok,
            "relations": rel,
            "symmetric": qp.is_symmetric_words(t, self.MAX_LEN)[0],
            "tracial": qp.is_tracial(t, self.MAX_LEN),
            "certificate": None if cert is None else cert.v,
            "gaussian": qp.is_gaussian(t),
            "L": [qp.gen_functional_batch(t, batch) for batch in a["words"]],
        }

    def check_one(self, op, out) -> bool:
        m = op.meta
        if op.kind == "simulate":
            exact = oracles.classical_marginals(m["sigma"], m["rates"], op.args["t"])
            sd = np.sqrt(exact * (1.0 - exact) / self.SAMPLES)
            return (out["samples"] == self.SAMPLES
                    and bool(np.all(np.abs(out["probs"] - exact) <= Z_BOUND * sd + 1e-12))
                    and float(np.max(np.abs(out["semigroup"] - exact))) <= TOL)
        blocks, xs = m["blocks"], m["xs"]
        ok = out["representation"] and out["relations"] <= TOL and not out["gaussian"]
        if "symmetric" in m:
            ok &= out["symmetric"] == m["symmetric"]
            ok &= out["symmetric"] or not m["real"]
        if "classical" in m:
            sigma, _ = m["classical"]
            every_transposition = all(len(c) == 2 for c in nontrivial_cycles(sigma))
            ok &= out["tracial"] and out["symmetric"] == every_transposition
        v = out["certificate"]
        if v is None:
            return bool(ok and not m["coboundary"] and m["residual"] > TOL)
        n, d = blocks.shape[0], blocks.shape[2]
        fit = max(float(np.linalg.norm((blocks[i, i] - np.eye(d)) @ v - xs[i])) for i in range(n))
        ok &= fit <= 1e-7
        for batch, vals in zip(op.args["words"], out["L"]):
            for letters, val in zip(batch, vals):
                mat = oracles.word_matrix(blocks, letters)
                form = np.vdot(v, mat @ v) - oracles.counit(letters) * np.vdot(v, v)
                ok &= _close(val, form, 1e-7)
        return bool(ok)


def make(name: str, workdir: Path):
    if name == "word-states":
        return WordStates()
    if name == "cohomology-scan":
        return CohomologyScan(workdir)
    if name == "process-classify":
        return ProcessClassify()
    raise KeyError(name)

