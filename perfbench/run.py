"""Benchmark for qperm: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload word-states --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; qperm is imported from its `src/`. The
run repeats whole rounds of the workload until `--seconds` have passed,
checks every operation of every round against `oracles`, and prints one
JSON object as its last line: `correct`, `attempted`, `failed` and
`metrics`. With `--trace 0` the metrics are the end-to-end ones
(`setup_s`, `solve_s`, `peak_rss_mb`); with `--trace 1` they are the
per-layer ones from `tracing`. `solve_s` is paced against reference work
timed between the operations (`pace`). See README.md.
"""

import os
import time

T0 = time.perf_counter()


def _process_age() -> float:
    """Seconds since this process started, or 0.0 where /proc is missing."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return max(time.clock_gettime(time.CLOCK_BOOTTIME) - started, 0.0)
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


AGE_AT_T0 = _process_age()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
# the qperm modules each workload calls into
MODULES = {
    "word-states": ("qperm",),
    "cohomology-scan": ("qperm", "qperm.cli"),
    "process-classify": ("qperm",),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "qperm" / "__init__.py").is_file():
        print(f"perfbench: no qperm package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    # set-up: import qperm and the modules the workload calls, then build the
    # first round's inputs; all of it counts in setup_s
    before = set(sys.modules)
    t_import = time.perf_counter()
    for name in MODULES[args.workload]:
        importlib.import_module(name)
    import_s = time.perf_counter() - t_import
    import_modules = len(set(sys.modules) - before)
    import numpy as np

    import pace
    import qperm
    import workloads

    if not Path(qperm.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: qperm came from {qperm.__file__}, not {src}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        tracer.phase = 0

    workdir = OUT_DIR / f"work-{os.getpid()}"
    wl = workloads.make(args.workload, workdir)
    try:
        ops = wl.build(np.random.default_rng([args.seed, 0]), 0)
        setup_s = AGE_AT_T0 + time.perf_counter() - T0
        # warm-up: the first pace sample pays one-off costs (the first LAPACK
        # call takes up to a second here); it is timed nowhere
        pace.timed(wl.pace_sample)
        result = run_rounds(wl, ops, args, tracer)
    finally:
        wl.close()

    rounds, attempted, failed, unexpected = result
    solve_s = statistics.median(paced(wl, wall, pace_s) for wall, pace_s in rounds)
    pace_med = statistics.median(pace_s for _, pace_s in rounds) if wl.PACE_NOMINAL_S else 0.0
    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "solve_s": (solve_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        metrics = tracer.metrics(len(rounds))
        metrics["qperm.import_s"] = (import_s, "s")
        metrics["qperm.import_modules"] = (float(import_modules), "count")
        metrics["trace.solve_s"] = (solve_s, "s")
        metrics["trace.solve_wall_s"] = (statistics.median(wall for wall, _ in rounds), "s")
        metrics["trace.pace_s"] = (pace_med, "s")
        mismatches = tracer.enumeration_mismatches()
        if mismatches:
            print(f"perfbench: {mismatches} enumerations off the closed form", file=sys.stderr)
            unexpected += mismatches
        for name in sorted(tracer.absent):
            print(f"perfbench: absent: {name} (its metrics are left out)", file=sys.stderr)
    report = {
        "correct": unexpected == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    line = json.dumps(report)
    OUT_DIR.mkdir(exist_ok=True)
    kind = "trace" if tracer is not None else "result"
    (OUT_DIR / f"{kind}-{args.workload}-{args.seed}.json").write_text(line + "\n")
    print(f"rounds={len(rounds)} wall s / mean pace sample ms / paced s per round: "
          + " ".join(f"{w:.4f}/{(p or 0.0) * 1e3:.3f}/{paced(wl, w, p):.4f}" for w, p in rounds),
          file=sys.stderr)
    print(line)
    return 0


def paced(wl, wall: float, pace_s) -> float:
    """A round's wall time on a host where a pace sample takes the workload's nominal time."""
    return wall * wl.PACE_NOMINAL_S / pace_s if wl.PACE_NOMINAL_S else wall


def run_rounds(wl, ops, args, tracer):
    """Whole rounds until the time is up, a pace sample before and after each operation.

    Returns ([(round wall time of the calls into qperm, mean pace sample)],
    attempted, failed, failed outside the known faults).
    """
    import numpy as np

    import pace

    rounds, attempted, failed, unexpected = [], 0, 0, 0
    began = time.perf_counter()
    sample = pace.timed if wl.PACE_NOMINAL_S else (lambda _: 0.0)
    r = 0
    while r == 0 or time.perf_counter() - began < args.seconds:
        if r:
            ops = wl.build(np.random.default_rng([args.seed, r]), r)
        wall, pace_s, outs = 0.0, [sample(wl.pace_sample)], []
        for op in ops:
            if tracer is not None:
                tracer.phase = r + 1
            t = time.perf_counter()
            outs += wl.solve([op])
            wall += time.perf_counter() - t
            if tracer is not None:
                tracer.phase = -1
            pace_s.append(sample(wl.pace_sample))
        rounds.append((wall, statistics.fmean(pace_s) if wl.PACE_NOMINAL_S else None))
        if tracer is not None:
            tracer.phase = r + 1
            tracer.count("cli.output_bytes", wl.output_bytes(outs))
            tracer.phase = -1
        for op, out in zip(ops, outs):
            ok = wl.check(op, out)
            attempted += 1
            if not ok:
                failed += 1
                unexpected += not op.known_fault
                if not op.known_fault:
                    print(f"perfbench: FAILED {op.label}", file=sys.stderr)
        r += 1
    return rounds, attempted, failed, unexpected


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
