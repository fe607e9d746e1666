"""Record perfbench results of one checkout into BENCH_<label>.json.

    python3 tools/bench_record.py --checkout DIR --label baseline

Runs `perfbench/run.py` of the checkout for 35 s once per workload and seed
(1 and 2), untraced, plus one traced `word-states` run (seed 1), each in its
own process from the root of the checkout, and writes the file to the
current directory. It also times `conv_exp` on one fresh 5-letter word over a
Fourier n=4 triple, whose block has 324 indices: a cold call, which builds the
block, then a warm one on the same triple and word, which finds it on the
triple. A second micro case runs `qperm cohomology --fourier 16 --basis`
through `cli.main` in process, cold and then warm, with the sha256 of each
stdout, so two files show both the CLI layer's time and whether its output
bytes moved. The file holds every result line, `nproc`, and the Python, numpy and
scipy versions (scipy null when it is not installed), so two files from the
same machine can be compared.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("word-states", "cohomology-scan", "process-classify")
SEEDS = (1, 2)
SECONDS = 35.0

# times conv_exp on a fresh triple, then again on the same one; prints
# {"seconds": cold, "value": [re, im], "warm_seconds": warm, "warm_value": [re, im]}
MICRO = """
import json, time
import numpy as np
import qperm
rep = qperm.from_hadamard(qperm.fourier(4))
t = qperm.SchurmannTriple(rep, qperm.random_cocycle(rep, np.random.default_rng(0)))
w = qperm.parse_word("p(1,2) p(2,3) p(3,4) p(4,1) p(1,3)", 4)
out = {}
for key in ("", "warm_"):
    t0 = time.perf_counter()
    val = complex(qperm.conv_exp(t, 0.5, w)[0])
    out[key + "seconds"] = time.perf_counter() - t0
    out[key + "value"] = [val.real, val.imag]
print(json.dumps(out))
"""

# runs the command twice in one process; prints {"seconds", "exit", "sha256"} of the
# cold call and the same keys prefixed "warm_" of the second
MICRO_CLI = """
import contextlib, hashlib, io, json, time
from qperm import cli
out = {}
for key in ("", "warm_"):
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["cohomology", "--fourier", "16", "--basis"])
    out[key + "seconds"] = time.perf_counter() - t0
    out[key + "exit"] = code
    out[key + "sha256"] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
print(json.dumps(out))
"""

MICROS = (
    ("conv_exp, Fourier n=4, t=0.5, word p(1,2) p(2,3) p(3,4) p(4,1) p(1,3)", MICRO),
    ("cli.main cohomology --fourier 16 --basis, in process", MICRO_CLI),
)


def _last_json(text: str):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    return json.loads(lines[-1]) if lines else None


def run_workload(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    return {"workload": workload, "seed": seed, "seconds": SECONDS, "trace": trace,
            "exit": proc.returncode, "result": _last_json(proc.stdout)}


def run_micro(checkout: Path, case: str, code: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=checkout, env=env,
                          capture_output=True, text=True)
    return {"case": case, "exit": proc.returncode, "result": _last_json(proc.stdout)}


# scipy is only a test dependency: its version is null where it is not installed
VERSIONS = """
import json, numpy
try:
    import scipy
except ImportError:
    scipy = None
print(json.dumps([numpy.__version__, scipy and scipy.__version__]))
"""


def _versions(checkout: Path) -> dict:
    out = subprocess.run([sys.executable, "-c", VERSIONS], capture_output=True, text=True).stdout
    numpy_v, scipy_v = json.loads(out)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True,
                            text=True).stdout.strip()
    return {"commit": commit or None, "python": platform.python_version(),
            "numpy": numpy_v, "scipy": scipy_v, "nproc": os.cpu_count()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", required=True, help="root of the checkout to measure")
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    args = parser.parse_args(argv)

    checkout = Path(args.checkout).resolve()
    record = {"label": args.label, **_versions(checkout), "runs": []}
    for workload in WORKLOADS:
        for seed in SEEDS:
            record["runs"].append(run_workload(checkout, workload, seed, 0))
    record["runs"].append(run_workload(checkout, "word-states", SEEDS[0], 1))
    record["micro"] = [run_micro(checkout, case, code) for case, code in MICROS]
    out = Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(out)
    return 0 if all(r["exit"] == 0 for r in record["runs"] + record["micro"]) else 1


if __name__ == "__main__":
    sys.exit(main())
