"""Pacing: fixed reference work timed between a run's operations.

The benchmark runs on a share of a host whose speed drifts: the same
round of the same inputs took 3.6 s and 5.5 s ten minutes apart, and a
fixed pure-Python loop moved by 20-30% within a minute, with no steal time
and no other process of the run competing. A wall-time median over one run
carries that drift into `solve_s`, where it reads as a regression or a gain.

So a run times a fixed piece of reference work (a *pace sample*) before the
first operation of each round and after every operation, in the same
process and thread. The reference work uses numpy and the standard library
only, resembles the workload's own mix (dict and tuple work with tiny
matrices, or whole arrays), and is the same for every seed and every
version of qperm. A round's paced time is

    round wall time * PACE_NOMINAL_S / (mean pace sample of that round)

that is, the round's wall time on a host as fast as the one on which a pace
sample took `PACE_NOMINAL_S`. A faster or slower qperm moves it in proportion;
a faster or slower host moves both factors together. The garbage collector
is held off during a pace sample, so collections of qperm's objects stay in
qperm's time. `lapack_work` only warms up LAPACK before an unpaced run: no
small SVD tracked the speed of the large ones that run times.
"""

from __future__ import annotations

import gc
import time

import numpy as np

_RNG = np.random.default_rng(20261018)
_M4 = _RNG.standard_normal((4, 4)) + 1j * _RNG.standard_normal((4, 4))
_ARR = _RNG.standard_normal(1 << 15)
_IDX = _RNG.integers(0, 64, 1 << 15)
_SVD = _RNG.standard_normal((384, 96)) + 1j * _RNG.standard_normal((384, 96))


def python_work(units: int) -> complex:
    """Dict, tuple and complex arithmetic, like the word layer's closures."""
    table: dict = {}
    for i in range(units):
        key = (i & 15, (i >> 4) & 15, i % 5)
        table[key] = table.get(key, 0j) + complex(i, 1) * 0.5
    acc = 0j
    for key, val in table.items():
        acc += val * key[0]
    return acc


def small_matrix_work(units: int) -> complex:
    """4x4 complex products, like a scalar generating functional."""
    v = np.ones(4, dtype=complex)
    for _ in range(units):
        v = _M4 @ v
        v = v / np.linalg.norm(v)
    return complex(v[0])


def array_work(units: int) -> float:
    """Whole-array arithmetic and counting, like batched L and sampling."""
    acc = 0.0
    for _ in range(units):
        x = np.tanh(_ARR * 0.5) + np.sqrt(np.abs(_ARR))
        acc += float(np.bincount(_IDX, weights=x, minlength=64)[3])
    return acc


def lapack_work(units: int) -> float:
    """Full complex SVDs: the first call in a process pays LAPACK's one-off costs."""
    acc = 0.0
    for _ in range(units):
        acc += float(np.linalg.svd(_SVD, full_matrices=True)[1][0])
    return acc


def timed(sample) -> float:
    """Wall time of one pace sample, with the garbage collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        sample()
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()
