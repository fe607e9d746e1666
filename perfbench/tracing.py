"""Spans around qperm's public functions, for the traced run.

`Tracer.install` replaces each target function by a wrapper that records a
span (name, start, end, parent, phase) and, for some targets, counters. It
replaces every reference a loaded qperm module holds to the same function
object, so names one layer imported from another (`semigroup`'s
`coproduct_terms`, `cli`'s `cocycle_space`) are wrapped too. Spans stay in
memory, in flat arrays, until `metrics` turns them into per-layer numbers.

A target that no longer exists (renamed or deleted by a later change), or
whose counter no longer fits its arguments, makes the metrics built on it
absent from the output rather than zero.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import defaultdict

import numpy as np


def _coproduct(args, kwargs, result):
    w, legs = args[0], args[1]
    yield "coproduct.raw", w.n ** ((legs - 1) * len(w))
    yield "coproduct.surviving", sum(result.values())


def _enumerated(args, kwargs, result):
    n, length = args[0], args[1]
    yield "words.enumerated", len(result)
    expected = n * n * (n - 1) ** (2 * (length - 1)) if length else 1
    yield "words.enumerate_mismatch", int(len(result) != expected)


def _batch(args, kwargs, result):
    yield "schurmann.L_batch_words", np.shape(args[1])[0]


def _samples(args, kwargs, result):
    yield "stochsim.samples", args[2] if len(args) > 2 else kwargs["samples"]


def _constraints(args, kwargs, result):
    yield "cohomology.constraint_entries", result.size


# (module, attribute, span name, counter)
TARGETS = (
    ("qperm.words", "coproduct_terms", "words.coproduct_terms", _coproduct),
    ("qperm._kernel", "reduced_words_exact", "words.enumerate", _enumerated),
    ("qperm.words", "defining_relations", "words.defining_relations", None),
    ("qperm.schurmann", "gen_functional", "schurmann.gen_functional", None),
    ("qperm.schurmann", "gen_functional_batch", "schurmann.gen_functional_batch", _batch),
    ("qperm.schurmann", "is_symmetric_words", "schurmann.is_symmetric_words", None),
    ("qperm.schurmann", "is_tracial", "schurmann.is_tracial", None),
    ("qperm.schurmann", "SchurmannTriple.__init__", "schurmann.triple_init", None),
    ("qperm.semigroup", "conv_exp", "semigroup.conv_exp", None),
    ("qperm.semigroup", "fundamental_semigroup", "semigroup.fundamental_semigroup", None),
    ("qperm.cohomology", "cocycle_space", "cohomology.cocycle_space", None),
    ("qperm.cohomology", "coboundary_space", "cohomology.coboundary_space", None),
    ("qperm.cohomology", "h1_representatives", "cohomology.h1_representatives", None),
    ("qperm.cohomology", "cocycle_constraint_matrix", "cohomology.cocycle_constraint_matrix",
     _constraints),
    ("qperm.magic", "fourier", "magic.fourier", None),
    ("qperm.magic", "f4_phi", "magic.f4_phi", None),
    ("qperm.magic", "from_hadamard", "magic.from_hadamard", None),
    ("qperm.magic", "from_permutation", "magic.from_permutation", None),
    ("qperm.magic", "two_block", "magic.two_block", None),
    ("qperm.stochsim", "simulate_marginals", "stochsim.simulate_marginals", _samples),
    ("qperm.cli", "main", "cli.main", None),
)

MAGIC_BUILD = ("magic.fourier", "magic.f4_phi", "magic.from_hadamard", "magic.from_permutation",
               "magic.two_block")

# metric -> (unit, statistic, span names, counter keys, phase); phase "solve"
# values are per round, phase "setup" values cover the cold set-up only
METRICS = {
    "words.coproduct_s": ("s", "inclusive", ("words.coproduct_terms",), (), "solve"),
    "words.coproduct_calls": ("count", "calls", ("words.coproduct_terms",), (), "solve"),
    "words.coproduct_survival": ("ratio", "ratio", ("words.coproduct_terms",),
                                 ("coproduct.surviving", "coproduct.raw"), "solve"),
    "schurmann.L_scalar_s": ("s", "inclusive", ("schurmann.gen_functional",), (), "solve"),
    "schurmann.L_scalar_calls": ("count", "calls", ("schurmann.gen_functional",), (), "solve"),
    "semigroup.conv_exp_s": ("s", "self", ("semigroup.conv_exp",), (), "solve"),
    "semigroup.conv_exp_calls": ("count", "calls", ("semigroup.conv_exp",), (), "solve"),
    "words.enumerate_s": ("s", "inclusive", ("words.enumerate",), (), "solve"),
    "words.enumerated": ("count", "counter", ("words.enumerate",), ("words.enumerated",), "solve"),
    "words.relations_s": ("s", "inclusive", ("words.defining_relations",), (), "solve"),
    "schurmann.L_batch_s": ("s", "inclusive", ("schurmann.gen_functional_batch",), (), "solve"),
    "schurmann.L_batch_words": ("count", "counter", ("schurmann.gen_functional_batch",),
                                ("schurmann.L_batch_words",), "solve"),
    "schurmann.sweep_s": ("s", "self", ("schurmann.is_symmetric_words", "schurmann.is_tracial"),
                          (), "solve"),
    "semigroup.expm_s": ("s", "inclusive", ("semigroup.fundamental_semigroup",), (), "solve"),
    "stochsim.sample_s": ("s", "inclusive", ("stochsim.simulate_marginals",), (), "solve"),
    "stochsim.samples": ("count", "counter", ("stochsim.simulate_marginals",),
                         ("stochsim.samples",), "solve"),
    "cohomology.cocycle_space_s": ("s", "self", ("cohomology.cocycle_space",), (), "solve"),
    "cohomology.coboundary_space_s": ("s", "self", ("cohomology.coboundary_space",), (), "solve"),
    "cohomology.h1_representatives_s": ("s", "self", ("cohomology.h1_representatives",), (),
                                        "solve"),
    "cohomology.cocycle_space_calls": ("count", "calls", ("cohomology.cocycle_space",), (),
                                       "solve"),
    "cohomology.constraint_entries": ("count", "counter", ("cohomology.cocycle_constraint_matrix",),
                                      ("cohomology.constraint_entries",), "solve"),
    "cli.main_s": ("s", "self", ("cli.main",), (), "solve"),
    "cli.output_bytes": ("count", "counter", ("cli.main",), ("cli.output_bytes",), "solve"),
    "schurmann.triple_init_s": ("s", "inclusive", ("schurmann.triple_init",), (), "setup"),
    "magic.build_s": ("s", "inclusive", MAGIC_BUILD, (), "setup"),
}


class Tracer:
    """Records spans while `phase` is 0 (set-up) or a round number; idle at -1."""

    def __init__(self):
        self.phase = -1
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.span_phase = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: dict[tuple[int, str], float] = defaultdict(float)
        self.absent: set[str] = set()

    def count(self, key: str, value) -> None:
        if self.phase >= 0:
            self.counters[(self.phase, key)] += value

    def wrap(self, func, name: str, counter=None):
        tracer = self
        nid = self._ids.setdefault(name, len(self._ids))

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if tracer.phase < 0:
                return func(*args, **kwargs)
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.span_phase.append(tracer.phase)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.end[idx] = time.perf_counter()
                tracer.start[idx] = t0
                tracer._stack.pop()
            if counter is not None and name not in tracer.absent:
                try:
                    for key, value in counter(args, kwargs, result):
                        tracer.count(key, value)
                except (AttributeError, IndexError, KeyError, TypeError):
                    tracer.absent.add(name)
            return result

        return wrapper

    def install(self, targets=TARGETS) -> None:
        for module, attr, name, counter in targets:
            try:
                owner = importlib.import_module(module)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                func = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.absent.add(name)
                continue
            wrapped = self.wrap(func, name, counter)
            if path:  # a method: the class holds the only reference
                setattr(owner, leaf, wrapped)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "qperm" or mod_name.startswith("qperm."):
                    for key, value in list(vars(mod).items()):
                        if value is func:
                            setattr(mod, key, wrapped)

    def metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer numbers; a metric whose targets are absent is left out."""
        total = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(total)]
        child = [0.0] * total
        by_name = defaultdict(list)
        for i in range(total):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
            by_name[self.name_id[i]].append(i)
        out = {}
        for metric, (unit, stat, spans, keys, phase) in METRICS.items():
            if any(s in self.absent for s in spans):
                continue
            ids = {self._ids[s] for s in spans if s in self._ids}
            wanted = (lambda p: p == 0) if phase == "setup" else (lambda p: p > 0)
            scale = 1.0 if phase == "setup" else 1.0 / rounds
            members = [i for nid in ids for i in by_name[nid] if wanted(self.span_phase[i])]
            if stat == "calls":
                value = float(len(members))
            elif stat == "self":
                value = sum(dur[i] - child[i] for i in members)
            elif stat == "inclusive":
                value = sum(dur[i] for i in members if not self._nested(i, ids))
            else:
                sums = [sum(v for (p, k), v in self.counters.items() if k == key and wanted(p))
                        for key in keys]
                if stat == "ratio":
                    out[metric] = (sums[0] / sums[1] if sums[1] else 0.0, unit)
                    continue
                value = sums[0]
            out[metric] = (value * scale, unit)
        return out

    def enumeration_mismatches(self) -> int:
        return int(sum(v for (_, k), v in self.counters.items() if k == "words.enumerate_mismatch"))

    def _nested(self, i: int, ids) -> bool:
        p = self.parent[i]
        while p >= 0:
            if self.name_id[p] in ids:
                return True
            p = self.parent[p]
        return False
