"""A wrong output must be counted as failed; a missing traced function must read as absent."""

import sys
import types
from pathlib import Path

import numpy as np
import pytest

import pace
import run
import tracing
import workloads


def _first(ops, kind, prefix):
    return next(op for op in ops if op.kind == kind and op.label.split("/")[1].startswith(prefix))


def test_word_state_perturbed_value_fails():
    wl = workloads.WordStates()
    ops = wl.build(np.random.default_rng([7, 0]), 0)
    op = next(op for op in ops if "classical(4,)" in op.label and len(op.meta["w"]) == 1)
    vals = wl.solve_one(op)
    assert wl.check(op, vals)
    for pos in range(len(vals)):
        wrong = list(vals)
        wrong[pos] += 1e-6
        assert not wl.check(op, wrong), pos


def test_known_fault_fails_on_the_joint_law():
    wl = workloads.WordStates()
    op = next(op for op in wl._known_faults(0) if op.meta["n"] == 4)
    assert op.known_fault
    assert not wl.check(op, wl.solve_one(op))


def test_cohomology_wrong_dimension_or_basis_fails():
    wl = workloads.CohomologyScan(Path("unused"))
    op = wl._op("fourier6", ["--fourier", "6"], wl.fourier_blocks[6], 4)
    code, text = wl.solve_one(op)
    assert wl.check(op, (code, text))
    assert not wl.check(op, (code, text.replace('"h1dim":4', '"h1dim":5')))
    assert not wl.check(op, (1, text))
    first = text.index('"basis":[[[') + len('"basis":[[[')
    assert not wl.check(op, (code, text[:first] + "0.5" + text[text.index(",", first):]))


def test_classification_wrong_verdicts_fail():
    wl = workloads.ProcessClassify()
    ops = wl.build(np.random.default_rng([3, 0]), 0)
    two_block = _first(ops, "classify", "two-block-C3")
    out = wl.solve_one(two_block)
    assert wl.check(two_block, out)
    assert not wl.check(two_block, {**out, "symmetric": True})
    assert not wl.check(two_block, {**out, "relations": 1e-3})
    sim = _first(ops, "simulate", "simulate")
    out = wl.solve_one(sim)
    assert wl.check(sim, out)
    probs = out["probs"].copy()
    nonzero = np.argwhere((probs > 0.05) & (probs < 0.95))[0]
    probs[tuple(nonzero)] += 0.01
    assert not wl.check(sim, {**out, "probs": probs})


class _Stub:
    """A workload whose second operation is always wrong."""

    PACE_NOMINAL_S = 1.0

    def pace_sample(self):
        pass

    def build(self, rng, r):
        return [workloads.Op(f"ok{r}", "stub", {}), workloads.Op(f"bad{r}", "stub", {})]

    def solve(self, ops):
        return [op.label for op in ops]

    def check(self, op, out):
        return out.startswith("ok")


def test_run_counts_wrong_output_as_failed_and_incorrect():
    stub = _Stub()
    args = types.SimpleNamespace(seed=0, seconds=0.0)
    rounds, attempted, failed, unexpected = run.run_rounds(
        stub, stub.build(None, 0), args, None)
    assert (len(rounds), attempted, failed, unexpected) == (1, 2, 1, 1)


def test_paced_time_follows_wall_time_and_host_speed():
    wl = types.SimpleNamespace(PACE_NOMINAL_S=0.01)
    assert run.paced(wl, 2.0, 0.01) == 2.0
    assert run.paced(wl, 3.0, 0.01) == 3.0  # a slower program reads slower
    assert run.paced(wl, 3.0, 0.015) == 2.0  # a slower host does not
    assert run.paced(types.SimpleNamespace(PACE_NOMINAL_S=None), 3.0, None) == 3.0


def test_pace_sample_holds_off_the_collector_and_restores_it():
    import gc

    seen = []
    assert gc.isenabled()
    assert pace.timed(lambda: seen.append(gc.isenabled())) >= 0.0
    assert seen == [False] and gc.isenabled()
    gc.disable()
    try:
        pace.timed(lambda: None)
        assert not gc.isenabled()
    finally:
        gc.enable()


@pytest.fixture
def fake_layer():
    mod = types.ModuleType("qperm._bench_fake")

    def coproduct_terms(*args):
        return {}

    mod.coproduct_terms = coproduct_terms
    sys.modules[mod.__name__] = mod
    yield mod
    del sys.modules[mod.__name__]


def test_missing_function_is_absent_not_zero():
    tracer = tracing.Tracer()
    tracer.install([("qperm.semigroup", "renamed_conv_exp", "semigroup.conv_exp", None),
                    ("qperm.no_such_module", "f", "stochsim.simulate_marginals", None)])
    metrics = tracer.metrics(rounds=1)
    for gone in ("semigroup.conv_exp_s", "semigroup.conv_exp_calls", "stochsim.sample_s",
                 "stochsim.samples"):
        assert gone not in metrics
    assert metrics["schurmann.L_batch_words"] == (0.0, "count")


def test_counter_that_no_longer_fits_is_absent(fake_layer):
    tracer = tracing.Tracer()
    tracer.install([("qperm._bench_fake", "coproduct_terms", "words.coproduct_terms",
                     tracing._coproduct)])
    tracer.phase = 1
    fake_layer.coproduct_terms("not a word")  # the counter cannot read it
    tracer.phase = -1
    metrics = tracer.metrics(rounds=1)
    assert "words.coproduct_calls" not in metrics
    assert "words.coproduct_survival" not in metrics


def test_spans_give_self_times_and_closed_form_counts(fake_layer):
    import time

    def outer():
        time.sleep(0.02)
        return fake_layer.inner()

    def inner():
        time.sleep(0.03)
        return [()] * 16  # n = 4, length 1: 4^2 words

    fake_layer.outer, fake_layer.inner = outer, inner
    tracer = tracing.Tracer()
    tracer.install([("qperm._bench_fake", "outer", "semigroup.conv_exp", None),
                    ("qperm._bench_fake", "inner", "words.enumerate", None)])
    tracer.phase = 1
    fake_layer.outer()
    tracer.phase = -1
    m = tracer.metrics(rounds=1)
    assert m["semigroup.conv_exp_calls"] == (1.0, "count")
    assert 0.015 < m["semigroup.conv_exp_s"][0] < 0.05
    assert 0.025 < m["words.enumerate_s"][0] < 0.1
    assert list(tracing._enumerated((4, 1), {}, [()] * 16)) == [
        ("words.enumerated", 16), ("words.enumerate_mismatch", 0)]
    assert list(tracing._enumerated((4, 2), {}, [()] * 143))[1] == ("words.enumerate_mismatch", 1)
