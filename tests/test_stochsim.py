"""Classical-permutation Levy processes: exact marginals, sampling, bridge triple."""

import itertools
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

import qperm
from qperm import stochsim

from qperm.errors import ValidationError
from qperm.schurmann import gen_functional
from qperm.semigroup import fundamental_semigroup, generator_matrix
from qperm.stochsim import (
    MarginalEstimate,
    PermProcessSpec,
    exact_marginals,
    path_sample,
    process_triple,
    simulate_marginals,
)
from qperm.words import parse_word


CYCLE4 = PermProcessSpec((2, 3, 4, 1), [1.0])
MIXED = PermProcessSpec((2, 1, 4, 5, 3, 6), [0.5, 1.5])  # (1 2)(3 4 5), 6 fixed
TWO_CYCLES = PermProcessSpec((2, 3, 4, 1, 6, 5), [1.0, 0.7])  # (1 2 3 4)(5 6)


def folded_pmf(lam_t, ell):
    """scipy's Poisson(lam_t) pmf folded mod ell and renormalised: at mean 9.999
    scipy's terms sum to 1 - 1.9e-15."""
    k = np.arange(200)
    law = np.bincount(k % ell, weights=scipy.stats.poisson.pmf(k, lam_t), minlength=ell)
    return law / law.sum()


def reference_simulate(spec, t, samples, seed, block_size):
    """The serial block loop: one block at a time on its own PCG64 stream.
    Below mean 10 a block is one multinomial draw over the Poisson law folded
    mod ell; at 10 and above, one `Generator.poisson` call folded with `%`."""
    n = spec.n
    probs = np.zeros((n, n))
    for i in range(1, n + 1):
        if spec.sigma[i - 1] == i:
            probs[i - 1, i - 1] = 1.0
    root = np.random.SeedSequence(seed)
    streams = root.spawn(len(spec.rates))
    for cyc, lam, stream in zip(spec.cycles, spec.rates, streams):
        ell = len(cyc)
        hist = np.zeros(ell)
        blocks = stream.spawn((samples + block_size - 1) // block_size)
        left = samples
        for blk in blocks:
            take = min(block_size, left)
            left -= take
            rng = np.random.Generator(np.random.PCG64(blk))
            if lam * t < 10:
                hist += rng.multinomial(take, stochsim._residue_law(lam * t, ell))
            else:
                hist += np.bincount(rng.poisson(lam * t, take) % ell, minlength=ell)
        hist /= samples
        for a, origin in enumerate(cyc):
            for r in range(ell):
                probs[origin - 1, cyc[(a + r) % ell] - 1] = hist[r]
    stderr = np.sqrt(np.clip(probs * (1.0 - probs), 0.0, None) / samples)
    for i in range(1, n + 1):
        if spec.sigma[i - 1] == i:
            stderr[i - 1, i - 1] = 0.0
    return probs, stderr


class TestSpec:
    def test_cycle_alignment(self):
        assert MIXED.cycles == [(1, 2), (3, 4, 5)]
        assert MIXED.rates == (0.5, 1.5)
        assert MIXED.n == 6

    def test_dict_rates_by_min_element(self):
        spec = PermProcessSpec((2, 1, 4, 5, 3, 6), {1: 0.5, 3: 1.5})
        assert spec.rates == MIXED.rates

    def test_dict_rates_by_cycle_tuple(self):
        spec = PermProcessSpec((2, 1, 4, 5, 3, 6), {(4, 5, 3): 1.5, (1, 2): 0.5})
        assert spec.rates == MIXED.rates

    def test_rate_count_mismatch(self):
        with pytest.raises(ValidationError):
            PermProcessSpec((2, 1, 3), [1.0, 2.0])

    def test_missing_dict_rate(self):
        with pytest.raises(ValidationError):
            PermProcessSpec((2, 1, 4, 5, 3, 6), {1: 0.5})

    def test_dict_tuple_key_must_be_a_cycle(self):
        # (1 3) shares its minimum with the cycle (1 2 3) but is not a rotation of it
        with pytest.raises(ValidationError, match=r"rate key \(1, 3\)"):
            PermProcessSpec((2, 3, 1, 4), {(1, 3): 1.0})
        with pytest.raises(ValidationError, match="rate key"):
            PermProcessSpec((2, 3, 1, 4), {(1, 3, 2): 1.0})  # reversed, not rotated
        assert PermProcessSpec((2, 3, 1, 4), {(3, 1, 2): 1.0}).rates == (1.0,)

    def test_dict_key_naming_no_cycle(self):
        # 4 is a fixed point and (7, 8) no cycle of sigma
        for extra in ({4: 2.0}, {(7, 8): 3.0}, {2: 2.0}):
            with pytest.raises(ValidationError, match="rate key"):
                PermProcessSpec((2, 3, 1, 4), {(1, 2, 3): 1.0, **extra})

    def test_dict_two_keys_for_one_cycle(self):
        with pytest.raises(ValidationError, match=r"more than one rate for cycle \(3, 4\)"):
            PermProcessSpec((2, 1, 4, 3), {1: 1.0, (3, 4): 2.0, 3: 5.0})
        with pytest.raises(ValidationError, match="more than one rate"):
            PermProcessSpec((2, 3, 1), {(1, 2, 3): 1.0, (2, 3, 1): 1.0})

    def test_cycles_are_computed_once(self, monkeypatch):
        spec, same = (PermProcessSpec((2, 1, 4, 5, 3, 6), [0.5, 1.5]) for _ in range(2))
        monkeypatch.setattr("qperm.perms.cycles", None)  # a later recomputation would fail
        assert spec.cycles == [(1, 2), (3, 4, 5)]
        assert exact_marginals(spec, 0.5).shape == (6, 6)
        assert spec == same and hash(spec) == hash(same)
        assert "cycles" not in repr(spec)

    def test_nonpositive_rate(self):
        with pytest.raises(ValidationError):
            PermProcessSpec((2, 1), [0.0])

    def test_identity_needs_no_rates(self):
        spec = PermProcessSpec((1, 2, 3), [])
        assert spec.cycles == []

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rate(self, rate):
        with pytest.raises(ValidationError, match="finite"):
            PermProcessSpec((2, 1), [rate])
        with pytest.raises(ValidationError, match="finite"):
            PermProcessSpec((2, 1, 4, 5, 3, 6), {1: 0.5, 3: rate})


class TestExactMarginals:
    def test_time_zero_is_identity(self):
        assert np.allclose(exact_marginals(MIXED, 0.0), np.eye(6))

    def test_rows_are_distributions(self):
        M = exact_marginals(MIXED, 0.8)
        assert float(M.min()) >= 0.0
        assert np.allclose(M.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("ell", range(2, 17))
    def test_laws_are_nonnegative_and_rows_sum_to_one(self, ell):
        # the roots-of-unity filter gave -4.9e-16 on a 16-cycle at lam t = 0.1
        # and -7.9e-18 at (1e-9, ell = 7); a negative entry made the stderr NaN
        spec = PermProcessSpec(tuple(range(2, ell + 1)) + (1,), [1.0])
        for lam_t in [*np.geomspace(1e-9, 50.0, 80), 1e-3, 0.1]:
            M = exact_marginals(spec, lam_t)
            assert M.min() >= 0.0
            assert np.max(np.abs(M.sum(axis=1) - 1.0)) <= 1e-15

    def test_transposition_diagonal_frozen(self):
        # ell = 2, lam = 1, t = 1: P(even count) = e^{-1} cosh(1)
        spec = PermProcessSpec((2, 1), [1.0])
        M = exact_marginals(spec, 1.0)
        assert abs(M[0, 0] - 0.5676676416183064) < 1e-15
        assert abs(M[0, 1] - (1.0 - 0.5676676416183064)) < 1e-15

    def test_cycle_entry_is_modular_poisson_sum(self):
        lam, t = 0.7, 1.3
        M = exact_marginals(PermProcessSpec((2, 3, 4, 1), [lam]), t)
        for r in range(4):
            direct = float(scipy.stats.poisson.pmf(np.arange(r, 80, 4), lam * t).sum())
            assert abs(M[0, r] - direct) < 1e-12

    def test_chapman_kolmogorov(self):
        for s, u in ((0.3, 0.4), (0.1, 1.1)):
            lhs = exact_marginals(MIXED, s) @ exact_marginals(MIXED, u)
            assert np.allclose(lhs, exact_marginals(MIXED, s + u), atol=1e-12)

    def test_cross_cycle_entries_vanish(self):
        M = exact_marginals(MIXED, 2.0)
        assert M[0, 2] == 0.0
        assert M[3, 0] == 0.0
        assert M[5, 5] == 1.0
        assert np.allclose(M[5, :5], 0.0)

    def test_tiny_rate_is_near_identity(self):
        spec = PermProcessSpec((2, 3, 1), [1e-9])
        assert np.allclose(exact_marginals(spec, 1.0), np.eye(3), atol=1e-8)

    def test_negative_time_rejected(self):
        with pytest.raises(ValidationError):
            exact_marginals(MIXED, -0.5)

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_time_rejected(self, t):
        with pytest.raises(ValidationError, match="time"):
            exact_marginals(MIXED, t)


class TestPoissonVariate:
    """The clock counts: the folded pmf below mean 10, numpy's PTRS above."""

    MULTINOMIAL_MEANS = [1e-9, 0.15, 1.0, 2.25, 9.999]

    @pytest.mark.parametrize("lam_t", MULTINOMIAL_MEANS)
    def test_residue_law_matches_folded_poisson_pmf(self, lam_t):
        for ell in range(2, 6):
            law = stochsim._residue_law(lam_t, ell)
            assert np.max(np.abs(law - folded_pmf(lam_t, ell))) <= 1e-15

    def test_switch_to_numpy_sampler_at_mean_ten(self):
        # the reference takes the multinomial below 10 and `Generator.poisson` from 10
        for lam_t in (9.999, 10.0, 12.0):
            spec = PermProcessSpec((2, 3, 4, 1), [lam_t])
            est = simulate_marginals(spec, 1.0, 500, seed=3, block_size=500)
            assert np.array_equal(est.probs, reference_simulate(spec, 1.0, 500, 3, 500)[0])

    @pytest.mark.parametrize("lam_t", MULTINOMIAL_MEANS + [10.0, 12.0])
    def test_draws_pass_chi_square(self, lam_t):
        # residues of 10**6 clock counts on a 7-cycle against scipy's folded pmf
        draws = 10**6
        spec = PermProcessSpec((2, 3, 4, 5, 6, 7, 1), [lam_t])
        observed = np.rint(simulate_marginals(spec, 1.0, draws, seed=42).probs[0] * draws)
        expected = draws * folded_pmf(lam_t, 7)
        # merge the sparse residues into their neighbours until every bin expects >= 5
        lo, hi = 0, 7
        while hi - lo > 1 and expected[lo] < 5:
            expected[lo + 1] += expected[lo]
            observed[lo + 1] += observed[lo]
            lo += 1
        while hi - lo > 1 and expected[hi - 1] < 5:
            expected[hi - 2] += expected[hi - 1]
            observed[hi - 2] += observed[hi - 1]
            hi -= 1
        if hi - lo == 1:  # lam_t = 1e-9: nonzero residues are 1e-3 expected
            assert observed[lo] == draws
            return
        result = scipy.stats.chisquare(observed[lo:hi], expected[lo:hi])
        assert result.pvalue > 1e-3

    @pytest.mark.parametrize("lam_t", [12.0, 1e6])
    def test_chunked_tally_continues_one_stream(self, lam_t):
        take, ell = 3 * stochsim._CHUNK + 5, 3
        hist = stochsim._tally(np.random.default_rng(8), take, lam_t, ell, None)
        counts = np.random.default_rng(8).poisson(lam_t, take)
        assert np.array_equal(hist, np.bincount(counts % ell, minlength=ell))

    @pytest.mark.parametrize("lam_t", [0.7])
    def test_tally_is_one_multinomial_over_the_folded_law(self, lam_t):
        # one block: its histogram is one multinomial draw on the block's own stream
        take, ell = 3 * stochsim._CHUNK + 5, 3
        est = simulate_marginals(PermProcessSpec((2, 3, 1), [lam_t]), 1.0, take, seed=8,
                                 block_size=take)
        block = np.random.SeedSequence(8).spawn(1)[0].spawn(1)[0]
        law = stochsim._residue_law(lam_t, ell)
        hist = np.random.Generator(np.random.PCG64(block)).multinomial(take, law)
        assert np.array_equal(est.probs[0], hist / take)


class TestTallyLaw:
    """Over many seeds each residue count of a call has the binomial mean and
    variance of `samples` iid Poisson counts folded mod ell, and the pooled
    residues pass a chi-square test; a biased tally fails these checks."""

    SEEDS, SAMPLES, BLOCK = 400, 4000, 1000  # four blocks per call
    MEANS = [0.3, 2.25]

    def residue_counts(self, lam_t):
        spec = PermProcessSpec((2, 3, 4, 1), [lam_t])  # row 1 holds residues 0..3
        rows = [simulate_marginals(spec, 1.0, self.SAMPLES, seed=s, block_size=self.BLOCK).probs[0]
                for s in range(self.SEEDS)]
        return np.rint(np.array(rows) * self.SAMPLES)

    def law_failures(self, counts, lam_t):
        seeds, ell = counts.shape
        p = folded_pmf(lam_t, ell)
        var = self.SAMPLES * p * (1.0 - p)
        mean_z = (counts.mean(axis=0) - self.SAMPLES * p) / np.sqrt(var / seeds)
        # spread of a sample variance of binomial counts, excess kurtosis included
        kurtosis = (1.0 - 6.0 * p * (1.0 - p)) / var
        ratio_sd = np.sqrt(2.0 / (seeds - 1) + kurtosis / seeds)
        var_z = (counts.var(axis=0, ddof=1) / var - 1.0) / ratio_sd
        pooled = scipy.stats.chisquare(counts.sum(axis=0), seeds * self.SAMPLES * p)
        failures = []
        if np.max(np.abs(mean_z)) > 5.0:
            failures.append("mean")
        if np.max(np.abs(var_z)) > 5.0:
            failures.append("variance")
        if pooled.pvalue < 1e-4:
            failures.append("chi-square")
        return failures

    @pytest.mark.parametrize("lam_t", MEANS)
    def test_residues_follow_the_folded_poisson_law(self, lam_t):
        assert self.law_failures(self.residue_counts(lam_t), lam_t) == []

    @pytest.mark.parametrize("lam_t", MEANS)
    def test_one_tally_reused_for_every_block_fails(self, lam_t, monkeypatch):
        tally, first, calls = stochsim._tally, [], itertools.count()

        def first_block_only(rng, *args):
            if next(calls) % (self.SAMPLES // self.BLOCK) == 0:  # a call's first block
                first[:] = [tally(rng, *args)]
            return first[0]

        monkeypatch.setattr(stochsim, "_tally", first_block_only)
        assert "variance" in self.law_failures(self.residue_counts(lam_t), lam_t)

    @pytest.mark.parametrize("lam_t", MEANS)
    def test_law_shifted_by_one_residue_fails(self, lam_t, monkeypatch):
        law = stochsim._residue_law
        monkeypatch.setattr(stochsim, "_residue_law", lambda *args: np.roll(law(*args), 1))
        failures = self.law_failures(self.residue_counts(lam_t), lam_t)
        assert "mean" in failures and "chi-square" in failures


class TestSimulate:
    def test_deterministic_for_fixed_seed(self):
        a = simulate_marginals(MIXED, 0.7, 5000, seed=3)
        b = simulate_marginals(MIXED, 0.7, 5000, seed=3)
        assert np.array_equal(a.probs, b.probs)
        assert np.array_equal(a.stderr, b.stderr)

    def test_block_partition_is_part_of_the_stream_layout(self):
        # per-block substreams: a fixed (seed, block_size) pair is reproducible,
        # and any partition stays calibrated against the exact law
        exact = exact_marginals(MIXED, 0.7)
        for bs in (512, 1 << 16):
            a = simulate_marginals(MIXED, 0.7, 3000, seed=5, block_size=bs)
            b = simulate_marginals(MIXED, 0.7, 3000, seed=5, block_size=bs)
            assert np.array_equal(a.probs, b.probs)
            assert np.all(np.abs(a.probs - exact) <= 5.0 * (a.stderr + 1e-12) + 1e-9)

    def test_within_stderr_of_exact(self):
        est = simulate_marginals(MIXED, 1.0, 40000, seed=11)
        exact = exact_marginals(MIXED, 1.0)
        guard = est.stderr + 1e-12
        assert np.all(np.abs(est.probs - exact) <= 4.0 * guard + 1e-9)

    def test_time_zero_is_identity(self):
        est = simulate_marginals(TWO_CYCLES, 0.0, 5000, seed=2)
        assert np.array_equal(est.probs, np.eye(6))
        assert not est.stderr.any()

    def test_fixed_point_entries_exact(self):
        est = simulate_marginals(MIXED, 1.0, 1000, seed=0)
        assert est.probs[5, 5] == 1.0
        assert est.stderr[5, 5] == 0.0

    def test_rows_are_distributions(self):
        est = simulate_marginals(CYCLE4, 0.9, 2000, seed=1)
        assert np.allclose(est.probs.sum(axis=1), 1.0, atol=1e-12)

    def test_estimate_is_frozen(self):
        est = simulate_marginals(CYCLE4, 0.5, 100, seed=0)
        assert isinstance(est, MarginalEstimate)
        with pytest.raises(ValueError):
            est.probs[0, 0] = 2.0

    def test_sample_count_validated(self):
        with pytest.raises(ValidationError):
            simulate_marginals(CYCLE4, 0.5, 0, seed=0)

    @pytest.mark.parametrize("samples, block_size", [
        (10, 0), (10, -3), (2.5, 512), (10.0, 512), (float("inf"), 512), (10, 512.0),
        (10, float("nan")), ("10", 512), (True, 512), (10, None),
    ])
    def test_counts_must_be_positive_integers(self, samples, block_size):
        # these used to raise ZeroDivisionError, OverflowError or TypeError
        with pytest.raises(ValidationError, match="samples|block_size"):
            simulate_marginals(MIXED, 0.5, samples, seed=0, block_size=block_size)

    def test_numpy_integer_counts_accepted(self):
        est = simulate_marginals(MIXED, 0.5, np.int64(1000), seed=2, block_size=np.int32(300))
        want = reference_simulate(MIXED, 0.5, 1000, 2, 300)
        assert np.array_equal(est.probs, want[0]) and np.array_equal(est.stderr, want[1])

    @pytest.mark.parametrize("t", [-0.5, float("nan"), float("inf"), float("-inf")])
    def test_bad_time_rejected(self, t):
        with pytest.raises(ValidationError, match="time"):
            simulate_marginals(CYCLE4, t, 10, seed=0)

    @pytest.mark.parametrize("rate, t", [(1e20, 1.0), (1e10, 1e9), (1e300, 1e300)])
    def test_poisson_mean_past_numpy_limit_rejected(self, rate, t):
        # numpy's sampler raises a bare ValueError ("lam value too large") here
        with pytest.raises(ValidationError, match="rate \\* t"):
            simulate_marginals(PermProcessSpec((2, 1), [rate]), t, 10, seed=0)

    def test_poisson_mean_at_numpy_limit_accepted(self):
        lam = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)
        est = simulate_marginals(PermProcessSpec((2, 1), [lam]), 1.0, 10, seed=0)
        assert np.allclose(est.probs.sum(axis=1), 1.0)


class TestThreadedTally:
    """The blocks are tallied in the caller; the bytes equal the serial block loop."""

    CASES = [(1, 512), (512, 512), (2048, 512), (5000, 512), (70_001, 1 << 16)]

    def assert_reference(self, spec, t, samples, seed, block_size):
        est = simulate_marginals(spec, t, samples, seed=seed, block_size=block_size)
        probs, stderr = reference_simulate(spec, t, samples, seed, block_size)
        assert np.array_equal(est.probs, probs)
        assert np.array_equal(est.stderr, stderr)

    @pytest.mark.parametrize("spec", [MIXED, TWO_CYCLES], ids=["mixed", "two-cycles"])
    @pytest.mark.parametrize("samples, block_size", CASES)
    def test_bytes_match_serial_reference(self, spec, samples, block_size):
        self.assert_reference(spec, 0.8, samples, samples + 17, block_size)

    def test_large_call_starts_no_thread_pool(self, monkeypatch):
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("simulate_marginals constructed a ThreadPoolExecutor")

        monkeypatch.setattr(concurrent.futures.ThreadPoolExecutor, "__init__", no_pool)
        est = simulate_marginals(TWO_CYCLES, 1.0, 2_000_000, seed=7)
        assert est.samples == 2_000_000
        assert np.allclose(est.probs.sum(axis=1), 1.0)

    def test_large_clock_rate_matches_reference(self):
        spec = PermProcessSpec((2, 3, 1, 5, 4), [1e7, 3e6])  # (1 2 3)(4 5)
        self.assert_reference(spec, 1.0, 1000, 9, 512)

    def test_block_memory_does_not_grow_with_the_clock_rate(self):
        # counts near 1e6 fold into 3 residues in O(block_size) memory
        tracemalloc.start()
        try:
            simulate_marginals(PermProcessSpec((2, 3, 1), [1e6]), 1.0, 1000, seed=4, block_size=512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_block_memory_does_not_grow_with_the_block_size(self):
        # one block of 10**6 draws is one multinomial draw over the folded law
        tracemalloc.start()
        try:
            simulate_marginals(CYCLE4, 1.0, 10**6, seed=0, block_size=10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_identity_spec_needs_no_tasks(self):
        est = simulate_marginals(PermProcessSpec((1, 2, 3), []), 1.0, 100, seed=0)
        assert np.array_equal(est.probs, np.eye(3))
        assert not est.stderr.any()

    def test_import_leaves_concurrent_futures_unloaded(self):
        code = "import sys, qperm; print('concurrent.futures' in sys.modules)"
        src = str(Path(qperm.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src), check=True).stdout
        assert out.strip() == "False"


def reference_path(spec, times, seed):
    """path_sample drawn as one scalar `Generator.poisson` count per grid interval, in order."""
    shifts = []
    streams = np.random.SeedSequence(seed).spawn(len(spec.rates))
    for cyc, lam, stream in zip(spec.cycles, spec.rates, streams):
        rng = np.random.Generator(np.random.PCG64(stream))
        counts = [int(rng.poisson(lam * dt)) % len(cyc) for dt in np.diff(times, prepend=0.0)]
        shifts.append(np.cumsum(counts) % len(cyc))
    out = []
    for k in range(len(times)):
        images = list(range(1, spec.n + 1))
        for cyc, shift in zip(spec.cycles, shifts):
            for a, origin in enumerate(cyc):
                images[origin - 1] = cyc[(a + int(shift[k])) % len(cyc)]
        out.append(tuple(images))
    return out


class TestPathSample:
    def test_grid_values_cover_exact_distribution(self):
        # empirical law of X_t(1) over many paths vs the exact row, chi-square
        t = 0.9
        exact_row = exact_marginals(CYCLE4, t)[0]
        counts = np.zeros(4)
        paths = 4000
        for k in range(paths):
            state = path_sample(CYCLE4, [t], seed=1000 + k)[0]
            counts[state[0] - 1] += 1
        result = scipy.stats.chisquare(counts, exact_row * paths)
        assert result.pvalue > 1e-3

    def test_later_grid_points_sum_the_increments(self):
        # X at the second grid point has the law of time 0.9, not of the step 0.5
        exact_row = exact_marginals(CYCLE4, 0.9)[0]
        counts = np.zeros(4)
        paths = 4000
        for k in range(paths):
            state = path_sample(CYCLE4, [0.4, 0.9], seed=5000 + k)[1]
            counts[state[0] - 1] += 1
        assert scipy.stats.chisquare(counts, exact_row * paths).pvalue > 1e-3

    def test_identity_permutation_constant_path(self):
        spec = PermProcessSpec((1, 2, 3), [])
        states = path_sample(spec, [0.0, 1.0, 5.0], seed=2)
        assert states == [(1, 2, 3)] * 3

    def test_time_zero_is_identity_map(self):
        state = path_sample(MIXED, [0.0], seed=9)[0]
        assert state == (1, 2, 3, 4, 5, 6)

    def test_paths_move_only_along_cycles(self):
        for seed in range(5):
            for state in path_sample(MIXED, [0.5, 1.5, 2.5], seed=seed):
                assert state[5] == 6  # the fixed point never moves
                assert set(state[:2]) == {1, 2}
                assert set(state[2:5]) == {3, 4, 5}

    def test_grid_must_be_sorted(self):
        with pytest.raises(ValidationError):
            path_sample(CYCLE4, [1.0, 0.5], seed=0)
        with pytest.raises(ValidationError):
            path_sample(CYCLE4, [-1.0, 0.5], seed=0)

    def test_cost_does_not_grow_with_the_rate(self):
        # one Poisson count per grid interval, not one exponential gap per jump
        start = time.perf_counter()
        tracemalloc.start()
        try:
            states = path_sample(PermProcessSpec((2, 3, 1), [1e9]), [0.0, 0.5, 1.0], seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1.0
        assert peak < 1 << 20
        assert states[0] == (1, 2, 3) and all(sorted(s) == [1, 2, 3] for s in states)

    @pytest.mark.parametrize("rate, grid", [(1e20, [1.0]), (1e10, [0.5, 1e9])])
    def test_poisson_mean_past_numpy_limit_rejected(self, rate, grid):
        with pytest.raises(ValidationError, match="rate \\* dt"):
            path_sample(PermProcessSpec((2, 1), [rate]), grid, seed=0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_grid_rejected(self, bad):
        with pytest.raises(ValidationError, match="time"):
            path_sample(CYCLE4, [0.5, bad], seed=0)

    @pytest.mark.parametrize("grid", [
        np.linspace(0.0, 5.0, 201),
        np.cumsum(np.random.default_rng(11).exponential(0.05, 200)),
    ])
    def test_matches_one_variate_per_interval(self, grid):
        # one vector draw per cycle gives the scalar draws per grid interval
        # in order; rate 12 takes PTRS on steps >= 0.84
        spec = PermProcessSpec((2, 3, 4, 1, 6, 5, 8, 9, 7), [1.0, 0.7, 12.0])
        grid = np.concatenate([grid, grid[-1] + [0.9, 0.9, 1.0]])
        want = reference_path(spec, grid, seed=5)
        assert path_sample(spec, grid, seed=5) == want

    def test_path_is_right_continuous_in_jumps(self):
        # consecutive grid states differ by an admissible cycle power
        grid = np.linspace(0.0, 3.0, 31)
        states = path_sample(CYCLE4, grid, seed=7)
        seen = {s[0] for s in states}
        assert seen <= {1, 2, 3, 4}
        assert len(states) == 31


class TestProcessTriple:
    def test_semigroup_reproduces_exact_marginals(self):
        t = process_triple(MIXED)
        for time in (0.0, 0.4, 1.3):
            T = fundamental_semigroup(t, time)
            assert np.allclose(T, exact_marginals(MIXED, time), atol=1e-12)

    def test_generator_rates(self):
        t = process_triple(MIXED)
        A = generator_matrix(t)
        assert abs(A[0, 0] + 0.5) < 1e-12
        assert abs(A[0, 1] - 0.5) < 1e-12
        assert abs(A[2, 3] - 1.5) < 1e-12
        assert abs(A[5, 5]) < 1e-12

    def test_identity_process_has_zero_generator(self):
        spec = PermProcessSpec((1, 2), [])
        t = process_triple(spec)
        assert np.allclose(generator_matrix(t), 0.0)

    def test_custom_vectors_cross_cycle_value(self):
        # L(p_ii p_i'i') = <v, w> - |v|^2 - |w|^2 for i, i' in different cycles
        v = np.array([1.0, 1.0]) / np.sqrt(2.0)
        w = np.array([1.0, -1.0j]) / np.sqrt(2.0)
        spec = PermProcessSpec((2, 1, 4, 3), [1.0, 1.0])
        t = process_triple(spec, vectors=[v, w])
        word = parse_word("p(1,1) p(3,3)", 4)
        want = complex(np.vdot(v, w)) - 1.0 - 1.0
        assert abs(gen_functional(t, word) - want) < 1e-12

    def test_custom_vectors_validated(self):
        spec = PermProcessSpec((2, 1, 4, 3), [1.0, 1.0])
        with pytest.raises(ValidationError):
            process_triple(spec, vectors=[np.ones(2)])
        with pytest.raises(ValidationError):
            process_triple(spec, vectors=[np.ones(2), np.zeros(2)])

    def test_vector_rescaling_preserves_rates(self):
        spec = PermProcessSpec((2, 1, 4, 3), [0.3, 2.0])
        t = process_triple(spec, vectors=[np.array([5.0, 0.0]), np.array([1.0, 1.0])])
        A = generator_matrix(t)
        assert abs(A[0, 1] - 0.3) < 1e-12
        assert abs(A[2, 3] - 2.0) < 1e-12
