"""Convolution semigroups: generator matrix, block engine vs series oracle, Haar data."""

import gc
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

import qperm
from qperm import cli, semigroup
from qperm.errors import BudgetError, ValidationError
from qperm.magic import TwoBlockSpec, f4_phi, fourier, from_hadamard, from_permutation
from qperm.schurmann import (
    SchurmannTriple,
    gen_functional,
    gen_functional_batch,
    random_cocycle,
    two_block_triple,
)
from qperm.selftest import _series_oracle, random_reduced_word
from qperm.semigroup import (
    conv_exp,
    convolve,
    fundamental_semigroup,
    generator_matrix,
    haar_gram_degree2,
    markov_operator_degree1,
    markov_symmetry_check,
    state_table,
)
from qperm.semigroup import _UNIT_ROUNDOFF, _block_L, _block_record, _expm_action
from qperm.words import LinComb, Word, _index_sequences, _sequence_pairs, counit, parse_word
from qperm.words import reduced_words, unit_word


def cycle_triple(n, lam=1.0):
    sigma = tuple(list(range(2, n + 1)) + [1])
    rep = from_permutation(sigma)
    xs = np.full((n, 1), math.sqrt(lam), dtype=complex)
    return SchurmannTriple(rep, xs)


def two_block_instance(rng, d=3):
    A = rng.normal(size=(d, d))
    q = np.linalg.qr(A)[0]
    P = q[:, :1] @ q[:, :1].T
    B = rng.normal(size=(d, d))
    r = np.linalg.qr(B)[0]
    Q = r[:, :2] @ r[:, :2].T
    xi = (np.eye(d) - P) @ rng.normal(size=d)
    zeta = (np.eye(d) - Q) @ rng.normal(size=d)
    return TwoBlockSpec(P, Q), xi, zeta


def fourier_triple(n, rng, scale=1.0):
    rep = from_hadamard(fourier(n))
    return SchurmannTriple(rep, random_cocycle(rep, rng, scale))


def family_triple(family, n, rng):
    if family == "fourier":
        return fourier_triple(n, rng)
    if family == "permutation":
        rep = from_permutation(tuple(range(2, n + 1)) + (1,), 2)
    elif family == "two_block":
        spec, xi, zeta = two_block_instance(rng)
        return two_block_triple(spec, xi, zeta)
    else:  # F_4(phi), a non-Fourier Hadamard family
        rep = from_hadamard(f4_phi(0.7))
    return SchurmannTriple(rep, random_cocycle(rep, rng))


def letter_block(t, k):
    """Reference L_B: gen_functional_batch on all m^2 block words, letter by letter."""
    seqs = _index_sequences(t.n, k)
    m = len(seqs)
    return gen_functional_batch(t, _sequence_pairs(seqs)).reshape(m, m)


NON_FINITE = [math.nan, math.inf, -math.inf]


class TestGeneratorMatrix:
    def test_zero_triple(self):
        rep = from_hadamard(fourier(3))
        t = SchurmannTriple(rep, np.zeros((3, 3)))
        assert np.allclose(generator_matrix(t), 0.0)

    def test_cycle_is_scaled_shift(self):
        lam = 1.7
        t = cycle_triple(4, lam)
        C = np.zeros((4, 4))
        for i in range(4):
            C[i, (i + 1) % 4] = 1.0
        assert np.allclose(generator_matrix(t), lam * (C - np.eye(4)), atol=1e-12)

    def test_two_block_is_block_diagonal(self, rng):
        spec, xi, zeta = two_block_instance(rng)
        t = two_block_triple(spec, xi, zeta)
        J = np.array([[-1.0, 1.0], [1.0, -1.0]])
        nx = float(np.vdot(xi, xi).real)
        nz = float(np.vdot(zeta, zeta).real)
        want = scipy.linalg.block_diag(nx * J, nz * J)
        assert np.allclose(generator_matrix(t), want, atol=1e-10)

    def test_q_matrix_structure(self, rng):
        t = fourier_triple(4, rng)
        A = generator_matrix(t)
        assert float(np.min(A - np.diag(np.diag(A)))) >= -1e-12
        assert np.allclose(A.sum(axis=0), 0.0, atol=1e-10)
        assert np.allclose(A.sum(axis=1), 0.0, atol=1e-10)


class TestFundamentalSemigroup:
    def test_two_element_closed_form(self):
        lam = 0.8
        t = cycle_triple(2, lam)
        for time in (0.0, 0.3, 1.0, 2.5):
            T = fundamental_semigroup(t, time)
            diag = 0.5 * (1.0 + math.exp(-2.0 * lam * time))
            assert abs(T[0, 0] - diag) < 1e-12
            assert abs(T[0, 1] - (1.0 - diag)) < 1e-12

    def test_stochastic(self, rng):
        t = fourier_triple(4, rng)
        T = fundamental_semigroup(t, 0.7)
        assert float(T.min()) >= -1e-12
        assert np.allclose(T.sum(axis=1), 1.0, atol=1e-10)

    def test_semigroup_law(self, rng):
        t = fourier_triple(4, rng)
        for s, u in ((0.2, 0.5), (0.1, 1.3), (0.9, 0.9)):
            lhs = fundamental_semigroup(t, s) @ fundamental_semigroup(t, u)
            rhs = fundamental_semigroup(t, s + u)
            assert float(np.max(np.abs(lhs - rhs))) < 1e-9

    def test_negative_time_rejected(self, rng):
        with pytest.raises(ValidationError):
            fundamental_semigroup(fourier_triple(3, rng), -0.1)

    @pytest.mark.parametrize("time", NON_FINITE)
    def test_non_finite_time_rejected(self, rng, time):
        with pytest.raises(ValidationError, match="time"):
            fundamental_semigroup(fourier_triple(3, rng), time)


class TestExpmAction:
    """_expm_action against scipy's dense expm, the oracle of the exponential."""

    @staticmethod
    def assert_matches(L, time, *col_sets, oracle=scipy.linalg.expm):
        # tolerance fixed before the first run, as in test_state_table_matches_dense_expm:
        # ten rounding-error scales u ||X||_1 per entry, X = time L
        X = time * L
        E = oracle(X)
        err = 2.0**-53 * float(np.linalg.norm(X, 1))
        block = _block_record(L)
        for cols in col_sets:
            got = _expm_action(block, time, np.eye(len(X), dtype=X.dtype)[:, cols])
            assert got.shape == (len(X), len(cols)) and got.dtype == E.dtype
            assert float(np.max(np.abs(got - E[:, cols]))) <= 10 * err + 1e-14, (X.shape, cols)

    @pytest.mark.parametrize("scale", [0.5, 5.0])
    @pytest.mark.parametrize("family", ["fourier", "f4"])
    def test_word_blocks(self, rng, family, scale):
        H = fourier(4) if family == "fourier" else f4_phi(0.7)
        rep = from_hadamard(H)
        t = SchurmannTriple(rep, random_cocycle(rep, rng, scale))
        for k in (1, 2, 3, 4, 5):
            L = _block_L(t, k)
            if not L.imag.any():  # k = 1: real, as _evaluate takes it
                L = L.real
            m = len(L)
            several = sorted(rng.choice(m, size=3, replace=False).tolist())
            # cost is linear in ||t L_B||_1 (up to 1.3e4 here): several columns
            # up to 1e3 only, and the 324-block (k = 5) at t = 20 at scale 0.5
            # only, where its column alone takes 1 s at scale 5
            times = (0.0, 0.2, 1.0, 20.0) if k < 5 or scale < 1 else (0.0, 0.2, 1.0)
            for time in times:
                one = [int(rng.integers(m))]
                if float(np.linalg.norm(time * L, 1)) <= 1e3:
                    self.assert_matches(L, time, one, several)
                else:
                    self.assert_matches(L, time, one)

    def test_real_and_complex_dense(self, rng):
        # scipy.linalg.expm errs by up to 1.7e-12 on such non-normal matrices
        # (against a 40-digit expm), so the oracle here is expm_multiply,
        # the routine _expm_action replaced: the same algorithm below
        # ||A||_1 = 63 / columns
        oracle = lambda A: scipy.sparse.linalg.expm_multiply(A, np.eye(len(A)))
        for _ in range(5):
            A = rng.normal(size=(7, 7))
            self.assert_matches(A, 1.0, list(range(7)), [4], oracle=oracle)
            self.assert_matches(A + 1j * rng.normal(size=(7, 7)), 1.0, [2], [0, 6], oracle=oracle)

    def test_real_block_stays_real(self, rng):
        spec, xi, zeta = two_block_instance(rng)
        L = _block_L(two_block_triple(spec, xi, zeta), 3)
        assert not L.imag.any()
        self.assert_matches(L.real, 0.7, [0, 5])

    def test_zero_matrix(self, rng):
        B = rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))
        assert np.array_equal(_expm_action(_block_record(np.zeros((6, 6))), 1.0, B), B)

    def test_product_count_is_charged_against_the_default_budget(self, budget):
        # ||1000 (L - mu I)||_1 = 1000: 55 Taylor terms in ceil(1000 / 9.9) = 102 steps
        block = _block_record(np.array([[-1.0, 1.0], [1.0, -1.0]]))
        budget(5610)
        _expm_action(block, 1000.0, np.eye(2))
        budget(5609)
        with pytest.raises(BudgetError) as exc:
            _expm_action(block, 1000.0, np.eye(2))
        assert str(exc.value) == ("the exponential action needs 5610 matrix products, "
                                  "over the term budget 5609")

    @pytest.mark.parametrize("scale", [1e308, math.inf, math.nan])
    def test_non_finite_product_count_is_over_any_budget(self, scale):
        # 1e308: the trace overflows; inf and nan: t L itself did
        L = np.array([[-1.0, 1.0], [1.0, -1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BudgetError, match="needs inf matrix products"):
                _expm_action(_block_record(L * scale), 1.0, np.eye(2))
            # the same overflow in time ||A||_1 or in the step count
            with pytest.raises(BudgetError, match="needs inf matrix products"):
                _expm_action(_block_record(L), scale, np.eye(2))

    @pytest.mark.parametrize("family", ["fourier", "permutation", "two_block", "f4"])
    def test_fundamental_semigroup_matches_expm(self, rng, family):
        t = family_triple(family, 4 if family != "two_block" else 3, rng)
        A = generator_matrix(t)
        for time in (0.0, 0.2, 1.0, 20.0):
            T = fundamental_semigroup(t, time)
            err = 2.0**-53 * float(np.linalg.norm(time * A, 1))
            assert float(np.max(np.abs(T - scipy.linalg.expm(time * A)))) <= 10 * err + 1e-14
            assert float(np.max(np.abs(T.sum(axis=1) - 1.0))) <= 10 * err + 1e-14


class TestConvolve:
    def test_counit_is_neutral(self, rng):
        t = fourier_triple(3, rng)
        f = lambda w: gen_functional(t, w)
        eps = lambda w: counit(w)
        for w in reduced_words(3, 2):
            v = gen_functional(t, w)
            assert abs(convolve(eps, f, w) - v) < 1e-10
            assert abs(convolve(f, eps, w) - v) < 1e-10

    def test_convolution_square_is_matrix_square(self, rng):
        t = fourier_triple(4, rng)
        A = generator_matrix(t)
        f = lambda w: gen_functional(t, w)
        for i in range(1, 5):
            for j in range(1, 5):
                w = parse_word(f"p({i},{j})", 4)
                assert abs(convolve(f, f, w) - (A @ A)[i - 1, j - 1]) < 1e-10

    def test_associative(self, rng):
        t1 = fourier_triple(3, rng)
        t2 = fourier_triple(3, rng)
        f = lambda w: gen_functional(t1, w)
        g = lambda w: gen_functional(t2, w)
        h = lambda w: counit(w) + gen_functional(t1, w)
        gh = lambda w: convolve(g, h, w)
        fg = lambda w: convolve(f, g, w)
        for w in reduced_words(3, 2):
            assert abs(convolve(f, gh, w) - convolve(fg, h, w)) < 1e-9


class TestConvExp:
    def test_time_zero_is_counit(self, rng):
        t = fourier_triple(4, rng)
        for w in reduced_words(4, 2)[:40]:
            val, last = conv_exp(t, 0.0, w)
            assert abs(val - counit(w)) < 1e-14

    def test_matches_matrix_exponential(self, rng):
        for _ in range(3):
            t = fourier_triple(4, rng)
            for time in (0.1, 0.5, 1.0):
                T = fundamental_semigroup(t, time)
                for i in range(1, 5):
                    for j in range(1, 5):
                        val, _ = conv_exp(t, time, parse_word(f"p({i},{j})", 4))
                        assert abs(val - T[i - 1, j - 1]) < 1e-6

    def test_series_continues_past_structural_zero_terms(self):
        # 3-cycle with a fixed point: (A^3)_11 = 0 exactly, yet (A^4)_11 = -3,
        # so a single vanishing term must not stop the summation
        rep = from_permutation((2, 3, 1, 4))
        t = SchurmannTriple(rep, np.array([[1.0], [1.0], [1.0], [0.0]], dtype=complex))
        A = generator_matrix(t)
        assert abs(np.linalg.matrix_power(A, 3)[0, 0]) < 1e-14
        for time in (0.1, 1.0):
            T = fundamental_semigroup(t, time)
            val, _ = conv_exp(t, time, parse_word("p(1,1)", 4))
            assert abs(val - T[0, 0]) < 1e-10

    def test_unit_word(self, rng):
        t = fourier_triple(3, rng)
        val, last = conv_exp(t, 1.2, unit_word(3))
        assert abs(val - 1.0) < 1e-14
        assert last < 1e-13

    def test_word_reducing_to_zero(self, rng):
        t = fourier_triple(3, rng)
        val, last = conv_exp(t, 0.8, parse_word("p(1,2) p(1,3)", 3))
        assert val == 0j
        assert last == 0.0

    def test_two_block_state_value_in_unit_interval(self, rng):
        spec, xi, zeta = two_block_instance(rng)
        xi = xi / np.linalg.norm(xi)
        zeta = zeta / np.linalg.norm(zeta)
        t = two_block_triple(spec, xi, zeta)
        w = parse_word("p(1,1) p(3,3)", 4)
        vals = []
        for time in np.linspace(0.0, 1.0, 9):
            val, last = conv_exp(t, float(time), w)
            assert last < 1e-9
            assert abs(val.imag) < 1e-9
            assert -1e-9 <= val.real <= 1.0 + 1e-9
            vals.append(val.real)
        # each exponential mode decays, so the grid values decrease
        assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))

    def test_two_block_state_matches_group_algebra_form(self, rng):
        # p_11, p_33 generate a copy of C*(Z2 * Z2); on group-likes the
        # convolution exponential is a pointwise exponential, which gives
        # omega_t(p_11 p_33) = (1 + e^{t psi(u)} + e^{t psi(v)} + e^{t psi(uv)})/4
        for complex_data in (False, True):
            spec, xi, zeta = two_block_instance(rng)
            if complex_data:
                d = spec.d
                xi = xi + 1j * ((np.eye(d) - spec.P) @ rng.normal(size=d))
                zeta = zeta + 1j * ((np.eye(d) - spec.Q) @ rng.normal(size=d))
            xi = xi / np.linalg.norm(xi)
            zeta = zeta / np.linalg.norm(zeta)
            t = two_block_triple(spec, xi, zeta)
            w = parse_word("p(1,1) p(3,3)", 4)
            nx = float(np.vdot(xi, xi).real)
            nz = float(np.vdot(zeta, zeta).real)
            psi_uv = 4.0 * complex(np.vdot(xi, zeta)) - 2.0 * nx - 2.0 * nz
            for time in (0.25, 0.7, 1.0):
                want = 0.25 * (
                    1.0
                    + np.exp(-2.0 * time * nx)
                    + np.exp(-2.0 * time * nz)
                    + np.exp(time * psi_uv)
                )
                val, last = conv_exp(t, time, w)
                assert last < 1e-10
                assert abs(val - want) < 1e-9

    def test_state_positivity_on_squares(self, rng):
        t = fourier_triple(4, rng, scale=0.6)
        words = [w for w in reduced_words(4, 2) if len(w) <= 2]
        idx = rng.choice(len(words), size=25, replace=False)
        for k in idx:
            a = words[int(k)]
            astar_a = Word(tuple(reversed(a.letters)), 4) * a
            val, _ = conv_exp(t, 0.9, astar_a)
            assert val.real >= -1e-6
            assert abs(val.imag) < 1e-8

    def test_negative_time_rejected(self, rng):
        with pytest.raises(ValidationError):
            conv_exp(fourier_triple(3, rng), -1.0, unit_word(3))

    @pytest.mark.parametrize("time", NON_FINITE)
    def test_non_finite_time_rejected(self, rng, time):
        t = fourier_triple(3, rng)
        with pytest.raises(ValidationError, match="time"):
            conv_exp(t, time, parse_word("p(1,2) p(2,3)", 3))
        with pytest.raises(ValidationError, match="time"):
            state_table(t, time, [unit_word(3)])

    def test_budget_enforced(self, rng, budget):
        # the 4-letter block: 108^2 entries of L_B and 144 x 144 of F
        t = fourier_triple(4, rng)
        w = Word([(1, 1), (2, 2), (3, 3), (4, 4)], 4)
        budget(10)
        with pytest.raises(BudgetError):
            conv_exp(t, 1.0, w)

    def test_closure_budget_enforced(self, rng, budget):
        # the 5-letter block has 324 indices: 324^2 entries of L_B and
        # 144 x 1296 of F, 291,600 complex entries, exceed 50,000
        t = fourier_triple(4, rng)
        w = parse_word("p(1,2) p(2,3) p(3,4) p(4,1) p(1,3)", 4)
        budget(50_000)
        with pytest.raises(BudgetError):
            conv_exp(t, 1.0, w)

    def test_seven_letter_block_exceeds_default_budget(self, rng):
        # (4 * 3^6)^2 entries of L_B and 1296 x 11664 of F, 23.6M complex
        # entries; the charge comes before any allocation
        t = fourier_triple(4, rng)
        w = parse_word("p(1,2) p(2,3) p(3,4) p(4,1) p(1,3) p(2,4) p(3,1)", 4)
        with pytest.raises(BudgetError):
            conv_exp(t, 1.0, w)

    def test_size_mismatch_rejected(self, rng):
        with pytest.raises(ValidationError):
            conv_exp(fourier_triple(3, rng), 0.5, parse_word("p(1,2)", 4))

    def test_two_cycle_permutation_triple_value(self):
        # ev_sigma (x) I_2 for sigma = (1 2 3 4)(5 6), cocycle sqrt(1) e_1 on
        # the 4-cycle and sqrt(0.7) e_2 on the 2-cycle.  This is not the
        # classical process (whose joint law gives 0.12150 here); the value
        # pins the semigroup of this triple, which the order-40 series also
        # gives (0.1566661436)
        xs = np.zeros((6, 2), dtype=complex)
        xs[:4, 0] = 1.0
        xs[4:, 1] = math.sqrt(0.7)
        t = SchurmannTriple(from_permutation((2, 3, 4, 1, 6, 5), 2), xs)
        val, err = conv_exp(t, 0.8, parse_word("p(1,2) p(5,6) p(2,3)", 6))
        assert abs(val - 0.15666614358539) < 1e-12
        assert err < 1e-14

    def test_no_hidden_cache(self, rng):
        t = fourier_triple(4, rng)
        conv_exp(t, 0.5, parse_word("p(1,2) p(2,3) p(3,1)", 4))
        state_table(t, 0.5, reduced_words(4, 2))
        ref = weakref.ref(t)
        del t
        gc.collect()
        assert ref() is None

    def test_err_covers_the_rounding_of_the_value(self, rng):
        # err = u (||t L_B||_1 + |value|) for t > 0; u ||t L_B||_1 alone falls
        # below one ulp of an O(1) value at small t
        t = fourier_triple(4, rng)
        words = [parse_word("p(1,1)", 4)] + [random_reduced_word(rng, 4, k, k) for k in (1, 2, 3)]
        for time in (1e-6, 0.1, 0.7, 2.5):
            for w in words:
                val, err = conv_exp(t, time, w)
                assert err >= _UNIT_ROUNDOFF * abs(val), (w.letters, time, val, err)
        for w in words:
            assert conv_exp(t, 0.0, w)[1] == 0.0
        assert conv_exp(t, 0.7, unit_word(4)) == (1 + 0j, 0.0)

    def test_state_table_at_zero(self, rng):
        t = fourier_triple(3, rng)
        words = reduced_words(3, 2)
        table = state_table(t, 0.0, words)
        for w in words:
            assert abs(table[w] - counit(w)) < 1e-14


class TestBlockMemo:
    """Each triple builds the block generator of a word length once."""

    @staticmethod
    def count_builds(monkeypatch):
        calls = []
        build = semigroup._block_L

        def counted(t, k):
            calls.append(k)
            return build(t, k)

        monkeypatch.setattr(semigroup, "_block_L", counted)
        return calls

    def test_second_call_builds_nothing(self, rng, monkeypatch):
        calls = self.count_builds(monkeypatch)
        t = fourier_triple(4, rng)
        conv_exp(t, 0.5, parse_word("p(1,2) p(2,3) p(3,1)", 4))
        assert calls == [3]
        conv_exp(t, 1.5, parse_word("p(4,2) p(1,3) p(2,1)", 4))
        state_table(t, 0.2, [parse_word("p(1,1) p(2,2) p(3,3)", 4), parse_word("p(1,2)", 4)])
        assert calls == [3, 1]  # the 3-letter block again from its record, the letter block once
        assert sorted(t.block_L) == [1, 3]
        assert not t.block_L[3].A.flags.writeable

    @pytest.mark.parametrize("family", ["fourier", "two_block"])
    def test_record_matches_a_fresh_block(self, rng, family):
        # the triple keeps A = L_B - mu I, mu = tr(L_B) / m, ||A||_1 and ||L_B||_1
        t = family_triple(family, 4, rng)
        for k in (1, 2, 3):
            conv_exp(t, 0.5, random_reduced_word(rng, 4, k, k))
            block = t.block_L[k]
            L = _block_L(t, k)
            real = not L.imag.any()
            L = L.real if real else L  # as the record takes it
            mu = np.trace(L) / len(L)
            A = L - mu * np.eye(len(L))
            assert block.mu == mu
            assert block.norm == float(np.linalg.norm(A, 1))
            assert block.L_norm == float(np.linalg.norm(L, 1))
            assert np.array_equal(block.A, A)
            assert not block.A.flags.writeable
            assert block.A.dtype == (np.float64 if real else np.complex128)

    def test_warm_call_allocates_no_block_sized_array(self, rng):
        # the 5-letter block at n = 4 has m = 324; one m x m complex array is
        # 1.68 MB, and a warm call works on the word's column only
        t = fourier_triple(4, rng)
        w = parse_word("p(1,2) p(2,3) p(3,4) p(4,1) p(1,3)", 4)
        conv_exp(t, 0.5, w)
        assert t.block_L[5].A.dtype == np.complex128
        tracemalloc.start()
        try:
            conv_exp(t, 0.7, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 324 * 324 * 16 / 8, peak

    def test_hit_equals_a_fresh_triple(self, rng):
        rep = from_hadamard(fourier(4))
        xs = random_cocycle(rep, rng)
        t = SchurmannTriple(rep, xs)
        words = [random_reduced_word(rng, 4, k, k) for k in (2, 3, 3, 4)]
        for time in (0.3, 1.0):
            warm = state_table(t, time, words)
            assert warm == state_table(SchurmannTriple(rep, xs), time, words)
            for w in words:
                assert conv_exp(t, time, w) == conv_exp(SchurmannTriple(rep, xs), time, w)

    def test_real_blocks_are_stored_real(self, rng):
        spec, xi, zeta = two_block_instance(rng)
        t = two_block_triple(spec, xi, zeta)
        conv_exp(t, 0.5, parse_word("p(1,1) p(3,3) p(1,1)", 4))
        assert t.block_L[3].A.dtype == np.float64

    def test_equal_triples_share_nothing(self, rng):
        rep = from_hadamard(fourier(4))
        xs = random_cocycle(rep, rng)
        t1, t2 = SchurmannTriple(rep, xs), SchurmannTriple(rep, xs)
        assert t1.block_L is not t2.block_L
        conv_exp(t1, 0.5, parse_word("p(1,2) p(2,3)", 4))
        assert list(t1.block_L) == [2] and t2.block_L == {}
        conv_exp(t2, 0.5, parse_word("p(1,2) p(2,3)", 4))
        assert t1.block_L[2].A is not t2.block_L[2].A
        assert np.array_equal(t1.block_L[2].A, t2.block_L[2].A)

    def test_budget_raises_on_a_hit(self, rng, budget):
        t = fourier_triple(4, rng)
        w = parse_word("p(1,2) p(2,3) p(3,4) p(4,1)", 4)
        expected = conv_exp(t, 1.0, w)  # at the default budget
        assert 4 in t.block_L
        budget(32_399)
        with pytest.raises(BudgetError, match="32400 complex entries"):
            conv_exp(t, 1.0, w)
        budget(10)
        with pytest.raises(BudgetError):
            state_table(t, 1.0, [w])
        budget(32_400)
        assert conv_exp(t, 1.0, w) == expected

    def test_budget_message(self, rng, budget):
        # the 4-letter block at n = 4: 108^2 entries of L_B and 144 x 144 of F
        t = fourier_triple(4, rng)
        budget(32_399)
        with pytest.raises(BudgetError) as exc:
            conv_exp(t, 1.0, parse_word("p(1,2) p(2,3) p(3,4) p(4,1)", 4))
        assert str(exc.value) == ("the 4-letter block needs 32400 complex entries, "
                                  "over the term budget 32399")

    def test_cli_time_list_matches_single_times(self, capsys):
        args = ["semigroup", "--sigma", "(1 2 3)", "--rates", "1.0",
                "--word", "p(1,2) p(2,3)", "--word", "p(1,1) p(2,2) p(3,1)"]

        def values(times):
            assert cli.main(args + ["--time", times]) == 0
            return json.loads(capsys.readouterr().out)["words"]

        together = values("0.5,1,2")
        for pos, time in enumerate(("0.5", "1", "2")):
            alone = values(time)
            for many, one in zip(together, alone):
                assert many["values"][pos] == one["values"][0]
                assert many["last_terms"][pos] == one["last_terms"][0]


class TestBlockEngine:
    """conv_exp against the truncated series over the coproduct closure."""

    TIMES = (0.3, 1.0)

    def assert_matches_oracle(self, t, w):
        want = _series_oracle(t, [w], self.TIMES, order=25, tol=1e-13)[w]
        for time, ref in zip(self.TIMES, want):
            val, err = conv_exp(t, time, w)
            assert abs(val - ref) < 1e-11, (w.letters, time, val, ref)
            assert err < 1e-12

    def test_one_oracle_closure_matches_one_closure_per_word(self, rng):
        t = fourier_triple(3, rng)
        words = [Word(((i, j),), 3) for i in range(1, 4) for j in range(1, 4)]
        words += [random_reduced_word(rng, 3, k, k) for k in (2, 3, 4)]
        words += [parse_word("p(1,2) p(1,3)", 3), unit_word(3)]
        together = _series_oracle(t, words, self.TIMES, order=25, tol=1e-13)
        assert list(together) == words
        for w in words:
            alone = _series_oracle(t, [w], self.TIMES, order=25, tol=1e-13)[w]
            assert max(abs(a - b) for a, b in zip(together[w], alone)) <= 1e-14, w

    def test_series_vs_expm_letters_catch_a_wrong_exponential(self, monkeypatch):
        # the letters were once checked against fundamental_semigroup, which runs
        # the same _expm_action as conv_exp, so a wrong exponential passed there
        from qperm import selftest

        action = semigroup._expm_action
        monkeypatch.setattr(semigroup, "_expm_action",
                            lambda block, time, B: 1.001 * action(block, time, B))
        res = selftest.check_series_vs_expm(triples=1, times=(0.5,))
        assert not res.passed and "p(1,1): series off by" in res.detail

    def test_series_vs_expm_words_catch_a_wrong_block(self, monkeypatch):
        # letter blocks (letter_L) are left intact, so only the words of 2-4 letters see this
        from qperm import selftest

        build = semigroup._block_L
        monkeypatch.setattr(semigroup, "_block_L",
                            lambda t, k: build(t, k) * (1.0 if k == 1 else 1.001))
        res = selftest.check_series_vs_expm(triples=1, times=(0.5,))
        assert not res.passed and res.detail.startswith("triple 0, t=0.5, p(")
        assert ") p(" in res.detail and ": series off by" in res.detail

    @pytest.mark.parametrize("length", [2, 3, 4])
    def test_fourier(self, rng, length):
        t = fourier_triple(4, rng)
        self.assert_matches_oracle(t, random_reduced_word(rng, 4, length, length))

    @pytest.mark.parametrize("length", [2, 3, 4])
    def test_permutation(self, rng, length):
        rep = from_permutation((2, 3, 1, 4), 2)
        t = SchurmannTriple(rep, random_cocycle(rep, rng))
        self.assert_matches_oracle(t, random_reduced_word(rng, 4, length, length))

    @pytest.mark.parametrize("length", [2, 3, 4])
    def test_two_block(self, rng, length):
        spec, xi, zeta = two_block_instance(rng)
        t = two_block_triple(spec, xi, zeta)
        self.assert_matches_oracle(t, random_reduced_word(rng, 4, length, length))

    def test_five_letters(self, rng):
        # n = 3 keeps the oracle's closure at 48 rows; at n = 4 it has 324
        # rows and 105k scalar L calls, several seconds
        t = fourier_triple(3, rng)
        self.assert_matches_oracle(t, parse_word("p(1,2) p(2,3) p(3,1) p(1,2) p(2,1)", 3))

    @pytest.mark.parametrize(
        "family, n, k",
        [(f, 4, k) for f in ("fourier", "permutation", "two_block", "f4") for k in (1, 2, 3, 4)]
        + [(f, 3, 5) for f in ("fourier", "permutation")],
    )
    def test_split_block_matches_letter_assembly(self, rng, family, n, k):
        t = family_triple(family, n, rng)
        want = letter_block(t, k)
        got = _block_L(t, k)
        scale = 1.0 + float(np.max(np.abs(want)))
        assert float(np.max(np.abs(got - want))) <= 1e-12 * scale

    @pytest.mark.parametrize("scale", [1.0, 5.0])
    def test_state_table_matches_dense_expm(self, rng, scale):
        # tolerance fixed before the first run: ten rounding-error scales
        t = fourier_triple(4, rng, scale)
        for k in (2, 3, 4):
            row = {tuple(seq): r for r, seq in enumerate(_index_sequences(4, k).tolist())}
            L = letter_block(t, k)
            words = [random_reduced_word(rng, 4, k, k) for _ in range(4)]
            for time in (0.1, 1.0, 20.0):
                E = scipy.linalg.expm(time * L)
                err = 2.0**-53 * float(np.linalg.norm(time * L, 1))  # conv_exp's err
                for w, val in state_table(t, time, words).items():
                    rows, cols = zip(*w.letters)
                    want = E[row[rows], row[cols]]
                    assert abs(val - want) <= 10 * err + 1e-14, (scale, k, time, val, want)

    def test_values_independent_of_numpy_global_rng(self):
        # scipy's expm_multiply, used here before _expm_action, estimated norms
        # of powers of t L_B from numpy's global RNG at three columns, and
        # unseeded these values varied in the last bits
        rep = from_hadamard(fourier(4))
        t = SchurmannTriple(rep, random_cocycle(rep, np.random.default_rng(7), 3.0))
        words = [Word(letters, 4) for letters in (
            [(4, 4), (3, 2), (1, 1)], [(2, 1), (1, 2), (4, 4)], [(1, 1), (3, 2), (4, 4)])]
        values = set()
        saved = np.random.get_state()
        try:
            for seed in range(6):
                np.random.seed(seed)
                values.add(tuple(state_table(t, 0.5, words).values()))
                assert np.random.randint(1 << 30) == np.random.RandomState(seed).randint(1 << 30)
        finally:
            np.random.set_state(saved)
        assert len(values) == 1

    def test_memory_does_not_grow_with_block_letters(self, rng):
        # Fourier n = 8, 3 letters: m = 392, and the m^2 words of the block
        # gather 153,664 * 8 * 8 complex entries (157 MB) per position when
        # evaluated at once; split after one letter, the block is one product
        # of 64 rows with 3,136 columns and the peak is about 8 MB
        t = fourier_triple(8, rng)
        w = parse_word("p(1,2) p(2,5) p(7,1)", 8)
        tracemalloc.start()
        try:
            conv_exp(t, 0.5, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_unreduced_word_takes_its_reduced_value(self, rng):
        t = fourier_triple(4, rng)
        long = parse_word("p(1,2) p(1,2) p(3,3) p(4,1) p(4,1)", 4)
        short = parse_word("p(1,2) p(3,3) p(4,1)", 4)
        assert conv_exp(t, 0.7, long) == conv_exp(t, 0.7, short)

    def test_state_table_matches_conv_exp(self, rng):
        t = fourier_triple(4, rng)
        words = [unit_word(4), parse_word("p(1,2) p(1,3)", 4), parse_word("p(2,2)", 4)]
        words += [random_reduced_word(rng, 4, k, k) for k in (1, 2, 2, 3, 3, 4)]
        table = state_table(t, 0.6, words)
        assert list(table) == words
        assert table[words[0]] == 1.0 and table[words[1]] == 0j
        for w in words:
            assert abs(table[w] - conv_exp(t, 0.6, w)[0]) < 1e-15

    def test_import_leaves_scipy_linalg_unloaded(self):
        code = ("import sys, qperm; "
                "print('scipy.linalg' in sys.modules, 'scipy.sparse' in sys.modules)")
        src = str(Path(qperm.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src), check=True).stdout
        assert out.strip() == "False False"


def reference_haar_gram_degree2(n):
    """The loop over index quadruples `haar_gram_degree2` ran before its closed form."""
    size = 1 + n * n
    G = np.empty((size, size))
    G[0, 0] = 1.0
    off = 1.0 / (n * (n - 1))
    for i in range(n):
        for j in range(n):
            a = 1 + i * n + j
            G[0, a] = G[a, 0] = 1.0 / n
            for k in range(n):
                for l in range(n):
                    b = 1 + k * n + l
                    if i == k and j == l:
                        G[a, b] = 1.0 / n
                    elif i == k or j == l:
                        G[a, b] = 0.0
                    else:
                        G[a, b] = off
    return G


class TestHaar:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_closed_form_matches_reference_loop_bit_for_bit(self, n):
        assert haar_gram_degree2(n).tobytes() == reference_haar_gram_degree2(n).tobytes()

    def classical_gram(self, n):
        """Average of the defining matrix coefficients over the classical S_n."""
        size = 1 + n * n
        G = np.zeros((size, size))
        perms = list(itertools.permutations(range(1, n + 1)))
        for sigma in perms:
            vec = np.zeros(size)
            vec[0] = 1.0
            for i in range(n):
                vec[1 + i * n + (sigma[i] - 1)] = 1.0
            G += np.outer(vec, vec)
        return G / len(perms)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_classical_average(self, n):
        assert np.allclose(haar_gram_degree2(n), self.classical_gram(n), atol=1e-12)

    def test_frozen_values(self):
        G = haar_gram_degree2(4)
        assert G[0, 0] == 1.0
        assert G[0, 1] == 0.25
        # h(p_12 p_21): both index pairs differ
        assert abs(G[1 + 0 * 4 + 1, 1 + 1 * 4 + 0] - 1.0 / 12.0) < 1e-15
        # h(p_12 p_13): shared row
        assert G[1 + 0 * 4 + 1, 1 + 0 * 4 + 2] == 0.0

    def test_row_sums_give_haar_of_unit(self):
        # sum_j h(p_ij w) = h(w) by the row relation
        n = 5
        G = haar_gram_degree2(n)
        for k in range(n):
            for l in range(n):
                b = 1 + k * n + l
                for i in range(n):
                    total = sum(G[1 + i * n + j, b] for j in range(n))
                    assert abs(total - G[0, b]) < 1e-12

    def test_positive_semidefinite(self):
        for n in (2, 3, 4, 6):
            eigs = np.linalg.eigvalsh(haar_gram_degree2(n))
            assert float(eigs.min()) >= -1e-12

    def test_invariance_under_convolution(self, rng):
        # h * L = L(1) h = 0 = L * h on the degree <= 2 span
        n = 3
        t = fourier_triple(n, rng)
        G = haar_gram_degree2(n)

        def h(w):
            if len(w) == 0:
                return G[0, 0]
            if len(w) == 1:
                (i, j) = w.letters[0]
                return G[0, 1 + (i - 1) * n + (j - 1)]
            (i, j), (k, l) = w.letters
            return G[1 + (i - 1) * n + (j - 1), 1 + (k - 1) * n + (l - 1)]

        f = lambda w: gen_functional(t, w)
        for w in reduced_words(n, 2):
            assert abs(convolve(h, f, w)) < 1e-10
            assert abs(convolve(f, h, w)) < 1e-10

    def test_small_n_rejected(self):
        with pytest.raises(ValidationError):
            haar_gram_degree2(1)


class TestMarkovSymmetry:
    def test_zero_triple_symmetric(self):
        rep = from_hadamard(fourier(3))
        t = SchurmannTriple(rep, np.zeros((3, 3)))
        assert markov_symmetry_check(t)

    def test_cycle_not_symmetric(self):
        assert not markov_symmetry_check(cycle_triple(3))

    def test_two_block_equal_vectors_symmetric(self, rng):
        # xi = zeta must lie in ker P and ker Q simultaneously
        d = 4
        u = rng.normal(size=d) + 1j * rng.normal(size=d)
        u /= np.linalg.norm(u)
        compl = np.linalg.qr(
            np.concatenate([u[:, None], rng.normal(size=(d, d - 1))], axis=1)
        )[0][:, 1:]
        P = compl[:, :2] @ compl[:, :2].conj().T
        Q = compl[:, 1:3] @ compl[:, 1:3].conj().T
        spec = TwoBlockSpec(P, Q)
        t = two_block_triple(spec, u, u)
        assert markov_symmetry_check(t)
        from qperm.schurmann import is_symmetric_words

        sym, _ = is_symmetric_words(t, max_len=3)
        assert sym

    def test_matches_generator_transpose_condition(self, rng):
        # on this span self-adjointness is exactly symmetry of A
        t = fourier_triple(4, rng)
        A = generator_matrix(t)
        assert markov_symmetry_check(t) == bool(np.allclose(A, A.T, atol=1e-9))

    def test_operator_matrix_shape(self, rng):
        t = fourier_triple(3, rng)
        M = markov_operator_degree1(t)
        assert M.shape == (10, 10)
        assert np.allclose(M[:, 0], 0.0)  # the unit is fixed: L * 1-column is zero
