"""Triples (rho, eta, L): evaluation identities, Poisson certificates, symmetry."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from qperm.cohomology import SubspaceBasis, h1_representatives
from qperm.errors import BudgetError, ValidationError
from qperm.magic import (
    MagicUnitary,
    TwoBlockSpec,
    apply,
    f4_phi,
    fourier,
    from_hadamard,
    from_permutation,
    two_block,
)
from qperm.schurmann import (
    SchurmannTriple,
    _apply,
    _columns,
    _commutator_norm,
    _compress,
    _kraus,
    _relation_defect,
    _rows,
    cocycle_violation,
    eta,
    fourier_symmetry,
    gen_functional,
    gen_functional_batch,
    is_gaussian,
    is_symmetric_words,
    is_tracial,
    poisson_certificate,
    poisson_value,
    random_cocycle,
    symmetrize,
    triple_from_stacked,
    two_block_symmetry,
    two_block_triple,
)
from qperm.selftest import (
    conjugate_rep,
    random_lincomb,
    random_reduced_word,
    random_triple,
    random_unitary,
)
from qperm.words import (
    LinComb,
    Word,
    adjoint,
    antipode,
    counit,
    defining_relations,
    parse_word,
    reduced_word_array,
    reduced_words,
    unit_word,
)


def cycle_triple(n=3, lam=1.0):
    """Triple on the n-cycle permutation with a constant cocycle."""
    sigma = tuple(list(range(2, n + 1)) + [1])
    rep = from_permutation(sigma)
    xs = np.full((n, 1), np.sqrt(lam), dtype=complex)
    return SchurmannTriple(rep, xs)


def fourier_triple(n, rng, scale=1.0):
    rep = from_hadamard(fourier(n))
    return SchurmannTriple(rep, random_cocycle(rep, rng, scale))


def reference_L_batch(t, letters):
    """L of each row by the letter recursion, in the kernel's arithmetic order."""
    n, d = t.n, t.d
    blocks_flat = t.rep.blocks.reshape(n * n, d, d)
    xi_flat = t.xi.reshape(n * n, d)
    lgen_flat = t.letter_L.reshape(n * n)
    val = np.zeros(letters.shape[0], dtype=complex)
    eta_suf = np.zeros((letters.shape[0], d), dtype=complex)
    eps = np.ones(letters.shape[0])
    for pos in range(letters.shape[1] - 1, -1, -1):
        ii = letters[:, pos, 0] - 1
        jj = letters[:, pos, 1] - 1
        code = ii * n + jj
        xi_l = xi_flat[code]
        delta = (ii == jj).astype(float)
        val = np.einsum("md,md->m", xi_l.conj(), eta_suf) + delta * val + lgen_flat[code] * eps
        eta_suf = np.einsum("mab,mb->ma", blocks_flat[code], eta_suf) + xi_l * eps[:, None]
        eps = delta * eps
    return val


def scale_of(t):
    return 1.0 + float(np.max(np.abs(t.letter_L), initial=0.0))


def all_sequences(n, length):
    """Every letter sequence of `length` letters, reduced or not: (n^(2 length), length, 2)."""
    letters = np.array(list(itertools.product(range(1, n + 1), repeat=2)))
    return letters[np.array(list(itertools.product(range(n * n), repeat=length)))]


def pair_defects(t, us, vs):
    """L(uv) - L(vu) for every row u of us and v of vs, u-major, by concatenating the words."""
    step = max(1, 100_000 // len(vs))
    out = []
    for start in range(0, len(us), step):
        u = us[start:start + step]
        u_rep, v_rep = np.repeat(u, len(vs), axis=0), np.tile(vs, (len(u), 1, 1))
        uv = np.concatenate([u_rep, v_rep], axis=1)
        vu = np.concatenate([v_rep, u_rep], axis=1)
        out.append(gen_functional_batch(t, uv) - gen_functional_batch(t, vu))
    return np.concatenate(out)


def brute_symmetry_defect(t, max_len):
    """Root of sum_j mean |L(w) - L(S w)|^2 over the letter sequences w of j <= max_len letters."""
    total = 0.0
    for length in range(1, max_len + 1):
        w = all_sequences(t.n, length)
        diff = gen_functional_batch(t, w) - gen_functional_batch(t, w[:, ::-1, ::-1])
        total += float(np.mean(np.abs(diff) ** 2))
    return math.sqrt(total)


def brute_commutator_norm(t, max_len):
    """Root of sum_{j,k} mean |L(uv) - L(vu)|^2 over letter sequences |u| = j, |v| = k <= max_len."""
    seqs = [all_sequences(t.n, length) for length in range(1, max_len + 1)]
    return math.sqrt(sum(float(np.mean(np.abs(pair_defects(t, u, v)) ** 2))
                         for u in seqs for v in seqs))


def reference_is_tracial(t, max_len, tol=1e-9):
    """L(uv) = L(vu) on every pair of reduced words with |u| + |v| <= max_len, and
    |eta(a)| = |eta(a*)| on every reduced word of at most max_len letters."""
    bound = tol * scale_of(t)
    words = [reduced_word_array(t.n, length) for length in range(1, max_len + 1)]
    for la in range(1, max_len):
        for lb in range(la, max_len - la + 1):  # (lb, la) gives the same values negated
            if np.max(np.abs(pair_defects(t, words[la - 1], words[lb - 1]))) > bound:
                return False
    for batch in words:
        na = np.linalg.norm(_columns(t, batch)[:, 1:-1], axis=1)
        nastar = np.linalg.norm(_columns(t, batch[:, ::-1])[:, 1:-1], axis=1)  # a* = a reversed
        if np.max(np.abs(na - nastar)) > bound:
            return False
    return True


def reference_is_symmetric_words(t, max_len, tol=1e-9):
    """Worst |L(w) - L(S w)| over every reduced word of at most max_len letters, and its verdict."""
    worst = 0.0
    for length in range(1, max_len + 1):
        batch = reduced_word_array(t.n, length)
        vals = gen_functional_batch(t, batch)
        svals = gen_functional_batch(t, batch[:, ::-1, ::-1])  # antipode: reverse, swap indices
        worst = max(worst, float(np.max(np.abs(vals - svals), initial=0.0)))
    return worst <= tol * scale_of(t), worst


def counterexample_data():
    """A two-block instance whose generating functional is not symmetric."""
    v = np.array([1.0, 0.0, 1j])
    P = np.diag([1.0, 1.0, 0.0]).astype(complex)
    q = np.ones(3) / np.sqrt(3.0)
    Q = np.outer(q, q.conj())
    xi = (np.eye(3) - P) @ v
    zeta = (np.eye(3) - Q) @ v
    return TwoBlockSpec(P, Q), xi, zeta


class TestConstruction:
    def test_rejects_non_cocycle(self):
        rep = from_permutation((2, 3, 1))
        bad = np.array([[1.0], [2.0], [3.0]], dtype=complex)
        assert cocycle_violation(rep, bad) > 0.5
        with pytest.raises(ValidationError):
            SchurmannTriple(rep, bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"),
                                     complex(0.0, float("nan"))])
    def test_rejects_non_finite_cocycle(self, bad):
        rep = from_hadamard(fourier(2))
        xs = np.zeros((2, 2), dtype=complex)
        xs[0, 0] = bad
        with np.errstate(invalid="ignore"):  # inf * 0 in the block products
            assert not np.isfinite(cocycle_violation(rep, xs))
        with pytest.raises(ValidationError, match="finite"):
            SchurmannTriple(rep, xs)

    def test_rejects_shape_mismatch(self):
        rep = from_permutation((2, 3, 1))
        with pytest.raises(ValidationError):
            SchurmannTriple(rep, np.zeros((3, 2)))

    def test_letter_values(self):
        t = cycle_triple(3, lam=2.0)
        # L(p_ii) = -|xi_i|^2, L(p_i sigma(i)) = |xi_i|^2, other letters 0
        assert np.allclose(t.letter_L, 2.0 * (np.array([[ -1, 1, 0], [0, -1, 1], [1, 0, -1]])))

    def test_triple_from_stacked(self, rng):
        rep = from_hadamard(fourier(4))
        vec = random_cocycle(rep, rng).reshape(-1)
        t = triple_from_stacked(rep, vec)
        assert np.allclose(t.xs.reshape(-1), vec)

    @pytest.mark.parametrize("make", [lambda: from_hadamard(fourier(6)),
                                      lambda: from_hadamard(f4_phi(0.7)),
                                      lambda: from_permutation((2, 3, 1, 5, 4), 2)],
                             ids=["fourier6", "f4(0.7)", "perm-d2"])
    def test_random_cocycle_does_not_depend_on_the_basis_rotation(self, make, monkeypatch):
        # another orthonormal basis of the same cocycle space: the seeded tuple stays put
        from qperm import cohomology

        rep = make()
        real = cohomology.cocycle_space
        dim = real(rep).dim
        g = np.random.default_rng(11).normal(size=(2, dim, dim))
        q = np.linalg.qr(g[0] + 1j * g[1])[0]
        want = random_cocycle(rep, np.random.default_rng(0), 2.0)
        assert cohomology.cocycle_space(rep).contains(want.reshape(-1))
        monkeypatch.setattr(cohomology, "cocycle_space",
                            lambda M, *args: SubspaceBasis(q @ real(M, *args).vectors))
        got = random_cocycle(rep, np.random.default_rng(0), 2.0)
        assert np.max(np.abs(got - want)) <= 1e-12


class TestEvaluation:
    def test_unit_values(self, rng):
        t = fourier_triple(4, rng)
        assert gen_functional(t, unit_word(4)) == 0
        assert np.allclose(eta(t, unit_word(4)), 0.0)

    def test_generator_values(self, rng):
        t = fourier_triple(4, rng)
        for i in range(1, 5):
            assert np.allclose(eta(t, parse_word(f"p({i},{i})", 4)), t.xs[i - 1])
            for j in range(1, 5):
                w = parse_word(f"p({i},{j})", 4)
                assert abs(gen_functional(t, w) - t.letter_L[i - 1, j - 1]) < 1e-12

    def test_vanishes_on_defining_relations(self, rng):
        t = fourier_triple(4, rng)
        for rel in defining_relations(4):
            assert abs(gen_functional(t, rel)) < 1e-10
            assert np.linalg.norm(eta(t, rel)) < 1e-10

    def test_hermitian(self, rng):
        t = fourier_triple(4, rng)
        for _ in range(30):
            letters = [
                (int(rng.integers(1, 5)), int(rng.integers(1, 5)))
                for _ in range(int(rng.integers(1, 5)))
            ]
            x = LinComb.from_word(Word(letters, 4), 1.0 + 0.5j)
            assert abs(gen_functional(t, adjoint(x)) - np.conj(gen_functional(t, x))) < 1e-10

    def test_cocycle_rule(self, rng):
        # eta(ab) = rho(a) eta(b) + eta(a) eps(b)
        t = fourier_triple(3, rng)
        from qperm.magic import apply

        for _ in range(20):
            la = [(int(rng.integers(1, 4)), int(rng.integers(1, 4))) for _ in range(2)]
            lb = [(int(rng.integers(1, 4)), int(rng.integers(1, 4))) for _ in range(2)]
            a, b = Word(la, 3), Word(lb, 3)
            want = apply(t.rep, a) @ eta(t, b) + eta(t, a) * counit(b)
            assert np.allclose(eta(t, a * b), want, atol=1e-10)

    def test_coboundary_identity(self, rng):
        # L(ab) = <eta(a*), eta(b)> + eps(a) L(b) + L(a) eps(b)
        t = fourier_triple(4, rng)
        for _ in range(50):
            la = [(int(rng.integers(1, 5)), int(rng.integers(1, 5))) for _ in range(2)]
            lb = [(int(rng.integers(1, 5)), int(rng.integers(1, 5))) for _ in range(2)]
            a, b = Word(la, 4), Word(lb, 4)
            want = (
                complex(np.vdot(eta(t, adjoint(a)), eta(t, b)))
                + counit(a) * gen_functional(t, b)
                + gen_functional(t, a) * counit(b)
            )
            assert abs(gen_functional(t, a * b) - want) < 1e-10

    def test_batch_matches_scalar(self, rng):
        t = fourier_triple(4, rng)
        words = reduced_words(4, 3, min_len=3)[:200]
        batch = np.array([w.letters for w in words], dtype=np.int64)
        vals = gen_functional_batch(t, batch)
        for w, v in zip(words[:40], vals[:40]):
            assert abs(gen_functional(t, w) - v) < 1e-12

    def test_batch_eta_matches_scalar(self, rng):
        t = fourier_triple(4, rng)
        batch = np.array([w.letters for w in reduced_words(4, 3, min_len=3)[:200]])
        etas = _columns(t, batch)[:, 1:-1]
        for letters, e in zip(batch.tolist(), etas):
            assert np.abs(eta(t, Word([tuple(let) for let in letters], 4)) - e).max() < 1e-12

    def test_batch_L_matches_reference(self, rng):
        t = fourier_triple(4, rng)
        for length in (1, 3, 4):
            batch = reduced_word_array(4, length)
            want = reference_L_batch(t, batch)
            scale = 1.0 + float(np.max(np.abs(want)))
            assert float(np.max(np.abs(gen_functional_batch(t, batch) - want))) <= 1e-14 * scale

    def test_batch_shape_check(self, rng):
        t = fourier_triple(3, rng)
        with pytest.raises(ValidationError):
            gen_functional_batch(t, np.zeros((4, 3), dtype=np.int64))
        with pytest.raises(ValidationError, match="shape"):
            gen_functional_batch(t, np.ones((4, 3, 3), dtype=np.int64))

    @pytest.mark.parametrize("letter", [(0, 1), (5, 1), (1, 5), (2, -1)])
    def test_batch_letter_range_check(self, rng, letter):
        # (0, 1) used to wrap to code -1 and return L(p_41); (5, 1) raised IndexError
        t = fourier_triple(4, rng)
        batch = np.array([[[1, 2], letter]], dtype=np.int64)
        with pytest.raises(ValidationError, match="1..4"):
            gen_functional_batch(t, batch)
        assert gen_functional_batch(t, np.zeros((0, 2, 2), dtype=np.int64)).shape == (0,)

    def test_conditional_positivity_on_kernel(self, rng):
        # the Gram matrix L(a_i* a_j) on ker eps elements is PSD
        t = fourier_triple(4, rng)
        elems = []
        for i in range(1, 4):
            w = parse_word(f"p(1,{i + 1})", 4)
            elems.append(LinComb.from_word(w) - LinComb.unit(4, counit(w)))
        base = parse_word("p(2,1) p(1,2)", 4)
        elems.append(LinComb.from_word(base) - LinComb.unit(4, counit(base)))
        G = np.array(
            [[gen_functional(t, adjoint(a) * b) for b in elems] for a in elems]
        )
        G = 0.5 * (G + G.conj().T)
        assert float(np.linalg.eigvalsh(G).min()) >= -1e-9


class TestGaussian:
    def test_zero_triple_is_gaussian_and_flat(self):
        rep = from_hadamard(fourier(4))
        t = SchurmannTriple(rep, np.zeros((4, 4)))
        assert is_gaussian(t)
        for w in reduced_words(4, 3):
            assert gen_functional(t, w) == 0

    def test_nonzero_triple_is_not_gaussian(self, rng):
        assert not is_gaussian(fourier_triple(4, rng))


class TestPoisson:
    def test_cycle_constant_tuple_certified(self):
        t = cycle_triple(3, lam=1.5)
        cert = poisson_certificate(t)
        assert cert is not None
        assert cert.residual < 1e-10
        # no fixed points: (P_ii - I) v = xi forces v = -xi
        assert np.allclose(cert.v, -t.xs[0], atol=1e-10)

    def test_certificate_reproduces_functional(self, rng):
        t = cycle_triple(4, lam=0.7)
        cert = poisson_certificate(t)
        for w in reduced_words(4, 2):
            assert abs(poisson_value(t, cert.v, w) - gen_functional(t, w)) < 1e-10

    def test_h1_direction_rejected(self):
        rep = from_hadamard(fourier(4))
        reps = h1_representatives(rep)
        assert reps.dim == 1
        t = triple_from_stacked(rep, reps.vectors[0])
        assert poisson_certificate(t) is None


class TestSymmetry:
    def test_counterexample_detected(self):
        spec, xi, zeta = counterexample_data()
        assert abs(complex(np.vdot(zeta, xi)).imag + 1.0 / 3.0) < 1e-12
        assert not two_block_symmetry(spec, xi, zeta)
        t = two_block_triple(spec, xi, zeta)
        sym, worst = is_symmetric_words(t, max_len=3)
        assert not sym
        assert worst > 1e-6

    def test_real_instances_are_symmetric(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 5))
            A = rng.normal(size=(d, d))
            q = np.linalg.qr(A)[0]
            P = q[:, :1] @ q[:, :1].T
            B = rng.normal(size=(d, d))
            r = np.linalg.qr(B)[0]
            Q = r[:, :1] @ r[:, :1].T
            xi = (np.eye(d) - P) @ rng.normal(size=d)
            zeta = (np.eye(d) - Q) @ rng.normal(size=d)
            spec = TwoBlockSpec(P, Q)
            assert two_block_symmetry(spec, xi, zeta)
            sym, _ = is_symmetric_words(two_block_triple(spec, xi, zeta), max_len=3)
            assert sym

    def test_precondition_enforced(self):
        spec, xi, zeta = counterexample_data()
        with pytest.raises(ValidationError):
            two_block_symmetry(spec, np.array([1.0, 0.0, 0.0]), zeta)

    def test_fourier_criterion_agrees_with_word_sweep(self, rng):
        for n in (3, 4):
            for _ in range(5):
                rep = from_hadamard(fourier(n))
                xs = random_cocycle(rep, rng)
                t = SchurmannTriple(rep, xs)
                sym_words, _ = is_symmetric_words(t, max_len=3)
                assert fourier_symmetry(n, xs) == sym_words

    @pytest.mark.parametrize("n", range(3, 17))
    def test_fourier_criterion_agrees_at_full_length(self, n):
        # 2(d + 2), the size of the symmetry state: the span of the states reached
        # stops growing by then, so words of every length are decided
        rep = from_hadamard(fourier(n))
        rng = np.random.default_rng(n)
        v = rng.normal(size=rep.d)
        cases = {"random": random_cocycle(rep, rng),
                 "real": np.array([(rep.blocks[i, i] - np.eye(rep.d)) @ v for i in range(n)]),
                 "zero": np.zeros((n, rep.d))}
        for label, xs in cases.items():
            t = SchurmannTriple(rep, xs)
            symmetric, _ = is_symmetric_words(t, 2 * (t.d + 2))
            assert symmetric == fourier_symmetry(n, xs), label
            assert symmetric == (label != "random"), label

    def test_two_block_criterion_agrees_at_full_length(self, rng):
        seen = set()
        for idx in range(24):
            d = 2 + idx % 4
            real = idx % 2 == 0
            P, Q = (random_projection(rng, d, real) for _ in range(2))
            v, w = (rng.normal(size=d) + (0 if real else 1j * rng.normal(size=d)) for _ in range(2))
            xi, zeta = v - P @ v, w - Q @ w
            want = two_block_symmetry(TwoBlockSpec(P, Q), xi, zeta)
            t = two_block_triple(TwoBlockSpec(P, Q), xi, zeta)
            assert is_symmetric_words(t, 2 * (t.d + 2))[0] == want
            seen.add(want)
        assert seen == {True, False}

    def test_fourier_criterion_rejects_non_cocycle(self):
        with pytest.raises(ValidationError):
            fourier_symmetry(3, np.ones((3, 3)))

    def test_symmetrize_is_symmetric(self, rng):
        t = fourier_triple(4, rng)
        ev = symmetrize(t)
        for w in reduced_words(4, 2)[:50]:
            assert abs(ev(w) - ev(antipode(w))) < 1e-10

    def test_antipode_invariance_of_symmetrized_matches_definition(self, rng):
        t = fourier_triple(3, rng)
        ev = symmetrize(t)
        w = parse_word("p(1,2) p(2,3)", 3)
        want = 0.5 * (gen_functional(t, w) + gen_functional(t, antipode(w)))
        assert abs(ev(w) - want) < 1e-14


class TestTracial:
    def test_permutation_multiplicity_one_is_tracial(self):
        assert is_tracial(cycle_triple(3), max_len=4)

    def test_sampled_sweep_fits_pair_budget(self):
        assert is_tracial(cycle_triple(5), max_len=4)

    def test_sampled_sweep_fits_pair_budget_at_n6(self):
        assert is_tracial(cycle_triple(6), max_len=4)

    def test_counterexample_is_not_tracial(self):
        spec, xi, zeta = counterexample_data()
        t = two_block_triple(spec, xi, zeta)
        assert not is_tracial(t, max_len=4)


def trace_triples():
    """Triples of the families the traciality check sees, as pytest params."""
    rng = np.random.default_rng(11)
    out = [(f"fourier4-{k}", fourier_triple(4, rng)) for k in range(3)]
    spec, xi, zeta = counterexample_data()
    out.append(("two-block-counterexample", two_block_triple(spec, xi, zeta)))
    for k in range(2):
        P, Q = (random_projection(rng, 3) for _ in range(2))
        v, w = rng.normal(size=3) + 1j * rng.normal(size=3), rng.normal(size=3)
        out.append((f"two-block-{k}", two_block_triple(TwoBlockSpec(P, Q), v - P @ v, w - Q @ w)))
    for sigma, mult in (((2, 3, 4, 1), 1), ((2, 1, 4, 3), 2), ((2, 3, 1, 5, 4), 1),
                        ((2, 1, 4, 5, 3), 2)):
        rep = from_permutation(sigma, mult)
        label = f"perm{''.join(map(str, sigma))}x{mult}"
        out.append((label, SchurmannTriple(rep, random_cocycle(rep, rng))))
    out.append(("fourier5", fourier_triple(5, rng)))
    return [pytest.param(label, t, id=label) for label, t in out]


def random_projection(rng, d, real=False):
    a = rng.normal(size=(d, d)) + (0 if real else 1j * rng.normal(size=(d, d)))
    q = np.linalg.qr(a)[0][:, : rng.integers(1, d)]
    return q @ q.conj().T


class TestTraceDefect:
    @pytest.mark.parametrize("label,t", trace_triples())
    def test_gram_defect_matches_concatenation(self, label, t):
        # the moment aggregate against every pair of letter sequences of 1-2 letters
        scale = scale_of(t)
        fast = _commutator_norm(t, 2)
        slow = brute_commutator_norm(t, 2)
        assert abs(fast - slow) <= 1e-12 * scale
        assert (fast <= 1e-9 * scale) == (slow <= 1e-9 * scale)
        if label.startswith("fourier4"):
            assert slow > 1e-3  # random Fourier n=4 cocycles are not tracial

    @pytest.mark.parametrize("label,t", trace_triples())
    def test_verdict_matches_reference(self, label, t):
        got = is_tracial(t, 4)
        assert got == reference_is_tracial(t, 4)
        if label.startswith("fourier4"):
            assert not got


def letter_triples():
    """Fourier n=4, permutation d=2, complex two-block d=3 and F_4(0.7) triples."""
    rng = np.random.default_rng(17)
    perm = from_permutation((2, 3, 1, 4), 2)
    P, Q = random_projection(rng, 3), random_projection(rng, 3)
    v, w = (rng.normal(size=3) + 1j * rng.normal(size=3) for _ in range(2))
    f4 = from_hadamard(f4_phi(0.7))
    out = [("fourier4", fourier_triple(4, rng)),
           ("permutation-d2", SchurmannTriple(perm, random_cocycle(perm, rng))),
           ("two-block-d3", two_block_triple(TwoBlockSpec(P, Q), v - P @ v, w - Q @ w)),
           ("f4(0.7)", SchurmannTriple(f4, random_cocycle(f4, rng)))]
    return [pytest.param(t, id=label) for label, t in out]


def random_letters(rng, n, count, length, reduced):
    """(count, length, 2) letters; reduced rows change row and column at every step."""
    out = rng.integers(1, n + 1, size=(count, length, 2))
    if reduced:
        for pos in range(1, length):
            out[:, pos] = (out[:, pos - 1] - 1 + rng.integers(1, n, size=(count, 2))) % n + 1
    return out


def letter_product(t, letters):
    """pi(w) as an explicit product of the letter matrices of t."""
    mats = [t.pi[i - 1, j - 1] for i, j in letters]
    return mats[0] if len(mats) == 1 else np.linalg.multi_dot(mats)


class TestLetterMatrices:
    @pytest.mark.parametrize("t", letter_triples())
    def test_columns_and_rows_match_explicit_products(self, t):
        rng = np.random.default_rng(23)
        norm = max(1.0, float(np.max(np.linalg.norm(t.pi, 2, axis=(2, 3)))))
        for length in range(1, 6):
            for reduced in (True, False):
                batch = random_letters(rng, t.n, 40, length, reduced)
                want = np.array([letter_product(t, w) for w in batch.tolist()])
                scale = norm ** length
                assert np.abs(_columns(t, batch) - want[:, :, -1]).max() <= 1e-13 * scale
                assert np.abs(_rows(t, batch) - want[:, 0, :]).max() <= 1e-13 * scale

    @pytest.mark.parametrize("t", letter_triples())
    def test_rows_hold_the_adjoint_cocycle(self, t):
        # e_0 pi(w) = (eps(w), conj eta(w*), L(w)), w* = w reversed
        rng = np.random.default_rng(29)
        batch = random_letters(rng, t.n, 30, 3, True)
        rows = _rows(t, batch)
        for w, row in zip(batch.tolist(), rows):
            w = [tuple(let) for let in w]
            assert abs(row[0] - counit(Word(w, t.n))) < 1e-12
            assert np.abs(row[1:-1] - eta(t, Word(w[::-1], t.n)).conj()).max() < 1e-12
            assert abs(row[-1] - gen_functional(t, Word(w, t.n))) < 1e-12

    @pytest.mark.parametrize("chunk", [1, 3])
    def test_chunking_is_bit_identical(self, monkeypatch, chunk):
        t = fourier_triple(4, np.random.default_rng(31))
        batch = random_letters(np.random.default_rng(37), 4, 50, 4, False)
        cols, rows = _columns(t, batch), _rows(t, batch)
        monkeypatch.setattr("qperm.schurmann._CHUNK_ROWS", chunk)
        assert np.array_equal(_columns(t, batch), cols)
        assert np.array_equal(_rows(t, batch), rows)

    def test_letter_table_is_read_only(self, rng):
        t = fourier_triple(4, rng)
        assert t.pi.shape == (4, 4, t.d + 2, t.d + 2)
        with pytest.raises(ValueError):
            t.pi[0, 0, 0, 0] = 1.0


def sweep_triples():
    """Symmetric and tracial triples, and negative controls, at n = 3..6."""
    rng = np.random.default_rng(47)
    spec, xi, zeta = counterexample_data()
    out = [("two-block-counterexample", two_block_triple(spec, xi, zeta)),
           ("fourier3", fourier_triple(3, rng)), ("fourier4", fourier_triple(4, rng)),
           ("fourier5", fourier_triple(5, rng)), ("cycle4", cycle_triple(4)),
           ("cycle6", cycle_triple(6)),
           ("transpositions", SchurmannTriple(from_permutation((2, 1, 4, 3)), np.ones((4, 1))))]
    P, Q = random_projection(rng, 3), random_projection(rng, 3)
    v, w = (rng.normal(size=3) + 1j * rng.normal(size=3) for _ in range(2))
    out.append(("two-block-d3", two_block_triple(TwoBlockSpec(P, Q), v - P @ v, w - Q @ w)))
    qa, qb = (np.linalg.qr(rng.normal(size=(3, 3)))[0][:, :1] for _ in range(2))
    P, Q = qa @ qa.T, qb @ qb.T
    v, w = rng.normal(size=3), rng.normal(size=3)
    out.append(("two-block-real", two_block_triple(TwoBlockSpec(P, Q), v - P @ v, w - Q @ w)))
    rep = from_permutation((2, 1, 4, 3, 5), 2)
    out.append(("perm21435x2", SchurmannTriple(rep, random_cocycle(rep, rng))))
    return [pytest.param(label, t, id=label) for label, t in out]


class TestSweepsMatchReference:
    @pytest.mark.parametrize("label,t", sweep_triples())
    def test_symmetry_verdict_and_worst(self, label, t):
        # every letter sequence is 0 or a reduced word no longer than itself,
        # so n^-max_len worst <= defect <= sqrt(max_len) worst
        scale = scale_of(t)
        for max_len in range(1, 6 if t.n <= 4 else 5):
            got = is_symmetric_words(t, max_len)
            want = reference_is_symmetric_words(t, max_len)
            assert got[0] == want[0]
            assert got[1] <= math.sqrt(max_len) * want[1] + 1e-14 * scale
            assert want[1] <= t.n ** max_len * (got[1] + 1e-14 * scale)
        symmetric = is_symmetric_words(t, 4)[0]
        if label in ("two-block-counterexample", "two-block-d3", "fourier4", "cycle4", "cycle6"):
            assert not symmetric
        if label in ("two-block-real", "transpositions"):
            assert symmetric

    @pytest.mark.parametrize("label,t", sweep_triples())
    def test_traciality_verdict_and_draws(self, label, t):
        for max_len in (2, 3, 4):
            assert is_tracial(t, max_len) == reference_is_tracial(t, max_len)
        tracial = is_tracial(t, 4)
        if label in ("two-block-counterexample", "fourier4"):
            assert not tracial
        if label in ("cycle4", "cycle6", "transpositions"):
            assert tracial

    @pytest.mark.parametrize("t", [pytest.param(cycle_triple(4), id="cycle4"),
                                   pytest.param(fourier_triple(3, np.random.default_rng(61)),
                                                id="fourier3")])
    def test_traciality_past_the_exhaustive_lengths(self, t):
        assert is_tracial(t, 5) == reference_is_tracial(t, 5)


def brute_triples():
    """Triples at n <= 3, where every letter sequence of up to 3 letters can be listed."""
    rng = np.random.default_rng(73)
    out = [(f"fourier{n}", fourier_triple(n, rng)) for n in (2, 3)]
    out.append(("cycle3", cycle_triple(3, lam=0.6)))
    rep = from_permutation((2, 1, 3), 2)
    out.append(("perm213x2", SchurmannTriple(rep, random_cocycle(rep, rng))))
    return [pytest.param(t, id=label) for label, t in out]


class TestMomentsMatchEnumeration:
    @pytest.mark.parametrize("t", brute_triples())
    def test_symmetry_defect(self, t):
        for max_len in (1, 2, 3):
            got = is_symmetric_words(t, max_len)[1]
            assert abs(got - brute_symmetry_defect(t, max_len)) <= 1e-12 * scale_of(t)

    @pytest.mark.parametrize("t", brute_triples())
    def test_commutator_norm(self, t):
        for max_len in (1, 2, 3):
            got = _commutator_norm(t, max_len)
            assert abs(got - brute_commutator_norm(t, max_len)) <= 1e-12 * scale_of(t)

    def test_level_over_the_term_budget_raises_before_it_is_built(self, budget):
        # a second Fourier n=16 level would stack up to 256 x 256 x 324 entries (340 MB)
        t = fourier_triple(16, np.random.default_rng(79))
        budget(100_000)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match="term budget"):
                is_tracial(t, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6

    def test_level_budget_message(self, budget):
        # traciality's first level stacks (Kraus factors) x (d + 2)^2 entries, d + 2 = 6 here
        t = fourier_triple(4, np.random.default_rng(79))
        kraus = len(_kraus(t.pi.reshape(16, 6, 6)))
        budget(36 * kraus - 1)
        with pytest.raises(BudgetError) as exc:
            is_tracial(t, 2)
        assert str(exc.value) == (f"a moment level needs {36 * kraus} complex entries, "
                                  f"over the term budget {36 * kraus - 1}")

    @pytest.mark.parametrize("n", [3, 6])
    def test_kraus_gram_matches_the_full_stack(self, rng, n):
        # the symmetry check's block-diagonal steps (half their entries zero)
        # and the letter matrices: factors from the nonzero columns only give
        # the Gram of those from the whole stack
        t = fourier_triple(n, rng)
        size = t.d + 2
        pi = t.pi.reshape(-1, size, size)
        paired = np.zeros((n * n, 2 * size, 2 * size), dtype=complex)
        paired[:, :size, :size] = pi
        paired[:, size:, size:] = t.pi.transpose(1, 0, 3, 2).reshape(-1, size, size)
        for steps in (pi, paired):
            flat = steps.reshape(len(steps), -1)
            full = _compress(flat) / np.sqrt(len(steps))
            kraus = _kraus(steps).reshape(-1, flat.shape[1])
            want = full.conj().T @ full
            got = kraus.conj().T @ kraus
            assert float(np.max(np.abs(got - want))) <= 1e-12 * float(np.max(np.abs(want)))
            assert len(kraus) <= len(full)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        t = cycle_triple(3)
        with pytest.raises(ValidationError, match="tol"):
            is_symmetric_words(t, 3, tol)
        with pytest.raises(ValidationError, match="tol"):
            is_tracial(t, 3, tol)


def reference_cocycle_violation(rep, xs):
    """The double loop `cocycle_violation` ran before it read `_cocycle_blocks`."""
    xs = np.asarray(xs, dtype=complex)
    worst = 0.0
    for i in range(rep.n):
        worst = max(worst, float(np.linalg.norm(rep.blocks[i, i] @ xs[i])))
        for j in range(rep.n):
            if i != j:
                worst = max(worst, float(np.linalg.norm(rep.blocks[i, j] @ (xs[i] - xs[j]))))
    return worst


def _reps(rng):
    """Magic unitaries of every construction, and raw blocks that are not magic."""
    reps = [from_hadamard(fourier(n)) for n in range(2, 7)]
    reps += [from_hadamard(f4_phi(phi)) for phi in (0.3, np.pi / 2)]
    reps += [from_permutation((2, 3, 1, 5, 4), 2), from_permutation((1, 2, 3))]
    P = np.diag([1.0, 0.0, 1.0]).astype(complex)
    q = np.ones(3) / np.sqrt(3.0)
    reps.append(two_block(TwoBlockSpec(P, np.outer(q, q))))
    for n, d in ((3, 2), (4, 3)):
        reps.append(MagicUnitary(rng.normal(size=(n, n, d, d)) + 1j * rng.normal(size=(n, n, d, d))))
    return reps


class TestSharedRules:
    def test_cocycle_violation_matches_reference_loop(self, rng):
        reps = _reps(rng)
        for k in range(300):
            rep = reps[k % len(reps)]
            shape = (rep.n, rep.d)
            cocycle = random_cocycle(rep, rng, float(rng.uniform(0.1, 3.0)))
            noise = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            for xs in (cocycle, noise, cocycle + 1e-9 * noise, np.zeros(shape)):
                assert cocycle_violation(rep, xs) == reference_cocycle_violation(rep, xs)

    def test_apply_matches_reference_loops(self):
        # 300 triples (n <= 5, d <= 4): 5 random combinations, one random word and
        # the unit word each; _apply multiplies in the reference's order, so it is
        # bit-identical, while magic.apply multiplies from the right and its
        # reference from the left, so they agree to rounding
        rng = np.random.default_rng(22)
        for _ in range(300):
            t = random_triple(rng, n_max=5, d_max=4)
            xs = [random_lincomb(rng, t.n, 4, int(rng.integers(1, 6))) for _ in range(5)]
            xs += [random_reduced_word(rng, t.n, 4), unit_word(t.n)]
            for x in xs:
                assert _apply(t, x).tobytes() == reference_apply(t, x).tobytes()
                mass = sum(abs(c) for _, c in (LinComb.from_word(x) if isinstance(x, Word) else x))
                got, want = apply(t.rep, x), reference_rep_apply(t.rep, x)
                assert float(np.max(np.abs(got - want))) <= 1e-15 * mass

    def test_relation_defect_matches_reference_loop(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            t = random_triple(rng, n_max=5, d_max=4)
            assert _relation_defect(t) == reference_relation_defect(t)


def reference_apply(t, x):
    """The loop `_apply` ran before `magic._fold`: a fresh e_last per term."""
    if isinstance(x, Word):
        x = LinComb.from_word(x)
    out = np.zeros(t.d + 2, dtype=complex)
    for w, c in x.terms.items():
        v = np.eye(t.d + 2, dtype=complex)[-1]
        for i, j in reversed(w.letters):
            v = t.pi[i - 1, j - 1] @ v
        out += c * v
    return out


def reference_rep_apply(rep, x):
    """The loop `magic.apply` ran before `_fold`: block products from the left."""
    if isinstance(x, Word):
        x = LinComb.from_word(x)
    out = np.zeros((rep.d, rep.d), dtype=complex)
    for w, c in x.terms.items():
        acc = np.eye(rep.d, dtype=complex)
        for i, j in w.letters:
            acc = acc @ rep.blocks[i - 1, j - 1]
        out += c * acc
    return out


def reference_relation_defect(t):
    """`_relation_defect` through the reference `_apply` (the relations' terms are
    pinned against their old construction in test_words)."""
    worst = 0.0
    for rel in defining_relations(t.n):
        v = reference_apply(t, rel)
        worst = max(worst, abs(complex(v[0])), float(np.linalg.norm(v[1:-1])))
    return worst


def _triples_of_every_family(rng, n):
    """One triple per construction at ambient size n, each also conjugated by a unitary:
    permutation (random multiplicity), Fourier, and at n = 4 F_4(phi) and two-block."""
    sigma = tuple(int(v) + 1 for v in rng.permutation(n))
    reps = [from_permutation(sigma, int(rng.integers(1, 4))), from_hadamard(fourier(n))]
    if n == 4:
        reps.append(from_hadamard(f4_phi(float(rng.uniform(0.0, np.pi)))))
        reps.append(two_block(TwoBlockSpec(random_projection(rng, 3), random_projection(rng, 3))))
    reps += [conjugate_rep(rep, random_unitary(rng, rep.d)) for rep in reps]
    return [SchurmannTriple(rep, random_cocycle(rep, rng, float(rng.uniform(0.5, 2.0))))
            for rep in reps]


def parent_fold(mats, x, start):
    """`magic._fold` as it was before it started from the last letter's columns:
    every word wrapped in a one-term LinComb, and every term multiplied onto `start`."""
    if isinstance(x, Word):
        x = LinComb.from_word(x)
    out = np.zeros(start.shape, dtype=complex)
    for w, c in x.terms.items():
        v = start
        for i, j in reversed(w.letters):
            v = mats[i - 1, j - 1] @ v
        out += c * v
    return out


def parent_apply(t, x):
    """`_apply` as it was: the parent fold from a fresh e_last."""
    e_last = np.zeros(t.d + 2, dtype=complex)
    e_last[-1] = 1.0
    return parent_fold(t.pi, x, e_last)


class TestFoldFromTheLastLetter:
    """`_apply` starts from the last letter's column and reads Words as themselves; its
    bytes are those of the fold that multiplied every term onto e_last."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_relations_match_the_parent_fold(self, n):
        rng = np.random.default_rng(260 + n)
        for t in _triples_of_every_family(rng, n):
            for rel in defining_relations(n):
                assert _apply(t, rel).tobytes() == parent_apply(t, rel).tobytes()

    def test_combinations_and_words_match_the_parent_fold(self):
        rng = np.random.default_rng(261)
        for n in range(2, 6):
            for t in _triples_of_every_family(rng, n):
                xs = [random_lincomb(rng, n, 5, int(rng.integers(1, 7))) for _ in range(4)]
                xs += [LinComb.zero(n), LinComb.unit(n, 0.3 - 2j), unit_word(n)]
                xs += [random_reduced_word(rng, n, 5) for _ in range(4)]
                for x in xs:
                    got = _apply(t, x)
                    assert got.shape == (t.d + 2,) and got.flags.c_contiguous
                    assert got.tobytes() == parent_apply(t, x).tobytes()
                    if isinstance(x, Word):
                        assert got.tobytes() == _apply(t, LinComb.from_word(x)).tobytes()
                        assert got.tobytes() == parent_apply(t, LinComb.from_word(x)).tobytes()

    def test_zero_combination_is_the_positive_zero(self):
        t = _triples_of_every_family(np.random.default_rng(262), 3)[1]
        got = _apply(t, LinComb.zero(3))
        assert got.tobytes() == np.zeros(t.d + 2, dtype=complex).tobytes()
        assert not np.signbit(got.view(float)).any()

    def test_rep_apply_reads_words_as_block_products(self):
        # magic.apply starts from the rightmost block itself, where it multiplied by I
        rng = np.random.default_rng(263)
        for n in range(2, 6):
            for t in _triples_of_every_family(rng, n):
                eye = np.eye(t.d, dtype=complex)
                xs = [random_lincomb(rng, n, 4, 3), random_reduced_word(rng, n, 4), unit_word(n)]
                for x in xs:
                    got = apply(t.rep, x)
                    assert got.shape == (t.d, t.d)
                    assert np.array_equal(got, parent_fold(t.rep.blocks, x, eye))
