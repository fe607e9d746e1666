"""Triples (rho, eta, L): evaluation identities, Poisson certificates, symmetry."""

import itertools

import numpy as np
import pytest

from qperm.cohomology import h1_representatives
from qperm.config import DEFAULT_CONFIG
from qperm.errors import ValidationError
from qperm.magic import (
    MagicUnitary,
    TwoBlockSpec,
    f4_phi,
    fourier,
    from_hadamard,
    from_permutation,
    two_block,
)
from qperm.schurmann import (
    _SAMPLE_PAIR_ROWS,
    _SAMPLE_WORDS,
    SchurmannTriple,
    _columns,
    _exhaustive,
    _grow,
    _rows,
    _sweep_plan,
    _sweep_words,
    _word_count,
    _trace_defect,
    _tree,
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


def concat_trace_defect(t, per_len, max_len):
    """Worst |L(uv) - L(vu)| by evaluating every concatenated pair of words."""
    worst = 0.0
    for la in range(1, max_len):
        for lb in range(1, max_len - la + 1):
            wa, wb = per_len[la - 1], per_len[lb - 1]
            uv = np.concatenate(
                [np.repeat(wa, wb.shape[0], axis=0), np.tile(wb, (wa.shape[0], 1, 1))], axis=1
            )
            vu = np.concatenate([uv[:, la:], uv[:, :la]], axis=1)
            diff = gen_functional_batch(t, uv) - gen_functional_batch(t, vu)
            worst = max(worst, float(np.max(np.abs(diff), initial=0.0)))
    return worst


def reference_is_tracial(t, max_len, rng, tol=1e-9):
    """is_tracial on concatenated pairs and one scalar eta per sampled word."""
    scale = 1.0 + float(np.max(np.abs(t.letter_L), initial=0.0))
    per_len = _sweep_words(t.n, max_len - 1, rng)
    if not _exhaustive(t.n, max_len - 1):
        per_len = [
            b if b.shape[0] <= _SAMPLE_PAIR_ROWS
            else b[rng.choice(b.shape[0], _SAMPLE_PAIR_ROWS, replace=False)]
            for b in per_len
        ]
    if concat_trace_defect(t, per_len, max_len) > tol * scale:
        return False
    for batch in _sweep_words(t.n, max_len, rng):
        take = batch if batch.shape[0] <= 64 else batch[rng.choice(batch.shape[0], 64, replace=False)]
        for letters in take.tolist():
            letters = [tuple(let) for let in letters]
            na = np.linalg.norm(eta(t, Word(letters, t.n)))
            nastar = np.linalg.norm(eta(t, Word(letters[::-1], t.n)))
            if abs(na - nastar) > tol * scale:
                return False
    return True


def reference_is_symmetric_words(t, max_len, tol=1e-9, rng=None):
    """is_symmetric_words by gathered letter-matrix products of every swept word and its antipode."""
    scale = 1.0 + float(np.max(np.abs(t.letter_L), initial=0.0))
    worst = 0.0
    for batch in _sweep_words(t.n, max_len, rng):
        vals = gen_functional_batch(t, batch)
        svals = gen_functional_batch(t, batch[:, ::-1, ::-1])  # antipode: reverse, swap indices
        worst = max(worst, float(np.max(np.abs(vals - svals), initial=0.0)))
    return worst <= tol * scale, worst


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
            batch = _sweep_words(4, length)[-1]
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


class TestSweepWords:
    def test_short_lengths_enumerated_in_sampled_regime(self):
        batches = _sweep_words(5, 4)
        assert [b.shape[1] for b in batches] == [1, 2, 3, 4]
        letters = list(itertools.product(range(1, 6), repeat=2))
        for ln in (1, 2, 3):
            # brute force: adjacent letters differ in both row and column
            want = [
                w for w in itertools.product(letters, repeat=ln)
                if all(a[0] != b[0] and a[1] != b[1] for a, b in zip(w, w[1:]))
            ]
            got = sorted(tuple(map(tuple, w)) for w in batches[ln - 1].tolist())
            assert got == want
        assert sum(b.shape[0] for b in batches) == _SAMPLE_WORDS

    def test_sampled_words_are_reduced(self):
        for batch in _sweep_words(4, 6):
            rows, cols = batch[..., 0], batch[..., 1]
            assert np.all(rows[:, 1:] != rows[:, :-1]) and np.all(cols[:, 1:] != cols[:, :-1])


class TestTracial:
    def test_permutation_multiplicity_one_is_tracial(self):
        assert is_tracial(cycle_triple(3), max_len=4)

    def test_sampled_sweep_fits_pair_budget(self):
        # n = 5 is past the exhaustive range; each sampled length is cut so
        # that every pair of lengths stays within the pair budget
        assert is_tracial(cycle_triple(5), max_len=4)

    def test_sampled_sweep_fits_pair_budget_at_n6(self):
        # lengths 1-2 at n = 6 are enumerated (936 words) and cut at random
        assert is_tracial(cycle_triple(6), max_len=4)

    def test_counterexample_is_not_tracial(self):
        spec, xi, zeta = counterexample_data()
        t = two_block_triple(spec, xi, zeta)
        assert not is_tracial(t, max_len=4)


def trace_triples():
    """Triples of the families the traciality sweep sees, as pytest params."""
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


def random_projection(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q = np.linalg.qr(a)[0][:, : rng.integers(1, d)]
    return q @ q.conj().T


class TestTraceDefect:
    @pytest.mark.parametrize("label,t", trace_triples())
    def test_gram_defect_matches_concatenation(self, label, t):
        max_len = 4
        rng = np.random.default_rng(3)
        per_len = _sweep_words(t.n, max_len - 1, rng)
        if not _exhaustive(t.n, max_len - 1):
            per_len = [b[rng.choice(b.shape[0], min(b.shape[0], _SAMPLE_PAIR_ROWS), replace=False)]
                       for b in per_len]
        scale = 1.0 + float(np.max(np.abs(t.letter_L), initial=0.0))
        fast = _trace_defect([_columns(t, b) for b in per_len], [_rows(t, b) for b in per_len])
        slow = concat_trace_defect(t, per_len, max_len)
        assert abs(fast - slow) <= 1e-12 * scale
        assert (fast <= 1e-9 * scale) == (slow <= 1e-9 * scale)
        if label.startswith("fourier4"):
            assert slow > 1e-3  # random Fourier n=4 cocycles are not tracial

    @pytest.mark.parametrize("label,t", trace_triples())
    def test_verdict_matches_reference(self, label, t):
        got = is_tracial(t, 4, rng=np.random.default_rng(5))
        assert got == reference_is_tracial(t, 4, np.random.default_rng(5))
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


def tree_triples():
    """Fourier and permutation d=2 triples at n = 2..4, complex two-block d=3 and F_4(0.7)."""
    rng = np.random.default_rng(41)
    out = [(f"fourier{n}", fourier_triple(n, rng)) for n in (2, 3, 4)]
    for n in (2, 3, 4):
        rep = from_permutation(tuple(range(2, n + 1)) + (1,), 2)
        out.append((f"permutation{n}-d2", SchurmannTriple(rep, random_cocycle(rep, rng))))
    P, Q = random_projection(rng, 3), random_projection(rng, 3)
    v, w = (rng.normal(size=3) + 1j * rng.normal(size=3) for _ in range(2))
    out.append(("two-block-d3", two_block_triple(TwoBlockSpec(P, Q), v - P @ v, w - Q @ w)))
    f4 = from_hadamard(f4_phi(0.7))
    out.append(("f4(0.7)", SchurmannTriple(f4, random_cocycle(f4, rng))))
    return [pytest.param(t, id=label) for label, t in out]


class TestPrefixTree:
    @pytest.mark.parametrize("t", tree_triples())
    def test_levels_match_gathered_products(self, t):
        norm = max(1.0, float(np.max(np.linalg.norm(t.pi, 2, axis=(2, 3)))))
        levels = _tree(t, 4, rows=True, scols=True)
        assert len(levels) == 5
        for k in range(1, 5):
            words = reduced_word_array(t.n, k)
            lv = levels[k]
            scale = norm ** k
            assert lv.cols.shape == lv.rows.shape == lv.scols.shape == (words.shape[0], t.d + 2)
            assert np.abs(lv.cols - _columns(t, words)).max() <= 1e-13 * scale
            assert np.abs(lv.rows - _rows(t, words)).max() <= 1e-13 * scale
            assert np.abs(lv.scols - _columns(t, words[:, ::-1, ::-1])).max() <= 1e-13 * scale
            codes = (words[:, :, 0] - 1) * t.n + words[:, :, 1] - 1
            assert np.array_equal(lv.first, codes[:, 0])
            assert np.array_equal(lv.last, codes[:, -1])

    @pytest.mark.parametrize("t", tree_triples())
    def test_taken_words_are_rows_of_the_full_level(self, t):
        levels = _tree(t, 3, rows=True, scols=True)
        full = _grow(t, levels[-1])
        take = np.random.default_rng(43).permutation(full.cols.shape[0])[:50]
        part = _grow(t, levels[-1], take)
        for name in ("first", "last", "cols", "rows", "scols"):
            assert np.array_equal(getattr(part, name), getattr(full, name)[take])

    def test_parts_left_out_stay_out(self, rng):
        t = fourier_triple(3, rng)
        lv = _tree(t, 2)[-1]
        assert lv.rows is None and lv.scols is None
        assert lv.cols.shape == (36, t.d + 2)


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
        scale = 1.0 + float(np.max(np.abs(t.letter_L), initial=0.0))
        for max_len in (1, 2, 3, 4, 5):
            rng_a, rng_b = np.random.default_rng(53), np.random.default_rng(53)
            got = is_symmetric_words(t, max_len, rng=rng_a)
            want = reference_is_symmetric_words(t, max_len, rng=rng_b)
            assert got[0] == want[0]
            assert abs(got[1] - want[1]) <= 1e-14 * scale
            assert rng_a.bit_generator.state == rng_b.bit_generator.state
        symmetric = is_symmetric_words(t, 4)[0]
        if label in ("two-block-counterexample", "two-block-d3", "fourier4", "cycle4", "cycle6"):
            assert not symmetric
        if label in ("two-block-real", "transpositions"):
            assert symmetric

    @pytest.mark.parametrize("label,t", sweep_triples())
    def test_traciality_verdict_and_draws(self, label, t):
        for max_len in (2, 3, 4):
            rng_a, rng_b = np.random.default_rng(59), np.random.default_rng(59)
            got = is_tracial(t, max_len, rng=rng_a)
            assert got == reference_is_tracial(t, max_len, rng_b)
            if got:
                assert rng_a.bit_generator.state == rng_b.bit_generator.state
        tracial = is_tracial(t, 4)
        if label in ("two-block-counterexample", "fourier4"):
            assert not tracial
        if label in ("cycle4", "cycle6", "transpositions"):
            assert tracial

    @pytest.mark.parametrize("t", [pytest.param(cycle_triple(4), id="cycle4"),
                                   pytest.param(fourier_triple(3, np.random.default_rng(61)),
                                                id="fourier3")])
    def test_traciality_past_the_exhaustive_lengths(self, t):
        # n <= 4, max_len 5: pairs from the full tree to length 4, the eta
        # check on enumerated lengths 1-3 and drawn lengths 4-5
        rng_a, rng_b = np.random.default_rng(67), np.random.default_rng(67)
        got = is_tracial(t, 5, rng=rng_a)
        assert got == reference_is_tracial(t, 5, rng_b)
        if got:
            assert rng_a.bit_generator.state == rng_b.bit_generator.state


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


def reference_sweep_plan(n, max_len, rng=None):
    """`_sweep_plan` with the per-length drawing loop it had before the shared sampler."""
    counts = np.array([_word_count(n, ln) for ln in range(1, max_len + 1)], float)
    if _exhaustive(n, max_len):
        return max_len, []
    full = int(np.searchsorted(np.cumsum(counts), _SAMPLE_WORDS, side="right"))
    if full == max_len:
        return full, []
    if rng is None:
        rng = np.random.default_rng(DEFAULT_CONFIG.seed)
    rest = counts[full:]
    left = _SAMPLE_WORDS - counts[:full].sum()
    quota = np.maximum(1, np.round(left * rest / rest.sum()).astype(int))
    drawn = []
    for ln, m in enumerate(quota.tolist(), start=full + 1):
        rows = np.empty((m, ln), dtype=np.int64)
        cols = np.empty((m, ln), dtype=np.int64)
        rows[:, 0] = rng.integers(1, n + 1, size=m)
        cols[:, 0] = rng.integers(1, n + 1, size=m)
        for pos in range(1, ln):
            roff = rng.integers(1, n, size=m)
            coff = rng.integers(1, n, size=m)
            rows[:, pos] = (rows[:, pos - 1] - 1 + roff) % n + 1
            cols[:, pos] = (cols[:, pos - 1] - 1 + coff) % n + 1
        drawn.append(np.stack([rows, cols], axis=2))
    return full, drawn


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

    @pytest.mark.parametrize("n, max_len", [(4, 5), (4, 6), (5, 4), (5, 5), (6, 3), (7, 4)])
    def test_sweep_plan_draws_match_reference_loop(self, n, max_len):
        for seed in range(5):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            full, drawn = _sweep_plan(n, max_len, a)
            want_full, want = reference_sweep_plan(n, max_len, b)
            assert full == want_full and len(drawn) == len(want) > 0
            for got, ref in zip(drawn, want):
                assert got.dtype == np.int64 and np.array_equal(got, ref)
            assert a.bit_generator.state == b.bit_generator.state
        # the default generator is seeded the same way
        assert all(np.array_equal(x, y) for x, y in
                   zip(_sweep_plan(5, 4)[1], reference_sweep_plan(5, 4)[1]))
