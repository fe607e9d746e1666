"""First cohomology of magic-unitary representations and projection lattices."""

import math
import tracemalloc

import numpy as np
import pytest

from qperm import cohomology
from qperm.cohomology import (
    SubspaceBasis,
    _cocycle_blocks,
    _compressed_rows,
    _nullspace,
    _svd,
    coboundary_map,
    coboundary_space,
    cocycle_constraint_matrix,
    cocycle_space,
    fourier_h1_formula,
    gaussian_subspace,
    h1_dim,
    h1_representatives,
    perm_h1_formula,
    projection_meet,
    projection_rank,
    split_tuple,
    stack_tuple,
)
from qperm.config import DEFAULT_CONFIG, RunConfig
from qperm.errors import BudgetError, ValidationError
from qperm.magic import MagicUnitary, TwoBlockSpec, f4_phi, fourier, from_hadamard, from_permutation, two_block
from qperm.perms import identity, random_permutation


def random_projection(rng, d, rank):
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q = np.linalg.qr(A)[0][:, :rank]
    return q @ q.conj().T


def stacked_constraint_matrix(M):
    """Reference: the n^2 d x nd stack of the full-width d-row constraint blocks."""
    n, d = M.n, M.d
    rows = []
    for i in range(n):
        block = np.zeros((d, n * d), dtype=complex)
        block[:, i * d : (i + 1) * d] = M.blocks[i, i]
        rows.append(block)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            block = np.zeros((d, n * d), dtype=complex)
            block[:, i * d : (i + 1) * d] = M.blocks[i, j]
            block[:, j * d : (j + 1) * d] = -M.blocks[i, j]
            rows.append(block)
    return np.vstack(rows)


class TestPermutation:
    def test_identity_has_trivial_h1(self):
        assert h1_dim(from_permutation(identity(4))) == 0
        assert perm_h1_formula(identity(4)) == 0

    @pytest.mark.parametrize(
        "sigma,expected",
        [
            ((2, 1), 0),              # one transposition: cyc 1, fix 0
            ((2, 1, 3), 0),
            ((2, 1, 4, 3), 1),        # two transpositions
            ((2, 3, 1, 4, 5), 0),     # 3-cycle with two fixed points
            ((2, 3, 1, 5, 4), 1),     # 3-cycle and a transposition
            ((2, 1, 4, 3, 6, 5), 2),
        ],
    )
    def test_formula_spot_values(self, sigma, expected):
        assert perm_h1_formula(sigma) == expected
        assert h1_dim(from_permutation(sigma)) == expected

    def test_multiplicity_scales_dimensions(self):
        sigma = (2, 1, 4, 3)
        for d in (1, 2, 3):
            M = from_permutation(sigma, d)
            assert h1_dim(M) == d * perm_h1_formula(sigma)

    def test_random_agreement(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 7))
            sigma = random_permutation(rng, n)
            assert h1_dim(from_permutation(sigma)) == perm_h1_formula(sigma)


class TestFourier:
    def test_formula_values(self):
        assert [fourier_h1_formula(n) for n in range(2, 9)] == [0, 0, 1, 0, 4, 0, 5]

    def test_formula_rejects_small_n(self):
        with pytest.raises(ValidationError):
            fourier_h1_formula(1)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_computed_matches_formula(self, n):
        assert h1_dim(from_hadamard(fourier(n))) == fourier_h1_formula(n)

    def test_fourier4_dimensions(self):
        M = from_hadamard(fourier(4))
        assert cocycle_space(M).dim == 4
        assert coboundary_space(M).dim == 3
        assert h1_dim(M) == 1

    @pytest.mark.parametrize("n", [12, 16])
    def test_large_sizes_match_formula(self, n):
        assert h1_dim(from_hadamard(fourier(n))) == fourier_h1_formula(n)

    def test_f4_special_angle_jump(self):
        assert h1_dim(from_hadamard(f4_phi(0.4))) == 1
        assert h1_dim(from_hadamard(f4_phi(np.pi / 2))) == 3


def _constraint_cases():
    rng = np.random.default_rng(7)
    cases = [(f"fourier{n}", from_hadamard(fourier(n)), True) for n in range(2, 13)]
    cases += [(f"f4_{label}", from_hadamard(f4_phi(phi)), True)
              for label, phi in (("0.7", 0.7), ("pi/2", np.pi / 2), ("pi/2+1e-9", np.pi / 2 + 1e-9))]
    for sigma in ((2, 1, 4, 3), (2, 3, 1, 5, 4), (2, 1, 3)):
        word = "".join(map(str, sigma))
        cases += [(f"perm{word}x{d}", from_permutation(sigma, d), True) for d in (1, 2)]
    for d, rp, rq in ((3, 1, 2), (4, 2, 2), (5, 1, 3)):
        spec = TwoBlockSpec(random_projection(rng, d, rp), random_projection(rng, d, rq))
        cases.append((f"two_block{d}", two_block(spec), True))
    full = rng.normal(size=(3, 3, 4, 4)) + 1j * rng.normal(size=(3, 3, 4, 4))
    low = np.einsum("abi,abj->abij", rng.normal(size=(3, 3, 4)) + 1j * rng.normal(size=(3, 3, 4)),
                    rng.normal(size=(3, 3, 4)) + 1j * rng.normal(size=(3, 3, 4)))
    cases += [("random_full", MagicUnitary(full), False), ("random_rank1", MagicUnitary(low), False)]
    return cases


CONSTRAINT_CASES = _constraint_cases()
DEFAULT_THRESHOLD = DEFAULT_CONFIG.rank_threshold


class TestCompressedConstraints:
    """cocycle_constraint_matrix against the stacked n^2 d x nd reference."""

    @pytest.mark.parametrize("name,M,magic", CONSTRAINT_CASES, ids=[c[0] for c in CONSTRAINT_CASES])
    def test_singular_values_match_stack(self, name, M, magic):
        C = cocycle_constraint_matrix(M)
        s = np.linalg.svd(C, compute_uv=False)
        ref = np.linalg.svd(stacked_constraint_matrix(M), compute_uv=False)
        tol = 1e-12 * max(1.0, ref[0])
        assert C.shape[1] == M.n * M.d and len(s) <= len(ref)
        assert np.max(np.abs(s - ref[: len(s)])) <= tol
        assert np.max(ref[len(s):], initial=0.0) <= tol

    @pytest.mark.parametrize("name,M,magic", CONSTRAINT_CASES, ids=[c[0] for c in CONSTRAINT_CASES])
    def test_cocycle_space_matches_stack(self, name, M, magic):
        Z = cocycle_space(M).vectors
        K = _nullspace(stacked_constraint_matrix(M), DEFAULT_THRESHOLD)
        assert Z.shape == K.shape
        assert np.max(np.abs(Z.T @ Z.conj() - K.T @ K.conj()), initial=0.0) <= 1e-10
        if magic:
            ref_h1 = len(K) - coboundary_space(M).dim
            assert h1_dim(M) == ref_h1

    @pytest.mark.parametrize("name,M,magic", [c for c in CONSTRAINT_CASES if c[2]],
                             ids=[c[0] for c in CONSTRAINT_CASES if c[2]])
    def test_magic_unitary_gives_nd_rows(self, name, M, magic):
        assert cocycle_constraint_matrix(M).shape == (M.n * M.d, M.n * M.d)

    def test_rank_decision_at_small_singular_value(self):
        # F4 just past pi/2: two singular values near 1e-9 sit under the threshold
        M = from_hadamard(f4_phi(np.pi / 2 + 1e-9))
        S = stacked_constraint_matrix(M)
        for A in (S, cocycle_constraint_matrix(M)):
            s = np.linalg.svd(A, compute_uv=False)
            assert np.sum((s > 1e-11) & (s < DEFAULT_THRESHOLD)) == 2
        assert len(_nullspace(S, DEFAULT_THRESHOLD)) == cocycle_space(M).dim == 6
        assert h1_dim(M) == 3

    def test_fourier24_memory(self):
        # the stacked matrix alone is 13824 x 576 complex, 127 MB
        M = from_hadamard(fourier(24))
        tracemalloc.start()
        try:
            dim = cocycle_space(M).dim
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dim == 24 + fourier_h1_formula(24) - 1
        assert peak < 40 * 2 ** 20


def row_sum_reference(M):
    """Reference: block (i, i) = sum_j P_ij and block (i, j) = -P_ij, built block by block."""
    n, d = M.n, M.d
    C = np.zeros((n * d, n * d), dtype=complex)
    for i in range(n):
        for j in range(n):
            C[i * d : (i + 1) * d, j * d : (j + 1) * d] = -M.blocks[i, j]
        C[i * d : (i + 1) * d, i * d : (i + 1) * d] = M.blocks[i].sum(axis=0)
    return C


def perturbed(M, delta, seed):
    """M plus delta times a random complex block of Frobenius norm 1 at every (i, j)."""
    rng = np.random.default_rng(seed)
    E = rng.normal(size=M.blocks.shape) + 1j * rng.normal(size=M.blocks.shape)
    E /= np.linalg.norm(E, axis=(-2, -1), keepdims=True)
    return MagicUnitary(M.blocks + delta * E)


ROW_SUM_CASES = [("fourier8", from_hadamard(fourier(8))), ("fourier6", from_hadamard(fourier(6))),
                 ("f4_pi/2", from_hadamard(f4_phi(np.pi / 2))), ("f4_0.7", from_hadamard(f4_phi(0.7)))]


class TestRowSumConstraints:
    """Magic unitaries within tol of their row relations get the summed nd x nd rows."""

    @pytest.mark.parametrize("delta", [1e-12, 1e-10])
    @pytest.mark.parametrize("name,M", ROW_SUM_CASES, ids=[c[0] for c in ROW_SUM_CASES])
    def test_small_perturbation_takes_the_row_sums(self, name, M, delta):
        Mp = perturbed(M, delta, seed=len(name))
        C = cocycle_constraint_matrix(Mp)
        assert np.max(np.abs(C - row_sum_reference(Mp))) <= 4 * np.finfo(float).eps
        s = np.linalg.svd(C, compute_uv=False)
        ref = np.linalg.svd(stacked_constraint_matrix(Mp), compute_uv=False)
        # each block is within delta (operator norm) of the exact magic unitary M,
        # up to M's own rounding, which the second term covers
        bound = (2 + math.sqrt(2)) * M.n * delta + 1e-13
        assert len(s) == len(ref) == M.n * M.d
        assert np.max(np.abs(s - ref)) <= bound

    @pytest.mark.parametrize("name,M", ROW_SUM_CASES, ids=[c[0] for c in ROW_SUM_CASES])
    def test_large_perturbation_takes_the_compressed_rows(self, name, M):
        Mp = perturbed(M, 1e-6, seed=len(name))
        C = cocycle_constraint_matrix(Mp)
        ref = _compressed_rows(*_cocycle_blocks(Mp), Mp.n)
        assert C.shape == ref.shape and C.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("name", ["not_idempotent", "not_hermitian", "rows_not_identity"])
    def test_each_failed_relation_takes_the_compressed_rows(self, name):
        # each case fails exactly one of P^2 = P, P = P^H and sum_j P_ij = I
        if name == "not_idempotent":
            blocks = np.full((2, 2, 1, 1), 0.5)
        elif name == "not_hermitian":
            # an oblique projection; E - E^H is imaginary, so the real parts alone pass
            E = np.array([[1.0, 1j], [0.0, 0.0]])
            blocks = np.array([[E, np.eye(2) - E], [np.eye(2) - E, E]])
        else:
            blocks = from_permutation((2, 1, 4, 3), 2).blocks.copy()
            blocks[0, 1] = 0.0
        M = MagicUnitary(blocks)
        C = cocycle_constraint_matrix(M)
        assert C.tobytes() == _compressed_rows(*_cocycle_blocks(M), M.n).tobytes()
        s = np.linalg.svd(C, compute_uv=False)
        ref = np.linalg.svd(stacked_constraint_matrix(M), compute_uv=False)
        assert np.max(np.abs(s - ref[: len(s)])) <= 1e-12 * ref[0]

    def test_exact_magic_unitaries_take_the_row_sums(self):
        for name, M, magic in CONSTRAINT_CASES:
            C = cocycle_constraint_matrix(M)
            if magic:
                assert np.max(np.abs(C - row_sum_reference(M))) <= 4 * np.finfo(float).eps, name
            else:
                assert C.tobytes() == _compressed_rows(*_cocycle_blocks(M), M.n).tobytes(), name


def traced_peak(fn, *args):
    """The tracemalloc peak while fn(*args) raises BudgetError, with the error."""
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError) as info:
            fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, str(info.value)


class TestCohomologyBudget:
    """Each cohomology guard charges complex entries before anything of that size exists."""

    def test_fourier_matrix(self, budget):
        budget(100)
        assert fourier(10).n == 10
        peak, msg = traced_peak(fourier, 2000)  # 2000^2 entries would take 64 MB
        assert msg == "the Fourier matrix needs 4000000 complex entries, over the term budget 100"
        assert peak < 2 ** 16

    def test_hadamard_representation(self, budget):
        big = fourier(40)  # 40^4 block entries would take 41 MB
        budget(750)
        assert from_hadamard(fourier(5)).n == 5  # 5^4 + 5^3 = 750
        with pytest.raises(BudgetError, match="needs 1512 complex entries"):
            from_hadamard(fourier(6))
        peak, msg = traced_peak(from_hadamard, big)
        assert msg == ("the Hadamard representation needs 2624000 complex entries, "
                       "over the term budget 750")
        assert peak < 2 ** 16

    def test_cocycle_space(self, budget):
        M = from_hadamard(fourier(24))  # C and its SVD factors are 576 x 576, 5 MB each
        budget(3 * 576 ** 2)
        assert cocycle_space(M).dim == 76
        budget(3 * 576 ** 2 - 1)
        peak, msg = traced_peak(cocycle_space, M)
        assert msg == "the cocycle space needs 995328 complex entries, over the term budget 995327"
        assert peak < 2 ** 16
        with pytest.raises(BudgetError):
            h1_dim(M)

    def test_compressed_rows_of_blocks_that_are_not_magic(self, budget):
        # n^3 d^2 rows entries and 2 n^2 d^2 SVD entries: 8^3 8^2 + 2 8^2 8^2 = 40960
        rng = np.random.default_rng(5)
        M = MagicUnitary(rng.normal(size=(8, 8, 8, 8)) + 1j * rng.normal(size=(8, 8, 8, 8)))
        budget(40960)
        assert cocycle_space(M).dim == 0
        budget(40959)
        peak, msg = traced_peak(cocycle_space, M)
        assert msg == ("the compressed cocycle constraints needs 40960 complex entries, "
                       "over the term budget 40959")
        # the 512 x 64 rows alone would take 512 KB; the relation check's temporaries are 64 KB
        assert peak < 2 ** 18


class TestGaussianRows:
    def test_each_block_factored_once_gives_the_stacked_rows(self, monkeypatch):
        # the previous construction stacked n copies of every P_ab - delta_ab I
        rng = np.random.default_rng(11)
        cases = [from_hadamard(fourier(n)) for n in (2, 3, 6, 8)] + [
            from_hadamard(f4_phi(0.7)), from_permutation((2, 1, 4, 3), 2),
            two_block(TwoBlockSpec(random_projection(rng, 4, 2), random_projection(rng, 4, 1))),
            MagicUnitary(rng.normal(size=(3, 3, 4, 4)) + 1j * rng.normal(size=(3, 3, 4, 4)))]
        for M in cases:
            seen = []
            real = cohomology._nullspace
            monkeypatch.setattr(cohomology, "_nullspace", lambda C, t: seen.append(C) or real(C, t))
            got = gaussian_subspace(M).vectors
            monkeypatch.setattr(cohomology, "_nullspace", real)
            n, d = M.n, M.d
            blocks, plus, minus = _cocycle_blocks(M)
            ops = (M.blocks - np.eye(n)[:, :, None, None] * np.eye(d)).reshape(n * n, d, d)
            ref = _compressed_rows(np.concatenate([blocks, np.repeat(ops, n, axis=0)]),
                                   np.concatenate([plus, np.tile(np.arange(n), n * n)]),
                                   np.concatenate([minus, np.full(n ** 3, -1)]), n)
            assert seen[0].shape == ref.shape and seen[0].tobytes() == ref.tobytes()
            assert got.tobytes() == _nullspace(ref, DEFAULT_THRESHOLD).tobytes()


class TestSpaces:
    def test_split_stack_round_trip(self, rng):
        vec = rng.normal(size=12) + 1j * rng.normal(size=12)
        xs = split_tuple(vec, 4, 3)
        assert len(xs) == 4 and all(x.shape == (3,) for x in xs)
        assert np.allclose(stack_tuple(xs), vec)

    def test_cocycle_space_satisfies_constraints(self):
        M = from_hadamard(fourier(4))
        C = cocycle_constraint_matrix(M)
        Z = cocycle_space(M)
        assert np.linalg.norm(C @ Z.vectors.T) < 1e-10
        assert Z.orthonormality_defect() < 1e-12

    def test_coboundaries_are_cocycles(self):
        M = from_hadamard(fourier(6))
        C = cocycle_constraint_matrix(M)
        B = coboundary_space(M)
        assert np.linalg.norm(C @ B.vectors.T) < 1e-10

    def test_coboundary_map_columns_span_b1(self, rng):
        M = from_hadamard(fourier(5))
        B = coboundary_space(M)
        cb = coboundary_map(M)
        for _ in range(5):
            v = rng.normal(size=M.d) + 1j * rng.normal(size=M.d)
            assert B.contains(cb @ v)

    def test_representatives_are_cocycles_orthogonal_to_coboundaries(self):
        M = from_hadamard(fourier(6))
        reps = h1_representatives(M)
        assert reps.dim == 4
        assert reps.orthonormality_defect() < 1e-12
        Z = cocycle_space(M)
        B = coboundary_space(M)
        for row in reps.vectors:
            assert Z.contains(row)
            assert np.linalg.norm(B.project(row)) < 1e-8

    def test_gaussian_subspace_is_zero(self, rng):
        reps = [
            from_permutation((2, 3, 1, 4)),
            from_hadamard(fourier(4)),
            from_hadamard(f4_phi(np.pi / 2)),
            two_block(TwoBlockSpec(random_projection(rng, 3, 1), random_projection(rng, 3, 2))),
        ]
        for M in reps:
            n, d = M.n, M.d
            rows = [stacked_constraint_matrix(M)]
            for a in range(n):
                for b in range(n):
                    op = M.blocks[a, b] - (np.eye(d) if a == b else 0.0)
                    for i in range(n):
                        block = np.zeros((d, n * d), dtype=complex)
                        block[:, i * d : (i + 1) * d] = op
                        rows.append(block)
            ref = len(_nullspace(np.vstack(rows), DEFAULT_THRESHOLD))
            assert gaussian_subspace(M).dim == ref == 0

    def test_orthonormality_defect_detects_bad_rows(self):
        bad = SubspaceBasis(np.array([[1.0, 0.0], [1.0, 0.0]]))
        assert bad.orthonormality_defect() > 0.9
        good = SubspaceBasis(np.eye(2))
        assert good.orthonormality_defect() == 0.0


class TestProjectionMeet:
    def test_commuting_diagonal_case(self):
        P = np.diag([1.0, 1.0, 0.0])
        Q = np.diag([0.0, 1.0, 1.0])
        assert np.allclose(projection_meet(P, Q), np.diag([0.0, 1.0, 0.0]), atol=1e-10)

    def test_engineered_shared_subspace(self, rng):
        d, k = 6, 2
        U = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
        shared = U[:, :k]
        Pp = shared @ shared.conj().T + U[:, k : k + 2] @ U[:, k : k + 2].conj().T
        Qp = shared @ shared.conj().T + U[:, k + 2 : k + 4] @ U[:, k + 2 : k + 4].conj().T
        meet = projection_meet(Pp, Qp)
        assert projection_rank(meet) == k
        assert np.allclose(meet @ shared, shared, atol=1e-8)

    def test_generic_position_has_trivial_meet(self, rng):
        P = random_projection(rng, 5, 2)
        Q = random_projection(rng, 5, 2)
        assert projection_rank(projection_meet(P, Q)) == 0

    def test_meet_is_projection(self, rng):
        P = random_projection(rng, 4, 3)
        Q = random_projection(rng, 4, 2)
        meet = projection_meet(P, Q)
        assert np.linalg.norm(meet @ meet - meet) < 1e-10
        assert np.linalg.norm(meet - meet.conj().T) < 1e-10

    def test_rejects_non_projections(self, rng):
        A = rng.normal(size=(3, 3))
        with pytest.raises(ValidationError):
            projection_meet(A, A)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValidationError):
            projection_meet(np.eye(2), np.eye(3))

    def test_two_block_h1_equals_complement_meet_rank(self, rng):
        # h1 of the two-block representation counts ker P intersect ker Q
        P = np.diag([1.0, 1.0, 0.0, 0.0])
        Q = np.diag([1.0, 0.0, 1.0, 0.0])
        spec = TwoBlockSpec(P, Q)
        meet = projection_meet(np.eye(4) - P, np.eye(4) - Q)
        assert projection_rank(meet) == 1
        assert h1_dim(two_block(spec)) == 1
        for _ in range(3):
            Pr = random_projection(rng, 4, int(rng.integers(1, 4)))
            Qr = random_projection(rng, 4, int(rng.integers(1, 4)))
            rank = projection_rank(projection_meet(np.eye(4) - Pr, np.eye(4) - Qr))
            assert h1_dim(two_block(TwoBlockSpec(Pr, Qr))) == rank


def low_rank(rng, m, N, rank, scale):
    A = rng.normal(size=(m, rank)) + 1j * rng.normal(size=(m, rank))
    B = rng.normal(size=(rank, N)) + 1j * rng.normal(size=(rank, N))
    return scale * (A @ B) / math.sqrt(m * N)


class TestSvdHelper:
    THRESHOLD = 1e-8

    def oracle_rank(self, C):
        # independent of the helper: numpy's rank at the same scaled tolerance
        top = float(np.linalg.norm(C, 2)) if C.size else 0.0
        return int(np.linalg.matrix_rank(C, tol=self.THRESHOLD * max(1.0, top))) if C.size else 0

    @pytest.mark.parametrize(
        "m,N,rank",
        [(40, 7, 4), (300, 12, 9), (7, 40, 5), (3, 9, 3), (10, 10, 6), (12, 12, 12), (6, 6, 0)],
    )
    @pytest.mark.parametrize("scale", [0.3, 5.0])
    def test_kernel_against_full_svd(self, rng, m, N, rank, scale):
        C = low_rank(rng, m, N, rank, scale)
        r, vh = _svd(C, self.THRESHOLD)
        assert r == self.oracle_rank(C) == rank
        K = vh[r:].conj()
        assert K.shape == (N - rank, N)
        assert np.max(np.abs(K @ K.conj().T - np.eye(N - rank)), initial=0.0) < 1e-10
        assert np.max(np.abs(C @ K.T), initial=0.0) < 1e-10
        _, _, full_vh = np.linalg.svd(C, full_matrices=True)
        ref = full_vh[rank:].conj().T @ full_vh[rank:]
        assert np.max(np.abs(K.T @ K.conj() - ref)) < 1e-10

    @pytest.mark.parametrize("m,N,rank", [(40, 7, 4), (7, 40, 5), (10, 10, 6)])
    def test_left_factor_spans_range(self, rng, m, N, rank):
        C = low_rank(rng, m, N, rank, 2.0)
        r, u = _svd(C, self.THRESHOLD, left=True)
        assert r == rank
        assert u.shape == (m, min(m, N))
        full_u = np.linalg.svd(C, full_matrices=True)[0][:, :rank]
        ref = full_u @ full_u.conj().T
        assert np.max(np.abs(u[:, :r] @ u[:, :r].conj().T - ref)) < 1e-10

    @pytest.mark.parametrize("m,N", [(0, 5), (5, 0), (0, 0)])
    def test_empty_matrices(self, m, N):
        C = np.zeros((m, N), dtype=complex)
        r, vh = _svd(C, self.THRESHOLD)
        assert r == 0
        assert np.array_equal(vh, np.eye(N))
        r, u = _svd(C, self.THRESHOLD, left=True)
        assert r == 0 and u.shape == (m, 0)

    def test_zero_matrix_has_rank_zero(self):
        r, vh = _svd(np.zeros((9, 4), dtype=complex), self.THRESHOLD)
        assert r == 0 and vh.shape == (4, 4)

    @pytest.mark.parametrize("bad", [0.0, -1e-8, float("nan"), float("inf")])
    def test_rejects_bad_threshold(self, bad):
        with pytest.raises(ValidationError):
            cocycle_space(from_hadamard(fourier(4)), bad)
        with pytest.raises(ValidationError):
            projection_rank(np.eye(2), bad)

    @pytest.mark.parametrize("big", [1.0, 2.0])
    def test_rejects_threshold_of_one_or_more(self, big):
        with pytest.raises(ValidationError):
            _svd(np.eye(3, dtype=complex), big)
        with pytest.raises(ValidationError):
            h1_dim(from_hadamard(fourier(6)), big)
        with pytest.raises(ValidationError):
            RunConfig(rank_threshold=big)

    def test_gaussian_subspace_memory(self):
        # the stacked constraints are 4608 x 64; a full SVD's U alone is 340 MB
        M = from_hadamard(fourier(8))
        tracemalloc.start()
        try:
            dim = gaussian_subspace(M).dim
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dim == 0
        assert peak < 64 * 2 ** 20
