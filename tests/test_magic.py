"""Magic unitaries: validation, constructions, evaluation, wire formats."""

import numpy as np
import pytest

from qperm.cohomology import projection_meet
from qperm.errors import ValidationError
from qperm.magic import (
    HadamardMatrix,
    MagicUnitary,
    TwoBlockSpec,
    apply,
    dephase,
    f4_phi,
    fourier,
    from_hadamard,
    from_permutation,
    require_hadamard,
    require_valid,
    two_block,
    validate,
)
from qperm.words import LinComb, parse_word, unit_word


def random_projection(rng, d, rank):
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q = np.linalg.qr(A)[0][:, :rank]
    return q @ q.conj().T


class TestValidate:
    def test_permutation_pattern_passes(self):
        rep = validate(from_permutation((2, 3, 1)))
        assert rep.ok
        assert rep.max_violation <= 1e-14

    def test_half_identity_block_fails(self):
        blocks = from_permutation((1, 2), d=2).blocks.copy()
        blocks[0, 0] = 0.5 * np.eye(2)
        rep = validate(MagicUnitary(blocks))
        assert not rep.ok
        assert rep.projection > 0.1
        with pytest.raises(ValidationError):
            require_valid(MagicUnitary(blocks))

    def test_report_tracks_each_relation(self):
        blocks = from_permutation((2, 1)).blocks.copy()
        blocks[0, 0] = blocks[0, 1]  # duplicate a block inside one row
        rep = validate(MagicUnitary(blocks))
        assert rep.orthogonality > 0.5
        assert rep.row_sums > 0.5


class TestConstructions:
    def test_from_permutation_blocks(self):
        M = from_permutation((2, 3, 1), d=2)
        assert (M.n, M.d) == (3, 2)
        assert np.allclose(M.block(1, 2), np.eye(2))
        assert np.allclose(M.block(1, 1), 0)

    @pytest.mark.parametrize("d", [0, -1])
    def test_from_permutation_rejects_multiplicity_below_one(self, d):
        with pytest.raises(ValidationError, match="multiplicity"):
            from_permutation((2, 1), d)

    def test_fourier_is_hadamard(self):
        for n in range(1, 8):
            require_hadamard(fourier(n))

    def test_f4_at_zero_matches_fourier(self):
        assert np.allclose(f4_phi(0.0).H, fourier(4).H, atol=1e-12)

    def test_f4_rows(self):
        phi = 0.7
        z = 1j * np.exp(1j * phi)
        H = f4_phi(phi).H
        assert np.allclose(H[0], 1.0)
        assert np.allclose(H[1], [1, z, -1, -z])
        assert np.allclose(H[2], [1, -1, 1, -1])
        assert np.allclose(H[3], [1, -z, -1, z])
        require_hadamard(f4_phi(phi))

    def test_f4_phi_range(self):
        for phi in (-0.1, np.pi, 4.0):
            with pytest.raises(ValidationError):
                f4_phi(phi)

    def test_require_hadamard_rejects_non_unimodular(self):
        with pytest.raises(ValidationError):
            require_hadamard(HadamardMatrix(np.eye(3, dtype=complex)))

    def test_from_hadamard_is_magic(self):
        for n in (2, 3, 4, 5):
            require_valid(from_hadamard(fourier(n)))

    def test_from_hadamard_blocks_are_rank_one(self):
        M = from_hadamard(fourier(4))
        for i in range(1, 5):
            for j in range(1, 5):
                assert np.linalg.matrix_rank(M.block(i, j), tol=1e-10) == 1

    def test_fourier_blocks_are_circulant(self):
        # P_jk depends only on (j - k + 1) mod n
        n = 5
        M = from_hadamard(fourier(n))
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                m = (j - k) % n + 1
                assert np.allclose(M.block(j, k), M.block(m, 1), atol=1e-12)

    def test_fourier_block_matrix_tensor_form(self):
        # sum_r S_r (x) P_{r+1} with S_r the circulant shift patterns
        n = 4
        M = from_hadamard(fourier(n))
        big = np.vstack(
            [np.hstack([M.block(j, k) for k in range(1, n + 1)]) for j in range(1, n + 1)]
        )
        acc = np.zeros_like(big)
        for r in range(n):
            S = np.zeros((n, n))
            for j in range(n):
                S[j, (j - r) % n] = 1.0
            acc += np.kron(S, M.block(r + 1, 1))
        assert np.allclose(big, acc, atol=1e-12)

    def test_two_block_layout(self, rng):
        P = random_projection(rng, 3, 1)
        Q = random_projection(rng, 3, 2)
        M = two_block(TwoBlockSpec(P, Q))
        assert (M.n, M.d) == (4, 3)
        require_valid(M)
        assert np.allclose(M.block(1, 1), P)
        assert np.allclose(M.block(1, 2), np.eye(3) - P)
        assert np.allclose(M.block(3, 3), Q)
        assert np.allclose(M.block(1, 3), 0)

    def test_two_block_rejects_non_projections(self, rng):
        A = rng.normal(size=(3, 3))
        with pytest.raises(ValidationError):
            two_block(TwoBlockSpec(A, A))


class TestFiniteEntries:
    """NaN and infinite entries are rejected where the object is built."""

    BAD = [float("nan"), float("inf"), float("-inf"), complex(0.0, float("nan"))]

    @pytest.mark.parametrize("bad", BAD)
    def test_magic_unitary_rejects_non_finite_block(self, bad):
        blocks = from_permutation((2, 1), d=2).blocks.copy()
        blocks[0, 1, 1, 0] = bad
        with pytest.raises(ValidationError, match="finite"):
            MagicUnitary(blocks)

    @pytest.mark.parametrize("bad", BAD)
    def test_hadamard_matrix_rejects_non_finite_entry(self, bad):
        H = fourier(3).H.copy()
        H[2, 1] = bad
        with pytest.raises(ValidationError, match="finite"):
            HadamardMatrix(H)

    @pytest.mark.parametrize("bad", BAD)
    def test_two_block_spec_rejects_non_finite_entry(self, bad):
        # numpy's SVD used to fail on it in `deviation` with LinAlgError
        P = np.diag([1.0, 0.0, 1.0]).astype(complex)
        P[1, 1] = bad
        with pytest.raises(ValidationError, match="finite"):
            TwoBlockSpec(P, np.eye(3))


class TestDephase:
    def test_first_row_and_column_are_ones(self, rng):
        Hm = f4_phi(1.3)
        # scramble by random unimodular diagonals first
        d1 = np.exp(2j * np.pi * rng.random(4))
        d2 = np.exp(2j * np.pi * rng.random(4))
        scrambled = HadamardMatrix(d1[:, None] * Hm.H * d2[None, :])
        out, e1, e2 = dephase(scrambled)
        assert np.allclose(out.H[0], 1.0, atol=1e-12)
        assert np.allclose(out.H[:, 0], 1.0, atol=1e-12)
        assert np.allclose(np.diag(e1) @ scrambled.H @ np.diag(e2), out.H, atol=1e-12)

    def test_projections_invariant_under_dephasing(self, rng):
        # the block construction only sees row ratios, which dephasing rescales
        Hm = fourier(4)
        d1 = np.exp(2j * np.pi * rng.random(4))
        d2 = np.exp(2j * np.pi * rng.random(4))
        scrambled = HadamardMatrix(d1[:, None] * Hm.H * d2[None, :])
        out, _, _ = dephase(scrambled)
        A = from_hadamard(scrambled)
        B = from_hadamard(out)
        assert np.allclose(A.blocks, B.blocks, atol=1e-10)


class TestApply:
    def test_unit_maps_to_identity(self):
        M = from_hadamard(fourier(3))
        assert np.allclose(apply(M, unit_word(3)), np.eye(3))

    def test_generator_maps_to_block(self):
        M = from_hadamard(fourier(3))
        assert np.allclose(apply(M, parse_word("p(2,3)", 3)), M.block(2, 3))

    def test_homomorphism_property(self, rng):
        M = from_hadamard(fourier(4))
        for _ in range(20):
            a = tuple(
                (int(rng.integers(1, 5)), int(rng.integers(1, 5))) for _ in range(2)
            )
            b = tuple(
                (int(rng.integers(1, 5)), int(rng.integers(1, 5))) for _ in range(2)
            )
            from qperm.words import Word

            wa, wb = Word(a, 4), Word(b, 4)
            assert np.allclose(apply(M, wa * wb), apply(M, wa) @ apply(M, wb), atol=1e-12)

    def test_linear_extension(self):
        M = from_permutation((2, 1, 3))
        x = 2.0 * LinComb.from_word(parse_word("p(1,2)", 3)) + 1j * LinComb.unit(3)
        assert np.allclose(apply(M, x), 2.0 * M.block(1, 2) + 1j * np.eye(1))

    def test_size_mismatch_rejected(self):
        M = from_permutation((2, 1))
        with pytest.raises(ValidationError):
            apply(M, parse_word("p(1,2)", 3))


class TestWireFormats:
    def test_magic_unitary_round_trip(self):
        M = from_hadamard(f4_phi(0.9))
        N = MagicUnitary.from_json(M.to_json())
        assert np.allclose(M.blocks, N.blocks)

    def test_magic_unitary_header_check(self):
        blob = from_permutation((2, 1)).to_json()
        blob["n"] = 3
        with pytest.raises(ValidationError):
            MagicUnitary.from_json(blob)

    def test_hadamard_round_trip(self):
        Hm = f4_phi(2.2)
        back = HadamardMatrix.from_json(Hm.to_json())
        assert np.allclose(Hm.H, back.H)

    @pytest.mark.parametrize("entries, message", [
        ([[[1, 0]], [[1, 0], [0, 0]]], "rectangular arrays of numbers"),
        ([[["1", "x"]]], "rectangular arrays of numbers"),
        ({"re": 1}, "rectangular arrays of numbers"),
        ([[[1, 0], [1, 0]], [[1, 0], [float("nan"), 0]]], "finite numbers"),
        ([[[1, 0], [1, float("inf")]], [[1, 0], [-1, 0]]], "finite numbers"),
    ])
    def test_malformed_entries_are_validation_errors(self, entries, message):
        with pytest.raises(ValidationError, match=message):
            HadamardMatrix.from_json({"H": entries})


def reference_projection_deviation(P, Q):
    """The four separate norms `TwoBlockSpec.deviation` and `projection_meet` took before."""
    return max(
        float(np.linalg.norm(P @ P - P, 2)),
        float(np.linalg.norm(P - P.conj().T, 2)),
        float(np.linalg.norm(Q @ Q - Q, 2)),
        float(np.linalg.norm(Q - Q.conj().T, 2)),
    )


def near_projection(rng, d, scale):
    """A random projection plus a complex perturbation of size about `scale`."""
    noise = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return random_projection(rng, d, int(rng.integers(0, d + 1))) + scale * noise


class TestSharedProjectionCheck:
    def test_pairs_match_reference_norms(self, rng):
        failed = 0
        for _ in range(500):
            d = int(rng.integers(1, 7))
            P = near_projection(rng, d, 10.0 ** rng.uniform(-16, -1))
            Q = near_projection(rng, d, 10.0 ** rng.uniform(-16, -1))
            want = reference_projection_deviation(P, Q)
            assert TwoBlockSpec(P, Q).deviation() == want
            try:
                projection_meet(P, Q)
            except ValidationError as exc:
                assert str(exc) == f"inputs are not projections: max deviation {want:.3e}"
                failed += 1
            else:
                assert want <= 1e-9
        assert 0 < failed < 500

    def test_validate_matches_per_block_norms(self, rng):
        for _ in range(50):
            n, d = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            blocks = np.array([[near_projection(rng, d, 10.0 ** rng.uniform(-16, -1))
                                for _ in range(n)] for _ in range(n)])
            want = max(reference_projection_deviation(b, b) for b in blocks.reshape(-1, d, d))
            assert validate(MagicUnitary(blocks)).projection == want
