"""Cocycles, coboundaries and first cohomology of a magic-unitary representation.

A cocycle for the representation rho with blocks P_ij is determined by the
diagonal values xi_i = eta(p_ii), subject to

    P_ii xi_i = 0          and          P_ij xi_i = P_ij xi_j   (i != j).

Coboundaries are the tuples ((P_ii - I) v)_i.  All spaces live in the
stacked nd-dimensional space with xi_i occupying slots (i-1)d .. id-1;
dimensions are decided by singular values relative to the largest one.

The constraints are never stacked as n^2 full-width d-row blocks.  Two
matrices with the same Gram matrix C^H C have the same singular values and
right singular vectors, so a shorter C with the stack's Gram matrix
decides every rank.  In row i of a magic unitary the projections P_ij
have orthogonal ranges and sum to I, so the d-row constraints of that row
can be summed: C is the nd x nd matrix with sum_j P_ij on its diagonal
blocks and -P_ij off them, a reshape of the blocks (see
`cocycle_constraint_matrix`).  Blocks that miss these row relations by
more than `DEFAULT_CONFIG.tol` are compressed instead, each by its own SVD
(see `_compressed_rows`).

`cocycle_space` charges its constraint matrix and its two SVD factors to
the term budget in complex entries before it builds any of them, so a
representation too large to factor raises BudgetError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import perms
from .config import DEFAULT_CONFIG
from .errors import ValidationError, _charge
from .magic import MagicUnitary, _projection_deviation


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal rows spanning a subspace of the stacked space."""

    vectors: np.ndarray  # shape (dim, total)

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=complex)
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    @property
    def total(self) -> int:
        return self.vectors.shape[1]

    def orthonormality_defect(self) -> float:
        if self.dim == 0:
            return 0.0
        g = self.vectors @ self.vectors.conj().T
        return float(np.max(np.abs(g - np.eye(self.dim))))

    def project(self, vec: np.ndarray) -> np.ndarray:
        """Orthogonal projection of a stacked vector onto the subspace."""
        if self.dim == 0:
            return np.zeros_like(np.asarray(vec, dtype=complex))
        co = self.vectors.conj() @ vec
        return self.vectors.T @ co

    def contains(self, vec: np.ndarray, tol: float = 1e-8) -> bool:
        vec = np.asarray(vec, dtype=complex)
        scale = float(np.linalg.norm(vec))
        if scale == 0.0:
            return True
        return float(np.linalg.norm(vec - self.project(vec))) <= tol * scale


def split_tuple(vec: np.ndarray, n: int, d: int) -> list[np.ndarray]:
    """Slice a stacked vector into the n blocks xi_1 .. xi_n."""
    vec = np.asarray(vec, dtype=complex)
    if vec.shape != (n * d,):
        raise ValidationError(f"expected stacked shape ({n * d},), got {vec.shape}")
    return [vec[(i - 1) * d : i * d] for i in range(1, n + 1)]


def stack_tuple(xs) -> np.ndarray:
    return np.concatenate([np.asarray(x, dtype=complex).ravel() for x in xs])


def _svd(C: np.ndarray, rank_threshold: float, left: bool = False) -> tuple[int, np.ndarray]:
    """Numerical rank of C and one SVD factor, with no m x m factor for a tall C.

    With left=False the factor is the full N x N right factor vh, so that
    vh[rank:] spans ker C also for a wide C.  A tall C is first reduced to
    its N x N triangular factor R of C = QR, which has the singular values
    and the right factor of C (Chan, ACM TOMS 8, 1982); memory stays
    O(m N).  With left=True the factor is the thin m x min(m, N) left
    factor u, whose first rank columns span the range of C.
    """
    # a threshold of 1 or more would make every rank 0; nan fails both tests
    if not 0 < rank_threshold < 1:
        raise ValidationError(f"rank threshold must lie in (0, 1), got {rank_threshold!r}")
    m, N = C.shape
    if min(m, N) == 0:
        return 0, np.zeros((m, 0), dtype=complex) if left else np.eye(N, dtype=complex)
    if left:
        factor, s, _ = np.linalg.svd(C, full_matrices=False)
    else:
        if m > N:
            C = np.linalg.qr(C, mode="r")
        _, s, factor = np.linalg.svd(C)
    # matrices here are built from projection blocks, so their natural scale
    # is O(1); the max(1, s[0]) floor keeps a numerically-zero matrix at rank 0
    return int(np.sum(s > rank_threshold * max(1.0, float(s[0])))), factor


def _nullspace(C: np.ndarray, rank_threshold: float) -> np.ndarray:
    """Orthonormal rows spanning ker C."""
    rank, vh = _svd(C, rank_threshold)
    return vh[rank:].conj()


def _compressed_rows(blocks: np.ndarray, plus: np.ndarray, minus: np.ndarray, n: int,
                     take: np.ndarray | None = None) -> np.ndarray:
    """Rows whose Gram matrix is that of the stacked d-row constraints R_k.

    R_k = blocks[take[k]] (E_plus[k] - E_minus[k]), where E_i is the d x nd
    selector of slot i, minus[k] < 0 drops the second term and take, by
    default the identity, lets one block serve many constraints.  One
    batched SVD of the distinct blocks, blocks[a] = U_a diag(s_a) V_a^H,
    gives W_k = diag(s) V^H (E_plus[k] - E_minus[k]) with W_k^H W_k =
    R_k^H R_k for any block, since U_a is unitary.  Rows of W_k with
    s <= d eps max(1, s_max), s_max over the whole stack, are dropped; each
    has norm at most sqrt(2) times that, so by Weyl's inequality r dropped
    rows move the singular values by at most sqrt(2 r) d eps max(1, s_max).
    This is exact for any blocks, magic or not, and gives at most n^2 d
    rows for the n^2 cocycle blocks.
    """
    d = blocks.shape[1]
    if blocks.size == 0:
        return np.zeros((0, n * d), dtype=complex)
    _, s, vh = np.linalg.svd(blocks)
    keep = s > d * np.finfo(float).eps * max(1.0, float(s.max()))
    if take is None:
        take = np.arange(len(blocks))
    k, r = np.nonzero(keep[take])
    rows = s[take[k], r, None] * vh[take[k], r]
    out = np.zeros((len(rows), n, d), dtype=complex)
    idx = np.arange(len(rows))
    out[idx, plus[k]] = rows
    two = minus[k] >= 0
    out[idx[two], minus[k][two]] -= rows[two]
    return out.reshape(len(rows), n * d)


def _cocycle_blocks(M: MagicUnitary) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The n^2 blocks P_ij with their slots: P_ii at i alone, P_ij at i and -P_ij at j."""
    n, d = M.n, M.d
    i, j = np.divmod(np.arange(n * n), n)
    return M.blocks.reshape(n * n, d, d), i, np.where(i == j, -1, j)


def _max_fro(stack: np.ndarray) -> float:
    """Largest Frobenius norm over a stack of matrices, shape (..., d, d), with no temporary stack."""
    sq = np.einsum("...ij,...ij->...", stack.real, stack.real)
    sq += np.einsum("...ij,...ij->...", stack.imag, stack.imag)
    return math.sqrt(sq.max(initial=0.0))


def _row_magic_residual(P: np.ndarray, row_sums: np.ndarray) -> float:
    """The largest Frobenius norm of P^2 - P, P - P^H and the row sums minus I, over all blocks."""
    R = P @ P
    R -= P
    proj = _max_fro(R)
    np.subtract(P, P.conj().swapaxes(-1, -2), out=R)  # one stack-sized temporary for both
    return max(proj, _max_fro(R), _max_fro(row_sums - np.eye(P.shape[-1])))


def cocycle_constraint_matrix(M: MagicUnitary) -> np.ndarray:
    """The conditions P_ii xi_i = 0 and P_ij (xi_i - xi_j) = 0 as rows with the stack's Gram matrix.

    The stack has the d-row blocks R_ij = P_ij (E_i - E_j) for i != j and
    R_ii = P_ii E_i, E_i the d x nd selector of slot i.  If in row i the
    P_ij are orthogonal projections with sum_j P_ij = I, their ranges are
    mutually orthogonal, so T_i = sum_j R_ij = (sum_j P_ij) E_i -
    sum_{j != i} P_ij E_j has T_i^H T_i = sum_j R_ij^H R_ij.  Then C is the
    nd x nd matrix with block (i, i) = sum_j P_ij and block (i, j) = -P_ij,
    a reshape of the blocks with the stack's Gram matrix, singular values
    and null space, and no SVD is taken to build it.

    C is built this way when P^2 - P, P - P^H and every row sum minus I
    have Frobenius norm at most `DEFAULT_CONFIG.tol`, one pass over the
    blocks; Frobenius norms bound the operator norms `magic.validate` uses.
    C is linear in the blocks and is the stack's Gram factor at blocks P*
    whose rows are exact, so if every block is within delta of P* (operator
    norm), Weyl's inequality gives |s_k(C) - s_k(stack)| <= (2 + sqrt(2)) n
    delta: C moves by at most (2n - 1) delta and the stack by sqrt(2) n
    delta.  Blocks that fail the test, which only unvalidated input gives,
    are compressed by `_compressed_rows` instead, which is exact for any
    blocks and gives at most n^2 d rows; its rows are charged to the term
    budget before they are built.
    """
    n, d = M.n, M.d
    P = M.blocks
    row_sums = P.sum(axis=1)
    if not _row_magic_residual(P, row_sums) <= DEFAULT_CONFIG.tol:
        # n^2 d rows of width nd at most, after the 2 n^2 d^2 entries of the block SVD
        _charge(n ** 3 * d * d + 2 * n * n * d * d, "the compressed cocycle constraints",
                "complex entries")
        return _compressed_rows(*_cocycle_blocks(M), n)
    C = np.negative(P.transpose(0, 2, 1, 3), order="C")  # C[i, :, j, :] = -P_ij
    i = np.arange(n)
    C[i, :, i, :] = row_sums
    return C.reshape(n * d, n * d)


def cocycle_space(
    M: MagicUnitary, rank_threshold: float = DEFAULT_CONFIG.rank_threshold
) -> SubspaceBasis:
    """Orthonormal basis of all stacked cocycle tuples (xi_1, ..., xi_n).

    The nd x nd constraint matrix and the two nd x nd factors of its SVD are
    charged to the term budget in complex entries first.
    """
    nd = M.n * M.d
    _charge(3 * nd * nd, "the cocycle space", "complex entries")
    return SubspaceBasis(_nullspace(cocycle_constraint_matrix(M), rank_threshold))


def coboundary_map(M: MagicUnitary) -> np.ndarray:
    """The (nd, d) matrix sending v to the stacked tuple ((P_ii - I) v)_i."""
    n, d = M.n, M.d
    B = np.zeros((n * d, d), dtype=complex)
    eye = np.eye(d)
    for i in range(n):
        B[i * d : (i + 1) * d] = M.blocks[i, i] - eye
    return B


def coboundary_space(
    M: MagicUnitary, rank_threshold: float = DEFAULT_CONFIG.rank_threshold
) -> SubspaceBasis:
    """Orthonormal basis of the coboundary tuples ((P_ii - I) v)_i."""
    rank, u = _svd(coboundary_map(M), rank_threshold, left=True)
    return SubspaceBasis(u[:, :rank].T)


def h1_dim(M: MagicUnitary, rank_threshold: float = DEFAULT_CONFIG.rank_threshold) -> int:
    """dim H_1(rho) = dim Z_1 - dim B_1."""
    z = cocycle_space(M, rank_threshold)
    b = coboundary_space(M, rank_threshold)
    return z.dim - b.dim


def h1_representatives(
    M: MagicUnitary, rank_threshold: float = DEFAULT_CONFIG.rank_threshold
) -> SubspaceBasis:
    """Orthonormal basis of the orthogonal complement of B_1 inside Z_1."""
    z = cocycle_space(M, rank_threshold)
    b = coboundary_space(M, rank_threshold)
    return _h1_complement(z, b, rank_threshold)


def _h1_complement(z: SubspaceBasis, b: SubspaceBasis, rank_threshold: float) -> SubspaceBasis:
    """Orthogonal complement of the coboundaries b inside the cocycles z."""
    if z.dim == 0:
        return z
    # express B_1 in Z_1 coordinates and take the kernel of the coefficient map
    coeff = b.vectors.conj() @ z.vectors.T if b.dim else np.zeros((0, z.dim))
    null = _nullspace(coeff, rank_threshold)
    return SubspaceBasis(null @ z.vectors)


def gaussian_subspace(
    M: MagicUnitary, rank_threshold: float = DEFAULT_CONFIG.rank_threshold
) -> SubspaceBasis:
    """Cocycle tuples that would generate a Gaussian functional.

    On top of the cocycle conditions, a Gaussian cocycle needs every
    generator to act trivially on the values: (P_ab - delta_ab I) xi_i = 0.
    Combined with P_ii xi_i = 0 this forces xi = 0 (no Gaussian processes);
    the function exists to verify that numerically.
    """
    n, d = M.n, M.d
    blocks, plus, minus = _cocycle_blocks(M)
    ops = (M.blocks - np.eye(n)[:, :, None, None] * np.eye(d)).reshape(n * n, d, d)
    # every op_ab = P_ab - delta_ab I acts on every slot i, one row block each;
    # each op is factored once and its rows placed at all n slots
    nn = n * n
    C = _compressed_rows(
        np.concatenate([blocks, ops]),
        np.concatenate([plus, np.tile(np.arange(n), nn)]),
        np.concatenate([minus, np.full(n ** 3, -1)]),
        n,
        take=np.concatenate([np.arange(nn), nn + np.repeat(np.arange(nn), n)]),
    )
    return SubspaceBasis(_nullspace(C, rank_threshold))


# --- closed-form oracles ------------------------------------------------------


def perm_h1_formula(sigma) -> int:
    """cyc(sigma) - fix(sigma) - 1 for sigma != id, 0 for the identity.

    cyc counts fixed points as 1-cycles, so cyc - fix is the number of
    cycles of length >= 2.
    """
    return max(len(perms.nontrivial_cycles(sigma)) - 1, 0)


def fourier_h1_formula(n: int) -> int:
    """sum_{k=1}^{n-1} (gcd(n, k) - 1); zero exactly when n is prime."""
    if n < 2:
        raise ValidationError("Fourier formula needs n >= 2")
    return sum(math.gcd(n, k) - 1 for k in range(1, n))


def projection_meet(
    P: np.ndarray,
    Q: np.ndarray,
    tol: float = DEFAULT_CONFIG.tol,
    rank_threshold: float = DEFAULT_CONFIG.rank_threshold,
) -> np.ndarray:
    """Orthogonal projection onto range(P) intersect range(Q).

    Computed as the projection onto the null space of (I-P) + (I-Q), which
    is positive semidefinite with kernel exactly the intersection.
    """
    P = np.asarray(P, dtype=complex)
    Q = np.asarray(Q, dtype=complex)
    if P.shape != Q.shape or P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValidationError("projections must be square and equally sized")
    d = P.shape[0]
    dev = _projection_deviation(np.stack([P, Q]))
    if dev > tol:
        raise ValidationError(f"inputs are not projections: max deviation {dev:.3e}")
    gap = (np.eye(d) - P) + (np.eye(d) - Q)
    basis = _nullspace(gap, rank_threshold)  # rows orthonormal
    return basis.T @ basis.conj()


def projection_rank(P: np.ndarray, rank_threshold: float = DEFAULT_CONFIG.rank_threshold) -> int:
    return _svd(np.asarray(P, dtype=complex), rank_threshold)[0]
