"""Cocycles, coboundaries and first cohomology of a magic-unitary representation.

A cocycle for the representation rho with blocks P_ij is determined by the
diagonal values xi_i = eta(p_ii), subject to

    P_ii xi_i = 0          and          P_ij xi_i = P_ij xi_j   (i != j).

Coboundaries are the tuples ((P_ii - I) v)_i.  All spaces live in the
stacked nd-dimensional space with xi_i occupying slots (i-1)d .. id-1;
dimensions are decided by singular values relative to the largest one.

The constraints are never stacked as n^2 full-width d-row blocks.  Two
matrices with the same Gram matrix C^H C have the same singular values and
right singular vectors, so each block is replaced by the rows diag(s) V^H
of its SVD that have s > d eps max(1, s_max).  A magic unitary then gives
nd rows instead of n^2 d (256 x 256 at Fourier n = 16, not 4096 x 256);
the dropped rows move singular values by at most sqrt(2 r) d eps
max(1, s_max) for r of them (see `cocycle_constraint_matrix`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import perms
from .config import DEFAULT_CONFIG
from .errors import ValidationError
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


def _compressed_rows(blocks: np.ndarray, plus: np.ndarray, minus: np.ndarray, n: int) -> np.ndarray:
    """Rows whose Gram matrix is that of the stacked d-row constraints R_k.

    R_k = blocks[k] (E_plus[k] - E_minus[k]), where E_i is the d x nd
    selector of slot i and minus[k] < 0 drops the second term.  One
    batched SVD blocks[k] = U_k diag(s_k) V_k^H gives W_k = diag(s_k) V_k^H
    (E_plus[k] - E_minus[k]) with W_k^H W_k = R_k^H R_k for any block, since
    U_k is unitary.  Rows of W_k with s <= d eps max(1, s_max), s_max over
    the whole stack, are dropped; each has norm at most sqrt(2) times that.
    """
    d = blocks.shape[1]
    if blocks.size == 0:
        return np.zeros((0, n * d), dtype=complex)
    _, s, vh = np.linalg.svd(blocks)
    k, r = np.nonzero(s > d * np.finfo(float).eps * max(1.0, float(s.max())))
    rows = s[k, r, None] * vh[k, r]
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


def cocycle_constraint_matrix(M: MagicUnitary) -> np.ndarray:
    """The conditions P_ii xi_i = 0 and P_ij (xi_i - xi_j) = 0, one row per range direction.

    Each d-row block (P_ij at block column i and -P_ij at block column j,
    or P_ii alone) is replaced by the nonzero rows of diag(s) V^H from its
    SVD P_ij = U diag(s) V^H.  The result C has the same Gram matrix C^H C
    as the n^2 d x nd stack of the blocks themselves, so the same singular
    values, right singular vectors and null space.  Rows with
    s <= d eps max(1, s_max), s_max the largest singular value of any
    block, are dropped; each has norm at most sqrt(2) d eps max(1, s_max),
    so by Weyl's inequality the singular values move by at most
    sqrt(2 r) d eps max(1, s_max) for r dropped rows: about 9e-13 at
    Fourier n = 24 (r = 13,248), four decades under the 1e-8 rank
    threshold.  For a magic unitary sum_j rank P_ij = d for every i, so C
    is nd x nd; other blocks give at most n^2 d rows.
    """
    return _compressed_rows(*_cocycle_blocks(M), M.n)


def cocycle_space(
    M: MagicUnitary, rank_threshold: float = DEFAULT_CONFIG.rank_threshold
) -> SubspaceBasis:
    """Orthonormal basis of all stacked cocycle tuples (xi_1, ..., xi_n)."""
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
    # every op_ab = P_ab - delta_ab I acts on every slot i, one row block each
    C = _compressed_rows(
        np.concatenate([blocks, np.repeat(ops, n, axis=0)]),
        np.concatenate([plus, np.tile(np.arange(n), n * n)]),
        np.concatenate([minus, np.full(n ** 3, -1)]),
        n,
    )
    return SubspaceBasis(_nullspace(C, rank_threshold))


# --- closed-form oracles ------------------------------------------------------


def perm_h1_formula(sigma) -> int:
    """cyc(sigma) - fix(sigma) - 1 for sigma != id, 0 for the identity.

    cyc counts fixed points as 1-cycles, so cyc - fix is the number of
    cycles of length >= 2.
    """
    sigma = perms.check_perm(sigma)
    if sigma == perms.identity(len(sigma)):
        return 0
    return perms.cycle_count(sigma) - perms.fixed_point_count(sigma) - 1


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
