"""Finite-dimensional representations of Pol(S_n+) as magic unitaries.

A magic unitary is an n x n array of d x d orthogonal projections whose
rows and columns each sum to the identity.  Constructions: permutation
representations (with multiplicity), complex Hadamard matrices (Fourier
and the parametric F_4(phi) family), and the two-block representation
built from a pair of projections.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import perms
from .config import DEFAULT_CONFIG
from .errors import ValidationError, _charge, _require_finite
from .words import LinComb, Word


class MagicUnitary:
    """n x n array of d x d complex projections; blocks has shape (n, n, d, d)."""

    __slots__ = ("n", "d", "blocks")

    def __init__(self, blocks):
        blocks = np.asarray(blocks, dtype=complex)
        if blocks.ndim != 4 or blocks.shape[0] != blocks.shape[1] or blocks.shape[2] != blocks.shape[3]:
            raise ValidationError(f"expected shape (n, n, d, d), got {blocks.shape}")
        _require_finite(blocks, "magic unitary blocks")
        object.__setattr__(self, "n", int(blocks.shape[0]))
        object.__setattr__(self, "d", int(blocks.shape[2]))
        blocks.setflags(write=False)
        object.__setattr__(self, "blocks", blocks)

    def __setattr__(self, name, value):
        raise AttributeError("MagicUnitary is immutable")

    def block(self, i: int, j: int) -> np.ndarray:
        """The projection P_ij, 1-based indices."""
        return self.blocks[i - 1, j - 1]

    def __repr__(self):
        return f"MagicUnitary(n={self.n}, d={self.d})"

    def to_json(self) -> dict:
        return {"n": self.n, "d": self.d, "entries": _complex_to_json(self.blocks)}

    @classmethod
    def from_json(cls, obj) -> "MagicUnitary":
        blocks = _complex_from_json(_json_field(obj, "entries"))
        M = cls(blocks)
        if M.n != obj.get("n", M.n) or M.d != obj.get("d", M.d):
            raise ValidationError("JSON header (n, d) does not match entries")
        return M


@dataclass(frozen=True)
class MagicReport:
    """Maximal violations of the magic-unitary relations, operator norm."""

    projection: float
    orthogonality: float
    row_sums: float
    col_sums: float
    tol: float

    @property
    def ok(self) -> bool:
        return self.max_violation <= self.tol

    @property
    def max_violation(self) -> float:
        return max(self.projection, self.orthogonality, self.row_sums, self.col_sums)


def _max_opnorm(stack: np.ndarray) -> float:
    """Largest operator norm over a stack of matrices, shape (..., d, d)."""
    return float(np.max(np.linalg.norm(stack, 2, axis=(-2, -1)))) if stack.size else 0.0


def _projection_deviation(stack: np.ndarray) -> float:
    """Largest violation of S^2 = S and S = S* over a stack of matrices, operator norm."""
    return max(_max_opnorm(stack @ stack - stack),
               _max_opnorm(stack - stack.conj().swapaxes(-1, -2)))


def validate(M: MagicUnitary, tol: float = DEFAULT_CONFIG.tol) -> MagicReport:
    """Check projection, orthogonality and row/column sum relations numerically.

    One stacked operator norm per relation family: P^2 = P, P = P*, products
    of distinct blocks in a shared row and in a shared column, row sums and
    column sums.
    """
    P = M.blocks
    eye = np.eye(M.d)
    j, k = np.triu_indices(M.n, 1)
    proj = _projection_deviation(P)
    orth = max(_max_opnorm(P[:, j] @ P[:, k]),  # shared row
               _max_opnorm(P[j] @ P[k]))  # shared column
    rows = _max_opnorm(P.sum(axis=1) - eye)
    cols = _max_opnorm(P.sum(axis=0) - eye)
    return MagicReport(proj, orth, rows, cols, tol)


def require_valid(M: MagicUnitary, tol: float = DEFAULT_CONFIG.tol) -> MagicUnitary:
    rep = validate(M, tol)
    if not rep.ok:
        raise ValidationError(f"not a magic unitary within tol={tol}: {rep}")
    return M


# --- constructions -----------------------------------------------------------


def from_permutation(sigma, d: int = 1) -> MagicUnitary:
    """P_ij = I_d if sigma(i) = j else 0 (the permutation representation with multiplicity d)."""
    if d < 1:
        raise ValidationError(f"multiplicity must be >= 1, got {d}")
    sigma = perms.check_perm(sigma)
    n = len(sigma)
    _charge(n * n * d * d, "the permutation representation", "complex entries")
    blocks = np.zeros((n, n, d, d), dtype=complex)
    for i in range(1, n + 1):
        blocks[i - 1, sigma[i - 1] - 1] = np.eye(d)
    return MagicUnitary(blocks)


@dataclass(frozen=True)
class HadamardMatrix:
    """A complex Hadamard matrix: unimodular entries with H H* = n I."""

    H: np.ndarray

    def __post_init__(self):
        H = np.asarray(self.H, dtype=complex)
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise ValidationError("Hadamard matrix must be square")
        _require_finite(H, "Hadamard matrix entries")
        H.setflags(write=False)
        object.__setattr__(self, "H", H)

    @property
    def n(self) -> int:
        return self.H.shape[0]

    def deviation(self) -> float:
        """Max deviation from unimodularity and from H H* = n I."""
        H = self.H
        uni = float(np.max(np.abs(np.abs(H) - 1.0))) if H.size else 0.0
        gram = _max_opnorm(H @ H.conj().T - self.n * np.eye(self.n))
        return max(uni, gram)

    def to_json(self) -> dict:
        return {"n": self.n, "H": _complex_to_json(self.H)}

    @classmethod
    def from_json(cls, obj) -> "HadamardMatrix":
        return cls(_complex_from_json(_json_field(obj, "H")))


def fourier(n: int) -> HadamardMatrix:
    """The Fourier matrix (F_n)_lm = exp(2 pi i (l-1)(m-1) / n)."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    _charge(n * n, "the Fourier matrix", "complex entries")
    idx = np.arange(n)
    H = np.exp(2j * np.pi * np.outer(idx, idx) / n)
    return HadamardMatrix(H)


def f4_phi(phi: float) -> HadamardMatrix:
    """The one-parameter family F_4(phi) of 4 x 4 complex Hadamard matrices."""
    if not 0 <= phi < np.pi:
        raise ValidationError("phi must lie in [0, pi)")
    z = 1j * np.exp(1j * phi)
    H = np.array(
        [
            [1, 1, 1, 1],
            [1, z, -1, -z],
            [1, -1, 1, -1],
            [1, -z, -1, z],
        ],
        dtype=complex,
    )
    return HadamardMatrix(H)


def from_hadamard(Hm: HadamardMatrix, tol: float = DEFAULT_CONFIG.tol) -> MagicUnitary:
    """P_jk = rank-one projection onto the entrywise ratio h_j / h_k of the rows.

    The n^4 block entries and the n^3 ratios are charged to the term budget
    in complex entries before anything is allocated.
    """
    n = Hm.n
    _charge(n ** 4 + n ** 3, "the Hadamard representation", "complex entries")
    dev = Hm.deviation()
    if dev > tol:
        raise ValidationError(f"not a complex Hadamard matrix: max deviation {dev:.3e}")
    H = Hm.H
    # v[j, k] = h_j / h_k, each ratio contiguous as np.vdot saw it: BLAS sums a
    # strided vector in another order
    v = np.divide(H[:, None, :], H[None, :, :], order="C")
    w = v.conj()
    # batched <v, v>: the same products and sums as np.vdot, bit for bit
    norms = (w[..., None, :] @ v[..., :, None])[..., 0, 0].real
    blocks = v[..., :, None] * w[..., None, :]
    blocks /= norms[..., None, None]
    return MagicUnitary(blocks)


@dataclass(frozen=True)
class TwoBlockSpec:
    """A pair of projections (P, Q) on the same d-dimensional space."""

    P: np.ndarray
    Q: np.ndarray

    def __post_init__(self):
        P = np.asarray(self.P, dtype=complex)
        Q = np.asarray(self.Q, dtype=complex)
        if P.shape != Q.shape or P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise ValidationError("P and Q must be square matrices of equal size")
        _require_finite(np.stack([P, Q]), "two-block projections")
        P.setflags(write=False)
        Q.setflags(write=False)
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "Q", Q)

    @property
    def d(self) -> int:
        return self.P.shape[0]

    def deviation(self) -> float:
        return _projection_deviation(np.stack([self.P, self.Q]))


def two_block(spec: TwoBlockSpec, tol: float = DEFAULT_CONFIG.tol) -> MagicUnitary:
    """The 4 x 4 two-block magic unitary [[P, P', 0, 0], [P', P, 0, 0], [0, 0, Q, Q'], [0, 0, Q', Q]]."""
    dev = spec.deviation()
    if dev > tol:
        raise ValidationError(f"P, Q are not projections: max deviation {dev:.3e}")
    d = spec.d
    eye = np.eye(d)
    Z = np.zeros((d, d))
    P, Q = spec.P, spec.Q
    rows = [
        [P, eye - P, Z, Z],
        [eye - P, P, Z, Z],
        [Z, Z, Q, eye - Q],
        [Z, Z, eye - Q, Q],
    ]
    return MagicUnitary(np.array(rows, dtype=complex))


# --- evaluation --------------------------------------------------------------


def _fold(mats: np.ndarray, x: LinComb | Word, take: int | slice) -> np.ndarray:
    """The sum of c mats(w)[:, take] over the terms c w of x, mats(w) the product of w's letters.

    mats has shape (n, n, s, s), one matrix per letter p_ij.  `take` indexes
    the columns of mats(w) to keep: -1 keeps the last one, mats(w) e_last of
    shape (s,), and slice(None) keeps them all, mats(w) itself.  Each word
    starts from those columns of its rightmost letter's matrix (of the
    identity for the unit word) and multiplies by the other letters from the
    right, v = mats[i-1, j-1] @ v; a Word is its own one term, coefficient 1.
    """
    if x.n != len(mats):
        raise ValidationError(f"ambient size mismatch: word n={x.n}, rep n={len(mats)}")
    terms = ((x, 1.0 + 0j),) if isinstance(x, Word) else x._terms.items()
    out = np.zeros(mats[0, 0, :, take].shape, dtype=complex)
    for w, c in terms:
        letters = w.letters
        if letters:
            i, j = letters[-1]
            v = mats[i - 1, j - 1, :, take]
            for i, j in reversed(letters[:-1]):
                v = mats[i - 1, j - 1] @ v
        else:
            v = np.eye(mats.shape[-1], dtype=complex)[:, take]
        out += c * v
    return out


def apply(M: MagicUnitary, x: LinComb | Word) -> np.ndarray:
    """Evaluate the representation: words map to ordered block products."""
    return _fold(M.blocks, x, slice(None))


def _complex_to_json(a: np.ndarray) -> list:
    """Nested lists with complex scalars as [re, im]."""
    if a.ndim == 0:
        z = complex(a)
        return [z.real, z.imag]
    return [_complex_to_json(sub) for sub in a]


def _json_field(obj, key: str):
    """obj[key], or a ValidationError if obj is not a JSON object holding key."""
    if not isinstance(obj, dict) or key not in obj:
        raise ValidationError(f"expected a JSON object with the key {key!r}")
    return obj[key]


def _complex_from_json(obj) -> np.ndarray:
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"complex JSON arrays must be rectangular arrays of numbers: {exc}") from exc
    if arr.ndim < 1 or arr.shape[-1] != 2:
        raise ValidationError("complex JSON arrays must have a trailing [re, im] axis")
    _require_finite(arr, "complex JSON arrays")  # json reads NaN and Infinity
    return arr[..., 0] + 1j * arr[..., 1]
