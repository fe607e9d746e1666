"""Schurmann triples (rho, eta, L) on Pol(S_n+) and their classification.

A triple is determined by a magic unitary rho and the diagonal cocycle
values xi_i = eta(p_ii); the off-diagonal values are xi_ij = -P_ij xi_i,
and L(p_ii) = -|xi_i|^2, L(p_ij) = |xi_ij|^2 for i != j.  It is packed into
one block-triangular representation on C (+) C^d (+) C (Schurmann, White
Noise on Bialgebras, 1993),

    pi(a) = [[eps(a), <eta(a*)|, L(a)  ],
             [0,      rho(a),   eta(a)],
             [0,      0,        eps(a)]],

multiplicative exactly because eta is a cocycle and L(ab) = <eta(a*), eta(b)>
+ eps(a) L(b) + L(a) eps(b).  SchurmannTriple.pi holds pi(p_ij), whose first
row carries the conjugate of xi_ij, the generators being self-adjoint.  So
pi(w) e_last = (L(w), eta(w), eps(w)), and e_0 pi(w) = (eps(w), <eta(w*)|,
L(w)) by pi(w)* = J pi(w*) J, J the swap of e_0 and e_last.

Symmetry and traciality are decided exactly from moments of these products
(`_moments`): B^H B = mean of z_w^H z_w over all letter sequences w of one
length, for a state z_w linear in pi(w), carried one length at a time as
weighted rows through the Kraus factors of the letter matrices.  Since pi
is a representation, a letter sequence is 0 or a reduced word no longer
than itself, so an identity linear or bilinear in the states holds for
every word of at most max_len letters exactly when these means of its
squared defect vanish (the recursion that decides equivalence of weighted
automata; Tzeng, SIAM J. Comput. 21 (1992) 216).  Words given as integer
arrays, and outside input through `gen_functional_batch`, multiply their
own letter matrices (`_columns`).

Inner products are conjugate-linear in the first slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cohomology import _cocycle_blocks, coboundary_map, split_tuple, stack_tuple
from .config import DEFAULT_CONFIG
from .errors import ValidationError, _charge, _require_finite
from .magic import MagicUnitary, TwoBlockSpec, _fold, apply
from .words import LinComb, Word, counit, defining_relations

#: words per gathered letter-matrix product; bounds the (rows, d+2, d+2) gather
_CHUNK_ROWS = 2048


class SchurmannTriple:
    """Representation plus cocycle data, and the letter matrices pi(p_ij).

    block_L maps a word length k >= 1 to the record `semigroup._Block` of
    its block generator L_B (`semigroup._block_L`; letter_L for k = 1), rows
    and columns in the lexicographic order of `words._index_sequences`: the
    read-only shifted generator A = L_B - mu I (real when L_B's imaginary
    part is exactly zero), mu = tr(L_B) / m, ||A||_1 and ||L_B||_1.  A is
    the only m x m array it keeps.  It is filled on first use by
    `semigroup.conv_exp` and `state_table`, so every later time and word of
    that length reuses the record, and it is freed with the triple.
    """

    __slots__ = ("rep", "xs", "xi", "letter_L", "pi", "block_L", "__weakref__")

    def __init__(self, rep: MagicUnitary, xs, tol: float = DEFAULT_CONFIG.tol):
        n, d = rep.n, rep.d
        xs = np.asarray(xs, dtype=complex)
        _check_cocycle(rep, xs, tol)
        xi = -np.einsum("ijab,ib->ija", rep.blocks, xs)
        xi[range(n), range(n)] = xs
        # the two off-diagonal formulas agree thanks to the cocycle conditions
        nrm = np.einsum("ija,ija->ij", xi.conj(), xi).real
        letter_L = np.where(np.eye(n, dtype=bool), -nrm, nrm)
        pi = np.zeros((n, n, d + 2, d + 2), dtype=complex)
        pi[:, :, 0, 0] = pi[:, :, -1, -1] = np.eye(n)
        pi[:, :, 0, 1:-1] = xi.conj()  # <eta(p_ij*)| with p_ij* = p_ij
        pi[:, :, 0, -1] = letter_L
        pi[:, :, 1:-1, 1:-1] = rep.blocks
        pi[:, :, 1:-1, -1] = xi
        for arr in (xs, xi, letter_L, pi):
            arr.setflags(write=False)
        for name, value in zip(self.__slots__, (rep, xs, xi, letter_L, pi, {})):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("SchurmannTriple is immutable")

    @property
    def n(self) -> int:
        return self.rep.n

    @property
    def d(self) -> int:
        return self.rep.d

    def __repr__(self):
        return f"SchurmannTriple(n={self.n}, d={self.d})"


def cocycle_violation(rep: MagicUnitary, xs) -> float:
    """Worst violation of the cocycle conditions for a candidate tuple.

    NaN or infinite entries give a non-finite result, never a small one.
    """
    xs = np.asarray(xs, dtype=complex)
    blocks, plus, minus = _cocycle_blocks(rep)
    return float(np.max([np.linalg.norm(block @ (xs[i] if j < 0 else xs[i] - xs[j]))
                         for block, i, j in zip(blocks, plus.tolist(), minus.tolist())],
                        initial=0.0))


def _check_cocycle(rep: MagicUnitary, xs: np.ndarray, tol: float) -> float:
    """The scale 1 + max_i |xi_i| of a finite (n, d) cocycle tuple of rep.

    Raises ValidationError on a wrong shape, a non-finite entry, or a
    violation of the cocycle conditions above tol times the scale.
    """
    if xs.shape != (rep.n, rep.d):
        raise ValidationError(
            f"expected cocycle tuple of shape ({rep.n}, {rep.d}), got {xs.shape}")
    _require_finite(xs, "cocycle tuple")
    scale = 1.0 + float(np.max(np.linalg.norm(xs, axis=1), initial=0.0))
    worst = cocycle_violation(rep, xs)
    if worst > tol * scale:
        raise ValidationError(
            f"cocycle conditions violated by {worst:.3e} (tol {tol * scale:.3e})")
    return scale


def triple_from_stacked(rep: MagicUnitary, vec, tol: float = DEFAULT_CONFIG.tol) -> SchurmannTriple:
    """Build a triple from a stacked nd-vector (e.g. a cohomology basis vector)."""
    xs = np.array(split_tuple(np.asarray(vec, dtype=complex), rep.n, rep.d))
    return SchurmannTriple(rep, xs, tol)


# --- evaluation ---------------------------------------------------------------


def _apply(t: SchurmannTriple, x: LinComb | Word) -> np.ndarray:
    """pi(x) e_last = (L(x), eta(x), eps(x)), one product per letter after the last."""
    return _fold(t.pi, x, -1)


def eta(t: SchurmannTriple, x: LinComb | Word) -> np.ndarray:
    """The cocycle eta evaluated on a word or linear combination."""
    return _apply(t, x)[1:-1]


def gen_functional(t: SchurmannTriple, x: LinComb | Word) -> complex:
    """The generating functional L evaluated on a word or linear combination."""
    return complex(_apply(t, x)[0])


def _relation_defect(t: SchurmannTriple) -> float:
    """Worst max(|L(r)|, ||eta(r)||) over the defining relations r of Pol(S_n+)."""
    worst = 0.0
    for rel in defining_relations(t.n):
        v = _apply(t, rel)
        worst = max(worst, abs(complex(v[0])), float(np.linalg.norm(v[1:-1])))
    return worst


def _columns(t: SchurmannTriple, letters: np.ndarray) -> np.ndarray:
    """pi(w) e_last = (L(w), eta(w), eps(w)) per row w, shape (count, d + 2).

    letters: int array of shape (count, length, 2) with 1-based indices in
    1..n; unchecked here, since every caller builds them (`gen_functional_batch`
    checks outside input).
    """
    letters = np.asarray(letters, dtype=np.int64)
    n, size = t.n, t.d + 2
    pi = t.pi.reshape(n * n, size, size)
    codes = (letters[:, :, 0] - 1) * n + letters[:, :, 1] - 1
    out = np.zeros((codes.shape[0], size), dtype=complex)
    out[:, -1] = 1.0
    for start in range(0, codes.shape[0], _CHUNK_ROWS):
        chunk = slice(start, start + _CHUNK_ROWS)
        v = out[chunk]
        for code in codes[chunk].T[::-1]:
            v = np.einsum("mab,mb->ma", pi[code], v)
        out[chunk] = v
    return out


def _rows(t: SchurmannTriple, letters: np.ndarray) -> np.ndarray:
    """e_0 pi(w) = (eps(w), <eta(w*)|, L(w)) per row w, shape (count, d + 2).

    pi(w)* = J pi(w*) J, J the swap of e_0 and e_last; w* is w reversed.
    """
    rows = _columns(t, np.asarray(letters)[:, ::-1]).conj()
    rows[:, [0, -1]] = rows[:, [-1, 0]]
    return rows


def gen_functional_batch(t: SchurmannTriple, letters: np.ndarray) -> np.ndarray:
    """Vectorized L over a batch of equal-length words.

    letters: int array of shape (count, length, 2) with 1-based indices.
    """
    letters = np.asarray(letters, dtype=np.int64)
    if letters.ndim != 3 or letters.shape[2] != 2:
        raise ValidationError("expected letters of shape (count, length, 2)")
    if letters.size and (letters.min() < 1 or letters.max() > t.n):
        raise ValidationError(f"letter indices must lie in 1..{t.n}")
    return _columns(t, letters)[:, 0]


# --- classification -----------------------------------------------------------


def is_gaussian(t: SchurmannTriple, tol: float = DEFAULT_CONFIG.tol) -> bool:
    """True iff all xi_i vanish; the only Gaussian triple is the trivial one."""
    return float(np.max(np.abs(t.xs), initial=0.0)) <= tol


@dataclass(frozen=True)
class PoissonCertificate:
    """A vector v with (P_ii - I) v = xi_i, exhibiting L as Poisson type."""

    v: np.ndarray
    residual: float

    def __post_init__(self):
        v = np.asarray(self.v, dtype=complex)
        v.setflags(write=False)
        object.__setattr__(self, "v", v)


def poisson_certificate(
    t: SchurmannTriple, tol: float | None = None
) -> PoissonCertificate | None:
    """Least-squares solve (P_ii - I) v = xi_i; a certificate iff the residual is small.

    When a certificate exists, L(a) = <v, (rho(a) - eps(a)) v> for all a.
    """
    B = coboundary_map(t.rep)
    target = stack_tuple(t.xs)
    v = np.linalg.lstsq(B, target, rcond=None)[0]
    fit = B @ v
    residual = max(
        float(np.linalg.norm(fit[k * t.d : (k + 1) * t.d] - t.xs[k])) for k in range(t.n)
    )
    if tol is None:
        tol = 1e-7 * (1.0 + float(np.max(np.linalg.norm(t.xs, axis=1), initial=0.0)))
    if residual <= tol:
        return PoissonCertificate(v, residual)
    return None


def poisson_value(t: SchurmannTriple, v: np.ndarray, x: LinComb | Word) -> complex:
    """<v, (rho(x) - eps(x)) v> -- the Poisson-type form of L for certificate v."""
    v = np.asarray(v, dtype=complex)
    mat = apply(t.rep, x)
    return complex(np.vdot(v, mat @ v) - counit(x) * np.vdot(v, v))


def _bound(t: SchurmannTriple, tol: float) -> float:
    """tol times the triple's scale 1 + max |L(p_ij)|; tol must be finite and > 0."""
    if not (tol > 0 and math.isfinite(tol)):
        raise ValidationError(f"tol must be finite and > 0, got {tol!r}")
    return tol * (1.0 + float(np.max(np.abs(t.letter_L), initial=0.0)))


def _compress(stack: np.ndarray) -> np.ndarray:
    """Rows diag(s) V^H of the SVD of `stack`: its Gram matrix, in at most `cols` rows.

    Only singular values s <= cols eps s_max are dropped.  The rows keep their
    weights; a direction normalised behind a rank cut would let a rounding
    residue count as much as the data.
    """
    _, s, vh = np.linalg.svd(stack, full_matrices=False)
    keep = s > stack.shape[1] * np.finfo(float).eps * s.max(initial=0.0)
    return s[keep, None] * vh[keep]


def _kraus(steps: np.ndarray) -> np.ndarray:
    """K_k, shape (count, s, s), with sum_k K_k^H Y K_k = mean_a steps[a]^H Y steps[a].

    The rows of `_compress` on the steps flattened to s^2 entries, over
    sqrt(len(steps)).  Entries that vanish in every step (the off-diagonal
    blocks of the symmetry check's steps, the lower triangle of pi) vanish in
    every factor, so only the other columns are compressed.
    """
    s = steps.shape[-1]
    flat = steps.reshape(len(steps), s * s)
    used = np.flatnonzero(flat.any(axis=0))
    rows = _compress(flat[:, used]) / math.sqrt(len(steps))
    kraus = np.zeros((len(rows), s * s), dtype=rows.dtype)
    kraus[:, used] = rows
    return kraus.reshape(-1, s, s)


def _moments(start: np.ndarray, steps: np.ndarray, max_len: int) -> np.ndarray:
    """Rows B, levels 0..max_len stacked, with B^H B = sum_j mean_{|w| = j} z_w^H z_w.

    z_w, shape (m, s), is the state of a sequence w of letters a (indices
    into steps), read as one row of m s entries: z_empty = start and
    z_{wa} = z_w steps[a].  Level j averages over the len(steps)^j sequences
    of j letters.  Kraus factors K_k with sum_k K_k^H Y K_k = mean_a
    steps[a]^H Y steps[a] come from the SVD of the stacked steps (`_kraus`),
    and level j is the compressed stack [B_{j-1} K_k]_k, whose complex
    entries are charged against the term budget before it is built.
    Returns shape (rows, m, s).
    """
    m, s = start.shape
    kraus = _kraus(steps)
    levels = [start.reshape(1, m, s)]
    for _ in range(max_len):
        prev = levels[-1]
        _charge(len(kraus) * prev.size, "a moment level", "complex entries")
        stack = (prev[None] @ kraus[:, None]).reshape(-1, m * s)
        levels.append(_compress(stack).reshape(-1, m, s))
    return np.concatenate(levels)


def is_symmetric_words(
    t: SchurmannTriple,
    max_len: int = DEFAULT_CONFIG.max_word_len,
    tol: float = DEFAULT_CONFIG.tol,
) -> tuple[bool, float]:
    """Decide L(S w) = L(w) for every word of at most max_len letters.

    Returns (symmetric, defect), the defect being the root of the sum over
    lengths j <= max_len of the mean of |L(w) - L(S w)|^2 over all n^(2j)
    letter sequences w of length j; it is 0 exactly when every such word
    passes.  The state of w is (e_0 pi(w), (pi(S w) e_last)^T): a letter a
    steps it by diag(pi(a), pi(a^T)^T), a^T the letter with its indices
    swapped, and (e_last, -e_0) reads off L(w) - L(S w).
    """
    if max_len < 1:
        raise ValidationError("max_len must be >= 1")
    bound = _bound(t, tol)
    size = t.d + 2
    steps = np.zeros((t.n * t.n, 2 * size, 2 * size), dtype=complex)
    steps[:, :size, :size] = t.pi.reshape(-1, size, size)
    steps[:, size:, size:] = t.pi.transpose(1, 0, 3, 2).reshape(-1, size, size)
    start = np.zeros((1, 2 * size))
    start[0, 0] = start[0, -1] = 1.0
    read = np.zeros(2 * size)
    read[size - 1], read[size] = 1.0, -1.0
    defect = float(np.linalg.norm(_moments(start, steps, max_len)[:, 0] @ read))
    return defect <= bound, defect


def two_block_symmetry(
    spec: TwoBlockSpec,
    xi: np.ndarray,
    zeta: np.ndarray,
    tol: float = DEFAULT_CONFIG.tol,
) -> bool:
    """Exact two-block criterion: <zeta, (PQ)^k xi> real for k = 0..d-1.

    Higher powers are linear combinations of the first d by the minimal
    polynomial of PQ, so d powers decide symmetry.
    """
    P = np.asarray(spec.P, dtype=complex)
    Q = np.asarray(spec.Q, dtype=complex)
    xi = np.asarray(xi, dtype=complex)
    zeta = np.asarray(zeta, dtype=complex)
    nx = float(np.linalg.norm(xi))
    nz = float(np.linalg.norm(zeta))
    if float(np.linalg.norm(P @ xi)) > tol * (1.0 + nx):
        raise ValidationError("xi must lie in ker P")
    if float(np.linalg.norm(Q @ zeta)) > tol * (1.0 + nz):
        raise ValidationError("zeta must lie in ker Q")
    scale = (1.0 + nx) * (1.0 + nz)
    PQ = P @ Q
    w = xi.copy()
    for _ in range(spec.d):
        val = complex(np.vdot(zeta, w))
        if abs(val.imag) > tol * scale:
            return False
        w = PQ @ w
    return True


def two_block_triple(
    spec: TwoBlockSpec, xi, zeta, tol: float = DEFAULT_CONFIG.tol
) -> SchurmannTriple:
    """The triple on the two-block representation with eta(p_11) = xi, eta(p_33) = zeta."""
    from .magic import two_block

    rep = two_block(spec, tol)
    xs = np.array([xi, xi, zeta, zeta], dtype=complex)
    return SchurmannTriple(rep, xs, tol)


def _commutator_norm(t: SchurmannTriple, max_len: int) -> float:
    """Root of the sum over length pairs j, k <= max_len of the mean |L(uv) - L(vu)|^2.

    The mean runs over all letter sequences u of length j and v of length k.
    The state of w is pi(w) itself; from the moment rows of all levels,
    R = e_0 pi and C = pi e_last give the pair values L(uv) = e_0 pi(u) pi(v)
    e_last, and the result is ||R C^T - (R C^T)^T||_F.
    """
    size = t.d + 2
    rows = _moments(np.eye(size, dtype=complex), t.pi.reshape(-1, size, size), max_len)
    ends = _compress(np.hstack([rows[:, 0], rows[:, :, -1]]))
    pairs = np.inner(ends[:, :size], ends[:, size:])
    return float(np.linalg.norm(pairs - pairs.T))


def is_tracial(
    t: SchurmannTriple,
    max_len: int = DEFAULT_CONFIG.max_word_len,
    tol: float = DEFAULT_CONFIG.tol,
) -> bool:
    """Decide L(uv) = L(vu) for every pair of words u, v of at most max_len letters each.

    Decided by `_commutator_norm`.  The pairs u = a*, v = a decide
    |eta(a)| = |eta(a*)| too, since |eta(a)|^2 - |eta(a*)|^2 = L(a* a) - L(a a*).
    """
    if max_len < 2:
        raise ValidationError("max_len must be >= 2 for traciality")
    bound = _bound(t, tol)
    return _commutator_norm(t, max_len) <= bound


def random_cocycle(rep: MagicUnitary, rng, scale: float = 1.0) -> np.ndarray:
    """A random cocycle tuple: scale times the projection onto the cocycle space
    of a complex Gaussian vector of the stacked space, so that a seed's tuple
    does not depend on the basis `cocycle_space` returns."""
    from .cohomology import cocycle_space

    z = cocycle_space(rep)
    g = rng.normal(size=z.total) + 1j * rng.normal(size=z.total)
    return (scale * z.project(g)).reshape(rep.n, rep.d)
