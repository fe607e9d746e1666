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

The symmetry and traciality sweeps read every fully swept word length from
a prefix tree of these products (`_grow`): the words of length k are those
of length k - 1 with one compatible letter added, so each level is one
matmul of the stacked letter matrices with the previous level's columns
(letter prepended), rows (letter appended) or antipode columns (S of the
appended letter prepended), followed by a gather of the compatible pairs.
Sampled words, and outside input through `gen_functional_batch`, multiply
their own letter matrices (`_columns`).

Inner products are conjugate-linear in the first slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cohomology import _cocycle_blocks, coboundary_map, split_tuple, stack_tuple
from .config import DEFAULT_CONFIG
from .errors import BudgetError, ValidationError
from .magic import MagicUnitary, TwoBlockSpec, _require_finite, apply, fourier, from_hadamard, validate
from .words import LinComb, Word, _random_word_array, counit, defining_relations, reduced_word_array

#: exhaustive word sweeps switch to sampling above these sizes
_EXHAUSTIVE_N = 4
_EXHAUSTIVE_LEN = 4
_SAMPLE_WORDS = 10_000
#: word pairs one traciality check may evaluate; sampled batches are cut to
#: isqrt of it so that every pair product fits
_MAX_WORD_PAIRS = 200_000
_SAMPLE_PAIR_ROWS = math.isqrt(_MAX_WORD_PAIRS)
#: words per gathered letter-matrix product; bounds the (rows, d+2, d+2) gather
_CHUNK_ROWS = 2048


class SchurmannTriple:
    """Representation plus cocycle data, and the letter matrices pi(p_ij)."""

    __slots__ = ("rep", "xs", "xi", "letter_L", "pi", "__weakref__")

    def __init__(self, rep: MagicUnitary, xs, tol: float = DEFAULT_CONFIG.tol,
                 check_rep: bool = False):
        if check_rep:
            report = validate(rep, tol)
            if not report.ok:
                raise ValidationError(f"representation is not a magic unitary: {report}")
        n, d = rep.n, rep.d
        xs = np.asarray(xs, dtype=complex)
        if xs.shape != (n, d):
            raise ValidationError(f"expected cocycle tuple of shape ({n}, {d}), got {xs.shape}")
        _require_finite(xs, "cocycle tuple")
        scale = 1.0 + float(np.max(np.linalg.norm(xs, axis=1), initial=0.0))
        worst = cocycle_violation(rep, xs)
        if worst > tol * scale:
            raise ValidationError(
                f"cocycle conditions violated by {worst:.3e} (tol {tol * scale:.3e})"
            )
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
        for name, value in zip(self.__slots__, (rep, xs, xi, letter_L, pi)):
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


def triple_from_stacked(rep: MagicUnitary, vec, tol: float = DEFAULT_CONFIG.tol) -> SchurmannTriple:
    """Build a triple from a stacked nd-vector (e.g. a cohomology basis vector)."""
    xs = np.array(split_tuple(np.asarray(vec, dtype=complex), rep.n, rep.d))
    return SchurmannTriple(rep, xs, tol)


# --- evaluation ---------------------------------------------------------------


def _apply(t: SchurmannTriple, x: LinComb | Word) -> np.ndarray:
    """pi(x) e_last = (L(x), eta(x), eps(x)), one letter matrix product per letter."""
    if isinstance(x, Word):
        x = LinComb.from_word(x)
    if x.n != t.n:
        raise ValidationError("ambient size mismatch")
    out = np.zeros(t.d + 2, dtype=complex)
    for w, c in x.terms.items():
        v = np.eye(t.d + 2, dtype=complex)[-1]  # e_last
        for i, j in reversed(w.letters):
            v = t.pi[i - 1, j - 1] @ v
        out += c * v
    return out


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


def _exhaustive(n: int, max_len: int) -> bool:
    return n <= _EXHAUSTIVE_N and max_len <= _EXHAUSTIVE_LEN


def _word_count(n: int, length: int) -> int:
    """Number of reduced words with `length` letters."""
    return n * n * (n - 1) ** (2 * (length - 1))


def _sweep_plan(n: int, max_len: int, rng=None) -> tuple[int, list[np.ndarray]]:
    """(full, drawn): the lengths 1..full are swept in full, `drawn` samples the rest.

    Exhaustive at small size.  In the sampled regime the shortest lengths are
    still enumerated in full while their running count fits in _SAMPLE_WORDS;
    the rest of the quota is split across the longer lengths by count and
    drawn with replacement, one (m, length, 2) letter array per length.
    """
    counts = np.array([_word_count(n, ln) for ln in range(1, max_len + 1)], float)
    if counts.sum() > 10 ** 9:
        raise BudgetError("reduced-word sweep out of range")
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
    return full, [_random_word_array(rng, n, m, ln)
                  for ln, m in enumerate(quota.tolist(), start=full + 1)]


def _sweep_words(n: int, max_len: int, rng=None) -> list[np.ndarray]:
    """Arrays of reduced words per length, the words `_sweep_plan` describes."""
    full, drawn = _sweep_plan(n, max_len, rng)
    return [reduced_word_array(n, ln) for ln in range(1, full + 1)] + drawn


class _Level(NamedTuple):
    """Letter-matrix products of the reduced words of one length.

    Rows follow `reduced_word_array` order; a part left out is None.
    first, last: letter codes (i - 1) n + j - 1 of each word's end letters.
    cols: pi(w) e_last; rows: e_0 pi(w); scols: pi(S w) e_last.
    """

    first: np.ndarray
    last: np.ndarray
    cols: np.ndarray | None
    rows: np.ndarray | None
    scols: np.ndarray | None


def _grow(t: SchurmannTriple, prev: _Level, take=None) -> _Level:
    """The level one letter longer than prev, every part from prev's by one matmul.

    A reduced word of length k is a letter a prepended to a word of length
    k - 1 whose first letter is compatible with a (row and column differ),
    taken a-major; it is also a word u of length k - 1 with a compatible
    letter v appended, taken u-major.  Both orders are lexicographic, so
    pi(a w') e_last = pi(a) pi(w') e_last, e_0 pi(u v) = e_0 pi(u) pi(v) and
    pi(S(u v)) e_last = pi(S v) pi(S u) e_last line up word by word.
    take: indices of the words of the new level to keep (default all).
    """
    n, s = t.n, t.d + 2
    n2 = n * n
    i, j = np.divmod(np.arange(n2), n)
    compat = np.ones((n2 + 1, n2 + 1), dtype=bool)
    compat[:n2, :n2] = (i[:, None] != i) & (j[:, None] != j)
    head, suffix = np.nonzero(compat[:n2, prev.first])
    prefix, tail = np.nonzero(compat[prev.last, :n2])
    if take is not None:
        head, suffix, prefix, tail = head[take], suffix[take], prefix[take], tail[take]
    cols = rows = scols = None
    if prev.cols is not None:
        cols = (t.pi.reshape(n2 * s, s) @ prev.cols.T).reshape(n2, s, -1)[head, :, suffix]
    if prev.rows is not None:
        out = prev.rows @ t.pi.transpose(2, 0, 1, 3).reshape(s, n2 * s)
        rows = out.reshape(-1, n2, s)[prefix, tail]
    if prev.scols is not None:
        anti = t.pi.transpose(1, 0, 2, 3).reshape(n2 * s, s)  # pi(S p_ij) = pi(p_ji)
        scols = (anti @ prev.scols.T).reshape(n2, s, -1)[tail, :, prefix]
    return _Level(head, tail, cols, rows, scols)


def _tree(t: SchurmannTriple, max_len: int, rows: bool = False,
          scols: bool = False) -> list[_Level]:
    """[empty word, length 1, ..., length max_len], grown letter by letter.

    The columns are always kept, rows and antipode columns on request.  The
    empty word has letter code n^2, which may stand beside every letter.
    """
    unit = np.eye(t.d + 2, dtype=complex)
    code = np.array([t.n * t.n])
    levels = [_Level(code, code, unit[-1:], unit[:1] if rows else None,
                     unit[-1:] if scols else None)]
    for _ in range(max_len):
        levels.append(_grow(t, levels[-1]))
    return levels


def _pick(rng, count: int, size: int):
    """Indices of `size` distinct random rows out of `count`, or all rows if count <= size."""
    return slice(None) if count <= size else rng.choice(count, size, replace=False)


def is_symmetric_words(
    t: SchurmannTriple,
    max_len: int = DEFAULT_CONFIG.max_word_len,
    tol: float = DEFAULT_CONFIG.tol,
    rng=None,
) -> tuple[bool, float]:
    """Check |L(S w) - L(w)| over reduced words of length <= max_len.

    Returns (symmetric, worst violation).  Exhaustive for n <= 4 and
    max_len <= 4, sampled beyond that.  The lengths swept in full are read
    from the prefix tree of letter-matrix products (`_grow`), the drawn
    words from their own products.
    """
    if max_len < 1:
        raise ValidationError("max_len must be >= 1")
    scale = 1.0 + float(np.max(np.abs(t.letter_L), initial=0.0))
    full, drawn = _sweep_plan(t.n, max_len, rng)
    diffs = [lv.cols[:, 0] - lv.scols[:, 0] for lv in _tree(t, full, scols=True)[1:]]
    for batch in drawn:
        # antipode: reverse, swap indices
        diffs.append(_columns(t, batch)[:, 0] - _columns(t, batch[:, ::-1, ::-1])[:, 0])
    worst = max(float(np.max(np.abs(diff), initial=0.0)) for diff in diffs)
    return worst <= tol * scale, worst


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


def fourier_symmetry(n: int, xs, tol: float = DEFAULT_CONFIG.tol) -> bool:
    """Fourier-representation criterion: <xi_i, P_m xi_k> = <P_{2-m} xi_k, xi_i>.

    P_m is the common value of the blocks with (j - k + 1) = m mod n; the
    index 2 - m is taken mod n in 1..n.
    """
    rep = from_hadamard(fourier(n))
    xs = np.asarray(xs, dtype=complex)
    if xs.shape != (n, rep.d):
        raise ValidationError(f"expected tuple of shape ({n}, {rep.d})")
    dev = cocycle_violation(rep, xs)
    scale = 1.0 + float(np.max(np.linalg.norm(xs, axis=1), initial=0.0))
    if dev > tol * scale:
        raise ValidationError(f"not a cocycle tuple for the Fourier representation ({dev:.3e})")
    pm = [rep.blocks[m - 1, 0] for m in range(1, n + 1)]  # P_m = block (m, 1)
    worst = 0.0
    for m in range(1, n + 1):
        m2 = (2 - m) % n
        pm2 = pm[m2 - 1 if m2 != 0 else n - 1]
        for i in range(n):
            for k in range(n):
                lhs = complex(np.vdot(xs[i], pm[m - 1] @ xs[k]))
                rhs = complex(np.vdot(pm2 @ xs[k], xs[i]))
                worst = max(worst, abs(lhs - rhs))
    return worst <= tol * scale * scale


def _trace_defect(cols: list[np.ndarray], rows: list[np.ndarray]) -> float:
    """Worst |L(uv) - L(vu)| over words u, v with |u| + |v| <= len(cols) + 1.

    cols[k - 1], rows[k - 1]: pi(w) e_last and e_0 pi(w) of the words of
    length k, and L(uv) = e_0 pi(u) pi(v) e_last.
    """
    worst = 0.0
    for la in range(1, len(cols) + 1):
        for lb in range(1, len(cols) + 2 - la):
            if cols[la - 1].shape[0] * cols[lb - 1].shape[0] > _MAX_WORD_PAIRS:
                raise BudgetError("too many word pairs; lower max_len")
            # np.inner, not @ on a transposed view: on a 2-core host the latter took 8 ms
            # for a (1296 x 4) by (4 x 16) product on a slow BLAS path, np.inner 0.06 ms
            diff = np.inner(rows[la - 1], cols[lb - 1]) - np.inner(cols[la - 1], rows[lb - 1])
            worst = max(worst, float(np.max(np.abs(diff), initial=0.0)))
    return worst


def is_tracial(
    t: SchurmannTriple,
    max_len: int = DEFAULT_CONFIG.max_word_len,
    tol: float = DEFAULT_CONFIG.tol,
    rng=None,
) -> bool:
    """Check L(uv) = L(vu) over reduced word pairs with |u| + |v| <= max_len.

    Pair values are Gram products of the first rows e_0 pi(u) and last
    columns pi(v) e_last of the letter-matrix products, one per pair of
    lengths, so the words uv and vu are never formed; the lengths swept in
    full are read from the prefix tree (`_grow`).  Also checks the necessary
    condition |eta(a)| = |eta(a*)| on sampled elements of ker eps, eta(a)
    from the column of a and the conjugate of eta(a*) from its row; sampled
    words one letter longer than the tree are grown from its last level.
    """
    if max_len < 2:
        raise ValidationError("max_len must be >= 2 for traciality")
    scale = 1.0 + float(np.max(np.abs(t.letter_L), initial=0.0))
    if rng is None:
        rng = np.random.default_rng(DEFAULT_CONFIG.seed)
    full, drawn = _sweep_plan(t.n, max_len - 1, rng)
    levels = _tree(t, full, rows=True)
    # a full sweep keeps every word; else enumerated lengths are sorted, so cut
    # them to a random subset, not a prefix
    exhaustive = _exhaustive(t.n, max_len - 1)
    cols, rows = [], []
    for lv in levels[1:]:
        keep = slice(None) if exhaustive else _pick(rng, lv.cols.shape[0], _SAMPLE_PAIR_ROWS)
        cols.append(lv.cols[keep])
        rows.append(lv.rows[keep])
    for batch in drawn:
        batch = batch[_pick(rng, batch.shape[0], _SAMPLE_PAIR_ROWS)]
        cols.append(_columns(t, batch))
        rows.append(_rows(t, batch))
    if _trace_defect(cols, rows) > tol * scale:
        return False
    # necessary condition via the GNS anti-unitary: |eta(a)| = |eta(a*)|; the
    # fully swept lengths here reach at most one letter past the tree
    full, drawn = _sweep_plan(t.n, max_len, rng)
    for ln in range(1, full + 1):
        keep = _pick(rng, _word_count(t.n, ln), 64)
        if ln < len(levels):
            gap = _adjoint_gap(levels[ln].cols[keep], levels[ln].rows[keep])
        else:
            grown = _grow(t, levels[-1], keep)
            gap = _adjoint_gap(grown.cols, grown.rows)
        if gap > tol * scale:
            return False
    for batch in drawn:
        take = batch[_pick(rng, batch.shape[0], 64)]
        if _adjoint_gap(_columns(t, take), _rows(t, take)) > tol * scale:
            return False
    return True


def _adjoint_gap(cols: np.ndarray, rows: np.ndarray) -> float:
    """Worst | |eta(a)| - |eta(a*)| | from the columns pi(a) e_last and rows e_0 pi(a)."""
    na = np.linalg.norm(cols[:, 1:-1], axis=1)
    nastar = np.linalg.norm(rows[:, 1:-1], axis=1)
    return float(np.max(np.abs(na - nastar), initial=0.0))


def symmetrize(t: SchurmannTriple):
    """Evaluator for L_sym = (L + L o S) / 2; symmetric by construction."""
    from .words import antipode

    def evaluator(x: LinComb | Word) -> complex:
        return 0.5 * (gen_functional(t, x) + gen_functional(t, antipode(x)))

    return evaluator


def random_cocycle(rep: MagicUnitary, rng, scale: float = 1.0) -> np.ndarray:
    """A random cocycle tuple drawn from the cocycle space of the representation."""
    from .cohomology import cocycle_space

    z = cocycle_space(rep)
    if z.dim == 0:
        return np.zeros((rep.n, rep.d), dtype=complex)
    coeff = rng.normal(size=z.dim) + 1j * rng.normal(size=z.dim)
    vec = scale * (coeff @ z.vectors)
    return vec.reshape(rep.n, rep.d)
