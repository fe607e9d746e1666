"""Convolution semigroups of states and the Markov semigroup on coefficients.

omega_t = exp_*(t L) is evaluated on the k-th tensor power U = u^{(x)k} of
the fundamental corepresentation, with entries U_{I,J} = p(i_1,j_1) ...
p(i_k,j_k).  The coproduct is multiplicative, Delta(U_{I,J}) =
sum_M U_{I,M} (x) U_{M,J}, so convolution on these entries is matrix
multiplication and omega_t(U) = exp(t L(U)) as a matrix.  U_{I,J} vanishes
unless i_m = i_{m+1} exactly when j_m = j_{m+1}, so L(U) is block diagonal by
that equality pattern, and every reduced k-letter word lies in the block of
index sequences with no two adjacent entries equal: m = n (n-1)^(k-1) of
them, numbered in the lexicographic order of words._index_sequences, the
order of reduced_word_array.  k = 1 is the fundamental semigroup exp(t A).

L(U) on that block, L_B, is one product of the first rows e_0 pi(a) of the
half-length block words with the last columns pi(b) e_last of the other
half, pi the letter matrices of the triple (see schurmann and _block_L),
and a word's value comes from exp(t L_B) applied to the word's column only
(_expm_action: truncated Taylor with scaling, Al-Mohy & Higham 2011, after a
shift by mu = tr(L_B) / m, with the Taylor degree m* and the number of
scaling steps s chosen from t ||L_B - mu I||_1 alone, so it needs no norm
estimate and no random numbers).  None of L_B, mu or the norms depends on t
or on the word, so the triple keeps one record per length k >= 1
(SchurmannTriple.block_L, a _Block: A = L_B - mu I, mu, ||A||_1 and
||L_B||_1), and a later call at any time costs only its m* s products of A
with the word's column.  The term budget is charged the complex entries the
block's construction allocates, on every call (_block), and the m* s matrix
products of each exponential.

Also provides convolution of functionals, the Haar-state Gram matrix on the
degree <= 2 span and the induced self-adjointness check for the Markov
generator.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import _kernel
from .config import DEFAULT_CONFIG
from .errors import ValidationError, _charge, check_time
from .schurmann import SchurmannTriple, _bound, _columns, _rows
from .words import Word, _index_sequences, _sequence_pairs, _sequence_position, coproduct_expand

#: unit roundoff of float64
_UNIT_ROUNDOFF = float(np.finfo(float).eps) / 2

#: theta_m for double precision (Al-Mohy & Higham, SIAM J. Sci. Comput. 33
#: (2011) 488, Table 3.1): m Taylor terms of exp(X) meet the unit roundoff
#: for ||X||_1 <= theta_m
_DEGREES = np.array(list(range(1, 31)) + [35, 40, 45, 50, 55])
_THETA = np.array([
    2.29e-16, 2.58e-8, 1.39e-5, 3.40e-4, 2.40e-3, 9.07e-3, 2.38e-2, 5.00e-2,
    8.96e-2, 1.44e-1, 2.14e-1, 3.00e-1, 4.00e-1, 5.14e-1, 6.41e-1, 7.81e-1,
    9.31e-1, 1.09, 1.26, 1.44, 1.62, 1.82, 2.01, 2.22, 2.43, 2.64, 2.86, 3.08,
    3.31, 3.54, 4.7, 6.0, 7.2, 8.5, 9.9,
])


class _Block(NamedTuple):
    """What a triple keeps of one block generator L_B (see _block_record).

    A = L_B - mu I, read-only and real when L_B is, is its only m x m array;
    mu = tr(L_B) / m.  Shift and norms scale linearly with t, so one record
    serves every time.
    """

    A: np.ndarray
    mu: float | complex
    norm: float  # ||A||_1: picks the Taylor degree and the step count
    L_norm: float  # ||L_B||_1: the scale of conv_exp's err


def _block_record(L: np.ndarray) -> _Block:
    """The _Block of L: the shifted copy A and the three scalars, computed once."""
    size = len(L)
    # real arithmetic takes about half the time; C order makes the strided view the diagonal
    A = np.array(L if L.imag.any() else L.real, order="C")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails _expm_action's charge
        L_norm = float(np.linalg.norm(A, 1))
        mu = np.trace(A) / size
        A.reshape(-1)[:: size + 1] -= mu
        norm = float(np.linalg.norm(A, 1))
    A.setflags(write=False)
    return _Block(A, mu, norm, L_norm)


def _inf_norm(X: np.ndarray) -> float:
    # np.linalg.norm(X, inf) without its argument checks, which cost more
    # than the sum on a few columns of a word block; one column needs no sum
    return float(np.abs(X).max() if X.shape[1] == 1 else np.abs(X).sum(axis=1).max())


def _expm_action(block: _Block, time: float, B: np.ndarray) -> np.ndarray:
    """exp(time L_B) B, by truncated Taylor with scaling (Al-Mohy & Higham 2011, Alg. 3.2).

    From the block's record: exp(time L_B) = e^(mu time) exp(time A), and s
    steps of m* Taylor terms of exp(time A / s) are taken, with (m*, s)
    minimising m* s over s = ceil(time ||A||_1 / theta_m*).  A step stops
    early once two consecutive terms are below the unit roundoff relative to
    the partial sum (inf-norms).  Cost: at most m* s products of A with the
    columns of B, linear in time ||A||_1, charged against the term budget
    before the first one; a count that is not finite (time L_B or its trace
    overflows) is over any budget.  Nothing of size m x m is allocated; B is
    not modified.
    """
    A = block.A
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the charge below
        norm = time * block.norm
        steps = np.ceil(norm / _THETA)
        products = _DEGREES * steps
    terms, s = 0, 1
    if norm != 0:
        best = int(np.argmin(products))  # the smallest degree on a tie
        need = int(products[best]) if np.isfinite(products[best]) else np.inf
        _charge(need, "the exponential action", "matrix products")
        terms, s = int(_DEGREES[best]), int(steps[best])
    eta = np.exp(block.mu * time / s)
    F = B.astype(np.result_type(A, B))  # a copy: F is summed in place
    for _ in range(s):
        c1 = bound = _inf_norm(B)
        for j in range(terms):
            B = A @ B
            B *= time / (s * (j + 1))
            c2 = _inf_norm(B)
            F += B
            # bound >= ||F||, so the stop test cannot pass while c1 + c2
            # exceeds u bound; the factor 2 covers the rounding of both sums
            bound += c2
            if c1 + c2 <= 2 * _UNIT_ROUNDOFF * bound and c1 + c2 <= _UNIT_ROUNDOFF * _inf_norm(F):
                break
            c1 = c2
        F = eta * F  # not F *= eta: numpy can round those complex products differently
        B = F
    return F


def generator_matrix(t: SchurmannTriple, tol: float = DEFAULT_CONFIG.tol) -> np.ndarray:
    """A_ij = L(p_ij): nonnegative off-diagonal, zero row and column sums."""
    A = np.array(t.letter_L, dtype=float)
    bound = _bound(t, tol)
    if float(np.min(A - np.diag(np.diag(A)), initial=0.0)) < -bound:
        raise ValidationError("negative off-diagonal rate in generator matrix")
    row = float(np.max(np.abs(A.sum(axis=1))))
    col = float(np.max(np.abs(A.sum(axis=0))))
    if max(row, col) > bound:
        raise ValidationError(
            f"generator matrix rows/columns do not sum to zero (dev {max(row, col):.3e})"
        )
    return A


def fundamental_semigroup(t: SchurmannTriple, time: float) -> np.ndarray:
    """exp(time * A) on the fundamental coefficients; a stochastic matrix.

    A is checked by generator_matrix; the exponential is the triple's
    one-letter block record, applied to the identity.
    """
    check_time(time)
    generator_matrix(t)
    return _expm_action(_block(t, 1), time, np.eye(t.n))


def convolve(f, g, w: Word) -> complex:
    """(f * g)(w) = sum over the coproduct of f(left) g(right)."""
    return sum((mult * complex(f(left)) * complex(g(right))
                for (left, right), mult in coproduct_expand(w, 2)), 0j)


def _block_entries(n: int, k: int) -> int:
    """Complex entries _block_L allocates for the k-letter block: L_B, and F for k >= 2."""
    m = n * (n - 1) ** (k - 1)
    if k == 1:
        return m * m
    # F has m_h^2 rows and m_(k-h)^2 columns, m_h m_(k-h) = n^2 (n-1)^(k-2)
    return m * m + (n * n * (n - 1) ** (k - 2)) ** 2


def _block_L(t: SchurmannTriple, k: int) -> np.ndarray:
    """L_B[I, J] = L(p(i_1,j_1) ... p(i_k,j_k)) over all m^2 pairs of block indices.

    Rows and columns follow words._index_sequences(n, k).  Split each word
    after h = k // 2 letters, a = p(I', J') and b = p(I'', J''):
    L(ab) = e_0 pi(a) pi(b) e_last, so one product of the rows of the
    h-letter block words with the columns of the (k-h)-letter ones gives
    every entry.  k = 1 is letter_L.  Unmemoized and unbudgeted: _block
    charges _block_entries first and keeps the result on the triple.
    """
    n = t.n
    if k == 1:
        return t.letter_L
    h = k // 2
    a, b = _index_sequences(n, h), _index_sequences(n, k - h)
    # F[(I', J'), (I'', J'')] = L(ab)
    F = np.inner(_rows(t, _sequence_pairs(a)), _columns(t, _sequence_pairs(b)))
    # I = (I', I''): I' ends on another index than I'' starts with
    seqs = _index_sequences(n, k)
    pa, pb = _sequence_position(seqs[:, :h], n), _sequence_position(seqs[:, h:], n)
    return F[pa[:, None] * len(a) + pa[None], pb[:, None] * len(b) + pb[None]]


def _block(t: SchurmannTriple, k: int) -> _Block:
    """The triple's record of its k-letter block, charged on every call, hit or miss.

    The block is built only when t.block_L does not hold its record yet.
    """
    _charge(_block_entries(t.n, k), f"the {k}-letter block", "complex entries")
    block = t.block_L.get(k)
    if block is None:
        block = t.block_L[k] = _block_record(_block_L(t, k))
    return block


def _evaluate(t: SchurmannTriple, time: float, words) -> dict:
    """{word: (value, err)}: per reduced word length, exp(time L_B) on the columns in use."""
    check_time(time)
    out: dict = {}
    by_len: dict = {}
    for w in words:
        if w.n != t.n:
            raise ValidationError("ambient size mismatch")
        root = _kernel.reduce_letters(w.letters)
        if root:
            out[w] = None  # keeps the caller's order; filled below
            by_len.setdefault(len(root), {})[w] = root
        else:  # the zero word (None) or the unit word (())
            out[w] = (0j if root is None else 1 + 0j, 0.0)
    for k, roots in by_len.items():
        block = _block(t, k)
        seqs = np.array(list(roots.values()))  # words x letters x (row, column)
        rows, cols = _sequence_position(np.vstack([seqs[..., 0], seqs[..., 1]]), t.n).reshape(2, -1)
        if len(cols) == 1:  # one word: its own column
            where = (0,)
        else:
            cols, where = np.unique(cols, return_inverse=True)
        units = np.zeros((len(block.A), len(cols)))
        units[cols, np.arange(len(cols))] = 1.0
        E = _expm_action(block, time, units)
        scale = time * block.L_norm
        for w, r, c in zip(roots, rows, where):
            value = complex(E[r, c])
            out[w] = (value, _UNIT_ROUNDOFF * (scale + abs(value)) if time else 0.0)
    return out


def conv_exp(t: SchurmannTriple, time: float, w: Word) -> tuple[complex, float]:
    """omega_t(w) = exp_*(time L)(w), from exp(time L_B) on the word's column.

    L_B is the generator on the word's block (see _block_L), built on the
    first call for the word's length and kept on the triple as a _Block.
    Returns (value, err).  err = u (||time L_B||_1 + |value|), with u the
    unit roundoff and L_B the block of w, is the scale of the rounding error
    of the exponential, not a rigorous bound; the |value| term keeps it at
    least one rounding of the value when ||time L_B||_1 is small.  It is 0.0
    at time 0 and for the zero and unit words.
    """
    return _evaluate(t, time, [w])[w]


def state_table(t: SchurmannTriple, time: float, words) -> dict[Word, complex]:
    """omega_t evaluated on an iterable of words.

    Per reduced word length, exp(time L_B) is applied to the block columns the
    words use, in one _expm_action call; L_B as in conv_exp.
    """
    return {w: val for w, (val, _) in _evaluate(t, time, words).items()}


# --- degree <= 2 Haar data ----------------------------------------------------


def haar_gram_degree2(n: int) -> np.ndarray:
    """Gram matrix h(e_a* e_b) on the basis [1, p_11, p_12, ..., p_nn].

    Degree <= 2 Haar values: h(1) = 1, h(p_ij) = 1/n, h(p_ij p_kl) = 1/n if
    (i,j) = (k,l), 0 if exactly one index pair matches, 1/(n(n-1)) if both
    differ.  Basis element 1 + (i-1) n + (j-1) is p_ij.
    """
    if n < 2:
        raise ValidationError("need n >= 2")
    differ = 1.0 - np.eye(n)
    G = np.empty((1 + n * n, 1 + n * n))
    G[1:, 1:] = np.kron(differ, differ) / (n * (n - 1))  # 0 unless both index pairs differ
    np.fill_diagonal(G, 1.0 / n)
    G[0, 1:] = G[1:, 0] = 1.0 / n
    G[0, 0] = 1.0
    return G


def markov_operator_degree1(t: SchurmannTriple) -> np.ndarray:
    """Matrix of x -> (id (x) L) Delta(x) on span{1, p_ij}: T(p_ij) = sum_a p_ia A_aj."""
    n = t.n
    M = np.zeros((1 + n * n, 1 + n * n))
    M[1:, 1:] = np.kron(np.eye(n), generator_matrix(t))  # p_ia row, p_ij column: A_aj
    return M


def markov_symmetry_check(t: SchurmannTriple, tol: float = DEFAULT_CONFIG.tol) -> bool:
    """Self-adjointness of the Markov generator w.r.t. the degree <= 2 Haar Gram."""
    G = haar_gram_degree2(t.n)
    M = markov_operator_degree1(t)
    return float(np.max(np.abs(M.T @ G - G @ M))) <= _bound(t, tol)
