"""Convolution semigroups of states and the Markov semigroup on coefficients.

omega_t = exp_*(t L) is evaluated on the k-th tensor power U = u^{(x)k} of
the fundamental corepresentation, with entries U_{I,J} = p(i_1,j_1) ...
p(i_k,j_k).  The coproduct is multiplicative, Delta(U_{I,J}) =
sum_M U_{I,M} (x) U_{M,J}, so convolution on these entries is matrix
multiplication and omega_t(U) = exp(t L(U)) as a matrix.  U_{I,J} vanishes
unless i_m = i_{m+1} exactly when j_m = j_{m+1}, so L(U) is block diagonal by
that equality pattern, and every reduced k-letter word lies in the block of
index sequences with no two adjacent entries equal: m = n (n-1)^(k-1) of
them.  k = 1 is the fundamental semigroup exp(t A).

Also provides convolution of functionals, the Haar-state Gram matrix on the
degree <= 2 span and the induced self-adjointness check for the Markov
generator.
"""

from __future__ import annotations

import math

import numpy as np

from . import _kernel
from .config import DEFAULT_CONFIG
from .errors import BudgetError, ValidationError
from .schurmann import SchurmannTriple, gen_functional_batch
from .words import Word, coproduct_terms

#: unit roundoff of float64
_UNIT_ROUNDOFF = float(np.finfo(float).eps) / 2

#: entries of d x d blocks gathered per letter position by one gen_functional_batch call
_BATCH_ENTRIES = 1 << 20


def generator_matrix(t: SchurmannTriple, tol: float = DEFAULT_CONFIG.tol) -> np.ndarray:
    """A_ij = L(p_ij): nonnegative off-diagonal, zero row and column sums."""
    A = np.array(t.letter_L, dtype=float)
    scale = 1.0 + float(np.max(np.abs(A)))
    if float(np.min(A - np.diag(np.diag(A)), initial=0.0)) < -tol * scale:
        raise ValidationError("negative off-diagonal rate in generator matrix")
    row = float(np.max(np.abs(A.sum(axis=1))))
    col = float(np.max(np.abs(A.sum(axis=0))))
    if max(row, col) > tol * scale:
        raise ValidationError(
            f"generator matrix rows/columns do not sum to zero (dev {max(row, col):.3e})"
        )
    return A


def fundamental_semigroup(t: SchurmannTriple, time: float) -> np.ndarray:
    """exp(time * A) on the fundamental coefficients; a stochastic matrix."""
    import scipy.linalg

    if time < 0:
        raise ValidationError("time must be >= 0")
    return scipy.linalg.expm(time * generator_matrix(t))


def convolve(f, g, w: Word, term_budget: int | None = None) -> complex:
    """(f * g)(w) = sum over the coproduct of f(left) g(right)."""
    table = coproduct_terms(w, 2, term_budget)
    n = w.n
    total = 0j
    for (left, right), mult in table.items():
        total += mult * complex(f(Word(left, n))) * complex(g(Word(right, n)))
    return total


def _radix(n: int, k: int) -> tuple[int, ...]:
    # first index in base n, then each step's offset in base n - 1
    return (n,) + (n - 1,) * (k - 1)


def _block_indices(n: int, k: int) -> np.ndarray:
    """The 1-based index sequences of length k with no two adjacent entries equal.

    Row r is the mixed-radix number r: its first digit is the first index,
    each later digit d moves the index on by d + 1 (mod n).
    """
    radix = _radix(n, k)
    digits = np.array(np.unravel_index(np.arange(math.prod(radix)), radix)).T
    digits[:, 1:] += 1
    return np.cumsum(digits, axis=1) % n + 1


def _position(seq, n: int) -> int:
    """Row of a 1-based index sequence in _block_indices(n, len(seq))."""
    digits = [seq[0] - 1] + [(b - a) % n - 1 for a, b in zip(seq, seq[1:])]
    return int(np.ravel_multi_index(digits, _radix(n, len(seq))))


def _block_exp(t: SchurmannTriple, time: float, k: int, term_budget: int | None):
    """exp(time L_B) on the block of reduced k-letter words, and its error scale.

    L_B[I, J] = L(p(i_1,j_1) ... p(i_k,j_k)) over all m^2 pairs of block
    indices.  The k m^2 letters are charged against term_budget before
    anything is allocated; they are evaluated in row slices that gather at
    most _BATCH_ENTRIES block entries per position (one row if a row has
    more), so memory beyond L_B itself does not grow with m^2 d^2.
    """
    import scipy.linalg

    n = t.n
    m = math.prod(_radix(n, k))
    budget = DEFAULT_CONFIG.term_budget if term_budget is None else int(term_budget)
    if k * m * m > budget:
        raise BudgetError(f"the {k}-letter block needs {k * m * m} letters, budget {budget}")
    seqs = _block_indices(n, k)
    X = np.empty((m, m), dtype=complex)
    step = max(1, _BATCH_ENTRIES // (m * t.d * t.d))
    for lo in range(0, m, step):
        # letters[r, c, pos] = (i_pos of row lo + r, j_pos of column c)
        letters = np.stack(np.broadcast_arrays(seqs[lo : lo + step, None], seqs[None]), axis=-1)
        X[lo : lo + step] = gen_functional_batch(t, letters.reshape(-1, k, 2)).reshape(-1, m)
    X *= time
    if not X.imag.any():  # a real expm takes about half the time of a complex one
        X = X.real
    return scipy.linalg.expm(X), _UNIT_ROUNDOFF * float(np.linalg.norm(X, 1))


def _evaluate(t: SchurmannTriple, time: float, words, term_budget: int | None) -> dict:
    """{word: (value, err)}, taking one block exponential per reduced word length."""
    if time < 0:
        raise ValidationError("time must be >= 0")
    blocks: dict = {}
    out = {}
    for w in words:
        if w.n != t.n:
            raise ValidationError("ambient size mismatch")
        root = _kernel.reduce_letters(w.letters)
        if not root:  # the zero word (None) or the unit word (())
            out[w] = (0j if root is None else 1 + 0j, 0.0)
            continue
        if len(root) not in blocks:
            blocks[len(root)] = _block_exp(t, time, len(root), term_budget)
        E, err = blocks[len(root)]
        rows, cols = zip(*root)
        out[w] = (complex(E[_position(rows, t.n), _position(cols, t.n)]), err)
    return out


def conv_exp(
    t: SchurmannTriple, time: float, w: Word, term_budget: int | None = None
) -> tuple[complex, float]:
    """omega_t(w) = exp_*(time L)(w), from one exponential of the word's block.

    Returns (value, err).  err = u ||time L_B||_1, with u the unit roundoff
    and L_B the block of w, is the scale of the rounding error of the
    exponential, not a rigorous bound; it is 0.0 for the zero and unit words.
    """
    return _evaluate(t, time, [w], term_budget)[w]


def state_table(
    t: SchurmannTriple, time: float, words, term_budget: int | None = None
) -> dict[Word, complex]:
    """omega_t evaluated on an iterable of words, one exponential per word length."""
    return {w: val for w, (val, _) in _evaluate(t, time, words, term_budget).items()}


# --- degree <= 2 Haar data ----------------------------------------------------


def haar_gram_degree2(n: int) -> np.ndarray:
    """Gram matrix h(e_a* e_b) on the basis [1, p_11, p_12, ..., p_nn].

    Degree <= 2 Haar values: h(1) = 1, h(p_ij) = 1/n, h(p_ij p_kl) = 1/n if
    (i,j) = (k,l), 0 if exactly one index pair matches, 1/(n(n-1)) if both
    differ.  Basis element 1 + (i-1) n + (j-1) is p_ij.
    """
    if n < 2:
        raise ValidationError("need n >= 2")
    size = 1 + n * n
    G = np.empty((size, size))
    G[0, 0] = 1.0
    off = 1.0 / (n * (n - 1))
    for i in range(n):
        for j in range(n):
            a = 1 + i * n + j
            G[0, a] = G[a, 0] = 1.0 / n
            for k in range(n):
                for l in range(n):
                    b = 1 + k * n + l
                    if i == k and j == l:
                        G[a, b] = 1.0 / n
                    elif i == k or j == l:
                        G[a, b] = 0.0
                    else:
                        G[a, b] = off
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
    scale = 1.0 + float(np.max(np.abs(t.letter_L)))
    return float(np.max(np.abs(M.T @ G - G @ M))) <= tol * scale
