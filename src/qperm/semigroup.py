"""Convolution semigroups of states and the Markov semigroup on coefficients.

Two evaluation routes for omega_t = exp_*(t L):

* a matrix-exponential fast path on the fundamental coefficients, where
  convolution of functionals is plain matrix multiplication, and
* a truncated convolution-exponential series on arbitrary words, with the
  convolution powers L^{*k} computed through the iterated coproduct.

Also provides the Haar-state Gram matrix on the degree <= 2 span and the
induced self-adjointness check for the Markov generator.
"""

from __future__ import annotations

import math
from weakref import WeakKeyDictionary

import numpy as np
import scipy.linalg

from . import _kernel
from .config import DEFAULT_CONFIG
from .errors import BudgetError, ValidationError
from .schurmann import SchurmannTriple, gen_functional
from .words import LinComb, Word, coproduct_terms, counit

_transfer_cache: "WeakKeyDictionary[SchurmannTriple, dict]" = WeakKeyDictionary()


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


def _transfer(t: SchurmannTriple, letters, term_budget: int | None):
    """Closure of reduced right coproduct legs with the transfer coefficients.

    For each reduced word s in the closure, table[s] is a dict
    {right_leg: sum of mult * L(left_leg)}, so that
    L^{*k}(s) = sum_v table[s][v] * L^{*(k-1)}(v).

    Every row built in this call is charged its n^|s| raw chains against
    term_budget (rows already cached are free), and BudgetError is raised
    before the coproduct of the row that would exceed it.
    """
    cache = _transfer_cache.setdefault(t, {})
    root = _kernel.reduce_letters(letters)
    if root is None:
        return None, {}
    budget = DEFAULT_CONFIG.term_budget if term_budget is None else int(term_budget)
    charged = 0
    todo = [root]
    while todo:
        s = todo.pop()
        if s in cache:
            continue
        charged += t.n ** len(s)
        if charged > budget:
            raise BudgetError(f"transfer closure needs more than {budget} raw terms")
        pairs = coproduct_terms(Word(s, t.n), 2, term_budget)
        row: dict = {}
        for (left, right), mult in pairs.items():
            lv = complex(gen_functional(t, Word(left, t.n)))
            if lv != 0j:
                row[right] = row.get(right, 0j) + mult * lv
        cache[s] = row
        todo.extend(v for v in row if v not in cache)
    # collect the closure reachable from root
    table = {}
    stack = [root]
    while stack:
        s = stack.pop()
        if s in table:
            continue
        table[s] = cache[s]
        stack.extend(v for v in cache[s] if v not in table)
    return root, table


def conv_exp(
    t: SchurmannTriple,
    time: float,
    w: Word,
    order: int | None = None,
    early_exit: float = 1e-14,
    term_budget: int | None = None,
) -> tuple[complex, float]:
    """Truncated exp_*(t L)(w) = sum_k t^k/k! L^{*k}(w).

    Returns (value, magnitude of the last retained term); the magnitude is a
    heuristic error indicator, not a rigorous bound.
    """
    if time < 0:
        raise ValidationError("time must be >= 0")
    if order is None:
        order = DEFAULT_CONFIG.series_order
    root, table = _transfer(t, w.letters, term_budget)
    if root is None:
        return 0j, 0.0
    eps_vec = {s: counit(Word(s, t.n)) for s in table}
    value = complex(eps_vec[root])  # k = 0 term
    last = abs(value)
    vals = eps_vec
    for k in range(1, order + 1):
        vals = {
            s: sum((c * vals[v] for v, c in row.items()), 0j) for s, row in table.items()
        }
        weight = (time ** k) / math.factorial(k)
        term = weight * vals[root]
        value += term
        last = abs(term)
        # the root term alone can vanish at one order and return at the next,
        # so gate the exit on every word the recursion can still reach
        if weight * max(abs(v) for v in vals.values()) < early_exit:
            break
    return value, last


def state_table(
    t: SchurmannTriple,
    time: float,
    words,
    order: int | None = None,
    term_budget: int | None = None,
) -> dict[Word, complex]:
    """omega_t evaluated on an iterable of words."""
    return {w: conv_exp(t, time, w, order, term_budget=term_budget)[0] for w in words}


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
    A = generator_matrix(t)
    size = 1 + n * n
    M = np.zeros((size, size))
    for i in range(n):
        for j in range(n):
            colidx = 1 + i * n + j
            for a in range(n):
                M[1 + i * n + a, colidx] = A[a, j]
    return M


def markov_symmetry_check(t: SchurmannTriple, tol: float = DEFAULT_CONFIG.tol) -> bool:
    """Self-adjointness of the Markov generator w.r.t. the degree <= 2 Haar Gram."""
    G = haar_gram_degree2(t.n)
    M = markov_operator_degree1(t)
    scale = 1.0 + float(np.max(np.abs(t.letter_L)))
    return float(np.max(np.abs(M.T @ G - G @ M))) <= tol * scale
