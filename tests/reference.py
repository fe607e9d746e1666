"""Reference routines the tests use as word sources and oracles.

Each builds its answer term by term, the slow way:
- `reduced_words` lists the reduced words of given lengths as Word objects;
- `coproduct_expand` yields the coproduct's legs as Words, and `convolve`
  convolves two functionals term by term over them;
- `fourier_symmetry` is the closed-form symmetry criterion of a triple on a
  Fourier representation, the oracle of `schurmann.is_symmetric_words`;
- `haar_gram_degree2`, `markov_operator_degree1` and `markov_symmetry_check`
  give the Haar state on the degree <= 2 span and the self-adjointness of
  the Markov generator there.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from qperm.config import DEFAULT_CONFIG
from qperm.errors import ValidationError
from qperm.magic import fourier, from_hadamard
from qperm.schurmann import SchurmannTriple, _bound, _check_cocycle
from qperm.semigroup import generator_matrix
from qperm.words import Word, coproduct_terms, reduced_word_array


def reduced_words(n: int, max_len: int, min_len: int = 1) -> list[Word]:
    """All reduced words with min_len <= length <= max_len."""
    out = []
    for ln in range(min_len, max_len + 1):
        out.extend(Word._of(tuple(map(tuple, ls)), n) for ls in reduced_word_array(n, ln).tolist())
    return out


def coproduct_expand(w: Word, legs: int) -> Iterator[tuple[tuple[Word, ...], int]]:
    """Yield (tuple of leg words, multiplicity) for the (legs-1)-fold coproduct of w.

    Every index chain i -> k_1 -> ... -> k_{legs-1} -> j per letter p_ij
    contributes one raw term; legs are reduced eagerly and zero branches are
    dropped, so multiplicities count the surviving raw chains.
    """
    table = coproduct_terms(w, legs)
    n = w.n
    for key, mult in table.items():
        yield tuple(Word._of(letters, n) for letters in key), mult


def convolve(f, g, w: Word) -> complex:
    """(f * g)(w) = sum over the coproduct of f(left) g(right)."""
    return sum((mult * complex(f(left)) * complex(g(right))
                for (left, right), mult in coproduct_expand(w, 2)), 0j)


def fourier_symmetry(n: int, xs, tol: float = DEFAULT_CONFIG.tol) -> bool:
    """Fourier-representation criterion: <xi_i, P_m xi_k> = <P_{2-m} xi_k, xi_i>.

    P_m is the common value of the blocks with (j - k + 1) = m mod n; the
    index 2 - m is taken mod n in 1..n.
    """
    rep = from_hadamard(fourier(n))
    xs = np.asarray(xs, dtype=complex)
    scale = _check_cocycle(rep, xs, tol)
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
