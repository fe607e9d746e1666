"""Reference computations the benchmark checks qperm against.

Everything here uses numpy and the standard library only, and shares no
code with qperm: the benchmark's own imports must not show up in `setup_s`
or `peak_rss_mb`, and an oracle that called into the program would let a
wrong answer check itself.

Conventions follow the paper: a magic unitary is an (n, n, d, d) array of
blocks P_ij, letters are 1-based (row, col) pairs, and a cocycle is given by
its diagonal values xi_i = eta(p_ii), one row of an (n, d) array.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

RANK_TOL = 1e-8


# --- representations --------------------------------------------------------


def hadamard_blocks(H: np.ndarray) -> np.ndarray:
    """P_jk = rank-one projection onto the entrywise ratio of rows j and k."""
    n = H.shape[0]
    out = np.empty((n, n, n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            v = H[j] * np.conj(H[k])  # unimodular entries: h_j / h_k
            out[j, k] = np.outer(v, v.conj()) / n
    return out


def fourier_matrix(n: int) -> np.ndarray:
    return np.array(
        [[cmath.exp(2j * math.pi * a * b / n) for b in range(n)] for a in range(n)]
    )


def f4_matrix(phi: float) -> np.ndarray:
    z = 1j * cmath.exp(1j * phi)
    return np.array([[1, 1, 1, 1], [1, z, -1, -z], [1, -1, 1, -1], [1, -z, -1, z]])


def permutation_blocks(sigma, d: int = 1) -> np.ndarray:
    n = len(sigma)
    out = np.zeros((n, n, d, d), dtype=complex)
    for i, s in enumerate(sigma):
        out[i, s - 1] = np.eye(d)
    return out


def two_block_blocks(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    d = P.shape[0]
    eye, zero = np.eye(d), np.zeros((d, d))
    return np.array(
        [[P, eye - P, zero, zero], [eye - P, P, zero, zero],
         [zero, zero, Q, eye - Q], [zero, zero, eye - Q, Q]],
        dtype=complex,
    )


def word_matrix(blocks: np.ndarray, letters) -> np.ndarray:
    """rho(w): the ordered product of the blocks of the letters."""
    acc = np.eye(blocks.shape[2], dtype=complex)
    for i, j in letters:
        acc = acc @ blocks[i - 1, j - 1]
    return acc


def counit(letters) -> float:
    return 1.0 if all(i == j for i, j in letters) else 0.0


# --- linear algebra ---------------------------------------------------------


def rank(A: np.ndarray, tol: float = RANK_TOL) -> int:
    if A.size == 0:
        return 0
    s = np.linalg.svd(A, compute_uv=False)
    return int(np.sum(s > tol * max(1.0, float(s[0]))))


def cocycle_basis(blocks: np.ndarray) -> np.ndarray:
    """Rows spanning the cocycle tuples, from the kernel of the stacked conditions.

    Built from an eigendecomposition of the Gram matrix of the conditions,
    so it shares neither algorithm nor code with the program's SVD.
    """
    n, d = blocks.shape[0], blocks.shape[2]
    G = np.zeros((n * d, n * d), dtype=complex)
    for i in range(n):
        si = slice(i * d, (i + 1) * d)
        G[si, si] += blocks[i, i]  # P^* P = P for a projection
        for j in range(n):
            if i != j:
                sj = slice(j * d, (j + 1) * d)
                P = blocks[i, j]
                G[si, si] += P
                G[sj, sj] += P
                G[si, sj] -= P
                G[sj, si] -= P
    vals, vecs = np.linalg.eigh(G)
    return vecs[:, vals < 1e-9 * max(1.0, float(vals[-1]))].T


def cocycle_defect(blocks: np.ndarray, xs: np.ndarray) -> float:
    """max over the conditions |P_ii xi_i| and |P_ij (xi_i - xi_j)|."""
    n = blocks.shape[0]
    worst = 0.0
    for i in range(n):
        worst = max(worst, float(np.linalg.norm(blocks[i, i] @ xs[i])))
        for j in range(n):
            if i != j:
                worst = max(worst, float(np.linalg.norm(blocks[i, j] @ (xs[i] - xs[j]))))
    return worst


def coboundaries(blocks: np.ndarray) -> np.ndarray:
    """Columns ((P_ii - I) e_k)_i for the standard basis e_k of C^d."""
    n, d = blocks.shape[0], blocks.shape[2]
    return np.concatenate([blocks[i, i] - np.eye(d) for i in range(n)], axis=0)


def coboundary_residual(blocks: np.ndarray, xs: np.ndarray) -> float:
    """Distance from the stacked tuple to the coboundary space."""
    B = coboundaries(blocks)
    target = xs.reshape(-1)
    u, s, _ = np.linalg.svd(B, full_matrices=False)
    keep = u[:, s > RANK_TOL * max(1.0, float(s[0]) if s.size else 1.0)]
    return float(np.linalg.norm(target - keep @ (keep.conj().T @ target)))


def generator_matrix(blocks: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """A_ij = L(p_ij): |P_ij xi_i|^2 off the diagonal, -|xi_i|^2 on it."""
    n = blocks.shape[0]
    A = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                A[i, j] = -float(np.vdot(xs[i], xs[i]).real)
            else:
                v = blocks[i, j] @ xs[i]
                A[i, j] = float(np.vdot(v, v).real)
    return A


def expm(A: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring of a Taylor series."""
    norm = float(np.max(np.sum(np.abs(A), axis=1))) if A.size else 0.0
    squarings = max(0, int(math.ceil(math.log2(norm / 0.25)))) if norm > 0.25 else 0
    X = A / (2 ** squarings)
    out = np.eye(A.shape[0], dtype=A.dtype)
    term = np.eye(A.shape[0], dtype=A.dtype)
    for k in range(1, 30):
        term = term @ X / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


# --- closed forms -----------------------------------------------------------


def fourier_h1(n: int) -> int:
    """dim H^1 of the Fourier representation: sum_{k<n} (gcd(n, k) - 1)."""
    return sum(math.gcd(n, k) - 1 for k in range(1, n))


def cycles(sigma) -> list[tuple[int, ...]]:
    """All cycles of a 1-based image tuple, fixed points included."""
    seen, out = set(), []
    for start in range(1, len(sigma) + 1):
        if start in seen:
            continue
        cyc, nxt = [start], sigma[start - 1]
        seen.add(start)
        while nxt != start:
            cyc.append(nxt)
            seen.add(nxt)
            nxt = sigma[nxt - 1]
        out.append(tuple(cyc))
    return out


def perm_h1(sigma, mult: int = 1) -> int:
    """mult * (cyc - fix - 1), the number of nontrivial cycles less one; 0 at the identity."""
    nontrivial = sum(1 for c in cycles(sigma) if len(c) > 1)
    return mult * max(nontrivial - 1, 0)


def meet_rank(P: np.ndarray, Q: np.ndarray) -> int:
    """dim(range(I - P) cap range(I - Q)), by rank additivity."""
    d = P.shape[0]
    A, B = np.eye(d) - P, np.eye(d) - Q
    return rank(A) + rank(B) - rank(np.hstack([A, B]))


def two_block_pairing(P: np.ndarray, Q: np.ndarray, xi: np.ndarray, zeta: np.ndarray) -> float:
    """max_k |Im <zeta, (PQ)^k xi>| over k < d; zero exactly for symmetric two-block triples."""
    PQ = P @ Q
    w = np.asarray(xi, dtype=complex)
    worst = 0.0
    for _ in range(P.shape[0]):
        worst = max(worst, abs(complex(np.vdot(zeta, w)).imag))
        w = PQ @ w
    return worst


def modular_poisson(mu: float, ell: int, r: int) -> float:
    """P(N = r mod ell) for N ~ Poisson(mu), by direct summation of the pmf."""
    total, pmf = 0.0, math.exp(-mu)
    # the tail beyond mu + 12 sqrt(mu) + 60 is below 1e-20 for the rates used
    for k in range(int(mu + 12.0 * math.sqrt(mu)) + 60):
        if k % ell == r:
            total += pmf
        pmf *= mu / (k + 1)
    return total


def classical_marginals(sigma, rates, t: float) -> np.ndarray:
    """P(X_t(i) = j) for one Poisson clock per nontrivial cycle."""
    n = len(sigma)
    out = np.zeros((n, n))
    nontrivial = [c for c in cycles(sigma) if len(c) > 1]
    for c in cycles(sigma):
        if len(c) == 1:
            out[c[0] - 1, c[0] - 1] = 1.0
    for cyc, lam in zip(nontrivial, rates):
        ell = len(cyc)
        for r in range(ell):
            p = modular_poisson(lam * t, ell, r)
            for a, origin in enumerate(cyc):
                out[origin - 1, cyc[(a + r) % ell] - 1] = p
    return out


def joint_law(sigma, rates, t: float, letters) -> float:
    """Probability that X_t(i) = j for every letter p(i,j) of the word.

    The p_ij commute in the classical process, so a word is the indicator of
    a conjunction. Each nontrivial cycle needs one consistent shift; the
    cycles' clocks are independent, so the probability is a product of
    modular Poisson sums.
    """
    nontrivial = [c for c in cycles(sigma) if len(c) > 1]
    where = {}
    for idx, cyc in enumerate(nontrivial):
        for pos, v in enumerate(cyc):
            where[v] = (idx, pos)
    shifts: dict[int, int] = {}
    for i, j in letters:
        if i not in where:
            if i != j:
                return 0.0
            continue
        ci, pi = where[i]
        if j not in where or where[j][0] != ci:
            return 0.0
        s = (where[j][1] - pi) % len(nontrivial[ci])
        if shifts.setdefault(ci, s) != s:
            return 0.0
    prob = 1.0
    for ci, s in shifts.items():
        prob *= modular_poisson(rates[ci] * t, len(nontrivial[ci]), s)
    return prob
