"""Cross-validation checks shared by the test battery and `qperm selftest`.

Every check pits one code path against an independent oracle: a closed-form
count, brute-force enumeration, a second algorithm, or classical Monte-Carlo.
The keyword defaults are the full scales used by the acceptance tests; the
CLI runs the reduced "quick" profile.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import Polynomial

from . import _kernel, perms
from .errors import ValidationError
from .central import (
    AdInvariantSpec,
    DiscreteMeasure,
    ad_invariant_value,
    character_polynomial,
    chebyshev_u,
    dims,
    hunt_apply_polynomial,
)
from .cohomology import (
    coboundary_space,
    cocycle_space,
    gaussian_subspace,
    fourier_h1_formula,
    h1_dim,
    h1_representatives,
    perm_h1_formula,
    projection_meet,
    projection_rank,
)
from .magic import (
    MagicUnitary,
    TwoBlockSpec,
    f4_phi,
    fourier,
    from_hadamard,
    from_permutation,
    two_block,
)
from .schurmann import (
    SchurmannTriple,
    _relation_defect,
    _sweep_words,
    eta,
    gen_functional,
    gen_functional_batch,
    is_symmetric_words,
    poisson_certificate,
    poisson_value,
    random_cocycle,
    triple_from_stacked,
    two_block_symmetry,
    two_block_triple,
)
from .semigroup import conv_exp, fundamental_semigroup, generator_matrix
from .stochsim import PermProcessSpec, exact_marginals, process_triple, simulate_marginals
from .words import LinComb, Word, _random_word_array, adjoint, coproduct_terms, counit


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.detail}"


def _fail(name: str, detail: str) -> CheckResult:
    return CheckResult(name, False, detail)


def _ok(name: str, detail: str) -> CheckResult:
    return CheckResult(name, True, detail)


# --- random generators --------------------------------------------------------


def random_unitary(rng, d: int) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    ph = np.diag(r)
    return q * (ph / np.abs(ph))


def random_projection(rng, d: int, rank: int | None = None, real: bool = False) -> np.ndarray:
    if rank is None:
        rank = int(rng.integers(0, d + 1))
    if rank == 0:
        return np.zeros((d, d), dtype=complex)
    z = rng.standard_normal((d, rank))
    if not real:
        z = z + 1j * rng.standard_normal((d, rank))
    q, _ = np.linalg.qr(z)
    return (q @ q.conj().T).astype(complex)


def conjugate_rep(M: MagicUnitary, U: np.ndarray) -> MagicUnitary:
    """Blockwise U P_ij U*; magic structure is preserved."""
    return MagicUnitary(np.einsum("ab,ijbc,dc->ijad", U, M.blocks, U.conj()))


def random_rep(rng, n_max: int = 4, d_max: int = 4, n_exact: int | None = None) -> MagicUnitary:
    """A random magic unitary drawn from the constructions the package knows."""
    n = int(n_exact) if n_exact is not None else int(rng.integers(2, n_max + 1))
    kinds = ["perm"]
    if n <= d_max:
        kinds.append("fourier")
    if n == 4:
        kinds += ["f4", "two_block"]
    kind = kinds[int(rng.integers(0, len(kinds)))]
    if kind == "perm":
        sigma = perms.random_permutation(rng, n)
        d = int(rng.integers(1, d_max + 1))
        M = from_permutation(sigma, d)
    elif kind == "fourier":
        M = from_hadamard(fourier(n))
    elif kind == "f4":
        M = from_hadamard(f4_phi(float(rng.uniform(0.0, np.pi))))
    else:
        d = int(rng.integers(1, d_max + 1))
        M = two_block(TwoBlockSpec(random_projection(rng, d), random_projection(rng, d)))
    if rng.uniform() < 0.5:
        M = conjugate_rep(M, random_unitary(rng, M.d))
    return M


def random_triple(
    rng, n_max: int = 4, d_max: int = 4, n_exact: int | None = None, scale: float = 1.0
) -> SchurmannTriple:
    """A random Schurmann triple, biased toward a nonzero cocycle."""
    M = random_rep(rng, n_max, d_max, n_exact)
    for _ in range(5):
        xs = random_cocycle(M, rng, scale)
        if np.max(np.abs(xs)) > 1e-9:
            break
        M = random_rep(rng, n_max, d_max, n_exact)
    return SchurmannTriple(M, xs)


def random_reduced_word(rng, n: int, max_len: int = 4, min_len: int = 1) -> Word:
    length = int(rng.integers(min_len, max_len + 1))
    return Word(_random_word_array(rng, n, 1, length)[0].tolist(), n)


def random_lincomb(rng, n: int, max_len: int = 3, terms: int = 3) -> LinComb:
    parts = {}
    for _ in range(terms):
        w = random_reduced_word(rng, n, max_len)
        parts[w] = complex(rng.standard_normal(), rng.standard_normal())
    return LinComb(parts, n)


def _partition_perms(n: int) -> list[perms.Perm]:
    """One permutation per cycle type of S_n, blocks of consecutive points."""

    def partitions(m: int, cap: int) -> list[list[int]]:
        if m == 0:
            return [[]]
        out = []
        for head in range(min(m, cap), 0, -1):
            out += [[head] + rest for rest in partitions(m - head, head)]
        return out

    result = []
    for part in partitions(n, n):
        images = []
        start = 1
        for size in part:
            block = list(range(start, start + size))
            images += block[1:] + block[:1]
            start += size
        result.append(tuple(images))
    return result


# --- the eleven checks --------------------------------------------------------


def check_perm_cohomology(
    exhaustive_max: int = 5,
    random_count: int = 200,
    random_ns: tuple[int, ...] = (6, 7, 8),
    seed: int = 0,
) -> CheckResult:
    """h1 of a permutation representation vs the cycle-count formula."""
    name = "perm-cohomology"
    checked = 0
    for n in range(2, exhaustive_max + 1):
        for images in itertools.permutations(range(1, n + 1)):
            sigma = tuple(images)
            want = perm_h1_formula(sigma)
            got = h1_dim(from_permutation(sigma))
            if got != want:
                return _fail(name, f"sigma={sigma}: h1={got}, formula={want}")
            checked += 1
    rng = np.random.default_rng(seed)
    for _ in range(random_count):
        n = int(random_ns[int(rng.integers(0, len(random_ns)))])
        sigma = perms.random_permutation(rng, n)
        want = perm_h1_formula(sigma)
        got = h1_dim(from_permutation(sigma))
        if got != want:
            return _fail(name, f"sigma={sigma}: h1={got}, formula={want}")
    return _ok(name, f"{checked} exhaustive + {random_count} random permutations agree")


def check_fourier_cohomology(n_max: int = 10) -> CheckResult:
    """h1 of the Fourier representation vs the gcd sum."""
    name = "fourier-cohomology"
    got = {}
    for n in range(2, n_max + 1):
        want = fourier_h1_formula(n)
        have = h1_dim(from_hadamard(fourier(n)))
        if have != want:
            return _fail(name, f"n={n}: h1={have}, gcd formula={want}")
        got[n] = have
    return _ok(name, f"n=2..{n_max} match gcd sums: {got}")


def check_f4_jump(
    generic_phis: tuple[float, ...] = (0.0, 0.4, 1.2, 2.0, 3.0),
    special_phi: float = math.pi / 2,
) -> CheckResult:
    """h1 along the F4(phi) family: 1 generically, 3 at phi = pi/2."""
    name = "f4-jump"
    for phi in generic_phis:
        got = h1_dim(from_hadamard(f4_phi(phi)))
        if got != 1:
            return _fail(name, f"phi={phi}: h1={got}, expected 1")
    got = h1_dim(from_hadamard(f4_phi(special_phi)))
    if got != 3:
        return _fail(name, f"phi=pi/2: h1={got}, expected 3")
    return _ok(name, f"h1=1 at {len(generic_phis)} generic angles, 3 at pi/2")


def check_two_block_meet(pairs: int = 100, d_max: int = 6, seed: int = 0) -> CheckResult:
    """h1 of the two-block representation vs the lattice meet of complements."""
    name = "two-block-meet"
    rng = np.random.default_rng(seed)
    meets = 0
    for idx in range(pairs):
        d = int(rng.integers(2, d_max + 1))
        if idx % 4 == 0 and d >= 3:
            # engineered common directions in both complements
            k = int(rng.integers(1, d - 1))
            U = random_unitary(rng, d)
            shared = U[:, :k]

            def _proj_with(extra_cols):
                cols = np.hstack([shared, extra_cols]) if extra_cols.size else shared
                q, _ = np.linalg.qr(cols)
                return q @ q.conj().T

            ep = rng.standard_normal((d, int(rng.integers(0, d - k)))) * (1 + 0j)
            eq = rng.standard_normal((d, int(rng.integers(0, d - k)))) * (1 + 0j)
            P = np.eye(d) - _proj_with(ep + 1j * rng.standard_normal(ep.shape))
            Q = np.eye(d) - _proj_with(eq + 1j * rng.standard_normal(eq.shape))
        else:
            P = random_projection(rng, d)
            Q = random_projection(rng, d)
        eye = np.eye(d)
        meet_rank = projection_rank(projection_meet(eye - P, eye - Q))
        got = h1_dim(two_block(TwoBlockSpec(P, Q)))
        if got != meet_rank:
            return _fail(name, f"pair {idx} (d={d}): h1={got}, meet rank={meet_rank}")
        meets += int(meet_rank > 0)
    return _ok(name, f"{pairs} pairs agree; {meets} had a nontrivial meet")


def check_triple_consistency(
    triples: int = 50,
    pairs: int = 500,
    family: int = 6,
    n_max: int = 4,
    d_max: int = 4,
    seed: int = 0,
    tol: float = 1e-8,
    eig_tol: float = 1e-7,
) -> CheckResult:
    """Relations vanish, the coboundary identity holds, ker-eps Grams are PSD."""
    name = "triple-consistency"
    rng = np.random.default_rng(seed)
    worst_rel = worst_cob = worst_eig = 0.0
    for idx in range(triples):
        t = random_triple(rng, n_max, d_max)
        n = t.n
        rel = _relation_defect(t)
        worst_rel = max(worst_rel, rel)
        if rel > tol:
            return _fail(name, f"triple {idx}: relation violated by {rel:.3e}")
        for _ in range(pairs):
            a = random_reduced_word(rng, n, 3)
            b = random_reduced_word(rng, n, 3)
            lhs = gen_functional(t, a * b)
            rhs = (
                complex(np.vdot(eta(t, adjoint(a)), eta(t, b)))
                + counit(a) * gen_functional(t, b)
                + gen_functional(t, a) * counit(b)
            )
            dev = abs(lhs - rhs)
            worst_cob = max(worst_cob, dev)
            if dev > tol:
                return _fail(name, f"triple {idx}: coboundary identity off by {dev:.3e}")
        ys = []
        for _ in range(family):
            x = random_lincomb(rng, n)
            ys.append(x - LinComb.unit(n, counit(x)))
        gram = np.array(
            [[gen_functional(t, adjoint(ya) * yb) for yb in ys] for ya in ys]
        )
        low = float(np.linalg.eigvalsh((gram + gram.conj().T) / 2.0)[0])
        worst_eig = min(worst_eig, low)
        if low < -eig_tol:
            return _fail(name, f"triple {idx}: ker-eps Gram has eigenvalue {low:.3e}")
    return _ok(
        name,
        f"{triples} triples: relations <= {worst_rel:.1e}, "
        f"coboundary <= {worst_cob:.1e}, min Gram eig >= {worst_eig:.1e}",
    )


def _series_oracle(t: SchurmannTriple, w: Word, times, order: int, tol: float) -> list[complex]:
    """omega_t(w) = sum_k t^k/k! L^{*k}(w) by truncated series, at each time.

    The oracle for `conv_exp`, sharing none of its route: L^{*k} comes from
    `coproduct_terms` and scalar `gen_functional` over the closure of reduced
    right coproduct legs.  The transfer matrix T on the closure, T[s, v] =
    sum of mult * L(left leg) over the coproduct terms (left, v) of s, gives
    L^{*k}(s) = (T^k eps)[s].  exp(time T) eps is summed as `steps` Taylor
    steps of length h with h ||T||_inf <= 1, so the partial sums do not
    cancel; each step keeps at least `order` terms, more until the step's
    tail bound b^(K+1)/(K+1)! e^b, b = h ||T||_inf, is below tol / steps.
    """
    n = t.n
    root = _kernel.reduce_letters(w.letters)
    if root is None:
        return [0j] * len(times)
    table: dict = {}
    todo = [root]
    while todo:
        s = todo.pop()
        if s in table:
            continue
        row: dict = {}
        for (left, right), mult in coproduct_terms(Word(s, n), 2).items():
            row[right] = row.get(right, 0j) + mult * complex(gen_functional(t, Word(left, n)))
        table[s] = row
        todo.extend(v for v in row if v not in table)
    pos = {s: i for i, s in enumerate(table)}
    T = np.zeros((len(pos), len(pos)), dtype=complex)
    for s, row in table.items():
        for v, c in row.items():
            T[pos[s], pos[v]] = c
    eps = np.array([counit(Word(s, n)) for s in table], dtype=complex)
    norm = float(np.max(np.abs(T).sum(axis=1)))
    out = []
    for time in times:
        steps = max(1, math.ceil(time * norm))
        b, K = time * norm / steps, order
        while b > 0 and (K + 1) * math.log(b) - math.lgamma(K + 2) + b > math.log(tol / steps):
            K += 1
        vals = eps
        for _ in range(steps):
            term = total = vals
            for k in range(1, K + 1):
                term = (time / steps / k) * (T @ term)
                total = total + term
            vals = total
        out.append(complex(vals[pos[root]]))
    return out


def check_series_vs_expm(
    triples: int = 20,
    times: tuple[float, ...] = (0.1, 0.5, 1.0),
    order: int = 25,
    tol: float = 1e-6,
    seed: int = 0,
) -> CheckResult:
    """conv_exp against the matrix exponential on letters and the series on words.

    Letters: every p(i,j) against `fundamental_semigroup`, on triples as drawn.
    Words: one random reduced word of each length 2-4 on the first three
    triples, against the truncated series summed to at least
    `order` terms and until its tail bound is below tol / 10.
    """
    name = "series-vs-expm"
    rng = np.random.default_rng(seed)
    word_rng = np.random.default_rng([seed, 1])
    worst_letter = worst_word = 0.0
    for idx in range(triples):
        t = random_triple(rng, n_exact=4, d_max=4)
        n = t.n
        for time in times:
            E = fundamental_semigroup(t, time)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    val, _ = conv_exp(t, time, Word(((i, j),), n))
                    dev = abs(val - E[i - 1, j - 1])
                    worst_letter = max(worst_letter, dev)
                    if dev > tol:
                        return _fail(
                            name, f"triple {idx}, t={time}, p({i},{j}): off by {dev:.3e}"
                        )
        if idx >= 3:
            continue
        for length in (2, 3, 4):
            w = random_reduced_word(word_rng, n, length, length)
            want = _series_oracle(t, w, times, order, tol / 10)
            for time, ref in zip(times, want):
                dev = abs(conv_exp(t, time, w)[0] - ref)
                worst_word = max(worst_word, dev)
                if dev > tol:
                    return _fail(
                        name, f"triple {idx}, t={time}, {w.letters}: series off by {dev:.3e}"
                    )
    return _ok(
        name,
        f"{triples} triples x {len(times)} times: letters agree with expm to "
        f"{worst_letter:.1e}; words of length 2-4 on {min(triples, 3)} "
        f"triples agree with the series to {worst_word:.1e}",
    )


def check_no_gaussian(
    reps: int = 50, zero_reps: int = 5, max_len: int = 4, seed: int = 0
) -> CheckResult:
    """Zero cocycle gives the zero functional; Gaussian subspace is always {0}."""
    name = "no-gaussian"
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(zero_reps):
        M = random_rep(rng, n_max=4, d_max=4)
        t0 = SchurmannTriple(M, np.zeros((M.n, M.d), dtype=complex))
        for batch in _sweep_words(M.n, max_len, rng):
            worst = max(worst, float(np.max(np.abs(gen_functional_batch(t0, batch)), initial=0.0)))
        if worst > 1e-12:
            return _fail(name, f"zero tuple gives |L| up to {worst:.3e}")
    for idx in range(reps):
        M = random_rep(rng, n_max=4, d_max=4)
        dim = gaussian_subspace(M).dim
        if dim != 0:
            return _fail(name, f"rep {idx} (n={M.n}, d={M.d}): Gaussian subspace dim {dim}")
    return _ok(name, f"zero tuple: max |L| = {worst:.1e}; {reps} reps have trivial subspace")


def check_two_block_symmetry(
    cases: int = 200, d_max: int = 5, max_len: int = 4, seed: int = 0
) -> CheckResult:
    """Pairing criterion vs exhaustive word sweep, plus the C^3 counterexample."""
    name = "two-block-symmetry"
    rng = np.random.default_rng(seed)
    symmetric_seen = 0
    for idx in range(cases):
        d = int(rng.integers(2, d_max + 1))
        real = idx % 2 == 0
        while True:
            P = random_projection(rng, d, real=real)
            Q = random_projection(rng, d, real=real)
            v = rng.standard_normal(d) + (0 if real else 1j * rng.standard_normal(d))
            w = rng.standard_normal(d) + (0 if real else 1j * rng.standard_normal(d))
            xi = v - P @ v
            zeta = w - Q @ w
            if np.linalg.norm(xi) > 1e-6 and np.linalg.norm(zeta) > 1e-6:
                break
        spec = TwoBlockSpec(P, Q)
        fast = two_block_symmetry(spec, xi, zeta)
        slow, worst = is_symmetric_words(two_block_triple(spec, xi, zeta), max_len)
        if fast != slow:
            return _fail(
                name,
                f"case {idx} (d={d}): pairing says {fast}, word sweep says {slow} "
                f"(worst {worst:.3e})",
            )
        symmetric_seen += int(fast)
    v = np.array([1.0, 0.0, 1.0j])
    P = np.diag([1.0, 1.0, 0.0]).astype(complex)
    q = np.full(3, 1.0 / np.sqrt(3.0))
    Q = np.outer(q, q).astype(complex)
    spec = TwoBlockSpec(P, Q)
    xi = v - P @ v
    zeta = v - Q @ v
    fast = two_block_symmetry(spec, xi, zeta)
    slow, _ = is_symmetric_words(two_block_triple(spec, xi, zeta), max_len)
    if fast or slow:
        return _fail(name, f"C^3 counterexample classified symmetric ({fast}, {slow})")
    return _ok(name, f"{cases} cases agree ({symmetric_seen} symmetric); counterexample rejected")


def check_poisson_split(
    n_max: int = 5, words: int = 200, word_len: int = 4, seed: int = 0, tol: float = 1e-7
) -> CheckResult:
    """Certificates exist exactly on the coboundary side; values match on words."""
    name = "poisson-coboundary"
    rng = np.random.default_rng(seed)
    reps: list[tuple[str, MagicUnitary]] = []
    for n in range(2, n_max + 1):
        for sigma in _partition_perms(n):
            reps.append((f"perm{sigma}", from_permutation(sigma)))
        reps.append((f"fourier({n})", from_hadamard(fourier(n))))
    cob_dirs = rep_dirs = 0
    worst = 0.0
    for label, M in reps:
        b = coboundary_space(M)
        for row in b.vectors:
            t = triple_from_stacked(M, row)
            cert = poisson_certificate(t)
            if cert is None:
                return _fail(name, f"{label}: coboundary direction has no certificate")
            for _ in range(words):
                wd = random_reduced_word(rng, M.n, word_len)
                dev = abs(gen_functional(t, wd) - poisson_value(t, cert.v, wd))
                worst = max(worst, dev)
                if dev > tol:
                    return _fail(name, f"{label}: Poisson form off by {dev:.3e} on {wd!r}")
            cob_dirs += 1
        for row in h1_representatives(M).vectors:
            t = triple_from_stacked(M, row)
            if poisson_certificate(t) is not None:
                return _fail(name, f"{label}: non-coboundary direction got a certificate")
            rep_dirs += 1
    return _ok(
        name,
        f"{cob_dirs} coboundary directions certified (worst {worst:.1e}), "
        f"{rep_dirs} cohomology directions rejected",
    )


def check_stochastic_oracle(
    samples: int = 100_000,
    seed: int = 0,
    lams: tuple[float, ...] = (0.5, 1.0),
    ts: tuple[float, ...] = (0.5, 1.0),
    nsigma: float = 4.0,
    sg_tol: float = 1e-10,
) -> CheckResult:
    """Monte-Carlo marginals vs exact Poisson sums vs the semigroup route."""
    name = "stochastic-oracle"
    sigmas = [(2, 3, 4, 1), (2, 1, 4, 5, 3)]  # (1 2 3 4) and (1 2)(3 4 5)
    idx = 0
    worst_z = 0.0
    worst_sg = 0.0
    for sigma in sigmas:
        ncyc = len([c for c in perms.cycles(sigma) if len(c) > 1])
        for lam in lams:
            for t in ts:
                spec = PermProcessSpec(sigma, [lam] * ncyc)
                exact = exact_marginals(spec, t)
                est = simulate_marginals(spec, t, samples, seed + idx)
                idx += 1
                sd = np.sqrt(exact * (1.0 - exact) / samples)
                diff = np.abs(est.probs - exact)
                if np.any(diff > nsigma * sd + 1e-15):
                    bad = np.unravel_index(np.argmax(diff - nsigma * sd), diff.shape)
                    return _fail(
                        name,
                        f"sigma={sigma}, lam={lam}, t={t}: entry {bad} off by "
                        f"{diff[bad]:.3e} (allowed {nsigma * sd[bad]:.3e})",
                    )
                with np.errstate(invalid="ignore", divide="ignore"):
                    z = np.where(sd > 0, diff / np.where(sd > 0, sd, 1.0), 0.0)
                worst_z = max(worst_z, float(np.max(z)))
                sg = fundamental_semigroup(process_triple(spec), t)
                dev = float(np.max(np.abs(sg - exact)))
                worst_sg = max(worst_sg, dev)
                if dev > sg_tol:
                    return _fail(
                        name, f"sigma={sigma}, lam={lam}, t={t}: semigroup off by {dev:.3e}"
                    )
    return _ok(
        name,
        f"{idx} runs x {samples} samples: max |z| = {worst_z:.2f} "
        f"(< {nsigma}); semigroup route agrees to {worst_sg:.1e}",
    )


def check_central(
    s_max: int = 8,
    n_lo: int = 4,
    n_hi: int = 9,
    specs: int = 100,
    points: int = 10,
    seed: int = 0,
    rel_tol: float = 1e-9,
    pos_tol: float = 1e-9,
) -> CheckResult:
    """Dimension recursion vs Chebyshev values, Hunt positivity, character recursion."""
    name = "central-formulas"
    for n in range(n_lo, n_hi + 1):
        fd = dims(n, s_max)
        for s, d_s in enumerate(fd.dims):
            u = chebyshev_u(2 * s, math.sqrt(n))
            if abs(d_s - u) > rel_tol * max(1.0, abs(u)):
                return _fail(name, f"n={n}, s={s}: d_s={d_s}, U_2s(sqrt n)={u}")
    rng = np.random.default_rng(seed)
    worst_pos = 0.0
    for idx in range(specs):
        n = int(rng.integers(n_lo, n_hi + 1))
        a = float(rng.uniform(0.0, 2.0))
        atoms = [
            (float(rng.uniform(0.0, 0.999 * n)), float(rng.uniform(0.05, 2.0)))
            for _ in range(int(rng.integers(1, 5)))
        ]
        spec = AdInvariantSpec(n, a, DiscreteMeasure(atoms))
        for _ in range(5):
            h = Polynomial(rng.standard_normal(3) + 1j * rng.standard_normal(3))
            g = h * Polynomial([-float(n), 1.0])  # root at n
            f = Polynomial((g * Polynomial(g.coef.conj())).coef.real)
            val = hunt_apply_polynomial(spec, f)
            worst_pos = min(worst_pos, val)
            if val < -pos_tol:
                return _fail(name, f"spec {idx}: Hunt value {val:.3e} on |g|^2 with g(n)=0")
        for s in range(0, 4):
            direct = ad_invariant_value(spec, s, 1, 1)
            d_s = dims(n, s).dims[s]
            via_poly = hunt_apply_polynomial(spec, character_polynomial(s)) / d_s
            if abs(direct - via_poly) > 1e-8 * (1.0 + abs(direct)):
                return _fail(
                    name, f"spec {idx}, s={s}: value {direct} vs polynomial route {via_poly}"
                )
    xs = np.random.default_rng(seed + 1).uniform(0.0, 9.0, size=points)
    chi = [character_polynomial(s) for s in range(0, 8)]
    for s in range(1, 6):
        for x in xs:
            lhs = chi[1](x) * chi[s](x)
            rhs = chi[s + 1](x) + chi[s](x) + chi[s - 1](x)
            if abs(lhs - rhs) > 1e-9 * (1.0 + abs(lhs)):
                return _fail(name, f"chi_1 chi_{s} at x={x}: {lhs} vs {rhs}")
    return _ok(
        name,
        f"dims match U_2s for n={n_lo}..{n_hi}; {specs} Hunt specs positive "
        f"(min {worst_pos:.1e}); character recursion holds at {points} points",
    )


# --- profiles -----------------------------------------------------------------

CHECKS = {
    "perm-cohomology": check_perm_cohomology,
    "fourier-cohomology": check_fourier_cohomology,
    "f4-jump": check_f4_jump,
    "two-block-meet": check_two_block_meet,
    "triple-consistency": check_triple_consistency,
    "series-vs-expm": check_series_vs_expm,
    "no-gaussian": check_no_gaussian,
    "two-block-symmetry": check_two_block_symmetry,
    "poisson-coboundary": check_poisson_split,
    "stochastic-oracle": check_stochastic_oracle,
    "central-formulas": check_central,
}

QUICK_OVERRIDES = {
    "perm-cohomology": dict(exhaustive_max=4, random_count=20),
    "fourier-cohomology": dict(n_max=8),
    "two-block-meet": dict(pairs=24, d_max=5),
    "triple-consistency": dict(triples=8, pairs=60),
    "series-vs-expm": dict(triples=4),
    "no-gaussian": dict(reps=10, zero_reps=2),
    "two-block-symmetry": dict(cases=40),
    "poisson-coboundary": dict(n_max=4, words=40),
    "stochastic-oracle": dict(samples=20_000),
    "central-formulas": dict(specs=20, s_max=6),
}


def run_all(profile: str = "quick", names=None) -> list[CheckResult]:
    """Run the checks; profile 'full' uses the acceptance scales."""
    if profile not in ("quick", "full"):
        raise ValidationError(f"unknown profile {profile!r}")
    chosen = list(CHECKS) if names is None else list(names)
    results = []
    for nm in chosen:
        if nm not in CHECKS:
            raise ValidationError(f"unknown check {nm!r}")
        kwargs = QUICK_OVERRIDES.get(nm, {}) if profile == "quick" else {}
        results.append(CHECKS[nm](**kwargs))
    return results
