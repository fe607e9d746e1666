"""Monte-Carlo and exact marginals for classical-permutation Levy processes.

The process is X_t = sigma^{N_t} with one independent Poisson clock per
nontrivial cycle of sigma; positions inside a cycle of length ell shift by
the clock count mod ell, so the marginal probabilities are modular Poisson
sums, evaluated exactly with a roots-of-unity filter.

Clock counts: a cycle whose mean rate * t is below 10 draws its counts from a
Walker alias table of Poisson(rate * t) (Walker 1977, Vose 1991), built once
per call, with one float64 uniform per count. At a mean of 10 and above,
where numpy's own sampler switches from the multiplication method to PTRS,
whose cost does not grow with the mean, the counts come from
`Generator.poisson`. Seeded outputs below the switch therefore differ from
versions that drew every count with `Generator.poisson`.

Seed discipline: numpy SeedSequence(seed) is spawned once per cycle in the
stored cycle order, and each cycle's stream is spawned again per sample
block. Every block has its own bit generator and its tally is a vector of
integer counts, taken in sub-chunks of 8,192 draws so that its
temporaries do not grow with the block size; the chunks continue one
stream, so they draw exactly what one call for the whole block would.
`simulate_marginals` tallies the blocks in the caller's thread, one after
another: numpy's `bincount` holds the GIL, so a thread pool gained nothing.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import perms
from .errors import ValidationError, check_time
from .magic import from_permutation
from .schurmann import SchurmannTriple

#: samples drawn per substream block
BLOCK_SIZE = 1 << 16
#: the largest Poisson mean numpy's sampler accepts
_POISSON_LAM_MAX = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)
#: below this mean counts come from an alias table; numpy switches to PTRS here
_ALIAS_LAM_MAX = 10.0
#: draws tallied per numpy call, so temporaries stay O(1) in the block size
_CHUNK = 1 << 13


@dataclass(frozen=True)
class PermProcessSpec:
    """A permutation together with one Poisson rate per nontrivial cycle.

    `rates` may be a sequence aligned with the nontrivial cycles in
    min-element order, or a mapping keyed by cycle tuple (any rotation) or
    by the cycle's minimum element.
    """

    sigma: tuple[int, ...]
    rates: tuple[float, ...]

    def __init__(self, sigma, rates):
        sigma = perms.check_perm(sigma)
        cycs = [c for c in perms.cycles(sigma) if len(c) > 1]
        if isinstance(rates, dict):
            normalized = {}
            for key, lam in rates.items():
                if isinstance(key, int):
                    normalized[key] = float(lam)
                else:
                    normalized[min(key)] = float(lam)
            try:
                rates = [normalized[min(c)] for c in cycs]
            except KeyError as exc:
                raise ValidationError(f"missing rate for cycle containing {exc}") from exc
        else:
            rates = [float(v) for v in rates]
            if len(rates) != len(cycs):
                raise ValidationError(
                    f"{len(cycs)} nontrivial cycles but {len(rates)} rates given"
                )
        if not all(math.isfinite(lam) and lam > 0 for lam in rates):
            raise ValidationError(f"all cycle rates must be finite and > 0, got {rates}")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "rates", tuple(rates))

    @property
    def n(self) -> int:
        return len(self.sigma)

    @property
    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles in min-element order, aligned with `rates`."""
        return [c for c in perms.cycles(self.sigma) if len(c) > 1]


@dataclass(frozen=True)
class MarginalEstimate:
    """Monte-Carlo estimate of the marginal matrix omega_t(p_ij)."""

    t: float
    probs: np.ndarray
    stderr: np.ndarray
    samples: int
    seed: int

    def __post_init__(self):
        for name in ("probs", "stderr"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _modular_poisson(lam_t: float, ell: int) -> np.ndarray:
    """probs[r] = P(N = r mod ell) for N ~ Poisson(lam_t), roots-of-unity filter."""
    m = np.arange(ell)
    omega = np.exp(2j * np.pi * m / ell)
    weights = np.exp(lam_t * (omega - 1.0))
    r = np.arange(ell)
    phases = np.exp(-2j * np.pi * np.outer(m, r) / ell)
    return (weights @ phases).real / ell


def _spread(spec: PermProcessSpec, laws) -> np.ndarray:
    """The n x n marginal matrix from one residue law per nontrivial cycle.

    Entry (i, j) inside a cycle is laws[c][r], r the cycle distance from i
    to j; fixed points give 1 on the diagonal; entries across cycles vanish.
    """
    out = np.diag([1.0 if image == i else 0.0 for i, image in enumerate(spec.sigma, start=1)])
    for cyc, law in zip(spec.cycles, laws):
        ell = len(cyc)
        for a, origin in enumerate(cyc):
            for r in range(ell):
                out[origin - 1, cyc[(a + r) % ell] - 1] = law[r]
    return out


def exact_marginals(spec: PermProcessSpec, t: float) -> np.ndarray:
    """Entry (i, j): probability that X_t maps i to j.

    Within a cycle this is the modular Poisson probability of advancing by
    the cycle distance from i to j; fixed points give delta_ij; entries
    across different cycles vanish.
    """
    check_time(t)
    return _spread(spec, [_modular_poisson(lam * t, len(cyc))
                          for cyc, lam in zip(spec.cycles, spec.rates)])


def _alias_table(lam_t: float) -> tuple[np.ndarray, np.ndarray]:
    """Walker alias table (prob, alias) of Poisson(lam_t), built as in Vose (1991).

    The pmf runs p_k = p_{k-1} * lam_t / k from e^{-lam_t} until a term no
    longer changes the float sum, and is renormalised; column i of K keeps i
    with probability prob[i] and gives alias[i] otherwise.
    """
    term = math.exp(-lam_t)
    pmf, total = [term], term
    while True:
        term = term * lam_t / len(pmf)
        if total + term == total:
            break
        pmf.append(term)
        total += term
    size = len(pmf)
    scaled = [size * p / total for p in pmf]
    prob, alias = [1.0] * size, list(range(size))
    small = [k for k, q in enumerate(scaled) if q < 1.0]
    large = [k for k, q in enumerate(scaled) if q >= 1.0]
    while small and large:
        s, g = small.pop(), large.pop()
        prob[s], alias[s] = scaled[s], g
        scaled[g] = (scaled[g] + scaled[s]) - 1.0
        (small if scaled[g] < 1.0 else large).append(g)
    return np.array(prob), np.array(alias, dtype=np.intp)


class _PoissonVariate:
    """Poisson(lam_t) counts drawn from a numpy Generator.

    Below `_ALIAS_LAM_MAX` a uniform u picks x = K u in column i = floor(x)
    of the alias table and gives i if x < thresh[i] = i + prob[i], else
    alias[i]: one uniform per count. At and above it, `Generator.poisson`.
    """

    def __init__(self, lam_t: float):
        self.lam_t = lam_t
        self.thresh = self.alias = None
        if lam_t < _ALIAS_LAM_MAX:
            prob, self.alias = _alias_table(lam_t)
            self.thresh = np.arange(len(prob)) + prob

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """`size` counts in one call."""
        if self.alias is None:
            return rng.poisson(self.lam_t, size)
        x = rng.random(size)
        x *= len(self.alias)  # K u < K for every float64 u < 1
        col = x.astype(np.intp)
        return np.where(x < self.thresh[col], col, self.alias[col])

    def tally(self, rng: np.random.Generator, take: int, ell: int) -> np.ndarray:
        """Histogram of `take` counts mod ell, the draws of `draw(rng, take)`.

        The draws run in chunks of `_CHUNK`; on the alias side each chunk
        tallies the codes 2i (column i kept) and 2i + 1 (alias[i] taken), and
        the codes fold into residues once at the end.
        """
        chunks = [min(_CHUNK, take - s) for s in range(0, take, _CHUNK)]
        hist = np.zeros(ell, dtype=np.int64)
        if self.alias is None:
            for m in chunks:
                counts = rng.poisson(self.lam_t, m)
                hist += np.bincount(np.remainder(counts, ell, out=counts), minlength=ell)
            return hist
        size = len(self.alias)
        codes = np.zeros(2 * size, dtype=np.int64)
        for m in chunks:
            x = rng.random(m)
            x *= size
            col = x.astype(np.intp)
            taken = x >= self.thresh[col]
            col <<= 1
            col += taken
            codes += np.bincount(col, minlength=2 * size)
        values = np.column_stack([np.arange(size), self.alias]).ravel()
        np.add.at(hist, values % ell, codes)
        return hist


def _check_count(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValidationError(f"{name} must be an integer >= 1, got {value!r}")


def simulate_marginals(
    spec: PermProcessSpec,
    t: float,
    samples: int,
    seed: int,
    block_size: int = BLOCK_SIZE,
) -> MarginalEstimate:
    """Tally X_t(i) = j over Poisson draws of the cycle clocks.

    Each cycle advances all its positions by the same Poisson count, so one
    draw per cycle per sample decides the whole block row. A cycle with
    rate * t below 10 draws its counts from one alias table of
    Poisson(rate * t), one float64 uniform each; at 10 and above they come
    from `Generator.poisson` (PTRS). Seeded estimates below 10 differ from
    versions that used `Generator.poisson` throughout. The blocks are tallied
    one after another in the calling thread, each in sub-chunks of 8,192
    draws, so memory does not grow with `block_size`; each tally is a vector
    of integer counts, so the returned bytes depend only on the seed, the
    sample count and the block size.  A rate * t above numpy's Poisson limit
    (about 9.2e18) raises ValidationError before any draw.
    """
    _check_count("samples", samples)
    _check_count("block_size", block_size)
    check_time(t)
    if any(lam * t > _POISSON_LAM_MAX for lam in spec.rates):
        raise ValidationError(
            f"rate * t must be at most {_POISSON_LAM_MAX:.4g} for Poisson sampling"
        )
    nblocks = (samples + block_size - 1) // block_size
    streams = np.random.SeedSequence(seed).spawn(len(spec.rates))
    laws = []
    for cyc, lam, stream in zip(spec.cycles, spec.rates, streams):
        ell = len(cyc)
        variate = _PoissonVariate(lam * t)
        hist = np.zeros(ell, dtype=np.int64)
        for b, blk in enumerate(stream.spawn(nblocks)):
            take = min(block_size, samples - b * block_size)
            hist += variate.tally(np.random.Generator(np.random.PCG64(blk)), take, ell)
        laws.append(hist / samples)
    probs = _spread(spec, laws)
    # fixed points have probs exactly 1, so their stderr is exactly 0
    stderr = np.sqrt(np.clip(probs * (1.0 - probs), 0.0, None) / samples)
    return MarginalEstimate(t, probs, stderr, samples, seed)


def process_triple(spec: PermProcessSpec, vectors=None) -> SchurmannTriple:
    """Generating triple whose semigroup reproduces the classical marginals.

    The representation is the permutation one with multiplicity d = number of
    nontrivial cycles; the cocycle is constant on each cycle, zero on fixed
    points, with squared norm equal to the cycle rate.  By default the cycle
    vectors are orthogonal (sqrt(rate) along distinct coordinates); `vectors`
    overrides them, one per cycle, and is rescaled to the rates.
    """
    cycs = spec.cycles
    d = max(len(cycs), 1)
    if vectors is None:
        vecs = [np.sqrt(lam) * np.eye(d)[c] for c, lam in enumerate(spec.rates)]
    else:
        if len(vectors) != len(cycs):
            raise ValidationError("need one vector per nontrivial cycle")
        vecs = []
        for v, lam in zip(vectors, spec.rates):
            v = np.asarray(v, dtype=complex)
            norm = np.linalg.norm(v)
            if v.shape != (d,) or norm == 0:
                raise ValidationError(f"cycle vectors must be nonzero of length {d}")
            vecs.append(np.sqrt(lam) * v / norm)
    xs = np.zeros((spec.n, d), dtype=complex)
    for cyc, v in zip(cycs, vecs):
        for i in cyc:
            xs[i - 1] = v
    return SchurmannTriple(from_permutation(spec.sigma, d), xs)


def path_sample(spec: PermProcessSpec, times, seed: int) -> list[tuple[int, ...]]:
    """Sample one path; X_t on the grid.

    The grid must be finite, nondecreasing and start at >= 0. Each cycle
    draws one Poisson(rate * dt) count per grid interval, with the variate
    of `simulate_marginals`, and its shift at a grid time is the running sum
    mod ell, so the cost does not depend on the rates. A rate * dt above
    numpy's Poisson limit raises ValidationError before any draw.
    """
    times = [float(v) for v in times]
    for v in times:
        check_time(v)
    if any(b < a for a, b in zip(times, times[1:])):
        raise ValidationError("time grid must be nondecreasing and nonnegative")
    steps = np.diff(times, prepend=0.0)
    if any(lam * dt > _POISSON_LAM_MAX for lam in spec.rates for dt in steps):
        raise ValidationError(
            f"rate * dt must be at most {_POISSON_LAM_MAX:.4g} for Poisson sampling"
        )
    streams = np.random.SeedSequence(seed).spawn(len(spec.rates))
    shifts = []
    for cyc, lam, stream in zip(spec.cycles, spec.rates, streams):
        rng = np.random.Generator(np.random.PCG64(stream))
        counts = [int(_PoissonVariate(lam * dt).draw(rng, 1)[0]) % len(cyc) for dt in steps]
        shifts.append(np.cumsum(counts) % len(cyc))
    out = []
    for k in range(len(times)):
        images = list(range(1, spec.n + 1))
        for cyc, shift in zip(spec.cycles, shifts):
            ell = len(cyc)
            for a, origin in enumerate(cyc):
                images[origin - 1] = cyc[(a + int(shift[k])) % ell]
        out.append(tuple(images))
    return out
