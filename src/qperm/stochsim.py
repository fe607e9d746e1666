"""Monte-Carlo and exact marginals for classical-permutation Levy processes.

The process is X_t = sigma^{N_t} with one independent Poisson clock per
nontrivial cycle of sigma; positions inside a cycle of length ell shift by
the clock count mod ell, so the marginal probabilities are modular Poisson
sums, evaluated exactly with a roots-of-unity filter.

Clock counts: `simulate_marginals` keeps only the histogram of each block's
counts mod ell. A cycle whose mean rate * t is below 10 folds the Poisson
pmf mod ell once per call, and the histogram of a block is one
`Generator.multinomial` draw over that residue law. At a mean of 10 and
above, where numpy's own sampler switches from the multiplication method
to PTRS, whose cost does not grow with the mean, the counts come from
`Generator.poisson`, tallied in chunks of 8,192 draws that continue one
stream, so temporaries do not grow with the block size. `path_sample`
draws all its grid increments of a cycle with one `Generator.poisson` call.

Seed discipline: numpy SeedSequence(seed) is spawned once per cycle in the
stored cycle order, and each cycle's stream is spawned again per sample
block. Every block has its own bit generator and its tally is a vector of
integer counts. `simulate_marginals` tallies the blocks in the caller's
thread, one after another, so the output does not depend on the core count.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import perms
from .errors import ValidationError, _charge, check_time
from .magic import from_permutation
from .schurmann import SchurmannTriple

#: samples drawn per substream block
BLOCK_SIZE = 1 << 16
#: the largest Poisson mean numpy's sampler accepts
_POISSON_LAM_MAX = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)
#: below this mean a block is one multinomial draw; numpy switches to PTRS here
_PTRS_LAM_MIN = 10.0
#: PTRS draws tallied per numpy call, so temporaries stay O(1) in the block size
_CHUNK = 1 << 13


@dataclass(frozen=True)
class PermProcessSpec:
    """A permutation together with one Poisson rate per nontrivial cycle.

    `rates` may be a sequence aligned with the nontrivial cycles in
    min-element order, or a mapping with one key per nontrivial cycle: the
    cycle as a tuple (any rotation) or its minimum element.  `cycles` holds
    the nontrivial cycles in min-element order, aligned with `rates`.
    """

    sigma: tuple[int, ...]
    rates: tuple[float, ...]
    cycles: list[tuple[int, ...]] = field(init=False, repr=False, compare=False)

    def __init__(self, sigma, rates):
        sigma = perms.check_perm(sigma)
        cycs = perms.nontrivial_cycles(sigma)
        try:
            if isinstance(rates, dict):
                rates = _rates_by_cycle(rates, cycs)
            else:
                rates = [float(v) for v in rates]
        except (TypeError, ValueError) as exc:
            raise ValidationError(
                f"rates must be numbers, in a sequence or keyed by cycle: {exc}") from exc
        if len(rates) != len(cycs):
            raise ValidationError(f"{len(cycs)} nontrivial cycles but {len(rates)} rates given")
        if not all(math.isfinite(lam) and lam > 0 for lam in rates):
            raise ValidationError(f"all cycle rates must be finite and > 0, got {rates}")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "rates", tuple(rates))
        object.__setattr__(self, "cycles", cycs)

    @property
    def n(self) -> int:
        return len(self.sigma)


def _rates_by_cycle(rates: dict, cycs) -> list[float]:
    """The rates of a mapping aligned with `cycs`; every cycle named by exactly one key."""
    names = {c[0]: c for c in cycs}  # the minimum
    names.update((c[a:] + c[:a], c) for c in cycs for a in range(len(c)))
    found: dict = {}
    for key, lam in rates.items():
        cyc = names.get(int(key) if isinstance(key, numbers.Integral) else tuple(key))
        if cyc is None:
            raise ValidationError(
                f"rate key {key!r} is neither a nontrivial cycle nor its minimum")
        if cyc in found:
            raise ValidationError(f"more than one rate for cycle {cyc}")
        found[cyc] = float(lam)
    for c in cycs:
        if c not in found:
            raise ValidationError(f"missing rate for cycle {c}")
    return [found[c] for c in cycs]


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
    """probs[r] = P(N = r mod ell) for N ~ Poisson(lam_t), roots-of-unity filter.

    Rounding can leave an entry a few ulp below 0, so the law is clipped at 0
    and renormalised.
    """
    m = np.arange(ell)
    omega = np.exp(2j * np.pi * m / ell)
    weights = np.exp(lam_t * (omega - 1.0))
    phases = np.exp(-2j * np.pi * np.outer(m, m) / ell)
    law = np.clip((weights @ phases).real, 0.0, None)
    return law / law.sum()


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


def _residue_law(lam_t: float, ell: int) -> np.ndarray:
    """law[r] = P(N = r mod ell) for N ~ Poisson(lam_t), folded from the pmf.

    The pmf runs p_k = p_{k-1} * lam_t / k from e^{-lam_t} until a term no
    longer changes the float sum; it is folded mod ell and renormalised.
    The estimates are checked against `_modular_poisson`, so the sampler
    does not draw from it.
    """
    term = math.exp(-lam_t)
    pmf, total = [term], term
    while True:
        term = term * lam_t / len(pmf)
        if total + term == total:
            break
        pmf.append(term)
        total += term
    law = np.bincount(np.arange(len(pmf)) % ell, weights=pmf, minlength=ell)
    return law / law.sum()


def _tally(rng: np.random.Generator, take: int, lam_t: float, ell: int, law) -> np.ndarray:
    """Histogram of `take` Poisson(lam_t) counts mod ell.

    Given the residue law, the histogram is Multinomial(take, law), so one
    draw gives it in O(ell) work. Without it (law None, at a mean of
    `_PTRS_LAM_MIN` and above) the counts come from `Generator.poisson` in
    chunks of `_CHUNK`, which continue one stream.
    """
    if law is not None:
        return rng.multinomial(take, law)
    hist = np.zeros(ell, dtype=np.int64)
    for start in range(0, take, _CHUNK):
        counts = rng.poisson(lam_t, min(_CHUNK, take - start))
        hist += np.bincount(np.remainder(counts, ell, out=counts), minlength=ell)
    return hist


def _check_means(means, what: str) -> None:
    """Raise ValidationError, before any draw, if a Poisson mean is beyond numpy's limit."""
    if any(lam > _POISSON_LAM_MAX for lam in means):
        raise ValidationError(
            f"{what} must be at most {_POISSON_LAM_MAX:.4g} for Poisson sampling")


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
    rate * t below 10 takes one multinomial draw per block over the Poisson
    law folded mod its length, in O(ell) work whatever the block size; at 10
    and above the counts come from `Generator.poisson` (PTRS) in chunks of
    8,192 draws, so memory does not grow with `block_size`. The blocks are
    tallied one after another in the calling thread; each tally is a vector
    of integer counts, so the returned bytes depend only on the seed, the
    sample count and the block size.  A rate * t above numpy's Poisson limit
    (about 9.2e18) raises ValidationError before any draw.  The draws are
    charged to the term budget before the first one: one per block for a
    cycle with rate * t below 10 and one per sample at 10 and above, summed
    over the cycles.
    """
    _check_count("samples", samples)
    _check_count("block_size", block_size)
    check_time(t)
    _check_means((lam * t for lam in spec.rates), "rate * t")
    nblocks = (samples + block_size - 1) // block_size
    _charge(sum(nblocks if lam * t < _PTRS_LAM_MIN else samples for lam in spec.rates),
            "Monte-Carlo sampling", "draws")
    streams = np.random.SeedSequence(seed).spawn(len(spec.rates))
    laws = []
    for cyc, lam, stream in zip(spec.cycles, spec.rates, streams):
        ell, lam_t = len(cyc), lam * t
        law = _residue_law(lam_t, ell) if lam_t < _PTRS_LAM_MIN else None
        hist = np.zeros(ell, dtype=np.int64)
        for b, blk in enumerate(stream.spawn(nblocks)):
            take = min(block_size, samples - b * block_size)
            hist += _tally(np.random.Generator(np.random.PCG64(blk)), take, lam_t, ell, law)
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
    draws its Poisson(rate * dt) counts, one per grid interval, in one
    `Generator.poisson` call on its own stream, and its shift at a grid time
    is the running sum mod ell, so the cost does not grow with the rates. A
    rate * dt above numpy's Poisson limit raises ValidationError before any
    draw.
    """
    times = [float(v) for v in times]
    for v in times:
        check_time(v)
    if any(b < a for a, b in zip(times, times[1:])):
        raise ValidationError("time grid must be nondecreasing and nonnegative")
    steps = np.diff(times, prepend=0.0)
    _check_means((lam * dt for lam in spec.rates for dt in steps), "rate * dt")
    cycles = spec.cycles
    streams = np.random.SeedSequence(seed).spawn(len(spec.rates))
    shifts = []
    for cyc, lam, stream in zip(cycles, spec.rates, streams):
        counts = np.random.Generator(np.random.PCG64(stream)).poisson(lam * steps)
        # fold before the running sum: counts near 9.2e18 would overflow it
        shifts.append(np.cumsum(counts % len(cyc)) % len(cyc))
    out = []
    for k in range(len(times)):
        images = list(range(1, spec.n + 1))
        for cyc, shift in zip(cycles, shifts):
            ell = len(cyc)
            for a, origin in enumerate(cyc):
                images[origin - 1] = cyc[(a + int(shift[k])) % ell]
        out.append(tuple(images))
    return out
