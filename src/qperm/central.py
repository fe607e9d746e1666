"""The character algebra of S_n+ and ad-invariant generating functionals.

Irreducible characters chi_s are identified with the polynomials
U_{2s}(sqrt(x)) on [0, n] (Chebyshev of the second kind); the counit is
evaluation at x = n, and d_s = U_{2s}(sqrt(n)).  An ad-invariant generating
functional is a Hunt pair (a, nu): a drift a >= 0 and a finite measure nu
supported on [0, n), acting on a polynomial f as

    L f = -a f'(n) + integral (f(x) - f(n)) / (n - x) dnu(x).
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice

import numpy as np
from numpy.polynomial import Polynomial

from .errors import ValidationError, _require_finite


def chebyshev_u(s: int, x: float) -> float:
    """U_s(x) by the three-term recursion U_{s+1} = x U_s - U_{s-1}."""
    return chebyshev_u_with_prime(s, x)[0]


def chebyshev_u_with_prime(s: int, x: float) -> tuple[float, float]:
    """(U_s(x), U_s'(x)) via the differentiated recursion."""
    if s < 0:
        raise ValidationError("s must be >= 0")
    return next(islice(_chebyshev_pass(x), s, None))


def _chebyshev_pass(x: float) -> Iterator[tuple[float, float]]:
    """(U_j(x), U_j'(x)) for j = 0, 1, 2, ..., one step of the recursion each."""
    u_prev, u_cur = 1.0, float(x)
    d_prev, d_cur = 0.0, 1.0
    yield u_prev, d_prev
    while True:
        yield u_cur, d_cur
        u_prev, u_cur = u_cur, x * u_cur - u_prev
        d_prev, d_cur = d_cur, u_prev + x * d_cur - d_prev


@dataclass(frozen=True)
class FusionData:
    """Irreducible dimensions d_0, d_1, ... for S_n+."""

    n: int
    dims: tuple[int, ...]


def dims(n: int, s_max: int) -> FusionData:
    """d_0 = 1, d_1 = n - 1, d_1 d_s = d_{s+1} + d_s + d_{s-1}.

    The values are cross-checked against the Chebyshev identification
    d_s = U_{2s}(sqrt(n)), carried through one pass of the recursion; an
    s_max whose d_s or U_{2s} leaves the float range raises ValidationError
    naming the largest usable s_max.
    """
    if n < 4:
        raise ValidationError("the character identification needs n >= 4")
    if s_max < 0:
        raise ValidationError("s_max must be >= 0")
    seq = [1, n - 1]
    while len(seq) <= s_max and seq[-1] <= sys.float_info.max:
        seq.append((n - 1) * seq[-1] - seq[-1] - seq[-2])
    seq = seq[: s_max + 1]
    root = math.sqrt(n)
    u_odd, u = 0.0, 1.0  # U_{2s-1}(sqrt n), U_{2s}(sqrt n) at s = 0
    for s, d in enumerate(seq):
        if s:
            u_odd = root * u - u_odd
            u = root * u_odd - u
        if d > sys.float_info.max or not math.isfinite(u):
            raise ValidationError(f"the dimensions at n={n} leave the float range at s={s}; "
                                  f"the largest usable s_max is {s - 1}")
        if abs(u - d) > 1e-9 * max(1.0, abs(d)):
            raise ValidationError(f"dimension recursion disagrees with U_{2*s}(sqrt {n})")
    return FusionData(n, tuple(seq))


def fusion_decompose(r: int, s: int) -> list[int]:
    """v^(r) (x) v^(s) = sum of v^(level) for level = |r-s| .. r+s, each once."""
    if r < 0 or s < 0:
        raise ValidationError("levels must be >= 0")
    return list(range(abs(r - s), r + s + 1))


def character_product(s: int) -> dict[int, int]:
    """Decomposition of chi_1 chi_s; for s >= 1 it is chi_{s+1} + chi_s + chi_{s-1}."""
    if s < 1:
        raise ValidationError("s must be >= 1")
    return {s + 1: 1, s: 1, s - 1: 1}


def character_polynomial(s: int) -> Polynomial:
    """chi_s as the polynomial U_{2s}(sqrt(x)), via the character recursion."""
    if s < 0:
        raise ValidationError("s must be >= 0")
    chi0 = Polynomial([1.0])
    chi1 = Polynomial([-1.0, 1.0])  # x - 1
    if s == 0:
        return chi0
    prev, cur = chi0, chi1
    for _ in range(s - 1):
        prev, cur = cur, chi1 * cur - cur - prev
    return cur


@dataclass(frozen=True)
class DiscreteMeasure:
    """A finite atomic measure: list of (position, weight) with weights > 0."""

    atoms: tuple[tuple[float, float], ...]

    def __init__(self, atoms):
        atoms = tuple((float(x), float(w)) for x, w in atoms)
        _require_finite(np.array(atoms), "atom positions and weights")
        for x, w in atoms:
            if w <= 0:
                raise ValidationError(f"atom weight must be > 0, got {w}")
            if x < 0:
                raise ValidationError(f"atom position must be >= 0, got {x}")
        object.__setattr__(self, "atoms", atoms)

    @property
    def mass(self) -> float:
        return sum(w for _, w in self.atoms)


@dataclass(frozen=True)
class AdInvariantSpec:
    """Hunt pair (a, nu) on [0, n): an ad-invariant generating functional."""

    n: int
    a: float
    nu: DiscreteMeasure = field(default_factory=lambda: DiscreteMeasure(()))

    def __post_init__(self):
        if self.n < 4:
            raise ValidationError("need n >= 4")
        _require_finite(self.a, "drift coefficient a")
        if self.a < 0:
            raise ValidationError("drift coefficient a must be >= 0")
        for x, _ in self.nu.atoms:
            if x >= self.n:
                raise ValidationError(
                    f"atom at x={x} outside [0, n): the integrand (f(x)-f(n))/(n-x) "
                    "is singular at x = n"
                )


def hunt_apply_polynomial(spec: AdInvariantSpec, f: Polynomial) -> float:
    """L f = -a f'(n) + sum of w (f(x) - f(n)) / (n - x) over the atoms."""
    n = spec.n
    fn = float(f(n))
    total = -spec.a * float(f.deriv()(n))
    for x, w in spec.nu.atoms:
        total += w * (float(f(x)) - fn) / (n - x)
    return total


def _level_dim(n: int, s: int, j: int, k: int) -> int:
    """d_s, once the level s >= 0 and the coefficient indices 1 <= j, k <= d_s are checked."""
    if s < 0:
        raise ValidationError("s must be >= 0")
    d_s = dims(n, s).dims[s]
    if not (1 <= j <= d_s and 1 <= k <= d_s):
        raise ValidationError(f"coefficient indices must lie in 1..{d_s}")
    return d_s


def ad_invariant_value(spec: AdInvariantSpec, s: int, j: int, k: int) -> float:
    """L(u^(s)_jk) = delta_jk / U_{2s}(sqrt n) * Hunt value on chi_s.

    The Hunt value is -a U'_{2s}(sqrt n)/(2 sqrt n)
    + sum of w (U_{2s}(sqrt x) - U_{2s}(sqrt n)) / (n - x).
    """
    _level_dim(spec.n, s, j, k)
    if j != k:
        return 0.0
    return _ad_invariant_values(spec, s)[s]


def _ad_invariant_values(spec: AdInvariantSpec, s_max: int) -> list[float]:
    """L(u^(s)_jj) for s = 0..s_max, as ad_invariant_value gives them.

    One pass of the Chebyshev recursion at sqrt n and at each atom serves
    every level, so the cost is O(s_max) per point; the levels are not checked.
    """
    def even(x):  # (U_2s(x), U_2s'(x)) for s = 0..s_max
        return list(islice(_chebyshev_pass(x), 0, 2 * s_max + 1, 2))

    root = float(np.sqrt(spec.n))
    at_atoms = [(even(float(np.sqrt(x))), x, w) for x, w in spec.nu.atoms]
    values = []
    for s, (u_n, du_n) in enumerate(even(root)):
        total = -spec.a * du_n / (2.0 * root)
        for u, x, w in at_atoms:
            total += w * (u[s][0] - u_n) / (spec.n - x)
        values.append(total / u_n)
    return values


def ad_h_coefficient(s: int, j: int, k: int, n: int) -> Fraction:
    """ad_h(u^(s)_jk) = (delta_jk / n_s) chi_s; returns the exact rational coefficient."""
    return Fraction(1 if j == k else 0, _level_dim(n, s, j, k))
