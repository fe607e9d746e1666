"""Run configuration with the documented defaults.

All numeric knobs used by the package live here so CLI runs are
reproducible from the flag values alone.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from . import errors  # a module, not its names: errors imports this module for the budget

#: magnitude below which linear-combination coefficients are dropped
ZERO_THRESHOLD = 1e-12


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class RunConfig:
    """Tolerances and budgets shared by the modules.

    tol             projection / magic-unitary / functional tolerance
    rank_threshold  singular values below rank_threshold * s_max count as zero
    max_word_len    default word length cap for the symmetry / traciality checks
    seed            root seed for all sampling
    term_budget     cap on the work of one step, charged before the step runs by
                    errors._charge, which reads it from DEFAULT_CONFIG at each call.
                    The charges, each in its own unit:
                    - the ambient size of a parsed permutation, in points;
                    - the raw scalar terms of a coproduct expansion;
                    - the complex entries of a representation: the n^2 d^2 blocks
                      of a permutation one, the n^2 of a Fourier matrix, and the
                      n^4 + n^3 of a Hadamard one;
                    - the complex entries of the cocycle constraints with their SVD
                      factors, 3 (n d)^2, and of the compressed-row fallback,
                      n^3 d^2 + 2 n^2 d^2;
                    - the complex entries of the Gaussian constraints, twice their
                      row bound with the SVD factors, 2 (n^4 + n^3) d^2 + 6 n^2 d^2;
                    - the complex entries of one stacked moment level of the
                      symmetry / traciality checks;
                    - the complex entries allocated to build a k-letter semigroup
                      block (L_B and its Gram factor), on every evaluation;
                    - the m* s matrix products of each semigroup exponential;
                    - the Poisson draws of `simulate_marginals`: one per block for
                      a cycle with rate * t below 10, one per sample above.

    The only way to change the budget for the whole package is to replace
    `qperm.config.DEFAULT_CONFIG` with another RunConfig.  The budget and
    cohomology's row-sum and block-circulant tests read it at each call; the
    other defaults are bound when their module is imported.
    """

    tol: float = 1e-9
    rank_threshold: float = 1e-8
    max_word_len: int = 4
    seed: int = 0
    term_budget: int = 10_000_000

    def __post_init__(self):
        # isinstance first: a comparison with a string or None would raise TypeError
        if not (isinstance(self.tol, numbers.Real) and math.isfinite(self.tol) and self.tol > 0):
            raise errors.ValidationError(f"tol must be finite and > 0, got {self.tol!r}")
        if not (isinstance(self.rank_threshold, numbers.Real)
                and 0 < self.rank_threshold < 1):  # also rejects nan
            raise errors.ValidationError(
                f"rank threshold must lie strictly between 0 and 1, got {self.rank_threshold!r}")
        if not (_is_int(self.max_word_len) and self.max_word_len >= 1):
            raise errors.ValidationError(
                f"max_word_len must be an integer >= 1, got {self.max_word_len!r}")
        if not (_is_int(self.seed) and self.seed >= 0):
            raise errors.ValidationError(f"seed must be an integer >= 0, got {self.seed!r}")
        if not (_is_int(self.term_budget) and self.term_budget >= 1):
            raise errors.ValidationError(
                f"term budget must be an integer >= 1, got {self.term_budget!r}")


DEFAULT_CONFIG = RunConfig()
