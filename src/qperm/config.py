"""Run configuration with the documented defaults.

All numeric knobs used by the package live here so CLI runs are
reproducible from the flag values alone.
"""

from __future__ import annotations

from dataclasses import dataclass

#: magnitude below which linear-combination coefficients are dropped
ZERO_THRESHOLD = 1e-12


@dataclass(frozen=True)
class RunConfig:
    """Tolerances and budgets shared by the modules.

    tol             projection / magic-unitary / functional tolerance
    rank_threshold  singular values below rank_threshold * s_max count as zero
    max_word_len    default word length cap for the symmetry / traciality checks
    seed            root seed for all sampling
    term_budget     cap on the work of one expansion: raw scalar terms of a coproduct,
                    the complex entries allocated to build a k-letter semigroup block
                    (L_B and its Gram factor), the complex entries of one
                    stacked moment level of the symmetry / traciality checks, and
                    the complex entries of a representation (permutation, Fourier,
                    Hadamard) and of the cocycle constraints with their SVD factors
    """

    tol: float = 1e-9
    rank_threshold: float = 1e-8
    max_word_len: int = 4
    seed: int = 0
    term_budget: int = 10_000_000

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tolerances must be positive")
        if not 0 < self.rank_threshold < 1:  # also rejects nan
            raise ValueError("rank threshold must lie strictly between 0 and 1")
        if self.max_word_len < 1:
            raise ValueError("word length out of range")
        if self.term_budget < 1:
            raise ValueError("term budget must be positive")


DEFAULT_CONFIG = RunConfig()
