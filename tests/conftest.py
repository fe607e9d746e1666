import numpy as np
import pytest

from qperm.config import RunConfig


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260814)


@pytest.fixture
def budget(monkeypatch):
    """set_budget(b) runs the rest of the test with term budget b, the one way the
    package offers: qperm.config.DEFAULT_CONFIG replaced with another RunConfig."""

    def set_budget(term_budget: int) -> None:
        monkeypatch.setattr("qperm.config.DEFAULT_CONFIG", RunConfig(term_budget=term_budget))

    return set_budget
