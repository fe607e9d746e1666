import numpy as np
import pytest

from qperm.config import RunConfig


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260814)


@pytest.fixture
def run_config(monkeypatch):
    """install(**fields) runs the rest of the test with RunConfig(**fields) as
    qperm.config.DEFAULT_CONFIG, the one way the package offers to change a default."""

    def install(**fields) -> None:
        monkeypatch.setattr("qperm.config.DEFAULT_CONFIG", RunConfig(**fields))

    return install


@pytest.fixture
def budget(run_config):
    """set_budget(b) runs the rest of the test with term budget b."""

    def set_budget(term_budget: int) -> None:
        run_config(term_budget=term_budget)

    return set_budget
