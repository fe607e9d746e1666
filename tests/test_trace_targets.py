"""Every function the benchmark's tracer wraps still exists in qperm.

perfbench/tracing.py finds its targets by module and attribute name; a
target that no longer resolves is dropped, and its metrics vanish from the
traced result line.  This pins the names the tracer relies on.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracing import TARGETS  # noqa: E402


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, *_ in TARGETS])
def test_target_resolves_to_a_callable(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
    assert inspect.isfunction(owner) or inspect.ismethod(owner)
