"""Permutation helpers: cycle structure, text format."""

import pytest

from qperm.errors import ValidationError
from qperm.perms import (
    check_perm,
    cycles,
    format_cycles,
    from_cycles,
    nontrivial_cycles,
    parse_cycles,
    random_permutation,
)


def test_check_perm_accepts_valid():
    assert check_perm((2, 1, 3)) == (2, 1, 3)


def test_check_perm_rejects_non_bijections():
    for bad in ((1, 1, 3), (0, 1, 2), (1, 2, 4)):
        with pytest.raises(ValidationError):
            check_perm(bad)


def test_cycles_min_element_order():
    sigma = (2, 1, 3, 5, 4)
    assert cycles(sigma) == [(1, 2), (3,), (4, 5)]


def test_nontrivial_cycles_drop_fixed_points():
    assert nontrivial_cycles((2, 1, 3, 5, 4)) == [(1, 2), (4, 5)]
    assert nontrivial_cycles((3, 1, 2, 4)) == [(1, 3, 2)]
    assert nontrivial_cycles((1, 2, 3)) == []
    with pytest.raises(ValidationError):
        nontrivial_cycles((1, 1))


def test_from_cycles_round_trip(rng):
    for _ in range(20):
        n = int(rng.integers(1, 9))
        sigma = random_permutation(rng, n)
        assert from_cycles(cycles(sigma), n) == sigma


def test_parse_and_format_cycles():
    assert parse_cycles("(1 2 3)(4 5)", 6) == (2, 3, 1, 5, 4, 6)
    assert parse_cycles("(1 2)", 2) == (2, 1)
    sigma = (2, 3, 1, 4)
    assert parse_cycles(format_cycles(sigma), 4) == sigma


def test_parse_cycles_infers_n():
    assert parse_cycles("(1 3)") == (3, 2, 1)


def test_parse_cycles_rejects_repeats():
    with pytest.raises(ValidationError):
        parse_cycles("(1 2)(2 3)", 3)


def test_random_permutation_is_valid(rng):
    for _ in range(50):
        check_perm(random_permutation(rng, 7))
