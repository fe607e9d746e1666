"""The word kernel agrees with brute-force oracles written here.

The oracles apply the magic-unitary rules the slow way: rewrite adjacent
pairs until nothing changes, and expand the coproduct by listing every raw
index chain before reducing anything.
"""

import itertools
from collections import Counter

import numpy as np
import pytest

from qperm import _kernel
from qperm.words import reduced_word_array


def naive_reduce(letters):
    """Rewrite adjacent pairs to a fixed point; None for the zero word."""
    word = list(letters)
    changed = True
    while changed:
        changed = False
        for pos in range(len(word) - 1):
            a, b = word[pos], word[pos + 1]
            if a == b:
                del word[pos + 1]
                changed = True
                break
            if a[0] == b[0] or a[1] == b[1]:
                return None
    return tuple(word)


def naive_expand(letters, n, legs):
    """Sum over all raw index chains, reducing each leg only at the end."""
    out = Counter()
    inner = (legs - 1) * len(letters)
    for ks in itertools.product(range(1, n + 1), repeat=inner):
        leg_words = [[] for _ in range(legs)]
        for pos, (i, j) in enumerate(letters):
            chain = (i,) + ks[pos * (legs - 1) : (pos + 1) * (legs - 1)] + (j,)
            for t in range(legs):
                leg_words[t].append((chain[t], chain[t + 1]))
        reduced = tuple(naive_reduce(w) for w in leg_words)
        if all(w is not None for w in reduced):
            out[reduced] += 1
    return dict(out)


def all_words(n, length):
    letters = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    return itertools.product(letters, repeat=length)


def random_letters(rng, n, length):
    return tuple(
        (int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1))) for _ in range(length)
    )


@pytest.mark.parametrize("length", range(5))
def test_reduce_letters_every_word_n2(length):
    for w in all_words(2, length):
        assert _kernel.reduce_letters(w) == naive_reduce(w)


def test_reduce_letters_random(rng):
    for _ in range(500):
        n = int(rng.integers(2, 6))
        letters = random_letters(rng, n, int(rng.integers(0, 9)))
        assert _kernel.reduce_letters(letters) == naive_reduce(letters)


def test_reduce_letters_with_repeats(rng):
    # doubling letters of reduced words exercises the collapse rule past zero
    for _ in range(200):
        n = int(rng.integers(2, 5))
        base = _kernel.reduced_words_exact(n, 3)
        w = base[int(rng.integers(len(base)))]
        doubled = tuple(let for let in w for _ in range(int(rng.integers(1, 4))))
        assert naive_reduce(doubled) == w
        assert _kernel.reduce_letters(doubled) == w


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("legs", [2, 3])
@pytest.mark.parametrize("length", [1, 2, 3])
def test_expand_legs(rng, n, legs, length):
    if n == 2:
        words = list(all_words(n, length))
    else:
        words = [random_letters(rng, n, length) for _ in range(4)]
        reduced = _kernel.reduced_words_exact(n, length)
        words += [reduced[int(rng.integers(len(reduced)))] for _ in range(2)]
    for w in words:
        assert _kernel.expand_legs(w, n, legs) == naive_expand(w, n, legs)


@pytest.mark.parametrize("legs", [2, 3])
def test_expand_legs_on_unit(legs):
    assert _kernel.expand_legs((), 3, legs) == {((),) * legs: 1}
    assert naive_expand((), 3, legs) == {((),) * legs: 1}


@pytest.mark.parametrize("n,length", [(2, 0), (2, 4), (3, 3), (4, 2), (4, 3), (5, 2)])
def test_reduced_words_exact(n, length):
    words = _kernel.reduced_words_exact(n, length)
    assert words == sorted(set(words))
    assert all(naive_reduce(w) == w for w in words)
    assert words == [w for w in all_words(n, length) if naive_reduce(w) == w]
    expected = n * n * (n - 1) ** (2 * (length - 1)) if length else 1
    assert len(words) == expected


def kernel_array(n, length):
    words = _kernel.reduced_words_exact(n, length)
    return np.array(words, dtype=np.int64).reshape(len(words), length, 2)


# (5, 5) is left out: the kernel takes seconds and hundreds of MB to list its 1.6M words
@pytest.mark.parametrize(
    "n,length", [(n, k) for n in range(1, 6) for k in range(6) if (n, k) != (5, 5)]
)
def test_reduced_word_array_matches_kernel(n, length):
    got = reduced_word_array(n, length)
    want = kernel_array(n, length)
    assert got.dtype == np.int64 and got.shape == want.shape
    assert np.array_equal(got, want)
    if want.size:
        assert np.array_equal(got, np.array(_kernel.reduced_words_exact(n, length)))
    if n == 1 and length >= 2:
        assert got.shape == (0, length, 2)


def reference_reduce_letters(letters):
    """The stack loop `reduce_letters` ran before it became a fold of `_append`."""
    kept = []
    for let in letters:
        if kept:
            top = kept[-1]
            if top == let:
                continue
            if top[0] == let[0] or top[1] == let[1]:
                return None
        kept.append(let)
    return tuple(kept)


@pytest.mark.parametrize("n", [2, 3])
def test_reduce_letters_matches_reference_loop_every_word(n):
    for length in range(0, 5):
        for w in all_words(n, length):
            assert _kernel.reduce_letters(w) == reference_reduce_letters(w)


def test_reduce_letters_matches_reference_loop_random(rng):
    zero = 0
    for _ in range(3000):
        n = int(rng.integers(2, 6))
        letters = random_letters(rng, n, int(rng.integers(0, 9)))
        # repeat some letters in place, so collapses happen as well as kills
        letters = tuple(let for let in letters for _ in range(int(rng.integers(1, 3))))
        got = _kernel.reduce_letters(letters)
        assert got == reference_reduce_letters(letters)
        zero += got is None
    assert 0 < zero < 3000
