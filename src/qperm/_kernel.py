"""Word-combinatorics kernel of Pol(S_n+).

Letters are (row, col) pairs of 1-based ints, words are tuples of letters.

Reduction applies the orientable magic-unitary relations only:

    p p -> p                     for equal adjacent letters
    p_ij p_ik -> 0 (j != k)      adjacent letters sharing a row
    p_ji p_ki -> 0 (j != k)      adjacent letters sharing a column

A single left-to-right scan suffices: collapsing an equal letter never
shortens the kept stack, so no new adjacencies appear behind the cursor.
"""

from __future__ import annotations


def reduce_letters(letters):
    """Reduce a letter tuple; return the reduced tuple, or None if the word is zero."""
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


def expand_legs(letters, n, legs):
    """Iterated coproduct of a word, all legs reduced eagerly.

    For each letter p_ij every index chain i -> k_1 -> ... -> k_{legs-1} -> j
    contributes the letter (c_t, c_{t+1}) to leg t.  Branches where any leg
    reduces to zero are pruned.  Returns {tuple_of_leg_words: multiplicity}.
    """
    m = int(legs)
    total = len(letters)
    out = {}

    def letter_rec(pos, state):
        if pos == total:
            out[state] = out.get(state, 0) + 1
            return
        i, j = letters[pos]

        def chain_rec(t, prev, state):
            if t == m - 1:
                new = _append(state[t], (prev, j))
                if new is not None:
                    letter_rec(pos + 1, state[:t] + (new,))
                return
            for k in range(1, n + 1):
                new = _append(state[t], (prev, k))
                if new is not None:
                    chain_rec(t + 1, k, state[:t] + (new,) + state[t + 1:])

        chain_rec(0, i, state)

    letter_rec(0, tuple(() for _ in range(m)))
    return out


def _append(reduced, letter):
    # append one letter to an already-reduced word; None marks the zero word
    if reduced:
        top = reduced[-1]
        if top == letter:
            return reduced
        if top[0] == letter[0] or top[1] == letter[1]:
            return None
    return reduced + (letter,)


def reduced_words_exact(n, length):
    """All reduced words with exactly `length` letters, in lexicographic order."""
    if length == 0:
        return [()]
    out = []
    word = []

    def rec(depth, prow, pcol):
        if depth == length:
            out.append(tuple(word))
            return
        for i in range(1, n + 1):
            if i == prow:
                continue
            for j in range(1, n + 1):
                if j == pcol:
                    continue
                word.append((i, j))
                rec(depth + 1, i, j)
                word.pop()

    rec(0, 0, 0)
    return out
