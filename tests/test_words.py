"""Word algebra: reduction, Hopf operations, relations, wire formats."""

import itertools
import json

import numpy as np
import pytest

from qperm.config import RunConfig
from qperm.errors import BudgetError, QpermError, ValidationError
from qperm.perms import parse_cycles
from qperm.selftest import random_reduced_word
from qperm.stochsim import PermProcessSpec
from qperm.words import (
    LinComb,
    Word,
    _index_sequences,
    _sequence_position,
    adjoint,
    antipode,
    coproduct_expand,
    coproduct_terms,
    counit,
    defining_relations,
    format_lincomb,
    format_word,
    lincomb_from_json,
    lincomb_to_json,
    parse_word,
    reduce,
    reduced_words,
    unit_word,
)


def w(text: str, n: int = 4) -> Word:
    return parse_word(text, n)


class TestConstruction:
    def test_letters_out_of_range(self):
        with pytest.raises(ValidationError):
            Word(((1, 5),), 4)
        with pytest.raises(ValidationError):
            Word(((0, 1),), 4)

    def test_n_must_be_positive(self):
        with pytest.raises(ValidationError):
            Word((), 0)

    def test_unit_word(self):
        u = unit_word(3)
        assert len(u) == 0
        assert u.is_unit()
        assert u * w("p(1,2)", 3) == w("p(1,2)", 3)

    def test_multiplication_concatenates(self):
        assert w("p(1,2)") * w("p(2,3)") == w("p(1,2) p(2,3)")

    def test_mixed_n_rejected(self):
        with pytest.raises(ValidationError):
            w("p(1,2)", 3) * w("p(1,2)", 4)

    def test_word_immutable_and_hashable(self):
        a = w("p(1,2)")
        with pytest.raises(AttributeError):
            a.n = 5
        assert hash(a) == hash(w("p(1,2)"))

    def test_lincomb_drops_tiny_coefficients(self):
        x = LinComb({w("p(1,2)"): 1e-15}, 4)
        assert len(x) == 0

    def test_lincomb_merges_repeats(self):
        x = LinComb([(w("p(1,2)"), 1.0), (w("p(1,2)"), 2.0)], 4)
        assert x.terms[w("p(1,2)")] == 3.0


class TestReduce:
    def test_idempotent_pair_collapses(self):
        assert reduce(w("p(1,2) p(1,2)")) == LinComb.from_word(w("p(1,2)"))

    def test_shared_row_kills(self):
        assert reduce(w("p(1,2) p(1,3)")) == LinComb.zero(4)

    def test_shared_column_kills(self):
        assert reduce(w("p(2,1) p(3,1)")) == LinComb.zero(4)

    def test_collapse_can_trigger_chain_kill(self):
        # p12 p12 p13 -> p12 p13 -> 0 in a single left-to-right pass
        assert reduce(w("p(1,2) p(1,2) p(1,3)")) == LinComb.zero(4)

    def test_reduced_word_is_fixed(self):
        a = w("p(1,2) p(2,3) p(3,1)")
        assert reduce(a) == LinComb.from_word(a)

    def test_reduce_is_linear(self):
        x = 2.0 * LinComb.from_word(w("p(1,2) p(1,2)")) - 1j * LinComb.from_word(
            w("p(1,1) p(2,2)")
        )
        got = reduce(x)
        want = 2.0 * LinComb.from_word(w("p(1,2)")) - 1j * LinComb.from_word(
            w("p(1,1) p(2,2)")
        )
        assert got == want

    def test_reduce_idempotent_on_random_words(self, rng):
        for _ in range(50):
            ln = int(rng.integers(1, 7))
            letters = [
                (int(rng.integers(1, 5)), int(rng.integers(1, 5))) for _ in range(ln)
            ]
            once = reduce(Word(letters, 4))
            assert reduce(once) == once


class TestHopf:
    def test_counit_on_generators(self):
        assert counit(w("p(1,1)")) == 1
        assert counit(w("p(1,2)")) == 0

    def test_counit_multiplicative_on_words(self):
        assert counit(w("p(1,1) p(2,2)")) == 1
        assert counit(w("p(1,1) p(1,2)")) == 0
        assert counit(unit_word(4)) == 1

    def test_antipode_swaps_and_reverses(self):
        assert antipode(w("p(1,2) p(3,4)")) == LinComb.from_word(w("p(4,3) p(2,1)"))

    def test_antipode_involutive(self, rng):
        for _ in range(20):
            ln = int(rng.integers(0, 5))
            letters = [
                (int(rng.integers(1, 5)), int(rng.integers(1, 5))) for _ in range(ln)
            ]
            x = LinComb.from_word(Word(letters, 4), 1.5 - 0.5j)
            assert antipode(antipode(x)) == x

    def test_adjoint_reverses_and_conjugates(self):
        x = LinComb.from_word(w("p(1,2) p(3,4)"), 2.0 + 1.0j)
        assert adjoint(x) == LinComb.from_word(w("p(3,4) p(1,2)"), 2.0 - 1.0j)

    def test_coproduct_of_generator(self):
        # D(p_12) = sum_k p_1k (x) p_k2 on n = 3
        table = coproduct_terms(w("p(1,2)", 3), 2)
        want = {(((1, k),), ((k, 2),)): 1 for k in range(1, 4)}
        assert table == want

    def test_coproduct_counit_identity(self, rng):
        # (eps (x) id) D = id on a sample of words
        for _ in range(20):
            ln = int(rng.integers(1, 4))
            letters = [
                (int(rng.integers(1, 4)), int(rng.integers(1, 4))) for _ in range(ln)
            ]
            word = Word(letters, 3)
            acc = LinComb.zero(3)
            for (left, right), mult in coproduct_expand(word, 2):
                acc = acc + (mult * counit(left)) * LinComb.from_word(right)
            assert acc == reduce(word)

    def test_coproduct_budget(self, budget):
        word = Word([(1, 1)] * 4, 4)
        budget(100)
        with pytest.raises(BudgetError):
            coproduct_terms(word, 2)

    def test_coproduct_budget_message(self, budget):
        # 4^(1 * 4) raw chains for a 4-letter word at n = 4 and two legs
        budget(255)
        with pytest.raises(BudgetError) as exc:
            coproduct_terms(Word([(1, 1)] * 4, 4), 2)
        assert str(exc.value) == "coproduct expansion needs 256 raw terms, over the term budget 255"
        budget(256)
        assert len(coproduct_terms(Word([(1, 1)] * 4, 4), 2)) > 0

    def test_coproduct_needs_two_legs(self):
        with pytest.raises(ValidationError):
            coproduct_terms(w("p(1,2)"), 1)


class TestRelations:
    def test_quadratic_relations_all_vanish(self):
        # every relation without a unit term reduces to zero
        for n in (2, 3, 4):
            for rel in defining_relations(n):
                if unit_word(n) in rel.terms:
                    continue
                assert reduce(rel) == LinComb.zero(n)

    def test_sum_relations_survive_reduction(self):
        # the linear row/column sums have no rewriting orientation
        survivors = [
            rel
            for rel in defining_relations(3)
            if unit_word(3) in rel.terms and len(reduce(rel)) > 0
        ]
        assert len(survivors) == 6  # one row and one column sum per index

    def test_counit_kills_all_relations(self):
        for n in (2, 3, 4):
            for rel in defining_relations(n):
                assert counit(rel) == 0

    @pytest.mark.parametrize("n", range(1, 7))
    def test_terms_match_reference_arithmetic(self, n):
        # same relations, same words in the same order, same coefficient bits
        got, want = defining_relations(n), reference_defining_relations(n)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert list(a.terms) == list(b.terms)
            assert np.array(list(a.terms.values())).tobytes() == \
                np.array(list(b.terms.values())).tobytes()


def reference_defining_relations(n):
    """The LinComb arithmetic `defining_relations` used before it built each relation
    from one term list."""
    rels = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            p = Word(((i, j),), n)
            rels.append(LinComb.from_word(p * p) - LinComb.from_word(p))
            for k in range(1, n + 1):
                if k != j:
                    rels.append(LinComb.from_word(Word(((i, j), (i, k)), n)))
                    rels.append(LinComb.from_word(Word(((j, i), (k, i)), n)))
        row = sum((LinComb.from_word(Word(((i, j),), n)) for j in range(1, n + 1)), LinComb.zero(n))
        col = sum((LinComb.from_word(Word(((j, i),), n)) for j in range(1, n + 1)), LinComb.zero(n))
        rels.append(row - LinComb.unit(n))
        rels.append(col - LinComb.unit(n))
    return rels


class TestEnumeration:
    @pytest.mark.parametrize(
        "n,length,count",
        [(4, 1, 16), (4, 2, 144), (4, 3, 1296), (4, 4, 11664), (2, 1, 4), (2, 2, 4), (2, 3, 4), (2, 4, 4)],
    )
    def test_reduced_word_counts(self, n, length, count):
        words = reduced_words(n, length, min_len=length)
        assert len(words) == count == n * n * (n - 1) ** (2 * (length - 1))

    def test_enumerated_words_are_reduced(self):
        for word in reduced_words(3, 3):
            assert reduce(word) == LinComb.from_word(word)

    def test_cumulative_count(self):
        assert len(reduced_words(4, 4)) == 13120


class TestIndexSequences:
    """The one order of index sequences with no two neighbours equal."""

    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("k", range(1, 6))
    def test_position_inverts_the_enumeration(self, n, k):
        seqs = _index_sequences(n, k)
        assert seqs.dtype == np.int64 and seqs.shape == (n * (n - 1) ** (k - 1), k)
        assert np.array_equal(_sequence_position(seqs, n), np.arange(len(seqs)))

    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("k", range(1, 6))
    def test_rows_are_strictly_lexicographic_with_no_equal_neighbours(self, n, k):
        seqs = _index_sequences(n, k)
        assert seqs.min() == 1 and seqs.max() == n
        assert not (seqs[:, 1:] == seqs[:, :-1]).any()
        rows = [tuple(r) for r in seqs.tolist()]
        assert all(a < b for a, b in zip(rows, rows[1:]))


class TestWireFormats:
    def test_word_round_trip(self):
        for text in ("1", "p(1,2)", "p(1,2) p(2,1) p(3,4)"):
            assert format_word(parse_word(text, 4)) == text

    def test_parse_rejects_garbage(self):
        for text in ("p(1;2)", "q(1,2)", "p(1,2,3)", "p(a,b)"):
            with pytest.raises(ValidationError):
                parse_word(text, 4)

    def test_lincomb_json_round_trip(self):
        x = (
            2.5 * LinComb.from_word(w("p(1,2)"))
            - (1.0 + 3.0j) * LinComb.from_word(w("p(2,1) p(1,2)"))
            + LinComb.unit(4)
        )
        blob = json.dumps(lincomb_to_json(x))
        assert lincomb_from_json(json.loads(blob), 4) == x

    def test_lincomb_json_rejects_malformed(self):
        with pytest.raises(ValidationError):
            lincomb_from_json([{"coeff": [1.0], "word": []}], 4)

    def test_format_lincomb_zero(self):
        assert format_lincomb(LinComb.zero(4)) == "0"


def reference_random_reduced_word(rng, n, max_len=4, min_len=1):
    """The scalar loop `selftest.random_reduced_word` ran before the shared sampler."""
    length = int(rng.integers(min_len, max_len + 1))
    i = int(rng.integers(1, n + 1))
    j = int(rng.integers(1, n + 1))
    letters = [(i, j)]
    for _ in range(length - 1):
        i = (i - 1 + int(rng.integers(1, n))) % n + 1
        j = (j - 1 + int(rng.integers(1, n))) % n + 1
        letters.append((i, j))
    return Word(letters, n)


class TestRandomWords:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7])
    def test_matches_reference_loop_and_generator_state(self, n):
        for seed in range(200):
            for bounds in ((1, 1), (2, 2), (3, 3), (5, 5), (4, 1)):
                a, b = np.random.default_rng(seed), np.random.default_rng(seed)
                got = random_reduced_word(a, n, *bounds)
                want = reference_random_reduced_word(b, n, *bounds)
                assert got == want
                assert a.bit_generator.state == b.bit_generator.state
                assert a.integers(1 << 62) == b.integers(1 << 62)


def _all_letter_words(n, max_len):
    """Every letter sequence of at most max_len letters at ambient size n, as tuples."""
    letters = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    return [ls for k in range(max_len + 1) for ls in itertools.product(letters, repeat=k)]


def assert_checked(word, n):
    """word equals, and hashes as, the checked Word of its letters, with tuple letters."""
    assert type(word.letters) is tuple and type(word.n) is int and word.n == n
    assert all(type(let) is tuple and len(let) == 2 and all(type(v) is int for v in let)
               for let in word.letters)
    ref = Word(word.letters, n)
    assert word == ref and hash(word) == hash(ref) and word.letters == ref.letters


class TestInternalWords:
    """Words the package derives from valid Words skip the checks, and equal checked ones."""

    @pytest.mark.parametrize("n", range(1, 5))
    def test_every_producer_gives_checked_words(self, n):
        fixed = []  # the words that reduce to themselves
        for letters in _all_letter_words(n, 3):
            x = Word(letters, n)
            for k in range(len(letters) + 1):
                assert_checked(Word(letters[:k], n) * Word(letters[k:], n), n)
            for out in (reduce(x), antipode(x), adjoint(x), antipode(LinComb({x: 1j}, n))):
                for y in out.terms:
                    assert_checked(y, n)
            if list(reduce(x).terms) == [x]:
                fixed.append(x)
        assert reduced_words(n, 3, 0) == fixed
        for x in fixed:
            assert_checked(x, n)
            for legs, _ in coproduct_expand(x, 2 if len(x) == 3 else 3):
                for leg in legs:
                    assert_checked(leg, n)
        for x in reduced_words(n, 3, 0):
            assert_checked(x, n)
        for rel in defining_relations(n):
            for y in rel.terms:
                assert_checked(y, n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_relations_match_the_parent_builder(self, n):
        got, want = defining_relations(n), parent_defining_relations(n)
        assert got == want
        for a, b in zip(got, want):
            assert list(a.terms) == list(b.terms)
            assert all(type(c) is complex for c in a.terms.values())
            assert np.array(list(a.terms.values())).tobytes() == \
                np.array(list(b.terms.values())).tobytes()


def parent_defining_relations(n):
    """`defining_relations` as it was before it built its words once per call: each
    relation a checked LinComb of one term list."""
    rels = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            rels.append(LinComb([(((i, j), (i, j)), 1.0), (((i, j),), -1.0)], n))
            for k in range(1, n + 1):
                if k != j:
                    rels.append(LinComb([(((i, j), (i, k)), 1.0)], n))
                    rels.append(LinComb([(((j, i), (k, i)), 1.0)], n))
        rels.append(LinComb([(((i, j),), 1.0) for j in range(1, n + 1)] + [((), -1.0)], n))
        rels.append(LinComb([(((j, i),), 1.0) for j in range(1, n + 1)] + [((), -1.0)], n))
    return rels


@pytest.mark.parametrize("make", [
    lambda: Word([("a", 1)], 4),
    lambda: Word([(1,)], 4),
    lambda: Word(None, 4),
    lambda: Word([(1, 2)], "x"),
    lambda: Word([(1, 2)], None),
    lambda: LinComb([(((1, 2),), "z")], 4),
    lambda: LinComb(None, 4),
    lambda: LinComb({(1, 2): 1.0}, 4),
    lambda: PermProcessSpec((2, 1), ["x"]),
    lambda: PermProcessSpec((2, 1), None),
    lambda: PermProcessSpec((2, 1), {1.5: 1.0}),
    lambda: PermProcessSpec(("a", 1), [1.0]),
    lambda: parse_cycles("(a b)"),
    lambda: parse_cycles("(1 2.5)"),
    lambda: parse_cycles("(1 -2)"),
    lambda: parse_cycles("(1 1_0)"),
    lambda: parse_cycles("(1 99999999999)"),
    lambda: parse_cycles("(1 2)", 99999999999),
    lambda: parse_cycles("id", 99999999999),
    lambda: parse_cycles("(1 2)", "x"),
    lambda: parse_word("p(a,1)", 4),
    lambda: parse_word("p(1,2)", "x"),
    lambda: parse_word("p(1,2,3)", 4),
    lambda: RunConfig(term_budget=float("nan")),
    lambda: RunConfig(term_budget=2.5),
    lambda: RunConfig(term_budget=0),
    lambda: RunConfig(term_budget=True),
    lambda: RunConfig(term_budget="10"),
    lambda: RunConfig(tol=float("nan")),
    lambda: RunConfig(tol=float("inf")),
    lambda: RunConfig(tol=-1),
    lambda: RunConfig(tol=0.0),
    lambda: RunConfig(tol=None),
    lambda: RunConfig(rank_threshold=float("nan")),
    lambda: RunConfig(rank_threshold=1.0),
    lambda: RunConfig(rank_threshold="0.5"),
    lambda: RunConfig(max_word_len=float("nan")),
    lambda: RunConfig(max_word_len=0),
    lambda: RunConfig(max_word_len=2.0),
    lambda: RunConfig(max_word_len=True),
    lambda: RunConfig(seed=-1),
    lambda: RunConfig(seed=1.5),
    lambda: RunConfig(seed=False),
])
def test_public_constructors_raise_only_package_errors(make):
    with pytest.raises(QpermError):
        make()
