"""Formal *-algebra of words in the generators p_ij of Pol(S_n+).

Words multiply by concatenation.  `reduce` applies the relations that admit
a rewriting orientation: idempotence p_ij p_ij = p_ij and the orthogonality
relations p_ij p_ik = 0 = p_ji p_ki (j != k).  The linear relations
sum_j p_ij = sum_j p_ji = 1 have no confluent orientation and are never
rewritten; all functionals built on top of this module vanish on them, and
the test suite exercises that directly.

Hopf structure on generators: coproduct D(p_ij) = sum_k p_ik (x) p_kj,
counit eps(p_jk) = delta_jk, antipode S(p_jk) = p_kj (involutive), and the
generators are self-adjoint.
"""

from __future__ import annotations

import math
import operator
from types import MappingProxyType
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from . import _kernel
from .config import ZERO_THRESHOLD
from .errors import ValidationError, _charge

Letter = tuple[int, int]


class Generator(NamedTuple):
    """A single generator p_{row,col} of Pol(S_n+)."""

    row: int
    col: int
    n: int

    def word(self) -> "Word":
        return Word(((self.row, self.col),), self.n)


class Word:
    """A formal word in the generators; the empty word is the unit 1.

    `Word(letters, n)` converts and checks its input.  `Word._of(letters, n)`
    checks nothing: it needs letters already a tuple of (int, int) tuples in
    1..n and n an int >= 1, and only code of this package that derives them
    from valid Words of the same n may call it (products, reduction, the
    antipode and adjoint, coproduct legs, enumeration and the relations).
    """

    __slots__ = ("letters", "n", "_hash")

    def __init__(self, letters: Iterable[Letter], n: int):
        try:
            letters = tuple((int(i), int(j)) for i, j in letters)
            n = int(n)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"a word needs integer (row, col) letters and n: {exc}") from exc
        if n < 1:
            raise ValidationError("ambient size n must be >= 1")
        for i, j in letters:
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValidationError(f"letter p({i},{j}) out of range for n={n}")
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_hash", hash((letters, n)))

    @classmethod
    def _of(cls, letters: tuple[Letter, ...], n: int) -> "Word":
        """The Word of clean letters and n, unchecked (see the class docstring)."""
        w = object.__new__(cls)
        object.__setattr__(w, "letters", letters)
        object.__setattr__(w, "n", n)
        object.__setattr__(w, "_hash", hash((letters, n)))
        return w

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    def __len__(self) -> int:
        return len(self.letters)

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.letters == other.letters and self.n == other.n

    def __hash__(self) -> int:
        return self._hash

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        if other.n != self.n:
            raise ValidationError("cannot multiply words with different ambient n")
        return Word._of(self.letters + other.letters, self.n)

    def __repr__(self) -> str:
        return f"Word({format_word(self)!r}, n={self.n})"

    @property
    def generators(self) -> tuple[Generator, ...]:
        return tuple(Generator(i, j, self.n) for i, j in self.letters)

    def is_unit(self) -> bool:
        return not self.letters


def unit_word(n: int) -> Word:
    return Word((), n)


class LinComb:
    """A finite complex-linear combination of words (an element of Pol(S_n+)).

    Stored coefficients with magnitude at most ZERO_THRESHOLD are dropped.
    Instances are immutable; arithmetic returns new objects.
    """

    __slots__ = ("_terms", "n")

    def __init__(self, terms, n: int):
        clean: dict[Word, complex] = {}
        try:
            n = int(n)
            items = terms.items() if hasattr(terms, "items") else terms
            for w, c in items:
                if not isinstance(w, Word):
                    w = Word(w, n)
                if w.n != n:
                    raise ValidationError("mixed ambient sizes in linear combination")
                c = complex(c) + clean.get(w, 0j)
                if abs(c) <= ZERO_THRESHOLD:
                    clean.pop(w, None)
                else:
                    clean[w] = c
        except (TypeError, ValueError) as exc:
            raise ValidationError(
                f"a linear combination needs (word, number) terms: {exc}") from exc
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "n", n)

    @classmethod
    def _of(cls, clean: dict[Word, complex], n: int) -> "LinComb":
        """The combination of a clean dict, unchecked: Words of ambient size n as keys,
        complex coefficients above ZERO_THRESHOLD as values, as `__init__` leaves them."""
        x = object.__new__(cls)
        object.__setattr__(x, "_terms", clean)
        object.__setattr__(x, "n", n)
        return x

    def __setattr__(self, name, value):
        raise AttributeError("LinComb is immutable")

    @property
    def terms(self):
        return MappingProxyType(self._terms)

    @classmethod
    def zero(cls, n: int) -> "LinComb":
        return cls({}, n)

    @classmethod
    def unit(cls, n: int, coeff: complex = 1.0) -> "LinComb":
        return cls({unit_word(n): coeff}, n)

    @classmethod
    def from_word(cls, w: Word, coeff: complex = 1.0) -> "LinComb":
        return cls({w: coeff}, w.n)

    def __eq__(self, other) -> bool:
        return isinstance(other, LinComb) and self.n == other.n and self._terms == other._terms

    def __hash__(self):
        return hash((self.n, frozenset(self._terms.items())))

    def __iter__(self):
        return iter(self._terms.items())

    def __len__(self):
        return len(self._terms)

    def _check(self, other: "LinComb"):
        if not isinstance(other, LinComb):
            raise TypeError("expected a LinComb")
        if other.n != self.n:
            raise ValidationError("mixed ambient sizes")

    def __add__(self, other: "LinComb") -> "LinComb":
        self._check(other)
        terms = dict(self._terms)
        for w, c in other._terms.items():
            terms[w] = terms.get(w, 0j) + c
        return LinComb(terms, self.n)

    def __sub__(self, other: "LinComb") -> "LinComb":
        return self + (-1.0) * other

    def __neg__(self) -> "LinComb":
        return (-1.0) * self

    def __rmul__(self, scalar) -> "LinComb":
        scalar = complex(scalar)
        return LinComb({w: scalar * c for w, c in self._terms.items()}, self.n)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.__rmul__(other)
        self._check(other)
        terms: dict[Word, complex] = {}
        for u, cu in self._terms.items():
            for v, cv in other._terms.items():
                w = u * v
                terms[w] = terms.get(w, 0j) + cu * cv
        return LinComb(terms, self.n)

    def __repr__(self) -> str:
        return f"LinComb({format_lincomb(self)!r}, n={self.n})"


def _as_lincomb(x: LinComb | Word) -> LinComb:
    """x itself, or the word x as a one-term combination."""
    return LinComb._of({x: 1.0 + 0j}, x.n) if isinstance(x, Word) else x


def reduce(x: LinComb | Word) -> LinComb:
    """Apply the orientable relations to every word; zero words are dropped."""
    x = _as_lincomb(x)
    terms: dict[Word, complex] = {}
    for w, c in x._terms.items():
        red = _kernel.reduce_letters(w.letters)
        if red is None:
            continue
        rw = Word._of(red, x.n)
        terms[rw] = terms.get(rw, 0j) + c
    return LinComb(terms, x.n)


def counit(x: LinComb | Word) -> complex:
    """eps(p_jk) = delta_jk extended multiplicatively and linearly."""
    x = _as_lincomb(x)
    total = 0j
    for w, c in x._terms.items():
        if all(i == j for i, j in w.letters):
            total += c
    return total


def antipode(x: LinComb | Word) -> LinComb:
    """S(p_jk) = p_kj, extended as an anti-homomorphism; involutive here."""
    x = _as_lincomb(x)
    terms = {
        Word._of(tuple((j, i) for i, j in reversed(w.letters)), x.n): c
        for w, c in x._terms.items()
    }
    return LinComb._of(terms, x.n)


def adjoint(x: LinComb | Word) -> LinComb:
    """The *-operation: reverse words (generators are self-adjoint), conjugate coefficients."""
    x = _as_lincomb(x)
    terms = {
        Word._of(tuple(reversed(w.letters)), x.n): complex(c).conjugate()
        for w, c in x._terms.items()
    }
    return LinComb(terms, x.n)


def coproduct_terms(w: Word, legs: int) -> dict:
    """Raw expansion table {tuple_of_letter_tuples: multiplicity} of the iterated coproduct."""
    if legs < 2:
        raise ValidationError("coproduct expansion needs legs >= 2")
    _charge(w.n ** ((legs - 1) * len(w)), "coproduct expansion", "raw terms")
    return _kernel.expand_legs(w.letters, w.n, legs)


def coproduct_expand(w: Word, legs: int) -> Iterator[tuple[tuple[Word, ...], int]]:
    """Yield (tuple of leg words, multiplicity) for the (legs-1)-fold coproduct of w.

    Every index chain i -> k_1 -> ... -> k_{legs-1} -> j per letter p_ij
    contributes one raw term; legs are reduced eagerly and zero branches are
    dropped, so multiplicities count the surviving raw chains.
    """
    table = coproduct_terms(w, legs)
    n = w.n
    for key, mult in table.items():
        yield tuple(Word._of(letters, n) for letters in key), mult


def defining_relations(n: int) -> list[LinComb]:
    """The relations of Pol(S_n+) as elements that must map to zero.

    Idempotency p_ij^2 - p_ij, row and column orthogonality p_ij p_ik and
    p_ji p_ki for j != k, and the row/column sums minus 1.
    """
    n = operator.index(n)
    if n < 1:
        raise ValidationError("ambient size n must be >= 1")
    one, minus = 1.0 + 0j, -1.0 + 0j
    unit = Word._of((), n)
    p = {(i, j): Word._of(((i, j),), n) for i in range(1, n + 1) for j in range(1, n + 1)}
    rels = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            rels.append(LinComb._of({p[i, j] * p[i, j]: one, p[i, j]: minus}, n))
            for k in range(1, n + 1):
                if k != j:
                    rels.append(LinComb._of({p[i, j] * p[i, k]: one}, n))
                    rels.append(LinComb._of({p[j, i] * p[k, i]: one}, n))
        rels.append(LinComb._of({**{p[i, j]: one for j in range(1, n + 1)}, unit: minus}, n))
        rels.append(LinComb._of({**{p[j, i]: one for j in range(1, n + 1)}, unit: minus}, n))
    return rels


def _radix(n: int, k: int) -> tuple[int, ...]:
    # the first index in base n, each later one in base n - 1
    return (n,) + (n - 1,) * (k - 1)


def _index_sequences(n: int, k: int) -> np.ndarray:
    """The 1-based index sequences of length k >= 1 with no two neighbours equal.

    int64, shape (n (n-1)^(k-1), k), in lexicographic order: row r is the
    mixed-radix number r, whose first digit is the first index and whose
    later digits d pick the d-th index other than the one before it.
    """
    radix = _radix(n, k)
    seqs = np.stack(np.unravel_index(np.arange(math.prod(radix), dtype=np.int64), radix), axis=1)
    for m in range(1, k):
        seqs[:, m] += seqs[:, m] >= seqs[:, m - 1]
    return seqs + 1


def _sequence_position(seqs, n: int) -> np.ndarray:
    """Row numbers in _index_sequences(n, length) of rows of index sequences (count, length)."""
    digits = np.asarray(seqs) - 1
    digits[:, 1:] -= digits[:, 1:] > digits[:, :-1]  # the right side is read first
    return np.ravel_multi_index(digits.T, _radix(n, digits.shape[1]))


def _sequence_pairs(seqs: np.ndarray) -> np.ndarray:
    """Letters (m^2, k, 2) of p(I, J) over all pairs of the m rows of seqs (m, k), I major."""
    pairs = np.stack(np.broadcast_arrays(seqs[:, None], seqs[None]), axis=-1)
    return pairs.reshape(-1, seqs.shape[1], 2)


def reduced_word_array(n: int, length: int) -> np.ndarray:
    """All reduced words with exactly `length` letters, in lexicographic order.

    Returns an int64 array of shape (count, length, 2) with 1-based letters.
    The rows and the columns of a reduced word are each one of the
    _index_sequences, so the words are their pairs p(I, J), placed on axes
    that interleave the digits (first row digit, first column digit, second
    row digit, ...) to keep the order lexicographic.  Broadcast straight
    into place: a transposed copy of _sequence_pairs was 20-40% slower.
    """
    if length == 0:
        return np.zeros((1, 0, 2), dtype=np.int64)
    radix = _radix(n, length)
    seqs = _index_sequences(n, length)
    rows = seqs.reshape(tuple(x for r in radix for x in (r, 1)) + (length,))
    cols = seqs.reshape(tuple(x for r in radix for x in (1, r)) + (length,))
    return np.stack(np.broadcast_arrays(rows, cols), axis=-1).reshape(-1, length, 2)


def _random_word_array(rng, n: int, count: int, length: int) -> np.ndarray:
    """`count` random reduced words of `length` >= 1 letters, int64 shape (count, length, 2).

    The first letter is uniform; each next one shifts row, then column, by a
    uniform offset in 1..n-1 mod n, so both differ from the previous letter's.
    One word is drawn with scalar `rng.integers` calls, which give the values
    and generator state of size-1 draws at a fraction of their overhead.
    """
    size = None if count == 1 else count
    row = rng.integers(1, n + 1, size=size)
    col = rng.integers(1, n + 1, size=size)
    letters = [(row, col)]
    for _ in range(1, length):
        row = (row - 1 + rng.integers(1, n, size=size)) % n + 1
        col = (col - 1 + rng.integers(1, n, size=size)) % n + 1
        letters.append((row, col))
    return np.array(letters, dtype=np.int64).reshape(length, 2, count).transpose(2, 0, 1).copy()


def reduced_words(n: int, max_len: int, min_len: int = 1) -> list[Word]:
    """All reduced words with min_len <= length <= max_len."""
    out = []
    for ln in range(min_len, max_len + 1):
        out.extend(Word._of(tuple(map(tuple, ls)), n) for ls in reduced_word_array(n, ln).tolist())
    return out


# --- text and JSON wire formats ---------------------------------------------


def format_word(w: Word) -> str:
    if not w.letters:
        return "1"
    return " ".join(f"p({i},{j})" for i, j in w.letters)


def parse_word(text: str, n: int) -> Word:
    """Parse 'p(i,j) p(k,l) ...' (1-based); '1' denotes the empty word."""
    text = text.strip()
    if text in ("1", ""):
        return unit_word(n)
    letters = []
    for tok in text.split():
        tok = tok.strip()
        if not (tok.startswith("p(") and tok.endswith(")")):
            raise ValidationError(f"cannot parse word token {tok!r}")
        body = tok[2:-1]
        parts = body.split(",")
        if len(parts) != 2:
            raise ValidationError(f"cannot parse word token {tok!r}")
        try:
            letters.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise ValidationError(f"cannot parse word token {tok!r}") from exc
    return Word(letters, n)


def format_lincomb(x: LinComb) -> str:
    if not x._terms:
        return "0"
    parts = []
    for w in sorted(x._terms, key=lambda w: (len(w), w.letters)):
        c = x._terms[w]
        parts.append(f"({c.real:.12g}{c.imag:+.12g}j)*{format_word(w)}")
    return " + ".join(parts)


def lincomb_to_json(x: LinComb) -> list:
    """JSON form: list of {"coeff": [re, im], "word": [[i, j], ...]}."""
    out = []
    for w in sorted(x._terms, key=lambda w: (len(w), w.letters)):
        c = complex(x._terms[w])
        out.append({"coeff": [c.real, c.imag], "word": [[i, j] for i, j in w.letters]})
    return out


def lincomb_from_json(obj, n: int) -> LinComb:
    terms = {}
    for entry in obj:
        try:
            re, im = entry["coeff"]
            letters = tuple((int(i), int(j)) for i, j in entry["word"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed LinComb entry {entry!r}") from exc
        w = Word(letters, n)
        terms[w] = terms.get(w, 0j) + complex(re, im)
    return LinComb(terms, n)
