"""Small permutation helpers: 1-based image tuples and cycle notation."""

from __future__ import annotations

import re

from .errors import ValidationError, _charge

Perm = tuple[int, ...]
_DECIMAL = re.compile(r"[0-9]+")


def check_perm(sigma) -> Perm:
    try:
        sigma = tuple(int(v) for v in sigma)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"a permutation needs integer images: {exc}") from exc
    n = len(sigma)
    if sorted(sigma) != list(range(1, n + 1)):
        raise ValidationError(f"not a permutation of 1..{n}: {sigma}")
    return sigma


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def cycles(sigma: Perm) -> list[tuple[int, ...]]:
    """Cycle decomposition, fixed points included as 1-cycles.

    Cycles are rotated to start at their minimum and sorted by it.
    """
    sigma = check_perm(sigma)
    seen = [False] * len(sigma)
    out = []
    for start in range(1, len(sigma) + 1):
        if seen[start - 1]:
            continue
        cyc = [start]
        seen[start - 1] = True
        nxt = sigma[start - 1]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt - 1] = True
            nxt = sigma[nxt - 1]
        out.append(tuple(cyc))
    return out


def nontrivial_cycles(sigma: Perm) -> list[tuple[int, ...]]:
    """The cycles of length >= 2, rotated to start at their minimum and sorted by it."""
    return [c for c in cycles(sigma) if len(c) > 1]


def from_cycles(cycs, n: int) -> Perm:
    images = list(range(1, n + 1))
    for cyc in cycs:
        cyc = [int(v) for v in cyc]
        for v in cyc:
            if not 1 <= v <= n:
                raise ValidationError(f"cycle entry {v} out of range for n={n}")
        if len(set(cyc)) != len(cyc):
            raise ValidationError(f"repeated entry in cycle {tuple(cyc)}")
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            images[a - 1] = b
    return check_perm(images)


def parse_cycles(text: str, n: int | None = None) -> Perm:
    """Parse 1-based cycle notation like '(1 2)(3 4 5)'; fixed points omissible.

    Without an explicit n the ambient size is the largest index mentioned.
    'id' or '()' denote the identity (n required).  Every entry must be a
    decimal integer (ASCII digits only), and the ambient size is charged to
    the term budget before the permutation is built.
    """
    if n is not None:
        try:
            n = int(n)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"ambient size must be an integer, got {n!r}") from exc
    text = text.strip()
    body = text.replace(",", " ")
    if body in ("id", "()", ""):
        if n is None:
            raise ValidationError("identity permutation needs an explicit n")
        return identity(_charged_size(n))
    groups = re.findall(r"\(([^()]*)\)", body)
    if not groups or "".join(groups).strip() == "":
        raise ValidationError(f"cannot parse permutation {text!r}")
    leftover = re.sub(r"\([^()]*\)", "", body).strip()
    if leftover:
        raise ValidationError(f"cannot parse permutation {text!r}")
    cycs = []
    top = 0
    for g in groups:
        tokens = g.split()
        if not tokens:
            raise ValidationError(f"empty cycle in {text!r}")
        for tok in tokens:
            if not _DECIMAL.fullmatch(tok):
                raise ValidationError(f"cycle entry {tok!r} in {text!r} is not a decimal integer")
        entries = tuple(int(v) for v in tokens)
        cycs.append(entries)
        top = max(top, max(entries))
    size = top if n is None else n
    if size < top:
        raise ValidationError(f"permutation {text!r} exceeds n={size}")
    flat = [v for c in cycs for v in c]
    if len(set(flat)) != len(flat):
        raise ValidationError(f"overlapping cycles in {text!r}")
    return from_cycles(cycs, _charged_size(size))


def _charged_size(n: int) -> int:
    """n, after charging an n-point permutation to the term budget."""
    _charge(n, "the permutation", "points")
    return n


def format_cycles(sigma: Perm) -> str:
    """Cycle notation of the nontrivial cycles, or 'id'."""
    return "".join("(" + " ".join(str(v) for v in cyc) + ")"
                   for cyc in nontrivial_cycles(sigma)) or "id"


def random_permutation(rng, n: int) -> Perm:
    return tuple(int(v) + 1 for v in rng.permutation(n))
