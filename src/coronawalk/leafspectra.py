"""Spectra of the named graph families by theorem, and the one grouping rule.

Path, cycle, complete, cocktail party, empty and star graphs have textbook
spectra (Brouwer & Haemers, *Spectra of Graphs*, 1.4):

    path:n       2cos(pi j/(n+1)), j = 1..n
    cycle:n      2cos(2 pi j/n), j = 0..n/2, twice except at j = 0 and j = n/2
    complete:n   n - 1 once, -1 n - 1 times
    cocktail:n   2n - 2 once, 0 n times, -2 n - 1 times (on 2n vertices)
    empty:n      0 n times
    star:n       +-sqrt(n - 1) once each, 0 n - 2 times

Their exact labels follow from Lehmer's theorem (1933): with p/d the reduced
fraction j/N, 2cos(2 pi j/N) is an integer iff d is 1, 2, 3, 4 or 6, and a
quadratic integer iff d is 5, 8, 10 or 12; a path's value is 2cos(2 pi j/(2n+2)).
A labelled value is the float of its label.  No numpy: the `spectrum`
command reads a family's classes here without an eigensolve, and
`spectral.SpecFactors` labels a family leaf's float classes from these
values instead of by exact rank.

`class_runs` is the one rule that groups descending eigenvalues into classes,
for these values, `spectral.decompose` and the corona closed form alike.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .exact import QuadInt, square_free_part

# 2cos(2 pi p/d), p/d reduced, by d: an integer, or (a + -b sqrt(delta))/2 as (a, b, delta)
_INTEGER = {1: 2, 2: -2, 3: -1, 4: 0, 6: 1}
_QUADRATIC = {5: (-1, 1, 5), 8: (0, 2, 2), 10: (1, 1, 5), 12: (0, 2, 3)}


class FamilyClass(NamedTuple):
    """An eigenvalue class: its value, multiplicity and exact label (or None)."""

    value: float
    multiplicity: int
    exact: QuadInt | None


def class_runs(values, group_tol: float) -> list[tuple[int, int]]:
    """Index runs [a, b) of the classes of descending values: a class ends
    where the next value is at least group_tol * max(1, max|value|) lower."""
    gap = group_tol * max(1.0, max(map(abs, values)))
    bounds = [0, *(i for i in range(1, len(values)) if values[i - 1] - values[i] >= gap),
              len(values)]
    return list(zip(bounds, bounds[1:]))


def family_values(kind: str, n: int) -> list[FamilyClass]:
    """The distinct eigenvalues of family graph `kind:n`, descending, each with
    its multiplicity and, where the theorem gives one, its exact label."""
    if kind == "path":
        raw = [_cosine(j, 2 * n + 2, 1) for j in range(1, n + 1)]
    elif kind == "cycle":
        raw = [_cosine(j, n, 1 if j == 0 or 2 * j == n else 2) for j in range(n // 2 + 1)]
    elif kind == "complete":
        raw = [_integer(n - 1, 1), _integer(-1, n - 1)]
    elif kind == "cocktail":
        raw = [_integer(2 * n - 2, 1), _integer(0, n), _integer(-2, n - 1)]
    elif kind == "empty":
        raw = [_integer(0, n)]
    elif kind == "star":  # at n = 1, 0 three times at multiplicities 1, -1 and 1
        root = _sqrt(n - 1)
        raw = [_labelled(root, 1), _integer(0, n - 2),
               _labelled(QuadInt(-root.a, -root.b, root.delta), 1)]
    else:
        raise ValueError(f"unknown graph family {kind!r}")
    merged: dict = {}  # equal labels, as cocktail:1's two zeros, add up
    for c in raw:
        key = c.value if c.exact is None else c.exact
        old = merged.get(key)
        merged[key] = c if old is None else c._replace(
            multiplicity=old.multiplicity + c.multiplicity)
    return sorted((c for c in merged.values() if c.multiplicity > 0), key=lambda c: -c.value)


def family_classes(kind: str, n: int, group_tol: float) -> list[FamilyClass]:
    """The classes of `family_values` grouped by `class_runs`: a class's value
    is the mean of its eigenvalues, and it keeps a label only when it holds
    one distinct value."""
    values = family_values(kind, n)
    classes = []
    for a, b in class_runs([c.value for c in values], group_tol):
        if b - a == 1:
            classes.append(values[a])
            continue
        mult = sum(c.multiplicity for c in values[a:b])
        mean = sum(c.value * c.multiplicity for c in values[a:b]) / mult
        classes.append(FamilyClass(mean, mult, None))
    return classes


def _cosine(j: int, big_n: int, multiplicity: int) -> FamilyClass:
    """2cos(2 pi j/N), labelled when Lehmer's theorem gives an integer or quadratic."""
    d = big_n // math.gcd(j, big_n)
    if d in _INTEGER:
        return _integer(_INTEGER[d], multiplicity)
    value = 2.0 * math.cos(2.0 * math.pi * j / big_n)
    if d not in _QUADRATIC:
        return FamilyClass(value, multiplicity, None)
    a, b, delta = _QUADRATIC[d]
    return _labelled(QuadInt(a, b if 2 * value > a else -b, delta), multiplicity)


def _sqrt(m: int) -> QuadInt:
    """sqrt(m) for m >= 0 as a label: s sqrt(c) = (0 + 2s sqrt(c))/2."""
    if m == 0:  # square_free_part takes m >= 1
        return QuadInt.from_int(0)
    s, c = square_free_part(m)
    return QuadInt.from_int(s) if c == 1 else QuadInt(0, 2 * s, c)


def _integer(r: int, multiplicity: int) -> FamilyClass:
    return _labelled(QuadInt.from_int(r), multiplicity)


def _labelled(q: QuadInt, multiplicity: int) -> FamilyClass:
    return FamilyClass(q.value(), multiplicity, q)
