"""Spectra and eigenspaces of the named graph families by theorem, and the
one grouping rule.

Path, cycle, complete, cocktail party, empty and star graphs have textbook
spectra and eigenspaces (Brouwer & Haemers, *Spectra of Graphs*, 1.4), on
vertices 0-indexed as `graphs` builds them:

    path:n       2cos(pi j/(n+1)), j = 1..n, with
                 E_j[u,v] = 2/(n+1) sin(pi j(u+1)/(n+1)) sin(pi j(v+1)/(n+1))
    cycle:n      2cos(2 pi j/n), j = 0..n/2, m_j = 2 times except at j = 0
                 and j = n/2, with E_j[u,v] = (m_j/n) cos(2 pi j(u-v)/n)
    complete:n   n - 1 on J/n, -1 on I - J/n
    cocktail:n   on 2n vertices, P the antipode map u -> u^1: 2n - 2 on J/2n,
                 0 on (I - P)/2, -2 on (I + P)/2 - J/2n
    empty:n      0 on I
    star:n       +-sqrt(n - 1) on x x^T/(2(n - 1)), x = (+-sqrt(n - 1), 1,
                 ..., 1) with the centre 0 first, and 0 on I - J/(n - 1) on
                 the leaves

Their exact labels follow from Lehmer's theorem (1933): with p/d the reduced
fraction j/N, 2cos(2 pi j/N) is an integer iff d is 1, 2, 3, 4 or 6, and a
quadratic integer iff d is 5, 8, 10 or 12; a path's value is 2cos(2 pi j/(2n+2)).
Any other d has phi(d) >= 6, so an unlabelled family value has degree
phi(d)/2 >= 3.  A labelled value is the float of its label.  A lift theta
of a base value lam over any copy factor solves lam^2 N(theta) + lam
M(theta) - theta M(theta) = 0, not identically 0 in lam as M and N are
coprime, so [Q(lam, theta) : Q(theta)] <= 2: were deg theta <= 2, deg lam
would divide 1, 2 or 4.  So every lift of a value of degree 3 or >= 5 has
degree > 2 (`FamilyDecomposition.beyond_quadratic_lifts`); degree 4, d in
{15, 16, 20, 24, 30}, decides nothing.

`Decomposition` is the one class engine: eigenvalue classes as runs of
atoms, with support, signs, the walk terms and the amplitude written once
over the atom rules each decomposition gives.  `FamilyDecomposition` gives
them for a family's eigenspaces, deciding support and strong-cospectral
signs in integers, with no numpy and no eigensolve: every command on a
family spec reads it, as do `pgst` and `no-pst-scan` on a family base, and
`coronaspectra.CoronaDecomposition` reads its rules, and its main
eigenspaces by theorem (`ones`), for a family factor of any corona.

`class_runs` is the one rule that groups descending eigenvalues into classes,
for these values, `spectral.decompose` and the corona's lifts alike.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .defaults import DEFAULT_COSPECTRAL_TOL, DEFAULT_SUPPORT_TOL
from .exact import QuadInt, square_free_part

# 2cos(2 pi p/d), p/d reduced, by d: an integer, or (a + -b sqrt(delta))/2 as (a, b, delta)
_INTEGER = {1: 2, 2: -2, 3: -1, 4: 0, 6: 1}
_QUADRATIC = {5: (-1, 1, 5), 8: (0, 2, 2), 10: (1, 1, 5), 12: (0, 2, 3)}


class FamilyClass(NamedTuple):
    """An eigenvalue class: its value, multiplicity and exact label (or None)."""

    value: float
    multiplicity: int
    exact: QuadInt | None


class SupportSet(NamedTuple):
    """Eigenvalue classes whose projector does not kill the vertex;
    `beyond_quadratic` when one of them has a value of degree > 2."""

    vertex: int
    class_indices: tuple[int, ...]
    exact: tuple[QuadInt | None, ...]
    beyond_quadratic: bool

    @property
    def all_exact(self) -> bool:
        return all(q is not None for q in self.exact)


def class_runs(values, group_tol: float) -> list[tuple[int, int]]:
    """Index runs [a, b) of the classes of descending values: a class ends
    where the next value is at least group_tol * max(1, max|value|) lower."""
    gap = group_tol * max(1.0, max(map(abs, values)))
    bounds = [0, *(i for i in range(1, len(values)) if values[i - 1] - values[i] >= gap),
              len(values)]
    return list(zip(bounds, bounds[1:]))


class Atom(NamedTuple):
    """One term of a class: the eigenvalue of its walk term, whether a
    support holding it is flagged `beyond_quadratic`, and the key its
    decomposition's rules read."""

    value: float
    beyond_quadratic: bool
    key: object


class Decomposition:
    """Eigenvalue classes as runs of atoms, `atoms[i]` those of `classes[i]`,
    with the vertex queries the verdicts read (`transfer`), written once over
    the atom rules a subclass gives:

        holds(key, x, tol)    whether the atom's projector E does not kill x
        sign(key, x, y, tol)  s with E e_x = s E e_y != 0, 0 where E kills
                              both, None where neither sign holds (x != y)
        entry(key, x, y)      E[x, y]
        ones(key)             E 1 as a sequence over the vertices, or None
                              where it is 0 exactly
        residual(key)         the key of E less its main direction E 1 /
                              ||E 1||, or None where that is 0 (for an atom
                              with E 1 != 0)

    on vertices as `vertex` gives them; `tolerant` says whether the rules
    read the tolerances they take, and so whether a value that is 0 is
    0.0.  A class is the sum of its atoms'
    orthogonal projectors: it holds a vertex iff one of its atoms does, and
    has a sign iff every atom that holds u or v has that sign.  The atoms
    are a family's eigenspaces (`FamilyDecomposition`), a corona's (member,
    factor atom) pairs (`coronaspectra.CoronaDecomposition`) and one float
    class each (`spectral.SpectralDecomposition`)."""

    __slots__ = ()
    tolerant = False

    def vertex(self, u: int):
        """u, checked against the order n."""
        if not 0 <= u < self.n:
            raise ValueError(f"vertex {u} out of range for dimension {self.n}")
        return u

    def support(self, u: int, tol: float = DEFAULT_SUPPORT_TOL) -> SupportSet:
        """Classes holding u, in decreasing eigenvalue order, flagged
        `beyond_quadratic` when an atom holding u is."""
        x = self.vertex(u)
        idx, beyond = [], False
        for i, atoms in enumerate(self.atoms):
            held = [a.beyond_quadratic for a in atoms if self.holds(a.key, x, tol)]
            if held:
                idx.append(i)
                beyond = beyond or any(held)
        return SupportSet(u, tuple(idx), tuple(self.classes[i].exact for i in idx), beyond)

    def signs(self, u: int, v: int, tol: float = DEFAULT_COSPECTRAL_TOL) -> dict[int, int] | None:
        """Per-class signs when E e_u = +/- E e_v for every class, else None;
        classes that hold neither vertex are skipped."""
        if u == v:
            raise ValueError("strong cospectrality is a relation on distinct vertices")
        x, y = self.vertex(u), self.vertex(v)
        signs: dict[int, int] = {}
        for i, atoms in enumerate(self.atoms):
            for a in atoms:
                s = self.sign(a.key, x, y, tol)
                if s is None or s and signs.setdefault(i, s) != s:
                    return None
        return signs

    def terms(self, u: int, v: int) -> list[tuple[float, float]]:
        """The walk amplitude <u| exp(-itA) |v> as its (value, E[u,v]) terms;
        consecutive atoms at one value add up, so a class is one term unless
        it merges distinct values."""
        x, y = self.vertex(u), self.vertex(v)
        terms: list[tuple[float, float]] = []
        for atoms in self.atoms:
            for a in atoms:
                entry = self.entry(a.key, x, y)
                if terms and terms[-1][0] == a.value:
                    entry += terms.pop()[1]
                terms.append((a.value, entry))
        return terms

    def amplitude(self, u: int, v: int, t: float) -> complex:
        """<u| exp(-itA) |v> = sum_theta exp(-it theta) E_theta[u,v]."""
        return complex(sum(entry * complex(math.cos(t * value), -math.sin(t * value))
                           for value, entry in self.terms(u, v)))

    def beyond_quadratic_lifts(self, i: int) -> bool:
        """Whether every lift of class i over any copy factor is known to
        have degree > 2; nothing is known unless a subclass says so."""
        return False


class FamilyDecomposition(Decomposition):
    """The classes of family graph `kind:size`, each a run of atoms, one per
    eigenspace: the (value, key) pairs of `_distinct`, so an atom's value and
    flag are its eigenspace's, not a merged class's.  The classes are the
    distinct values grouped by `class_runs`: a class's value is the mean of
    its eigenvalues, and it keeps a label only when it holds one distinct
    value.  The atom rules decide support and strong-cospectral signs in
    integers, so the tolerances they take are not read, and give projector
    entries and E 1 in closed form.  `empty:n`'s one eigenspace I has the
    residual I - J/n, key 1."""

    __slots__ = ("kind", "size", "n", "classes", "atoms")

    def __init__(self, kind: str, size: int, group_tol: float):
        runs = _family_runs(kind, size, group_tol)
        self.kind, self.size = kind, size
        self.n = 2 * size if kind == "cocktail" else size
        self.classes = [c for c, _ in runs]
        self.atoms = [[Atom(value.value, value.exact is None, key) for value, key in spaces]
                      for _, spaces in runs]

    def holds(self, key: int, u: int, tol: float | None = None) -> bool:
        """Whether eigenspace `key` does not kill e_u."""
        n = self.size
        if self.kind == "path":
            return key * (u + 1) % (n + 1) != 0
        # only the star's 0 space, on the leaves, kills a vertex: its centre
        return not (self.kind == "star" and key == 0 and u == 0 and n > 1)

    def sign(self, key: int, u: int, v: int, tol: float | None = None) -> int | None:
        """s with E e_u = s E e_v != 0 on eigenspace `key` (u != v), 0 when E
        kills both, None when neither sign holds."""
        kind, n = self.kind, self.size
        if kind == "path":  # E_j e_u is sin(pi a/N) times one vector, a = j(u + 1)
            big = 2 * n + 2
            a, b = key * (u + 1) % big, key * (v + 1) % big
            if a % (n + 1) == 0 or b % (n + 1) == 0:
                return 0 if a % (n + 1) == b % (n + 1) == 0 else None
            # sin(pi a/N) = sin(pi b/N) iff a = b or a + b = N (mod 2N)
            if (a - b) % big == 0 or (a + b) % big == n + 1:
                return 1
            return -1 if (a + b) % big == 0 or (a - b) % big == n + 1 else None
        if kind == "cycle":  # the characters of +-j agree at u and v, or differ by -1
            d = key * (u - v)
            return 1 if d % n == 0 else -1 if 2 * d % n == 0 else None
        if kind == "complete":  # J/n; I - J/n has e_u + e_v - 2J/n = 0 at n = 2
            return 1 if key == 0 else -1 if n == 2 else None
        if kind == "cocktail":  # J/2n, (I - P)/2, (I + P)/2 - J/2n
            if key == 0:
                return 1
            if v == u ^ 1:
                return -1 if key == 1 else 1
            # at n = 2, u, v and their antipodes cover all four vertices
            return -1 if key == 2 and n == 2 else None
        if kind == "star":
            if key == 0:  # zero at the centre; leaves u, v: e_u + e_v - 2J/(n - 1) = 0 at n = 3
                return -1 if u * v and n == 3 else None
            # x_u = x_v on two leaves; sqrt(n - 1) = 1 at the centre only at n = 2
            return 1 if u * v else key if n == 2 else None
        # empty: E = I, and (I - J/n)(e_u + e_v) = 0 only at n = 2
        return -1 if key and n == 2 else None

    def entry(self, key: int, u: int, v: int) -> float:
        """E[u, v] on eigenspace `key`."""
        kind, n = self.kind, self.size
        if kind == "path":
            return 2.0 / (n + 1) * _sin_pi(key * (u + 1), n + 1) * _sin_pi(key * (v + 1), n + 1)
        if kind == "cycle":
            mult = 1 if key == 0 or 2 * key == n else 2
            k = key * (u - v) % n
            return mult / n * math.cos(2.0 * math.pi * min(k, n - k) / n)
        same = float(u == v)
        if kind == "complete":
            return 1.0 / n if key == 0 else same - 1.0 / n
        if kind == "cocktail":
            if key == 0:
                return 0.5 / n
            anti = float(v == u ^ 1)
            return (same - anti) / 2.0 if key == 1 else (same + anti) / 2.0 - 0.5 / n
        if kind == "star" and n > 1:
            if key == 0:
                return same - 1.0 / (n - 1) if u * v else 0.0
            root = math.sqrt(n - 1)
            return (key * root if u == 0 else 1.0) * (key * root if v == 0 else 1.0) / (2 * n - 2)
        return same - 1.0 / n if key else same  # empty, and star:1, one vertex

    def degree(self, key: int) -> int:
        """The degree of eigenspace `key`'s value: phi(d)/2 for 2cos(2 pi
        j/N), d = N/gcd(j, N) >= 3, N = 2n + 2 for a path and n for a cycle
        (module docstring), 1 for d <= 2; every other family's values are
        integers or square roots."""
        if self.kind == "star" and key:
            return 1 if math.isqrt(self.size - 1) ** 2 == self.size - 1 else 2
        if self.kind not in ("path", "cycle"):
            return 1
        big = 2 * self.size + 2 if self.kind == "path" else self.size
        d = big // math.gcd(key, big)
        return max(1, _totient(d) // 2)

    def beyond_quadratic_lifts(self, i: int) -> bool:
        """Whether every eigenspace of class i has degree 3 or >= 5, so every
        lift of the class does (module docstring)."""
        return all(self.degree(a.key) == 3 or self.degree(a.key) >= 5 for a in self.atoms[i])

    def ones(self, key: int) -> list[float] | None:
        """E 1 on eigenspace `key`: 1 on the eigenspace of J, and on a path's
        odd j E_j 1 = 2/(n+1) cot(pi j/(2n+2)) sin(pi j(u+1)/(n+1)) and a
        star's +-sqrt(n - 1) x (x^T 1)/(2(n - 1)); None on the others."""
        kind, n = self.kind, self.size
        if kind == "path":
            if key % 2 == 0:
                return None
            scale = 2.0 / (n + 1) / math.tan(math.pi * key / (2 * n + 2))
            return [scale * _sin_pi(key * (u + 1), n + 1) for u in range(n)]
        if kind == "star" and n > 1:
            if key == 0:
                return None
            root = key * math.sqrt(n - 1)
            scale = (root + n - 1) / (2 * n - 2)
            return [root * scale] + [scale] * (n - 1)
        return [1.0] * self.n if key == 0 else None

    def residual(self, key: int) -> int | None:
        """I - J/n, key 1, for `empty:n`'s I; every other main eigenspace is J's
        or a path's or star's line, with nothing left."""
        return 1 if self.kind == "empty" and self.size > 1 else None


def _totient(d: int) -> int:
    """Euler's phi(d), by trial division."""
    out, p = d, 2
    while p * p <= d:
        if d % p == 0:
            while d % p == 0:
                d //= p
            out -= out // p
        p += 1
    return out - out // d if d > 1 else out


def _sin_pi(a: int, big_n: int) -> float:
    """sin(pi a/N) for an integer a, from an argument in [0, pi/2], so values
    equal up to sign by symmetry are equal floats up to sign, and zeros 0.0."""
    a %= 2 * big_n
    r = a % big_n
    return (-1.0 if a > big_n else 1.0) * math.sin(math.pi * min(r, big_n - r) / big_n)


def _family_runs(kind: str, n: int,
                 group_tol: float) -> list[tuple[FamilyClass, list[tuple[FamilyClass, int]]]]:
    """The classes of kind:n grouped by `class_runs`, each with its eigenspaces."""
    values = _distinct(kind, n)
    runs = []
    for a, b in class_runs([c.value for c, _ in values], group_tol):
        spaces = [space for _, held in values[a:b] for space in held]
        if b - a == 1:
            runs.append((values[a][0], spaces))
            continue
        mult = sum(c.multiplicity for c, _ in values[a:b])
        mean = sum(c.value * c.multiplicity for c, _ in values[a:b]) / mult
        runs.append((FamilyClass(mean, mult, None), spaces))
    return runs


def _distinct(kind: str, n: int) -> list[tuple[FamilyClass, list[tuple[FamilyClass, int]]]]:
    """The distinct eigenvalues of kind:n, descending, each with its
    eigenspaces: (value, key) pairs, key j for a path or cycle, else the
    eigenspace's place in the table of the module docstring (the star's
    +1, 0, -1 by sign)."""
    if kind == "path":
        raw = [(_cosine(j, 2 * n + 2, 1), j) for j in range(1, n + 1)]
    elif kind == "cycle":
        raw = [(_cosine(j, n, 1 if j == 0 or 2 * j == n else 2), j) for j in range(n // 2 + 1)]
    elif kind == "complete":
        raw = [(_integer(n - 1, 1), 0), (_integer(-1, n - 1), 1)]
    elif kind == "cocktail":
        raw = [(_integer(2 * n - 2, 1), 0), (_integer(0, n), 1), (_integer(-2, n - 1), 2)]
    elif kind == "empty":
        raw = [(_integer(0, n), 0)]
    elif kind == "star" and n == 1:  # one vertex
        raw = [(_integer(0, 1), 0)]
    elif kind == "star":
        root = _sqrt(n - 1)
        raw = [(_labelled(root, 1), 1), (_integer(0, n - 2), 0),
               (_labelled(QuadInt(-root.a, -root.b, root.delta), 1), -1)]
    else:
        raise ValueError(f"unknown graph family {kind!r}")
    merged: dict = {}  # equal labels, as cocktail:1's two zeros, add up
    for c, key in raw:
        if c.multiplicity > 0:
            label = c.value if c.exact is None else c.exact
            old, spaces = merged.get(label, (None, []))
            merged[label] = (c if old is None else c._replace(
                multiplicity=old.multiplicity + c.multiplicity), [*spaces, (c, key)])
    return sorted(merged.values(), key=lambda item: -item[0].value)


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
    """sqrt(m) for m >= 1 as a label: s sqrt(c) = (0 + 2s sqrt(c))/2."""
    s, c = square_free_part(m)
    return QuadInt.from_int(s) if c == 1 else QuadInt(0, 2 * s, c)


def _integer(r: int, multiplicity: int) -> FamilyClass:
    return _labelled(QuadInt.from_int(r), multiplicity)


def _labelled(q: QuadInt, multiplicity: int) -> FamilyClass:
    return FamilyClass(q.value(), multiplicity, q)
