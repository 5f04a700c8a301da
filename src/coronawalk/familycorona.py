"""Neighborhood coronas of a family graph with a regular family, by theorem.

The corona of a family graph F (n vertices) with a k-regular family graph R
(m vertices: `cycle`, `complete`, `cocktail`, `empty`, or a `path` or `star`
of order <= 2) has two kinds of class (Gopalapillai, "The spectrum of
neighborhood corona of graphs", Kragujevac J. Math. 35, 2011):

    lifts   each class lam of F (`leafspectra.FamilyDecomposition`) lifts
            to (lam + k +- Lambda)/2, Lambda = sqrt((lam - k)^2 + 4 m lam^2)
            (`corona.lift_class`, with its labels and degree flags), each
            with projector x x^T (x) E_lam for its unit layer column x =
            (base, copy, ..., copy); lam = 0 lifts to 0 on the base alone
            and to k on the copies alone;
    copies  each class mu of R less the main direction J/m, which R's top
            eigenspace holds (it is that eigenspace but for `empty:m`,
            whose one eigenspace is I), with projector (E_mu - J/m [mu
            holds it]) (x) I_n on the copy layers: multiplicity n times
            that of mu less the main one, mu's label and no flag.  Each
            holds every copy vertex: the diagonal of every eigenspace of a
            regular family but J/m, and of I - J/m at m > 1, is positive.

The classes merge as the closed form merges its blocks (`corona.merge_runs`).
Vertex (v, 0) is v and copy vertex (v, w) is n + w n + v, as
`graphs.corona_graph` numbers them.  A merged class is the sum of its
members' orthogonal projectors, and a member is the sum of its atoms, one
for each eigenspace of F (a lift) or of R (a copy class): so support and
signs are decided per atom from the eigenspace rules of F and R
(`FamilyDecomposition.holds`, `sign` and `entry`), in integers, and the
tolerances those take are not read.  A lift's atom x x^T (x) E meets (v,
layer a) in x_a E e_v; x_a is 0 only where lam = 0, so only that lift's
layer decides.  Two base vertices, or two copy vertices over v and v', take
E's sign on v and v' (+1 on v = v'); a copy class parts copy vertices over
v != v', and over one v takes R's sign on w and w', -1 for I - J/m at m = 2
alone.  A base vertex and a copy vertex are never strongly cospectral: for
each lam != 0 in the support the norms of the two lifts' atoms force
E_lam[v,v] = E_lam[v',v'] / m, lam = 0 may hold neither, so 1 = 1/m; and at
m = 1 the two lifts of lam != 0 would need base^2 = copy^2, which the pair
(1, (+-sqrt(5) - 1)/2) of k = 0 refutes.  The amplitude sums each class's
entry at its value, as the closed form's classes give it.

`cli` reads this for `spectrum`, `support`, `cospectral`, `periodic`, `pst`
and `fidelity` on such a spec, with no numpy and no eigensolve; the closed
form (`corona.corona_spectral_closed_form`) is the oracle it is tested
against.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .corona import lift_class, merge_runs, regular_main
from .exact import QuadInt
from .graphs import FAMILIES, GraphSpec, is_family_corona
from .leafspectra import FamilyDecomposition, SupportSet


class CoronaClass(NamedTuple):
    """An eigenvalue class: value, multiplicity, exact label (or None) and
    whether its value is known to have degree > 2 (`corona.lift_class`)."""

    value: float
    multiplicity: int
    exact: QuadInt | None
    beyond_quadratic: bool


class _Member(NamedTuple):
    """A raw class: value, label, flag and multiplicity, the keys of its
    atoms' eigenspaces, of F for a lift and of R for a copy class, and a
    lift's layer entries base and copy (base None for a copy class)."""

    value: float
    exact: QuadInt | None
    beyond_quadratic: bool
    multiplicity: int
    keys: list[int]
    base: float | None = None
    copy: float = 0.0


class FamilyCoronaDecomposition:
    """The classes of corona(F, R), F a family and R a regular family, and
    the vertex queries of `spectral.SpectralDecomposition` on them by theorem
    (module docstring)."""

    __slots__ = ("n", "classes", "_base", "_copy", "_rest", "_members")

    def __init__(self, spec: GraphSpec, group_tol: float):
        if not is_family_corona(spec):
            raise ValueError(f"{spec} is no corona of a family with a regular family")
        f, r = spec.factors
        k = FAMILIES[r.kind].degree(r.size)
        self._base = base = FamilyDecomposition(f.kind, f.size, group_tol)
        self._copy = copy = FamilyDecomposition(r.kind, r.size, group_tol)
        n, m = base.n, copy.n
        self.n = n * (m + 1)
        # R's first class holds its top eigenspace, which holds J/m: the copy
        # classes keep the other eigenspaces, and `empty:m`'s one class I - J/m
        main_key = copy.spaces[0][0][1]
        self._rest = r.kind == "empty" and m > 1
        raw = [_Member(c.value, c.exact, False, n * (c.multiplicity - (j == 0)),
                       [key for _, key in spaces if key != main_key])
               for j, (c, spaces) in enumerate(zip(copy.classes, copy.spaces))
               if c.multiplicity > (j == 0)]
        main = regular_main(k, m)
        for c, spaces in zip(base.classes, base.spaces):
            keys = [key for _, key in spaces]
            raw.extend(_Member(x.value, x.exact, x.beyond_quadratic, c.multiplicity, keys, x.base,
                               x.copy[0]) for x in lift_class(c.value, c.exact, main))
        runs = merge_runs(raw, group_tol)
        self.classes = [CoronaClass(run[0].value, sum(x.multiplicity for x in run), label, flagged)
                        for run, label, flagged in runs]
        self._members = [run for run, _, _ in runs]

    def support(self, u: int, tol: float | None = None) -> SupportSet:
        """Classes holding u, in decreasing eigenvalue order, flagged
        `beyond_quadratic` when one of them is (`corona.lift_class`)."""
        v, w = self._vertex(u)
        idx = [i for i, members in enumerate(self._members)
               if any(self._holds(x, v, w) for x in members)]
        return SupportSet(u, tuple(idx), tuple(self.classes[i].exact for i in idx),
                          any(self.classes[i].beyond_quadratic for i in idx))

    def signs(self, u: int, v: int, tol: float | None = None) -> dict[int, int] | None:
        """Per-class signs when E e_u = +/- E e_v for every class, else None;
        classes that hold neither vertex are skipped."""
        if u == v:
            raise ValueError("strong cospectrality is a relation on distinct vertices")
        (a, w), (b, w2) = self._vertex(u), self._vertex(v)
        if (w is None) != (w2 is None):
            return None  # a base and a copy vertex (module docstring)
        signs: dict[int, int] = {}
        for i, members in enumerate(self._members):
            for member in members:
                for s in self._signs(member, a, w, b, w2):
                    if s is None or s and signs.setdefault(i, s) != s:
                        return None
        return signs

    def amplitude(self, u: int, v: int, t: float) -> complex:
        """Walk amplitude <u| exp(-itA) |v> = sum_classes exp(-it value) E[u,v]."""
        x, y = self._vertex(u), self._vertex(v)
        return sum(sum(self._entry(member, *x, *y) for member in members)
                   * complex(math.cos(t * c.value), -math.sin(t * c.value))
                   for c, members in zip(self.classes, self._members))

    def _vertex(self, u: int) -> tuple[int, int | None]:
        """(v, None) for base vertex v, (v, w) for copy vertex (v, w)."""
        if not 0 <= u < self.n:
            raise ValueError(f"vertex {u} out of range for dimension {self.n}")
        n = self._base.n
        if u < n:
            return u, None
        w, v = divmod(u - n, n)
        return v, w

    def _holds(self, x: _Member, v: int, w: int | None) -> bool:
        if x.base is None:  # a copy class holds every copy vertex (module docstring)
            return w is not None
        return (x.base if w is None else x.copy) != 0 and any(
            self._base.holds(key, v) for key in x.keys)

    def _signs(self, x: _Member, v: int, w: int | None, v2: int, w2: int | None):
        """The sign s of each atom of x with E e_(v,w) = s E e_(v2,w2), None
        where neither sign holds, and 0 or no entry where E kills both; both
        vertices are base vertices or both copy vertices."""
        if x.base is None:  # a copy class: 0 on base vertices, and parts two copies
            if w is None:
                return ()
            if v != v2:
                return (None,)
            return ([self._copy.sign(key, w, w2) for key in x.keys]
                    + [-1 if self._copy.n == 2 else None] * self._rest)
        if (x.base if w is None else x.copy) == 0:
            return ()
        if v == v2:
            return [int(self._base.holds(key, v)) for key in x.keys]
        return [self._base.sign(key, v, v2) for key in x.keys]

    def _entry(self, x: _Member, v: int, w: int | None, v2: int, w2: int | None) -> float:
        if x.base is None:  # (E_mu - J/m [mu holds it])[w, w2] on one copy
            if w is None or w2 is None or v != v2:
                return 0.0
            rest = float(w == w2) - 1.0 / self._copy.n if self._rest else 0.0
            return rest + sum(self._copy.entry(key, w, w2) for key in x.keys)
        layer = (x.base if w is None else x.copy) * (x.base if w2 is None else x.copy)
        return layer * sum(self._base.entry(key, v, v2) for key in x.keys)
