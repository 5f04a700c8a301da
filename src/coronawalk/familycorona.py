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
for each eigenspace of F (a lift) or of R (a copy class), and I - J/m for
`empty:m`: so the vertex queries of `leafspectra.Decomposition` read them
per atom from the eigenspace rules of F and R (`FamilyDecomposition.holds`,
`sign` and `entry`), in integers, and the tolerances those take are not
read.  A lift's atom x x^T (x) E meets (v, layer a) in x_a E e_v; x_a is 0
only where lam = 0, so only that lift's layer decides.  Two base vertices,
or two copy vertices over v and v', take E's sign on v and v' (+1 on v =
v'); a copy class parts copy vertices over v != v', and over one v takes
R's sign on w and w', -1 for I - J/m at m = 2 alone.  A base vertex and a
copy vertex are never strongly cospectral: for each lam != 0 in the support
the norms of the two lifts' atoms force E_lam[v,v] = E_lam[v',v'] / m, lam
= 0 may hold neither, so 1 = 1/m; and at m = 1 the two lifts of lam != 0
would need base^2 = copy^2, which the pair (1, (+-sqrt(5) - 1)/2) of k = 0
refutes.  An atom's walk term is taken at its class's value, as the closed
form's classes give it.

`cli` reads this for every command on such a spec, with no numpy and no
eigensolve (`sweep` loads numpy for its grid alone), and for `pgst` and
`no-pst-scan` on such a base; the closed form
(`corona.corona_spectral_closed_form`) is the oracle it is tested against.
"""

from __future__ import annotations

from typing import NamedTuple

from .corona import lift_class, merge_runs, regular_main
from .exact import QuadInt
from .graphs import FAMILIES, GraphSpec, is_family_corona
from .leafspectra import Atom, Decomposition, FamilyDecomposition


class CoronaClass(NamedTuple):
    """An eigenvalue class: value, multiplicity, exact label (or None) and
    whether its value is known to have degree > 2 (`corona.lift_class`)."""

    value: float
    multiplicity: int
    exact: QuadInt | None
    beyond_quadratic: bool


class _Member(NamedTuple):
    """A raw class: value, label, flag and multiplicity, the keys of its
    atoms, eigenspaces of F for a lift and of R for a copy class (None for
    I - J/m), and a lift's layer entries base and copy (base None for a copy
    class)."""

    value: float
    exact: QuadInt | None
    beyond_quadratic: bool
    multiplicity: int
    keys: list[int | None]
    base: float | None = None
    copy: float = 0.0


class FamilyCoronaDecomposition(Decomposition):
    """The classes of corona(F, R), F a family and R a regular family, as
    runs of (member, eigenspace) atoms with the rules of the module
    docstring; an atom's value and flag are its class's."""

    __slots__ = ("n", "classes", "atoms", "_base", "_copy")

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
        # classes keep the other eigenspaces, and `empty:m`'s one class I - J/m,
        # the key None
        main_key = copy.atoms[0][0].key
        rest = [None] if r.kind == "empty" and m > 1 else []
        raw = [_Member(c.value, c.exact, False, n * (c.multiplicity - (j == 0)),
                       [a.key for a in atoms if a.key != main_key] + rest)
               for j, (c, atoms) in enumerate(zip(copy.classes, copy.atoms))
               if c.multiplicity > (j == 0)]
        main = regular_main(k, m)
        for c, atoms in zip(base.classes, base.atoms):
            keys = [a.key for a in atoms]
            raw.extend(_Member(x.value, x.exact, x.beyond_quadratic, c.multiplicity, keys, x.base,
                               x.copy[0]) for x in lift_class(c.value, c.exact, main))
        runs = merge_runs(raw, group_tol)
        self.classes = [CoronaClass(run[0].value, sum(x.multiplicity for x in run), label, flagged)
                        for run, label, flagged in runs]
        self.atoms = [[Atom(c.value, c.beyond_quadratic, (x, key)) for x in run for key in x.keys]
                      for c, (run, _, _) in zip(self.classes, runs)]

    def vertex(self, u: int) -> tuple[int, int | None]:
        """(v, None) for base vertex v, (v, w) for copy vertex (v, w)."""
        n = self._base.n
        if super().vertex(u) < n:
            return u, None
        w, v = divmod(u - n, n)
        return v, w

    def holds(self, atom, x, tol=None) -> bool:
        (member, key), (v, w) = atom, x
        if member.base is None:  # a copy class holds every copy vertex (module docstring)
            return w is not None
        return (member.base if w is None else member.copy) != 0 and self._base.holds(key, v)

    def sign(self, atom, x, y, tol=None) -> int | None:
        (member, key), (v, w), (v2, w2) = atom, x, y
        if (w is None) != (w2 is None):
            return None  # a base and a copy vertex (module docstring)
        if member.base is None:  # a copy class: 0 on base vertices, and parts two copies
            if w is None:
                return 0
            if v != v2:
                return None
            if key is None:  # (I - J/m)(e_w + e_w') = 0 only at m = 2
                return -1 if self._copy.n == 2 else None
            return self._copy.sign(key, w, w2)
        if (member.base if w is None else member.copy) == 0:
            return 0
        if v == v2:
            return int(self._base.holds(key, v))
        return self._base.sign(key, v, v2)

    def entry(self, atom, x, y) -> float:
        (member, key), (v, w), (v2, w2) = atom, x, y
        if member.base is None:  # (E_mu - J/m [mu holds it])[w, w2] on one copy
            if w is None or w2 is None or v != v2:
                return 0.0
            if key is None:
                return float(w == w2) - 1.0 / self._copy.n
            return self._copy.entry(key, w, w2)
        layer = (member.base if w is None else member.copy) * \
            (member.base if w2 is None else member.copy)
        return layer * self._base.entry(key, v, v2)
