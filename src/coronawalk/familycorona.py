"""Neighborhood coronas of two family graphs, by theorem.

The corona of a family graph F (n vertices) with a family graph R (m
vertices) has two kinds of class (Gopalapillai, "The spectrum of
neighborhood corona of graphs", Kragujevac J. Math. 35, 2011; McLeman &
McNicholas, Linear Algebra Appl. 435, 2011):

    lifts   each class lam of F (`leafspectra.FamilyDecomposition`) lifts
            to the roots theta of the coronal equation theta - lam = lam^2
            sum_j w_j^2 / (theta - mu_j) over R's main data (`family_main`:
            its main eigenvalues mu_j and norms w_j = ||P_j 1||), one per
            eigenvector (base, x) of the arrowhead of lam
            (`corona.lift_class`, with its labels and degree flags), each
            with projector c c^T (x) E_lam for its unit layer column c =
            (base, U x) on the main directions U.  Over a k-regular R
            (`cycle`, `complete`, `cocktail`, `empty`, or a `path` or `star`
            of order <= 2) that is the paper's pair (lam + k +- Lambda)/2,
            Lambda = sqrt((lam - k)^2 + 4 m lam^2), with one copy entry for
            every w; over `path:m` or `star:m`, m >= 3, the copy entry
            (U x)[w] = lam sum_j (P_j 1)[w] / (theta - mu_j), over the norm
            of (1, lam w_j / (theta - mu_j))_j, varies with w and is read
            one w at a time (`corona.copy_entry`).
            lam = 0 lifts to 0 on the base alone and to each mu_j on the
            copies alone;
    copies  each class mu of R less its main eigenspaces, with projector
            E_mu (x) I_n on the copy layers: multiplicity n times that of mu
            less the main ones, mu's label and no flag.  A regular R's one
            main direction J/m is its top eigenspace, but for `empty:m`,
            whose one eigenspace I keeps I - J/m; a path's main eigenspaces
            are its odd j and a star's the two of +-sqrt(m - 1), so their
            copy classes are the even j and the star's 0-space on the
            leaves, which kills the centre.

The classes merge as the closed form merges its blocks (`corona.merge_runs`).
Vertex (v, 0) is v and copy vertex (v, w) is n + w n + v, as
`graphs.corona_graph` numbers them.  A merged class is the sum of its
members' orthogonal projectors, and a member is the sum of its atoms, one
for each eigenspace of F (a lift) or of R (a copy class), and I - J/m for
`empty:m`: so the vertex queries of `leafspectra.Decomposition` read them
per atom from the eigenspace rules of F and R (`FamilyDecomposition.holds`,
`sign` and `entry`), in integers.  A copy class holds (v, w) where R's
eigenspace holds w, parts copy vertices over v != v' and a base vertex
from a copy vertex it holds, and over one v takes R's sign on w and w', -1
for I - J/m at m = 2 alone.  A lift's atom c c^T (x) E meets (v, layer a)
in c_a E e_v.  Its base entry is 0 only where lam = 0, exactly, and two
vertices on one layer with one entry, as two base vertices, or two copy
vertices over a regular R, take E's sign on v and v' (+1 on v = v').  Over a
regular R a base vertex and a copy vertex are never strongly cospectral:
for each lam != 0 in the support the norms of the two lifts' atoms force
E_lam[v,v] = E_lam[v',v'] / m, lam = 0 may hold neither, so 1 = 1/m; and at
m = 1 the two lifts of lam != 0 would need base^2 = copy^2, which the pair
(1, (+-sqrt(5) - 1)/2) of k = 0 refutes.  That proof, and one copy entry
for every w, fail over a path or a star: there a copy entry is a float that
may vanish (the lift -1 of (1 +- sqrt(5))/2 over star:3 is 0 on its
leaves), so an atom holds a copy vertex where |c_a| ||E e_v|| exceeds
--support-tol, and two vertices of which one is a copy vertex take the sign
s of E e_v = +-E e_v' (exact) for which ||c_a E e_v - s c_b E e_v'|| is at
most --cospectral-tol, 0 where both norms are, as
`spectral.SpectralDecomposition` compares its rows.  The base entries, F's
and R's eigenspaces and the copy classes stay exact.  An atom's walk term
is taken at its class's value, as the closed form's classes give it.

`cli` reads this for every command on such a spec, with no numpy and no
eigensolve (`sweep` loads numpy for its grid alone), and for `pgst` and
`no-pst-scan` on such a base; the closed form
(`corona.corona_spectral_closed_form`) is the oracle it is tested against.
The searches read a path or star copy factor's main data from
`family_main` too (`cli._corona_spec`), so `no-pst-scan` over one solves
no eigenproblem of it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .corona import MainData, copy_entry, lift_class, merge_runs, regular_main
from .defaults import DEFAULT_GROUP_TOL
from .exact import QuadInt, main_polynomial
from .graphs import FAMILIES, GraphSpec, build_family, is_family_corona
from .leafspectra import Atom, Decomposition, FamilyDecomposition, _sin_pi


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
    I - J/m), and a lift's base entry and main coordinates (base None for a
    copy class)."""

    value: float
    exact: QuadInt | None
    beyond_quadratic: bool
    multiplicity: int
    keys: list[int | None]
    base: float | None = None
    coords: tuple[float, ...] = ()


def family_main(r: FamilyDecomposition) -> tuple[MainData, set]:
    """The main data of family graph R by theorem, and the keys of its main
    eigenspaces.  A k-regular R has one, its top eigenspace, which holds
    J/m (`corona.regular_main`).  A path:m's are the odd j, on u_j[w] =
    sqrt(2/(m+1)) sin(pi j(w+1)/(m+1)) with ||P_j 1|| = sqrt(2/(m+1))
    cot(pi j/(2m+2)); a star:m's, m >= 3, are +-sqrt(m - 1), on (+-sqrt(m -
    1), 1, ..., 1)/sqrt(2(m - 1)) with ||P 1|| = (sqrt(m - 1) +- 1)/sqrt(2).
    The walks and the main polynomial are R's exact Krylov relation
    (`exact.main_polynomial`)."""
    m = r.n
    k = FAMILIES[r.kind].degree(r.size)
    if k is not None:
        return regular_main(k, m), {r.atoms[0][0].key}
    spaces = {a.key: a.value for atoms in r.atoms for a in atoms}
    if r.kind == "path":
        keys = list(range(1, m + 1, 2))
        scale = math.sqrt(2 / (m + 1))
        directions = [tuple(scale * _sin_pi(j * (w + 1), m + 1) for j in keys) for w in range(m)]
        norms = [scale / math.tan(math.pi * j / (2 * m + 2)) for j in keys]
    else:  # star:m, the centre 0 first
        keys, root = [1, -1], math.sqrt(m - 1)
        leaf = 1 / math.sqrt(2 * m - 2)
        directions = [(math.sqrt(0.5), -math.sqrt(0.5))] + [(leaf, leaf)] * (m - 1)
        norms = [(root + 1) * math.sqrt(0.5), (root - 1) * math.sqrt(0.5)]
    walks, coefs = main_polynomial(build_family(GraphSpec(r.kind, r.size)).edges, m)
    return MainData(tuple(spaces[j] for j in keys), directions, norms, walks, coefs), set(keys)


class FamilyCoronaDecomposition(Decomposition):
    """The classes of corona(F, R), F and R families, as runs of (member,
    eigenspace) atoms with the rules of the module docstring; an atom's
    value and flag are its class's."""

    __slots__ = ("n", "classes", "atoms", "_base", "_copy", "_main", "_regular")

    def __init__(self, spec: GraphSpec, group_tol: float):
        if not is_family_corona(spec):
            raise ValueError(f"{spec} is no corona of two families")
        f, r = spec.factors
        self._regular = FAMILIES[r.kind].degree(r.size) is not None
        self._base = base = FamilyDecomposition(f.kind, f.size, group_tol)
        # an irregular R's classes at the default, where none merges two of
        # its eigenvalues, as `spectral.SpecFactors` reads its main data
        self._copy = copy = FamilyDecomposition(
            r.kind, r.size, group_tol if self._regular else DEFAULT_GROUP_TOL)
        n, m = base.n, copy.n
        self.n = n * (m + 1)
        self._main, main_keys = family_main(copy)
        # the copy classes keep R's other eigenspaces, and `empty:m`'s one
        # class I - J/m, the key None
        rest = [None] if r.kind == "empty" and m > 1 else []
        raw, solved = [], {}
        for c, atoms in zip(copy.classes, copy.atoms):
            mains = sum(a.key in main_keys for a in atoms)
            if c.multiplicity > mains:
                raw.append(_Member(c.value, c.exact, False, n * (c.multiplicity - mains),
                                   [a.key for a in atoms if a.key not in main_keys] + rest))
        for c, atoms in zip(base.classes, base.atoms):
            keys = [a.key for a in atoms]
            raw.extend(_Member(x.value, x.exact, x.beyond_quadratic, c.multiplicity, keys, x.base,
                               x.coords) for x in lift_class(c.value, c.exact, self._main, solved))
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

    def _layer(self, member: _Member, w: int | None) -> float:
        """A lift's layer entry on base vertices (w None) or copy vertex w."""
        return member.base if w is None else copy_entry(self._main, member.coords, w)

    def _exact(self, w: int | None) -> bool:
        """Whether a lift's layer entry there is decided exactly: on the base,
        and on every copy of a regular R, where it is one float for all w."""
        return w is None or self._regular

    def holds(self, atom, x, tol=None) -> bool:
        (member, key), (v, w) = atom, x
        if member.base is None:  # a copy class: R's eigenspace on the copy over v
            return w is not None and (key is None or self._copy.holds(key, w))
        if not self._base.holds(key, v):
            return False
        layer = self._layer(member, w)
        if self._exact(w):
            return layer != 0
        return abs(layer) * math.sqrt(self._base.entry(key, v, v)) > tol

    def sign(self, atom, x, y, tol=None) -> int | None:
        (member, key), (v, w), (v2, w2) = atom, x, y
        if self._regular and (w is None) != (w2 is None):
            return None  # a base and a copy vertex (module docstring)
        if member.base is None:  # a copy class: 0 on base vertices, and parts two copies
            if w is not None and w2 is not None and v == v2:
                if key is None:  # (I - J/m)(e_w + e_w') = 0 only at m = 2
                    return -1 if self._copy.n == 2 else None
                return self._copy.sign(key, w, w2)
            return None if self.holds(atom, x) or self.holds(atom, y) else 0
        a, b = self._layer(member, w), self._layer(member, w2)
        if self._exact(w) and self._exact(w2):  # one layer: a = b
            if a == 0:
                return 0
            return int(self._base.holds(key, v)) if v == v2 else self._base.sign(key, v, v2)
        # E_atom e_x = a (x (x) E e_v): compared as `SpectralDecomposition`
        # compares its rows, E e_v and E e_v2 related exactly
        ev, ev2 = (math.sqrt(self._base.entry(key, u, u)) for u in (v, v2))
        if abs(a) * ev <= tol and abs(b) * ev2 <= tol:
            return 0
        s = 1 if v == v2 else self._base.sign(key, v, v2)
        if not s or abs(abs(a) - abs(b)) * ev > tol:
            return None
        return s if a * b >= 0 else -s

    def entry(self, atom, x, y) -> float:
        (member, key), (v, w), (v2, w2) = atom, x, y
        if member.base is None:  # (E_mu - J/m [mu holds it])[w, w2] on one copy
            if w is None or w2 is None or v != v2:
                return 0.0
            if key is None:
                return float(w == w2) - 1.0 / self._copy.n
            return self._copy.entry(key, w, w2)
        return self._layer(member, w) * self._layer(member, w2) * self._base.entry(key, v, v2)
