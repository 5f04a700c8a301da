"""Neighborhood coronas from the spectral data of their factors.

The corona of a base graph G (n vertices) with a copy factor H (m vertices)
has two kinds of class (Gopalapillai, "The spectrum of neighborhood corona
of graphs", Kragujevac J. Math. 35, 2011; McLeman & McNicholas, Linear
Algebra Appl. 435, 2011):

    lifts   each class lam of G lifts to the roots theta of the coronal
            equation theta - lam = lam^2 sum_j w_j^2 / (theta - mu_j) over
            H's main data (`corona.main_atoms`: its main eigenvalues mu_j,
            directions u_j and norms w_j = ||P_j 1||), one per eigenvector
            (base, x) of the arrowhead of lam (`corona.lift_class`, with its
            labels and degree flags, and flagged all where the base knows
            every lift of lam has degree > 2,
            `Decomposition.beyond_quadratic_lifts`: an unlabelled family
            value of degree 3 or >= 5), each atom E of lam giving the atom
            c c^T (x) E for the unit layer column c = (base, U x) on the
            main directions U.  Over a k-regular H that is the paper's pair
            (lam + k +- Lambda)/2, Lambda = sqrt((lam - k)^2 + 4 m lam^2),
            with one copy entry for every w; over an irregular H the copy
            entry (U x)[w] varies with w and is read one w at a time
            (`corona.copy_entry`).  lam = 0 lifts to 0 on the base alone
            and to each mu_j on the copies alone;
    copies  each class mu of H less its main direction, with projector
            E_mu (x) I_n on the copy layers: multiplicity n times that of mu
            less one if mu is main, mu's label, and the flag every atom of
            mu carries.  An atom with E 1 != 0 leaves its `residual`, E less
            E 1/||E 1||: nothing for a line, I - J/m for `empty:m`'s I, the
            block less its main column for H's float classes, and the lift
            over the base atom's residual for a corona H.  Where several
            atoms of mu have E 1 != 0 (in a corona H, lifts of two base
            values that meet), the span of their E 1 less P_mu 1 is left as
            well, as explicit lines (`_lines`).

The members merge as `decompose` groups eigenvalues (`corona.merge_runs`).
Vertex (v, 0) is v and copy vertex (v, w) is n + w n + v, as
`graphs.corona_graph` numbers them.  A merged class is the sum of its
members' orthogonal projectors, and a member the sum of its atoms, one for
each atom of G (a lift) or of H (a copy class): so the vertex queries of
`leafspectra.Decomposition` read them per atom from the factors' own rules
(`holds`, `sign` and `entry`), on each factor's own vertices, so that a
factor may be a family (by theorem, in integers), a `file:` leaf (float
classes) or a corona itself.  A corona is a copy factor through two more
rules: a lift atom c c^T (x) E has E 1 = (c^T 1) c (x) E 1 (`ones`), and
its main direction is c (x) E 1/||E 1||, which leaves c c^T (x) E' for E'
the residual of E (`residual`); a copy class has E 1 = 0.

A copy class holds (v, w) where H's atom holds w, parts copy vertices over
v != v' and a base vertex from a copy vertex it holds, and over one v
takes H's sign on w and w'.  A lift's atom c c^T (x) E meets (v, layer a)
in c_a E e_v.  Over a base whose rules read no tolerance (`tolerant`), a
value that is 0 is 0.0, so a layer entry is decided exactly (!= 0) on the
base, and on every copy of a regular H, where it is one float for all w;
two vertices on one layer with one entry, as two base vertices, or two copy
vertices over a regular H, take E's sign on v and v' (+1 on v = v').  Over
a regular H a base vertex and a copy vertex are never strongly cospectral:
for each lam != 0 in the support the norms of the two lifts' atoms force
E_lam[v,v] = E_lam[v',v'] / m, lam = 0 may hold neither, so 1 = 1/m; and at
m = 1 the two lifts of lam != 0 would need base^2 = copy^2, which the pair
(1, (+-sqrt(5) - 1)/2) of k = 0 refutes.  Elsewhere (a copy vertex over an
irregular H, or a base of float classes, whose unlabelled lam ~ 1e-17
lifts to a tiny but nonzero base entry) a layer entry is a float that may
vanish (the lift -1 of (1 +- sqrt(5))/2 over star:3 is 0 on its leaves):
an atom holds a vertex where |c_a| ||E e_v|| exceeds --support-tol, and
two vertices take the sign s of E e_v = +-E e_v' for which ||c_a E e_v - s
c_b E e_v'|| is at most --cospectral-tol, 0 where both norms are, as
`spectral.SpectralDecomposition` compares its rows.  An atom's walk term is
taken at its member's own value, and a base class that holds several values
lifts each (`_lifted_values`), so the amplitude reads no merged value at any
group tol: a search's phases turn at the lifts' own values to t ~ 1e7.

`cli._decomposition` reads every corona spec through this class, on its
factors' decompositions, the searches too; family coronas, nested or not,
load no numpy.  A search over a `file:` base reads the base off the walk
module of the one vertex whose row it reads, where that module is integral
(`cli._search_corona`, `walkmodule.WalkModule`): its classes are that
vertex's support alone and carry no multiplicity, so the lifts over them
carry none either (None), which no search reads.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .corona import MainData, copy_entry, lift_class, merge_runs
from .exact import QuadInt
from .leafspectra import Atom, Decomposition


class CoronaClass(NamedTuple):
    """An eigenvalue class: value, multiplicity (None over a base whose
    classes carry none), exact label (or None) and whether its value is
    known to have degree > 2 (`corona.lift_class`)."""

    value: float
    multiplicity: int | None
    exact: QuadInt | None
    beyond_quadratic: bool


class _Member(NamedTuple):
    """A raw class: value, label, flag and multiplicity, the keys of its
    atoms, of G for a lift and of H for a copy class, and a lift's base
    entry and main coordinates (base None for a copy class)."""

    value: float
    exact: QuadInt | None
    beyond_quadratic: bool
    multiplicity: int | None
    keys: list
    base: float | None = None
    coords: tuple[float, ...] = ()


class _Line(tuple):
    """A unit vector z of H, the copy atom z z^T, read at the tolerances."""

    __slots__ = ()


def _lines(ones: list) -> list[_Line]:
    """An orthonormal basis of the span of the vectors x_a = E_a 1 of
    orthogonal atoms less their sum's direction: with unit x_a and the sum's
    coordinates beta on them, the columns 2.. of the Householder reflection
    I - 2 v v^T / v^T v, v = beta + sign(beta_0) e_0, which are orthogonal to
    beta, taken back from the coordinates."""
    if len(ones) < 2:
        return []
    norms = [math.sqrt(math.fsum(x * x for x in e)) for e in ones]
    scale = math.sqrt(math.fsum(r * r for r in norms))
    v = [r / scale for r in norms]  # beta, all > 0
    v[0] += 1.0
    vv = math.fsum(x * x for x in v)
    return [_Line(math.fsum(((a == col) - 2 * v[a] * v[col] / vv) * float(e[w]) / r
                            for a, (e, r) in enumerate(zip(ones, norms)))
                  for w in range(len(ones[0])))
            for col in range(1, len(ones))]


def _lifted_values(base: Decomposition, c, atoms: list[Atom],
                   label: QuadInt | None) -> list[tuple[float, list, int | None]]:
    """(value, keys, multiplicity) of each value that base class c lifts at:
    its label's where it lifts labelled, else each distinct value of its
    atoms, with the keys of the atoms there and, where c holds several
    values, their rank, the trace of their projector.  A walk module's
    class carries None (`walkmodule.ModuleClass`), and none is made up."""
    at: dict[float, list] = {}
    for a in atoms:
        at.setdefault(a.value if label is None else c.value, []).append(a.key)
    if len(at) == 1:
        return [(value, keys, c.multiplicity) for value, keys in at.items()]
    xs = [base.vertex(u) for u in range(base.n)]
    return [(value, keys, round(math.fsum(base.entry(key, x, x) for key in keys for x in xs)))
            for value, keys in at.items()]


def _total(counts: list[int | None]) -> int | None:
    """The multiplicity of a run of members, None where one has none."""
    return None if None in counts else sum(counts)


class RegularCopy(Decomposition):
    """A regular copy factor on m vertices as the searches read it: its
    order and no class, its main data by theorem (`corona.regular_main`).
    A copy class's walk term on a base vertex is exactly 0, which the
    searches drop (`transfer._walk_terms`)."""

    __slots__ = ("n",)
    classes = atoms = ()

    def __init__(self, m: int):
        self.n = m


class CoronaDecomposition(Decomposition):
    """The classes of the corona of the base G and the copy factor H, from
    their decompositions, as runs of (member, factor atom) atoms with the
    rules of the module docstring; an atom's value is its member's, and its
    flag its class's.  `base` and `copy` are G's and H's decompositions,
    `main` H's main data and `degree` H's regular degree (None when H is
    irregular); `main_keys` are the places of the atoms with E 1 != 0 of H's
    main classes (`corona.main_atoms`), read off `copy`.  The lifts take
    labels and flags where `labelled`, from the base's labels."""

    __slots__ = ("n", "classes", "atoms", "tolerant", "base", "copy", "main", "degree")

    def __init__(self, base: Decomposition, copy: Decomposition, main: MainData,
                 main_keys: dict[int, list[int]], group_tol: float, labelled: bool = True):
        n = base.n
        self.n = n * (copy.n + 1)
        self.base, self.copy, self.main = base, copy, main
        self.degree = main.coefs[0] if len(main.coefs) == 1 else None  # 1 is an eigenvector
        self.tolerant = base.tolerant or copy.tolerant
        raw, solved = [], {}
        for i, (c, atoms) in enumerate(zip(copy.classes, copy.atoms)):
            held = main_keys.get(i, [])
            if c.multiplicity > bool(held):
                keys = [copy.residual(a.key) if j in held else a.key for j, a in enumerate(atoms)]
                raw.append(_Member(c.value, c.exact, all(a.beyond_quadratic for a in atoms),
                                   n * (c.multiplicity - bool(held)),
                                   [key for key in keys if key is not None]
                                   + _lines([copy.ones(atoms[j].key) for j in held])))
        for i, (c, atoms) in enumerate(zip(base.classes, base.atoms)):
            label = c.exact if labelled else None
            beyond = labelled and c.exact is None and base.beyond_quadratic_lifts(i)
            for value, keys, multiplicity in _lifted_values(base, c, atoms, label):
                raw.extend(_Member(x.value, x.exact, x.beyond_quadratic or beyond, multiplicity,
                                   keys, x.base, x.coords)
                           for x in lift_class(value, label, main, solved))
        runs = merge_runs(raw, group_tol)
        self.classes = [CoronaClass(run[0].value, _total([x.multiplicity for x in run]), label,
                                    flagged) for run, label, flagged in runs]
        self.atoms = [[Atom(x.value, c.beyond_quadratic, (x, key)) for x in run for key in x.keys]
                      for c, (run, _, _) in zip(self.classes, runs)]

    def vertex(self, u: int):
        """(v, None, None) for base vertex v, (v, w, w') for copy vertex (v,
        w): v and w' as G's and H's rules take them, w for H's main rows."""
        n = self.base.n
        if super().vertex(u) < n:
            return self.base.vertex(u), None, None
        w, v = divmod(u - n, n)
        return self.base.vertex(v), w, self.copy.vertex(w)

    def _layer(self, member: _Member, w: int | None) -> float:
        """A lift's layer entry on base vertices (w None) or copy vertex w."""
        return member.base if w is None else copy_entry(self.main, member.coords, w)

    def _exact(self, w: int | None) -> bool:
        """Whether a lift's layer entry there is decided exactly (module
        docstring)."""
        return not self.base.tolerant and (w is None or self.degree is not None)

    def holds(self, atom, x, tol=None) -> bool:
        (member, key), (v, w, wh) = atom, x
        if member.base is None:  # a copy class: H's atom on the copy over v
            if isinstance(key, _Line):
                return w is not None and abs(key[w]) > tol
            return w is not None and self.copy.holds(key, wh, tol)
        if not self.base.holds(key, v, tol):
            return False
        layer = self._layer(member, w)
        if self._exact(w):
            return layer != 0
        return abs(layer) * math.sqrt(self.base.entry(key, v, v)) > tol

    def sign(self, atom, x, y, tol=None) -> int | None:
        (member, key), (v, w, wh), (v2, w2, wh2) = atom, x, y
        if self.degree is not None and (w is None) != (w2 is None):
            return None  # a base and a copy vertex (module docstring)
        if member.base is None:  # a copy class: 0 on base vertices, and parts two copies
            if w is not None and w2 is not None and v == v2:
                if isinstance(key, _Line):  # E e_w = z z[w]
                    a, b = key[w], key[w2]
                    return 0 if max(abs(a), abs(b)) <= tol else 1 if abs(a - b) <= tol else \
                        -1 if abs(a + b) <= tol else None
                return self.copy.sign(key, wh, wh2, tol)
            return None if self.holds(atom, x, tol) or self.holds(atom, y, tol) else 0
        a, b = self._layer(member, w), self._layer(member, w2)
        if self._exact(w) and self._exact(w2):  # one layer: a = b
            if a == 0:
                return 0
            return int(self.base.holds(key, v, tol)) if v == v2 else \
                self.base.sign(key, v, v2, tol)
        # E_atom e_x = a (c (x) E e_v): compared as `SpectralDecomposition`
        # compares its rows, E e_v and E e_v2 related by G's rule
        ev, ev2 = (math.sqrt(self.base.entry(key, u, u)) for u in (v, v2))
        if abs(a) * ev <= tol and abs(b) * ev2 <= tol:
            return 0
        s = 1 if v == v2 else self.base.sign(key, v, v2, tol)
        if not s or abs(abs(a) - abs(b)) * ev > tol:
            return None
        return s if a * b >= 0 else -s

    def entry(self, atom, x, y) -> float:
        (member, key), (v, w, wh), (v2, w2, wh2) = atom, x, y
        if member.base is None:  # H's atom on one copy
            if w is None or w2 is None or v != v2:
                return 0.0
            if isinstance(key, _Line):
                return key[w] * key[w2]
            return self.copy.entry(key, wh, wh2)
        return self._layer(member, w) * self._layer(member, w2) * self.base.entry(key, v, v2)

    def ones(self, atom) -> list[float] | None:
        """(c^T 1) c (x) E 1 for a lift, on the vertices in order; None for a
        copy class, whose E 1 is 0."""
        member, key = atom
        ones = None if member.base is None else self.base.ones(key)
        if ones is None:
            return None
        layers = [member.base, *(copy_entry(self.main, member.coords, w)
                                 for w in range(self.copy.n))]
        total = sum(layers)
        return [total * c * x for c in layers for x in ones]

    def residual(self, atom):
        """A lift over the base atom's residual."""
        member, key = atom
        rest = self.base.residual(key)
        return None if rest is None else (member, rest)
