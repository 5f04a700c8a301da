"""Neighborhood corona assembly and its closed-form spectral decomposition.

The corona of a base graph G (n vertices) with a k-regular graph H
(m vertices) keeps one copy of G plus n copies of H and joins every vertex
of copy j to all base neighbors of vertex j.  Each base eigenvalue lam != 0
lifts to the pair

    lam_pm = (lam + k +- Lambda) / 2,   Lambda = sqrt((lam - k)^2 + 4 m lam^2),

on the layer column x = (lam_pm - k, lam 1_m) / norm, and lam = 0 lifts to
k on the copies, x = (0, 1_m / sqrt(m)), and to 0 on the base, x = e_0;
every eigenvalue mu != k of H survives with multiplicity n.  One routine,
`lift_class`, applies that rule for every consumer below:
the closed form builds the classes as eigenvector blocks, each a Kronecker
product of a small factor column with a factor's block (x (x) V_lam for a
lift, (0 (+) W_mu) (x) I_n for a copy class), the lifted supports keep the
lifts that reach the base, and walk amplitudes on base/copy vertices are
read directly from the base factor's spectral data, without assembling the
large matrix.  Such an amplitude is an exponential sum
sum_j c_j exp(-i t theta_j) with real coefficients c_j over the lifted
values theta_j (`corona_terms`); on a uniform time grid it is evaluated in
phase-factored batches (`spectral.exp_sum_grid`), so `transfer.pgst_search`
and `transfer.corona_no_pst_check(spec, g_decomp, pair, t_max, points)` run
in memory independent of --lmax and --points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exact import QuadInt, square_free_part
from .graphs import Graph, GraphSpec, build_family, make_graph
from .spectral import (
    DEFAULT_GROUP_TOL,
    MAX_DIMENSION,
    EigenClass,
    SpectralDecomposition,
    decompose,
    exact_decomposition,
)


def copy_index(n: int, v: int, w: int) -> int:
    """Flat index of copy vertex (v, w): block layout [base | w=0 | w=1 | ...]."""
    return n + w * n + v


def corona_graph(g: Graph, h: Graph) -> Graph:
    """Assemble the neighborhood corona of g and h on g.n * (h.n + 1) vertices."""
    n, m = g.n, h.n
    edges: list[tuple[int, int]] = list(g.edges)
    for w, w2 in h.edges:
        for v in range(n):
            edges.append((copy_index(n, v, w), copy_index(n, v, w2)))
    for v, v2 in g.edges:
        for w in range(m):
            # copy vertices over v see every neighbor of v, and vice versa
            edges.append((copy_index(n, v, w), v2))
            edges.append((copy_index(n, v2, w), v))
    labels = tuple(
        [("base", v) for v in range(n)]
        + [("copy", v, w) for w in range(m) for v in range(n)]
    )
    return make_graph(n * (m + 1), edges, labels)


@dataclass(frozen=True)
class CoronaSpec:
    """Corona factors with H's regular degree cached (None when H irregular)."""

    g: Graph
    h: Graph
    k: int | None

    @classmethod
    def from_graphs(cls, g: Graph, h: Graph) -> "CoronaSpec":
        return cls(g, h, h.is_regular())

    @property
    def n(self) -> int:
        return self.g.n

    @property
    def m(self) -> int:
        return self.h.n

    def require_regular(self) -> int:
        if self.k is None:
            raise ValueError("closed forms require a regular copy factor H")
        return self.k


class LiftedClass(NamedTuple):
    """One corona class lifted from a base class.

    Its unit layer column has `base` on layer 0 and `copy` on each of the m
    copy layers; the class block is that column (x) V_lam.
    """

    value: float
    exact: QuadInt | None
    base: float
    copy: float


# an unlabelled base class this close to 0 is eigenvalue 0 up to rounding; a
# fixed bound, not the grouping tolerance, so that a small nonzero class
# grouped at a loose tolerance still lifts to its own pair
_ZERO_TOL = 1e-12


def lift_class(lam: float, label: QuadInt | None, k: int, m: int) -> list[LiftedClass]:
    """Corona classes of the base class lam (exact label or None), H k-regular.

    A class with label exactly 0, or with |lam| <= 1e-12, lifts to k on
    (0, 1/sqrt(m)), the copies, and 0 on (1, 0), the base; these carry labels
    k and 0 only when the base label is exactly 0.  Any other class lifts to
    lam_pm = (lam + k +- Lambda)/2 on the column (lam_pm - k, lam)/norm,
    labelled by `lift_base_eigenvalue` of the label.
    """
    is_zero = label == QuadInt.from_int(0)
    if is_zero or abs(lam) <= _ZERO_TOL:
        labels = [QuadInt.from_int(k), QuadInt.from_int(0)] if is_zero else [None, None]
        return [LiftedClass(float(k), labels[0], 0.0, 1.0 / math.sqrt(m)),
                LiftedClass(0.0, labels[1], 1.0, 0.0)]
    big = math.sqrt((lam - k) ** 2 + 4.0 * m * lam * lam)
    labels = (label is not None and lift_base_eigenvalue(label, k, m)) or [None, None]
    lifts = []
    for value, exact in zip(((lam + k + big) / 2.0, (lam + k - big) / 2.0), labels):
        norm = math.sqrt((value - k) ** 2 + m * lam * lam)
        lifts.append(LiftedClass(value, exact, (value - k) / norm, lam / norm))
    return lifts


def corona_spectral_closed_form(
    spec: CoronaSpec,
    g_decomp: SpectralDecomposition,
    h_decomp: SpectralDecomposition,
    group_tol: float = DEFAULT_GROUP_TOL,
) -> SpectralDecomposition:
    """Spectral decomposition of the corona built from the factor decompositions.

    Classes: every mu != k of H with block (0 (+) W_mu) (x) I_n, of
    multiplicity n * mult(mu); and every lift of each base class
    (`lift_class`) with block x (x) V_lam, x its layer column.  Numerically
    coincident values merge by concatenating their blocks.  Requires H
    connected and regular; the base may be any graph.  Raises ValueError
    when the corona order n(m+1) exceeds the dense budget, as the assembled
    eigensolver does.
    """
    k = spec.require_regular()
    n, m = spec.n, spec.m
    if not spec.h.is_connected():
        raise ValueError(
            "closed form needs H connected: eigenvalue k would repeat and its "
            "classes are not covered by the lifted families"
        )
    if n * (m + 1) > MAX_DIMENSION:
        raise ValueError(
            f"dimension {n * (m + 1)} exceeds dense budget {MAX_DIMENSION}"
        )

    raw: list[EigenClass] = []
    eye_n = np.eye(n)
    for c in h_decomp.classes:
        if abs(c.value - k) <= group_tol * max(1.0, abs(k)):
            continue
        w = np.vstack([np.zeros((1, c.multiplicity)), c.vectors])
        raw.append(EigenClass(c.value, np.kron(w, eye_n), c.exact))

    for c in g_decomp.classes:
        for lift in lift_class(c.value, c.exact, k, m):
            column = np.r_[lift.base, np.full(m, lift.copy)]
            raw.append(EigenClass(lift.value, np.kron(column[:, None], c.vectors),
                                  lift.exact))

    return _merge_classes(raw, spec.n * (spec.m + 1), group_tol)


class SpecFactors:
    """Built graphs and decompositions of a spec's terms, each made once.

    A corona whose copy factor is connected and regular is decomposed in
    closed form from its factors' decompositions, recursing into the base,
    and is assembled only where an enclosing corona needs it as a factor.
    Any other term is assembled and decomposed densely, with rank-verified
    exact labels when `exact` is set.
    """

    def __init__(self, group_tol: float = DEFAULT_GROUP_TOL, exact: bool = True):
        self.group_tol = group_tol
        self.exact = exact
        self._graphs: dict[GraphSpec, Graph] = {}
        self._decomps: dict[GraphSpec, SpectralDecomposition] = {}

    def graph(self, spec: GraphSpec) -> Graph:
        if spec not in self._graphs:
            self._graphs[spec] = (corona_graph(*map(self.graph, spec.factors))
                                  if spec.kind == "corona" else build_family(spec))
        return self._graphs[spec]

    def corona(self, spec: GraphSpec) -> CoronaSpec:
        return CoronaSpec.from_graphs(*map(self.graph, spec.factors))

    def corona_context(self, spec: GraphSpec) -> tuple[CoronaSpec, SpectralDecomposition]:
        """A corona spec's built factors and its base's decomposition."""
        # the base's budget is checked before any factor is built
        g_decomp = self.decomposition(spec.factors[0])
        return self.corona(spec), g_decomp

    def order(self, spec: GraphSpec) -> int:
        """Vertex count of a spec's graph, from the spec; a file leaf is read."""
        if spec.kind == "corona":
            n, m = map(self.order, spec.factors)
            return n * (m + 1)
        if spec.kind == "file" or spec.size is None:
            return self.graph(spec).n
        return 2 * spec.size if spec.kind == "cocktail" else spec.size

    def decomposition(self, spec: GraphSpec) -> SpectralDecomposition:
        if spec not in self._decomps:
            self._decomps[spec] = self._decompose(spec)
        return self._decomps[spec]

    def _decompose(self, spec: GraphSpec) -> SpectralDecomposition:
        n = self.order(spec)
        # checked before any graph is built, factor decomposed or matrix made
        if n > MAX_DIMENSION:
            raise ValueError(f"dimension {n} exceeds dense budget {MAX_DIMENSION}")
        cspec = self.corona(spec) if spec.kind == "corona" else None
        if cspec is not None and cspec.k is not None and cspec.h.is_connected():
            return corona_spectral_closed_form(
                cspec, *map(self.decomposition, spec.factors), self.group_tol
            )
        graph = self.graph(spec)
        if self.exact:
            return exact_decomposition(graph, self.group_tol)
        return decompose(graph.adjacency(), self.group_tol)


def corona_support_base_vertex(
    phi_v, k: int, m: int
) -> list[QuadInt | float]:
    """Support of a base vertex in the corona from its support in the base graph.

    Each base support eigenvalue lam (a QuadInt label or a float) keeps
    the lifts of `lift_class` that do not vanish on the base layer: the pair
    lam_pm for lam != 0, and only 0 for lam = 0, because its value-k class
    lies on copy coordinates.  Values come back as QuadInt whenever the
    lifted pair stays inside a quadratic field, otherwise as plain floats
    (the inexactness flag).  Sorted by decreasing value, duplicates removed.
    """
    out: list[QuadInt | float] = []
    for lam in phi_v:
        label = lam if isinstance(lam, QuadInt) else None
        for lift in lift_class(_numeric_value(lam), label, k, m):
            if lift.base != 0.0:
                out.append(lift.exact if lift.exact is not None else lift.value)
    deduped: list[QuadInt | float] = []
    for item in sorted(out, key=_numeric_value, reverse=True):
        if deduped and _same_value(deduped[-1], item):
            continue
        deduped.append(item)
    return deduped


def lift_base_eigenvalue(lam: QuadInt, k: int, m: int) -> list[QuadInt] | None:
    """Exact pair lift [lam_plus, lam_minus] of one base eigenvalue.

    None when the pair is not a pair of quadratic integers: the gap
    sqrt((lam-k)^2 + 4m lam^2) leaves Q(sqrt(delta)), or the halved
    coordinates are not integers.
    """
    if lam.is_rational_integer:
        z = lam.as_integer()
        disc = (z - k) ** 2 + 4 * m * z * z
        if disc == 0:  # z == k == 0: the pair coincides
            return [QuadInt.from_int(0)] * 2
        split = square_free_part(disc)
        return [
            QuadInt.make(z + k, split.s, split.c),
            QuadInt.make(z + k, -split.s, split.c),
        ]
    a, b, delta = lam.a, lam.b, lam.delta
    # gap^2 = (lam - k)^2 + 4m lam^2 = (x + y*sqrt(delta)) / 4 exactly
    x = (a - 2 * k) ** 2 + b * b * delta + 4 * m * (a * a + b * b * delta)
    y = 2 * b * (a - 2 * k) + 8 * m * a * b
    if y == 0:
        split = square_free_part(x)
        s, c = split.s, split.c
        if c == 1:  # rational gap s/2
            return _half_pair(a + 2 * k, b, s, 0, delta)
        if c == delta:  # gap s*sqrt(delta)/2 stays in the field
            return _half_pair(a + 2 * k, b, 0, s, delta)
        return None  # gap brings in a second square root: degree four
    if y % 2:
        return None
    # gap = (p + q*sqrt(delta))/2 needs p*q = y/2 and p^2 + q^2*delta = x, so
    # p^2 and q^2*delta are the roots (x +- r)/2 of z^2 - x*z + (y/2)^2*delta,
    # r^2 = x^2 - y^2*delta, which is 16 gap^2 times its conjugate, so >= 0
    half = y // 2
    disc = x * x - y * y * delta
    r = math.isqrt(disc)
    if r * r == disc:
        for z in ((x + r) // 2, (x - r) // 2):
            p = math.isqrt(z)
            if p and p * p == z and half % p == 0:
                q = half // p
                if p + q * math.sqrt(delta) < 0:
                    p, q = -p, -q
                return _half_pair(a + 2 * k, b, p, q, delta)
    return None  # gap^2 is not a square in the field: degree four


def _half_pair(
    num_a: int, num_b: int, gap_a: int, gap_b: int, delta: int
) -> list[QuadInt] | None:
    """Values ((num_a +- gap_a) + (num_b +- gap_b) sqrt(delta)) / 4 as QuadInts."""
    if (num_a + gap_a) % 2 or (num_b + gap_b) % 2:
        return None  # not half-integer coordinates; stay inexact
    return [
        QuadInt.make((num_a + gap_a) // 2, (num_b + gap_b) // 2, delta),
        QuadInt.make((num_a - gap_a) // 2, (num_b - gap_b) // 2, delta),
    ]


def _numeric_value(x) -> float:
    return x.value() if isinstance(x, QuadInt) else float(x)


def _same_value(a, b, tol: float = 1e-12) -> bool:
    if isinstance(a, QuadInt) and isinstance(b, QuadInt):
        return a == b
    return abs(_numeric_value(a) - _numeric_value(b)) < tol


# ---------------------------------------------------------------------------
# closed-form walk amplitudes

def corona_terms(
    spec: CoronaSpec, g_decomp: SpectralDecomposition, vp: int, v: int,
    w: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Real exponential sum (freqs, coefs) of a corona walk amplitude.

    The amplitude is sum_j coefs[j] * exp(-i t freqs[j]) over the lifts of
    each base class (`lift_class`), with E = E_lam[v,v'] and (base, copy) the
    lift's layer column.  With w None it is <(v,0)| U(t) |(v',0)>, with
    coefficient E base^2 (E (1 +- r)/2 at lam_pm, r = (lam-k)/Lambda).
    Otherwise it is <(v',0)| U(t) |(v,w)>, with coefficient E base copy
    (+-E lam/Lambda at lam_pm), the same for every copy vertex w.
    """
    k = spec.require_regular()
    _check_base(spec, v)
    _check_base(spec, vp)
    if w is not None and not 0 <= w < spec.m:
        raise ValueError(f"copy vertex {w} out of range")
    freqs: list[float] = []
    coefs: list[float] = []
    for c in g_decomp.classes:
        entry = c.entry(v, vp)
        for lift in lift_class(c.value, c.exact, k, spec.m):
            freqs.append(lift.value)
            coefs.append(entry * lift.base * (lift.base if w is None else lift.copy))
    return np.array(freqs, dtype=float), np.array(coefs, dtype=float)


def _check_base(spec: CoronaSpec, v: int) -> None:
    if not 0 <= v < spec.n:
        raise ValueError(f"base vertex {v} out of range")


def _merge_classes(
    raw: list[EigenClass], n: int, group_tol: float
) -> SpectralDecomposition:
    raw.sort(key=lambda c: c.value, reverse=True)
    radius = max(1.0, max(abs(c.value) for c in raw))
    merged: list[EigenClass] = []
    for c in raw:
        if merged and merged[-1].value - c.value < group_tol * radius:
            prev = merged[-1]
            prev.vectors = np.hstack([prev.vectors, c.vectors])
            prev.exact = _merge_exact(prev.exact, c.exact)
        else:
            merged.append(c)
    return SpectralDecomposition(merged, n)


def _merge_exact(a: QuadInt | None, b: QuadInt | None) -> QuadInt | None:
    if a is None:
        return b
    if b is None or a == b:
        return a
    return None  # numerically merged but symbolically distinct: stay honest
