"""Neighborhood corona assembly and its closed-form spectral decomposition.

The corona of a base graph G (n vertices) with a graph H (m vertices) keeps
one copy of G plus n copies of H and joins every vertex of copy j to all
base neighbors of vertex j.  On columns x (x) phi, phi a base eigenvector of
lam and x a layer column (base, copy_0, ..., copy_{m-1}), it acts as the
layer matrix [[lam, lam 1^T], [lam 1, A_H]].  Restricted to the base layer
and the main directions u_mu = P_mu 1 / w_mu of H (w_mu = ||P_mu 1|| > 0)
that is the arrowhead [[lam, lam w^T], [lam w, diag(mu)]], whose eigenpairs
are the lifts of lam; the rest of each H class survives with multiplicity n.
For a k-regular H the one main direction is 1/sqrt(m), so lam lifts to

    lam_pm = (lam + k +- Lambda) / 2,   Lambda = sqrt((lam - k)^2 + 4 m lam^2),

the paper's pair.  One routine, `lift_class`, serves every consumer below:
the closed form builds the classes as eigenvector blocks (x (x) V_lam for a
lift, (0 (+) W) (x) I_n for a copy class), the lifted supports keep the
lifts that reach the base, and a walk amplitude on base/copy vertices is
read from the base factor's spectral data as an exponential sum
sum_j c_j exp(-i t theta_j) over the lifted values theta_j (`corona_terms`),
which `spectral.exp_sum_grid` evaluates on uniform time grids in batches,
in memory independent of --lmax and --points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exact import QuadInt, exact_rank
from .graphs import Graph, GraphSpec, build_family, make_graph
from .spectral import (
    DEFAULT_GROUP_TOL,
    MAX_DIMENSION,
    EigenClass,
    SpectralDecomposition,
    attach_exact_labels,
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


class MainData(NamedTuple):
    """H's s main eigenvalues mu and unit directions P_mu 1 / ||P_mu 1|| (m x s;
    ||P_mu 1|| is a column's sum), with walks 1^T A^j 1 and coefs of
    A^s 1 = sum_j coefs[j] A^j 1 (j < s) in Python ints, or None (no lift is
    labelled) when the main polynomial rounded from mu fails its exact check."""

    values: np.ndarray
    directions: np.ndarray
    walks: tuple[int, ...] | None
    coefs: tuple[int, ...] | None


def main_data(h: Graph, h_decomp: SpectralDecomposition) -> MainData:
    """Main data of an irregular H: the s classes of h_decomp with the largest
    ||P_mu 1||, s the exact rank of the Krylov vectors A^j 1 (Python ints:
    walk counts outgrow int64)."""
    m, classes = h.n, h_decomp.classes
    krylov = [[1] * m]  # at most one new dimension per eigenvalue class
    for _ in classes:
        prev, walk = krylov[-1], [0] * m
        for a, b in h.edges:
            walk[a] += prev[b]
            walk[b] += prev[a]
        krylov.append(walk)
    s = exact_rank(krylov)
    sums = [c.vectors.sum(axis=0) for c in classes]  # ||P_mu 1|| = |W^T 1|
    main = sorted(sorted(range(len(classes)), key=lambda i: -(sums[i] @ sums[i]))[:s])
    directions = np.column_stack([classes[i].vectors @ sums[i] / math.sqrt(sums[i] @ sums[i])
                                  for i in main])
    values = np.array([classes[i].value for i in main])
    # prod (x - mu) = x^s + p_1 x^{s-1} + ... + p_s, so coefs[j] = -p_{s-j}
    coefs = tuple(-int(round(p)) for p in np.poly(values)[:0:-1])
    if any(sum(c * vec[i] for c, vec in zip(coefs, krylov)) != krylov[s][i] for i in range(m)):
        return MainData(values, directions, None, None)
    return MainData(values, directions, tuple(sum(vec) for vec in krylov[:s]), coefs)


@dataclass(frozen=True)
class CoronaSpec:
    """Corona factors with H's regular degree (None when H irregular) and main data."""

    g: Graph
    h: Graph
    k: int | None
    main: MainData

    @classmethod
    def from_graphs(cls, g: Graph, h: Graph, h_decomp=None) -> "CoronaSpec":
        """A k-regular H has mu = k on 1/sqrt(m); h_decomp, H's decomposition,
        is read (or made) only for an irregular H."""
        k, m = h.is_regular(), h.n
        if k is not None:
            return cls(g, h, k, MainData(np.array([float(k)]), np.full((m, 1), 1 / math.sqrt(m)),
                                         (m,), (k,)))
        return cls(g, h, k, main_data(h, h_decomp or decompose(h.adjacency())))

    @property
    def n(self) -> int:
        return self.g.n

    @property
    def m(self) -> int:
        return self.h.n

    def require_regular(self) -> int:
        if self.k is None:
            raise ValueError("the pgst families and the lifted base periodicity test "
                             "need a regular copy factor H")
        return self.k


class LiftedClass(NamedTuple):
    """One corona eigenvector direction lifted from a base class: its unit layer
    column has `base` on layer 0 and `copy[w]` on copy layer w, and its block
    is that column (x) V_lam."""

    value: float
    exact: QuadInt | None
    base: float
    copy: np.ndarray


def lift_class(lam: float, label: QuadInt | None, main: MainData) -> list[LiftedClass]:
    """Corona lifts of the base class lam (exact label or None) over H's main data.

    One lift per eigenvector x of the arrowhead of lam (the label's value
    when labelled), with base x[0] and copy U x[1:], U the main directions.
    A label lifts by `attach_exact_labels` on `_walk_operator`, checked
    against the arrowheads of lam and its conjugate side by side, so a lift
    of lam that coincides with one of the conjugate shares its class.
    """
    labelled = label is not None and main.coefs is not None
    if label is not None:
        lam = label.value()
    arrow = _arrowhead(lam, main)
    size = len(arrow)
    if labelled and not label.is_rational_integer:
        arrow = np.kron(np.diag([1.0, 0.0]), arrow)
        arrow[size:, size:] = _arrowhead(label.conjugate().value(), main)
    d = decompose(arrow)
    if labelled:
        doubled = [EigenClass(2.0 * c.value, c.vectors) for c in d.classes]
        labels = attach_exact_labels(SpectralDecomposition(doubled, d.n),
                                     _walk_operator(label, main)).classes
    lifts = []
    for i, c in enumerate(d.classes):
        exact = _halve(labels[i].exact) if labelled else None
        cols = c.vectors[:size]
        # the class's eigenvectors of lam's own arrowhead: ||cols||^2 of them
        share = round(float(np.sum(cols * cols)))
        if share < c.multiplicity:
            cols = np.linalg.svd(cols, full_matrices=False)[0][:, :share]
        for x in cols.T:
            lifts.append(LiftedClass(c.value, exact, float(x[0]), main.directions @ x[1:]))
    return lifts


def _arrowhead(lam: float, main: MainData) -> np.ndarray:
    arrow = np.diag(np.r_[lam, main.values])
    arrow[0, 1:] = arrow[1:, 0] = lam * main.directions.sum(axis=0)
    return arrow


def _walk_operator(label: QuadInt, main: MainData) -> np.ndarray:
    """2 L_lam = 2 lam P + 2 Q on the walk basis (e_0, 1, A1, ..., A^{s-1} 1)
    in Python ints, 2 lam = a + b sqrt(delta) replaced by its integer
    companion matrix C: P (x) C + 2Q (x) I has eigenvalues twice the lifts of
    lam and of its conjugate."""
    s = len(main.coefs)
    lam_part = np.zeros((s + 1, s + 1), dtype=object)
    lam_part[0, 0] = lam_part[1, 0] = 1  # L e_0 = lam e_0 + lam 1
    lam_part[0, 1:] = main.walks  # L A^j 1 = lam (1^T A^j 1) e_0 + A^{j+1} 1
    fixed = np.zeros((s + 1, s + 1), dtype=object)
    fixed[2:, 1:s] = np.identity(s - 1, dtype=object)
    fixed[1:, s] = main.coefs  # A^s 1 = sum_j coefs[j] A^j 1
    a, b, delta = label.a, label.b, label.delta
    companion = [[a]] if label.is_rational_integer else [[0, b * b * delta - a * a], [1, 2 * a]]
    return (np.kron(lam_part, np.array(companion, dtype=object))
            + np.kron(2 * fixed, np.identity(len(companion), dtype=object)))


def _halve(q: QuadInt | None) -> QuadInt | None:
    """q / 2, or None when that is no (a + b sqrt(delta))/2 with integer a, b."""
    ok = q is not None and q.a % 2 == q.b % 2 == 0 and (q.delta > 1 or q.a % 4 == 0)
    return QuadInt(q.a // 2, q.b // 2, q.delta) if ok else None


def corona_spectral_closed_form(
    spec: CoronaSpec,
    g_decomp: SpectralDecomposition,
    h_decomp: SpectralDecomposition,
    group_tol: float = DEFAULT_GROUP_TOL,
) -> SpectralDecomposition:
    """Spectral decomposition of the corona built from the factor decompositions.

    Classes: every lift of each base class (`lift_class`) with block
    x (x) V_lam, x its layer column; and each H class with block
    (0 (+) W) (x) I_n, W its eigenvector block minus its main direction.
    Numerically coincident values merge by concatenating their blocks.
    Raises ValueError when the corona order n(m+1) exceeds the dense budget,
    as the assembled eigensolver does.
    """
    n, m = spec.n, spec.m
    if n * (m + 1) > MAX_DIMENSION:
        raise ValueError(
            f"dimension {n * (m + 1)} exceeds dense budget {MAX_DIMENSION}"
        )

    raw: list[EigenClass] = []
    eye_n = np.eye(n)
    for c in h_decomp.classes:
        # main directions inside this class: ||U^T W||^2 of them, 0 or 1
        inner = spec.main.directions.T @ c.vectors
        mains = round(float(np.sum(inner * inner)))
        block = c.vectors @ np.linalg.svd(inner)[2][mains:].T if mains else c.vectors
        if block.shape[1]:
            w = np.vstack([np.zeros((1, block.shape[1])), block])
            raw.append(EigenClass(c.value, np.kron(w, eye_n), c.exact))

    for c in g_decomp.classes:
        for lift in lift_class(c.value, c.exact, spec.main):
            column = np.r_[lift.base, lift.copy]
            raw.append(EigenClass(lift.value, np.kron(column[:, None], c.vectors),
                                  lift.exact))

    return _merge_classes(raw, n * (m + 1), group_tol)


class SpecFactors:
    """Built graphs and decompositions of a spec's terms, each made once.

    A corona is decomposed in closed form from its factors' decompositions,
    recursing into both, and is assembled only where an enclosing corona
    needs it as a factor.  Any other term is decomposed densely, with
    rank-verified exact labels when `exact` is set.
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
        g, h = map(self.graph, spec.factors)
        # an irregular H's main data is read off its decomposition
        h_decomp = None if h.is_regular() is not None else self.decomposition(spec.factors[1])
        return CoronaSpec.from_graphs(g, h, h_decomp)

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
        if spec.kind == "corona":
            return corona_spectral_closed_form(
                self.corona(spec), *map(self.decomposition, spec.factors), self.group_tol
            )
        graph = self.graph(spec)
        if self.exact:
            return exact_decomposition(graph, self.group_tol)
        return decompose(graph.adjacency(), self.group_tol)


def corona_support_base_vertex(phi_v, main: MainData) -> list[QuadInt | float]:
    """Support of a base vertex in the corona from its support in the base graph.

    Each base support eigenvalue lam (a QuadInt label or a float) keeps
    the lifts of `lift_class` that do not vanish on the base layer: all of
    them for lam != 0, and only 0 for lam = 0, whose other lifts lie on copy
    coordinates.  Values come back as QuadInt where the lift is labelled,
    otherwise as plain floats (the inexactness flag).  Sorted by decreasing
    value, duplicates removed.
    """
    out: list[QuadInt | float] = []
    for lam in phi_v:
        label = lam if isinstance(lam, QuadInt) else None
        for lift in lift_class(_numeric_value(lam), label, main):
            if lift.base != 0.0:
                out.append(lift.exact if lift.exact is not None else lift.value)
    deduped: list[QuadInt | float] = []
    for item in sorted(out, key=_numeric_value, reverse=True):
        if deduped and _same_value(deduped[-1], item):
            continue
        deduped.append(item)
    return deduped


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
    each base class (`lift_class`, at the label's value but labelling
    nothing), with E = E_lam[v,v'] and (base, copy) the lift's layer column.
    With w None it is <(v,0)| U(t) |(v',0)>, with coefficient E base^2
    (E (1 +- r)/2 at lam_pm for a k-regular H, r = (lam-k)/Lambda).
    Otherwise it is <(v',0)| U(t) |(v,w)>, with coefficient E base copy[w]
    (+-E lam/Lambda at lam_pm, the same for every w, when H is regular).
    """
    _check_base(spec, v)
    _check_base(spec, vp)
    if w is not None and not 0 <= w < spec.m:
        raise ValueError(f"copy vertex {w} out of range")
    freqs: list[float] = []
    coefs: list[float] = []
    for c in g_decomp.classes:
        entry = c.entry(v, vp)
        lam = c.value if c.exact is None else c.exact.value()
        for lift in lift_class(lam, None, spec.main):
            freqs.append(lift.value)
            coefs.append(entry * lift.base * (lift.base if w is None else lift.copy[w]))
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
