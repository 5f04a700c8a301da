"""Neighborhood corona assembly and its closed-form spectral decomposition.

The corona of a base graph G (n vertices) with a k-regular graph H
(m vertices) keeps one copy of G plus n copies of H and joins every vertex
of copy j to all base neighbors of vertex j.  Each base eigenvalue lam
lifts to the pair

    lam_pm = (lam + k +- Lambda) / 2,   Lambda = sqrt((lam - k)^2 + 4 m lam^2),

while every eigenvalue mu != k of H survives with multiplicity n.  The
functions below build those classes with explicit projectors and evaluate
walk amplitudes on base/copy vertices directly from the base factor's
spectral data, without assembling the large matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exact import QuadInt, divisors, square_free_part
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


@dataclass(frozen=True)
class CoronaEigenPair:
    """Lift of one base eigenvalue: the pair lam_pm and the gap Lambda."""

    lam: float
    lam_plus: float
    lam_minus: float
    big_lambda: float


def eigen_pair(lam: float, k: int, m: int) -> CoronaEigenPair:
    big = math.sqrt((lam - k) ** 2 + 4.0 * m * lam * lam)
    return CoronaEigenPair(
        lam=lam,
        lam_plus=(lam + k + big) / 2.0,
        lam_minus=(lam + k - big) / 2.0,
        big_lambda=big,
    )


def corona_eigen_pairs(
    spec: CoronaSpec, g_decomp: SpectralDecomposition
) -> list[CoronaEigenPair]:
    k = spec.require_regular()
    return [eigen_pair(c.value, k, spec.m) for c in g_decomp.classes]


def corona_spectral_closed_form(
    spec: CoronaSpec,
    g_decomp: SpectralDecomposition,
    h_decomp: SpectralDecomposition,
    group_tol: float = DEFAULT_GROUP_TOL,
) -> SpectralDecomposition:
    """Spectral decomposition of the corona built from the factor decompositions.

    Classes: every mu != k of H with projector diag(0, E_mu(H)) (x) I_n and
    multiplicity n * mult(mu); every base eigenvalue's pair lam_pm with the
    rank-structured projector over E_lam(G), using the special value-k and
    value-0 projectors when lam = 0.  Numerically coincident values merge by
    projector addition.  Requires H connected and regular; the base may be
    any graph.  Raises ValueError when the corona order n(m+1) exceeds the
    dense budget, as the assembled eigensolver does.
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
        block = np.zeros((m + 1, m + 1))
        block[1:, 1:] = c.projector
        raw.append(
            EigenClass(c.value, np.kron(block, eye_n), n * c.multiplicity, c.exact)
        )

    ones = np.ones(m)
    for c in g_decomp.classes:
        lam = c.value
        if abs(lam) <= group_tol:
            top = np.zeros((m + 1, m + 1))
            top[1:, 1:] = np.full((m, m), 1.0 / m)
            raw.append(EigenClass(float(k), np.kron(top, c.projector),
                                  c.multiplicity, QuadInt.from_int(k)))
            bottom = np.zeros((m + 1, m + 1))
            bottom[0, 0] = 1.0
            raw.append(EigenClass(0.0, np.kron(bottom, c.projector),
                                  c.multiplicity, QuadInt.from_int(0)))
            continue
        pair = eigen_pair(lam, k, m)
        labels = [None, None]
        if c.exact is not None:
            labels = lift_base_eigenvalue(c.exact, k, m)[0] or labels
        for value, label in zip((pair.lam_plus, pair.lam_minus), labels):
            shifted = value - k
            block = np.empty((m + 1, m + 1))
            block[0, 0] = shifted * shifted
            block[0, 1:] = lam * shifted * ones
            block[1:, 0] = lam * shifted * ones
            block[1:, 1:] = lam * lam
            block /= shifted * shifted + m * lam * lam
            raw.append(
                EigenClass(
                    value,
                    np.kron(block, c.projector),
                    c.multiplicity,
                    label,
                )
            )

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
        return self.corona(spec), self.decomposition(spec.factors[0])

    def decomposition(self, spec: GraphSpec) -> SpectralDecomposition:
        if spec not in self._decomps:
            self._decomps[spec] = self._decompose(spec)
        return self._decomps[spec]

    def _decompose(self, spec: GraphSpec) -> SpectralDecomposition:
        if spec.kind == "corona":
            cspec = self.corona(spec)
            n = cspec.n * (cspec.m + 1)
            if n > MAX_DIMENSION:  # checked before any factor is decomposed
                raise ValueError(f"dimension {n} exceeds dense budget {MAX_DIMENSION}")
            if cspec.k is not None and cspec.h.is_connected():
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

    Each nonzero base support eigenvalue lam contributes the pair
    (lam + k +- sqrt((lam-k)^2 + 4m lam^2)) / 2; lam = 0 contributes only 0,
    because its value-k class lies on copy coordinates.  Values come back as
    QuadInt whenever the lifted pair stays inside a quadratic field,
    otherwise as plain floats (the inexactness flag).  Sorted by decreasing
    value, duplicates removed.
    """
    out: list[QuadInt | float] = []
    for lam in phi_v:
        if abs(_numeric_value(lam)) <= DEFAULT_GROUP_TOL:
            out.append(lam)
            continue
        if isinstance(lam, QuadInt):
            exact, _ = lift_base_eigenvalue(lam, k, m)
            if exact is not None:
                out.extend(exact)
                continue
            lam = lam.value()
        pair = eigen_pair(float(lam), k, m)
        out.extend([pair.lam_plus, pair.lam_minus])
    deduped: list[QuadInt | float] = []
    for item in sorted(out, key=_numeric_value, reverse=True):
        if deduped and _same_value(deduped[-1], item):
            continue
        deduped.append(item)
    return deduped


def lift_base_eigenvalue(
    lam: QuadInt, k: int, m: int
) -> tuple[list[QuadInt] | None, bool]:
    """Exact pair lift of one base eigenvalue, if it stays quadratic.

    Returns (values, proven_nonquadratic).  values is the pair
    [lam_plus, lam_minus], or None when the lift is not representable; the
    flag is True only when the lifted pair provably leaves every quadratic
    field (the gap sqrt((lam-k)^2 + 4m lam^2) is not an element of
    Q(sqrt(delta))), which certifies the lifted vertex cannot be periodic.
    """
    if lam.is_rational_integer:
        z = lam.as_integer()
        disc = (z - k) ** 2 + 4 * m * z * z
        if disc == 0:  # z == k == 0: the pair coincides
            return [QuadInt.from_int(0)] * 2, False
        split = square_free_part(disc)
        return [
            QuadInt.make(z + k, split.s, split.c),
            QuadInt.make(z + k, -split.s, split.c),
        ], False
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
        return None, True  # gap brings in a second square root: degree four
    if y % 2:
        return None, True
    # gap = (p + q*sqrt(delta))/2 needs p*q = y/2 and p^2 + q^2*delta = x
    half = y // 2
    for p in divisors(half):
        for p_signed in (p, -p):
            q = half // p_signed
            if p_signed * p_signed + q * q * delta == x:
                if p_signed + q * math.sqrt(delta) < 0:
                    p_signed, q = -p_signed, -q
                return _half_pair(a + 2 * k, b, p_signed, q, delta)
    return None, True  # gap^2 is not a square in the field: degree four


def _half_pair(
    num_a: int, num_b: int, gap_a: int, gap_b: int, delta: int
) -> tuple[list[QuadInt] | None, bool]:
    """Values ((num_a +- gap_a) + (num_b +- gap_b) sqrt(delta)) / 4 as QuadInts."""
    if (num_a + gap_a) % 2 or (num_b + gap_b) % 2:
        return None, False  # not half-integer coordinates; stay inexact
    return [
        QuadInt.make((num_a + gap_a) // 2, (num_b + gap_b) // 2, delta),
        QuadInt.make((num_a - gap_a) // 2, (num_b - gap_b) // 2, delta),
    ], False


def _numeric_value(x) -> float:
    return x.value() if isinstance(x, QuadInt) else float(x)


def _same_value(a, b, tol: float = 1e-12) -> bool:
    if isinstance(a, QuadInt) and isinstance(b, QuadInt):
        return a == b
    return abs(_numeric_value(a) - _numeric_value(b)) < tol


# ---------------------------------------------------------------------------
# closed-form walk amplitudes

def corona_entry_base_base(
    spec: CoronaSpec, g_decomp: SpectralDecomposition, v: int, vp: int, t
):
    """Amplitude <(v,0)| U(t) |(v',0)> in the corona, vectorized over t.

    Sum over base eigenvalue classes of
        exp(-it(lam+k)/2) * E_lam[v,v'] * (cos(t Lambda/2)
            - i ((lam-k)/Lambda) sin(t Lambda/2)),
    where the bracket degenerates to 1 at Lambda = 0 (lam = k = 0).
    """
    k = spec.require_regular()
    m = spec.m
    _check_base(spec, v)
    _check_base(spec, vp)
    ts = np.asarray(t, dtype=float)
    total = np.zeros(ts.shape, dtype=complex)
    for c in g_decomp.classes:
        lam = c.value
        entry = c.projector[v, vp]
        big = eigen_pair(lam, k, m).big_lambda
        phase = np.exp(-1j * ts * (lam + k) / 2.0)
        if big == 0.0:
            factor = np.ones(ts.shape, dtype=complex)
        else:
            half = ts * big / 2.0
            factor = np.cos(half) - 1j * ((lam - k) / big) * np.sin(half)
        total = total + phase * entry * factor
    return total if ts.shape else complex(total)


def corona_entry_base_copy(
    spec: CoronaSpec, g_decomp: SpectralDecomposition, vp: int, v: int, w: int, t
):
    """Amplitude <(v',0)| U(t) |(v,w)> in the corona, vectorized over t.

    Sum over base classes of exp(-it(lam+k)/2) * E_lam[v,v'] *
    (-2 lam / Lambda) i sin(t Lambda/2); independent of which copy vertex w
    is addressed, and zero contribution from lam = 0.
    """
    k = spec.require_regular()
    m = spec.m
    _check_base(spec, v)
    _check_base(spec, vp)
    if not 0 <= w < spec.m:
        raise ValueError(f"copy vertex {w} out of range")
    ts = np.asarray(t, dtype=float)
    total = np.zeros(ts.shape, dtype=complex)
    for c in g_decomp.classes:
        lam = c.value
        big = eigen_pair(lam, k, m).big_lambda
        if big == 0.0:
            continue
        entry = c.projector[v, vp]
        phase = np.exp(-1j * ts * (lam + k) / 2.0)
        factor = (-2.0 * lam / big) * 1j * np.sin(ts * big / 2.0)
        total = total + phase * entry * factor
    return total if ts.shape else complex(total)


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
            prev.projector = prev.projector + c.projector
            prev.multiplicity += c.multiplicity
            prev.exact = _merge_exact(prev.exact, c.exact)
        else:
            merged.append(EigenClass(c.value, c.projector.copy(), c.multiplicity, c.exact))
    return SpectralDecomposition(merged, n)


def _merge_exact(a: QuadInt | None, b: QuadInt | None) -> QuadInt | None:
    if a is None:
        return b
    if b is None or a == b:
        return a
    return None  # numerically merged but symbolically distinct: stay honest
