"""Closed-form spectral decomposition of neighborhood coronas.

The corona of a base graph G (n vertices) with a graph H (m vertices) keeps
one copy of G plus n copies of H and joins every vertex of copy j to all
base neighbors of vertex j; `graphs.corona_graph` assembles it, which
`spectral.SpecFactors` asks for only where a corona is a copy factor.
`SpecFactors` loads this module only when a spec term is a corona, and the
searches (`transfer.pgst_search`, `corona_no_pst_check`) only when they
run.  On columns x (x) phi, phi a base eigenvector of lam and x a layer
column (base, copy_0, ..., copy_{m-1}), it acts as the layer matrix
[[lam, lam 1^T], [lam 1, A_H]].  Restricted to the base layer and the main
directions u_mu = P_mu 1 / w_mu of H (w_mu = ||P_mu 1|| > 0) that is the
arrowhead [[lam, lam w^T], [lam w, diag(mu)]], whose eigenpairs
are the lifts of lam; the rest of each H class survives with multiplicity n.
For a k-regular H the one main direction is 1/sqrt(m), so lam lifts to

    lam_pm = (lam + k +- Lambda) / 2,   Lambda = sqrt((lam - k)^2 + 4 m lam^2),

the paper's pair.  One routine, `lift_class`, serves every consumer below:
the closed form builds the classes as eigenvector blocks (x (x) V_lam for a
lift, (0 (+) W) (x) I_n for a copy class), grouped as `decompose` groups
(`leafspectra.class_runs`), with exact labels and the flag of lifts of
degree 4 that refutes periodicity and transfer; and the walk amplitude
from (v', 0) to (v, 0), or to (v, w) with w given, is an exponential sum
over the lifted values (`corona_terms`),
which `spectral.exp_sum_grid` evaluates on uniform time grids in batches,
each one small matrix product of two phase tables of about sqrt(batch)
columns, in memory independent of --lmax and --points.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .defaults import DEFAULT_GROUP_TOL
from .exact import QuadInt, is_quadratic_square, main_polynomial
from .graphs import Graph, check_base_vertex, check_budget, check_copy_vertex
from .leafspectra import class_runs
from .spectral import EigenClass, SpectralDecomposition, attach_exact_labels, decompose


class MainData(NamedTuple):
    """H's s main eigenvalues mu and unit directions P_mu 1 / ||P_mu 1|| (m x s;
    ||P_mu 1|| is a column's sum), with walks 1^T A^j 1 and coefs of
    A^s 1 = sum_j coefs[j] A^j 1 (j < s) in Python ints."""

    values: np.ndarray
    directions: np.ndarray
    walks: tuple[int, ...]
    coefs: tuple[int, ...]


def main_data(h: Graph, h_decomp: SpectralDecomposition) -> MainData:
    """Main data of an irregular H: the exact Krylov relation of its all-ones
    vector (`exact.main_polynomial`), of degree s, and the s classes of
    h_decomp with the largest ||P_mu 1||."""
    walks, coefs = main_polynomial(h.edges, h.n)
    classes = h_decomp.classes
    sums = [c.vectors.sum(axis=0) for c in classes]  # ||P_mu 1|| = |W^T 1|
    main = sorted(sorted(range(len(classes)), key=lambda i: -(sums[i] @ sums[i]))[:len(coefs)])
    directions = np.column_stack([classes[i].vectors @ sums[i] / math.sqrt(sums[i] @ sums[i])
                                  for i in main])
    values = np.array([classes[i].value for i in main])
    return MainData(values, directions, walks, coefs)


class CoronaSpec(NamedTuple):
    """Corona factors with H's regular degree (None when H irregular) and main data."""

    g: Graph
    h: Graph
    k: int | None
    main: MainData

    @classmethod
    def from_graphs(cls, g: Graph, h: Graph, h_decomp=None) -> "CoronaSpec":
        """The corona of g and h.  A k-regular H has mu = k on 1/sqrt(m);
        h_decomp, H's decomposition, is read (or made) only for an irregular H."""
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


class LiftedClass(NamedTuple):
    """One corona eigenvector direction lifted from a base class: its unit layer
    column has `base` on layer 0 and `copy[w]` on copy layer w, and its block
    is that column (x) V_lam.  `beyond_quadratic` marks a value of degree > 2."""

    value: float
    exact: QuadInt | None
    base: float
    copy: np.ndarray
    beyond_quadratic: bool


def lift_class(lam: float, label: QuadInt | None, main: MainData) -> list[LiftedClass]:
    """Corona lifts of the base class lam (exact label or None) over H's main data.

    One lift per eigenvector x of the arrowhead of lam (the label's value
    when labelled), with base x[0] and copy U x[1:], U the main directions.
    A label lifts over every H by `attach_exact_labels` on `_walk_operator`,
    which reads H's exact walk counts and main polynomial, checked
    against the arrowheads of lam and its conjugate side by side, so a lift
    of lam that coincides with one of the conjugate shares its class.

    Over a k-regular H on m vertices (s = 1, k = coefs[0], m = walks[0]) lam
    lifts to the roots of x^2 - (lam + k)x + k lam - m lam^2.  For lam =
    (a + b sqrt(delta))/2 irrational, 4(lam - k)^2 + 16m lam^2 is
    P + Q sqrt(delta), P = (1 + 4m)(a^2 + b^2 delta) - 4ka + 4k^2 and
    Q = 2b((1 + 4m)a - 2k).  Where it is no square in Q(sqrt(delta)) both lifts
    have degree 4: an automorphism that fixes a quadratic lift outside
    Q(sqrt(delta)) and sends lam to lam' makes it a root of both quadratics,
    whose difference (lam - lam')(k - m(lam + lam') - x) makes it the rational
    k - ma.  Those lifts are flagged `beyond_quadratic` and left unlabelled,
    with no rank.  A periodic vertex, and so a vertex with perfect state
    transfer, has only integer or quadratic support values (Godsil,
    "Periodic graphs", Electron. J. Combin. 18 (2011) #P23), so such a lift in
    a vertex's support refutes both.
    """
    beyond = False
    if label is not None:
        lam = label.value()
        beyond = len(main.coefs) == 1 and not _quadratic_lifts(label, main)
    arrow = _arrowhead(lam, main)
    size = len(arrow)
    if label is not None and not label.is_rational_integer:
        arrow = np.kron(np.diag([1.0, 0.0]), arrow)
        arrow[size:, size:] = _arrowhead(label.conjugate().value(), main)
    d = decompose(arrow)
    labels = None
    if label is not None and not beyond:
        doubled = [EigenClass(2.0 * c.value, c.vectors) for c in d.classes]
        labels = attach_exact_labels(SpectralDecomposition(doubled, d.n),
                                     _walk_operator(label, main)).classes
    lifts = []
    for i, c in enumerate(d.classes):
        exact = None if labels is None else _halve(labels[i].exact)
        cols = c.vectors[:size]
        # the class's eigenvectors of lam's own arrowhead: ||cols||^2 of them
        share = round(float(np.sum(cols * cols)))
        if share < c.multiplicity:
            cols = np.linalg.svd(cols, full_matrices=False)[0][:, :share]
        for x in cols.T:
            lifts.append(LiftedClass(c.value, exact, float(x[0]), main.directions @ x[1:],
                                     beyond))
    return lifts


def _quadratic_lifts(label: QuadInt, main: MainData) -> bool:
    """Whether the lifts of label over a regular H are quadratic: an integer
    label's always are, an irrational one's when P + Q sqrt(delta)
    (`lift_class`) is a square in Q(sqrt(delta))."""
    (k,), (m,) = main.coefs, main.walks
    a, b, delta = label
    return label.is_rational_integer or is_quadratic_square(
        (1 + 4 * m) * (a * a + b * b * delta) - 4 * k * a + 4 * k * k,
        2 * b * ((1 + 4 * m) * a - 2 * k), delta)


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
    check_budget(n * (m + 1))

    raw: list[EigenClass] = []
    eye_n = np.eye(n)
    for c in h_decomp.classes:
        # main directions inside this class: ||U^T W||^2 of them, 0 or 1
        inner = spec.main.directions.T @ c.vectors
        mains = round(float(np.sum(inner * inner)))
        block = c.vectors @ np.linalg.svd(inner)[2][mains:].T if mains else c.vectors
        if block.shape[1]:
            w = np.vstack([np.zeros((1, block.shape[1])), block])
            raw.append(EigenClass(c.value, np.kron(w, eye_n), c.exact, c.beyond_quadratic))

    for c in g_decomp.classes:
        for lift in lift_class(c.value, c.exact, spec.main):
            column = np.r_[lift.base, lift.copy]
            raw.append(EigenClass(lift.value, np.kron(column[:, None], c.vectors),
                                  lift.exact, lift.beyond_quadratic))

    return _merge_classes(raw, n * (m + 1), group_tol)


# ---------------------------------------------------------------------------
# closed-form walk amplitudes

def corona_terms(
    spec: CoronaSpec, g_decomp: SpectralDecomposition, v: int, vp: int,
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
    check_base_vertex(spec.n, v)
    check_base_vertex(spec.n, vp)
    if w is not None:
        check_copy_vertex(spec.m, w)
    freqs: list[float] = []
    coefs: list[float] = []
    for c in g_decomp.classes:
        entry = c.entry(v, vp)
        lam = c.value if c.exact is None else c.exact.value()
        for lift in lift_class(lam, None, spec.main):
            freqs.append(lift.value)
            coefs.append(entry * lift.base * (lift.base if w is None else lift.copy[w]))
    return np.array(freqs, dtype=float), np.array(coefs, dtype=float)


def _merge_classes(
    raw: list[EigenClass], n: int, group_tol: float
) -> SpectralDecomposition:
    """The raw classes grouped as `decompose` groups eigenvalues; a class keeps
    its first member's value, one of the corona's eigenvalues, and a label or
    the `beyond_quadratic` flag only where every member carries it."""
    raw.sort(key=lambda c: c.value, reverse=True)
    merged: list[EigenClass] = []
    for a, b in class_runs([c.value for c in raw], group_tol):
        run = raw[a:b]
        vectors = run[0].vectors if b - a == 1 else np.hstack([c.vectors for c in run])
        labels = {c.exact for c in run}
        # numerically merged but symbolically distinct values: stay honest
        merged.append(EigenClass(run[0].value, vectors,
                                 labels.pop() if len(labels) == 1 else None,
                                 all(c.beyond_quadratic for c in run)))
    return SpectralDecomposition(merged, n)
