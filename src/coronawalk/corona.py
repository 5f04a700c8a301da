"""Lifts of base eigenvalues over a copy factor's main data.

The corona of a base graph G (n vertices) with a graph H (m vertices) keeps
one copy of G plus n copies of H and joins every vertex of copy j to all
base neighbors of vertex j; `graphs.corona_graph` assembles it, for
`corona-build`, for a corona copy factor's main polynomial and as the
oracle of the tests.  On columns x (x) phi, phi a base eigenvector of lam
and x a layer column (base, copy_0, ..., copy_{m-1}), it acts as the layer
matrix [[lam, lam 1^T], [lam 1, A_H]].  Restricted to the base layer and
the main directions u_mu = P_mu 1 / w_mu of H (w_mu = ||P_mu 1|| > 0),
read off any decomposition of H (`main_atoms`), that is the arrowhead
[[lam, lam w^T], [lam w, diag(mu)]], whose eigenpairs are the lifts of lam,
the roots of one integer polynomial in the doubled variable
(`lift_polynomial`); the rest of each H class survives with multiplicity n.
For a k-regular H the one main direction is 1/sqrt(m), so lam lifts to

    lam_pm = (lam + k +- Lambda) / 2,   Lambda = sqrt((lam - k)^2 + 4 m lam^2),

the paper's pair, computed here with its 2 x 2 eigenvectors in closed
form.  A larger arrowhead's eigenvalues are the roots of its secular
equation, one in each gap between the poles mu and one beyond each end,
each solved as an offset from its nearer pole, and its eigenvectors (1,
lam w_mu / (theta - mu)) follow from weights recomputed from those roots
(`arrowhead.secular_lifts`, imported only for an irregular H), so there is
one arrowhead solver, in pure Python, for every H.  A lift is kept in main
coordinates x (length s) and its copy entries U x are made one w at a time
where read (`copy_entry`).  One routine, `lift_class`, makes the lifted
classes of the corona engine (`coronaspectra.CoronaDecomposition`, grouped
by `merge_runs`, by `leafspectra.class_runs`), with exact labels and the
flag of lifts of degree > 2 that refutes periodicity and transfer, or
unlabelled for the commands that read no label (`cli._decomposition`):
the searches, for one, read the engine's walk terms alone.  This module
loads no numpy.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .defaults import DEFAULT_GROUP_TOL
from .exact import _PAIR_TOL, _VALUE_TOL, QuadInt, _divide_out, _pair_label, main_polynomial
from .graphs import Graph
from .leafspectra import Decomposition, class_runs


class MainData(NamedTuple):
    """H's s main eigenvalues mu, unit directions P_mu 1 / ||P_mu 1|| (m x s,
    a row per vertex of H) and their norms ||P_mu 1|| (a column's sum), with
    walks 1^T A^j 1 and coefs of A^s 1 = sum_j coefs[j] A^j 1 (j < s) in
    Python ints; values, directions and norms are Python floats, read off
    H's atoms (`main_atoms`) or, for a regular H, from the theorem
    (`regular_main`)."""

    values: Sequence[float]
    directions: Sequence[Sequence[float]]
    norms: Sequence[float]
    walks: tuple[int, ...]
    coefs: tuple[int, ...]


def main_atoms(h: Decomposition, graph: Graph) -> tuple[MainData, dict[int, list[int]]]:
    """H's main data off its decomposition h, and for each main class i of
    h the places j in h.atoms[i] of its atoms with E 1 != 0.

    The degree s of the exact Krylov relation of H's all-ones vector
    (`exact.main_polynomial`, on `graph`) counts H's main eigenvalues; the
    main classes are the s with the largest ||P 1||, P 1 the sum of their
    atoms' E 1 (`ones`), each with its value mu, its direction P 1 / ||P 1||
    and its norm ||P 1||.  A k-regular H's one main class holds J/m, on
    which `regular_main` gives the data exactly."""
    k = graph.is_regular()
    walks, coefs = main_polynomial(graph.edges, graph.n) if k is None else ((graph.n,), (k,))
    found = []
    for i, atoms in enumerate(h.atoms):
        held = [(j, ones) for j, a in enumerate(atoms)
                for ones in [h.ones(a.key)] if ones is not None and any(ones)]
        if held:
            total = held[0][1] if len(held) == 1 else [math.fsum(x) for x in zip(
                *(ones for _, ones in held))]
            found.append((math.fsum(x * x for x in total), i, total, [j for j, _ in held]))
    found.sort(key=lambda f: -f[0])
    main = sorted(found[:len(coefs)], key=lambda f: f[1])
    places = {i: held for _, i, _, held in main}
    if k is not None:
        return regular_main(k, graph.n), places
    norms = tuple(math.sqrt(square) for square, _, _, _ in main)
    directions = [tuple(float(total[w]) / r for (_, _, total, _), r in zip(main, norms))
                  for w in range(graph.n)]
    values = tuple(h.classes[i].value for _, i, _, _ in main)
    return MainData(values, directions, norms, walks, coefs), places


def regular_main(k: int, m: int) -> MainData:
    """Main data of a k-regular H on m vertices: mu = k on 1/sqrt(m)."""
    return MainData((float(k),), ((1 / math.sqrt(m),),) * m, (math.sqrt(m),), (m,), (k,))


class LiftedClass(NamedTuple):
    """One corona eigenvector direction lifted from a base class: its unit layer
    column has `base` on layer 0 and U x on the copy layers, x = `coords` its
    s coordinates on H's main directions U (`copy_entry` reads one copy
    vertex), and its projector is c c^T (x) E_lam for that column c.
    `beyond_quadratic` marks a value of degree > 2."""

    value: float
    exact: QuadInt | None
    base: float
    coords: tuple[float, ...]
    beyond_quadratic: bool


def copy_entry(main: MainData, coords, w: int) -> float:
    """The entry (U x)[w] of a lift's layer column on copy vertex w: U's row w
    times its main coordinates x, O(s)."""
    return sum(u * x for u, x in zip(main.directions[w], coords))


def lift_class(lam: float, label: QuadInt | None, main: MainData,
               solved: dict | None = None) -> list[LiftedClass]:
    """Corona lifts of the base class lam (exact label or None) over H's main data.

    One lift per eigenvector (base, x) of the arrowhead of lam (the label's
    value when labelled), x on the main directions, in pure Python for every
    H: over a regular H the paper's pair with its 2 x 2 eigenvectors in closed
    form (`_regular_lifts`), and over an irregular one the roots of the
    secular equation (`arrowhead.secular_lifts`).  A labelled lam's lifts are
    labelled, and those of degree > 2 flagged `beyond_quadratic`, from its
    integer lift polynomial (`lift_polynomial`) by `_lift_labels`, with no
    rank, for a regular and an irregular H alike.  A periodic vertex, and so
    a vertex with perfect state transfer, has only integer or quadratic
    support values (Godsil, "Periodic graphs", Electron. J. Combin. 18 (2011)
    #P23), so a flagged lift in a vertex's support refutes both.

    Labelling reads the arrowhead of the label's conjugate too.  `solved`, a
    dict a caller passes to every class of one base over one main data, keeps
    each label's eigenpairs, so a base holding both conjugates solves each
    arrowhead once.
    """
    solved = {} if solved is None else solved
    values, columns = (_arrowhead_eigen(lam, main) if label is None else
                       _solved(label, main, solved))
    runs = class_runs(values, DEFAULT_GROUP_TOL)  # grouped as `decompose` groups
    groups = [(sum(values[a:b]) / (b - a), b - a) for a, b in runs]
    marks = ([(None, False)] * len(runs) if label is None else
             _lift_labels(groups, label, main, values, solved))
    return [LiftedClass(value, exact, base, coords, beyond)
            for (value, _), (a, b), (exact, beyond) in zip(groups, runs, marks)
            for base, coords in columns[a:b]]


def _arrowhead_eigen(lam: float, main: MainData):
    """The eigenvalues of the arrowhead [[lam, lam w^T], [lam w, diag(mu)]] of
    lam, w = H's main norms, descending, and the unit eigenvector (base, x)
    of each, x on the main directions."""
    if len(main.coefs) == 1:
        values, columns = _regular_lifts(lam, float(main.values[0]), main.walks[0])
        return values, [(x0, (x1,)) for x0, x1 in columns]
    from .arrowhead import secular_lifts

    return secular_lifts(lam, [float(mu) for mu in main.values],
                         [float(w) for w in main.norms])


def _solved(label: QuadInt, main: MainData, solved: dict):
    """The eigenpairs of the arrowhead of label's value, from `solved` or
    solved once into it."""
    if label not in solved:
        solved[label] = _arrowhead_eigen(label.value(), main)
    return solved[label]


def _regular_lifts(lam: float, k: float, m: int):
    """The eigenpairs of [[lam, lam sqrt(m)], [lam sqrt(m), k]], the arrowhead
    of lam over a k-regular H on m vertices: the paper's pair (lam + k +-
    Lambda)/2, descending, the one of larger magnitude by the formula and the
    other from their product k lam - m lam^2, with unit eigenvectors in closed
    form.  lam = 0 lifts to k on the copies and to 0 on the base."""
    if lam == 0:
        return [k, 0.0], [(0.0, 1.0), (1.0, 0.0)]
    half, off = (lam - k) / 2, lam * math.sqrt(m)
    mean, r = (lam + k) / 2, math.hypot(half, off)  # r = Lambda / 2
    big = mean + r if mean >= 0 else mean - r
    small = lam * (k - m * lam) / big
    # the larger root's eigenvector, (r + half, off) or its multiple (off, r - half)
    x0, x1 = (r + half, off) if half >= 0 else (off, r - half)
    norm = math.hypot(x0, x1)
    x0, x1 = x0 / norm, x1 / norm
    return [big, small] if mean >= 0 else [small, big], [(x0, x1), (-x1, x0)]


def lift_polynomial(label: QuadInt, main: MainData) -> list[int]:
    """Coefficients, highest first in Python ints, of the monic Psi in Z[y]
    whose roots are twice the lifts of label and of its conjugate.

    The lifts of lam are the roots of (x - lam) M(x) - lam^2 N(x), M(x) =
    x^s - sum_j coefs[j] x^j being H's main polynomial and N/M = 1^T (xI -
    A_H)^-1 1 its coronal (McLeman & McNicholas, Linear Algebra Appl. 435,
    2011), so N_r = sum_{t>r} m_t walks[t-r-1], m_t the coefficients of M.
    In y = 2x, with mu = 2 lam = a + b sqrt(delta), they are the roots of
    psi(y) = (y - mu) M2(y) - mu^2 N2(y), M2(y) = 2^s M(y/2) and N2(y) =
    2^(s-1) N(y/2).  Psi is psi for an integer lam, else psi psi' = (y^2 -
    2ay + p) M2^2 - ((4a^2 - 2p) y - 2ap) M2 N2 + p^2 N2^2, p = a^2 - b^2
    delta: monic in Z[y] even where label is no algebraic integer.
    """
    m = (1, *(-c for c in reversed(main.coefs)))  # M, highest first: m[i] = m_{s-i}
    m2 = [c << i for i, c in enumerate(m)]
    # N2 padded to the length of M2: N_{s-1-r} 2^r at r + 1
    n2 = [0, *(sum(m[i] * main.walks[r - i] for i in range(r + 1)) << r
               for r in range(len(m) - 1))]
    a, b, delta = label
    p = a * a - b * b * delta
    terms = ([([1, -a], m2), ([0, -a * a], n2)] if label.is_rational_integer else
             [([1, -2 * a, p], _times(m2, m2)),
              ([0, 2 * p - 4 * a * a, 2 * a * p], _times(m2, n2)),
              ([0, 0, p * p], _times(n2, n2))])
    return [sum(column) for column in zip(*(_times(f, g) for f, g in terms))]


def _times(f: list[int], g: list[int]) -> list[int]:
    """The product of two polynomials, coefficients highest first."""
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return out


def _lift_labels(groups: list[tuple[float, int]], label: QuadInt, main: MainData,
                 values: list[float], solved: dict) -> list[tuple[QuadInt | None, bool]]:
    """(label, beyond_quadratic) of each class (value, multiplicity) of the
    arrowhead of label, whose eigenvalues are `values`; the conjugate's
    arrowhead comes from `solved` (`lift_class`).

    Psi (`lift_polynomial`) is monic in Z[y], so a doubled lift y of degree
    <= 2 is an integer root r of Psi or a root of a factor y^2 - Ay + B in
    Z[y] whose other root is a root of Psi too.  A class near an integer r is
    labelled r when r is a root of Psi of the class multiplicity times the
    degree of label (a rational root of psi is one of psi' too); a
    lone class takes a label `_pair_label` reads off it and another float
    root of Psi, twice an eigenvalue of the arrowhead of label or of its
    conjugate, when that factor divides Psi exactly; `_halve` halves it.
    A lone class with no factor found has degree >= 3, and is flagged, when
    that search was complete: R, Psi less the integer roots found, changes
    sign across disjoint [t - eps, t + eps] about each of its deg R float
    roots t, exactly, so each holds one root, and eps keeps every pair's
    rounded sum and squared gap exact and its value within _VALUE_TOL.
    """
    psi, conjugates = lift_polynomial(label, main), {label, label.conjugate()}
    roots = [2 * t for q in conjugates
             for t in (values if q == label else _solved(q, main, solved)[0])]
    rest, left = psi, roots  # R and its float roots
    marks = []
    for value, multiplicity in groups:
        y, r = 2 * value, round(2 * value)
        count, rest = _divide_out(rest, [1, -r]) if abs(y - r) < _VALUE_TOL else (0, rest)
        if count:
            left = [t for t in left if abs(t - r) >= _VALUE_TOL]
        q = QuadInt.from_int(r) if count == len(conjugates) * multiplicity else None
        lone = not count and multiplicity == 1
        if lone:
            pairs = (_pair_label(y, z) for z in roots)
            q = next((g for g in pairs if g and _divide_out(
                psi, [1, -g.a, (g.a * g.a - g.b * g.b * g.delta) // 4])[0]), None)
        marks.append((_halve(q), lone and q is None))
    eps = min(_VALUE_TOL / 2, _PAIR_TOL / (8 * (max(roots) - min(roots) + 1)))
    left.sort()
    complete = any(beyond for _, beyond in marks) and len(left) == len(rest) - 1 and all(
        b - a > 2 * eps for a, b in zip(left, left[1:])) and all(
        _sign(rest, t - eps) * _sign(rest, t + eps) < 0 for t in left)
    return [(q, beyond and complete) for q, beyond in marks]


def _sign(poly, t: float) -> int:
    """Sign of poly at the float t = p / 2^e, exactly: that of
    sum_i poly[i] p^(D-i) 2^(e i), D = deg poly."""
    p, q = t.as_integer_ratio()
    e, acc = q.bit_length() - 1, 0
    for i, c in enumerate(poly):
        acc = acc * p + (c << (e * i))
    return (acc > 0) - (acc < 0)


def _halve(q: QuadInt | None) -> QuadInt | None:
    """q / 2, or None when that is no (a + b sqrt(delta))/2 with integer a, b."""
    ok = q is not None and q.a % 2 == q.b % 2 == 0 and (q.delta > 1 or q.a % 4 == 0)
    return QuadInt(q.a // 2, q.b // 2, q.delta) if ok else None


def merge_runs(raw: list, group_tol: float) -> list[tuple[list, QuadInt | None, bool]]:
    """The raw classes (each with a value, label and flag), sorted by
    decreasing value in place, in runs grouped as `decompose` groups
    eigenvalues, each with the label and the `beyond_quadratic` flag that
    every member carries, else None and False.  A run's class keeps its first
    member's value, one of the corona's eigenvalues."""
    raw.sort(key=lambda c: c.value, reverse=True)
    runs = []
    for a, b in class_runs([c.value for c in raw], group_tol):
        run = raw[a:b]
        labels = {c.exact for c in run}
        # numerically merged but symbolically distinct values: stay honest
        runs.append((run, labels.pop() if len(labels) == 1 else None,
                     all(c.beyond_quadratic for c in run)))
    return runs
