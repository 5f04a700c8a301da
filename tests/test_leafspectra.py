"""Family spectra and vertex queries by theorem against the dense oracle: the
eigensolver on the built graph with rank-verified labels
(`exact_decomposition`), its classes, supports, signs and verdicts; and the
conformance battery of every decomposition the CLI reads."""

import math
from unittest import mock

import numpy as np
import pytest

from coronawalk.cli import _decomposition, parse_graph_spec
from coronawalk.defaults import DEFAULT_COSPECTRAL_TOL, DEFAULT_SUPPORT_TOL
from coronawalk.exact import QuadInt
from coronawalk.graphs import FAMILIES, GraphSpec, build_family, build_graph
from coronawalk.leafspectra import FamilyDecomposition, class_runs
from coronawalk.corona import main_atoms
from coronawalk.coronaspectra import CoronaDecomposition
from coronawalk.spectral import EigenClass, SpectralDecomposition, decompose, exact_decomposition
from coronawalk.transfer import PeriodicityVerdict, PSTCertificate, periodicity_test, pst_certify

# path and cycle up to 60, the others up to 20, each from its least size
LARGEST = {"path": 60, "cycle": 60, "complete": 20, "cocktail": 20, "empty": 20, "star": 20}


@pytest.mark.parametrize("group_tol", [1e-8, 1e-3, 1e-2])
@pytest.mark.parametrize("kind", sorted(LARGEST))
def test_theorem_equals_exact_decomposition(kind, group_tol):
    """The `spectrum` classes match the oracle: multiplicities and labels
    equal, values within 1e-12, also where a loose tolerance merges distinct
    values into one unlabelled class."""
    for n in range(FAMILIES[kind].minimum, LARGEST[kind] + 1):
        spec = GraphSpec(kind, n)
        ref = exact_decomposition(build_family(spec), group_tol).classes
        classes = FamilyDecomposition(kind, n, group_tol).classes
        assert [(c.multiplicity, c.exact) for c in classes] == \
            [(r.multiplicity, r.exact) for r in ref], str(spec)
        assert max(abs(c.value - r.value) for c, r in zip(classes, ref)) <= 1e-12, str(spec)


@pytest.mark.parametrize(
    "kind, n, expected",
    [
        # equal labels add up: cocktail:1 is two isolated vertices
        ("cocktail", 1, [(0, 2)]),
        # sqrt(n - 1) = 0: one vertex, one zero
        ("star", 1, [(0, 1)]),
        ("star", 2, [(1, 1), (-1, 1)]),
        # sqrt(4) is an integer
        ("star", 5, [(2, 1), (0, 3), (-2, 1)]),
        ("complete", 1, [(0, 1)]),
        ("empty", 3, [(0, 3)]),
        ("cycle", 6, [(2, 1), (1, 2), (-1, 2), (-2, 1)]),
    ],
)
def test_integer_spectra(kind, n, expected):
    assert [(c.exact, c.multiplicity) for c in FamilyDecomposition(kind, n, 1e-8).classes] == \
        [(QuadInt.from_int(r), m) for r, m in expected]


@pytest.mark.parametrize(
    "kind, n, expected",
    [
        ("path", 3, [QuadInt(0, 2, 2), QuadInt.from_int(0), QuadInt(0, -2, 2)]),
        ("path", 4, [QuadInt(1, 1, 5), QuadInt(-1, 1, 5), QuadInt(1, -1, 5),
                     QuadInt(-1, -1, 5)]),
        ("path", 5, [QuadInt(0, 2, 3), QuadInt.from_int(1), QuadInt.from_int(0),
                     QuadInt.from_int(-1), QuadInt(0, -2, 3)]),
        ("star", 9, [QuadInt(0, 4, 2), QuadInt.from_int(0), QuadInt(0, -4, 2)]),
        # 2cos(2 pi j/7) is cubic: only j = 0 is labelled
        ("cycle", 7, [QuadInt.from_int(2), None, None, None]),
    ],
)
def test_labels(kind, n, expected):
    values = FamilyDecomposition(kind, n, 1e-8).classes
    assert [c.exact for c in values] == expected
    assert all(c.value == c.exact.value() for c in values if c.exact is not None)
    assert sum(c.multiplicity for c in values) == n


def test_merged_class_holds_no_label():
    # at 1e-2 the 60-path's gaps near +-2, about 0.01, chain its values up
    merged = FamilyDecomposition("path", 60, 1e-2).classes
    assert len(merged) < 60 and all(c.exact is None for c in merged if c.multiplicity > 1)
    assert sum(c.multiplicity for c in merged) == 60


def test_class_runs():
    assert class_runs([3.0, 2.0, 2.0 - 1e-9, -1.0], 1e-8) == [(0, 1), (1, 3), (3, 4)]
    # the gap scales with the largest |value|: 1e-8 * 300 > 2e-6
    assert class_runs([300.0, 1.0, 1.0 - 2e-6], 1e-8) == [(0, 1), (1, 3)]


class _Memo:
    """A decomposition's vertex queries, each support and unordered pair
    computed once, for `pst_certify` to read on every ordered pair."""

    def __init__(self, d):
        self.d, self.classes, self.n = d, d.classes, d.n
        self._supports, self._signs = {}, {}

    def support(self, u, tol=DEFAULT_SUPPORT_TOL):
        if u not in self._supports:
            self._supports[u] = self.d.support(u, tol)
        return self._supports[u]

    def signs(self, u, v, tol=DEFAULT_COSPECTRAL_TOL):
        pair = (min(u, v), max(u, v))
        if pair not in self._signs:
            self._signs[pair] = self.d.signs(u, v, tol)
        return self._signs[pair]

    def amplitude(self, u, v, t):
        return self.d.amplitude(u, v, t)


def _same_record(got, want):
    """Equal records: every int, str and None field equal, floats within 1e-12."""
    assert got._fields == want._fields
    for field, x, y in zip(got._fields, got, want):
        if isinstance(y, (float, complex)):
            assert abs(x - y) <= 1e-12, field
        else:
            assert x == y, field


@pytest.mark.parametrize("group_tol", [1e-8, 1e-3, 1e-2])
@pytest.mark.parametrize("kind", sorted(LARGEST))
def test_vertex_queries_equal_the_float_route(kind, group_tol):
    """Support class indices, sign maps, periodicity and PST verdicts read off
    the eigenspaces in integers equal the float route's on the leaf's
    eigensolve with rank-verified labels, on every vertex and ordered pair,
    floats within 1e-12.  The float route is
    clear of its tolerances on these leaves: a family projector's nonzero
    column norm or column difference is far above 1e-7.  The one designed
    difference is the degree refutation: where u's support holds an
    unlabelled value the family route says "no" and NoPST, the float route
    (which flags no leaf value) inconclusive."""
    for n in range(FAMILIES[kind].minimum, LARGEST[kind] + 1):
        spec = GraphSpec(kind, n)
        family = _Memo(FamilyDecomposition(kind, n, group_tol))
        floats = _Memo(exact_decomposition(build_family(spec), group_tol))
        assert family.n == floats.n and len(family.classes) == len(floats.classes)
        for u in range(family.n):
            got, want = family.support(u), floats.support(u)
            assert got[:3] == want[:3] and not want.beyond_quadratic, (str(spec), u)
            verdict = periodicity_test(got.exact, got.beyond_quadratic)
            expected = periodicity_test(want.exact)
            if got.beyond_quadratic:
                assert expected.periodic == "inconclusive"
                expected = PeriodicityVerdict("no", reason="support value of degree > 2")
            _same_record(verdict, expected)
            for v in range(family.n):
                if v == u:
                    continue
                assert family.d.signs(u, v) == floats.signs(u, v), (str(spec), u, v)
                cert, expected = pst_certify(family, u, v), pst_certify(floats, u, v)
                if got.beyond_quadratic:
                    assert (expected.verdict, expected.failure_reason) == (
                        "Inconclusive", "inexact spectrum")
                    expected = PSTCertificate("NoPST", u, v, "support value of degree > 2")
                _same_record(cert, expected)


def _degree(j: int, big_n: int) -> int:
    """Degree of 2cos(2 pi j/N) by brute force: phi(d)/2 for the reduced
    denominator d of j/N when d >= 3, else 1."""
    d = big_n // math.gcd(j, big_n)
    return sum(math.gcd(k, d) == 1 for k in range(1, d + 1)) // 2 if d >= 3 else 1


@pytest.mark.parametrize("kind", sorted(LARGEST))
def test_degree_flag_by_brute_force(kind):
    """On every family leaf to order 60, u's support is flagged exactly where
    one of its eigenvalues has degree at least 3, at every group_tol: per
    value, also where a loose tolerance merges values into one class.  Only
    path and cycle values can have degree 3 or more."""
    for n in range(FAMILIES[kind].minimum, 61):
        spec = GraphSpec(kind, n)
        oracle = exact_decomposition(build_family(spec))
        if oracle.n > 60:
            break
        # the distinct values in descending order, as the oracle's classes
        degrees = ([_degree(j, 2 * n + 2) for j in range(1, n + 1)] if kind == "path"
                   else [_degree(j, n) for j in range(n // 2 + 1)] if kind == "cycle"
                   else [1] * len(oracle.classes))
        assert len(degrees) == len(oracle.classes)
        for u in range(oracle.n):
            held = oracle.support(u).class_indices
            flagged = any(degrees[i] >= 3 for i in held)
            for group_tol in (1e-8, 1e-3, 1e-2):
                sup = FamilyDecomposition(kind, n, group_tol).support(u)
                assert sup.beyond_quadratic == flagged, (str(spec), u, group_tol)


PAW = "4\n0 1\n1 2\n0 2\n2 3\n"
KINDS = {
    "family-leaf": "path:7",
    "family-corona": "corona(path:3,cycle:4)",
    "family-corona-star": "corona(path:3,star:3)",
    "family-corona-path": "corona(cycle:4,path:4)",
    "file-leaf": "file:{paw}",
    "file-base": "corona(file:{paw},cycle:3)",
    "file-copy": "corona(cycle:4,file:{p3})",
    # +-sqrt(2) of multiplicity 2: a main direction each, and a residual
    "file-copy-two-p3": "corona(path:2,file:{p3p3})",
    "empty-copy": "corona(path:3,empty:3)",
    "nested-base": "corona(corona(path:2,empty:1),cycle:3)",
    "nested-file-base": "corona(corona(file:{paw},path:2),cycle:3)",
    "nested-copy": "corona(path:2,corona(path:3,empty:1))",
    # the lifts -1 of (1 +- sqrt(5))/2 meet: a main class of two atoms with E 1 != 0
    "nested-copy-meeting-lifts": "corona(path:2,corona(path:4,cycle:3))",
}


def _class_entries(d, u: int, v: int) -> list[float]:
    """E[u, v] of each class of d, the sum over its atoms."""
    x, y = d.vertex(u), d.vertex(v)
    return [math.fsum(d.entry(a.key, x, y) for a in atoms) for atoms in d.atoms]


def _terms_per_value(d, u: int, v: int) -> list[tuple[float, float]]:
    """The walk terms of d from u to v summed per value: values within 1e-9
    of the one before are one value."""
    terms = sorted(d.terms(u, v), reverse=True)
    runs = [0, *(i for i in range(1, len(terms)) if terms[i - 1][0] - terms[i][0] > 1e-9),
            len(terms)]
    return [(terms[a][0], math.fsum(e for _, e in terms[a:b])) for a, b in zip(runs, runs[1:])]


@pytest.mark.parametrize("group_tol", [1e-8, 1e-3])
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_every_decomposition_answers_as_the_assembled_graph(kind, group_tol, tmp_path):
    """One battery on each kind of decomposition the CLI reads, the kind it
    reads for that spec (`cli._decomposition`), against the assembled graph's
    eigensolve with rank-verified labels at the same group tol: classes
    (multiplicities and labels equal, each value an eigenvalue within 1e-9),
    the support of every vertex, the signs of every ordered pair, and each
    class's entry E[u, v] on every pair, within 1e-12.  Against the assembled
    graph at 1e-8, where no class merges distinct eigenvalues, the walk
    terms summed per value (values within 1e-9, entries within 1e-12) and
    the amplitude at three times (within 1e-12) agree at 1e-8, and at 1e-3
    too where the base is a family: each atom takes its own value, so a
    class that merges lifts of distinct values, or a base class that
    merges distinct values, turns each at its own eigenvalue.  At 1e-8 the
    values agree too (within 1e-9); a merged class keeps one of its
    eigenvalues, not their mean."""
    paw, p3, p3p3 = tmp_path / "paw.edges", tmp_path / "p3.edges", tmp_path / "p3p3.edges"
    paw.write_text(PAW, encoding="utf-8")
    p3.write_text("3\n0 1\n1 2\n", encoding="utf-8")
    p3p3.write_text("6\n0 1\n1 2\n3 4\n4 5\n", encoding="utf-8")
    spec = parse_graph_spec(KINDS[kind].format(paw=paw, p3=p3, p3p3=p3p3))
    d = _decomposition(spec, group_tol, labelled=True)
    graph = build_graph(spec, {})
    ref = exact_decomposition(graph, group_tol)
    assert type(d).__name__ == ("FamilyDecomposition" if kind == "family-leaf" else
                                "SpectralDecomposition" if kind == "file-leaf"
                                else "CoronaDecomposition")
    assert [(c.multiplicity, c.exact) for c in d.classes] == \
        [(r.multiplicity, r.exact) for r in ref.classes]
    values = np.linalg.eigvalsh(graph.adjacency().astype(float))
    assert max(np.min(np.abs(values - c.value)) for c in d.classes) <= 1e-9
    if group_tol == 1e-8:
        assert max(abs(c.value - r.value) for c, r in zip(d.classes, ref.classes)) <= 1e-9
    own = group_tol == 1e-8 or (spec.kind == "corona" and spec.factors[0].kind in FAMILIES)
    exact = ref if group_tol == 1e-8 else exact_decomposition(graph, 1e-8)
    for u in range(d.n):
        assert d.support(u)[:3] == ref.support(u)[:3], u
        for v in range(d.n):
            if u != v:
                assert d.signs(u, v) == ref.signs(u, v), (u, v)
            entries, want = _class_entries(d, u, v), _class_entries(ref, u, v)
            assert max(abs(x - y) for x, y in zip(entries, want)) <= 1e-12, (u, v)
            if own:
                terms, want = _terms_per_value(d, u, v), exact.terms(u, v)
                assert len(terms) == len(want), (u, v)
                assert max(abs(x - y) for (x, _), (y, _) in zip(terms, want)) <= 1e-9
                assert max(abs(x - y) for (_, x), (_, y) in zip(terms, want)) <= 1e-12
                for t in (0.7, 3.1, 11.3):
                    assert abs(d.amplitude(u, v, t) - exact.amplitude(u, v, t)) <= 1e-12, \
                        (u, v, t)


def test_no_corona_spec_builds_a_kronecker_product(tmp_path):
    """Every corona of the battery answers every query from its factors:
    numpy.kron is never called."""
    paw, p3, p3p3 = tmp_path / "paw.edges", tmp_path / "p3.edges", tmp_path / "p3p3.edges"
    paw.write_text(PAW, encoding="utf-8")
    p3.write_text("3\n0 1\n1 2\n", encoding="utf-8")
    p3p3.write_text("6\n0 1\n1 2\n3 4\n4 5\n", encoding="utf-8")
    with mock.patch("numpy.kron", side_effect=AssertionError):
        for text in KINDS.values():
            spec = parse_graph_spec(text.format(paw=paw, p3=p3, p3p3=p3p3))
            for labelled in (False, True):
                d = _decomposition(spec, labelled=labelled)
                for u in range(d.n):
                    d.support(u)
                    d.signs(u, d.n - 1 - u) if 2 * u != d.n - 1 else None
                    d.amplitude(u, 0, 1.3)


def test_a_float_base_decides_its_lifts_at_the_support_tol():
    """Over a base of float classes a layer entry is read at --support-tol:
    P3's value 0 as eigh might give it, 1e-17 and unlabelled, lifts over
    cycle:3 to ~1e-17 on the base and to ~2 with a base entry ~1e-17, which
    is no eigenvalue of a base vertex, as on the assembled graph; read
    exactly (!= 0) it would hold every base vertex that 0 holds."""
    p3 = decompose(build_family(GraphSpec("path", 3)).adjacency())
    classes = [EigenClass(1e-17 if abs(c.value) < 1e-9 else c.value, c.vectors)
               for c in p3.classes]
    base = SpectralDecomposition(classes, 3)
    h = build_family(GraphSpec("cycle", 3))
    copy = FamilyDecomposition("cycle", 3, 1e-8)
    d = CoronaDecomposition(base, copy, *main_atoms(copy, h), 1e-8)
    two = next(i for i, c in enumerate(d.classes) if abs(c.value - 2) < 1e-9)
    (atom,) = d.atoms[two]
    assert 0 < abs(atom.key[0].base) < 1e-15
    assert d.entry(atom.key, d.vertex(0), d.vertex(0)) > 0
    assert all(two not in d.support(u).class_indices for u in range(3))
    ref = exact_decomposition(build_graph(parse_graph_spec("corona(path:3,cycle:3)"), {}))
    for u in range(3):
        assert [d.classes[i].value for i in d.support(u).class_indices] == \
            pytest.approx([ref.classes[i].value for i in ref.support(u).class_indices])


@pytest.mark.parametrize("kind", ["path", "cycle"])
def test_value_degrees_by_brute_force(kind):
    """Every eigenspace's degree on every path and cycle to order 60 is
    phi(d)/2 counted by brute force, and a class's lifts are flagged in
    advance exactly where each of its eigenspaces has degree 3 or >= 5, at
    every group_tol."""
    for n in range(FAMILIES[kind].minimum, 61):
        big_n = 2 * n + 2 if kind == "path" else n
        for group_tol in (1e-8, 1e-3, 1e-2):
            d = FamilyDecomposition(kind, n, group_tol)
            for i, atoms in enumerate(d.atoms):
                degrees = [_degree(a.key, big_n) for a in atoms]
                assert [d.degree(a.key) for a in atoms] == degrees, (kind, n, i)
                assert d.beyond_quadratic_lifts(i) == all(x not in (1, 2, 4) for x in degrees)


def test_lifts_of_a_cubic_value_refute_transfer():
    """cycle:7's values 2cos(2 pi j/7), j = 1, 2, 3, have degree 3: over any
    copy factor every lift is flagged, so each base vertex's support decides
    `periodic` and `pst`, as the leaf's own support does."""
    for copy in ("cycle:3", "path:3", "empty:2"):
        d = _decomposition(parse_graph_spec(f"corona(cycle:7,{copy})"), labelled=True)
        sup = d.support(0)
        assert sup.beyond_quadratic and not sup.all_exact
        cert = pst_certify(d, 0, 1)
        assert (cert.verdict, cert.failure_reason) == ("NoPST", "support value of degree > 2")
        # the float readers lift unlabelled, and flag nothing
        assert not any(c.beyond_quadratic for c in _decomposition(
            parse_graph_spec(f"corona(cycle:7,{copy})")).classes)
