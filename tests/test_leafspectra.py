"""Family spectra and vertex queries by theorem against the dense oracle: the
eigensolver on the built graph with rank-verified labels
(`exact_decomposition`), and the float route's supports, signs and verdicts."""

import math

import pytest

from coronawalk.cli import _decomposition, parse_graph_spec
from coronawalk.defaults import DEFAULT_COSPECTRAL_TOL, DEFAULT_SUPPORT_TOL
from coronawalk.exact import QuadInt
from coronawalk.graphs import FAMILIES, GraphSpec, build_family, build_graph
from coronawalk.leafspectra import FamilyDecomposition, class_runs, family_values
from coronawalk.spectral import SpecFactors, exact_decomposition
from coronawalk.transfer import PeriodicityVerdict, PSTCertificate, periodicity_test, pst_certify

# path and cycle up to 60, the others up to 20, each from its least size
LARGEST = {"path": 60, "cycle": 60, "complete": 20, "cocktail": 20, "empty": 20, "star": 20}


@pytest.mark.parametrize("group_tol", [1e-8, 1e-3, 1e-2])
@pytest.mark.parametrize("kind", sorted(LARGEST))
def test_theorem_equals_exact_decomposition(kind, group_tol):
    """The `spectrum` classes and the labelled leaf both match the oracle:
    multiplicities and labels equal, values within 1e-12, also where a loose
    tolerance merges distinct values into one unlabelled class."""
    for n in range(FAMILIES[kind].minimum, LARGEST[kind] + 1):
        spec = GraphSpec(kind, n)
        ref = exact_decomposition(build_family(spec), group_tol).classes
        for classes in (FamilyDecomposition(kind, n, group_tol).classes,
                        SpecFactors(group_tol).labelled(spec).classes):
            assert [(c.multiplicity, c.exact) for c in classes] == \
                [(r.multiplicity, r.exact) for r in ref], str(spec)
            assert max(abs(c.value - r.value) for c, r in zip(classes, ref)) <= 1e-12, \
                str(spec)


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
    assert [(c.exact, c.multiplicity) for c in family_values(kind, n)] == \
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
    values = family_values(kind, n)
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
    the eigenspaces in integers equal the float route's on the labelled leaf,
    on every vertex and ordered pair, floats within 1e-12.  The float route is
    clear of its tolerances on these leaves: a family projector's nonzero
    column norm or column difference is far above 1e-7.  The one designed
    difference is the degree refutation: where u's support holds an
    unlabelled value the family route says "no" and NoPST, the float route
    (which flags no leaf value) inconclusive."""
    for n in range(FAMILIES[kind].minimum, LARGEST[kind] + 1):
        spec = GraphSpec(kind, n)
        family = _Memo(FamilyDecomposition(kind, n, group_tol))
        # the float classes' queries call eigenvalue_support, strong_cospectral
        # and entry_amplitudes
        floats = _Memo(SpecFactors(group_tol).labelled(spec))
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
        oracle = SpecFactors().labelled(spec)
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
    "closed-form-regular": "corona(file:{paw},cycle:3)",
    "closed-form-irregular": "corona(cycle:4,file:{p3})",
    "nested": "corona(corona(path:2,empty:1),cycle:3)",
}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_every_decomposition_answers_as_the_assembled_graph(kind, tmp_path):
    """One battery on each kind of decomposition the CLI reads, the kind it
    reads for that spec (`cli._decomposition`), against the assembled graph's
    eigensolve with rank-verified labels: classes (values within 1e-9,
    multiplicities and labels equal), the support of every vertex, the signs
    of every ordered pair, and the walk terms and amplitude of every pair at
    three times, within 1e-12 but for the values."""
    paw, p3 = tmp_path / "paw.edges", tmp_path / "p3.edges"
    paw.write_text(PAW, encoding="utf-8")
    p3.write_text("3\n0 1\n1 2\n", encoding="utf-8")
    spec = parse_graph_spec(KINDS[kind].format(paw=paw, p3=p3))
    d = _decomposition(spec, labelled=True)
    ref = exact_decomposition(build_graph(spec, {}))
    assert type(d).__name__ == ("FamilyDecomposition" if kind == "family-leaf" else
                                "FamilyCoronaDecomposition" if kind.startswith("family-corona")
                                else "SpectralDecomposition")
    assert [(c.multiplicity, c.exact) for c in d.classes] == \
        [(r.multiplicity, r.exact) for r in ref.classes]
    assert max(abs(c.value - r.value) for c, r in zip(d.classes, ref.classes)) <= 1e-9
    for u in range(d.n):
        assert d.support(u)[:3] == ref.support(u)[:3], u
        for v in range(d.n):
            if u != v:
                assert d.signs(u, v) == ref.signs(u, v), (u, v)
            terms, want = d.terms(u, v), ref.terms(u, v)
            assert len(terms) == len(want)
            assert max(abs(x - y) for (x, _), (y, _) in zip(terms, want)) <= 1e-9
            assert max(abs(x - y) for (_, x), (_, y) in zip(terms, want)) <= 1e-12
            for t in (0.7, 3.1, 11.3):
                assert abs(d.amplitude(u, v, t) - ref.amplitude(u, v, t)) <= 1e-12, (u, v, t)
