"""Family spectra by theorem against the dense oracle: the eigensolver on the
built graph with rank-verified labels (`exact_decomposition`)."""

import pytest

from coronawalk.exact import QuadInt
from coronawalk.graphs import FAMILIES, GraphSpec, build_family
from coronawalk.leafspectra import class_runs, family_classes, family_values
from coronawalk.spectral import SpecFactors, exact_decomposition

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
        for classes in (family_classes(kind, n, group_tol),
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
    merged = family_classes("path", 60, 1e-2)
    assert len(merged) < 60 and all(c.exact is None for c in merged if c.multiplicity > 1)
    assert sum(c.multiplicity for c in merged) == 60


def test_class_runs():
    assert class_runs([3.0, 2.0, 2.0 - 1e-9, -1.0], 1e-8) == [(0, 1), (1, 3), (3, 4)]
    # the gap scales with the largest |value|: 1e-8 * 300 > 2e-6
    assert class_runs([300.0, 1.0, 1.0 - 2e-6], 1e-8) == [(0, 1), (1, 3)]
