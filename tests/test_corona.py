import itertools
import math
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from coronawalk import grid, transfer
from coronawalk.arrowhead import secular_lifts
from coronawalk.cli import _decomposition, parse_graph_spec
from coronawalk.corona import (
    MainData,
    lift_class,
    lift_polynomial,
    main_atoms,
    merge_runs,
    regular_main,
)
from coronawalk.defaults import DEFAULT_GROUP_TOL
from coronawalk.exact import QuadInt
from coronawalk.grid import GRID_BLOCK, moduli
from coronawalk.graphs import (
    build_graph,
    cocktail_party_graph,
    complete_graph,
    copy_index,
    corona_graph,
    cycle_graph,
    empty_graph,
    make_graph,
    path_graph,
    star_graph,
    write_edge_list,
)
from coronawalk.spectral import decompose, exact_decomposition

from oracles import (
    amplitudes,
    engine,
    exp_sum,
    is_quadratic_square,
    lift_base_eigenvalue,
    projector,
    reassemble,
    search_engine,
    small_factors,
    transition_matrix,
)


def main_of(h) -> MainData:
    """H's main data off its float classes (by theorem where H is regular)."""
    return main_atoms(decompose(h.adjacency()), h)[0]


def closed_form(g, h):
    return main_of(h), engine(exact_decomposition(g), h)


def walk_terms(g, h, v, vp, w=None):
    """The walk terms a search reads on g * h (`transfer._walk_terms`), from
    (v, 0) to (v', 0), or from (v', 0) to (v, w) where w is given, as arrays."""
    x, y = (v, vp) if w is None else (vp, copy_index(g.n, v, w))
    return map(np.asarray, transfer._walk_terms(search_engine(exact_decomposition(g), h), x, y))


class TestAssembly:
    def test_p3_star_p4_counts(self):
        cg = corona_graph(path_graph(3), path_graph(4))
        assert cg.n == 15
        # edges(G) + n*edges(H) + m*sum(deg_G) = 2 + 9 + 16
        assert cg.edge_count == 27

    def test_p2_with_single_pendant_copies(self):
        cg = corona_graph(path_graph(2), empty_graph(1))
        assert cg.n == 4
        assert sorted(cg.edges) == [(0, 1), (0, 3), (1, 2)]

    def test_isolated_base_vertex_keeps_copy_detached(self):
        cg = corona_graph(complete_graph(1), cycle_graph(3))
        assert cg.n == 4
        # no cross edges: the single base vertex has no neighbors
        assert sorted(cg.edges) == [(1, 2), (1, 3), (2, 3)]

    def test_labels_follow_block_layout(self):
        cg = corona_graph(path_graph(2), cycle_graph(3))
        assert cg.labels[0] == ("base", 0)
        assert cg.labels[copy_index(2, 1, 2)] == ("copy", 1, 2)

    def test_adjacency_block_structure(self):
        g, h = path_graph(2), cycle_graph(3)
        a = corona_graph(g, h).adjacency()
        n, m = g.n, h.n
        ag, ah = g.adjacency(), h.adjacency()
        assert (a[:n, :n] == ag).all()
        assert (a[n:, n:] == np.kron(ah, np.eye(n, dtype=int))).all()
        assert (a[:n, n:] == np.kron(np.ones((1, m), dtype=int), ag)).all()


class TestEigenPairs:
    def test_pair_identities(self):
        for lam in (-2.0, -1.0, 0.5, 1.0, 3.0):
            for k, m in ((0, 2), (2, 3), (3, 4)):
                plus, minus = (x.value for x in lift_class(lam, None, regular_main(k, m)))
                assert plus + minus == pytest.approx(lam + k, abs=1e-9)
                assert plus * minus == pytest.approx(
                    lam * k - m * lam * lam, abs=1e-8
                )
                assert (plus - k) * (minus - k) == pytest.approx(
                    -m * lam * lam, abs=1e-8
                )

    def test_product_identities_all_pairs_of_a_decomposition(self):
        k, m = 2, 3  # cycle_graph(3)
        for c in exact_decomposition(cycle_graph(4)).classes:
            lam = c.value
            plus, minus = (x.value for x in lift_class(lam, c.exact, regular_main(k, m)))
            lhs1 = ((plus - k) ** 2 + m * lam * lam) * (
                (minus - k) ** 2 + m * lam * lam
            )
            rhs1 = m * lam * lam * (plus - minus) ** 2
            assert lhs1 == pytest.approx(rhs1, rel=1e-6, abs=1e-9)
            lhs2 = (plus - k) * (minus - k)
            assert lhs2 == pytest.approx(-m * lam * lam, rel=1e-6, abs=1e-9)

    @given(
        st.integers(-12, 12),
        st.integers(-6, 6).filter(bool),
        st.sampled_from([2, 3, 5, 6, 7, 10, 11, 13]),
        st.integers(0, 6),
        st.integers(1, 6),
    )
    # exact lifts through the irrational gap (p + q sqrt(delta))/2, q != 0
    @example(-6, -4, 5, 0, 1)
    @example(-6, -3, 2, 3, 2)
    @settings(max_examples=300)
    def test_exact_lift_is_the_pair_of_roots(self, a, b, delta, k, m):
        # lam_pm are the roots of z^2 - (lam + k) z + (lam k - m lam^2)
        lam = QuadInt(a, b, delta)
        pair = lift_base_eigenvalue(lam, k, m)
        lifts = lift_class(lam.value(), lam, regular_main(k, m))
        assert [x.exact for x in lifts] == (pair or [None, None])
        if pair is None:
            return
        # each lifted value (a_i + b_i sqrt(delta))/2 as the integers (a_i, b_i)
        (a1, b1), (a2, b2) = ((q.a, q.b) for q in pair)
        assert all(q.b == 0 or q.delta == delta for q in pair)
        assert (a1 + a2, b1 + b2) == (a + 2 * k, b)
        # 4 (lam k - m lam^2)
        #   = 2k (a + b sqrt(delta)) - m (a^2 + b^2 delta + 2ab sqrt(delta))
        assert a1 * a2 + b1 * b2 * delta == 2 * k * a - m * (a * a + b * b * delta)
        assert a1 * b2 + a2 * b1 == 2 * k * b - 2 * m * a * b
        for q, lift in zip(pair, lifts):
            assert abs(q.value() - lift.value) < 1e-9

    @given(
        st.floats(0.1, 5.0),
        st.sampled_from([-1, 1]),
        st.integers(0, 4),
        st.integers(1, 6),
        st.floats(0.0, 20.0),
    )
    @settings(max_examples=120)
    def test_two_branch_sum_collapses(self, mag, sign, k, m, t):
        # sum_pm e^{∓i t L/2} (lam_pm - k)^2 / ((lam_pm - k)^2 + m lam^2)
        # equals cos(tL/2) - i ((lam - k)/L) sin(tL/2)
        lam = mag * sign
        plus, minus = (x.value for x in lift_class(lam, None, regular_main(k, m)))
        big = plus - minus
        total = 0j
        for value, s in ((plus, 1), (minus, -1)):
            w = (value - k) ** 2 / ((value - k) ** 2 + m * lam * lam)
            total += np.exp(-1j * s * t * big / 2.0) * w
        expected = math.cos(t * big / 2) - 1j * ((lam - k) / big) * math.sin(
            t * big / 2
        )
        assert abs(total - expected) < 1e-9

    @pytest.mark.parametrize("lam", [10.0 ** -e for e in range(3, 12)])
    def test_small_unlabelled_class_lifts_to_orthonormal_columns(self, lam):
        # (lam + k + Lambda)/2 - k cancels for 0 < lam << k; the arrowhead's
        # eigenvectors carry no such difference
        h = cycle_graph(3)
        lifts = lift_class(lam, None, regular_main(2, 3))
        cols = np.array([np.r_[x.base, np.full(3, x.coords[0] / math.sqrt(3))] for x in lifts])
        assert np.max(np.abs(cols @ cols.T - np.eye(2))) <= 1e-15
        layer = np.block([[np.array([[lam]]), np.full((1, 3), lam)],
                          [np.full((3, 1), lam), h.adjacency()]])
        assembled = np.linalg.eigvalsh(layer)
        for x in lifts:
            assert np.min(np.abs(assembled - x.value)) < 1e-12


@st.composite
def arrowheads(draw):
    """(lam, poles, norms) of an arrowhead [[lam, lam w^T], [lam w, diag(mu)]]:
    1 to 30 distinct poles mu in any order, some clustered down to gaps of
    1e-9, norms w from 1e-5 to 10 (weights w^2 down to 1e-10), and |lam|
    from 1e-7 to 1e2, the last three log-uniform."""
    s = draw(st.integers(1, 30))
    log = st.floats(-9, 0.5).map(lambda e: 10.0 ** e)
    poles = list(itertools.accumulate(draw(st.lists(log, min_size=s - 1, max_size=s - 1)),
                                      initial=draw(st.floats(-5, 5))))
    order = draw(st.permutations(range(s)))
    norms = draw(st.lists(st.floats(-5, 1).map(lambda e: 10.0 ** e), min_size=s, max_size=s))
    lam = draw(st.sampled_from((-1.0, 1.0))) * 10.0 ** draw(st.floats(-7, 2))
    return lam, [poles[i] for i in order], norms


class TestSecularSolver:
    """`arrowhead.secular_lifts`, the one arrowhead solver past the regular
    pair, against LAPACK's eigh on the assembled arrowhead."""

    @settings(max_examples=300, deadline=None)
    @given(arrowheads())
    @example((1e-7, [0.0, 1e-9, 2e-9], [1e-5, 10.0, 1e-5]))
    @example((100.0, [-2.0, 2.0], [10.0, 10.0]))
    def test_values_and_columns_match_eigh(self, arrowhead):
        """Values within 32 ulps of ||A||, each solver's backward error
        bounded by a few; columns orthonormal within 16 ulps (vectors from
        the given weights rather than the recomputed ones drift to 1e-14 at
        30 poles), with a residual of a few ulps of ||A||, and equal to
        eigh's up to sign within 1e-12
        wherever eigh's own error, about eps ||A|| / gap to the nearest other
        eigenvalue, lies below 1e-12 (at gaps near 1e-9 eigh's columns are
        off by 1e-7)."""
        lam, poles, norms = arrowhead
        values, columns = secular_lifts(lam, poles, norms)
        a = np.diag([lam, *poles])
        a[0, 1:] = a[1:, 0] = lam * np.array(norms)
        want, vectors = np.linalg.eigh(a)
        eps, scale = np.finfo(float).eps, np.max(np.abs(want))
        assert values == sorted(values, reverse=True)
        assert np.max(np.abs(np.array(values[::-1]) - want)) <= 32 * eps * scale
        x = np.array([[base, *coords] for base, coords in reversed(columns)]).T
        assert np.max(np.abs(x.T @ x - np.eye(len(want)))) <= 16 * eps
        assert np.max(np.abs(a @ x - x * np.array(values[::-1]))) <= 32 * eps * scale
        for i, value in enumerate(want):
            gap = min(abs(value - other) for j, other in enumerate(want) if j != i)
            if 16 * eps * scale <= 1e-12 * gap:
                assert min(np.max(np.abs(x[:, i] - vectors[:, i])),
                           np.max(np.abs(x[:, i] + vectors[:, i]))) <= 1e-12, i

    def test_lam_zero_is_diagonal(self):
        # a zero pole makes 0 a double eigenvalue, on the base and on its direction
        values, columns = secular_lifts(0.0, [-1.0, 0.0, 2.0], [1.0, 1.0, 1.0])
        assert values == [2.0, 0.0, 0.0, -1.0]
        assert sorted(columns) == sorted([(0.0, (0.0, 0.0, 1.0)), (1.0, (0.0, 0.0, 0.0)),
                                          (0.0, (0.0, 1.0, 0.0)), (0.0, (1.0, 0.0, 0.0))])


class TestClosedForm:
    def test_p2_c3_eigenvalues(self):
        _, d = closed_form(path_graph(2), cycle_graph(3))
        expected = sorted(
            [
                (3 + math.sqrt(13)) / 2,
                (1 + math.sqrt(21)) / 2,
                (3 - math.sqrt(13)) / 2,
                -1.0,
                (1 - math.sqrt(21)) / 2,
            ],
            reverse=True,
        )
        assert np.allclose([c.value for c in d.classes], expected, atol=1e-9)
        assert [c.multiplicity for c in d.classes] == [1, 1, 1, 4, 1]
        assert d.classes[0].exact == QuadInt(3, 1, 13)
        assert d.classes[1].exact == QuadInt(1, 1, 21)
        assert d.classes[2].exact == QuadInt(3, -1, 13)

    def test_zero_branch_contributes_k_and_zero(self):
        _, d = closed_form(path_graph(3), cycle_graph(3))
        values = [c.value for c in d.classes]
        assert any(abs(v - 2.0) < 1e-9 for v in values)
        assert any(abs(v) < 1e-9 for v in values)

    @pytest.mark.parametrize(
        "g,h",
        [
            (path_graph(2), cycle_graph(3)),
            (path_graph(3), cycle_graph(3)),
            (cycle_graph(4), complete_graph(4)),
            (path_graph(4), cycle_graph(5)),
        ],
        ids=["p2c3", "p3c3", "c4k4", "p4c5"],
    )
    def test_reconstructs_adjacency(self, g, h):
        main, d = closed_form(g, h)
        a = corona_graph(g, h).adjacency().astype(float)
        assert np.max(np.abs(reassemble(d) - a)) < 1e-8
        total = sum(projector(d, i) for i in range(len(d.classes)))
        assert np.max(np.abs(total - np.eye(d.n))) < 1e-9
        assert sum(c.multiplicity for c in d.classes) == d.n

    def test_transition_agrees_with_numeric_oracle(self):
        g, h = path_graph(2), cycle_graph(3)
        main, d = closed_form(g, h)
        oracle = decompose(corona_graph(g, h).adjacency())
        rng = np.random.default_rng(7)
        for t in rng.uniform(0, 10, size=10):
            lhs = np.array(
                [[complex(amplitudes(d, i, j, t)) for j in range(d.n)]
                 for i in range(d.n)]
            )
            rhs = np.array(
                [[complex(amplitudes(oracle, i, j, t)) for j in range(d.n)]
                 for i in range(d.n)]
            )
            assert np.max(np.abs(lhs - rhs)) < 1e-7

    def test_copy_only_classes_have_zero_base_blocks(self):
        g, h = path_graph(3), complete_graph(4)
        main, d = closed_form(g, h)
        hd = exact_decomposition(h)
        h_only = {
            round(c.value, 9) for c in hd.classes if abs(c.value - 3) > 1e-9
        }
        pair_values = set()
        for c in exact_decomposition(g).classes:
            for lift in lift_class(c.value, c.exact, main):
                pair_values.add(round(lift.value, 9))
        for i, c in enumerate(d.classes):
            if round(c.value, 9) in h_only and round(c.value, 9) not in pair_values:
                assert np.max(np.abs(projector(d, i)[: g.n, :])) == 0.0

    @pytest.mark.parametrize(
        "g,h",
        [
            # irrational base eigenvalues (1 +- sqrt 5)/2 whose lifts stay quadratic
            (path_graph(4), cycle_graph(3)),
            (path_graph(4), cycle_graph(5)),
            (path_graph(4), complete_graph(2)),
            (path_graph(4), complete_graph(4)),
            (cycle_graph(5), cycle_graph(5)),
            (path_graph(2), cycle_graph(3)),
            (path_graph(3), cocktail_party_graph(2)),
            (cycle_graph(6), complete_graph(3)),
            (complete_graph(4), cycle_graph(4)),
            (cocktail_party_graph(3), cycle_graph(3)),
            (star_graph(4), complete_graph(5)),
        ],
        ids=["p4c3", "p4c5", "p4k2", "p4k4", "c5c5", "p2c3", "p3cp2", "c6k3",
             "k4c4", "cp3c3", "s4k5"],
    )
    def test_labels_equal_assembled_labels(self, g, h):
        _, d = closed_form(g, h)
        ref = exact_decomposition(corona_graph(g, h))
        assert len(d.classes) == len(ref.classes)
        for c, r in zip(d.classes, ref.classes):
            assert c.value == pytest.approx(r.value, abs=1e-7)
            assert c.multiplicity == r.multiplicity
            assert c.exact == r.exact

    @pytest.mark.parametrize(
        "g,h",
        [(path_graph(2), path_graph(3)), (cycle_graph(5), star_graph(4)),
         (path_graph(4), make_graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])),
         # a disconnected regular H repeats k, and only 1/sqrt(m) of it lifts
         (path_graph(2), empty_graph(2)), (cycle_graph(4), empty_graph(3)),
         (path_graph(3), make_graph(5, [(0, 1), (2, 3), (3, 4), (2, 4)]))],
        ids=["p2p3", "c5s4", "p4paw", "p2e2", "c4e3", "p3k2+k3"],
    )
    def test_irregular_or_disconnected_copy_factor_equals_assembled(self, g, h):
        _, d = closed_form(g, h)
        assert h.is_regular() is None or not h.is_connected()
        ref = exact_decomposition(corona_graph(g, h))
        assert [(c.multiplicity, c.exact) for c in d.classes] == \
            [(r.multiplicity, r.exact) for r in ref.classes]
        assert np.allclose([c.value for c in d.classes], [r.value for r in ref.classes],
                           atol=1e-9)
        assert np.max(np.abs(reassemble(d) - corona_graph(g, h).adjacency())) < 1e-12

    def test_disconnected_base_reconstructs(self):
        g, h = empty_graph(2), cycle_graph(3)
        _, d = closed_form(g, h)
        a = corona_graph(g, h).adjacency().astype(float)
        assert np.max(np.abs(reassemble(d) - a)) < 1e-8

    def test_merges_collisions_with_copy_eigenvalues(self):
        # complete base: eigenvalue -1 collides with the copy factor's -1
        g, h = complete_graph(3), complete_graph(4)
        main, d = closed_form(g, h)
        minus_one = [c for c in d.classes if abs(c.value + 1.0) < 1e-8]
        assert len(minus_one) == 1
        a = corona_graph(g, h).adjacency().astype(float)
        assert np.max(np.abs(reassemble(d) - a)) < 1e-8

    def test_near_zero_class_without_label_lifts_unlabelled(self, tmp_path):
        # base class 0.00224 carries no exact label and lies within the loose
        # group_tol of 0, but it is no eigenvalue 0: it lifts to its own pair,
        # the corona's eigenvalues 0.002232 and 2.000008, not to k and 0
        path = tmp_path / "g.edges"
        path.write_text(
            "12\n0 2\n0 5\n0 6\n0 7\n0 8\n0 11\n1 3\n1 4\n1 8\n1 10\n"
            "2 5\n2 6\n2 8\n2 9\n2 11\n3 4\n3 7\n3 8\n3 10\n4 5\n4 6\n"
            "4 10\n5 10\n6 7\n7 10\n7 11\n9 10\n9 11\n10 11\n"
        )
        spec = parse_graph_spec(f"corona(file:{path},cycle:3)")
        base = _decomposition(spec.factors[0], 1e-2, labelled=True)
        assert any(abs(c.value) <= 1e-2 and c.exact is None for c in base.classes)
        d = _decomposition(spec, 1e-2, labelled=True)
        assembled = np.linalg.eigvalsh(build_graph(spec, {}).adjacency().astype(float))
        labels = [c.exact for c in d.classes if c.exact is not None]
        assert labels
        for q in labels:
            assert np.min(np.abs(assembled - q.value())) < 1e-9
        for c in d.classes:
            assert np.min(np.abs(assembled - c.value)) < 1e-9

    @pytest.mark.parametrize("copy", [0, 1, 2, 3, "path:200"])
    def test_exact_main_polynomial_labels_the_lifts(self, copy):
        # H = G(40, 1/2) (s = 40) or P_200 (s = 100): the main polynomial's
        # coefficients outgrow double precision, yet its Krylov relation is
        # exact, so P_3's labelled classes lift to labelled classes, each an
        # eigenvalue of the assembled corona
        g = path_graph(3)
        h = path_graph(200) if copy == "path:200" else random_irregular_graph(40, copy)
        main = main_of(h)
        assert len(main.coefs) == (100 if copy == "path:200" else 40)
        gd = exact_decomposition(g)
        labels = [lift.exact for c in gd.classes
                  for lift in lift_class(c.value, c.exact, main) if lift.exact is not None]
        assert labels
        d = engine(gd, h, decompose(h.adjacency()))
        assert {c.exact for c in d.classes} > set(labels)
        assembled = corona_graph(g, h).adjacency()
        values = np.linalg.eigvalsh(assembled.astype(float))
        for q in labels:
            assert np.min(np.abs(values - q.value())) < 1e-9
        ref = decompose(assembled)
        assert [c.multiplicity for c in d.classes] == [r.multiplicity for r in ref.classes]
        # a class of values closer than the grouping gap takes one value for all
        gap = DEFAULT_GROUP_TOL * np.max(np.abs(values))
        assert np.allclose([c.value for c in d.classes], [r.value for r in ref.classes],
                           rtol=0, atol=gap)

    @pytest.mark.parametrize("seed", range(4))
    def test_oracle_equivalence_on_random_connected_bases(self, seed):
        rng = np.random.default_rng(500 + seed)
        copies = [cycle_graph(3), cycle_graph(4), cycle_graph(5), complete_graph(4)]
        while True:
            n = int(rng.integers(2, 6))
            edges = [
                (i, j) for i in range(n) for j in range(i + 1, n)
                if rng.random() < 0.6
            ]
            g = make_graph(n, edges)
            if g.is_connected():
                break
        h = copies[seed]
        closed = engine(decompose(g.adjacency()), h, decompose(h.adjacency()))
        a = corona_graph(g, h).adjacency().astype(float)
        assert np.max(np.abs(reassemble(closed) - a)) < 1e-8
        oracle = decompose(a)
        for t in rng.uniform(0.0, 10.0, size=10):
            lhs = np.array(
                [[complex(amplitudes(closed, i, j, t)) for j in range(closed.n)]
                 for i in range(closed.n)]
            )
            rhs = np.array(
                [[complex(amplitudes(oracle, i, j, t)) for j in range(closed.n)]
                 for i in range(closed.n)]
            )
            assert np.max(np.abs(lhs - rhs)) < 1e-7


ORACLE_BASES = ([f"path:{n}" for n in range(1, 6)] + ["cycle:3", "cycle:4", "cycle:5"]
                + ["star:3", "star:4", "star:5"] + [f"complete:{n}" for n in range(1, 5)]
                + ["empty:1", "empty:2", "empty:3", "cocktail:2"])
# file: copy factors, irregular (the last also disconnected), as edge lists
ORACLE_FILES = {"file:triangle-forks": "6\n0 1\n0 2\n1 2\n2 3\n3 4\n3 5\n",
                "file:c4-pendant": "5\n0 1\n1 2\n2 3\n0 3\n0 4\n",
                "file:k2+p3": "5\n0 1\n2 3\n3 4\n"}
ORACLE_COPIES = ["path:2", "path:3", "path:4", "star:3", "star:4", "empty:1", "empty:2",
                 "empty:3", "cycle:3", "cycle:4", "complete:3", "cocktail:2",
                 "corona(path:2,empty:1)", "corona(empty:2,complete:2)", *ORACLE_FILES]


# the small family factors: path 2-7, cycle 3-8, star 2-6, complete 2-5, cocktail 2-3
GROUPING_FACTORS = ([f"path:{n}" for n in range(2, 8)] + [f"cycle:{n}" for n in range(3, 9)]
                    + [f"star:{n}" for n in range(2, 7)]
                    + [f"complete:{n}" for n in range(2, 6)] + ["cocktail:2", "cocktail:3"])


class TestOracleEquality:
    """The engine equals the assembled exact decomposition class by class
    on 19 bases times 17 copy factors, 323 factor pairs."""

    @pytest.mark.parametrize("group_tol", [1e-2, 5e-3, 1e-3])
    def test_loose_group_tol_splits_where_the_assembled_graph_does(self, group_tol):
        # at a loose tolerance adjacent gaps chain into one class: the engine
        # groups its values by the rule `decompose` applies to the assembled
        # corona's, over all 529 coronas of the small families
        for base in GROUPING_FACTORS:
            for copy in GROUPING_FACTORS:
                spec = parse_graph_spec(f"corona({base},{copy})")
                d = _decomposition(spec, group_tol)
                ref = decompose(build_graph(spec, {}).adjacency(), group_tol)
                assert [c.multiplicity for c in d.classes] == \
                    [r.multiplicity for r in ref.classes], str(spec)

    @pytest.mark.parametrize("spec", ["corona(empty:2,path:60)", "corona(path:3,path:60)",
                                      "corona(cycle:5,path:9)", "corona(star:3,star:7)"])
    @pytest.mark.parametrize("group_tol", [1e-2, 5e-3])
    def test_loose_group_tol_takes_irregular_copy_classes_at_the_default(self, spec, group_tol):
        # an irregular H's copy classes come from H grouped at the default
        # tolerance and merge at the loose one: the assembled grouping, each
        # class valued at one of the corona's eigenvalues, not at a mean
        spec = parse_graph_spec(spec)
        d = _decomposition(spec, group_tol, labelled=True)
        a = build_graph(spec, {}).adjacency()
        assert [c.multiplicity for c in d.classes] == \
            [r.multiplicity for r in decompose(a, group_tol).classes]
        values = np.linalg.eigvalsh(a.astype(float))
        assert max(np.min(np.abs(values - c.value)) for c in d.classes) < 1e-9

    @pytest.mark.parametrize("copy", ORACLE_COPIES)
    def test_engine_equals_assembled_exact_decomposition(self, tmp_path, copy):
        assert len(ORACLE_BASES) * len(ORACLE_COPIES) >= 200
        if copy in ORACLE_FILES:
            path = tmp_path / "h.edges"
            path.write_text(ORACLE_FILES[copy], encoding="utf-8")
            copy = f"file:{path}"
        for base in ORACLE_BASES:
            spec = parse_graph_spec(f"corona({base},{copy})")
            d = _decomposition(spec, labelled=True)
            ref = exact_decomposition(build_graph(spec, {}))
            assert [(c.multiplicity, c.exact) for c in d.classes] == \
                [(r.multiplicity, r.exact) for r in ref.classes], base
            assert np.allclose([c.value for c in d.classes],
                               [r.value for r in ref.classes], rtol=0, atol=1e-9), base
            for t in (0.7, 3.1):
                diff = transition_matrix(d, t) - transition_matrix(ref, t)
                assert np.max(np.abs(diff)) < 1e-8, base

    @pytest.mark.parametrize("group_tol", [1e-8, 1e-2])
    def test_an_irregular_copy_factor_keeps_its_main_rows_at_any_group_tol(self, tmp_path,
                                                                          group_tol):
        # H's main data is read off H at the default tolerance: at 1e-2 its
        # classes would merge main values and leave 30 of the 40 main rows
        path = tmp_path / "h.edges"
        path.write_text(write_edge_list(random_irregular_graph(40, 0)))
        spec = parse_graph_spec(f"corona(path:3,file:{path})")
        main = _decomposition(spec, group_tol).main
        assert len(main.values) == len(main.coefs) == 40  # an arrowhead of 41 rows
        assembled = np.linalg.eigvalsh(build_graph(spec, {}).adjacency())
        for c in _decomposition(spec, group_tol, labelled=True).classes:
            assert np.min(np.abs(assembled - c.value)) <= 1e-9, c.value


class TestEntries:
    def test_base_base_at_zero_is_kronecker(self):
        g, h = path_graph(3), cycle_graph(3)
        for v in range(3):
            for vp in range(3):
                val = exp_sum(*walk_terms(g, h, v, vp), 0.0)
                assert val == pytest.approx(1.0 if v == vp else 0.0, abs=1e-12)

    def test_base_copy_at_zero_vanishes(self):
        g, h = path_graph(3), cycle_graph(3)
        assert exp_sum(*walk_terms(g, h, 2, 0, 1), 0.0) == pytest.approx(0.0)

    @pytest.mark.parametrize(
        "g,h",
        [(path_graph(2), cycle_graph(3)), (path_graph(3), cycle_graph(3))],
        ids=["p2c3", "p3c3"],
    )
    def test_entries_match_assembled_oracle(self, g, h):
        oracle = decompose(corona_graph(g, h).adjacency())
        rng = np.random.default_rng(11)
        ts = rng.uniform(0, 20, size=25)
        n, m = g.n, h.n
        for v in range(n):
            for vp in range(n):
                lhs = exp_sum(*walk_terms(g, h, v, vp), ts)
                rhs = amplitudes(oracle, v, vp, ts)
                assert np.max(np.abs(lhs - rhs)) < 1e-7
                for w in range(m):
                    lhs2 = exp_sum(*walk_terms(g, h, v, vp, w), ts)
                    rhs2 = amplitudes(oracle, vp, copy_index(n, v, w), ts)
                    assert np.max(np.abs(lhs2 - rhs2)) < 1e-7

    def test_base_copy_independent_of_copy_vertex(self):
        g, h = path_graph(2), cycle_graph(3)
        ts = np.linspace(0.0, 9.0, 20)
        reference = exp_sum(*walk_terms(g, h, 1, 0, 0), ts)
        for w in (1, 2):
            other = exp_sum(*walk_terms(g, h, 1, 0, w), ts)
            assert np.max(np.abs(other - reference)) < 1e-10

    def test_rounding_zero_class_lifts_as_in_the_engine(self):
        # C4's class 0 (exact label 0) comes out of eigh as -1.1e-16
        g, h = cycle_graph(4), cycle_graph(3)
        main, d = closed_form(g, h)
        gd = exact_decomposition(g)
        zero = next(c for c in gd.classes if c.exact == QuadInt.from_int(0))
        freqs, coefs = map(np.asarray, zip(*search_engine(gd, h).terms(0, 1)))
        assert 0.0 in freqs and 2.0 in freqs
        assert np.all(freqs[np.abs(freqs) < 1e-12] == 0.0)
        assert coefs[list(freqs).index(2.0)] == 0.0
        assert coefs[list(freqs).index(0.0)] == gd.entry(zero.vectors, 0, 1)
        # the engine lifts the same class to exactly 2 and 0, and its value-2
        # class lies on the copies alone
        values = [c.value for c in d.classes]
        assert 2.0 in values and 0.0 in values
        assert np.all(projector(d, values.index(2.0))[: g.n] == 0.0)
        assert base_lifts([zero.exact], main) == [(0.0, QuadInt.from_int(0))]

    def test_degenerate_zero_gap_for_zero_degree(self):
        # base eigenvalue 0 with a 0-regular copy factor hits Lambda = 0
        g, h = path_graph(3), empty_graph(1)
        oracle = decompose(corona_graph(g, h).adjacency())
        for t in (0.9, 3.7):
            lhs = exp_sum(*walk_terms(g, h, 0, 0), t)
            rhs = complex(amplitudes(oracle, 0, 0, t))
            assert abs(lhs - rhs) < 1e-9

    def test_integral_spectrum_revival(self):
        # every corona eigenvalue of the 2-path with two isolated-vertex
        # copies is an integer, so the walk revives fully at t = 2 pi
        g, h = path_graph(2), empty_graph(2)
        val = exp_sum(*walk_terms(g, h, 0, 0), 2 * math.pi)
        assert abs(val) == pytest.approx(1.0, abs=1e-12)


def random_irregular_graph(n: int, seed: int):
    rng = np.random.default_rng(seed)
    while True:
        g = make_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                           if rng.random() < 0.5])
        if g.is_regular() is None:
            return g


GRID_BASES = [path_graph(2), path_graph(3), star_graph(4), cycle_graph(4),
              cocktail_party_graph(3), complete_graph(1)]
# regular of degree k = 0 (the single vertex, where base eigenvalue 0 hits
# Lambda = 0), 1, 2 and 3; irregular, where a base-copy coefficient
# E x_0 x_{1+w} depends on w; and disconnected
GRID_COPIES = [empty_graph(1), complete_graph(2), cycle_graph(3), cycle_graph(5),
               complete_graph(4), path_graph(3), star_graph(4), empty_graph(2),
               random_irregular_graph(6, 3)]


@st.composite
def corona_pairs(draw):
    """A corona of a small base (family or random) and a small copy factor,
    its base decomposition and one base-base or base-copy pair."""
    if draw(st.booleans()):
        g = draw(st.sampled_from(GRID_BASES))
    else:
        n = draw(st.integers(1, 6))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        g = make_graph(n, [p for p, k in zip(pairs, keep) if k])
    h = draw(st.sampled_from(GRID_COPIES))
    v = draw(st.integers(0, g.n - 1))
    vp = draw(st.integers(0, g.n - 1))
    w = draw(st.one_of(st.none(), st.integers(0, h.n - 1)))
    return g, h, v, vp, w


def numpy_batches(freqs, coefs, t0, dt, count) -> list[np.ndarray]:
    """`moduli`'s batches on a budget of 0, numpy's unless there is no term
    to evaluate, as arrays."""
    return [np.asarray(b if hasattr(b, "dtype") else list(b), dtype=float)
            for b in moduli(freqs, coefs, t0, dt, count, 0)]


# the width a of the kernel's fine table on a whole batch
_TABLE = math.isqrt(GRID_BLOCK - 1) + 1


class TestExponentialSum:
    @given(
        corona_pairs(),
        # block sizes B with counts 1, B - 1, B, B + 1 and several blocks
        st.sampled_from([1, 2, 5, 64, 97]).flatmap(lambda b: st.tuples(
            st.just(b), st.sampled_from([1, max(1, b - 1), b, b + 1, 3 * b + 2]))),
        st.floats(-40.0, 40.0),
        st.floats(0.0, 4.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_grid_kernel_matches_explicit_times(self, case, sizes, t0, dt):
        g, h, v, vp, w = case
        block, count = sizes
        freqs, coefs = walk_terms(g, h, v, vp, w)
        # a patch, not the monkeypatch fixture, which @given rejects
        with mock.patch.object(grid, "GRID_BLOCK", block):
            batches = numpy_batches(freqs, coefs, t0, dt, count)
        assert [b.size for b in batches[:-1]] == [block] * (len(batches) - 1)
        assert 1 <= batches[-1].size <= block
        values = np.concatenate(batches)
        ts = t0 + np.arange(count) * dt
        explicit = np.abs(exp_sum(freqs, coefs, ts))
        t_end = float(np.max(np.abs(ts)))
        top = float(np.max(np.abs(freqs), initial=0.0))
        assert values.shape == (count,)
        assert np.max(np.abs(values - explicit)) <= 1e-12 * (1.0 + top * t_end)

    @given(
        corona_pairs(),
        # one point, the fine table's width and one less, a batch and one
        # more or one less, and several batches
        st.sampled_from([1, _TABLE - 1, _TABLE, GRID_BLOCK - 1, GRID_BLOCK + 1,
                         3 * GRID_BLOCK + 7]),
        st.floats(0.5, 40.0),
        st.floats(0.01, 4.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_pure_batches_are_numpy_s_and_a_switch_keeps_its_bits(self, case, count, t0, dt):
        """Pure Python and numpy batches have the same sizes and agree to
        rounding; a budget that runs out at any batch boundary gives the pure
        batches before it and the all-numpy batches after it, bit for bit."""
        g, h, v, vp, w = case
        freqs, coefs = (x.tolist() for x in walk_terms(g, h, v, vp, w))
        assume(freqs)  # no term: nothing to evaluate, in pure Python
        k = len(freqs)
        dense = list(moduli(freqs, coefs, t0, dt, count, 0))
        assert all(hasattr(b, "dtype") for b in dense)
        pure = [list(b) for b in moduli(freqs, coefs, t0, dt, count, count * k)]
        assert [len(b) for b in pure] == [b.size for b in dense]
        top = max(abs(f) for f in freqs)
        bound = 1e-13 * (1.0 + top * (t0 + (count - 1) * dt))
        assert np.max(np.abs(np.concatenate(pure) - np.concatenate(dense))) <= bound
        for s in range(1, len(pure)):
            mixed = list(moduli(freqs, coefs, t0, dt, count, s * GRID_BLOCK * k))
            assert [list(b) for b in mixed[:s]] == pure[:s]
            assert all(np.array_equal(a, b) for a, b in zip(mixed[s:], dense[s:], strict=True))

    # the searches' grids: t = (slope l + offset) pi, slope 4 (t51, t52) or 8
    # (cocktail), offset 1 (t52) or 2/g (t51)
    @pytest.mark.parametrize("slope", [4.0, 8.0])
    @pytest.mark.parametrize("offset", [1.0, 2.0 / 3.0])
    @pytest.mark.parametrize("g, h, v, vp, w", [
        (cycle_graph(4), cycle_graph(3), 2, 0, None),
        (cocktail_party_graph(3), cycle_graph(5), 3, 0, None),
        (path_graph(3), star_graph(4), 0, 2, 1),
    ], ids=["C4*C3", "CP3*C5", "P3*S4-copy"])
    def test_grid_kernel_at_search_scale(self, slope, offset, g, h, v, vp, w):
        freqs, coefs = walk_terms(g, h, v, vp, w)
        t0, dt, count = offset * math.pi, slope * math.pi, 2 * GRID_BLOCK + 1234
        values = np.concatenate(numpy_batches(freqs, coefs, t0, dt, count))
        assert values.shape == (count,)
        picks = np.random.default_rng(5).integers(0, count, 250)
        picks = np.r_[picks, 0, GRID_BLOCK - 1, GRID_BLOCK, 2 * GRID_BLOCK, count - 2, count - 1]
        explicit = np.abs(exp_sum(freqs, coefs, t0 + picks * dt))
        top = float(np.max(np.abs(freqs)))
        bound = 1e-12 * (1.0 + top * (t0 + (count - 1) * dt))
        assert np.max(np.abs(values[picks] - explicit)) <= bound

    def test_grid_kernel_memory_is_below_the_batch_table(self):
        # one K x GRID_BLOCK phase table of 64 terms alone takes 8 MB
        freqs, coefs = np.linspace(-8.0, 8.0, 64), np.linspace(-1.0, 1.0, 64)
        tracemalloc.start()
        try:
            for _, fids in zip(range(3), moduli(freqs, coefs, math.pi, 8 * math.pi, 10**6, 0)):
                assert fids.size == GRID_BLOCK
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_empty_grid_yields_nothing(self):
        assert list(moduli(np.ones(3), np.ones(3), 0.0, 1.0, 0, 0)) == []

    @given(corona_pairs(), st.lists(st.floats(0.0, 20.0), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_terms_match_assembled_oracle(self, case, times):
        g, h, v, vp, w = case
        terms = walk_terms(g, h, v, vp, w)
        oracle = decompose(corona_graph(g, h).adjacency())
        target = v if w is None else copy_index(g.n, v, w)
        ts = np.array(times)
        diff = exp_sum(*terms, ts) - amplitudes(oracle, vp, target, ts)
        assert np.max(np.abs(diff)) < 1e-9


def base_lifts(support, main):
    """(value, label) of each lift of the base support that reaches the base
    layer, by decreasing value."""
    lifts = [(lift.value, lift.exact) for q in support
             for lift in lift_class(q.value(), q, main) if lift.base != 0]
    return sorted(lifts, key=lambda x: -x[0])


def lifted_base_support(g, h, v):
    """The periodicity verdict at (v, 0) with the labels of the closed form's
    support it reads, and the assembled corona's exact support at v."""
    sup = closed_form(g, h)[1].support(v)
    verdict = transfer.periodicity_test(sup.exact, sup.beyond_quadratic)
    assembled = exact_decomposition(corona_graph(g, h)).support(v).exact
    return verdict, set(sup.exact), assembled


class TestSupportLift:
    def test_integer_support_with_degree_two_copies(self):
        out = base_lifts([QuadInt.from_int(1), QuadInt.from_int(-1)], regular_main(2, 3))
        assert [q for _, q in out] == [
            QuadInt(3, 1, 13),
            QuadInt(1, 1, 21),
            QuadInt(3, -1, 13),
            QuadInt(1, -1, 21),
        ]

    def test_zero_eigenvalue_contributes_only_zero(self):
        # the value-k class of base eigenvalue 0 lies on copy coordinates, so
        # the lifts that reach the base must be the assembled corona's support
        cases = [
            (path_graph(3), cycle_graph(3), 0),
            (path_graph(3), cycle_graph(3), 1),
            (star_graph(4), complete_graph(3), 1),
            (cycle_graph(4), cycle_graph(3), 0),
        ]
        for g, h, v in cases:
            base = exact_decomposition(g).support(v)
            lifted = base_lifts(base.exact, main_of(h))
            assembled_d = exact_decomposition(corona_graph(g, h))
            assembled = assembled_d.support(v)
            assert len(lifted) == len(assembled.class_indices)
            for (value, label), i, q in zip(lifted, assembled.class_indices, assembled.exact):
                assert value == pytest.approx(assembled_d.classes[i].value, abs=1e-9)
                if label is not None and q is not None:
                    assert label == q

    def test_zero_degree_square_shift(self):
        # P2's support {1, -1} over two isolated copies (r = 3): lam -> 2 lam, -lam
        verdict, lifted, assembled = lifted_base_support(path_graph(2), empty_graph(2), 0)
        expected = {QuadInt.from_int(x) for x in (2, 1, -1, -2)}
        assert lifted == expected == set(assembled)
        assert verdict == transfer.periodicity_test(expected)
        assert verdict.case == "all-integer"

    def test_quadratic_multiples_scale(self):
        # the centre of P3 has support {sqrt2, -sqrt2}
        verdict, lifted, assembled = lifted_base_support(path_graph(3), empty_graph(2), 1)
        expected = {QuadInt(0, 4, 2), QuadInt(0, 2, 2), QuadInt(0, -2, 2), QuadInt(0, -4, 2)}
        assert lifted == expected == set(assembled)
        assert verdict == transfer.periodicity_test(expected)
        assert (verdict.case, verdict.delta) == ("quadratic", 2)

    def test_coincident_lifts_are_one_support_value(self):
        # C6's support {2, 1, -1, -2} over two isolated copies: 2 and -2 arise
        # twice (from 1 and -2, and from -1 and 2)
        verdict, lifted, assembled = lifted_base_support(cycle_graph(6), empty_graph(2), 0)
        assert lifted == {QuadInt.from_int(x) for x in (4, 2, 1, -1, -2, -4)} == set(assembled)
        assert verdict == transfer.periodicity_test(assembled)
        assert verdict.periodic == "yes"


_FAMILY_FACTORS = ("path:2", "path:3", "path:4", "path:5", "path:6", "cycle:3", "cycle:4",
                   "cycle:5", "cycle:6", "star:3", "star:4", "star:5", "complete:2",
                   "complete:3", "complete:4", "empty:1", "empty:2", "empty:3")


class TestDegreeFlag:
    def test_lifts_of_a_non_square_discriminant_are_flagged(self):
        # over 3-cycle copies (-1 + sqrt(5))/2 has 4D = 102 - 34 sqrt(5), no
        # square in Q(sqrt(5)); (1 + sqrt(5))/2 lifts to (7 + sqrt(5))/2 and -1
        main = regular_main(2, 3)
        flagged = lift_class(0.0, QuadInt(-1, 1, 5), main)
        assert [(l.exact, l.beyond_quadratic) for l in flagged] == [(None, True)] * 2
        quadratic = lift_class(0.0, QuadInt(1, 1, 5), main)
        assert [(l.exact, l.beyond_quadratic) for l in quadratic] == [
            (QuadInt(7, 1, 5), False), (QuadInt.from_int(-1), False)]

    @pytest.mark.parametrize("label, main", [
        (QuadInt.from_int(1), regular_main(2, 3)),  # an integer lifts to quadratics
        (None, regular_main(2, 3)),  # a float class: nothing is known
        # over the irregular K_{1,3} (1 + sqrt(5))/2 lifts to (3 + 3 sqrt(5))/2,
        # -1 and -sqrt(5)
        (QuadInt(1, 1, 5), main_of(star_graph(4))),
    ], ids=["integer", "unlabelled", "irregular-h"])
    def test_nothing_else_is_flagged(self, label, main):
        assert not any(l.beyond_quadratic for l in lift_class(math.sqrt(2), label, main))

    def test_float_classes_carry_no_flag(self, tmp_path):
        # P4 as a file leaf, unlabelled: its lifts take no label and no flag
        path = tmp_path / "p4.edges"
        path.write_text(write_edge_list(path_graph(4)))
        d = _decomposition(parse_graph_spec(f"corona(file:{path},cycle:3)"))
        assert not any(c.beyond_quadratic or c.exact for c in d.classes)

    def test_copy_classes_inherit_the_flag(self):
        # the copy factor corona(path:4,cycle:3) has four flagged classes, none
        # of them main: each survives in the two copies of the outer corona
        h = _decomposition(parse_graph_spec("corona(path:4,cycle:3)"), labelled=True)
        d = _decomposition(parse_graph_spec("corona(path:2,corona(path:4,cycle:3))"),
                           labelled=True)
        # them main: each survives in the two copies of the outer corona; the
        # outer lifts of +-1 over that irregular H are flagged on their own
        inner = [c.value for c in h.classes if c.beyond_quadratic]
        copies = [c.value for c in d.classes if c.beyond_quadratic and c.multiplicity == 2]
        lifts = [c for c in d.classes if c.beyond_quadratic and c.multiplicity != 2]
        assert len(inner) == 4 and copies == inner
        assert len(lifts) == 8 and all(c.multiplicity == 1 for c in lifts)

    @pytest.mark.parametrize("first, second, merged", [
        ((QuadInt.from_int(1), False), (QuadInt.from_int(1), False), (QuadInt.from_int(1), False)),
        ((QuadInt.from_int(1), False), (None, False), (None, False)),
        ((None, True), (None, True), (None, True)),
        ((None, True), (None, False), (None, False)),
    ], ids=["shared-label", "one-unlabelled", "shared-flag", "one-unflagged"])
    def test_a_merged_class_keeps_what_every_member_carries(self, first, second, merged):
        raw = [SimpleNamespace(value=1.0 + 1e-12 * i, exact=exact, beyond_quadratic=flag)
               for i, (exact, flag) in enumerate((first, second))]
        ((run, *c),) = merge_runs(raw, 1e-8)
        assert (*c, len(run)) == (*merged, 2)

    def test_every_label_lies_on_its_class_at_the_widest_grouping(self):
        # at --group-tol 1e-2, 20 of these coronas merged an eigenvalue
        # 0.006-0.056 away from a member's label into its class, which kept
        # the label, e.g. 2.43861813930342 with (2 + 2 sqrt(2))/2 in P5 * K2
        worst = 0.0
        for g, h in itertools.product(_FAMILY_FACTORS, repeat=2):
            spec = parse_graph_spec(f"corona({g},{h})")
            a = build_graph(spec, {}).adjacency()
            d = _decomposition(spec, 1e-2, labelled=True)
            for i, c in enumerate(d.classes):
                if c.exact is not None:
                    # an orthonormal basis of the class: the projector's eigenvectors of 1
                    weights, vectors = np.linalg.eigh(projector(d, i))
                    basis = vectors[:, weights > 0.5]
                    assert basis.shape[1] == c.multiplicity
                    values = np.linalg.eigvalsh(basis.T @ a @ basis)
                    worst = max(worst, float(np.max(np.abs(values - c.exact.value()))))
        assert worst < 1e-9


def assert_flags_agree_with_search(spec, seen, group_tol=DEFAULT_GROUP_TOL):
    """Every lift over spec's factors that lift_class flags lies outside each
    factor of degree <= 2 of its lift polynomial that the float-free search
    (`small_factors`) finds, and every label's doubled minimal polynomial is
    one of them; (label, copy) pairs in seen are skipped.  Returns the number
    of flags checked."""
    main, flags = _decomposition(spec).main, 0
    for c in _decomposition(spec.factors[0], group_tol, labelled=True).classes:
        if c.exact is None or (c.exact, spec.factors[1]) in seen:
            continue
        seen.add((c.exact, spec.factors[1]))
        lifts = lift_class(c.value, c.exact, main)
        small = small_factors(lift_polynomial(c.exact, main))
        roots = [r for f in small for r in np.roots([float(x) for x in f])]
        for lift in lifts:
            if lift.beyond_quadratic:
                flags += 1
                assert min((abs(2 * lift.value - r) for r in roots), default=1.0) > 1e-6, (
                    str(spec), c.exact, lift.value)
            q = lift.exact
            if q is not None:
                assert ((1, -q.a) if q.is_rational_integer
                        else (1, -2 * q.a, q.a * q.a - q.b * q.b * q.delta)) in small
    return flags


_CENSUS_BASES = ([f"path:{n}" for n in range(2, 7)] + [f"cycle:{n}" for n in range(3, 8)]
                 + [f"star:{n}" for n in range(3, 7)] + [f"complete:{n}" for n in range(2, 6)]
                 + ["cocktail:2", "cocktail:3"])
_CENSUS_COPIES = ("path:2", "path:3", "path:4", "cycle:3", "cycle:4", "complete:4", "empty:1",
                  "empty:2", "star:3")


class TestLiftPolynomial:
    def test_census_of_small_coronas(self):
        """`pst` on every vertex pair of 180 small coronas, from the labelled
        engine: the degree flags over irregular copy factors decide 9,312
        pairs that stayed `Inconclusive`, and the lifts of the unlabelled
        values of cycle:7 and path:6, of degree 3, the last 5,340; every
        other reason keeps its count."""
        counts: dict = {}
        for g, h in itertools.product(_CENSUS_BASES, _CENSUS_COPIES):
            d = _decomposition(parse_graph_spec(f"corona({g},{h})"), labelled=True)
            for u, v in itertools.combinations(range(d.n), 2):
                cert = transfer.pst_certify(d, u, v)
                key = (cert.verdict, cert.failure_reason)
                counts[key] = counts.get(key, 0) + 1
        assert counts == {
            ("NoPST", "support value of degree > 2"): 19600,
            ("NoPST", "not strongly cospectral"): 8831,
            ("NoPST", "support not quadratic"): 220,
            ("NoPST", "2-adic sign pattern fails"): 59,
        }

    def test_flags_agree_with_the_integer_search(self):
        seen: set = set()
        flags = 0
        pairs = itertools.chain(itertools.product(_CENSUS_BASES, _CENSUS_COPIES),
                                itertools.product(_FAMILY_FACTORS, repeat=2))
        for g, h in pairs:
            spec = parse_graph_spec(f"corona({g},{h})")
            flags += assert_flags_agree_with_search(spec, seen)
        assert flags > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_flags_over_random_copy_factors_agree_with_the_integer_search(self, seed, tmp_path):
        path = tmp_path / "h.edges"
        path.write_text(write_edge_list(random_irregular_graph(40, seed)))
        flags = sum(assert_flags_agree_with_search(
            parse_graph_spec(f"corona({g},file:{path})"), set())
            for g in ("path:3", "cycle:4", "complete:3"))
        assert flags > 0
        # at --group-tol 1e-2 H's main data is still read off H at the default
        # tolerance, so the arrowhead is H's and its flags are certified too
        assert assert_flags_agree_with_search(
            parse_graph_spec(f"corona(path:3,file:{path})"), set(), 1e-2) > 0

    def test_regular_flags_are_the_square_test(self):
        # over a k-regular H the lifts of (a + b sqrt(delta))/2 have degree 4
        # exactly when 4D = P + Q sqrt(delta) is no square in Q(sqrt(delta))
        for a, b, delta, k, m in itertools.product(range(-6, 7), (-3, -2, -1, 1, 2, 3),
                                                   (2, 3, 5, 6, 7), range(4), range(1, 5)):
            q = QuadInt(a, b, delta)
            p_, q_ = (1 + 4 * m) * (a * a + b * b * delta) - 4 * k * a + 4 * k * k, \
                2 * b * ((1 + 4 * m) * a - 2 * k)
            flags = [lift.beyond_quadratic for lift in lift_class(0.0, q, regular_main(k, m))]
            assert flags == [not is_quadratic_square(p_, q_, delta)] * 2, (a, b, delta, k, m)

    def test_planted_quadratic_factors_are_labelled_and_never_flagged(self):
        # main data of six main values nu, the roots of M, that interlace the
        # roots of phi = (x^2 - 2)(x^2 - 3)(x^3 - 9x + 1) with N = (x - 1)M - phi:
        # lam = 1 lifts to the roots of phi, so Psi = 2^7 phi(y/2)
        m = [1, 1, -8, -3, 16, 1, -5]  # (x^2 - x - 1)(x^2 + x - 1)(x^2 + x - 5)
        phi = np.polymul(np.polymul([1, 0, -2], [1, 0, -3]), [1, 0, -9, 1])
        n = np.polysub(np.polymul([1, -1], m), phi)[2:]
        walks: list[int] = []  # N/M = sum_j walks[j] x^(-j-1)
        for j in range(6):
            walks.append(int(n[j]) - sum(m[i] * walks[j - i] for i in range(1, j + 1)))
        nu = np.sort(np.roots(m))
        weights = -np.polyval(phi, nu) / np.polyval(np.polyder(m), nu)
        assert np.all(weights > 0)
        main = MainData(nu, np.diag(np.sqrt(weights)), np.sqrt(weights), tuple(walks),
                        tuple(-c for c in m[:0:-1]))
        label = QuadInt.from_int(1)
        planted = np.polymul(np.polymul([1, 0, -8], [1, 0, -12]), [1, 0, -36, 8])
        assert list(lift_polynomial(label, main)) == [int(c) for c in planted]
        lifts = lift_class(1.0, label, main)
        assert [(lift.exact, lift.beyond_quadratic) for lift in lifts] == [
            (None, True), (QuadInt(0, 2, 3), False), (QuadInt(0, 2, 2), False), (None, True),
            (QuadInt(0, -2, 2), False), (QuadInt(0, -2, 3), False), (None, True)]

    def test_a_double_integer_root_is_divided_out_before_the_flags(self):
        # 0 is a main value of P9, so lam = 0 lifts to the double root 0 of
        # Psi = y M2(y) and to 2cos(pi/10), 2cos(3 pi/10) and their negatives,
        # of degree 4: the sign test runs on Psi less y^2
        main = main_of(path_graph(9))
        lifts = lift_class(0.0, QuadInt.from_int(0), main)
        assert [(lift.exact, lift.beyond_quadratic) for lift in lifts] == (
            [(None, True)] * 2 + [(QuadInt.from_int(0), False)] * 2 + [(None, True)] * 2)

    def test_an_inexact_arrowhead_flags_nothing(self):
        # a main value 1e-6 off the exact main polynomial moves the lifts of
        # (1 + sqrt(5))/2 over 3-cycle copies, (7 + sqrt(5))/2 and -1, off the
        # roots of Psi: they take no label, and no sign change of Psi
        # certifies the search, so neither is flagged
        main = regular_main(2, 3)
        lifts = lift_class(0.0, QuadInt(1, 1, 5), main._replace(values=(main.values[0] + 1e-6,)))
        assert [(lift.exact, lift.beyond_quadratic) for lift in lifts] == [(None, False)] * 2

    def test_lifts_take_labels_and_flags_without_rank(self):
        with mock.patch("coronawalk.exact.exact_rank", side_effect=AssertionError), \
                mock.patch("coronawalk.spectral.exact_rank", side_effect=AssertionError):
            for spec in ("corona(path:4,cycle:3)", "corona(path:2,path:3)",
                         "corona(cycle:5,star:4)", "corona(path:3,corona(path:4,cycle:3))"):
                d = _decomposition(parse_graph_spec(spec), labelled=True)
                assert any(c.exact is not None for c in d.classes)
                assert any(c.beyond_quadratic for c in d.classes)
