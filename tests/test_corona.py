import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coronawalk.corona import (
    CoronaSpec,
    copy_index,
    corona_entry_base_base,
    corona_entry_base_copy,
    corona_eigen_pairs,
    corona_graph,
    corona_spectral_closed_form,
    corona_support_base_vertex,
    eigen_pair,
)
from coronawalk.exact import QuadInt
from coronawalk.graphs import (
    cocktail_party_graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    make_graph,
    path_graph,
    star_graph,
)
from coronawalk.spectral import (
    decompose,
    eigenvalue_support,
    entry_amplitudes,
    exact_decomposition,
)


def closed_form(g, h):
    spec = CoronaSpec.from_graphs(g, h)
    return spec, corona_spectral_closed_form(
        spec, exact_decomposition(g), exact_decomposition(h)
    )


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
                p = eigen_pair(lam, k, m)
                assert p.lam_plus + p.lam_minus == pytest.approx(lam + k, abs=1e-9)
                assert p.lam_plus * p.lam_minus == pytest.approx(
                    lam * k - m * lam * lam, abs=1e-8
                )
                assert (p.lam_plus - k) * (p.lam_minus - k) == pytest.approx(
                    -m * lam * lam, abs=1e-8
                )

    def test_product_identities_all_pairs_of_a_decomposition(self):
        spec = CoronaSpec.from_graphs(cycle_graph(4), cycle_graph(3))
        pairs = corona_eigen_pairs(spec, exact_decomposition(cycle_graph(4)))
        k, m = 2, 3
        for p in pairs:
            lam = p.lam
            lhs1 = ((p.lam_plus - k) ** 2 + m * lam * lam) * (
                (p.lam_minus - k) ** 2 + m * lam * lam
            )
            rhs1 = m * lam * lam * p.big_lambda**2
            assert lhs1 == pytest.approx(rhs1, rel=1e-6, abs=1e-9)
            lhs2 = (p.lam_plus - k) * (p.lam_minus - k)
            assert lhs2 == pytest.approx(-m * lam * lam, rel=1e-6, abs=1e-9)

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
        p = eigen_pair(lam, k, m)
        big = p.big_lambda
        total = 0j
        for value, s in ((p.lam_plus, 1), (p.lam_minus, -1)):
            w = (value - k) ** 2 / ((value - k) ** 2 + m * lam * lam)
            total += np.exp(-1j * s * t * big / 2.0) * w
        expected = math.cos(t * big / 2) - 1j * ((lam - k) / big) * math.sin(
            t * big / 2
        )
        assert abs(total - expected) < 1e-9


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
        assert np.allclose(d.values(), expected, atol=1e-9)
        assert [c.multiplicity for c in d.classes] == [1, 1, 1, 4, 1]
        assert d.classes[0].exact == QuadInt(3, 1, 13)
        assert d.classes[1].exact == QuadInt(1, 1, 21)
        assert d.classes[2].exact == QuadInt(3, -1, 13)

    def test_zero_branch_contributes_k_and_zero(self):
        _, d = closed_form(path_graph(3), cycle_graph(3))
        values = d.values()
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
        spec, d = closed_form(g, h)
        a = corona_graph(g, h).adjacency().astype(float)
        assert np.max(np.abs(d.matrix() - a)) < 1e-8
        total = sum(c.projector for c in d.classes)
        assert np.max(np.abs(total - np.eye(d.n))) < 1e-9
        assert sum(c.multiplicity for c in d.classes) == d.n

    def test_transition_agrees_with_numeric_oracle(self):
        g, h = path_graph(2), cycle_graph(3)
        spec, d = closed_form(g, h)
        oracle = decompose(corona_graph(g, h).adjacency())
        rng = np.random.default_rng(7)
        for t in rng.uniform(0, 10, size=10):
            lhs = np.array(
                [[complex(entry_amplitudes(d, i, j, t)) for j in range(d.n)]
                 for i in range(d.n)]
            )
            rhs = np.array(
                [[complex(entry_amplitudes(oracle, i, j, t)) for j in range(d.n)]
                 for i in range(d.n)]
            )
            assert np.max(np.abs(lhs - rhs)) < 1e-7

    def test_copy_only_classes_have_zero_base_blocks(self):
        g, h = path_graph(3), complete_graph(4)
        spec, d = closed_form(g, h)
        hd = exact_decomposition(h)
        h_only = {
            round(c.value, 9) for c in hd.classes if abs(c.value - 3) > 1e-9
        }
        pair_values = set()
        for c in exact_decomposition(g).classes:
            p = eigen_pair(c.value, 3, 4)
            pair_values.add(round(p.lam_plus, 9))
            pair_values.add(round(p.lam_minus, 9))
        for c in d.classes:
            if round(c.value, 9) in h_only and round(c.value, 9) not in pair_values:
                assert np.max(np.abs(c.projector[: g.n, :])) == 0.0

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

    def test_requires_regular_copy_factor(self):
        g, h = path_graph(2), path_graph(3)
        spec = CoronaSpec.from_graphs(g, h)
        assert spec.k is None
        with pytest.raises(ValueError):
            corona_spectral_closed_form(
                spec, exact_decomposition(g), decompose(h.adjacency())
            )

    def test_requires_connected_copy_factor(self):
        g, h = path_graph(2), empty_graph(2)
        spec = CoronaSpec.from_graphs(g, h)
        with pytest.raises(ValueError):
            corona_spectral_closed_form(
                spec, exact_decomposition(g), exact_decomposition(h)
            )

    def test_disconnected_base_reconstructs(self):
        g, h = empty_graph(2), cycle_graph(3)
        spec = CoronaSpec.from_graphs(g, h)
        d = corona_spectral_closed_form(
            spec, exact_decomposition(g), exact_decomposition(h)
        )
        a = corona_graph(g, h).adjacency().astype(float)
        assert np.max(np.abs(d.matrix() - a)) < 1e-8

    def test_merges_collisions_with_copy_eigenvalues(self):
        # complete base: eigenvalue -1 collides with the copy factor's -1
        g, h = complete_graph(3), complete_graph(4)
        spec, d = closed_form(g, h)
        minus_one = [c for c in d.classes if abs(c.value + 1.0) < 1e-8]
        assert len(minus_one) == 1
        a = corona_graph(g, h).adjacency().astype(float)
        assert np.max(np.abs(d.matrix() - a)) < 1e-8

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
        spec = CoronaSpec.from_graphs(g, h)
        closed = corona_spectral_closed_form(
            spec, decompose(g.adjacency()), decompose(h.adjacency())
        )
        a = corona_graph(g, h).adjacency().astype(float)
        assert np.max(np.abs(closed.matrix() - a)) < 1e-8
        oracle = decompose(a)
        for t in rng.uniform(0.0, 10.0, size=10):
            lhs = np.array(
                [[complex(entry_amplitudes(closed, i, j, t)) for j in range(closed.n)]
                 for i in range(closed.n)]
            )
            rhs = np.array(
                [[complex(entry_amplitudes(oracle, i, j, t)) for j in range(closed.n)]
                 for i in range(closed.n)]
            )
            assert np.max(np.abs(lhs - rhs)) < 1e-7


class TestEntries:
    def test_base_base_at_zero_is_kronecker(self):
        g, h = path_graph(3), cycle_graph(3)
        spec = CoronaSpec.from_graphs(g, h)
        gd = exact_decomposition(g)
        for v in range(3):
            for vp in range(3):
                val = corona_entry_base_base(spec, gd, v, vp, 0.0)
                assert val == pytest.approx(1.0 if v == vp else 0.0, abs=1e-12)

    def test_base_copy_at_zero_vanishes(self):
        g, h = path_graph(3), cycle_graph(3)
        spec = CoronaSpec.from_graphs(g, h)
        gd = exact_decomposition(g)
        assert corona_entry_base_copy(spec, gd, 0, 2, 1, 0.0) == pytest.approx(0.0)

    @pytest.mark.parametrize(
        "g,h",
        [(path_graph(2), cycle_graph(3)), (path_graph(3), cycle_graph(3))],
        ids=["p2c3", "p3c3"],
    )
    def test_entries_match_assembled_oracle(self, g, h):
        spec = CoronaSpec.from_graphs(g, h)
        gd = exact_decomposition(g)
        oracle = decompose(corona_graph(g, h).adjacency())
        rng = np.random.default_rng(11)
        ts = rng.uniform(0, 20, size=25)
        n, m = g.n, h.n
        for v in range(n):
            for vp in range(n):
                lhs = corona_entry_base_base(spec, gd, v, vp, ts)
                rhs = entry_amplitudes(oracle, v, vp, ts)
                assert np.max(np.abs(lhs - rhs)) < 1e-7
                for w in range(m):
                    lhs2 = corona_entry_base_copy(spec, gd, vp, v, w, ts)
                    rhs2 = entry_amplitudes(oracle, vp, copy_index(n, v, w), ts)
                    assert np.max(np.abs(lhs2 - rhs2)) < 1e-7

    def test_base_copy_independent_of_copy_vertex(self):
        g, h = path_graph(2), cycle_graph(3)
        spec = CoronaSpec.from_graphs(g, h)
        gd = exact_decomposition(g)
        ts = np.linspace(0.0, 9.0, 20)
        reference = corona_entry_base_copy(spec, gd, 0, 1, 0, ts)
        for w in (1, 2):
            other = corona_entry_base_copy(spec, gd, 0, 1, w, ts)
            assert np.max(np.abs(other - reference)) < 1e-10

    def test_degenerate_zero_gap_for_zero_degree(self):
        # base eigenvalue 0 with a 0-regular copy factor hits Lambda = 0
        g, h = path_graph(3), empty_graph(1)
        spec = CoronaSpec.from_graphs(g, h)
        gd = exact_decomposition(g)
        oracle = decompose(corona_graph(g, h).adjacency())
        for t in (0.9, 3.7):
            lhs = corona_entry_base_base(spec, gd, 0, 0, t)
            rhs = complex(entry_amplitudes(oracle, 0, 0, t))
            assert abs(lhs - rhs) < 1e-9

    def test_integral_spectrum_revival(self):
        # every corona eigenvalue of the 2-path with two isolated-vertex
        # copies is an integer, so the walk revives fully at t = 2 pi
        g, h = path_graph(2), empty_graph(2)
        spec = CoronaSpec.from_graphs(g, h)
        gd = exact_decomposition(g)
        val = corona_entry_base_base(spec, gd, 0, 0, 2 * math.pi)
        assert abs(val) == pytest.approx(1.0, abs=1e-12)


class TestSupportLift:
    def test_integer_support_with_degree_two_copies(self):
        out = corona_support_base_vertex([QuadInt.from_int(1), QuadInt.from_int(-1)], 2, 3)
        assert out == [
            QuadInt(3, 1, 13),
            QuadInt(1, 1, 21),
            QuadInt(3, -1, 13),
            QuadInt(1, -1, 21),
        ]

    def test_zero_eigenvalue_contributes_only_zero(self):
        # the value-k class of base eigenvalue 0 lies on copy coordinates, so
        # the lifted support must equal the assembled corona's support
        cases = [
            (path_graph(3), cycle_graph(3), 0),
            (path_graph(3), cycle_graph(3), 1),
            (star_graph(4), complete_graph(3), 1),
            (cycle_graph(4), cycle_graph(3), 0),
        ]
        for g, h, v in cases:
            base = eigenvalue_support(exact_decomposition(g), v)
            lifted = corona_support_base_vertex(list(base.exact), h.is_regular(), h.n)
            assembled = eigenvalue_support(exact_decomposition(corona_graph(g, h)), v)
            assert len(lifted) == len(assembled)
            for x, value, q in zip(lifted, assembled.values, assembled.exact):
                got = x.value() if isinstance(x, QuadInt) else x
                assert got == pytest.approx(value, abs=1e-9)
                if isinstance(x, QuadInt) and q is not None:
                    assert x == q

    def test_zero_degree_square_shift(self):
        out = corona_support_base_vertex(
            [QuadInt.from_int(1), QuadInt.from_int(-1)], 0, 2
        )
        assert out == [
            QuadInt.from_int(2),
            QuadInt.from_int(1),
            QuadInt.from_int(-1),
            QuadInt.from_int(-2),
        ]

    def test_quadratic_multiples_scale(self):
        out = corona_support_base_vertex([QuadInt(0, 2, 2), QuadInt(0, -2, 2)], 0, 2)
        assert out == [
            QuadInt(0, 4, 2),
            QuadInt(0, 2, 2),
            QuadInt(0, -2, 2),
            QuadInt(0, -4, 2),
        ]

    def test_inexact_fallback_is_float(self):
        out = corona_support_base_vertex([QuadInt(0, 2, 2)], 2, 3)
        assert all(isinstance(x, float) for x in out)
        lam = math.sqrt(2)
        big = math.sqrt((lam - 2) ** 2 + 12 * lam * lam)
        assert out[0] == pytest.approx((lam + 2 + big) / 2)
