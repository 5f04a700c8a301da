import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coronawalk import spectral
from coronawalk.exact import QuadInt
from coronawalk.graphs import (
    cocktail_party_graph,
    complete_graph,
    cycle_graph,
    make_graph,
    path_graph,
    star_graph,
)
from coronawalk.spectral import (
    attach_exact_labels,
    decompose,
    exact_decomposition,
    symmetric_eigen,
)

from oracles import amplitudes, fidelity, projector, reassemble, transition_matrix


def random_graph(rng, n):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
    return make_graph(n, edges)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return make_graph(n, [p for p, k in zip(pairs, keep) if k])


class TestSymmetricEigen:
    def test_two_path(self):
        w, v = symmetric_eigen([[0, 1], [1, 0]])
        assert np.allclose(w, [-1, 1])
        assert np.allclose(v @ v.T, np.eye(2), atol=1e-12)

    def test_diagonal_fixed_point(self):
        m = np.diag([3.0, -1.0, 2.0])
        w, v = symmetric_eigen(m)
        assert np.allclose(w, [-1, 2, 3])
        assert np.allclose(np.abs(v), np.eye(3)[:, [1, 2, 0]], atol=1e-12)

    def test_cycle4_spectrum(self):
        w, _ = symmetric_eigen(cycle_graph(4).adjacency())
        assert np.allclose(np.sort(w), [-2, 0, 0, 2], atol=1e-10)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_lapack_on_random_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        n = rng.integers(2, 13)
        m = rng.normal(size=(n, n))
        m = m + m.T
        w, v = symmetric_eigen(m)
        assert np.allclose(w, np.linalg.eigvalsh(m), atol=1e-9)
        assert np.max(np.abs(v.T @ v - np.eye(n))) < 1e-9
        assert np.max(np.abs(v @ np.diag(w) @ v.T - m)) < 1e-9

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            symmetric_eigen([[0, 1], [0, 0]])
        with pytest.raises(ValueError):
            symmetric_eigen(np.zeros((0, 0)))
        with pytest.raises(ValueError):
            symmetric_eigen([[0, 1, 0]])


class TestDecompose:
    def test_cycle4_classes(self):
        d = decompose(cycle_graph(4).adjacency())
        assert [c.multiplicity for c in d.classes] == [1, 2, 1]
        assert np.allclose([c.value for c in d.classes], [2, 0, -2], atol=1e-10)

    def test_zero_matrix_single_class(self):
        d = decompose(np.zeros((4, 4)))
        assert len(d.classes) == 1
        assert d.classes[0].multiplicity == 4
        assert np.allclose(projector(d, 0), np.eye(4))

    def test_cocktail3_classes(self):
        d = decompose(cocktail_party_graph(3).adjacency())
        assert np.allclose([c.value for c in d.classes], [4, 0, -2], atol=1e-9)
        assert [c.multiplicity for c in d.classes] == [1, 3, 2]

    @pytest.mark.parametrize("seed", range(8))
    def test_projector_algebra(self, seed):
        rng = np.random.default_rng(100 + seed)
        g = random_graph(rng, int(rng.integers(2, 9)))
        d = decompose(g.adjacency())
        projectors = [projector(d, i) for i in range(len(d.classes))]
        total = sum(projectors)
        assert np.max(np.abs(total - np.eye(d.n))) < 1e-9
        for i, (c, p) in enumerate(zip(d.classes, projectors)):
            assert np.max(np.abs(p @ p - p)) < 1e-9
            assert abs(np.trace(p) - c.multiplicity) < 1e-9
            for p2 in projectors[i + 1 :]:
                assert np.max(np.abs(p @ p2)) < 1e-9
        assert np.max(np.abs(reassemble(d) - g.adjacency())) < 1e-8


class TestTransition:
    def test_identity_at_zero(self):
        d = decompose(path_graph(3).adjacency())
        assert np.allclose(transition_matrix(d, 0.0), np.eye(3), atol=1e-12)

    def test_two_path_full_transfer(self):
        d = decompose(path_graph(2).adjacency())
        assert abs(transition_matrix(d, math.pi / 2)[0, 1]) == pytest.approx(1.0)

    def test_three_path_antipodal_transfer(self):
        # 2x2 block closed form gives U_{0,2}(t) = (cos(sqrt(2) t) - 1) / 2
        d = decompose(path_graph(3).adjacency())
        t = math.pi / math.sqrt(2)
        assert transition_matrix(d, t)[0, 2] == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_unitary_symmetric_group_law(self, seed):
        rng = np.random.default_rng(200 + seed)
        g = random_graph(rng, int(rng.integers(2, 9)))
        d = decompose(g.adjacency())
        t, s = rng.uniform(0, 10, size=2)
        u_t = transition_matrix(d, t)
        u_s = transition_matrix(d, s)
        assert np.max(np.abs(u_t @ u_t.conj().T - np.eye(d.n))) < 1e-8
        assert np.max(np.abs(u_t - u_t.T)) < 1e-8
        assert np.max(np.abs(transition_matrix(d, t + s) - u_t @ u_s)) < 1e-7


class TestFidelity:
    def test_self_at_zero(self):
        d = decompose(cycle_graph(5).adjacency())
        assert fidelity(d, 2, 2, 0.0) == pytest.approx(1.0)

    def test_two_path_values(self):
        d = decompose(path_graph(2).adjacency())
        assert fidelity(d, 0, 1, math.pi / 2) == pytest.approx(1.0)
        assert fidelity(d, 0, 1, math.pi / 4) == pytest.approx(math.sqrt(2) / 2)

    def test_symmetric_in_vertices(self):
        d = decompose(path_graph(4).adjacency())
        for t in (0.3, 1.7):
            assert fidelity(d, 0, 3, t) == fidelity(d, 3, 0, t)

    def test_vertex_range_checked(self):
        d = decompose(path_graph(2).adjacency())
        with pytest.raises(ValueError):
            fidelity(d, 0, 5, 1.0)

    def test_amplitudes_vectorized(self):
        d = decompose(path_graph(2).adjacency())
        ts = np.array([0.0, math.pi / 4, math.pi / 2])
        amps = amplitudes(d, 0, 1, ts)
        assert np.allclose(np.abs(amps), [0.0, math.sqrt(2) / 2, 1.0])


def support_values(d, u):
    return [d.classes[i].value for i in d.support(u).class_indices]


class TestSupport:
    def test_two_path_endpoint(self):
        d = decompose(path_graph(2).adjacency())
        assert support_values(d, 0) == [1.0, -1.0]

    def test_cycle4_all_classes(self):
        d = decompose(cycle_graph(4).adjacency())
        assert len(d.support(0).class_indices) == 3

    def test_single_vertex_graph(self):
        d = decompose(complete_graph(1).adjacency())
        assert support_values(d, 0) == [0.0]

    def test_three_path_middle_misses_zero(self):
        d = decompose(path_graph(3).adjacency())
        assert np.allclose(support_values(d, 1), [math.sqrt(2), -math.sqrt(2)])


class TestStrongCospectral:
    def test_two_path(self):
        d = decompose(path_graph(2).adjacency())
        assert d.signs(0, 1) == {0: 1, 1: -1}

    def test_three_path_endpoints(self):
        d = decompose(path_graph(3).adjacency())
        assert d.signs(0, 2) == {0: 1, 1: -1, 2: 1}

    def test_star_leaves_fail(self):
        d = decompose(star_graph(4).adjacency())
        assert d.signs(1, 2) is None

    def test_four_path_adjacent_fail(self):
        d = decompose(path_graph(4).adjacency())
        assert d.signs(0, 1) is None

    def test_same_vertex_rejected(self):
        d = decompose(path_graph(2).adjacency())
        with pytest.raises(ValueError):
            d.signs(1, 1)

    def test_classes_missing_both_vertices_are_skipped(self):
        # one edge plus an isolated vertex: the isolated vertex owns the
        # 0-class alone, so that class is skipped for the edge's endpoints
        g = make_graph(3, [(0, 1)])
        d = decompose(g.adjacency())
        signs = d.signs(0, 1)
        values = {round(d.classes[i].value): s for i, s in signs.items()}
        assert values == {1: 1, -1: -1}
        assert len(signs) == 2


class TestExactLabels:
    def test_integer_spectra(self):
        d = exact_decomposition(cycle_graph(4))
        assert [c.exact for c in d.classes] == [
            QuadInt.from_int(2),
            QuadInt.from_int(0),
            QuadInt.from_int(-2),
        ]

    def test_three_path_quadratic(self):
        d = exact_decomposition(path_graph(3))
        assert d.classes[0].exact == QuadInt(0, 2, 2)
        assert d.classes[1].exact == QuadInt.from_int(0)
        assert d.classes[2].exact == QuadInt(0, -2, 2)

    def test_four_path_golden(self):
        d = exact_decomposition(path_graph(4))
        assert [c.exact for c in d.classes] == [
            QuadInt(1, 1, 5),
            QuadInt(-1, 1, 5),
            QuadInt(1, -1, 5),
            QuadInt(-1, -1, 5),
        ]

    def test_star_mixed(self):
        d = exact_decomposition(star_graph(4))
        assert d.classes[0].exact == QuadInt(0, 2, 3)
        assert d.classes[1].exact == QuadInt.from_int(0)
        assert d.classes[2].exact == QuadInt(0, -2, 3)

    def test_cubic_irrationalities_stay_unlabeled(self):
        # the six-path spectrum 2cos(k pi / 7) is degree three over Q
        d = exact_decomposition(path_graph(6))
        assert all(c.exact is None for c in d.classes)

    @pytest.mark.parametrize("g,calls", [(path_graph(4), 2), (cycle_graph(5), 2)],
                             ids=["path4", "cycle5"])
    def test_one_rank_per_integer_class_and_per_conjugate_pair(self, monkeypatch, g, calls):
        # path:4 is two conjugate pairs; cycle:5 is the integer 2 and one pair
        recorded = []
        rank = spectral.exact_rank
        monkeypatch.setattr(spectral, "exact_rank", lambda m: recorded.append(len(m)) or rank(m))
        d = exact_decomposition(g)
        assert all(c.exact is not None for c in d.classes)
        assert recorded == [g.n] * calls

    @given(small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_labels_come_in_conjugate_pairs(self, g):
        d = exact_decomposition(g)
        for c in d.classes:
            if c.exact is None:
                continue
            assert abs(c.exact.value() - c.value) < 1e-9
            if c.exact.is_rational_integer:
                continue
            partners = [o for o in d.classes if o.exact == c.exact.conjugate()]
            assert len(partners) == 1
            assert partners[0] is not c
            assert partners[0].multiplicity == c.multiplicity

    def test_non_integer_matrix_rejected(self):
        with pytest.raises(ValueError):
            attach_exact_labels(decompose(np.eye(2) * 0.5), np.eye(2) * 0.5)

    def test_nearly_integer_matrix_rejected(self):
        # K3 with edge weights 1 +- 4e-6: np.allclose's default rtol would read
        # it as K3 and label its eigenvalue 2.0000000000036 as exact 2
        a = np.ones((3, 3)) - np.eye(3)
        a[0, 1] = a[1, 0] = 1 + 4e-6
        a[0, 2] = a[2, 0] = 1 - 4e-6
        d = decompose(a)
        assert abs(d.classes[0].value - 2) < 1e-10
        with pytest.raises(ValueError, match="integer matrix"):
            attach_exact_labels(d, a)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 2.0**63])
    def test_non_finite_or_oversized_matrix_rejected(self, bad):
        a = np.zeros((2, 2))
        a[0, 0] = bad
        with pytest.raises(ValueError, match="integer matrix"):
            attach_exact_labels(decompose(np.eye(2)), a)

    def test_integral_float_matrix_is_labelled(self):
        a = cocktail_party_graph(3).adjacency()
        d = decompose(a)
        labelled = attach_exact_labels(d, a.astype(float))
        assert [c.exact for c in labelled.classes] == [
            c.exact for c in attach_exact_labels(d, a).classes]
        assert [c.exact for c in labelled.classes] == [
            QuadInt.from_int(4), QuadInt.from_int(0), QuadInt.from_int(-2)]

    def test_object_matrix_of_floats_rejected(self):
        # exact_rank truncates with int(): the entry 1 + 1e-10 would rank as 1
        a = np.array([[1 + 1e-10, 0.0], [0.0, 3.0]])
        d = decompose(a)
        assert abs(d.classes[1].value - 1) < 1e-9
        with pytest.raises(ValueError, match="integer matrix"):
            attach_exact_labels(d, a.astype(object))
