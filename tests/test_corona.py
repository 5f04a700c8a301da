import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coronawalk.cli import parse_graph_spec
from coronawalk.corona import (
    CoronaSpec,
    SpecFactors,
    copy_index,
    corona_graph,
    corona_spectral_closed_form,
    corona_support_base_vertex,
    corona_terms,
    lift_class,
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
    exp_sum,
    exp_sum_grid,
)

from oracles import (
    corona_entry_base_base,
    corona_entry_base_copy,
    lift_base_eigenvalue,
    projector,
    reassemble,
    regular_main,
    transition_matrix,
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
                plus, minus = (x.value for x in lift_class(lam, None, regular_main(k, m)))
                assert plus + minus == pytest.approx(lam + k, abs=1e-9)
                assert plus * minus == pytest.approx(
                    lam * k - m * lam * lam, abs=1e-8
                )
                assert (plus - k) * (minus - k) == pytest.approx(
                    -m * lam * lam, abs=1e-8
                )

    def test_product_identities_all_pairs_of_a_decomposition(self):
        spec = CoronaSpec.from_graphs(cycle_graph(4), cycle_graph(3))
        k, m = spec.require_regular(), spec.m
        for c in exact_decomposition(cycle_graph(4)).classes:
            lam = c.value
            plus, minus = (x.value for x in lift_class(lam, c.exact, spec.main))
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
        lifts = lift_class(lam, None, CoronaSpec.from_graphs(path_graph(1), h).main)
        cols = np.array([np.r_[x.base, x.copy] for x in lifts])
        assert np.max(np.abs(cols @ cols.T - np.eye(2))) <= 1e-15
        layer = np.block([[np.array([[lam]]), np.full((1, 3), lam)],
                          [np.full((3, 1), lam), h.adjacency()]])
        assembled = np.linalg.eigvalsh(layer)
        for x in lifts:
            assert np.min(np.abs(assembled - x.value)) < 1e-12


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
        spec, d = closed_form(g, h)
        a = corona_graph(g, h).adjacency().astype(float)
        assert np.max(np.abs(reassemble(d) - a)) < 1e-8
        total = sum(projector(c) for c in d.classes)
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
            for lift in lift_class(c.value, c.exact, spec.main):
                pair_values.add(round(lift.value, 9))
        for c in d.classes:
            if round(c.value, 9) in h_only and round(c.value, 9) not in pair_values:
                assert np.max(np.abs(projector(c)[: g.n, :])) == 0.0

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
        spec = CoronaSpec.from_graphs(g, h)
        d = corona_spectral_closed_form(
            spec, exact_decomposition(g), exact_decomposition(h)
        )
        a = corona_graph(g, h).adjacency().astype(float)
        assert np.max(np.abs(reassemble(d) - a)) < 1e-8

    def test_merges_collisions_with_copy_eigenvalues(self):
        # complete base: eigenvalue -1 collides with the copy factor's -1
        g, h = complete_graph(3), complete_graph(4)
        spec, d = closed_form(g, h)
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
        factors = SpecFactors(group_tol=1e-2)
        base = factors.decomposition(spec.factors[0])
        assert any(abs(c.value) <= 1e-2 and c.exact is None for c in base.classes)
        d = factors.decomposition(spec)
        assembled = np.linalg.eigvalsh(factors.graph(spec).adjacency().astype(float))
        labels = [c.exact for c in d.classes if c.exact is not None]
        assert labels
        for q in labels:
            assert np.min(np.abs(assembled - q.value())) < 1e-9
        for c in d.classes:
            assert np.min(np.abs(assembled - c.value)) < 1e-9

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
        assert np.max(np.abs(reassemble(closed) - a)) < 1e-8
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


class TestBlockFormat:
    @pytest.mark.parametrize("path", ["closed-form", "decompose"])
    @pytest.mark.parametrize(
        "text",
        [
            # -4 is both a lift of the base eigenvalue -2 and a copy class
            "corona(cocktail:3,cycle:3)",
            # the disconnected base puts its lam = 0 columns into the k and 0 classes
            "corona(empty:2,cycle:3)",
            "corona(corona(path:2,cycle:3),complete:3)",
        ],
        ids=["cocktail3-c3", "empty2-c3", "nested"],
    )
    def test_blocks_are_orthonormal_and_rows_give_eigh_projector(self, text, path):
        spec = parse_graph_spec(text)
        a = SpecFactors().graph(spec).adjacency().astype(float)
        d = SpecFactors().decomposition(spec) if path == "closed-form" else decompose(a)
        values, vecs = np.linalg.eigh(a)
        assert sum(c.multiplicity for c in d.classes) == d.n == len(values)
        for c in d.classes:
            v = c.vectors
            assert np.max(np.abs(v.T @ v - np.eye(c.multiplicity))) < 1e-10
            cols = vecs[:, np.abs(values - c.value) < 1e-6]
            assert cols.shape[1] == c.multiplicity
            ref = cols @ cols.T
            rows = np.array([[c.entry(u, w) for w in range(d.n)] for u in range(d.n)])
            assert np.max(np.abs(rows - ref)) < 1e-8

    def test_closed_form_memory_is_one_basis_not_a_projector_per_class(self):
        # 71 classes on 1260 vertices: dense projectors would need ~0.9 GB
        spec = parse_graph_spec("corona(cycle:60,cycle:20)")
        tracemalloc.start()
        try:
            d = SpecFactors().decomposition(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert d.n == 1260
        assert peak < 64 * 2**20


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


class TestOracleEquality:
    """The closed form equals the assembled exact decomposition class by class
    on 19 bases times 17 copy factors, 323 factor pairs."""

    @pytest.mark.parametrize("copy", ORACLE_COPIES)
    def test_closed_form_equals_assembled_exact_decomposition(self, tmp_path, copy):
        assert len(ORACLE_BASES) * len(ORACLE_COPIES) >= 200
        if copy in ORACLE_FILES:
            path = tmp_path / "h.edges"
            path.write_text(ORACLE_FILES[copy], encoding="utf-8")
            copy = f"file:{path}"
        for base in ORACLE_BASES:
            spec = parse_graph_spec(f"corona({base},{copy})")
            factors = SpecFactors()
            d = factors.decomposition(spec)
            ref = exact_decomposition(factors.graph(spec))
            assert [(c.multiplicity, c.exact) for c in d.classes] == \
                [(r.multiplicity, r.exact) for r in ref.classes], base
            assert np.allclose([c.value for c in d.classes],
                               [r.value for r in ref.classes], rtol=0, atol=1e-9), base
            for t in (0.7, 3.1):
                diff = transition_matrix(d, t) - transition_matrix(ref, t)
                assert np.max(np.abs(diff)) < 1e-8, base


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

    def test_rounding_zero_class_lifts_as_in_the_closed_form(self):
        # C4's class 0 (exact label 0) comes out of eigh as -1.1e-16
        g, h = cycle_graph(4), cycle_graph(3)
        spec, d = closed_form(g, h)
        gd = exact_decomposition(g)
        zero = next(c for c in gd.classes if c.exact == QuadInt.from_int(0))
        freqs, coefs = corona_terms(spec, gd, 1, 0)
        assert 0.0 in freqs and 2.0 in freqs
        assert np.all(freqs[np.abs(freqs) < 1e-12] == 0.0)
        assert coefs[list(freqs).index(2.0)] == 0.0
        assert coefs[list(freqs).index(0.0)] == zero.entry(0, 1)
        # the closed form lifts the same class to exactly 2 and 0, and its
        # value-2 block lies on the copies alone
        values = [c.value for c in d.classes]
        assert 2.0 in values and 0.0 in values
        assert np.all(d.classes[values.index(2.0)].vectors[: g.n] == 0.0)
        assert corona_support_base_vertex([zero.exact], spec.main) == [QuadInt.from_int(0)]

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


class TestExponentialSum:
    @given(
        corona_pairs(),
        # block sizes B with counts 1, B - 1, B, B + 1 and several blocks
        st.sampled_from([1, 2, 5, 64]).flatmap(lambda b: st.tuples(
            st.just(b), st.sampled_from([1, max(1, b - 1), b, b + 1, 3 * b + 2]))),
        st.floats(-40.0, 40.0),
        st.floats(0.0, 4.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_grid_kernel_matches_explicit_times(self, case, sizes, t0, dt):
        g, h, v, vp, w = case
        block, count = sizes
        spec = CoronaSpec.from_graphs(g, h)
        freqs, coefs = corona_terms(spec, exact_decomposition(g), vp, v, w)
        batches = list(exp_sum_grid(freqs, coefs, t0, dt, count, block))
        assert [b.size for b in batches[:-1]] == [block] * (len(batches) - 1)
        assert 1 <= batches[-1].size <= block
        grid = np.concatenate(batches)
        ts = t0 + np.arange(count) * dt
        explicit = exp_sum(freqs, coefs, ts)
        t_end = float(np.max(np.abs(ts)))
        top = float(np.max(np.abs(freqs), initial=0.0))
        assert grid.shape == (count,)
        assert np.max(np.abs(grid - explicit)) <= 1e-12 * (1.0 + top * t_end)

    @given(corona_pairs(), st.lists(st.floats(0.0, 20.0), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_terms_match_assembled_oracle(self, case, times):
        g, h, v, vp, w = case
        spec = CoronaSpec.from_graphs(g, h)
        terms = corona_terms(spec, exact_decomposition(g), vp, v, w)
        oracle = decompose(corona_graph(g, h).adjacency())
        target = v if w is None else copy_index(g.n, v, w)
        ts = np.array(times)
        diff = exp_sum(*terms, ts) - entry_amplitudes(oracle, vp, target, ts)
        assert np.max(np.abs(diff)) < 1e-9


class TestSupportLift:
    def test_integer_support_with_degree_two_copies(self):
        out = corona_support_base_vertex([QuadInt.from_int(1), QuadInt.from_int(-1)],
                                         regular_main(2, 3))
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
            lifted = corona_support_base_vertex(list(base.exact),
                                                CoronaSpec.from_graphs(g, h).main)
            assembled = eigenvalue_support(exact_decomposition(corona_graph(g, h)), v)
            assert len(lifted) == len(assembled)
            for x, value, q in zip(lifted, assembled.values, assembled.exact):
                got = x.value() if isinstance(x, QuadInt) else x
                assert got == pytest.approx(value, abs=1e-9)
                if isinstance(x, QuadInt) and q is not None:
                    assert x == q

    def test_zero_degree_square_shift(self):
        out = corona_support_base_vertex(
            [QuadInt.from_int(1), QuadInt.from_int(-1)], regular_main(0, 2)
        )
        assert out == [
            QuadInt.from_int(2),
            QuadInt.from_int(1),
            QuadInt.from_int(-1),
            QuadInt.from_int(-2),
        ]

    def test_quadratic_multiples_scale(self):
        out = corona_support_base_vertex([QuadInt(0, 2, 2), QuadInt(0, -2, 2)],
                                         regular_main(0, 2))
        assert out == [
            QuadInt(0, 4, 2),
            QuadInt(0, 2, 2),
            QuadInt(0, -2, 2),
            QuadInt(0, -4, 2),
        ]

    def test_inexact_fallback_is_float(self):
        out = corona_support_base_vertex([QuadInt(0, 2, 2)], regular_main(2, 3))
        assert all(isinstance(x, float) for x in out)
        lam = math.sqrt(2)
        big = math.sqrt((lam - 2) ** 2 + 12 * lam * lam)
        assert out[0] == pytest.approx((lam + 2 + big) / 2)
