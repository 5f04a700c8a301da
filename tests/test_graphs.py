import itertools

import numpy as np
import pytest

import oracles
from coronawalk.graphs import (
    FAMILIES,
    UNREACHABLE,
    Graph,
    GraphSpec,
    build_family,
    build_graph,
    cocktail_antipode_map,
    cocktail_party_graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    make_graph,
    path_graph,
    read_edge_list,
    star_graph,
    write_edge_list,
)


def brute_edge_count_cocktail(n):
    """Oracle: edges of the complete graph on 2n vertices minus a perfect matching."""
    verts = range(2 * n)
    matching = {(2 * i, 2 * i + 1) for i in range(n)}
    return sum(
        1 for u, v in itertools.combinations(verts, 2) if (u, v) not in matching
    )


class TestFamilies:
    def test_path2(self):
        assert sorted(path_graph(2).edges) == [(0, 1)]

    def test_empty(self):
        assert empty_graph(2).edge_count == 0
        assert empty_graph(3).adjacency().tolist() == np.zeros((3, 3)).tolist()

    def test_cocktail3(self):
        g = cocktail_party_graph(3)
        assert g.n == 6
        assert g.edge_count == brute_edge_count_cocktail(3) == 12
        assert g.is_regular() == 4

    def test_cycle4_row_sums(self):
        rows = cycle_graph(4).adjacency().sum(axis=1)
        assert (rows == 2).all()

    def test_star_is_one_center_many_leaves(self):
        g = star_graph(4)
        assert sorted(g.edges) == [(0, 1), (0, 2), (0, 3)]

    def test_complete(self):
        assert complete_graph(4).edge_count == 6
        assert complete_graph(1).edge_count == 0

    def test_size_validation(self):
        with pytest.raises(ValueError):
            path_graph(0)
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_deterministic(self):
        spec = GraphSpec("cocktail", size=4)
        assert build_family(spec).edges == build_family(spec).edges


class TestAdjacency:
    @pytest.mark.parametrize(
        "g",
        [path_graph(5), cycle_graph(6), cocktail_party_graph(3), star_graph(5)],
        ids=["path", "cycle", "cocktail", "star"],
    )
    def test_symmetric_binary_zero_diagonal(self, g):
        a = g.adjacency()
        assert (a == a.T).all()
        assert set(np.unique(a)) <= {0, 1}
        assert (np.diag(a) == 0).all()

    def test_path2_matrix(self):
        assert path_graph(2).adjacency().tolist() == [[0, 1], [1, 0]]


class TestRegularityConnectivity:
    def test_is_regular(self):
        assert cycle_graph(5).is_regular() == 2
        assert path_graph(3).is_regular() is None
        assert cocktail_party_graph(3).is_regular() == 4

    def test_is_connected(self):
        assert path_graph(4).is_connected()
        assert not empty_graph(2).is_connected()
        corona = build_graph(
            GraphSpec(
                "corona",
                factors=(GraphSpec("path", 2), GraphSpec("cycle", 3)),
            ), {}
        )
        assert corona.is_connected()


class TestDistances:
    def test_path3(self):
        assert path_graph(3).distance_matrix()[0, 2] == 2

    def test_empty_pair_unreachable(self):
        assert empty_graph(2).distance_matrix()[0, 1] == UNREACHABLE

    def test_cocktail_antipodes_at_distance_two(self):
        g = cocktail_party_graph(3)
        dist = g.distance_matrix()
        for u in range(6):
            for v in range(6):
                if u == v:
                    assert dist[u, v] == 0
                elif v == u ^ 1:
                    assert dist[u, v] == 2
                else:
                    assert dist[u, v] == 1

    def test_antipode_map(self):
        assert cocktail_antipode_map(cocktail_party_graph(3)) == [1, 0, 3, 2, 5, 4]
        assert cocktail_antipode_map(path_graph(4)) is None
        # the 2-person cocktail party is the 4-cycle
        assert cocktail_antipode_map(cycle_graph(4)) == [2, 3, 0, 1]

    def test_antipode_map_matches_distance_definition(self):
        # cocktail party: every off-diagonal distance is 1 except one
        # distance-2 partner per vertex; checked on every labeled graph
        for n in range(1, 6):
            pairs = list(itertools.combinations(range(n), 2))
            for keep in itertools.product((False, True), repeat=len(pairs)):
                g = make_graph(n, [p for p, k in zip(pairs, keep) if k])
                dist = g.distance_matrix()
                far = [[u for u in range(n) if u != v and dist[v, u] != 1]
                       for v in range(n)]
                ok = n % 2 == 0 and all(len(f) == 1 and dist[v, f[0]] == 2
                                        for v, f in enumerate(far))
                assert cocktail_antipode_map(g) == ([f[0] for f in far] if ok else None)


def _relabelled(g: Graph, perm) -> Graph:
    return make_graph(g.n, [(perm[a], perm[b]) for a, b in g.edges])


def _random_graph(rng, n: int) -> Graph:
    p = rng.choice([0.2, 0.5, 0.9])
    return make_graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])


def _cocktail_neighbours(n: int, seed: int) -> list[Graph]:
    """cocktail:n relabelled, with one edge removed and with one non-edge added."""
    rng = np.random.default_rng(seed)
    g = _relabelled(cocktail_party_graph(n), [int(x) for x in rng.permutation(2 * n)])
    edges = sorted(g.edges)
    missing = sorted(set(itertools.combinations(range(2 * n), 2)) - g.edges)
    drop = edges[rng.integers(len(edges))]
    add = missing[rng.integers(len(missing))]
    return [g, make_graph(2 * n, g.edges - {drop}), make_graph(2 * n, g.edges | {add})]


class TestStructureMatchesNumpyOracles:
    """`Graph.is_regular` and `cocktail_antipode_map` count degrees in pure
    Python; they agree with the numpy forms in `oracles`."""

    @staticmethod
    def check(g: Graph) -> None:
        assert g.is_regular() == oracles.is_regular(g)
        assert cocktail_antipode_map(g) == oracles.cocktail_antipode_map(g)

    @pytest.mark.parametrize("kind", list(FAMILIES))
    def test_family_leaves(self, kind):
        for size in range(FAMILIES[kind].minimum, 13):
            self.check(build_family(GraphSpec(kind, size)))

    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_random_graphs(self, seed):
        rng = np.random.default_rng(900 + seed)
        for _ in range(25):
            self.check(_random_graph(rng, int(rng.integers(1, 13))))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_cocktail_relabelled_and_one_edge_off(self, n):
        for seed in range(6):
            g, removed, added = _cocktail_neighbours(n, 100 * n + seed)
            for h in (g, removed, added):
                self.check(h)
            antipode = cocktail_antipode_map(g)
            assert antipode is not None and g.is_regular() == 2 * n - 2
            assert all(antipode[antipode[v]] == v != antipode[v] for v in range(2 * n))
            assert all((min(v, antipode[v]), max(v, antipode[v])) not in g.edges
                       for v in range(2 * n))
            assert cocktail_antipode_map(removed) is None
            assert cocktail_antipode_map(added) is None
            assert removed.is_regular() is None and added.is_regular() is None


class TestGraphValidation:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            make_graph(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            make_graph(2, [(0, 2)])

    def test_canonicalizes_orientation(self):
        g = make_graph(3, [(2, 0), (0, 2)])
        assert g.edges == frozenset({(0, 2)})

    def test_non_canonical_direct_construction_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, frozenset({(2, 0)}))


class TestEdgeListFiles:
    def test_roundtrip(self, tmp_path):
        g = cocktail_party_graph(2)
        path = tmp_path / "g.edges"
        path.write_text(write_edge_list(g), encoding="utf-8")
        loaded = read_edge_list(path)
        assert loaded.n == g.n and loaded.edges == g.edges

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("# a graph\n\n3\n0 1  # inline\n\n1 2\n", encoding="utf-8")
        g = read_edge_list(path)
        assert sorted(g.edges) == [(0, 1), (1, 2)]

    @pytest.mark.parametrize(
        "content",
        ["3\n0 1\n0 1\n", "3\n1 0\n", "3\n0 3\n", "3\n0\n", "0\n", "", "x\n"],
        ids=["dup", "order", "range", "arity", "zero-n", "empty", "bad-n"],
    )
    def test_malformed_rejected(self, tmp_path, content):
        path = tmp_path / "bad.edges"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(ValueError):
            read_edge_list(path)

    @pytest.mark.parametrize(
        "content, message",
        [("1_0\n", "1: vertex count expected"), ("\uff13\n", "1: vertex count expected"),
         ("+3\n", "1: vertex count expected"), ("3\n0 1\n1 2_0\n", "3: expected integers"),
         ("3\n0 \uff12\n", "2: expected integers"), ("3\n+0 1\n", "2: expected integers"),
         ("3\n0 -1\n", "2: expected integers")],
        ids=["count-underscore", "count-fullwidth", "count-plus", "edge-underscore",
             "edge-fullwidth", "edge-plus", "edge-minus"],
    )
    def test_numbers_are_ascii_decimal(self, tmp_path, content, message):
        # int() reads each of these tokens
        path = tmp_path / "bad.edges"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(ValueError) as err:
            read_edge_list(path)
        assert str(err.value) == f"{path}:{message}"

    def test_unreadable_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            read_edge_list(tmp_path / "missing.edges")
