import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coronawalk import exact as exact_module
from coronawalk.exact import (
    QuadInt,
    closed_walk_witness,
    exact_rank,
    gcd_list,
    main_polynomial,
    square_free_part,
    two_adic_valuation,
)
from coronawalk.graphs import (
    FAMILIES,
    cocktail_party_graph,
    corona_graph,
    cycle_graph,
    make_graph,
    path_graph,
)
from coronawalk.spectral import decompose

from oracles import is_quadratic_square, quad_int


def brute_square_split(n):
    """Oracle: largest s with s^2 dividing n, found by descending scan."""
    s = math.isqrt(n)
    while n % (s * s):
        s -= 1
    return s, n // (s * s)


def brute_is_square_free(c):
    return all(c % (p * p) for p in range(2, math.isqrt(c) + 1))


class TestSquareFreePart:
    @pytest.mark.parametrize("n,s,c", [(18, 3, 2), (1, 1, 1), (52, 2, 13)])
    def test_examples(self, n, s, c):
        assert brute_square_split(n) == (s, c)
        split = square_free_part(n)
        assert (split.s, split.c) == (s, c)

    @given(st.integers(1, 10**6))
    def test_reconstructs_and_square_free(self, n):
        split = square_free_part(n)
        assert split.s**2 * split.c == n
        assert brute_is_square_free(split.c)

    def test_rejects_zero_and_oversize(self):
        with pytest.raises(ValueError):
            square_free_part(0)
        with pytest.raises(ValueError):
            square_free_part(1 << 200)


class TestQuadraticSquare:
    @pytest.mark.parametrize("delta", [2, 3, 5, 6, 7, 10])
    def test_matches_brute_force(self, delta):
        # every (x + y sqrt(delta))^2 with x, y in Z/(4 delta) and an integer
        # p = x^2 + delta y^2 <= 40, q = 2xy; |q| <= p/sqrt(delta) < 30
        den, p_max = 4 * delta, 40
        x_max, y_max = math.isqrt(p_max * den * den), math.isqrt(p_max * den * den // delta)
        squares = set()
        for x in range(-x_max, x_max + 1):
            for y in range(-y_max, y_max + 1):
                p, p_rem = divmod(x * x + delta * y * y, den * den)
                q, q_rem = divmod(2 * x * y, den * den)
                if not p_rem and not q_rem and p <= p_max:
                    squares.add((p, q))
        assert {(1, 0), (delta, 0)} <= squares  # q = 0, from y = 0 and from x = 0
        for p in range(-3, p_max + 1):
            for q in range(-30, 31):
                assert is_quadratic_square(p, q, delta) == ((p, q) in squares), (p, q)

    def test_zero_irrational_part(self):
        # q = 0: p itself a square (y = 0) or delta times one (x = 0)
        assert is_quadratic_square(9, 0, 2) and is_quadratic_square(18, 0, 2)
        assert is_quadratic_square(0, 0, 3)
        assert not is_quadratic_square(3, 0, 2) and not is_quadratic_square(6, 0, 5)

    def test_norm_square_is_not_enough(self):
        # 102 - 34 sqrt(5) has norm 68^2, yet neither 2 * 170 nor 2 * 34 is a square
        assert not is_quadratic_square(102, -34, 5)
        assert is_quadratic_square(86, 18, 5)  # (9 + sqrt(5))^2


class TestPAdicNorm:
    """The 2-adic norm |m|_2 = 2^(-v_2(m)) of the PST sign test, read through
    two_adic_valuation."""

    @pytest.mark.parametrize(
        "m,expected",
        [(12, Fraction(1, 4)), (5, Fraction(1)), (-96, Fraction(1, 32)),
         (40, Fraction(1, 8))],
    )
    def test_examples(self, m, expected):
        assert Fraction(2) ** -two_adic_valuation(m) == expected

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            two_adic_valuation(0)

    @given(st.integers(-(10**6), 10**6).filter(bool),
           st.integers(-(10**6), 10**6).filter(bool))
    def test_multiplicative(self, m1, m2):
        # the norm is multiplicative exactly when the valuation is additive
        v1, v2 = two_adic_valuation(m1), two_adic_valuation(m2)
        assert two_adic_valuation(m1 * m2) == v1 + v2

    @given(st.integers(-(10**30), 10**30).filter(bool))
    def test_matches_repeated_halving(self, m):
        alpha, rest = 0, m
        while rest % 2 == 0:
            rest //= 2
            alpha += 1
        assert two_adic_valuation(m) == alpha

    def test_valuation_sign(self):
        assert two_adic_valuation(-12) == 2
        assert two_adic_valuation(-1) == 0


class TestGcdList:
    @pytest.mark.parametrize(
        "values,expected", [([0, 2], 2), ([1, 2], 1), ([4, 6, 10], 2)]
    )
    def test_examples(self, values, expected):
        assert gcd_list(values) == expected

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            gcd_list([0, 0])
        with pytest.raises(ValueError):
            gcd_list([])


class TestExactRank:
    def test_examples(self):
        assert exact_rank([[0, 0], [0, 0]]) == 0
        # adjacency of the two-path minus its eigenvalue 1
        assert exact_rank([[-1, 1], [1, -1]]) == 1
        assert exact_rank(np.eye(3, dtype=int)) == 3

    def test_rectangular(self):
        assert exact_rank([[1, 2, 3], [2, 4, 6]]) == 1

    @given(
        st.integers(1, 8),
        st.integers(1, 8),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=80)
    def test_matches_floating_point_rank(self, nr, nc, seed):
        rng = np.random.default_rng(seed)
        m = rng.integers(-3, 4, size=(nr, nc))
        assert exact_rank(m) == np.linalg.matrix_rank(m.astype(float))


def krylov(g, count, start=None):
    """The first `count` Krylov vectors x, Ax, A^2 x, ... of g, in Python ints,
    x = start or the all-ones vector."""
    vecs = [[1] * g.n if start is None else list(start)]
    while len(vecs) < count:
        vec = [0] * g.n
        for a, b in g.edges:
            vec[a] += vecs[-1][b]
            vec[b] += vecs[-1][a]
        vecs.append(vec)
    return vecs


def rounded_main_polynomial(g):
    """The main polynomial rounded from the float main eigenvalues, as it was
    computed before the exact Krylov relation: s from the rank of the Krylov
    vectors, coefficients from numpy's poly of the s classes with the largest
    ||P_mu 1||; None where the rounding fails its exact check."""
    classes = decompose(g.adjacency()).classes
    vecs = krylov(g, len(classes) + 1)
    s = exact_rank(vecs)
    sums = [c.vectors.sum(axis=0) for c in classes]
    main = sorted(range(len(classes)), key=lambda i: -(sums[i] @ sums[i]))[:s]
    coefs = tuple(-int(round(p)) for p in np.poly([classes[i].value for i in main])[:0:-1])
    if any(sum(c * vec[i] for c, vec in zip(coefs, vecs)) != vecs[s][i] for i in range(g.n)):
        return None
    return tuple(sum(vec) for vec in vecs[:s]), coefs


def seeded_graph(seed):
    """A seeded random graph: G(n, p), a circulant (regular), a disjoint union
    of two G(n, p) or a G(n, p) with isolated vertices, by seed % 4."""
    rng = np.random.default_rng(seed)
    kind, n = seed % 4, int(rng.integers(1, 11))

    def gnp(size, offset=0):
        p = rng.choice([0.2, 0.5, 0.8])
        return [(offset + i, offset + j) for i in range(size) for j in range(i + 1, size)
                if rng.random() < p]

    if kind == 1:
        steps = {int(d) for d in rng.integers(1, n // 2 + 1, size=2)} if n > 2 else set()
        return make_graph(n, {tuple(sorted((i, (i + d) % n))) for i in range(n) for d in steps
                              if (i + d) % n != i})
    if kind == 2:
        n2 = int(rng.integers(1, 8))
        return make_graph(n + n2, gnp(n) + gnp(n2, n))
    return make_graph(n + 3 * (kind == 3), gnp(n))


def vertex_starts(g):
    """Start vectors e_u and e_u +- e_v on a few vertices of g, in Python ints."""
    unit = [[int(w == u) for w in range(g.n)] for u in range(min(g.n, 3))]
    return unit + [[x + s * y for x, y in zip(unit[0], e)] for e in unit[1:] for s in (1, -1)]


LEAVES = {f"{name}:{size}": family.build(size) for name, family in FAMILIES.items()
          for size in range(family.minimum, 9)}
# every 25th corona of two leaves on at most 24 vertices, and one nested corona
CORONAS = [corona_graph(g, h) for g in LEAVES.values() for h in LEAVES.values()
           if g.n * (h.n + 1) <= 24][::25]
CORONAS.append(corona_graph(path_graph(3), corona_graph(path_graph(2), path_graph(3))))


class TestMainPolynomial:
    def check(self, g):
        walks, coefs = main_polynomial(g.edges, g.n)
        s = len(coefs)
        vecs = krylov(g, g.n + 1)
        assert s == len(walks) == exact_rank(vecs)
        assert [sum(c * vec[i] for c, vec in zip(coefs, vecs)) for i in range(g.n)] == vecs[s]
        assert walks == tuple(sum(vec) for vec in vecs[:s])
        reference = rounded_main_polynomial(g)
        assert reference is None or reference == (walks, coefs)
        for start in vertex_starts(g):
            self.check_start(g, start)

    def check_start(self, g, start):
        """exact.krylov from start: degree the rank of the Krylov matrix, its
        vectors the matrix's rows, the relation exact, and None at any
        limit below the degree."""
        rows = exact_module._neighbours(g.edges, g.n)
        vectors, coefs = exact_module.krylov(rows, start)
        s = len(coefs)
        vecs = krylov(g, g.n + 1, start)
        assert s == len(vectors) == exact_rank(vecs) == exact_rank(vecs[:s])
        assert vectors == vecs[:s]
        assert [sum(c * vec[i] for c, vec in zip(coefs, vecs)) for i in range(g.n)] == vecs[s]
        assert exact_module.krylov(rows, start, s) == (vectors, coefs)
        assert exact_module.krylov(rows, start, s - 1) is None

    def test_examples(self):
        # P_3: A1 = (1, 2, 1) and A^2 1 = (2, 2, 2) = 2 * 1, walks 3 and 4
        assert main_polynomial([(0, 1), (1, 2)], 3) == ((3, 4), (2, 0))
        # the star K_{1,3}: A1 = (3, 1, 1, 1) and A^2 1 = 3 * 1
        assert main_polynomial([(0, 1), (0, 2), (0, 3)], 4) == ((4, 6), (3, 0))
        assert main_polynomial([], 2) == ((2,), (0,))

    @pytest.mark.parametrize("leaf", LEAVES)
    def test_family_leaves(self, leaf):
        self.check(LEAVES[leaf])

    @pytest.mark.parametrize("seed", range(40))
    def test_seeded_random_graphs(self, seed):
        self.check(seeded_graph(seed))

    @pytest.mark.parametrize("index", range(len(CORONAS)))
    def test_assembled_coronas(self, index):
        self.check(CORONAS[index])

    @pytest.mark.parametrize("n", [9, 60])
    def test_long_paths_keep_the_rounded_coefficients(self, n):
        # s = 30 at n = 60: the rounded route still passed its check there
        assert rounded_main_polynomial(path_graph(n)) is not None
        self.check(path_graph(n))


def walk_test_graph(kind: str, size: int, seed: int):
    """A graph the closed-walk test reads, its vertices permuted by seed, and
    its pair that an automorphism swaps: G(n, p) with no such pair, a path
    with its mirror pair, a cycle, a cocktail party graph or a hypercube
    with an antipodal pair."""
    rng = np.random.default_rng(seed)
    if kind == "gnp":
        n = size + 1
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
        pair = None
    elif kind == "path":
        n, edges = size + 1, list(path_graph(size + 1).edges)
        pair = (0, n - 1)
    elif kind == "cycle":
        n, edges = 2 * size + 2, list(cycle_graph(2 * size + 2).edges)
        pair = (0, size + 1)
    elif kind == "cocktail":
        n, edges = 2 * size, list(cocktail_party_graph(size).edges)
        pair = (0, 1)
    else:
        d = min(size, 4)
        n = 2**d
        edges = [(a, a ^ (1 << b)) for a in range(n) for b in range(d) if a < a ^ (1 << b)]
        pair = (0, n - 1)
    perm = rng.permutation(n).tolist()
    g = make_graph(n, [tuple(sorted((perm[a], perm[b]))) for a, b in edges])
    return g, None if pair is None else (perm[pair[0]], perm[pair[1]])


class TestClosedWalkWitness:
    @staticmethod
    def first_difference(g, u, v):
        """The least j < n with (A^j)_uu != (A^j)_vv, by integer matrix powers."""
        a = g.adjacency().astype(object)
        power = a
        for j in range(1, g.n):
            if power[u, u] != power[v, v]:
                return j
            power = power @ a
        return None

    def test_examples(self):
        # P6: vertices 1 and 2 have degree 2, but 5 and 6 closed walks of length 4
        edges = list(path_graph(6).edges)
        assert closed_walk_witness(edges, 6, 1, 2) == 4
        assert closed_walk_witness(edges, 6, 0, 1) == 2
        assert closed_walk_witness(edges, 6, 1, 4) is None  # the mirror pair
        assert closed_walk_witness(edges, 1, 0, 0) is None

    @given(st.sampled_from(["gnp", "path", "cycle", "cocktail", "hypercube"]),
           st.integers(1, 9), st.integers(0, 2**16), st.booleans(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_a_witness_never_refutes_a_strongly_cospectral_pair(self, kind, size, seed,
                                                                 swapped, data):
        """Over seeded G(n, p), permuted paths, cycles, cocktail party graphs
        and hypercubes, on the pair an automorphism swaps or on any pair: the
        witness is the least length whose closed-walk counts differ, and
        where it exists the eigensolve finds the pair not strongly
        cospectral."""
        g, pair = walk_test_graph(kind, size, seed)
        if pair is None or not swapped:
            u = data.draw(st.integers(0, g.n - 1))
            v = data.draw(st.integers(0, g.n - 1).filter(lambda x: x != u or g.n == 1))
        else:
            u, v = pair
        witness = closed_walk_witness(g.edges, g.n, u, v)
        assert witness == self.first_difference(g, u, v)
        if u != v and decompose(g.adjacency()).signs(u, v) is not None:
            assert witness is None
        if pair is not None and swapped:
            assert witness is None

    def test_the_work_bound_hands_over(self, monkeypatch):
        # vertices 28 and 30 of P_60 first differ at length 58, after 29
        # products of each vector; a bound of one product stops at length 2
        edges = list(path_graph(60).edges)
        assert closed_walk_witness(edges, 60, 28, 30) == 58
        monkeypatch.setattr(exact_module, "_WALK_WORK", 2 * (59 + 60))
        assert closed_walk_witness(edges, 60, 0, 1) == 2
        assert closed_walk_witness(edges, 60, 28, 30) is None


class TestQuadInt:
    def test_from_int_and_value(self):
        q = QuadInt.from_int(3)
        assert (q.a, q.b, q.delta) == (6, 0, 1)
        assert q.value() == 3.0
        assert q.as_integer() == 3

    # the canonical form of the exact pair-lift reference in oracles.py
    def test_make_folds_square_factors(self):
        q = quad_int(3, 1, 52)  # sqrt(52) = 2*sqrt(13)
        assert (q.a, q.b, q.delta) == (3, 2, 13)

    def test_make_collapses_rationals(self):
        assert quad_int(3, 1, 9) == QuadInt.from_int(3)  # (3 + 3)/2
        with pytest.raises(ValueError):
            quad_int(3, 0, 1)  # 3/2 is not an algebraic integer

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            QuadInt(1, 1, 12)  # 12 is not square-free
        with pytest.raises(ValueError):
            QuadInt(2, 1, 1)  # delta 1 forces b = 0
        with pytest.raises(ValueError):
            QuadInt(3, 0, 1)  # delta 1 forces a even

    def test_conjugate(self):
        assert QuadInt(3, -1, 13).conjugate() == QuadInt(3, 1, 13)

