import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coronawalk.exact import (
    QuadInt,
    exact_rank,
    gcd_list,
    square_free_part,
    two_adic_valuation,
)

from oracles import quad_int


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

