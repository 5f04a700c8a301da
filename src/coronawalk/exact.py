"""Exact integer and quadratic-integer arithmetic backing the certification layer.

Everything here works on plain Python integers and fractions so that the
eigenvalue certificates downstream never rest on floating point alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

# Inputs are discriminants of desk-scale graphs; anything past 128 bits means
# the caller fed us something this trial-division factorizer was not built for.
_MAX_FACTOR_INPUT = 1 << 128


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class SquareFreeSplit:
    """Decomposition n = s**2 * c with c square-free."""

    s: int
    c: int


def square_free_part(n: int) -> SquareFreeSplit:
    """Split n >= 1 as s^2 * c with c square-free, by trial division."""
    if n < 1:
        raise ValueError("square_free_part requires n >= 1")
    if n > _MAX_FACTOR_INPUT:
        raise ValueError("square_free_part input exceeds the 128-bit budget")
    s = 1
    c = 1
    rem = n
    p = 2
    while p * p <= rem:
        if rem % p == 0:
            e = 0
            while rem % p == 0:
                rem //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                c *= p
        p += 1 if p == 2 else 2
    # whatever remains is prime (or 1) with exponent 1
    return SquareFreeSplit(s, c * rem)


def p_adic_valuation(m: int | Fraction, p: int) -> int:
    """Exponent alpha with m = p^alpha * r/s and p dividing neither r nor s."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    m = Fraction(m)
    if m == 0:
        raise ValueError("p-adic valuation of 0 is undefined")
    alpha = 0
    num = abs(m.numerator)
    den = m.denominator
    while num % p == 0:
        num //= p
        alpha += 1
    while den % p == 0:
        den //= p
        alpha -= 1
    return alpha


def p_adic_norm(m: int | Fraction, p: int) -> Fraction:
    """|m|_p = p^(-alpha) for nonzero rational m and prime p."""
    alpha = p_adic_valuation(m, p)
    if alpha >= 0:
        return Fraction(1, p**alpha)
    return Fraction(p ** (-alpha))


def divisors(n: int) -> list[int]:
    """Positive divisors of |n| in increasing order; n must be nonzero."""
    n = abs(int(n))
    if n == 0:
        raise ValueError("0 has no finite divisor list")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def gcd_list(values: Iterable[int]) -> int:
    """gcd of a list of nonnegative integers; at least one must be nonzero."""
    vals = [abs(int(v)) for v in values]
    if not vals or not any(vals):
        raise ValueError("gcd_list requires at least one nonzero value")
    g = 0
    for v in vals:
        g = math.gcd(g, v)
    return g


def exact_rank(matrix: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals via fraction-free (Bareiss) elimination.

    Entries are coerced to Python ints, so the result is exact for any
    integer matrix regardless of conditioning.
    """
    rows = [[int(x) for x in row] for row in matrix]
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    if any(len(r) != nc for r in rows):
        raise ValueError("ragged matrix")
    rank = 0
    prev = 1
    for col in range(nc):
        if rank == nr:
            break
        pivot = next((r for r in range(rank, nr) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        piv = rows[rank][col]
        for r in range(rank + 1, nr):
            factor = rows[r][col]
            row_r = rows[r]
            row_p = rows[rank]
            for j in range(col, nc):
                row_r[j] = (piv * row_r[j] - factor * row_p[j]) // prev
        prev = piv
        rank += 1
    return rank


@dataclass(frozen=True)
class QuadInt:
    """Exact eigenvalue (a + b*sqrt(delta)) / 2.

    delta is positive and square-free.  Plain integers n are canonically
    stored as (2n, 0, 1), so delta == 1 forces b == 0 and a even.
    """

    a: int
    b: int
    delta: int

    def __post_init__(self) -> None:
        if self.delta < 1:
            raise ValueError("delta must be a positive integer")
        if square_free_part(self.delta).s != 1:
            raise ValueError(f"delta={self.delta} is not square-free")
        if self.delta == 1 and (self.b != 0 or self.a % 2 != 0):
            raise ValueError("rational integers must be stored as (2n, 0, 1)")

    @classmethod
    def from_int(cls, n: int) -> "QuadInt":
        return cls(2 * int(n), 0, 1)

    @classmethod
    def make(cls, a: int, b: int, disc: int) -> "QuadInt":
        """Canonicalize (a + b*sqrt(disc))/2 for any disc >= 1.

        Folds square factors of disc into b and collapses rational values
        onto the delta == 1 representation.
        """
        split = square_free_part(disc)
        a, b, delta = int(a), int(b) * split.s, split.c
        if b == 0:
            delta = 1
        if delta == 1:
            a, b = a + b, 0
            if a % 2 != 0:
                raise ValueError("value is a half-integer, not an algebraic integer")
        return cls(a, b, delta)

    def value(self) -> float:
        return (self.a + self.b * math.sqrt(self.delta)) / 2.0

    def conjugate(self) -> "QuadInt":
        return QuadInt(self.a, -self.b, self.delta)

    def scale(self, c: int) -> "QuadInt":
        """Integer multiple c * self."""
        if self.b * c == 0:
            return QuadInt.make(self.a * c, 0, 1)
        return QuadInt(self.a * c, self.b * c, self.delta)

    @property
    def is_rational_integer(self) -> bool:
        return self.delta == 1

    def as_integer(self) -> int:
        if not self.is_rational_integer:
            raise ValueError(f"{self} is irrational")
        return self.a // 2

    def __str__(self) -> str:
        if self.is_rational_integer:
            return str(self.a // 2)
        return f"({self.a}{self.b:+}*sqrt({self.delta}))/2"


def recognize_quad(
    x: float, delta_candidates: Iterable[int], tol: float
) -> QuadInt | None:
    """Recognize x as (a + b*sqrt(delta))/2 over the candidate square-free deltas.

    Searches |a|, |b| <= max(20, 4*ceil(|x|) + 8), smallest |b| first (then
    positive before negative, then smaller delta), and returns the first
    candidate within tol.  Returns None when nothing in the window fits;
    callers that need certainty must verify the result exactly, e.g. with
    exact_rank on the matrix annihilated by the recognized value.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    deltas = sorted({int(d) for d in delta_candidates})
    for d in deltas:
        if d < 1 or square_free_part(d).s != 1:
            raise ValueError(f"candidate delta {d} is not positive square-free")
    if not deltas:
        return None
    # Floor of 20 keeps small values with large coefficients (e.g. Pell-type
    # near-cancellations) inside the window.
    bound = max(20, 4 * math.ceil(abs(x)) + 8)
    for mag in range(bound + 1):
        bs = (0,) if mag == 0 else (mag, -mag)
        for b in bs:
            for d in deltas:
                if d == 1 and b != 0:
                    continue  # same values as b == 0 with shifted a
                a = round(2.0 * x - b * math.sqrt(d))
                if abs(a) > bound:
                    continue
                if d == 1 and a % 2 != 0:
                    continue  # half-integers are not adjacency eigenvalues
                if abs(x - (a + b * math.sqrt(d)) / 2.0) < tol:
                    return QuadInt(a, b, d)
    return None
