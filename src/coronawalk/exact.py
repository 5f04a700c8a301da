"""Exact integer and quadratic-integer arithmetic backing the certification layer.

Everything here works on plain Python integers so that the
eigenvalue certificates downstream never rest on floating point alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

# Inputs are discriminants of desk-scale graphs; anything past 128 bits means
# the caller fed us something this trial-division factorizer was not built for.
_MAX_FACTOR_INPUT = 1 << 128


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


def two_adic_valuation(m: int) -> int:
    """Exponent alpha with m = 2^alpha * r, r odd; m a nonzero integer."""
    if m == 0:
        raise ValueError("2-adic valuation of 0 is undefined")
    # m & -m keeps the lowest set bit of m, in two's complement for m < 0 too
    return (m & -m).bit_length() - 1


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

    def value(self) -> float:
        return (self.a + self.b * math.sqrt(self.delta)) / 2.0

    def conjugate(self) -> "QuadInt":
        return QuadInt(self.a, -self.b, self.delta)

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
