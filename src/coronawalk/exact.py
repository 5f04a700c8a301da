"""Exact integer and quadratic-integer arithmetic backing the certification layer.

Everything here works on plain Python integers so that the
eigenvalue certificates downstream never rest on floating point alone; the
one float reader, `_pair_label`, proposes a quadratic label that its caller
then verifies exactly.  No numpy.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Sequence

# a class value this close to an integer or to a pair's QuadInt is tried by rank,
# or by exact division of a lift polynomial (`corona.lift_class`)
_VALUE_TOL = 1e-9
# a candidate conjugate pair's sum and squared gap lie this close to integers
_PAIR_TOL = 1e-6

# edge and vertex visits a closed-walk comparison may spend: at most about
# 7 ms on a 2-CPU x86-64 host, well under the numpy import it can spare
_WALK_WORK = 1 << 16

# Inputs are discriminants of desk-scale graphs; anything past 128 bits means
# the caller fed us something this trial-division factorizer was not built for.
_MAX_FACTOR_INPUT = 1 << 128


class SquareFreeSplit(NamedTuple):
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


def main_polynomial(
    edges: Iterable[tuple[int, int]], n: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Walk counts and main polynomial of the graph on n vertices with these edges.

    The Krylov relation of the all-ones vector (`krylov`): the walk counts
    walks[j] = 1^T A^j 1 for j < s and the coefs of A^s 1 = sum_j coefs[j]
    A^j 1.
    """
    vectors, coefs = krylov(_neighbours(edges, n), [1] * n)
    return tuple(sum(vec) for vec in vectors), coefs


def krylov(rows: list[Callable], start: Sequence[int],
           limit: int | None = None) -> tuple[list[list[int]], tuple[int, ...]] | None:
    """The Krylov vectors x, Ax, ..., A^(s-1) x of x = start and the coefs
    of the first dependency A^s x = sum_j coefs[j] A^j x (j < s), A the
    adjacency matrix whose `_neighbours` are rows and x an integer vector;
    None where s would pass `limit`.

    Each vector is eliminated against the earlier ones, fraction-free with
    gcd normalisation, in Python ints.  The relation is the minimal
    polynomial x^s - sum_j coefs[j] x^j of x (Wiedemann 1986 for Krylov
    minimal polynomials), a monic factor of A's integer characteristic
    polynomial, so its coefficients are integers by Gauss's lemma; for A
    symmetric its roots are the eigenvalues whose projectors do not kill x.
    """
    vec = [int(c) for c in start]
    basis: list[tuple[int, list[int], list[int]]] = []  # pivot, row, row's Krylov combination
    vectors: list[list[int]] = []
    while True:
        row, combo = vec, [0] * len(vectors) + [1]
        for pivot, b_row, b_combo in basis:
            f, g = b_row[pivot], row[pivot]
            if g:
                row = [f * x - g * y for x, y in zip(row, b_row)]
                combo = [f * x for x in combo]
                for j, y in enumerate(b_combo):
                    combo[j] -= g * y
        pivot = next((i for i, x in enumerate(row) if x), None)
        if pivot is None:
            lead, coefs = combo[-1], []
            for c in combo[:-1]:
                q, r = divmod(-c, lead)
                if r:
                    raise ArithmeticError(f"Krylov coefficient {-c}/{lead} is no integer")
                coefs.append(q)
            return vectors, tuple(coefs)
        if limit is not None and len(vectors) == limit:
            return None
        d = math.gcd(*row, *combo)
        basis.append((pivot, [x // d for x in row], [x // d for x in combo]))
        vectors.append(vec)
        vec = _times_adjacency(rows, vec)


def _divide_out(poly, divisor) -> tuple[int, list[int]]:
    """How many times a monic divisor divides poly, and the quotient by that
    power, by synthetic division; coefficients highest first."""
    count, d = 0, len(divisor) - 1
    while True:
        out = list(poly)
        for i in range(len(out) - d):
            for j in range(1, d + 1):
                out[i + j] -= out[i] * divisor[j]
        if len(out) <= d or any(out[-d:]):
            return count, poly
        count, poly = count + 1, out[:-d]


def _neighbours(edges: Iterable[tuple[int, int]], n: int) -> list[Callable]:
    """Per vertex of the graph on n vertices with these edges, a getter of
    its neighbours' entries of a vector, made once for many products."""
    rows: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        rows[a].append(b)
        rows[b].append(a)
    # itemgetter of one index gives the entry itself, not a tuple
    return [itemgetter(*r) if len(r) > 1 else lambda vec, r=r: [vec[i] for i in r]
            for r in rows]


def _times_adjacency(rows: list[Callable], vec: list[int]) -> list[int]:
    """A vec, A the adjacency matrix whose `_neighbours` are rows."""
    return [sum(get(vec)) for get in rows]


def closed_walk_witness(edges: Iterable[tuple[int, int]], n: int, u: int, v: int) -> int | None:
    """The least j < n with (A^j)_uu != (A^j)_vv, A the adjacency matrix of
    the graph on n vertices with these edges, in Python ints; None where
    there is none, or none within _WALK_WORK.

    Strongly cospectral vertices are cospectral, with equal closed-walk
    counts at every length (Godsil & Smith, "Strongly cospectral vertices",
    2017), and by Cayley-Hamilton the lengths below n decide every length.
    With x_i = A^i e_u, (A^2i)_uu = x_i . x_i and (A^(2i+1))_uu = x_i .
    x_(i+1), so one product of x_i, and one of y_i = A^i e_v, give two.
    """
    edges, pair = list(edges), [[int(w == z) for w in range(n)] for z in (u, v)]
    rows = None
    for j in range(1, n):
        if j % 2:  # the (j + 1)/2-th two products and two dot products
            if (j + 1) * (len(edges) + n) > _WALK_WORK:
                return None
            rows = rows or _neighbours(edges, n)
            ahead = [_times_adjacency(rows, x) for x in pair]
            walks = [sum(p * q for p, q in zip(x, y)) for x, y in zip(pair, ahead)]
            pair = ahead
        else:
            walks = [sum(p * p for p in x) for x in pair]
        if walks[0] != walks[1]:
            return j
    return None


class QuadInt(NamedTuple("QuadInt", [("a", int), ("b", int), ("delta", int)])):
    """Exact eigenvalue (a + b*sqrt(delta)) / 2.

    delta is positive and square-free.  Plain integers n are canonically
    stored as (2n, 0, 1), so delta == 1 forces b == 0 and a even.
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int, delta: int) -> "QuadInt":
        if delta < 1:
            raise ValueError("delta must be a positive integer")
        if square_free_part(delta).s != 1:
            raise ValueError(f"delta={delta} is not square-free")
        if delta == 1 and (b != 0 or a % 2 != 0):
            raise ValueError("rational integers must be stored as (2n, 0, 1)")
        return super().__new__(cls, a, b, delta)

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


def _pair_label(x: float, y: float) -> QuadInt | None:
    """The label (a +- s*sqrt(c))/2 of x, the sign that of x - y, with a = x + y
    and s^2 c = (x - y)^2, c > 1."""
    a, sq = round(x + y), round((x - y) ** 2)
    if abs(x + y - a) > _PAIR_TOL or abs((x - y) ** 2 - sq) > _PAIR_TOL or sq < 1:
        return None
    split = square_free_part(sq)
    if split.c == 1 or (a * a - sq) % 4:
        return None
    q = QuadInt(a, split.s if x > y else -split.s, split.c)
    return q if abs(x - q.value()) < _VALUE_TOL else None
