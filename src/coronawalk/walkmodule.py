"""A vertex's walk module on a `file:` leaf: its eigenvalue support, strong
cospectrality and walk terms from Krylov vectors, exactly, where every
support value is an integer.

A is symmetric, so the support of e_u, the eigenvalues theta whose
projectors E_theta do not kill it, is the root set of the minimal
polynomial p of e_u (`exact.krylov`), square-free of degree s =
|supp(u)|, and E_theta e_u = q(A) e_u / q(theta) for q = p / (x - theta),
a combination of the Krylov vectors e_u, ..., A^(s-1) e_u (Godsil & Smith,
"Strongly cospectral vertices", 2017).  Every eigenvalue lies in [-D, D],
D the largest degree, so the support is all integers iff p divides the
product of x - theta over the integers theta of [-D, D].

`integral_module(g, u)` first refutes that cheaply: where that product
applied to e_u is not 0 modulo a prime near 2^61, some support value of u
is no integer, and it returns None at the cost of 2D + 1 sparse products.
It declines at once where those would visit more edges and vertices than
max(_MODULE_WORK, n^3/128), more than an eigensolve costs: on dense graphs
of high degree.  Otherwise it computes p exactly, from at most 2D + 1 Krylov vectors, and
labels its roots by exact division at the integers of [-D, D]; the module
is integral iff p has deg p integer roots, and None is returned where it
is not.  The `WalkModule` it returns answers `leafspectra.Decomposition`'s
vertex queries on u with no tolerance and no eigensolve:

    support   every root of p, labelled;
    signs     u and v are strongly cospectral iff the supports of e_u - e_v
              and e_u + e_v are disjoint, that is iff their minimal
              polynomials p- and p+ are coprime; then each root of p is a
              root of exactly one of them, and deg p- + deg p+ = s, which
              decides coprimality with no gcd.  A root of p+ has sign +1
              (E e_u = E e_v), a root of p- sign -1;
    entries   E_theta[u, v] = (q(A) e_u)[v] / q(theta), numerator and
              denominator in Python ints, rounded once.

So `transfer.pst_certify` and `periodicity_test` read it as they read any
decomposition, and a `pst` or `periodic` on such a vertex loads no numpy
(`cli._walk_module`).  Its classes are u's support alone, with no
multiplicity, which neither command reads; a query on another vertex is
an error.  No numpy.
"""

from __future__ import annotations

from typing import NamedTuple

from .exact import QuadInt, _divide_out, _times_adjacency, krylov
from .graphs import Graph
from .leafspectra import Atom, Decomposition

# a prime near 2^61: the refuting product is taken modulo it
_PRIME = (1 << 61) - 1
# edge and vertex visits the refutation may spend where that passes n^3/128,
# about the cost of an eigensolve (LAPACK's order n^3 flops run about a
# hundred times faster than a sparse product in Python ints): about the
# numpy import it spares, 70 ms on a 2-CPU x86-64 host
_MODULE_WORK = 1 << 19


class ModuleClass(NamedTuple):
    """A class of a walk module: an integer eigenvalue and its label."""

    value: float
    exact: QuadInt


class WalkModule(Decomposition):
    """The classes of u's eigenvalue support, integers in decreasing order,
    one atom each, its key (theta, q) with q = p / (x - theta), highest
    coefficient first; the vertex queries of the module docstring on u and
    a second vertex v, with the pair's signs made once per v."""

    __slots__ = ("n", "u", "classes", "atoms", "_edges", "_vectors", "_pairs")

    def __init__(self, edges: list[tuple[int, int]], n: int, u: int, vectors: list[list[int]],
                 roots: list[tuple[int, list[int]]]):
        self.n, self.u = n, u
        self.classes = [ModuleClass(float(t), QuadInt.from_int(t)) for t, _ in roots]
        self.atoms = [[Atom(float(t), False, (t, q))] for t, q in roots]
        self._edges, self._vectors = edges, vectors
        self._pairs: dict[int, frozenset[int] | None] = {}

    def _own(self, x: int) -> None:
        if x != self.u:
            raise ValueError(f"the walk module of vertex {self.u} answers for it alone")

    def holds(self, key, x: int, tol: float | None = None) -> bool:
        self._own(x)
        return True

    def sign(self, key, x: int, y: int, tol: float | None = None) -> int | None:
        self._own(x)
        if y not in self._pairs:
            roots = [a.key[0] for atoms in self.atoms for a in atoms]
            self._pairs[y] = _plus_roots(self._edges, self.n, x, y, roots)
        plus = self._pairs[y]
        return None if plus is None else 1 if key[0] in plus else -1

    def entry(self, key, x: int, y: int) -> float:
        self._own(x)
        theta, q = key
        top = len(q) - 1
        numerator = sum(c * self._vectors[top - i][y] for i, c in enumerate(q))
        denominator = 0
        for c in q:
            denominator = denominator * theta + c
        return numerator / denominator


def integral_module(g: Graph, u: int) -> WalkModule | None:
    """u's walk module where every support value of u is an integer, else
    None (module docstring)."""
    edges, n = list(g.edges), g.n
    degrees = [0] * n
    for a, b in edges:
        degrees[a] += 1
        degrees[b] += 1
    top = max(degrees)
    if (2 * top + 1) * (len(edges) + n) > max(_MODULE_WORK, n ** 3 // 128):
        return None
    start = x = [int(w == u) for w in range(n)]
    for theta in range(-top, top + 1):
        x = [(y - theta * z) % _PRIME for y, z in zip(_times_adjacency(edges, x), x)]
    if any(x):
        return None
    found = krylov(edges, start, 2 * top + 1)
    if found is None:
        return None
    vectors, coefs = found
    p = _monic(coefs)
    roots = []
    for theta in range(top, -top - 1, -1):
        count, q = _divide_out(p, [1, -theta])
        if count:
            roots.append((theta, q))
    return WalkModule(edges, n, u, vectors, roots) if len(roots) == len(coefs) else None


def _monic(coefs: tuple[int, ...]) -> list[int]:
    """x^s - sum_j coefs[j] x^j, highest coefficient first."""
    return [1, *(-c for c in reversed(coefs))]


def _plus_roots(edges: list[tuple[int, int]], n: int, u: int, v: int,
                roots: list[int]) -> frozenset[int] | None:
    """The roots of p with sign +1 where u and v are strongly cospectral,
    else None: p+ and p- from Krylov vectors of e_u +- e_v, each of degree
    at most s = len(roots) where they are (module docstring)."""
    polys = []
    for s in (1, -1):
        x = [0] * n
        x[u], x[v] = 1, s
        found = krylov(edges, x, len(roots))
        if found is None:
            return None
        polys.append(_monic(found[1]))
    plus, minus = polys
    if len(plus) + len(minus) - 2 != len(roots):
        return None
    held = [(t, _divide_out(plus, [1, -t])[0], _divide_out(minus, [1, -t])[0]) for t in roots]
    if any(a == b for _, a, b in held):  # square-free: each count is 0 or 1
        return None
    return frozenset(t for t, a, _ in held if a)
