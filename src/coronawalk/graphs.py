"""Graph families, edge-list files, corona assembly, and the checks every
analysis shares.

Vertices are always 0-indexed integers; corona-built graphs additionally
carry per-vertex labels mapping flat indices back to (base, copy) addresses.
Building a graph from a spec, corona or not, reading a spec's order or a
vertex degree off its factors (`spec_order`, `spec_degree`), the structural
tests (`Graph.is_regular`, `cocktail_antipode_map`) and the shared checks
(the dense budget, vertex ranges, distinct vertices, a regular copy factor)
need no numpy: only the array-valued methods (adjacency, degrees, BFS
distances) import it, when called, so `corona-build`, the search gates and
a degree-refuted `cospectral` never load it.
"""

from __future__ import annotations

from collections import Counter, deque
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple

from .defaults import MAX_BUILD_EDGES, MAX_BUILD_VERTICES, MAX_DIMENSION

if TYPE_CHECKING:
    import numpy as np

#: Sentinel for unreachable vertex pairs in distance matrices.
UNREACHABLE = -1


class Graph(NamedTuple("Graph", [("n", int), ("edges", frozenset), ("labels", tuple)])):
    """Simple undirected graph on n vertices with canonical (u < v) edges."""

    __slots__ = ()

    def __new__(cls, n: int, edges: frozenset[tuple[int, int]],
                labels: tuple | None = None) -> "Graph":
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < v < n):
                raise ValueError(f"edge ({u},{v}) is not canonical for n={n}")
        if labels is not None and len(labels) != n:
            raise ValueError("labels must cover every vertex")
        return super().__new__(cls, n, edges, labels)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> list[int]:
        out = []
        for a, b in self.edges:
            if a == v:
                out.append(b)
            elif b == v:
                out.append(a)
        return sorted(out)

    def adjacency(self) -> np.ndarray:
        """Symmetric 0/1 integer matrix with zero diagonal."""
        import numpy as np

        a = np.zeros((self.n, self.n), dtype=np.int64)
        for u, v in self.edges:
            a[u, v] = a[v, u] = 1
        return a

    def degrees(self) -> np.ndarray:
        import numpy as np

        ends = np.array(list(self.edges), dtype=np.int64).reshape(-1)
        return np.bincount(ends, minlength=self.n)

    def is_regular(self) -> int | None:
        """Common degree k if the graph is regular, else None."""
        counts = Counter(chain.from_iterable(self.edges))
        if len(counts) < self.n:  # a vertex of degree 0
            return None if counts else 0
        degrees = set(counts.values())
        return degrees.pop() if len(degrees) == 1 else None

    def is_connected(self) -> bool:
        return bool((self.bfs_distances(0) != UNREACHABLE).all())

    def bfs_distances(self, source: int) -> np.ndarray:
        import numpy as np

        if not 0 <= source < self.n:
            raise ValueError(f"vertex {source} out of range")
        adj = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        dist = np.full(self.n, UNREACHABLE, dtype=np.int64)
        dist[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if dist[w] == UNREACHABLE:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return dist

    def distance_matrix(self) -> np.ndarray:
        """All-pairs BFS distances; UNREACHABLE marks disconnected pairs."""
        import numpy as np

        return np.stack([self.bfs_distances(v) for v in range(self.n)])


def make_graph(n: int, edges, labels=None) -> Graph:
    """Build a Graph from any iterable of endpoint pairs, canonicalizing order."""
    canon = set()
    for u, v in edges:
        u, v = int(u), int(v)
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        canon.add((min(u, v), max(u, v)))
    return Graph(n, frozenset(canon), labels)


# ---------------------------------------------------------------------------
# named families

def path_graph(n: int) -> Graph:
    _require_size(n, "path")
    return make_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    _require_size(n, "cycle")
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    _require_size(n, "complete")
    return make_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def empty_graph(n: int) -> Graph:
    _require_size(n, "empty")
    return make_graph(n, [])


def star_graph(n: int) -> Graph:
    """Star on n vertices: center 0 joined to every leaf."""
    _require_size(n, "star")
    return make_graph(n, [(0, i) for i in range(1, n)])


def cocktail_party_graph(n: int) -> Graph:
    """Complete graph on 2n vertices minus the perfect matching {(2i, 2i+1)}."""
    _require_size(n, "cocktail")
    edges = [
        (i, j)
        for i in range(2 * n)
        for j in range(i + 1, 2 * n)
        if j != i + 1 or i % 2 != 0
    ]
    return make_graph(2 * n, edges)


def cocktail_antipode_map(g: Graph) -> list[int] | None:
    """Antipode of each vertex when g is a cocktail party graph, else None.

    On p >= 4 vertices, g is a cocktail party graph exactly when every degree
    is p - 2: each vertex then misses one other, its antipode (at distance 2
    through any third vertex), which is p(p-1)/2 - v - (sum of v's
    neighbours).  Below 4 vertices no graph has such a distance-2 partner
    for every vertex.
    """
    p = g.n
    if p < 4 or 2 * len(g.edges) != p * (p - 2):
        return None
    degree, total = [0] * p, [0] * p
    for a, b in g.edges:
        degree[a] += 1
        degree[b] += 1
        total[a] += b
        total[b] += a
    if any(d != p - 2 for d in degree):
        return None
    whole = p * (p - 1) // 2
    return [whole - v - t for v, t in enumerate(total)]


def _require_size(n: int, family: str) -> None:
    minimum = FAMILIES[family].minimum
    if n < minimum:
        raise ValueError(f"{family} family needs size >= {minimum}, got {n}")


# ---------------------------------------------------------------------------
# checks shared by the analysis modules and the search gates

def check_budget(n: int) -> None:
    """A matrix of order n is decomposed densely only within MAX_DIMENSION."""
    if n > MAX_DIMENSION:
        raise ValueError(f"dimension {n} exceeds dense budget {MAX_DIMENSION}")


def check_base_vertex(n: int, v: int) -> None:
    if not 0 <= v < n:
        raise ValueError(f"base vertex {v} out of range")


def check_copy_vertex(m: int, w: int) -> None:
    if not 0 <= w < m:
        raise ValueError(f"copy vertex {w} out of range")


def check_distinct(u: int, v: int) -> None:
    if u == v:
        raise ValueError("perfect state transfer is between distinct vertices")


def require_regular(k: int | None) -> int:
    """H's regular degree k, which must exist."""
    if k is None:
        raise ValueError("the pgst families need a regular copy factor H")
    return k


# ---------------------------------------------------------------------------
# specs

class Family(NamedTuple):
    """A named graph family: its builder on a size, its edge count on a size,
    its degree on a size where it is regular (else None) and the least size
    it takes."""

    build: Callable[[int], Graph]
    edge_count: Callable[[int], int]
    degree: Callable[[int], int | None]
    minimum: int = 1


def _at_most_an_edge(n: int) -> int | None:
    """Degree of a path or star: regular only at order 1 or 2."""
    return n - 1 if n <= 2 else None


FAMILIES = {
    "path": Family(path_graph, lambda n: n - 1, _at_most_an_edge),
    # a 1- or 2-cycle would need loops or parallel edges
    "cycle": Family(cycle_graph, lambda n: n, lambda n: 2, 3),
    "complete": Family(complete_graph, lambda n: n * (n - 1) // 2, lambda n: n - 1),
    "cocktail": Family(cocktail_party_graph, lambda n: 2 * n * (n - 1), lambda n: 2 * n - 2),
    "empty": Family(empty_graph, lambda n: 0, lambda n: 0),
    "star": Family(star_graph, lambda n: n - 1, _at_most_an_edge),
}


class GraphSpec(NamedTuple):
    """Parsed description of a graph: a named family, a file, or a corona."""

    kind: str
    size: int | None = None
    path: str | None = None
    factors: tuple["GraphSpec", "GraphSpec"] | None = None

    def __str__(self) -> str:
        if self.kind == "corona":
            return f"corona({self.factors[0]},{self.factors[1]})"
        if self.kind == "file":
            return f"file:{self.path}"
        return f"{self.kind}:{self.size}"


def build_family(spec: GraphSpec) -> Graph:
    """Materialize a family or file spec; coronas are built by build_graph."""
    if spec.kind == "file":
        return read_edge_list(spec.path)
    if spec.kind not in FAMILIES:
        raise ValueError(f"unknown graph family {spec.kind!r}")
    if spec.size is None:
        raise ValueError(f"{spec.kind} spec needs a size")
    return FAMILIES[spec.kind].build(spec.size)


def build_graph(spec: GraphSpec, built: dict[GraphSpec, Graph]) -> Graph:
    """Materialize any spec, a corona from its factors, each term built once
    and kept in `built`."""
    if spec not in built:
        built[spec] = (corona_graph(*(build_graph(f, built) for f in spec.factors))
                       if spec.kind == "corona" else build_family(spec))
    return built[spec]


def spec_order(spec: GraphSpec, built: dict[GraphSpec, Graph]) -> int:
    """Vertex count of a spec's graph, read off the spec; only a file leaf is
    built (kept in `built`, as build_graph keeps it)."""
    if spec.kind == "corona":
        n, m = (spec_order(f, built) for f in spec.factors)
        return n * (m + 1)
    if spec.kind == "file" or spec.size is None:
        return build_graph(spec, built).n
    return 2 * spec.size if spec.kind == "cocktail" else spec.size


def spec_edge_count(spec: GraphSpec, built: dict[GraphSpec, Graph]) -> int:
    """Edge count of a spec's graph, read off the spec as `spec_order` reads
    its order: the corona of G and H has |E_G|(1 + 2|V_H|) + |V_G| |E_H|
    edges (G's, each G edge to the copy vertices over both ends, and a copy
    of H per base vertex)."""
    if spec.kind == "corona":
        base, copy = spec.factors
        return (spec_edge_count(base, built) * (1 + 2 * spec_order(copy, built))
                + spec_order(base, built) * spec_edge_count(copy, built))
    if spec.kind == "file" or spec.size is None:
        return build_graph(spec, built).edge_count
    return FAMILIES[spec.kind].edge_count(spec.size)


def check_build_budget(spec: GraphSpec, built: dict[GraphSpec, Graph]) -> None:
    """A spec's graph is assembled (`corona-build`) only within
    MAX_BUILD_VERTICES and MAX_BUILD_EDGES, both read off the spec before
    any graph but a file leaf (kept in `built`) is built."""
    n = spec_order(spec, built)
    if n > MAX_BUILD_VERTICES:
        raise ValueError(f"{n} vertices exceed the build budget {MAX_BUILD_VERTICES}")
    edges = spec_edge_count(spec, built)
    if edges > MAX_BUILD_EDGES:
        raise ValueError(f"{edges} edges exceed the build budget {MAX_BUILD_EDGES}")


def spec_degree(spec: GraphSpec, built: dict[GraphSpec, Graph], v: int) -> int:
    """Degree of vertex v (in range) of a spec's graph, read off its factors:
    only leaves are built (kept in `built`), no corona is assembled.

    In the corona of G (n vertices) and H (m vertices), base vertex v sees
    its G-neighbours and their m copy vertices each, (m + 1) deg_G(v), and
    copy vertex (v, w) sees w's neighbours in its copy and v's G-neighbours,
    deg_H(w) + deg_G(v).
    """
    if spec.kind != "corona":
        return len(build_graph(spec, built).neighbors(v))
    base, copy = spec.factors
    n = spec_order(base, built)
    if v < n:
        return (spec_order(copy, built) + 1) * spec_degree(base, built, v)
    w, b = divmod(v - n, n)  # copy_index layout: v = n + w * n + b
    return spec_degree(copy, built, w) + spec_degree(base, built, b)


# ---------------------------------------------------------------------------
# corona assembly

def copy_index(n: int, v: int, w: int) -> int:
    """Flat index of copy vertex (v, w): block layout [base | w=0 | w=1 | ...]."""
    return n + w * n + v


def corona_graph(g: Graph, h: Graph) -> Graph:
    """Assemble the neighborhood corona of g and h on g.n * (h.n + 1) vertices."""
    n, m = g.n, h.n
    edges: list[tuple[int, int]] = list(g.edges)
    for w, w2 in h.edges:
        for v in range(n):
            edges.append((copy_index(n, v, w), copy_index(n, v, w2)))
    for v, v2 in g.edges:
        for w in range(m):
            # copy vertices over v see every neighbor of v, and vice versa
            edges.append((copy_index(n, v, w), v2))
            edges.append((copy_index(n, v2, w), v))
    labels = tuple(
        [("base", v) for v in range(n)]
        + [("copy", v, w) for w in range(m) for v in range(n)]
    )
    return make_graph(n * (m + 1), edges, labels)


# ---------------------------------------------------------------------------
# edge-list files

def is_decimal(text: str) -> bool:
    """Whether text is ASCII decimal digits; int() also reads '1_0', '+1', '\uff12'."""
    return text.isascii() and text.isdigit()


def read_edge_list(path: str | Path) -> Graph:
    """Load the plain edge-list format.

    First significant line holds the vertex count n; every following line is
    "u v" with 0 <= u < v < n, all in ASCII decimal digits.  '#' starts a
    comment, blank lines are skipped, duplicate edges are rejected.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ValueError(f"cannot read edge list {path}: {err}") from err
    n: int | None = None
    edges: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            if not is_decimal(line):
                raise ValueError(f"{path}:{lineno}: vertex count expected")
            n = int(line)
            if n < 1:
                raise ValueError(f"{path}:{lineno}: vertex count must be >= 1")
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'u v'")
        if not all(map(is_decimal, parts)):
            raise ValueError(f"{path}:{lineno}: expected integers")
        u, v = int(parts[0]), int(parts[1])
        if not 0 <= u < v < n:
            raise ValueError(f"{path}:{lineno}: edge ({u},{v}) needs 0 <= u < v < n")
        if (u, v) in edges:
            raise ValueError(f"{path}:{lineno}: duplicate edge ({u},{v})")
        edges.add((u, v))
    if n is None:
        raise ValueError(f"{path}: empty edge-list file")
    return Graph(n, frozenset(edges))


def write_edge_list(g: Graph) -> str:
    """Serialize a graph in the edge-list file format (with label comments)."""
    lines = [str(g.n)]
    if g.labels is not None:
        for idx, lab in enumerate(g.labels):
            lines.append(f"# vertex {idx} = {format_vertex_label(lab)}")
    for u, v in sorted(g.edges):
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def format_vertex_label(label) -> str:
    """Render a corona vertex label: base v -> (v,0), copy w of v -> (v,w{j})."""
    if label[0] == "base":
        return f"({label[1]},0)"
    return f"({label[1]},w{label[2]})"
