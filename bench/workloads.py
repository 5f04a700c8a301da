"""Seeded workload generation: invocation lists of `coronawalk` CLI calls.

Each workload is a fixed ladder of slots.  A slot fixes the command kind,
the graph size and the cost class of its invocation; the seed only picks
what does not change that character (vertices, times, targets, a vertex
relabelling, the edges of a random graph of fixed order and size, or a copy
factor from a menu of equal-cost choices).  So every seed yields the same
count per command kind and the same size ladder.

Graphs are kept as small trees that both the spec text and the oracle read:

    ("family", kind, size) | ("file", name, n, edges) | ("corona", G, H)
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("dense", "search", "startup")

# pgst early-stop menu: (copy factor, target) pairs that reach the target
# within the first 8192-value chunk of ell, so each costs one chunk.
_EARLY = {
    "path:2": [("cycle:3", 0.99), ("cycle:3", 0.999), ("cycle:3", 0.9999),
               ("cycle:5", 0.99), ("cycle:5", 0.9999), ("complete:2", 0.999),
               ("complete:4", 0.99), ("complete:4", 0.9999), ("complete:5", 0.999)],
    "cycle:4": [("cycle:5", 0.99), ("cycle:5", 0.999), ("cycle:6", 0.99),
                ("cycle:6", 0.9999), ("complete:5", 0.999), ("complete:5", 0.9999)],
    "cocktail:3": [("cycle:4", 0.99), ("cycle:6", 0.999), ("complete:2", 0.99),
                   ("complete:4", 0.999), ("complete:5", 0.9999), ("cocktail:3", 0.999)],
    "cocktail:5": [("cycle:4", 0.999), ("cycle:5", 0.9999), ("cycle:6", 0.9999),
                   ("complete:2", 0.999), ("complete:4", 0.999), ("cocktail:3", 0.9999)],
    "cocktail:7": [("cycle:4", 0.9999), ("cycle:5", 0.9999), ("cycle:6", 0.999),
                   ("complete:2", 0.9999), ("complete:5", 0.9999), ("cocktail:3", 0.999)],
    "q3": [("complete:4", 0.99), ("complete:4", 0.999), ("complete:5", 0.99)],
}
_TARGETS = (0.99, 0.999, 0.9999)
_SCAN_COPIES = ("cycle:3", "cycle:4", "cycle:5", "complete:3", "complete:4", "cocktail:2")


@dataclass(frozen=True)
class Invocation:
    """One CLI call: argv after `coronawalk`, expected exit code, oracle data."""

    command: str
    argv: tuple[str, ...]
    expect_exit: int = 0
    graph: tuple | None = None
    cap: float | None = None  # proven fidelity cap of a capped pgst instance


@dataclass
class Workload:
    name: str
    seed: int
    invocations: list[Invocation]
    files: dict[str, str]  # relative path -> edge-list text
    # calls that fail the oracle through a known program defect: kept out of
    # the timed traffic, run once after the clock and reported, not counted
    known_defects: list[Invocation] = field(default_factory=list)

    def listing(self) -> str:
        """Canonical text of the invocation list (byte-identical per seed)."""
        lines = [f"{inv.expect_exit} {inv.command} " + " ".join(inv.argv)
                 for inv in self.invocations]
        for path in sorted(self.files):
            lines.append(f"file {path} {self.files[path]!r}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# graph trees

def fam(kind: str, size: int) -> tuple:
    return ("family", kind, size)


def corona(g: tuple, h: tuple) -> tuple:
    return ("corona", g, h)


def parse_simple(text: str) -> tuple:
    kind, size = text.split(":")
    return fam(kind, int(size))


def family_edges(kind: str, n: int) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and edges of a named family (written independently of the package)."""
    if kind == "path":
        return n, [(i, i + 1) for i in range(n - 1)]
    if kind == "cycle":
        return n, [(i, (i + 1) % n) for i in range(n)]
    if kind == "complete":
        return n, [(i, j) for i in range(n) for j in range(i + 1, n)]
    if kind == "empty":
        return n, []
    if kind == "star":
        return n, [(0, i) for i in range(1, n)]
    if kind == "cocktail":
        return 2 * n, [(i, j) for i in range(2 * n) for j in range(i + 1, 2 * n)
                       if not (i % 2 == 0 and j == i + 1)]
    raise ValueError(kind)


def hypercube3() -> tuple[int, list[tuple[int, int]]]:
    return 8, [(a, a ^ (1 << b)) for a in range(8) for b in range(3) if a < a ^ (1 << b)]


def order(tree: tuple) -> int:
    if tree[0] == "family":
        return family_edges(tree[1], tree[2])[0]
    if tree[0] == "file":
        return tree[2]
    return order(tree[1]) * (order(tree[2]) + 1)


def spec_text(tree: tuple, workdir: str) -> str:
    if tree[0] == "family":
        return f"{tree[1]}:{tree[2]}"
    if tree[0] == "file":
        return f"file:{workdir}/{tree[1]}.edges"
    return f"corona({spec_text(tree[1], workdir)},{spec_text(tree[2], workdir)})"


def edge_list_text(n: int, edges) -> str:
    canon = sorted({(min(u, v), max(u, v)) for u, v in edges})
    return f"{n}\n" + "".join(f"{u} {v}\n" for u, v in canon)


class _Builder:
    """Collects invocations and the edge-list files they reference."""

    def __init__(self, name: str, seed: int, workdir: str):
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.invocations: list[Invocation] = []
        self.known_defects: list[Invocation] = []
        self.files: dict[str, str] = {}

    def rng(self, slot: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{slot}")

    def file_graph(self, name: str, n: int, edges) -> tuple:
        canon = tuple(sorted({(min(u, v), max(u, v)) for u, v in edges}))
        self.files[f"{self.workdir}/{name}.edges"] = edge_list_text(n, canon)
        return ("file", name, n, canon)

    def permuted(self, name: str, rng: random.Random, n: int, edges) -> tuple[tuple, list[int]]:
        perm = list(range(n))
        rng.shuffle(perm)
        return self.file_graph(name, n, [(perm[u], perm[v]) for u, v in edges]), perm

    def random_graph(self, name: str, rng: random.Random, n: int, m: int) -> tuple:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        return self.file_graph(name, n, rng.sample(pairs, m))

    def add(self, command: str, tree: tuple | None, *args, expect_exit: int = 0,
            spec: str | None = None, cap: float | None = None) -> None:
        text = spec if spec is not None else spec_text(tree, self.workdir)
        argv = (command, text, *[str(a) for a in args])
        self.invocations.append(Invocation(command, argv, expect_exit, tree, cap))


def _time(rng: random.Random, lo: float, hi: float) -> str:
    return f"{rng.uniform(lo, hi):.6f}"


def _pair(rng: random.Random, n: int) -> tuple[int, int]:
    u, v = rng.sample(range(n), 2)
    return u, v


# ---------------------------------------------------------------------------
# workloads

def _dense(b: _Builder) -> None:
    """Dense numerics on 24-84 vertices: eigensolve, exact labels, sweeps."""
    # Costs are tiered so that the statistics land inside a tier, not on the
    # edge between two: most calls cost 0.3-0.5 s (the median), three cost
    # about 0.75 s and two more over 1 s.  Over the three whole passes of a
    # 35 s run, the call with ten slower ones sits among the 0.75 s calls.
    r = b.rng

    # slot 0 is the warm-up call of set-up, so it is a light one
    b.add("spectrum", corona(fam("cocktail", 3), fam("cycle", 3)))       # N=24

    b.add("spectrum", corona(fam("cycle", 12), fam("cycle", 5)))          # N=72

    b.add("support", corona(fam("cycle", 14), fam("star", 5)),           # N=84
          "--u", r(16).randrange(14))

    u = r(11).randrange(13)                                               # N=65
    b.add("pst", corona(fam("cycle", 13), fam("path", 4)), "--u", u, "--v", (u + 6) % 13)

    rng = r(13)                                                           # N=65
    u, v = _pair(rng, 65)
    b.add("fidelity", corona(fam("cycle", 13), fam("complete", 4)), "--u", u, "--v", v,
          "--t", _time(rng, 0.5, 30))

    rng = r(14)                                                           # N=64
    g = b.random_graph("d14", rng, 64, 150)
    u, v = _pair(rng, 64)
    b.add("sweep", g, "--u", u, "--v", v, "--t-max", _time(rng, 10, 40), "--steps", 8000)

    rng = r(1)                                                            # N=30
    u, v = _pair(rng, 6)
    b.add("sweep", corona(fam("cycle", 6), fam("complete", 4)), "--u", u, "--v", v,
          "--t-max", _time(rng, 20, 60), "--steps", 10000)

    b.add("support", corona(fam("path", 6), fam("star", 4)),             # N=30
          "--u", r(2).randrange(30))

    rng = r(3)                                                            # N=32
    g, perm = b.permuted("d3", rng, *family_edges("cocktail", 16))
    w = rng.randrange(16)
    b.add("pst", g, "--u", perm[2 * w], "--v", perm[2 * w + 1])

    rng = r(4)                                                            # N=36
    u, v = _pair(rng, 36)
    b.add("fidelity", corona(fam("cycle", 9), fam("cycle", 3)), "--u", u, "--v", v,
          "--t", _time(rng, 0.5, 30))

    b.add("periodic", corona(fam("cycle", 8), fam("cycle", 4)),          # N=40
          "--u", r(5).randrange(8))

    b.add("spectrum", b.random_graph("d6", r(6), 40, 80))                 # N=40

    base = r(7).randrange(8)                                              # N=40
    b.add("cospectral", corona(fam("path", 8), fam("path", 4)),
          "--u", base, "--v", 7 - base)

    rng = r(8)                                                            # N=45
    u, v = _pair(rng, 9)
    b.add("sweep", corona(fam("cycle", 9), fam("complete", 4)), "--u", u, "--v", v,
          "--t-max", _time(rng, 20, 60), "--steps", 12000, "--format", "csv")

    g, _ = b.permuted("d9", r(9), *family_edges("cycle", 12))             # N=48
    b.add("spectrum", corona(g, fam("cycle", 3)))

    rng = r(10)                                                           # N=48
    b.add("support", b.random_graph("d10", rng, 48, 120), "--u", rng.randrange(48))

    rng = r(12)                                                           # N=56
    g, _ = b.permuted("d12", rng, *family_edges("path", 56))
    u, v = _pair(rng, 56)
    b.add("cospectral", g, "--u", u, "--v", v)


def _search(b: _Builder) -> None:
    """pgst searches on small bases and large no-transfer scan grids."""
    # Per pass: seven light calls (early stops, the 10^5 grid), five of middle
    # cost (3*10^5 capped sweeps, 5*10^5 grids) and six heavy ones, so the
    # median falls inside the middle tier and the tail inside the heavy one.
    r = b.rng

    def early(slot: int, base: str, fam_name: str, lmax: int) -> None:
        rng = r(slot)
        copy, target = rng.choice(_EARLY[base])
        if base == "q3":
            g, perm = b.permuted(f"s{slot}", rng, *hypercube3())
            u0 = rng.randrange(8)
            u, v = perm[u0], perm[u0 ^ 7]
        else:
            g = parse_simple(base)
            n = order(g)
            if fam_name == "t51":
                u = rng.randrange(2)
                v = 1 - u
            elif fam_name == "t52":
                u = rng.randrange(4)
                v = (u + 2) % 4
            else:
                w = rng.randrange(n // 2)
                u, v = (2 * w, 2 * w + 1) if rng.random() < 0.5 else (2 * w + 1, 2 * w)
        b.add("pgst", corona(g, parse_simple(copy)), "--u", u, "--v", v,
              "--family", fam_name, "--lmax", lmax, "--target", target)

    def capped(slot: int, base: str, fam_name: str, cap: float, lmax: int) -> None:
        rng = r(slot)
        copy = rng.choice(("cycle:3", "complete:3"))  # C3 and K3 are one graph
        n = order(parse_simple(base))
        if fam_name == "t52":
            u = rng.randrange(4)
            v = (u + 2) % 4
        else:
            w = rng.randrange(n // 2)
            u, v = 2 * w, 2 * w + 1
        b.add("pgst", corona(parse_simple(base), parse_simple(copy)), "--u", u, "--v", v,
              "--family", fam_name, "--lmax", lmax, "--target", rng.choice(_TARGETS),
              cap=cap)

    def scan(slot: int, base: tuple, points: int) -> None:
        rng = r(slot)
        n = order(base)
        t = corona(base, parse_simple(rng.choice(_SCAN_COPIES)))
        t_max = _time(rng, 20, 200)
        if slot % 2:
            v, vp = _pair(rng, n)
            b.add("no-pst-scan", t, "--pair", "base-base", "--v", v, "--vp", vp,
                  "--t-max", t_max, "--points", points)
        else:
            m = order(t[2])
            b.add("no-pst-scan", t, "--pair", "base-copy", "--v", rng.randrange(n),
                  "--vp", rng.randrange(n), "--w", rng.randrange(m),
                  "--t-max", t_max, "--points", points)

    # slot 0 is the warm-up call of set-up, so it is a light one
    early(0, "path:2", "t51", 100_000)
    # heavy tier
    capped(1, "cycle:4", "t52", 0.5, 1_000_000)
    capped(4, "cycle:4", "t52", 0.5, 1_000_000)
    scan(5, fam("cocktail", 3), 2_000_000)
    capped(7, "cocktail:7", "cocktail", 1.0 / 7.0, 1_000_000)
    q3, _ = b.permuted("s11", r(11), *hypercube3())
    scan(11, q3, 1_000_000)
    scan(15, fam("cocktail", 7), 2_000_000)
    # middle tier
    scan(8, fam("cycle", 4), 500_000)
    capped(10, "cycle:4", "t52", 0.5, 300_000)
    capped(14, "cocktail:7", "cocktail", 1.0 / 7.0, 300_000)
    capped(16, "cocktail:7", "cocktail", 1.0 / 7.0, 300_000)
    scan(17, fam("cocktail", 5), 500_000)
    # light tier
    scan(2, fam("path", 2), 100_000)
    early(3, "cocktail:3", "cocktail", 100_000)
    early(6, "cycle:4", "t52", 1_000_000)
    early(9, "cocktail:5", "cocktail", 1_000_000)
    early(12, "cocktail:7", "cocktail", 100_000)
    early(13, "q3", "t51", 100_000)
    # cocktail(3) * C3 is capped at 0: its fidelities are float noise near
    # 1e-14 that the report rounds to 15 digits, so neighbouring trace entries
    # print equal and the strict trace check fails on every seed.  A timed
    # call may not fail, so it is set aside as a known defect.
    capped(18, "cocktail:3", "cocktail", 0.0, 300_000)
    b.known_defects.append(b.invocations.pop())


_MALFORMED = ("corona(path:3", "cycle:2", "blob:4", "path:", "corona(path:2;cycle:3)",
              "corona(path:2,cycle:3))", "complete:0", "star", "corona(,path:2)")


def _startup(b: _Builder) -> None:
    """Many short calls on at most 16 vertices: start-up, parsing, reports."""
    r = b.rng
    small = ("path", "cycle", "complete", "star")

    def family_n(rng, n):
        return fam(rng.choice(small), n)

    slot = 0
    for rep in range(2):
        # slot 0 is the warm-up call of set-up
        rng = r(slot); slot += 1
        b.add("spectrum", family_n(rng, (8, 12)[rep]))
        rng = r(slot); slot += 1
        b.add("spectrum", fam("cocktail", (4, 6)[rep]))
        rng = r(slot); slot += 1
        b.add("spectrum", b.random_graph(f"u{slot}", rng, 12, 20))
        rng = r(slot); slot += 1
        g, perm = b.permuted(f"u{slot}", rng, *hypercube3())
        u0 = rng.randrange(8)
        b.add("pst", g, "--u", perm[u0], "--v", perm[u0 ^ 7])
        u = r(slot).choice((0, 2)); slot += 1
        b.add("pst", fam("path", 3), "--u", u, "--v", 2 - u)
        rng = r(slot); slot += 1
        u, v = _pair(rng, 12)
        b.add("pst", fam("cycle", 12), "--u", u, "--v", v)
        rng = r(slot); slot += 1
        t = corona(fam("path", 3), fam("cycle", 3))
        u, v = _pair(rng, 12)
        b.add("cospectral", t, "--u", u, "--v", v)
        rng = r(slot); slot += 1
        g = b.random_graph(f"u{slot}", rng, 14, 24)
        u, v = _pair(rng, 14)
        b.add("cospectral", g, "--u", u, "--v", v)
        rng = r(slot); slot += 1
        t = corona(fam("path", 4), fam("complete", 2))
        b.add("support", t, "--u", rng.randrange(12))
        rng = r(slot); slot += 1
        b.add("support", family_n(rng, 16), "--u", rng.randrange(16))
        rng = r(slot); slot += 1
        u, v = _pair(rng, 16)
        b.add("fidelity", corona(fam("cycle", 4), fam("cycle", 3)), "--u", u, "--v", v,
              "--t", _time(rng, 0.1, 20))
        rng = r(slot); slot += 1
        g = b.random_graph(f"u{slot}", rng, 10, 15)
        u, v = _pair(rng, 10)
        b.add("fidelity", g, "--u", u, "--v", v, "--t", _time(rng, 0.1, 20))
        rng = r(slot); slot += 1
        b.add("corona-build", corona(family_n(rng, 4), fam("complete", 2)),
              "--format", "text")
        rng = r(slot); slot += 1
        g, _ = b.permuted(f"u{slot}", rng, *family_edges("cycle", 5))
        b.add("corona-build", corona(g, fam("path", 2)), "--format", "text")
        rng = r(slot); slot += 1
        b.add("spectrum", None, expect_exit=1, spec=rng.choice(_MALFORMED))
        rng = r(slot); slot += 1
        b.add("support", None, "--u", 0, expect_exit=1, spec=rng.choice(_MALFORMED))
        rng = r(slot); slot += 1
        # t51 needs integer transfer time: P3 transfers at pi/sqrt(2)
        b.add("pgst", corona(fam("path", 3), parse_simple(rng.choice(("cycle:3", "complete:2")))),
              "--u", 0, "--v", 2, "--family", "t51", expect_exit=2)
        rng = r(slot); slot += 1
        # closed forms need a regular copy factor
        b.add("pgst", corona(fam("path", 2), fam(rng.choice(("path", "star")), 3)),
              "--u", 0, "--v", 1, "--family", "t51", expect_exit=2)
        rng = r(slot); slot += 1
        # the cocktail family needs an odd cocktail size
        b.add("pgst", corona(fam("cocktail", 4), parse_simple(rng.choice(("cycle:3", "complete:2")))),
              "--u", 0, "--v", 1, "--family", "cocktail", expect_exit=2)


_GENERATORS = {"dense": _dense, "search": _search, "startup": _startup}


def generate(name: str, seed: int, workdir: str) -> Workload:
    """Invocation list and input files of one workload for one seed.

    workdir is the relative directory the edge-list files are written to;
    spec texts reference files by that path.
    """
    if name not in _GENERATORS:
        raise ValueError(f"unknown workload {name!r}; use one of {WORKLOADS}")
    b = _Builder(name, seed, workdir)
    _GENERATORS[name](b)
    return Workload(name, seed, b.invocations, b.files, b.known_defects)


_SIZE_FLAGS = ("--steps", "--lmax", "--points")


def ladder(w: Workload) -> list[tuple]:
    """Per slot, what must not depend on the seed: the command, the order of
    the graph (of the base factor, for a corona) and the size flags."""
    out = []
    for inv in w.invocations:
        graph = inv.graph[1] if inv.graph and inv.graph[0] == "corona" else inv.graph
        sizes = [inv.argv[i + 1] for i, a in enumerate(inv.argv) if a in _SIZE_FLAGS]
        out.append((inv.command, order(graph) if graph else None, *sizes))
    return out
