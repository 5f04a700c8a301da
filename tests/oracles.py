"""Reference forms of the spectral data that tests check the package against.

The package reads an eigenvalue class through its atoms' rules and
evaluates every walk amplitude as an exponential sum over a
decomposition's walk terms (`leafspectra.Decomposition.terms`), which
`exp_sum` evaluates here term by term at any array of times.  These helpers
build the dense N x N objects of any decomposition instead, read through
its `entry` and `terms`: class projectors, the reassembled matrix and the
transition matrix U(t).  `closed_form` is the Kronecker closed form of a
corona, its classes as explicit eigenvector blocks from its factors';
`engine` builds the corona engine on factor graphs, and `search_engine`
the one a search reads, its lifts unlabelled.
It also keeps the exact algebra of the paper's pair lift for a k-regular
copy factor, which the labels `corona.lift_class` reads off its lift
polynomial must equal, with the integer square test of its degree-4 case
and a bounded integer search for the factors of degree <= 2 of a lift
polynomial, which its degree flags must agree with;
the reference report writers, which the CLI's must match byte for byte: the
canonicaliser `canon` (values rounded to 15 digits; records, complex and
numpy values made plain), a stdlib-encoder JSON writer, the `path = value`
lines of a canonical or parsed JSON report and a row-by-row CSV writer; and
the numpy forms of the structural tests that `graphs` computes in pure
Python.
"""

import json
import math

import numpy as np

from coronawalk.cli import _round15
from coronawalk.corona import lift_class, main_atoms, merge_runs
from coronawalk.coronaspectra import CoronaDecomposition
from coronawalk.defaults import DEFAULT_GROUP_TOL
from coronawalk.exact import _VALUE_TOL, QuadInt, square_free_part
from coronawalk.graphs import build_graph
from coronawalk.leafspectra import FamilyDecomposition
from coronawalk.spectral import EigenClass, SpectralDecomposition, decompose, exact_decomposition


def projector(d, i: int) -> np.ndarray:
    """Orthogonal projector onto class i of any decomposition: the sum of its
    atoms' entries."""
    xs = [d.vertex(u) for u in range(d.n)]
    return np.array([[sum(d.entry(a.key, x, y) for a in d.atoms[i]) for y in xs] for x in xs])


def _walk_matrix(d, weight) -> np.ndarray:
    """sum over the walk terms (value, E[u, v]) of weight(value) E[u, v], at
    every u and v."""
    return np.array([[sum(weight(value) * entry for value, entry in d.terms(u, v))
                      for v in range(d.n)] for u in range(d.n)])


def reassemble(d) -> np.ndarray:
    """sum(value * projector) over the walk terms of a decomposition."""
    return _walk_matrix(d, float)


def transition_matrix(d, t: float) -> np.ndarray:
    """U(t) = sum_r exp(-i t value_r) * projector_r; symmetric and unitary."""
    return _walk_matrix(d, lambda value: np.exp(-1j * t * value))


def value_degree(j: int, big_n: int) -> int:
    """Degree of 2cos(2 pi j/N) by brute force: phi(d)/2 for the reduced
    denominator d of j/N when d >= 3, else 1."""
    d = big_n // math.gcd(j, big_n)
    return sum(math.gcd(k, d) == 1 for k in range(1, d + 1)) // 2 if d >= 3 else 1


def _lifts_beyond_quadratic(spec, d) -> list[bool]:
    """Per class of d, the decomposition of spec: whether it is an unlabelled
    class of a path or cycle whose every eigenvalue 2cos(2 pi j/N) has
    degree 3 or >= 5, so every lift of it has degree > 2."""
    if spec.kind not in ("path", "cycle"):
        return [False] * len(d.classes)
    a = build_graph(spec, {}).adjacency()
    big_n = 2 * spec.size + 2 if spec.kind == "path" else spec.size
    return [c.exact is None and all(
        value_degree(round(math.acos(min(1.0, max(-1.0, x / 2))) * big_n / (2 * math.pi)),
                     big_n) not in (1, 2, 4)
        for x in np.linalg.eigvalsh(c.vectors.T @ a @ c.vectors)) for c in d.classes]


def engine(gd, h, hd=None, group_tol: float = DEFAULT_GROUP_TOL) -> CoronaDecomposition:
    """The corona engine on the base decomposition gd and the copy factor
    graph h: on hd, or on h's labelled float classes (at the default group
    tol where h is irregular, as `cli._decomposition` reads it)."""
    if hd is None:
        hd = exact_decomposition(h, group_tol if h.is_regular() is not None
                                 else DEFAULT_GROUP_TOL)
    return CoronaDecomposition(gd, hd, *main_atoms(hd, h), group_tol)


def closed_form(spec, group_tol: float = DEFAULT_GROUP_TOL) -> SpectralDecomposition:
    """The labelled classes of spec as eigenvector blocks: a `file:` leaf's
    by eigensolve and rank, a family leaf's by eigensolve with the family's
    labels (the value within _VALUE_TOL of the class that has its
    multiplicity) and flagged where each of its eigenvalues is an
    unlabelled family value, and a corona's in closed form from its factors' (an
    irregular copy factor's at the default group tol): x (x) V_lam for each
    lift x (`corona.lift_class`) of each base class V_lam, flagged where the
    class is a path's or cycle's whose values all have degree 3 or >= 5
    (`value_degree`), and (0 (+) W) (x)
    I_n for each copy class, W its block less its main direction, merged by
    `corona.merge_runs`."""
    if spec.kind == "file":
        return exact_decomposition(build_graph(spec, {}), group_tol)
    if spec.kind != "corona":
        a = build_graph(spec, {}).adjacency()
        d = decompose(a, group_tol)
        values = FamilyDecomposition(spec.kind, spec.size, 1e-15).classes  # distinct values
        known = [v for v in values if v.exact is not None]

        def unlabelled(x: float) -> bool:  # of degree >= 3 (Lehmer)
            return min(values, key=lambda v: abs(v.value - x)).exact is None

        return SpectralDecomposition([EigenClass(c.value, c.vectors, next(
            (v.exact for v in known
             if v.multiplicity == c.multiplicity and abs(v.value - c.value) < _VALUE_TOL),
            None), all(map(unlabelled, np.linalg.eigvalsh(c.vectors.T @ a @ c.vectors))))
            for c in d.classes], d.n)
    h = build_graph(spec.factors[1], {})
    hd = closed_form(spec.factors[1],
                     group_tol if h.is_regular() is not None else DEFAULT_GROUP_TOL)
    main, _ = main_atoms(hd, h)
    gd = closed_form(spec.factors[0], group_tol)
    n, eye = gd.n, np.eye(gd.n)
    directions = np.asarray(main.directions, dtype=float)
    raw = []
    for c in hd.classes:
        inner = directions.T @ c.vectors  # the main directions in this class
        mains = round(float(np.sum(inner * inner)))
        block = c.vectors @ np.linalg.svd(inner)[2][mains:].T if mains else c.vectors
        if block.shape[1]:
            w = np.vstack([np.zeros((1, block.shape[1])), block])
            raw.append(EigenClass(c.value, np.kron(w, eye), c.exact, c.beyond_quadratic))
    solved: dict = {}
    for c, beyond in zip(gd.classes, _lifts_beyond_quadratic(spec.factors[0], gd)):
        for lift in lift_class(c.value, c.exact, main, solved):
            column = np.r_[lift.base, directions @ lift.coords]
            raw.append(EigenClass(lift.value, np.kron(column[:, None], c.vectors),
                                  lift.exact, lift.beyond_quadratic or beyond))
    return SpectralDecomposition(
        [EigenClass(run[0].value, np.hstack([c.vectors for c in run]), label, flagged)
         for run, label, flagged in merge_runs(raw, group_tol)], n * (h.n + 1))


def exp_sum(freqs, coefs, t) -> np.ndarray:
    """sum_j coefs[j] * exp(-i t freqs[j]) at each time of t (scalar or array)."""
    ts = np.asarray(t, dtype=float)
    out = np.zeros(ts.shape, dtype=complex)
    for f, c in zip(freqs, coefs):
        out += np.exp(-1j * ts * f) * c
    return out


def amplitudes(d, u: int, v: int, t) -> np.ndarray:
    """<u| exp(-itA) |v> from the walk terms of d, at each time of t."""
    return exp_sum(*zip(*d.terms(u, v)), t)


def fidelity(d, u: int, v: int, t: float) -> float:
    """|U(t)_{u,v}|, with the vertex checks of `terms`."""
    return float(abs(amplitudes(d, u, v, float(t))))


def search_engine(gd, h) -> CoronaDecomposition:
    """The corona engine a search reads at the default group tol, its lifts
    unlabelled, on the base decomposition gd and the copy factor graph h's
    float classes, with h's main data off them (`corona.main_atoms`)."""
    hd = decompose(h.adjacency())
    return CoronaDecomposition(gd, hd, *main_atoms(hd, h), DEFAULT_GROUP_TOL, labelled=False)


def is_regular(g) -> int | None:
    """Common degree of g from its numpy degree vector, else None."""
    degs = g.degrees()
    k = int(degs[0])
    return k if bool((degs == k).all()) else None


def cocktail_antipode_map(g) -> list[int] | None:
    """Antipodes read off the adjacency matrix: on n >= 4 vertices, each
    vertex's one non-neighbour when every vertex has exactly one, else None."""
    if g.n < 4:
        return None
    far = (g.adjacency() == 0) & ~np.eye(g.n, dtype=bool)
    if not (far.sum(axis=1) == 1).all():
        return None
    return [int(u) for u in far.argmax(axis=1)]


def canon(obj):
    """A report's values as plain JSON values, floats rounded to 15 digits."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return _round15(obj)
    if isinstance(obj, complex):
        return {"im": _round15(obj.imag), "re": _round15(obj.real)}
    if isinstance(obj, dict):
        return {str(k): canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        if hasattr(obj, "_fields"):  # a record (QuadInt): the object of its fields
            return canon(obj._asdict())
        return [canon(x) for x in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return _round15(float(obj))
    if isinstance(obj, np.ndarray):
        return [canon(x) for x in obj.tolist()]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_report(report) -> str:
    """A JSON report as the stdlib encoder writes the canonical values."""
    return json.dumps(canon(report), indent=2, sort_keys=True, allow_nan=False) + "\n"


def text_lines(value, prefix: str = "") -> list[str]:
    """A parsed or canonical report as `path = value` lines: keys sorted, list
    indices, and str() of each leaf."""
    if isinstance(value, dict):
        return [line for key in sorted(value)
                for line in text_lines(value[key], f"{prefix}{key}.")]
    if isinstance(value, list):
        return [line for idx, item in enumerate(value)
                for line in text_lines(item, f"{prefix}{idx}.")]
    return [f"{prefix[:-1]} = {value}"]


def render_csv(header, left, right) -> str:
    """CSV rows of two float columns, each value rounded, then printed at 15 digits."""
    lines = [",".join(header)]
    for row in zip(left.tolist(), right.tolist()):
        lines.append(",".join(f"{_round15(x):.15g}" for x in row))
    return "\n".join(lines) + "\n"


def quad_int(a: int, b: int, disc: int) -> QuadInt:
    """Canonical QuadInt of (a + b*sqrt(disc))/2 for any disc >= 1.

    Folds square factors of disc into b and collapses rational values onto
    the delta == 1 representation.
    """
    split = square_free_part(disc)
    a, b, delta = int(a), int(b) * split.s, split.c
    if b == 0:
        delta = 1
    if delta == 1:
        a, b = a + b, 0
        if a % 2 != 0:
            raise ValueError("value is a half-integer, not an algebraic integer")
    return QuadInt(a, b, delta)


def lift_base_eigenvalue(lam: QuadInt, k: int, m: int) -> list[QuadInt] | None:
    """Exact pair lift [lam_plus, lam_minus] of one base eigenvalue, H k-regular.

    lam_pm = (lam + k +- Lambda)/2, Lambda = sqrt((lam-k)^2 + 4m lam^2).
    None when the pair is not a pair of quadratic integers: the gap Lambda
    leaves Q(sqrt(delta)), or the halved coordinates are not integers.
    """
    if lam.is_rational_integer:
        z = lam.as_integer()
        disc = (z - k) ** 2 + 4 * m * z * z
        if disc == 0:  # z == k == 0: the pair coincides
            return [QuadInt.from_int(0)] * 2
        split = square_free_part(disc)
        return [
            quad_int(z + k, split.s, split.c),
            quad_int(z + k, -split.s, split.c),
        ]
    a, b, delta = lam.a, lam.b, lam.delta
    # gap^2 = (lam - k)^2 + 4m lam^2 = (x + y*sqrt(delta)) / 4 exactly
    x = (a - 2 * k) ** 2 + b * b * delta + 4 * m * (a * a + b * b * delta)
    y = 2 * b * (a - 2 * k) + 8 * m * a * b
    if y == 0:
        split = square_free_part(x)
        s, c = split.s, split.c
        if c == 1:  # rational gap s/2
            return _half_pair(a + 2 * k, b, s, 0, delta)
        if c == delta:  # gap s*sqrt(delta)/2 stays in the field
            return _half_pair(a + 2 * k, b, 0, s, delta)
        return None  # gap brings in a second square root: degree four
    if y % 2:
        return None
    # gap = (p + q*sqrt(delta))/2 needs p*q = y/2 and p^2 + q^2*delta = x, so
    # p^2 and q^2*delta are the roots (x +- r)/2 of z^2 - x*z + (y/2)^2*delta,
    # r^2 = x^2 - y^2*delta, which is 16 gap^2 times its conjugate, so >= 0
    half = y // 2
    disc = x * x - y * y * delta
    r = math.isqrt(disc)
    if r * r == disc:
        for z in ((x + r) // 2, (x - r) // 2):
            p = math.isqrt(z)
            if p and p * p == z and half % p == 0:
                q = half // p
                if p + q * math.sqrt(delta) < 0:
                    p, q = -p, -q
                return _half_pair(a + 2 * k, b, p, q, delta)
    return None  # gap^2 is not a square in the field: degree four


def _half_pair(
    num_a: int, num_b: int, gap_a: int, gap_b: int, delta: int
) -> list[QuadInt] | None:
    """Values ((num_a +- gap_a) + (num_b +- gap_b) sqrt(delta)) / 4 as QuadInts."""
    if (num_a + gap_a) % 2 or (num_b + gap_b) % 2:
        return None  # not half-integer coordinates; stay inexact
    return [
        quad_int((num_a + gap_a) // 2, (num_b + gap_b) // 2, delta),
        quad_int((num_a - gap_a) // 2, (num_b - gap_b) // 2, delta),
    ]


def is_quadratic_square(p: int, q: int, delta: int) -> bool:
    """Whether p + q sqrt(delta), delta > 1 square-free, is (x + y sqrt(delta))^2
    for rationals x, y: exactly when p^2 - delta q^2 = R^2 for an integer R and,
    for t = p + R or p - R, 2t = (2x)^2 and 2 delta (2p - t) = (2 delta y)^2 are
    squares of integers.  Over a k-regular H on m vertices the lifts of an
    irrational (a + b sqrt(delta))/2 have degree 4 exactly when this fails for
    P = (1 + 4m)(a^2 + b^2 delta) - 4ka + 4k^2, Q = 2b((1 + 4m)a - 2k)."""

    def is_square(n: int) -> bool:
        return n >= 0 and math.isqrt(n) ** 2 == n

    norm = p * p - delta * q * q
    r = math.isqrt(max(norm, 0))
    return r * r == norm and any(is_square(2 * t) and is_square(2 * delta * (2 * p - t))
                                 for t in (p + r, p - r))


def small_factors(poly) -> list[tuple[int, ...]]:
    """Every monic factor y - r and irreducible y^2 - Ay + B in Z[y] of a monic
    real-rooted poly (coefficients highest first), as (1, -r) and (1, -A, B).

    No float is used.  Every root has |y| <= S = sqrt(sum y_i^2), which is
    c_1^2 - 2 c_2 by Newton's identities, so |r| <= S, |A| <= 2S, |B| <= S^2.
    With the factors y^k stripped, r and B divide the nonzero constant term,
    and 1 - A + B divides poly(1); each candidate is kept when it divides poly
    exactly.
    """
    poly = [int(c) for c in poly]
    bound = math.isqrt(poly[1] ** 2 - 2 * poly[2]) + 1
    found = [(1, 0)] if poly[-1] == 0 else []
    while poly[-1] == 0:
        poly.pop()
    const, at_one = poly[-1], sum(poly)
    found += [(1, -r) for r in range(-bound, bound + 1)
              if r and const % r == 0 and not any(_remainder(poly, (1, -r)))]
    for b in range(-bound * bound, bound * bound + 1):
        if not b or const % b:
            continue
        for a in range(-2 * bound, 2 * bound + 1):
            disc = a * a - 4 * b
            if (disc > 0 and math.isqrt(disc) ** 2 != disc
                    and (1 - a + b == 0 or at_one % (1 - a + b) == 0)
                    and not any(_remainder(poly, (1, -a, b)))):
                found.append((1, -a, b))
    return found


def _remainder(poly, divisor) -> list[int]:
    """Remainder of poly by a monic divisor, by synthetic division."""
    out, d = list(poly), len(divisor) - 1
    for i in range(len(out) - d):
        for j in range(1, d + 1):
            out[i + j] -= out[i] * divisor[j]
    return out[len(out) - d:]
