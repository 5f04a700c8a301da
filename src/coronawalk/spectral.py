"""Dense symmetric spectral engine.

Symmetric eigensolver (LAPACK eigh through numpy), eigenvalue classes held
as orthonormal eigenvector blocks V, walk amplitudes as exponential sums,
vertex supports, strong cospectrality, and exact (integer / quadratic)
labeling of eigenvalue classes, verified by big-integer rank.  A quadratic
label is read off a conjugate pair of classes: a = theta + theta' and
b^2 delta = (theta - theta')^2.  Vertex queries read rows of V:
E[u,v] = V[u].V[v] and ||E e_u|| = ||V[u]||.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .exact import QuadInt, exact_rank, square_free_part
from .graphs import Graph

DEFAULT_GROUP_TOL = 1e-8
DEFAULT_SUPPORT_TOL = 1e-8
DEFAULT_COSPECTRAL_TOL = 1e-7
MAX_DIMENSION = 4096
# time points per batch of a uniform-grid evaluation
GRID_BLOCK = 8192


def symmetric_eigen(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and orthonormal eigenvectors of a real symmetric matrix.

    LAPACK's symmetric solver through numpy.linalg.eigh.  Returns
    eigenvalues in ascending order and the matching eigenvector columns.
    """
    a = np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("square matrix required")
    n = a.shape[0]
    if n == 0:
        raise ValueError("dimension 0")
    if n > MAX_DIMENSION:  # checked before the float copy
        raise ValueError(f"dimension {n} exceeds dense budget {MAX_DIMENSION}")
    a = a.astype(float)
    scale = max(1.0, float(np.max(np.abs(a))))
    if float(np.max(np.abs(a - a.T))) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric")
    return np.linalg.eigh((a + a.T) / 2.0)


@dataclass
class EigenClass:
    """One eigenvalue class: value, orthonormal N x mult eigenvector block, exact label."""

    value: float
    vectors: np.ndarray
    exact: QuadInt | None = None

    @property
    def multiplicity(self) -> int:
        return self.vectors.shape[1]

    def entry(self, u: int, v: int) -> float:
        """Projector entry E[u, v] = V[u] . V[v], read from two rows."""
        # np.dot, not a 1-D @: on blocks of small multiplicity it sums in the
        # order the dense product V V^T does, so the two agree to the bit
        return np.dot(self.vectors[u], self.vectors[v])


@dataclass
class SpectralDecomposition:
    """Eigenvalue classes sorted by decreasing value; their blocks form an eigenbasis."""

    classes: list[EigenClass]
    n: int


def decompose(matrix, group_tol: float = DEFAULT_GROUP_TOL) -> SpectralDecomposition:
    """Spectral decomposition with eigenvalues grouped into classes.

    Adjacent sorted eigenvalues closer than group_tol * max(1, spectral
    radius) share a class, which keeps its block of eigenvector columns.
    """
    values, vecs = symmetric_eigen(matrix)
    values = values[::-1]
    vecs = vecs[:, ::-1]
    n = len(values)
    gap = group_tol * max(1.0, float(np.max(np.abs(values))))
    classes: list[EigenClass] = []
    start = 0
    for i in range(1, n + 1):
        if i < n and values[i - 1] - values[i] < gap:
            continue
        classes.append(EigenClass(float(np.mean(values[start:i])), vecs[:, start:i]))
        start = i
    return SpectralDecomposition(classes, n)


def exp_sum(freqs, coefs, t) -> np.ndarray:
    """sum_j coefs[j] * exp(-i t freqs[j]) at each time of t (scalar or array).

    Terms are added one at a time in the given order, so memory stays
    O(len(t)) whatever the number of terms.
    """
    ts = np.asarray(t, dtype=float)
    out = np.zeros(ts.shape, dtype=complex)
    for f, c in zip(freqs, coefs):
        out += np.exp(-1j * ts * f) * c
    return out


def exp_sum_grid(
    freqs: np.ndarray, coefs: np.ndarray, t0: float, dt: float, count: int,
    block: int = GRID_BLOCK,
):
    """Yield exp_sum at t0 + j*dt, j = 0..count-1, in batches of `block` times.

    With j = s*block + r the sum factors as
    (coefs * exp(-i freqs (t0 + s*block*dt))) @ W, W[:, r] = exp(-i freqs r dt),
    so the phase table W is made once and each batch is one vector-matrix
    product; memory stays O(len(freqs) * block) whatever the count.
    """
    table = np.exp(-1j * np.multiply.outer(freqs, np.arange(min(block, count)) * dt))
    for start in range(0, count, block):
        weights = coefs * np.exp(-1j * freqs * (t0 + start * dt))
        yield weights @ table[:, : min(block, count - start)]


def entry_amplitudes(d: SpectralDecomposition, u: int, v: int, times) -> np.ndarray:
    """Walk amplitude <u| exp(-itA) |v> = sum_r exp(-it value_r) E_r[u,v]."""
    _check_vertex(d, u)
    _check_vertex(d, v)
    return exp_sum([c.value for c in d.classes],
                   [c.entry(u, v) for c in d.classes], times)


@dataclass(frozen=True)
class SupportSet:
    """Eigenvalue classes whose projector does not kill the vertex."""

    vertex: int
    class_indices: tuple[int, ...]
    values: tuple[float, ...]
    exact: tuple[QuadInt | None, ...]

    def __len__(self) -> int:
        return len(self.class_indices)

    @property
    def all_exact(self) -> bool:
        return all(q is not None for q in self.exact)


def eigenvalue_support(
    d: SpectralDecomposition, u: int, tol: float = DEFAULT_SUPPORT_TOL
) -> SupportSet:
    """Classes with ||E e_u|| > tol, in decreasing eigenvalue order."""
    _check_vertex(d, u)
    idx = [
        i
        for i, c in enumerate(d.classes)
        if float(np.linalg.norm(c.vectors[u])) > tol
    ]
    return SupportSet(
        vertex=u,
        class_indices=tuple(idx),
        values=tuple(d.classes[i].value for i in idx),
        exact=tuple(d.classes[i].exact for i in idx),
    )


def strong_cospectral(
    d: SpectralDecomposition, u: int, v: int, tol: float = DEFAULT_COSPECTRAL_TOL
) -> dict[int, int] | None:
    """Per-class signs when E e_u = +/- E e_v for every class, else None.

    Classes where both columns vanish are skipped.  The + sign is tested
    first, so a class can never report both.
    """
    if u == v:
        raise ValueError("strong cospectrality is a relation on distinct vertices")
    _check_vertex(d, u)
    _check_vertex(d, v)
    signs: dict[int, int] = {}
    for i, c in enumerate(d.classes):
        cu = c.vectors @ c.vectors[u]
        cv = c.vectors @ c.vectors[v]
        if np.linalg.norm(cu) <= tol and np.linalg.norm(cv) <= tol:
            continue
        if float(np.max(np.abs(cu - cv))) <= tol:
            signs[i] = 1
        elif float(np.max(np.abs(cu + cv))) <= tol:
            signs[i] = -1
        else:
            return None
    return signs


# ---------------------------------------------------------------------------
# exact labeling

# a class value this close to an integer or to a pair's QuadInt is tried by rank
_VALUE_TOL = 1e-9
# a candidate conjugate pair's sum and squared gap lie this close to integers
_PAIR_TOL = 1e-6


def attach_exact_labels(d: SpectralDecomposition, matrix) -> SpectralDecomposition:
    """Label the classes of d, which decomposes `matrix` or a matrix similar to
    it, with verified integer or quadratic-integer eigenvalues.

    Integer rule, run first: a class near an integer r is labeled r when
    A - rI has defect equal to the class multiplicity.  Pair rule: an
    irrational eigenvalue theta of an integer matrix comes with its
    conjugate theta' at equal multiplicity, and a = theta + theta',
    b^2 delta = (theta - theta')^2 fix both labels (a +- b*sqrt(delta))/2.
    An unlabeled class pairs with the first later unlabeled class whose sum
    and squared gap are integers (the gap irrational); one exact rank checks
    that A^2 - aA + ((a^2 - b^2 delta)/4) I has their combined multiplicity
    as defect.  Unverifiable classes keep exact=None, which downgrades
    downstream certificates to inconclusive.
    """
    a_int = np.asarray(matrix)
    if a_int.dtype != object:  # an object array holds Python ints already
        if not np.allclose(a_int, np.round(a_int), atol=1e-12):
            raise ValueError("exact labels need an integer matrix")
        # object arrays hold Python ints, so the products below never overflow
        a_int = np.array([[int(round(x)) for x in row] for row in a_int], dtype=object)
    n = d.n
    eye = np.identity(n, dtype=object)
    classes = d.classes
    labels: list[QuadInt | None] = [None] * len(classes)
    for i, c in enumerate(classes):
        r = round(c.value)
        if abs(c.value - r) < _VALUE_TOL:
            if n - exact_rank(a_int - r * eye) == c.multiplicity:
                labels[i] = QuadInt.from_int(r)

    a_sq = a_int @ a_int
    for i, c in enumerate(classes):
        if labels[i] is not None:
            continue
        for j in range(i + 1, len(classes)):
            q = _pair_label(c.value, classes[j].value) if labels[j] is None else None
            if q is None:
                continue
            # minimal polynomial x^2 - a x + (a^2 - b^2 delta)/4 annihilates the pair
            norm = (q.a * q.a - q.b * q.b * q.delta) // 4
            defect = n - exact_rank(a_sq - q.a * a_int + norm * eye)
            if defect == c.multiplicity + classes[j].multiplicity:
                labels[i], labels[j] = q, q.conjugate()
            break  # integer sum and squared gap leave only theta_j = a - theta_i
    return SpectralDecomposition(
        [replace(c, exact=q) for c, q in zip(classes, labels)], n
    )


def exact_decomposition(
    g: Graph, group_tol: float = DEFAULT_GROUP_TOL
) -> SpectralDecomposition:
    """Decompose a graph's adjacency matrix and attach exact labels."""
    a = g.adjacency()
    return attach_exact_labels(decompose(a, group_tol), a)


def _pair_label(x: float, y: float) -> QuadInt | None:
    """(a + s*sqrt(c))/2 for x > y with a = x + y and s^2 c = (x - y)^2, c > 1."""
    a, sq = round(x + y), round((x - y) ** 2)
    if abs(x + y - a) > _PAIR_TOL or abs((x - y) ** 2 - sq) > _PAIR_TOL or sq < 1:
        return None
    split = square_free_part(sq)
    if split.c == 1 or (a * a - sq) % 4:
        return None
    q = QuadInt(a, split.s, split.c)
    return q if abs(x - q.value()) < _VALUE_TOL else None


def _check_vertex(d: SpectralDecomposition, u: int) -> None:
    if not 0 <= u < d.n:
        raise ValueError(f"vertex {u} out of range for dimension {d.n}")
