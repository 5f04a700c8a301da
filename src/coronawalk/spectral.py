"""Dense symmetric spectral engine.

Symmetric eigensolver (LAPACK eigh through numpy), eigenvalue classes with
orthogonal projectors, walk transition matrices, vertex supports, strong
cospectrality, and exact (integer / quadratic) labeling of eigenvalue
classes, verified by big-integer rank.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .exact import QuadInt, exact_rank, recognize_quad, square_free_part
from .graphs import Graph

DEFAULT_GROUP_TOL = 1e-8
DEFAULT_SUPPORT_TOL = 1e-8
DEFAULT_COSPECTRAL_TOL = 1e-7
MAX_DIMENSION = 4096


def symmetric_eigen(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and orthonormal eigenvectors of a real symmetric matrix.

    LAPACK's symmetric solver through numpy.linalg.eigh.  Returns
    eigenvalues in ascending order and the matching eigenvector columns.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("square matrix required")
    n = a.shape[0]
    if n == 0:
        raise ValueError("dimension 0")
    if n > MAX_DIMENSION:
        raise ValueError(f"dimension {n} exceeds dense budget {MAX_DIMENSION}")
    scale = max(1.0, float(np.max(np.abs(a))))
    if float(np.max(np.abs(a - a.T))) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric")
    return np.linalg.eigh((a + a.T) / 2.0)


@dataclass
class EigenClass:
    """One eigenvalue class: value, orthogonal projector, and optional exact label."""

    value: float
    projector: np.ndarray
    multiplicity: int
    exact: QuadInt | None = None


@dataclass
class SpectralDecomposition:
    """Eigenvalue classes sorted by decreasing value; projectors sum to I."""

    classes: list[EigenClass]
    n: int

    def values(self) -> list[float]:
        return [c.value for c in self.classes]

    def matrix(self) -> np.ndarray:
        """Reassemble sum(value * projector)."""
        out = np.zeros((self.n, self.n))
        for c in self.classes:
            out += c.value * c.projector
        return out


def decompose(matrix, group_tol: float = DEFAULT_GROUP_TOL) -> SpectralDecomposition:
    """Spectral decomposition with eigenvalues grouped into classes.

    Adjacent sorted eigenvalues closer than group_tol * max(1, spectral
    radius) share a class; the class projector is the sum of outer products
    of its eigenvectors.
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
        block = vecs[:, start:i]
        proj = block @ block.T
        proj = (proj + proj.T) / 2.0
        classes.append(EigenClass(float(np.mean(values[start:i])), proj, i - start))
        start = i
    return SpectralDecomposition(classes, n)


def entry_amplitudes(d: SpectralDecomposition, u: int, v: int, times) -> np.ndarray:
    """Walk amplitude <u| exp(-itA) |v> at each requested time."""
    _check_vertex(d, u)
    _check_vertex(d, v)
    ts = np.asarray(times, dtype=float)
    out = np.zeros(ts.shape, dtype=complex)
    for c in d.classes:
        out += np.exp(-1j * ts * c.value) * c.projector[u, v]
    return out


def transition_matrix(d: SpectralDecomposition, t: float) -> np.ndarray:
    """U(t) = sum_r exp(-i t value_r) * projector_r; symmetric and unitary."""
    out = np.zeros((d.n, d.n), dtype=complex)
    for c in d.classes:
        out += np.exp(-1j * t * c.value) * c.projector
    return out


def fidelity(d: SpectralDecomposition, u: int, v: int, t: float) -> float:
    """|U(t)_{u,v}|."""
    return float(abs(entry_amplitudes(d, u, v, float(t))))


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
        if float(np.linalg.norm(c.projector[:, u])) > tol
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
        cu = c.projector[:, u]
        cv = c.projector[:, v]
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

def attach_exact_labels(
    d: SpectralDecomposition,
    adjacency,
    value_tol: float = 1e-9,
) -> SpectralDecomposition:
    """Label classes with verified integer or quadratic-integer eigenvalues.

    A candidate survives only if exact big-integer rank of the annihilating
    matrix confirms it: A - rI singular with the class multiplicity for an
    integer r, or A^2 - aA + cI singular with the combined multiplicity of
    the conjugate pair for (a + b*sqrt(delta))/2.  Unverifiable classes keep
    exact=None, which downgrades downstream certificates to inconclusive.
    """
    a_float = np.asarray(adjacency)
    if not np.allclose(a_float, np.round(a_float), atol=1e-12):
        raise ValueError("exact labels need an integer matrix")
    # object arrays hold Python ints, so the products below never overflow
    a_int = np.array([[int(round(x)) for x in row] for row in a_float], dtype=object)
    n = d.n
    eye = np.identity(n, dtype=object)
    values = [c.value for c in d.classes]
    deltas = _delta_candidates(values)
    a_sq = a_int @ a_int

    labeled: list[EigenClass] = []
    for i, c in enumerate(d.classes):
        exact: QuadInt | None = None
        r = round(c.value)
        if abs(c.value - r) < value_tol:
            defect = n - exact_rank(a_int - r * eye)
            if defect == c.multiplicity:
                exact = QuadInt.from_int(r)
        if exact is None and deltas:
            exact = _verify_quadratic(c, i, d, a_int, a_sq, eye, deltas, value_tol)
        labeled.append(replace(c, exact=exact))
    return SpectralDecomposition(labeled, d.n)


def exact_decomposition(
    g: Graph, group_tol: float = DEFAULT_GROUP_TOL
) -> SpectralDecomposition:
    """Decompose a graph's adjacency matrix and attach exact labels."""
    return attach_exact_labels(decompose(g.adjacency(), group_tol), g.adjacency())


def _verify_quadratic(c, index, d, a_int, a_sq, eye, deltas, value_tol) -> QuadInt | None:
    q = recognize_quad(c.value, deltas, value_tol)
    if q is None or q.delta == 1:
        return None
    norm4 = q.a * q.a - q.b * q.b * q.delta
    if norm4 % 4 != 0:
        return None
    # minimal polynomial x^2 - a x + (a^2 - b^2 delta)/4 annihilates the pair
    defect = d.n - exact_rank(a_sq - q.a * a_int + (norm4 // 4) * eye)
    conj_value = q.conjugate().value()
    conj_mult = sum(
        cc.multiplicity
        for j, cc in enumerate(d.classes)
        if j != index and abs(cc.value - conj_value) < 1e-7
    )
    if defect != c.multiplicity + conj_mult or conj_mult == 0:
        return None
    return q


def _delta_candidates(values: Sequence[float]) -> set[int]:
    """Square-free parts of (x - y)^2 for near-conjugate value pairs."""
    out: set[int] = set()
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            s = values[i] + values[j]
            if abs(s - round(s)) > 1e-6:
                continue
            sq = (values[i] - values[j]) ** 2
            if abs(sq - round(sq)) > 1e-6 or round(sq) < 1:
                continue
            c = square_free_part(round(sq)).c
            if c > 1:
                out.add(c)
    return out


def _check_vertex(d: SpectralDecomposition, u: int) -> None:
    if not 0 <= u < d.n:
        raise ValueError(f"vertex {u} out of range for dimension {d.n}")
