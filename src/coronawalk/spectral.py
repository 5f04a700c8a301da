"""Dense symmetric spectral engine.

Symmetric eigensolver (LAPACK eigh through numpy), eigenvalue classes held
as orthonormal eigenvector blocks V, the batched grid evaluation of walk
amplitudes as exponential sums (`exp_sum_grid`), and exact (integer /
quadratic) labeling of eigenvalue classes, verified by big-integer rank.  A
quadratic label is read off a conjugate pair of classes: a = theta +
theta' and b^2 delta = (theta - theta')^2.  `SpectralDecomposition` gives
the atom rules of `leafspectra.Decomposition`, one atom per class, read off
rows of V: E[u,v] = V[u].V[v] and ||E e_u|| = ||V[u]||; support, signs and
walk terms are the base class's.

A `file:` leaf is the one spec decomposed here, by `cli._decomposition`:
its float classes, labelled by `attach_exact_labels` for the readers of
labels, serve the leaf itself and any corona it is a factor of
(`coronaspectra.CoronaDecomposition`, which reads them through the atom
rules, with `ones` and `residual` for a copy factor's main directions).
Family leaves and coronas are never eigensolved: the assembled graph is
decomposed here only as the oracle the tests check them against.
"""

from __future__ import annotations

import math

import numpy as np

from .defaults import DEFAULT_GROUP_TOL, GRID_BLOCK
from .exact import _VALUE_TOL, QuadInt, _pair_label, exact_rank
from .graphs import Graph, check_budget
from .leafspectra import Atom, Decomposition, class_runs

# a matrix is symmetric when A - A^T is this small relative to max(1, max|A|)
_SYMMETRY_TOL = 1e-12


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
    check_budget(n)  # before the float copy
    a = a.astype(float)
    scale = max(1.0, float(np.max(np.abs(a))))
    if float(np.max(np.abs(a - a.T))) > _SYMMETRY_TOL * scale:
        raise ValueError("matrix is not symmetric")
    return np.linalg.eigh((a + a.T) / 2.0)


class EigenClass:
    """One eigenvalue class: value, orthonormal N x mult eigenvector block, exact
    label, and whether its value is known to have degree > 2 (`corona.lift_class`)."""

    __slots__ = ("value", "vectors", "exact", "beyond_quadratic")

    def __init__(self, value: float, vectors: np.ndarray, exact: QuadInt | None = None,
                 beyond_quadratic: bool = False):
        self.value = value
        self.vectors = vectors
        self.exact = exact
        self.beyond_quadratic = beyond_quadratic

    @property
    def multiplicity(self) -> int:
        return self.vectors.shape[1]


class SpectralDecomposition(Decomposition):
    """Eigenvalue classes sorted by decreasing value; their blocks form an
    eigenbasis.  Each class is one atom, its block V, valued at its label's
    value where it has one, so a labelled class lifts and turns at its exact
    eigenvalue; the rules read rows of V at the tolerances given: E e_u =
    V V[u], ||E e_u|| = ||V[u]|| and E[u,v] = V[u] . V[v], with E 1 = V V^T 1
    and the residual the block V times the complement of V^T 1."""

    __slots__ = ("classes", "n")
    tolerant = True

    def __init__(self, classes: list[EigenClass], n: int):
        self.classes = classes
        self.n = n

    @property
    def atoms(self) -> list[list[Atom]]:
        return [[Atom(c.value if c.exact is None else c.exact.value(), c.beyond_quadratic,
                      c.vectors)] for c in self.classes]

    def holds(self, vectors: np.ndarray, u: int, tol: float) -> bool:
        return float(np.linalg.norm(vectors[u])) > tol

    def sign(self, vectors: np.ndarray, u: int, v: int, tol: float) -> int | None:
        """+1 tested first, so a class never reports both signs."""
        cu, cv = vectors @ vectors[u], vectors @ vectors[v]
        if np.linalg.norm(cu) <= tol and np.linalg.norm(cv) <= tol:
            return 0
        if float(np.max(np.abs(cu - cv))) <= tol:
            return 1
        return -1 if float(np.max(np.abs(cu + cv))) <= tol else None

    def entry(self, vectors: np.ndarray, u: int, v: int) -> float:
        # np.dot, not a 1-D @: on blocks of small multiplicity it sums in the
        # order the dense product V V^T does, so the two agree to the bit
        return float(np.dot(vectors[u], vectors[v]))

    def ones(self, vectors: np.ndarray) -> np.ndarray:
        return vectors @ vectors.sum(axis=0)

    def residual(self, vectors: np.ndarray) -> np.ndarray | None:
        rest = vectors @ np.linalg.svd(vectors.sum(axis=0)[None, :])[2][1:].T
        return rest if rest.shape[1] else None


def decompose(matrix, group_tol: float = DEFAULT_GROUP_TOL) -> SpectralDecomposition:
    """Spectral decomposition with eigenvalues grouped into classes.

    Adjacent sorted eigenvalues closer than group_tol * max(1, spectral
    radius) share a class (`class_runs`), which keeps its block of
    eigenvector columns and the mean of its eigenvalues.
    """
    values, vecs = symmetric_eigen(matrix)
    values = values[::-1]
    vecs = vecs[:, ::-1]
    return SpectralDecomposition(
        [EigenClass(float(np.mean(values[a:b])), vecs[:, a:b])
         for a, b in class_runs(values.tolist(), group_tol)], len(values))


def exp_sum_grid(freqs: np.ndarray, coefs: np.ndarray, t0: float, dt: float, count: int,
                 skip: int = 0):
    """Yield sum_k coefs[k] exp(-i t freqs[k]) at t = t0 + j*dt, j = 0..count-1,
    in batches of block = GRID_BLOCK times, less the first `skip` batches,
    which are not computed; the others keep their bits.

    With j = s*block + q*a + r (r < a, q < b, a*b >= min(block, count)) it is
    sum_k w[k] coarse[k, q] fine[k, r], w = coefs * exp(-i freqs (t0 +
    s*block*dt)), fine[:, r] = exp(-i freqs r dt) and coarse[:, q] =
    exp(-i freqs q a dt).  The two tables are made once, a and b near
    sqrt(block), and each batch is one (b x K)(K x a) matrix product
    (w[:, None] * coarse)^T @ fine, raveled and cut to the batch; memory
    stays O(K sqrt(block) + block), K = len(freqs), whatever the count.
    """
    if count <= 0:
        return
    block = GRID_BLOCK
    size = min(block, count)
    a = math.isqrt(size - 1) + 1  # a * a >= size
    fine = np.exp(-1j * np.multiply.outer(freqs, np.arange(a) * dt))
    # q * a for q < b = ceil(size / a)
    coarse = np.exp(-1j * np.multiply.outer(freqs, np.arange(0, size, a) * dt))
    for start in range(skip * block, count, block):
        weights = coefs * np.exp(-1j * freqs * (t0 + start * dt))
        batch = ((weights[:, None] * coarse).T @ fine).ravel()
        yield batch[: min(block, count - start)]


# ---------------------------------------------------------------------------
# exact labeling

def attach_exact_labels(d: SpectralDecomposition, matrix) -> SpectralDecomposition:
    """Label the classes of d, which decomposes `matrix` (a `file:` leaf's
    adjacency), with verified integer or quadratic-integer eigenvalues.

    Integer rule, run first: a class near an integer r is labeled r when
    A - rI has defect equal to the class multiplicity.  Pair rule: an
    irrational eigenvalue theta of an integer matrix comes with its
    conjugate theta' at equal multiplicity, and a = theta + theta',
    b^2 delta = (theta - theta')^2 fix both labels (a +- b*sqrt(delta))/2.
    An unlabeled class pairs with the first later unlabeled class whose sum
    and squared gap are integers (the gap irrational); one exact rank checks
    that A^2 - aA + ((a^2 - b^2 delta)/4) I has their combined multiplicity
    as defect.  Unverifiable classes keep exact=None, which downgrades
    downstream certificates to inconclusive.  A matrix of any dtype but
    integer or float with integer entries raises ValueError.
    """
    a_int = np.asarray(matrix)
    # a float matrix counts only when its entries are int64 integers exactly
    if a_int.dtype.kind == "f" and np.all(np.abs(a_int) < 2.0**63) and np.array_equal(
            a_int, np.round(a_int)):
        a_int = a_int.astype(np.int64)
    if a_int.dtype.kind not in "iu":
        raise ValueError("exact labels need an integer matrix")
    # Python ints, so the products below never overflow
    a_int = a_int.astype(object)
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
        [EigenClass(c.value, c.vectors, q) for c, q in zip(classes, labels)], n
    )


def exact_decomposition(
    g: Graph, group_tol: float = DEFAULT_GROUP_TOL
) -> SpectralDecomposition:
    """Decompose a graph's adjacency matrix and attach exact labels."""
    a = g.adjacency()
    return attach_exact_labels(decompose(a, group_tol), a)
