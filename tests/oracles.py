"""Reference forms of the spectral data that tests check the package against.

The package reads an eigenvalue class through the rows of its eigenvector
block and evaluates every walk amplitude as an exponential sum
(`spectral.exp_sum`).  These helpers build the dense N x N objects instead:
class projectors, the reassembled matrix and the transition matrix U(t).
"""

import numpy as np

from coronawalk.corona import corona_terms
from coronawalk.spectral import entry_amplitudes, exp_sum


def projector(c) -> np.ndarray:
    """Orthogonal projector V V^T onto an eigenvalue class."""
    return c.vectors @ c.vectors.T


def reassemble(d) -> np.ndarray:
    """sum(value * projector) over the classes of a decomposition."""
    out = np.zeros((d.n, d.n))
    for c in d.classes:
        out += c.value * projector(c)
    return out


def transition_matrix(d, t: float) -> np.ndarray:
    """U(t) = sum_r exp(-i t value_r) * projector_r; symmetric and unitary."""
    out = np.zeros((d.n, d.n), dtype=complex)
    for c in d.classes:
        out += np.exp(-1j * t * c.value) * projector(c)
    return out


def fidelity(d, u: int, v: int, t: float) -> float:
    """|U(t)_{u,v}|, with the vertex checks of `entry_amplitudes`."""
    return float(abs(entry_amplitudes(d, u, v, float(t))))


def corona_entry_base_base(spec, g_decomp, v: int, vp: int, t):
    """Amplitude <(v,0)| U(t) |(v',0)> in the corona, vectorized over t."""
    return exp_sum(*corona_terms(spec, g_decomp, vp, v), t)


def corona_entry_base_copy(spec, g_decomp, vp: int, v: int, w: int, t):
    """Amplitude <(v',0)| U(t) |(v,w)> in the corona, vectorized over t."""
    return exp_sum(*corona_terms(spec, g_decomp, vp, v, w), t)
