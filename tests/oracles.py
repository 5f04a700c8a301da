"""Reference forms of the spectral data that tests check the package against.

The package reads an eigenvalue class through the rows of its eigenvector
block and evaluates every walk amplitude as an exponential sum
(`spectral.exp_sum`).  These helpers build the dense N x N objects instead:
class projectors, the reassembled matrix and the transition matrix U(t).
It also keeps the exact algebra of the paper's pair lift for a k-regular
copy factor, which the walk-basis labels of `corona.lift_class` must equal.
"""

import math

import numpy as np

from coronawalk.corona import MainData, corona_terms
from coronawalk.exact import QuadInt, square_free_part
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


def regular_main(k: int, m: int) -> MainData:
    """Main data of a k-regular copy factor on m vertices: mu = k on 1/sqrt(m)."""
    return MainData(np.array([float(k)]), np.full((m, 1), 1.0 / math.sqrt(m)), (m,), (k,))


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
