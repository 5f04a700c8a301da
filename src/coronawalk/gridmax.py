"""The maximum of a walk amplitude's modulus on a uniform time grid.

A(t) = sum_k c_k exp(-i theta_k t) is a corona walk amplitude, its terms
the corona engine's (`transfer._walk_terms`) Python floats, and the grid is
t_j = j * step, j < points, up to 2e6 points.  `grid_max` finds the largest |A(t_j)| by a
certified best-first search over the grid's index intervals in pure
Python, and hands the grid to numpy, which evaluates every point, only past
a cap on the search's work.  Only `transfer.corona_no_pst_check` imports
this module, when a scan runs, so no other call compiles it.
"""

from __future__ import annotations

import heapq
import math
from typing import Sequence

# a grid interval whose bound on |A| is within this of the best point found
# is not searched: the margin of the certified maximum
_SCAN_EPS = 1e-12
# term evaluations (points evaluated times terms) the search may spend, about
# the cost of importing numpy; past it the grid goes to numpy
_SCAN_CAP = 2**17
# an interval of at most this many points is evaluated point by point
_SCAN_LEAF = 8


def grid_max(freqs: Sequence[float], coefs: Sequence[float], step: float,
             points: int) -> tuple[float, int]:
    """The maximum of |A(j * step)| over j < points and its j, A(t) =
    sum_k coefs[k] exp(-i freqs[k] t).

    No grid value exceeds the maximum by more than _SCAN_EPS, and on a tie
    within that margin the j reported need not be the first (`_search`).
    A search that would pass _SCAN_CAP term evaluations gives way to every
    point evaluated with numpy (`_every_point`), which reports the first j
    of the maximum.  Which route runs depends on the terms and the grid
    alone.
    """
    return _search(freqs, coefs, step, points) or _every_point(freqs, coefs, step, points)


def _search(freqs: Sequence[float], coefs: Sequence[float], step: float,
            points: int) -> tuple[float, int] | None:
    """The grid maximum by best-first search, in pure Python; None past
    _SCAN_CAP.

    With the zero coefficients dropped and theta_k = freqs[k] shifted by
    their |c|-weighted mean to phi_k (which turns A's phase alone), |A''| <=
    M2 = sum_k |c_k| phi_k^2.  So on an interval about the grid time t_m,
    with a = A(t_m) and d the derivative of the shifted sum there,
    |A(t_m + s)| <= max(|a + s_lo d|, |a + s_hi d|) + max(s_lo^2, s_hi^2) M2/2
    for s in [s_lo, s_hi], |a + s d| being convex in s (Breiman & Cutler,
    Math. Programming 58, 1993; a bound of the Piyavskii-Shubert family).
    Intervals wait in a heap by that bound: the highest one is split at
    t_m, the search ends once it is within _SCAN_EPS of the best point, and
    an interval of at most _SCAN_LEAF points is evaluated point by point,
    each point summed directly.  With no nonzero term A is 0 everywhere,
    reported at j = 0.
    """
    terms = [(f, c) for f, c in zip(freqs, coefs) if c]
    if not terms:
        return 0.0, 0
    weight = sum(abs(c) for _, c in terms)
    mean = sum(abs(c) * f for f, c in terms) / weight
    shifted = [(f, f - mean, c) for f, c in terms]
    half_curvature = sum(abs(c) * (f - mean) ** 2 for f, c in terms) / 2
    budget = _SCAN_CAP // len(terms)  # points the search may evaluate
    cos, sin, hypot = math.cos, math.sin, math.hypot

    def value(j: int) -> float:
        t = j * step
        re = im = 0.0
        for f, c in terms:
            re += c * cos(f * t)
            im -= c * sin(f * t)
        return hypot(re, im)

    best, arg, spent = -1.0, 0, 0
    heap: list[tuple[float, int, int, int]] = []  # (-bound, lo, hi, mid)
    todo = [(0, points - 1)]
    while todo:
        for lo, hi in todo:
            if hi - lo < _SCAN_LEAF:
                spent += hi - lo + 1
                if spent > budget:
                    return None
                for j in range(lo, hi + 1):
                    fid = value(j)
                    if fid > best or fid == best and j < arg:
                        best, arg = fid, j
                continue
            spent += 1
            if spent > budget:
                return None
            mid = (lo + hi) // 2
            t = mid * step
            re = im = dre = dim = 0.0
            for f, phi, c in shifted:
                cr, ci = c * cos(f * t), -(c * sin(f * t))
                re += cr
                im += ci
                dre += phi * ci  # -i phi (cr + i ci)
                dim -= phi * cr
            fid = hypot(re, im)
            if fid > best or fid == best and mid < arg:
                best, arg = fid, mid
            # hi - mid >= mid - lo, so s_hi^2 is the larger square
            s_lo, s_hi = (lo - mid) * step, (hi - mid) * step
            ends = hypot(re + s_lo * dre, im + s_lo * dim)
            end = hypot(re + s_hi * dre, im + s_hi * dim)
            bound = (end if end > ends else ends) + s_hi * s_hi * half_curvature
            if bound > best + _SCAN_EPS:
                heapq.heappush(heap, (-bound, lo, hi, mid))
        todo = []
        if heap:
            bound, lo, hi, mid = heapq.heappop(heap)
            if -bound > best + _SCAN_EPS:
                todo = [(lo, mid - 1), (mid + 1, hi)]
    return best, arg


def _every_point(freqs: Sequence[float], coefs: Sequence[float], step: float,
                 points: int) -> tuple[float, int]:
    """The grid maximum and its first j, every point evaluated with numpy in
    the batches of `spectral.exp_sum_grid`."""
    import numpy as np

    from .spectral import exp_sum_grid

    best, arg, offset = -1.0, 0, 0
    for amps in exp_sum_grid(np.asarray(freqs), np.asarray(coefs), 0.0, step, points):
        fids = np.abs(amps)
        i = int(np.argmax(fids))
        if fids[i] > best:
            best, arg = float(fids[i]), offset + i
        offset += fids.size
    return best, arg
