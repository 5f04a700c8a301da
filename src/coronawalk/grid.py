"""|A(t)| on a uniform time grid t_j = t0 + j * dt, for `sweep`, `pgst` and
`no-pst-scan`, A(t) = sum_k c_k exp(-i theta_k t) a walk amplitude, its
terms Python floats (`transfer._walk_terms`).

One batch kernel (`moduli`), pure Python while a budget of term evaluations
lasts and numpy past it; one rule that sets the budget (`pure_budget`); two
readers, the first maximum (`first_max`) and the strictly improving trace
up to a target (`improving`); and a scan's certified best-first search
(`grid_max`), which hands the grid to the kernel past its own cap.  numpy
is imported only when a batch takes it, and `spectral` never.
"""

from __future__ import annotations

import heapq
import math
import operator
from typing import Iterable, Sequence

# time points per batch of the grid
GRID_BLOCK = 8192
# term evaluations (points times nonzero walk terms) a grid may spend in
# pure Python, about the cost of importing numpy
PURE_GRID_CAP = 2**17

# a grid interval whose bound on |A| is within this of the best point found
# is not searched: the margin of the certified maximum
_SCAN_EPS = 1e-12
# an interval of at most this many points is evaluated point by point
_SCAN_LEAF = 8
# the search spends 3.3 to 9 times its lower bound on the benchmark's scans
_SCAN_SPREAD = 3


def pure_budget(d, evaluations: int) -> int:
    """The term evaluations a grid on d's walk terms may spend in pure
    Python: the caller's prediction `evaluations` where it is at most
    PURE_GRID_CAP and d's classes are not float ones (`tolerant`), whose
    eigensolve has loaded numpy; else 0.  The one choice of route; the two
    routes differ in rounding alone."""
    return evaluations if not d.tolerant and evaluations <= PURE_GRID_CAP else 0


def moduli(freqs: Sequence[float], coefs: Sequence[float], t0: float, dt: float, count: int,
           budget: int):
    """Yield |A(t0 + j * dt)| for j < count, A(t) = sum_k coefs[k] exp(-i
    freqs[k] t), in batches of GRID_BLOCK points, the last one shorter.

    With j = s*block + q*a + r (r < a, q < b, a*b >= min(block, count)) it
    is sum_k w[k] coarse[k, q] fine[k, r], w = coefs * exp(-i freqs (t0 +
    s*block*dt)), fine[:, r] = exp(-i freqs r dt), coarse[:, q] = exp(-i
    freqs q a dt), a and b near sqrt(block): memory O(K sqrt(block) +
    block).  A batch is a pure Python iterator while the term evaluations
    spent, its own included, stay within `budget`; each later one an array,
    (w[:, None] * coarse)^T @ fine with numpy, its bits the same whichever
    batch numpy starts at.
    """
    if count <= 0:
        return
    size = min(GRID_BLOCK, count)
    a = math.isqrt(size - 1) + 1  # a * a >= size
    spent, fine, tables = 0, None, None
    for start in range(0, count, GRID_BLOCK):
        points = min(GRID_BLOCK, count - start)
        spent += points * len(freqs)
        if spent <= budget:
            if fine is None:
                fine = [[turn(f * (r * dt)) for f in freqs] for r in range(a)]
            yield _pure_batch(freqs, coefs, t0 + start * dt, dt, points, a, fine)
            continue
        if tables is None:
            import numpy as np

            fs, cs = np.asarray(freqs, dtype=float), np.asarray(coefs, dtype=float)
            # q * a for q < b = ceil(size / a)
            tables = (np.exp(-1j * np.multiply.outer(fs, np.arange(0, size, a) * dt)),
                      np.exp(-1j * np.multiply.outer(fs, np.arange(a) * dt)))
        coarse, fine_table = tables
        weights = cs * np.exp(-1j * fs * (t0 + start * dt))
        yield np.abs(((weights[:, None] * coarse).T @ fine_table).ravel()[:points])


def _pure_batch(freqs: Sequence[float], coefs: Sequence[float], t0: float, dt: float,
                points: int, a: int, fine: list[list[complex]]):
    """|A(t0 + j * dt)| for j < points, from `moduli`'s tables in pure
    Python: the numpy batch's sums, term by term in order."""
    for q in range(0, points, a):
        row = [c * turn(f * t0) * turn(f * (q * dt)) for f, c in zip(freqs, coefs)]
        for r in range(min(a, points - q)):
            yield abs(sum(map(operator.mul, row, fine[r]), 0j))


def turn(x: float) -> complex:
    """exp(-ix), as numpy's complex exp gives it."""
    return complex(math.cos(x), -math.sin(x))


def first_max(batches: Iterable) -> tuple[float, int]:
    """The largest value over the batches and its first index."""
    best, arg, start = -1.0, 0, 0
    for fids in batches:
        if hasattr(fids, "dtype"):
            i = int(fids.argmax())
        else:
            fids = list(fids)
            i = fids.index(max(fids))
        if fids[i] > best:
            best, arg = float(fids[i]), start + i
        start += len(fids)
    return best, arg


def improving(batches: Iterable, target: float) -> list[tuple[int, float]]:
    """The strictly improving trace (j, value) over `moduli`'s batches, up
    to the first value at the target; the batches after it are not made,
    nor is the rest of a pure Python batch, and a numpy batch that cannot
    beat the best so far is passed over whole."""
    trace: list[tuple[int, float]] = []
    best = -1.0
    for s, fids in enumerate(batches):
        if hasattr(fids, "dtype"):
            if fids.max() <= best:
                continue
            fids = fids.tolist()
        for j, fid in enumerate(fids, s * GRID_BLOCK):
            if fid > best:
                best = fid
                trace.append((j, fid))
                if fid >= target:
                    return trace
    return trace


def grid_max(freqs: Sequence[float], coefs: Sequence[float], step: float, points: int,
             budget: int) -> tuple[float, int]:
    """The maximum of |A(j * step)| over j < points and its j.

    No grid value exceeds it by more than _SCAN_EPS, and on a tie within
    that margin the j need not be the first (`_search`).  A search that
    would pass PURE_GRID_CAP term evaluations, or is predicted to, gives way
    to every point by `moduli` on `budget` (the caller's `pure_budget` of
    points times terms), and the first j of the maximum.
    """
    return (_search(freqs, coefs, step, points)
            or first_max(moduli(freqs, coefs, 0.0, step, points, budget)))


def _search(freqs: Sequence[float], coefs: Sequence[float], step: float,
            points: int) -> tuple[float, int] | None:
    """The grid maximum by best-first search, in pure Python; None past
    PURE_GRID_CAP, or where the search is predicted to pass it.

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

    An interval is dropped only where s_hi^2 M2/2 <= W = sum_k |c_k|, which
    bounds |A|, so a search over K nonzero terms to t_max spends at least
    about K t_max sqrt(M2/2W) term evaluations; where _SCAN_SPREAD times that
    passes the cap, it is not begun.
    """
    terms = [(f, c) for f, c in zip(freqs, coefs) if c]
    if not terms:
        return 0.0, 0
    weight = sum(abs(c) for _, c in terms)
    mean = sum(abs(c) * f for f, c in terms) / weight
    shifted = [(f, f - mean, c) for f, c in terms]
    half_curvature = sum(abs(c) * (f - mean) ** 2 for f, c in terms) / 2
    budget = PURE_GRID_CAP // len(terms)  # points the search may evaluate
    if _SCAN_SPREAD * (points - 1) * step * math.sqrt(half_curvature / weight) > budget:
        return None
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
