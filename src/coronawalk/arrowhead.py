"""Eigenpairs of arrowhead matrices by the secular equation, in pure Python.

The lifts of a base eigenvalue lam over a copy factor H are the eigenpairs
of the arrowhead [[lam, lam w^T], [lam w, diag(mu)]] on H's s main
eigenvalues mu and norms w = ||P_mu 1|| (`corona.lift_class`).  Over a
regular H (s = 1) `corona` solves the 2 x 2 pair in closed form; any larger
arrowhead comes here, so no lift loads numpy.  `corona` imports this
module only for such an H.
"""

from __future__ import annotations

import math

_EPS = 2.0 ** -52
# a cap on the steps for one root, which takes about four
_SECULAR_STEPS = 100


def secular_lifts(lam: float, poles: list[float], norms: list[float]):
    """The eigenpairs of the arrowhead [[lam, z^T], [z, diag(poles)]], z =
    lam norms, poles distinct and norms positive: its eigenvalues, descending,
    and unit eigenvectors (base, x), x in the order of the poles.

    Its eigenvalues are the roots of the secular equation f(theta) = theta -
    lam + sum_j z_j^2 / (mu_j - theta) = 0, f increasing between its poles
    mu_j: one root below the least pole, one in each gap and one above the
    largest (`_secular_root`), each held as an offset from its nearer pole.
    The eigenvector of theta is (1, z_j / (theta - mu_j)), normalised, with z
    recomputed from the roots by Loewner's formula z_j^2 = -prod_i (mu_j -
    theta_i) / prod_{i != j} (mu_j - mu_i), so that the roots are the exact
    eigenvalues of an arrowhead near this one and the vectors are orthogonal
    to working precision (Gu & Eisenstat, SIAM J. Matrix Anal. Appl. 16,
    1995).  lam = 0 is diagonal: 0 on the base and each pole on its own
    direction."""
    s = len(poles)
    if lam == 0:
        pairs = sorted([(0.0, 1.0, (0.0,) * s)] + [
            (mu, 0.0, tuple(float(i == j) for i in range(s))) for j, mu in enumerate(poles)],
            key=lambda pair: -pair[0])
        return [value for value, _, _ in pairs], [(base, x) for _, base, x in pairs]
    order = sorted(range(s), key=poles.__getitem__)
    mu = [poles[j] for j in order]
    z2 = [(lam * norms[j]) ** 2 for j in order]
    roots = [_secular_root(lam, mu, z2, k) for k in range(s + 1)]  # ascending (pole, offset)
    # -prod_i (mu_j - theta_i) / prod_{i != j} (mu_j - mu_i) root by root, each
    # pole i paired with a root on its side, theta_i below it or theta_{i+1}
    # above, so every ratio is near 1 and no product overflows
    acc = [-1.0] * s
    for i, (p, delta) in enumerate(roots):
        gaps = [(m - mu[p]) - delta for m in mu]  # mu_j - theta_i
        a, b = max(i - 1, 0), i + 1
        acc = ([x * g / (m - mu[i - 1]) for x, g, m in zip(acc[:a], gaps[:a], mu[:a])]
               + [x * g for x, g in zip(acc[a:b], gaps[a:b])]
               + [x * g / (m - mu[i]) for x, g, m in zip(acc[b:], gaps[b:], mu[b:])])
    z = [math.copysign(math.sqrt(x), lam) for x in acc]
    values, columns = [], []
    for p, delta in reversed(roots):
        x = [zj / (delta - (m - mu[p])) for zj, m in zip(z, mu)]
        scale = 1.0 / math.sqrt(1.0 + sum(c * c for c in x))
        coords = [0.0] * s
        for j, c in zip(order, x):
            coords[j] = c * scale
        values.append(mu[p] + delta)
        columns.append((scale, tuple(coords)))
    return values, columns


def _secular_root(lam: float, mu: list[float], z2: list[float], k: int) -> tuple[int, float]:
    """The k-th least root theta = mu[p] + delta of the secular equation of
    `secular_lifts` (mu ascending, z2 the squares z_j^2), as its nearer pole
    p and the offset delta, to full relative accuracy in delta.

    The root lies in (mu[k-1], mu[k]), or below mu[0] (k = 0) or above
    mu[s-1] (k = s), within max(lam, mu) +- ||z|| by Weyl's inequality; the
    sign of f at the midpoint of a gap picks the half, and so p.  Each step
    fits f and f' at the iterate with c + s1/(mu[k-1] - x) + s2/(mu[k] - x)
    (x + c + s1/(mu[p] - x) outside the poles), the derivative of the
    linear term going to the farther pole, and moves to that model's root, a
    quadratic's (R.-C. Li's "middle way", LAPACK Working Note 89); a step
    that leaves the bracket the signs of f keep is a bisection.  It stops
    where the step is below an ulp of delta or f lies within the rounding
    error of its own evaluation."""
    s = len(mu)
    if 0 < k < s:
        half = (mu[k] - mu[k - 1]) / 2
        mid = mu[k - 1] - lam + half + sum(w / ((m - mu[k - 1]) - half) for m, w in zip(mu, z2))
        p, lo, hi = (k - 1, 0.0, half) if mid >= 0 else (k, -half, 0.0)
        delta = hi if p == k - 1 else lo
    else:
        p = k - 1 if k else 0
        reach = abs(lam - mu[p]) + math.sqrt(sum(z2))
        lo, hi = (0.0, 2 * reach) if k else (-2 * reach, 0.0)
        delta = hi if k else lo
    d = [m - mu[p] for m in mu]
    d_below, d_above, z_below, z_above = d[:k], d[k:], z2[:k], z2[k:]
    shift = mu[p] - lam
    for _ in range(_SECULAR_STEPS):
        psi = dpsi = phi = dphi = 0.0
        for dj, wj in zip(d_below, z_below):
            r = 1.0 / (dj - delta)
            t = wj * r
            psi += t
            dpsi += t * r
        for dj, wj in zip(d_above, z_above):
            r = 1.0 / (dj - delta)
            t = wj * r
            phi += t
            dphi += t * r
        f = shift + delta + psi + phi
        if abs(f) <= 8 * _EPS * (abs(shift) + abs(delta) + phi - psi):
            break
        if f > 0:
            hi = delta
        else:
            lo = delta
        # the model's root, delta + tau: tau solves c tau^2 - b tau + f d1 d2 = 0
        # in a gap (d1 < tau < d2), tau^2 - b tau - f d1 = 0 outside the poles
        if 0 < k < s:
            d1, d2 = d[k - 1] - delta, d[k] - delta
            s1, s2 = d1 * d1 * (dpsi + (p == k)), d2 * d2 * (dphi + (p == k - 1))
            c = f - s1 / d1 - s2 / d2
            b = c * (d1 + d2) + s1 + s2
            q = (b + math.copysign(math.sqrt(max(b * b - 4 * c * f * d1 * d2, 0.0)), b)) / 2
            tau = next((x for x in (q / c if c else None, f * d1 * d2 / q if q else None)
                        if x is not None and d1 < x < d2), None)
        else:
            d1 = d[p] - delta
            b = d1 - f + d1 * (dpsi + dphi)
            q = (b + math.copysign(math.sqrt(max(b * b + 4 * f * d1, 0.0)), b)) / 2
            tau = ((max if k else min)(q, -f * d1 / q)) if q else 0.0
        new = None if tau is None else delta + tau
        if new is None or not lo < new < hi:
            new = (lo + hi) / 2
        if abs(new - delta) <= 2 * _EPS * abs(new):
            delta = new
            break
        delta = new
    return p, delta
