"""State-transfer analysis.

Periodicity tests on exact eigenvalue supports, full perfect-state-transfer
certification with 2-adic sign conditions, pointwise no-transfer scans on
coronas, and the structured time-family searches that realize pretty good
state transfer between lifted base vertices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corona import CoronaSpec, _check_base, corona_support_base_vertex, corona_terms
from .exact import QuadInt, gcd_list, two_adic_valuation
from .graphs import cocktail_antipode_map
from .spectral import (
    DEFAULT_COSPECTRAL_TOL,
    DEFAULT_SUPPORT_TOL,
    SpectralDecomposition,
    eigenvalue_support,
    entry_amplitudes,
    exp_sum_grid,
    strong_cospectral,
)

DEFAULT_ELL_MAX = 100_000
DEFAULT_TARGET = 0.99
_ALPHA_MAX = 64

PGST_FAMILIES = ("t51", "t52", "cocktail")


# ---------------------------------------------------------------------------
# periodicity

@dataclass(frozen=True)
class PeriodicityVerdict:
    periodic: str  # "yes" | "no" | "inconclusive"
    case: str | None = None  # "all-integer" | "quadratic" | None
    a: int | None = None
    delta: int | None = None
    witness_period: float | None = None
    reason: str | None = None


def periodicity_test(support: Sequence[QuadInt | float]) -> PeriodicityVerdict:
    """Decide vertex periodicity from an exact eigenvalue support.

    Periodic exactly when the support is all integers, or all of the shape
    (a + b*sqrt(delta))/2 for one shared integer a and square-free delta.
    Any inexact (float) entry makes the verdict inconclusive.
    """
    entries = list(support)
    if not entries:
        raise ValueError("empty eigenvalue support")
    if any(not isinstance(x, QuadInt) for x in entries):
        return PeriodicityVerdict("inconclusive", reason="inexact eigenvalue in support")
    entries.sort(key=lambda q: q.value(), reverse=True)
    fit = _common_quadratic_fit(entries)
    if fit is None:
        return PeriodicityVerdict(
            "no", reason="no shared (a, delta) quadratic form covers the support"
        )
    a, delta, bs = fit
    if delta == 1:
        diffs = [entries[0].as_integer() - q.as_integer() for q in entries[1:]]
        witness = 2.0 * math.pi / gcd_list(diffs) if any(diffs) else 2.0 * math.pi
        return PeriodicityVerdict("yes", case="all-integer", witness_period=witness)
    bdiffs = [bs[0] - b for b in bs[1:]]
    witness = (
        4.0 * math.pi / (gcd_list(bdiffs) * math.sqrt(delta)) if any(bdiffs) else None
    )
    return PeriodicityVerdict(
        "yes", case="quadratic", a=a, delta=delta, witness_period=witness
    )


def corona_base_periodicity(
    spec: CoronaSpec, g_decomp: SpectralDecomposition, v: int,
    support_tol: float = DEFAULT_SUPPORT_TOL,
) -> PeriodicityVerdict:
    """Periodicity of the lifted base vertex (v, 0) in the corona spec.

    Holds exactly when k = 0, 1 + 4m is an odd perfect square > 1, and the
    base support of v (read from g_decomp, the base's exact decomposition)
    is all integers or all nonzero integer multiples of a single
    sqrt(delta).  Evaluated directly on those three conditions.
    """
    k = spec.require_regular()
    if spec.n < 2:
        raise ValueError("base graph needs at least two vertices")
    if not spec.g.is_connected():
        raise ValueError("base graph must be connected")
    sup = eigenvalue_support(g_decomp, v, support_tol)
    if not sup.all_exact:
        return PeriodicityVerdict("inconclusive", reason="inexact base spectrum")
    if k != 0:
        return PeriodicityVerdict("no", reason="copy factor degree k >= 1")
    m = spec.m
    root = math.isqrt(1 + 4 * m)
    if root * root != 1 + 4 * m:
        return PeriodicityVerdict("no", reason="1 + 4m is not a perfect square")
    if not _integer_or_common_root_multiples(sup.exact):
        return PeriodicityVerdict(
            "no",
            reason="base support is neither all integers nor integer multiples "
            "of one square root",
        )
    lifted = corona_support_base_vertex(list(sup.exact), spec.main)
    verdict = periodicity_test(lifted)
    if verdict.periodic != "yes":
        raise RuntimeError("lifted support failed the periodicity test it implies")
    return verdict


def _integer_or_common_root_multiples(quads: Sequence[QuadInt]) -> bool:
    if all(q.is_rational_integer for q in quads):
        return True
    deltas = {q.delta for q in quads}
    if len(deltas) != 1 or 1 in deltas:
        return False
    # nonzero integer multiple of sqrt(delta): a = 0, b even and nonzero
    return all(q.a == 0 and q.b != 0 and q.b % 2 == 0 for q in quads)


def _common_quadratic_fit(
    quads: Sequence[QuadInt],
) -> tuple[int, int, list[int]] | None:
    """Fit values as (a + b_r sqrt(delta))/2 with one (a, delta).

    All-integer supports fit with a = 0, delta = 1, b_r = 2*value.  Returns
    None when two irrational entries disagree on a or delta, or an integer
    entry cannot share the common a.
    """
    irrational = [q for q in quads if not q.is_rational_integer]
    if not irrational:
        return 0, 1, [q.a for q in quads]
    a = irrational[0].a
    delta = irrational[0].delta
    bs: list[int] = []
    for q in quads:
        if q.is_rational_integer:
            if q.a != a:  # integer z participates only as (a + 0)/2, so 2z == a
                return None
            bs.append(0)
        else:
            if q.a != a or q.delta != delta:
                return None
            bs.append(q.b)
    return a, delta, bs


# ---------------------------------------------------------------------------
# perfect state transfer certification

@dataclass(frozen=True)
class PSTCertificate:
    verdict: str  # "PST" | "NoPST" | "Inconclusive"
    u: int
    v: int
    failure_reason: str | None = None
    a: int | None = None
    delta: int | None = None
    b_values: tuple[int, ...] | None = None
    d_values: tuple[int, ...] | None = None
    g: int | None = None
    alpha: int | None = None
    tau: float | None = None
    tau_symbolic: str | None = None
    phase: complex | None = None
    fidelity_at_tau: float | None = None


def pst_certify(
    d: SpectralDecomposition,
    u: int,
    v: int,
    support_tol: float = DEFAULT_SUPPORT_TOL,
    cospectral_tol: float = DEFAULT_COSPECTRAL_TOL,
) -> PSTCertificate:
    """Certify or refute perfect state transfer between u and v.

    Transfer happens exactly when (i) u, v are strongly cospectral, (ii) the
    support of u fits (a + b_r sqrt(delta))/2 with one integer pair
    (a, delta), and (iii) some alpha >= 0 matches the 2-adic norms of
    D_r = (lam_0 - lam_r)/sqrt(delta) against the projector entry signs:
    positive entries need |D_r|_2 < 2^-alpha, negative need equality.  The
    r = 0 class has D_0 = 0 and must carry a positive entry.  On success the
    minimal time is tau = pi / (g sqrt(delta)) with g = gcd(D_r).

    Classes in the support must carry exact labels; otherwise the verdict is
    Inconclusive rather than a guess.
    """
    if u == v:
        raise ValueError("perfect state transfer is between distinct vertices")
    sup = eigenvalue_support(d, u, support_tol)
    if len(sup) == 0:
        raise ValueError(f"vertex {u} has empty eigenvalue support")
    if not sup.all_exact:
        return PSTCertificate(
            "Inconclusive", u, v, failure_reason="inexact spectrum"
        )
    signs_by_class = strong_cospectral(d, u, v, cospectral_tol)
    if signs_by_class is None or set(signs_by_class) != set(sup.class_indices):
        return PSTCertificate(
            "NoPST", u, v, failure_reason="not strongly cospectral"
        )

    quads = list(sup.exact)  # already sorted by decreasing eigenvalue
    fit = _common_quadratic_fit(quads)
    if fit is None:
        return PSTCertificate(
            "NoPST", u, v, failure_reason="support not quadratic"
        )
    a, delta, bs = fit
    if any((bs[0] - b) % 2 for b in bs):
        return PSTCertificate(
            "NoPST", u, v, failure_reason="support not quadratic"
        )
    d_values = [(bs[0] - b) // 2 for b in bs]

    entry_signs = [signs_by_class[i] for i in sup.class_indices]
    alpha = _match_two_adic_pattern(d_values, entry_signs)
    if alpha is None:
        return PSTCertificate(
            "NoPST",
            u,
            v,
            a=a,
            delta=delta,
            b_values=tuple(bs),
            d_values=tuple(d_values),
            failure_reason="2-adic sign pattern fails",
        )

    g = gcd_list([x for x in d_values if x])
    tau = math.pi / (g * math.sqrt(delta))
    amp = complex(entry_amplitudes(d, u, v, tau))
    fid = abs(amp)
    if fid <= 1.0 - 1e-8:
        raise RuntimeError(
            f"certificate inconsistency: fidelity {fid} at the certified time"
        )
    return PSTCertificate(
        "PST",
        u,
        v,
        a=a,
        delta=delta,
        b_values=tuple(bs),
        d_values=tuple(d_values),
        g=g,
        alpha=alpha,
        tau=tau,
        tau_symbolic=_tau_symbolic(g, delta),
        phase=amp,
        fidelity_at_tau=fid,
    )


def _match_two_adic_pattern(d_values: Sequence[int], signs: Sequence[int]) -> int | None:
    """Smallest alpha in [0, 64] matching signs against 2-adic norms, else None."""
    if signs[0] <= 0:
        return None  # the top class has D_0 = 0, norm below every 2^-alpha
    checks = []
    for d_r, sign in zip(d_values[1:], signs[1:]):
        if d_r == 0:
            return None  # distinct support eigenvalues cannot repeat
        checks.append((two_adic_valuation(d_r), sign))
    for alpha in range(_ALPHA_MAX + 1):
        ok = all(
            (val == alpha) if sign < 0 else (val > alpha) for val, sign in checks
        )
        if ok:
            return alpha
    return None


def _tau_symbolic(g: int, delta: int) -> str:
    if delta == 1:
        return "pi" if g == 1 else f"pi/{g}"
    if g == 1:
        return f"pi/sqrt({delta})"
    return f"pi/({g}*sqrt({delta}))"


# ---------------------------------------------------------------------------
# no-transfer scans on coronas

@dataclass(frozen=True)
class NoTransferScan:
    pair_kind: str  # "base-base" | "base-copy"
    vertices: tuple[int, ...]
    samples: int
    max_fidelity: float
    argmax_time: float
    static_bound: float
    all_below_one: bool


def corona_no_pst_check(
    spec: CoronaSpec,
    g_decomp: SpectralDecomposition,
    pair: tuple,
    t_max: float,
    points: int,
) -> NoTransferScan:
    """Scan closed-form corona fidelities over np.linspace(0, t_max, points).

    pair is ("base-base", v, v') with v != v', or ("base-copy", v', v, w).
    Reports the grid maximum and its first time (the linspace element, bit
    for bit), whether every sample stays below 1, and the static bound
    sum_lam |E_lam[v,v']| (always <= 1) that caps the entry.  The grid is
    evaluated batch by batch and never held whole.
    """
    if points < 1:
        raise ValueError("a scan needs at least one time point")
    kind = pair[0]
    if kind == "base-base":
        _, v, vp = pair
        if v == vp:
            raise ValueError("base-base scans need distinct vertices")
        freqs, coefs = corona_terms(spec, g_decomp, vp, v)
        vertices = (v, vp)
    elif kind == "base-copy":
        _, vp, v, w = pair
        freqs, coefs = corona_terms(spec, g_decomp, vp, v, w)
        vertices = (vp, v, w)
    else:
        raise ValueError(f"unknown pair kind {kind!r}")
    step = t_max / (points - 1) if points > 1 else 0.0
    best, arg, offset = -1.0, 0, 0
    for amps in exp_sum_grid(freqs, coefs, 0.0, step, points):
        fids = np.abs(amps)
        i = int(np.argmax(fids))
        if fids[i] > best:
            best, arg = float(fids[i]), offset + i
        offset += fids.size
    # np.linspace puts t_max itself at the last point and i * step elsewhere
    argmax_time = float(t_max) if points > 1 and arg == points - 1 else arg * step
    bound = float(sum(abs(c.entry(v, vp)) for c in g_decomp.classes))
    return NoTransferScan(
        pair_kind=kind,
        vertices=vertices,
        samples=points,
        max_fidelity=best,
        argmax_time=argmax_time,
        static_bound=bound,
        all_below_one=best < 1.0,
    )


# ---------------------------------------------------------------------------
# pretty good state transfer searches

@dataclass(frozen=True)
class PGSTSearchResult:
    family: str
    u: int
    v: int
    g: int | None
    target: float
    ell_max: int
    best_ell: int
    best_time: float
    best_fidelity: float
    target_reached: bool
    trace: tuple[tuple[int, float], ...]  # strictly improving (ell, fidelity)


def pgst_search(
    spec: CoronaSpec,
    g_decomp: SpectralDecomposition,
    u: int,
    v: int,
    family: str,
    ell_max: int = DEFAULT_ELL_MAX,
    target: float = DEFAULT_TARGET,
    support_tol: float = DEFAULT_SUPPORT_TOL,
    cospectral_tol: float = DEFAULT_COSPECTRAL_TOL,
) -> PGSTSearchResult:
    """Sweep a structured time family for high corona base-to-base fidelity.

    Families (ell = 0..ell_max):
      t51      times (4*ell + 2/g) * pi; needs transfer in the base graph at
               pi/g with integer g and 0 outside the support of u.
      t52      times (4*ell + 1) * pi; needs 0 in the base spectrum and
               transfer at pi/2.
      cocktail times 8*ell*pi; needs the base graph to be a cocktail party
               graph on 2n vertices with odd n >= 3 and (u, v) antipodal.
    All families need a regular copy factor of nonzero degree.  The t51 and
    t52 gate certifies base transfer with pst_certify at support_tol and
    cospectral_tol, and t51 reads the support of u at support_tol.
    Records the strictly-improving best-so-far trace and stops once fidelity
    reaches the target; the family is evaluated one grid batch of ell values
    at a time, so an early stop evaluates at most one batch past the hit.
    """
    _check_base(spec, u)
    _check_base(spec, v)
    k = spec.require_regular()
    if k == 0:
        raise ValueError("pgst families need a copy factor of nonzero degree")
    if ell_max < 0:
        raise ValueError("ell_max must be nonnegative")
    g_value: int | None = None
    if family in ("t51", "t52"):
        cert = pst_certify(g_decomp, u, v, support_tol, cospectral_tol)
        if cert.verdict != "PST":
            raise ValueError(
                f"{family} family needs base transfer between {u} and {v}: "
                f"{cert.failure_reason or cert.verdict}"
            )
        g_value = cert.g
    # family times (slope * ell + offset) * pi
    if family == "t51":
        if cert.delta != 1:
            raise ValueError("t51 family needs base transfer time pi/g with integer g")
        support = eigenvalue_support(g_decomp, u, support_tol).exact
        if any(q == QuadInt.from_int(0) for q in support):
            raise ValueError("t51 family needs 0 outside the support of u")
        slope, offset = 4.0, 2.0 / g_value
    elif family == "t52":
        if cert.delta != 1 or cert.g != 2:
            raise ValueError("t52 family needs base transfer exactly at time pi/2")
        has_zero = any(
            c.exact == QuadInt.from_int(0) if c.exact is not None else abs(c.value) < 1e-9
            for c in g_decomp.classes
        )
        if not has_zero:
            raise ValueError("t52 family needs 0 in the base spectrum")
        slope, offset = 4.0, 1.0
    elif family == "cocktail":
        antipode = cocktail_antipode_map(spec.g)
        if antipode is None or (spec.g.n // 2) % 2 == 0 or spec.g.n < 6:
            raise ValueError(
                "cocktail family needs a cocktail party base graph on 2n "
                "vertices with odd n >= 3"
            )
        if antipode[u] != v:
            raise ValueError(f"vertices {u} and {v} are not antipodal")
        slope, offset = 8.0, 0.0
    else:
        raise ValueError(f"unknown pgst family {family!r}; use one of {PGST_FAMILIES}")

    freqs, coefs = corona_terms(spec, g_decomp, v, u)
    batches = exp_sum_grid(freqs, coefs, offset * math.pi, slope * math.pi, ell_max + 1)
    trace: list[tuple[int, float]] = []
    best = -1.0
    start = 0
    for amps in batches:
        fids = np.abs(amps)
        ells = np.arange(start, start + fids.size)
        start += fids.size
        hits = np.flatnonzero(fids >= target)
        if hits.size:
            ells, fids = ells[: hits[0] + 1], fids[: hits[0] + 1]
        before = np.maximum.accumulate(np.concatenate(([best], fids[:-1])))
        improved = np.flatnonzero(fids > before)
        trace.extend((int(ells[i]), float(fids[i])) for i in improved)
        best = trace[-1][1]
        if hits.size:
            break
    best_ell = trace[-1][0]
    return PGSTSearchResult(
        family=family,
        u=u,
        v=v,
        g=g_value,
        target=target,
        ell_max=ell_max,
        best_ell=best_ell,
        best_time=(slope * best_ell + offset) * math.pi,
        best_fidelity=best,
        target_reached=best >= target,
        trace=tuple(trace),
    )


# ---------------------------------------------------------------------------
# plain fidelity sweeps

@dataclass(frozen=True)
class FidelityTrace:
    times: np.ndarray
    values: np.ndarray
    best_index: int

    @property
    def best_time(self) -> float:
        return float(self.times[self.best_index])

    @property
    def best_value(self) -> float:
        return float(self.values[self.best_index])


def fidelity_sweep(
    d: SpectralDecomposition, u: int, v: int, t_max: float, steps: int
) -> FidelityTrace:
    """|U(t)_{u,v}| on the uniform grid t_j = j * t_max / (steps - 1)."""
    if steps < 2:
        raise ValueError("steps must be at least 2")
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    ts = np.linspace(0.0, float(t_max), int(steps))
    vals = np.abs(entry_amplitudes(d, u, v, ts))
    return FidelityTrace(times=ts, values=vals, best_index=int(np.argmax(vals)))


__all__ = [
    "PeriodicityVerdict",
    "periodicity_test",
    "corona_base_periodicity",
    "PSTCertificate",
    "pst_certify",
    "NoTransferScan",
    "corona_no_pst_check",
    "PGSTSearchResult",
    "pgst_search",
    "FidelityTrace",
    "fidelity_sweep",
    "PGST_FAMILIES",
    "DEFAULT_ELL_MAX",
    "DEFAULT_TARGET",
]
