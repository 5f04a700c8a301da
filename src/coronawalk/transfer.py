"""State-transfer analysis.

Periodicity tests on exact eigenvalue supports, full perfect-state-transfer
certification with 2-adic sign conditions, pointwise no-transfer scans on
coronas, the structured time-family searches that realize pretty good
state transfer between lifted base vertices, and fidelity sweeps.  Sweeps
and searches run their own loops over the batches of one grid kernel,
`exp_sum_grid`; a scan finds its grid maximum by a certified best-first
search in pure Python (`gridmax`), and takes the kernel only past that
search's cap.

Every analysis here reads the decomposition it is given through the
vertex queries of `leafspectra.Decomposition`: the verdicts
(`periodicity_test`, `pst_certify` and the t51/t52 base gate
`base_transfer`) its support, signs and amplitude, and the grid analyses
its walk terms (`terms`: `fidelity_sweep` on any spec, the corona scan
and search on the corona engine, whose base the base gate and the scan's
static bound read).  The decomposition is a `file:` leaf's float classes
(`spectral.SpectralDecomposition`) or a vertex's walk module
(`walkmodule.WalkModule`), a family leaf's by theorem
(`leafspectra.FamilyDecomposition`) or a corona's from its factors'
(`coronaspectra.CoronaDecomposition`).  So this module loads numpy and
`spectral` only inside the grid analyses (scans, searches and sweeps):
`periodic` and `pst` on any but float classes, and a family base the pgst
gate refutes, load neither.  Nor does a sweep within PURE_GRID_CAP term
evaluations, nor a scan on a family base that ends within its cap, nor a
search on a family base that stops within its first batch of ell: that
batch is evaluated in pure Python when the family's locked-gap bound
(`locked_bound`) reaches the target.  The bound is the float forerunner of
a certified family cap; it is not reported and decides no verdict, only
how the values are computed, and its tolerance is one of that choice.  The
two corona analyses import `gates` when they run, so `pst`, `sweep` and
`periodic` never load it.
"""

from __future__ import annotations

import math
import operator
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .defaults import (
    DEFAULT_COSPECTRAL_TOL,
    DEFAULT_ELL_MAX,
    DEFAULT_SUPPORT_TOL,
    DEFAULT_TARGET,
    GRID_BLOCK,
    PURE_GRID_CAP,
)
from .exact import QuadInt, gcd_list, two_adic_valuation
from .graphs import Graph, check_distinct, copy_index

if TYPE_CHECKING:
    from .coronaspectra import CoronaDecomposition
    from .leafspectra import Decomposition


# ---------------------------------------------------------------------------
# periodicity

class PeriodicityVerdict(NamedTuple):
    periodic: str  # "yes" | "no" | "inconclusive"
    case: str | None = None  # "all-integer" | "quadratic" | None
    a: int | None = None
    delta: int | None = None
    witness_period: float | None = None
    reason: str | None = None


def periodicity_test(support: Iterable[QuadInt | float | None],
                     beyond_quadratic: bool = False) -> PeriodicityVerdict:
    """Decide vertex periodicity from an exact eigenvalue support, in any order.

    Periodic exactly when the support is all integers, or all of the shape
    (a + b*sqrt(delta))/2 for one shared integer a and square-free delta
    (Godsil's ratio condition).  An inexact (float or None) entry makes the
    verdict "no" when the support holds a value of degree > 2
    (`beyond_quadratic`, `corona.lift_class`), else inconclusive.
    """
    entries = list(support)
    if not entries:
        raise ValueError("empty eigenvalue support")
    if any(not isinstance(x, QuadInt) for x in entries):
        if beyond_quadratic:
            return PeriodicityVerdict("no", reason="support value of degree > 2")
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

class PSTCertificate(NamedTuple):
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


# a certified transfer whose float fidelity at tau falls this far below 1
# contradicts the exact verdict, an internal error
_CERTIFIED_FIDELITY_TOL = 1e-8


def pst_certify(
    d: Decomposition,
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
    NoPST where the support of u holds a value of degree > 2 (transfer from
    u makes u periodic), else Inconclusive rather than a guess.  d is any
    decomposition (module docstring): its `support` and `signs` take
    support_tol and cospectral_tol.
    """
    check_distinct(u, v)
    sup = d.support(u, support_tol)
    if not 0 <= v < d.n:  # before any verdict, which may not read v
        raise ValueError(f"vertex {v} out of range for dimension {d.n}")
    if not sup.class_indices:
        raise ValueError(f"vertex {u} has empty eigenvalue support")
    if not sup.all_exact:
        if sup.beyond_quadratic:
            return PSTCertificate("NoPST", u, v, failure_reason="support value of degree > 2")
        return PSTCertificate(
            "Inconclusive", u, v, failure_reason="inexact spectrum"
        )
    signs_by_class = d.signs(u, v, cospectral_tol)
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
    amp = d.amplitude(u, v, tau)
    fid = abs(amp)
    if fid <= 1.0 - _CERTIFIED_FIDELITY_TOL:
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
    """The valuation alpha that every negative entry's D_r shares (0 if none
    is negative) when every other entry's valuation exceeds it, else None."""
    if signs[0] <= 0:
        return None  # the top class has D_0 = 0, norm below every 2^-alpha
    checks = []
    for d_r, sign in zip(d_values[1:], signs[1:]):
        if d_r == 0:
            return None  # distinct support eigenvalues cannot repeat
        checks.append((two_adic_valuation(d_r), sign))
    negative = {val for val, sign in checks if sign < 0}
    alpha = min(negative, default=0)
    if len(negative) > 1 or any(val <= alpha for val, sign in checks if sign >= 0):
        return None
    return alpha


def _tau_symbolic(g: int, delta: int) -> str:
    if delta == 1:
        return "pi" if g == 1 else f"pi/{g}"
    if g == 1:
        return f"pi/sqrt({delta})"
    return f"pi/({g}*sqrt({delta}))"


# ---------------------------------------------------------------------------
# no-transfer scans on coronas

class NoTransferScan(NamedTuple):
    vertices: tuple[int, ...]  # (v, v') base-base, (v', v, w) base-copy
    samples: int
    max_fidelity: float
    argmax_time: float
    static_bound: float
    all_below_one: bool


def corona_no_pst_check(
    corona: CoronaDecomposition,
    v: int,
    vp: int,
    t_max: float,
    points: int,
    w: int | None = None,
) -> NoTransferScan:
    """Scan corona fidelities over np.linspace(0, t_max, points).

    The pair is base-base (v, 0), (v', 0) with v != v' when w is None, else
    base-copy (v', 0), (v, w), read off the corona engine's walk terms
    (`_walk_terms`).  Reports the grid maximum of |A(t_j)|, t_j = j * step,
    and its time (the linspace element, bit for bit), whether every sample
    stays below 1, and the static bound sum_lam |E_lam[v,v']| over the
    base's walk terms, one per class (always <= 1), that caps the entry.

    The maximum comes from `gridmax.grid_max`: a certified best-first
    search over the grid's index intervals, in pure Python, which drops an
    interval once a second-order bound on |A| over it is within 1e-12
    (`gridmax._SCAN_EPS`) of the best point found.  So no grid value
    exceeds the reported one by more than that, and on a tie within that
    margin the reported time need not be the first one.  A search that
    would pass 2^17 term evaluations (`defaults.PURE_GRID_CAP`), or is
    predicted to, hands the grid to numpy instead, which evaluates every
    point in batches of `spectral.exp_sum_grid` and reports the first time
    of the maximum.  The route reads the command's data alone.  The pair's gates
    (`gates.check_scan_pair`: distinct base-base vertices, vertex ranges)
    need no decomposition, so the CLI runs them before it loads any
    analysis.
    """
    from .gates import check_scan_pair
    from .gridmax import grid_max

    if points < 1:
        raise ValueError("a scan needs at least one time point")
    n = corona.base.n
    check_scan_pair(n, corona.copy.n, v, vp, w)
    x, y = (v, vp) if w is None else (vp, copy_index(n, v, w))
    freqs, coefs = _walk_terms(corona, x, y)
    step = t_max / (points - 1) if points > 1 else 0.0
    best, arg = grid_max(freqs, coefs, step, points)
    # np.linspace puts t_max itself at the last point and i * step elsewhere
    argmax_time = float(t_max) if points > 1 and arg == points - 1 else arg * step
    bound = float(sum(abs(entry) for _, entry in corona.base.terms(v, vp)))
    return NoTransferScan(
        vertices=(v, vp) if w is None else (vp, v, w),
        samples=points,
        max_fidelity=best,
        argmax_time=argmax_time,
        static_bound=bound,
        all_below_one=best < 1.0,
    )


def _walk_terms(d: Decomposition, x: int, y: int) -> tuple[list[float], list[float]]:
    """d's walk terms from x to y as (freqs, coefs), lists of Python floats,
    less the exactly 0 ones (on a corona a copy class's on a base vertex, a
    lift 0 on a layer), whose dropping changes no bit of a sum."""
    terms = [(value, entry) for value, entry in d.terms(x, y) if entry]
    return [value for value, _ in terms], [entry for _, entry in terms]


# ---------------------------------------------------------------------------
# pretty good state transfer searches

# an unlabelled base class this close to 0 counts as the t52 gate's eigenvalue 0
_ZERO_TOL = 1e-9


def base_transfer(
    d: Decomposition,
    u: int,
    v: int,
    family: str,
    support_tol: float,
    cospectral_tol: float,
) -> int:
    """The base gate of the t51 and t52 families on the base decomposition d
    (any, as `pst_certify` takes it); returns the g of the base transfer
    time pi/g.

    t51 needs transfer from u to v at pi/g with integer g, and 0 outside the
    support of u; t52 needs transfer at pi/2 and 0 in the base spectrum.
    Raises ValueError naming the first condition that fails.
    """
    cert = pst_certify(d, u, v, support_tol, cospectral_tol)
    if cert.verdict != "PST":
        raise ValueError(
            f"{family} family needs base transfer between {u} and {v}: "
            f"{cert.failure_reason or cert.verdict}"
        )
    if family == "t51":
        if cert.delta != 1:
            raise ValueError("t51 family needs base transfer time pi/g with integer g")
        if any(q == QuadInt.from_int(0) for q in d.support(u, support_tol).exact):
            raise ValueError("t51 family needs 0 outside the support of u")
    else:
        if cert.delta != 1 or cert.g != 2:
            raise ValueError("t52 family needs base transfer exactly at time pi/2")
        has_zero = any(
            c.exact == QuadInt.from_int(0) if c.exact is not None
            else abs(c.value) < _ZERO_TOL for c in d.classes
        )
        if not has_zero:
            raise ValueError("t52 family needs 0 in the base spectrum")
    return cert.g


class PGSTSearchResult(NamedTuple):
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
    corona: CoronaDecomposition,
    g: Graph,
    u: int,
    v: int,
    family: str,
    ell_max: int = DEFAULT_ELL_MAX,
    target: float = DEFAULT_TARGET,
    support_tol: float = DEFAULT_SUPPORT_TOL,
    cospectral_tol: float = DEFAULT_COSPECTRAL_TOL,
    base_g: int | None = None,
) -> PGSTSearchResult:
    """Sweep a structured time family for high corona base-to-base fidelity.

    Families (ell = 0..ell_max):
      t51      times (4*ell + 2/g) * pi; needs transfer in the base graph at
               pi/g with integer g and 0 outside the support of u.
      t52      times (4*ell + 1) * pi; needs 0 in the base spectrum and
               transfer at pi/2.
      cocktail times 8*ell*pi; needs the base graph to be a cocktail party
               graph on 2n vertices with odd n >= 3 and (u, v) antipodal.
    All families need a regular copy factor of nonzero degree, and t51 and
    t52 distinct u and v.  These gates, the vertex ranges and the cocktail
    base (`gates.check_pgst`, `gates.check_antipodal`) read only the factor
    graphs, so the CLI runs them before it loads numpy; they run here again
    for library callers, on the engine's orders and H's degree and on the
    base graph g.  The t51 and t52 gate (`base_transfer`) certifies base
    transfer on the engine's base, labelled, with pst_certify at support_tol
    and cospectral_tol, and t51 reads the support of u at support_tol; no
    other family, and no lift, reads a label.  A caller that has run that
    gate on an equal decomposition already (`gates.pgst_gates` on a family
    base) passes its g as base_g, and it is not run again.  The fidelities
    are the engine's walk terms from (u, 0) to (v, 0) (`_walk_terms`).
    Records the strictly-improving best-so-far trace and stops once fidelity
    reaches the target; the family is evaluated one grid batch of ell values
    at a time, so an early stop evaluates at most one batch past the hit, and
    a batch that cannot beat the best so far is skipped.

    On a family base (`leafspectra.FamilyDecomposition`) whose family is not
    capped below the target (`locked_bound`), the first batch is evaluated
    in pure Python, up to the hit (`_first_block`), and numpy and `spectral`
    are loaded only to go on past it, with the batches that follow it bit
    for bit.  Any other search evaluates every batch with numpy, as a base
    read off an eigensolve has loaded it already.  The choice reads the
    command's data alone, and changes no ell and no verdict: the two routes'
    fidelities differ in rounding alone.
    """
    from .gates import check_antipodal, check_pgst
    from .leafspectra import FamilyDecomposition

    base = corona.base
    check_pgst(base.n, corona.degree, u, v, family, ell_max)
    g_value: int | None = None
    # family times (slope * ell + offset) * pi
    if family == "cocktail":
        check_antipodal(g, u, v)
        slope, offset = 8.0, 0.0
    else:
        g_value = base_g or base_transfer(base, u, v, family, support_tol, cospectral_tol)
        slope, offset = 4.0, 2.0 / g_value if family == "t51" else 1.0

    freqs, coefs = _walk_terms(corona, u, v)
    t0, dt, count = offset * math.pi, slope * math.pi, ell_max + 1
    trace: list[tuple[int, float]] = []
    skip = 0
    if isinstance(base, FamilyDecomposition) and \
            locked_bound(freqs, coefs, slope, offset) >= target:
        trace, skip = _first_block(freqs, coefs, t0, dt, count, target), 1
    if (not trace or trace[-1][1] < target) and skip * GRID_BLOCK < count:
        _numpy_blocks(freqs, coefs, t0, dt, count, target, skip, trace)
    best_ell, best = trace[-1]
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


# two walk terms are locked along a family when their phases per step of ell
# differ by this little from a multiple of 2 pi
_LOCK_TOL = 1e-9


def locked_bound(freqs: Sequence[float], coefs: Sequence[float], slope: float,
                 offset: float) -> float:
    """A float cap on the fidelity |A(ell)| of the terms (freqs, coefs) at
    every family time (slope * ell + offset) * pi.

    Terms theta_j, theta_k are locked when (theta_j - theta_k) * slope / 2
    lies within _LOCK_TOL of an integer: their phases then turn together
    along ell, so |A(ell)| <= sum over groups G of locked terms of |sum_{k
    in G} c_k exp(-i theta_k offset pi)|.  It is 1/2 on the t52 family of
    C4 * C3 and 1/7 on the cocktail family of cocktail(7) * K3, the caps the
    acceptance checks derive.  It is the float form of the family cap that
    locked gaps give (Banchi, Coutinho, Godsil & Severini, J. Math. Phys.
    58, 032202, 2017), which a certified cap would decide in exact
    arithmetic.  `pgst_search` reads it only to choose how it computes, so
    its tolerance chooses a route and never a verdict.
    """
    groups: list[tuple[float, complex]] = []  # (first term's theta, group sum)
    for theta, c in zip(freqs, coefs):
        term = c * _turn(theta * offset * math.pi)
        for i, (first, total) in enumerate(groups):
            gap = (theta - first) * slope / 2
            if abs(gap - round(gap)) <= _LOCK_TOL:
                groups[i] = (first, total + term)
                break
        else:
            groups.append((theta, term))
    return sum(abs(total) for _, total in groups)


def _first_block(freqs: Sequence[float], coefs: Sequence[float], t0: float, dt: float,
                 count: int, target: float) -> list[tuple[int, float]]:
    """The strictly improving trace of |A| over the first batch of the grid
    t0 + ell * dt, up to its first ell at the target, in pure Python
    (`_grid_moduli`, on the batch `spectral.exp_sum_grid` makes)."""
    trace: list[tuple[int, float]] = []
    best = -1.0
    for ell, fid in enumerate(_grid_moduli(freqs, coefs, t0, dt, min(GRID_BLOCK, count))):
        if fid > best:
            best = fid
            trace.append((ell, fid))
            if fid >= target:
                break
    return trace


def _grid_moduli(freqs: Sequence[float], coefs: Sequence[float], t0: float, dt: float,
                 count: int):
    """Yield |A(t0 + j * dt)| for j < count, A(t) = sum_k coefs[k] exp(-i
    freqs[k] t), in pure Python, from the tables of one batch of
    `spectral.exp_sum_grid`: j = q*a + r, A = sum_k w[k] coarse[k][q]
    fine[k][r], w = coefs * exp(-i freqs t0); a row of coarse is made when
    the grid reaches it."""
    a = math.isqrt(count - 1) + 1
    fine = [[_turn(f * (r * dt)) for f in freqs] for r in range(a)]
    for q in range(0, count, a):
        row = [c * _turn(f * t0) * _turn(f * (q * dt)) for f, c in zip(freqs, coefs)]
        for r in range(min(a, count - q)):
            yield abs(sum(map(operator.mul, row, fine[r])))


def _turn(x: float) -> complex:
    """exp(-ix), as numpy's complex exp gives it."""
    return complex(math.cos(x), -math.sin(x))


def _numpy_blocks(freqs: Sequence[float], coefs: Sequence[float], t0: float, dt: float,
                  count: int, target: float, skip: int, trace: list[tuple[int, float]]) -> None:
    """Extend the strictly improving trace over the batches of the grid past
    the first `skip`, with numpy, up to the first ell at the target."""
    import numpy as np

    from .spectral import exp_sum_grid

    best = trace[-1][1] if trace else -1.0
    start = skip * GRID_BLOCK
    for amps in exp_sum_grid(np.asarray(freqs), np.asarray(coefs), t0, dt, count, skip):
        fids = np.abs(amps)
        start += fids.size
        if fids.max() <= best:  # best < target: nothing here improves or hits
            continue
        ells = np.arange(start - fids.size, start)
        hits = np.flatnonzero(fids >= target)
        if hits.size:
            ells, fids = ells[: hits[0] + 1], fids[: hits[0] + 1]
        before = np.maximum.accumulate(np.concatenate(([best], fids[:-1])))
        improved = np.flatnonzero(fids > before)
        trace.extend((int(ells[i]), float(fids[i])) for i in improved)
        best = trace[-1][1]
        if hits.size:
            break


# ---------------------------------------------------------------------------
# plain fidelity sweeps

class FidelityTrace(NamedTuple):
    times: Sequence[float]
    values: Sequence[float]
    best_index: int

    @property
    def best_time(self) -> float:
        return float(self.times[self.best_index])

    @property
    def best_value(self) -> float:
        return float(self.values[self.best_index])


def fidelity_sweep(
    d: Decomposition, u: int, v: int, t_max: float, steps: int
) -> FidelityTrace:
    """|U(t)_{u,v}| on the uniform grid t_j = j * t_max / (steps - 1), the
    last point t_max itself (np.linspace's values), from the walk terms of d
    less the exactly 0 ones (`_walk_terms`), with the first index of the
    maximum.

    Where steps times the terms left is at most PURE_GRID_CAP, the grid is
    evaluated in pure Python (`_grid_moduli`) and its times and values are
    lists; past it, with numpy in the batches of `spectral.exp_sum_grid`,
    as arrays.  The two differ in rounding alone, and the choice reads the
    command's data alone.
    """
    if steps < 2:
        raise ValueError("steps must be at least 2")
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    freqs, coefs = _walk_terms(d, u, v)
    step = t_max / (steps - 1)
    if steps * len(freqs) <= PURE_GRID_CAP:
        values = list(_grid_moduli(freqs, coefs, 0.0, step, steps))
        times = [j * step for j in range(steps - 1)] + [float(t_max)]
        return FidelityTrace(times, values, values.index(max(values)))
    import numpy as np

    from .spectral import exp_sum_grid

    ts = np.linspace(0.0, float(t_max), int(steps))
    batches = exp_sum_grid(np.asarray(freqs), np.asarray(coefs), 0.0, step, steps)
    vals = np.concatenate([np.abs(amps) for amps in batches])
    return FidelityTrace(times=ts, values=vals, best_index=int(np.argmax(vals)))
