"""Independent reference checks of `coronawalk` reports.

Nothing here imports the package.  Adjacency matrices are built from the
workload's graph trees, coronas from the block form

    A(G * H) = [[A_G,            1_m^T (x) A_G],
                [1_m (x) A_G,    A_H (x) I_n ]]

(block layout [base | copy w=0 | copy w=1 | ...]), and spectra come from
LAPACK through numpy.linalg.eigh.  `check` returns a list of problems; an
empty list means the output is accepted.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from workloads import Invocation, family_edges

VALUE_TOL = 1e-8       # eigenvalue classes against the reference spectrum
AMP_TOL = 1e-6         # amplitudes and fidelities against the reference U(t)
PST_TOL = 1e-8         # certified PST reaches fidelity 1 - PST_TOL
GROUP_TOL = 1e-8       # grouping rule of the package's default --group-tol
SPOT_CHECKS = 256      # grid points re-evaluated per search or scan


def adjacency(tree: tuple) -> np.ndarray:
    if tree[0] == "family":
        n, edges = family_edges(tree[1], tree[2])
        return _from_edges(n, edges)
    if tree[0] == "file":
        return _from_edges(tree[2], tree[3])
    a_g = adjacency(tree[1])
    a_h = adjacency(tree[2])
    n, m = len(a_g), len(a_h)
    ones = np.ones((m, 1))
    return np.block([[a_g, np.kron(ones.T, a_g)],
                     [np.kron(ones, a_g), np.kron(a_h, np.eye(n))]])


def _from_edges(n: int, edges) -> np.ndarray:
    a = np.zeros((n, n))
    for u, v in edges:
        a[u, v] = a[v, u] = 1.0
    return a


class Spectrum:
    """eigh of an adjacency matrix, eigenvalues in decreasing order."""

    def __init__(self, a: np.ndarray):
        w, vecs = np.linalg.eigh(a)
        self.values = w[::-1]
        self.vectors = vecs[:, ::-1]
        self.n = len(w)
        gap = GROUP_TOL * max(1.0, float(np.max(np.abs(w))))
        bounds = [0] + [i for i in range(1, self.n)
                        if self.values[i - 1] - self.values[i] >= gap] + [self.n]
        self.groups = [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]

    def column_norm(self, group: tuple[int, int], u: int) -> float:
        lo, hi = group
        return float(np.linalg.norm(self.vectors[u, lo:hi]))

    def projector_column(self, group: tuple[int, int], u: int) -> np.ndarray:
        lo, hi = group
        block = self.vectors[:, lo:hi]
        return block @ block[u, :]

    def amplitudes(self, u: int, v: int, times) -> np.ndarray:
        ts = np.asarray(times, dtype=float).reshape(-1, 1)
        weights = self.vectors[u, :] * self.vectors[v, :]
        return np.exp(-1j * ts * self.values) @ weights


# ---------------------------------------------------------------------------

def check(inv: Invocation, exit_code: int, out: str, cache: dict) -> list[str]:
    """Problems with one invocation's exit code and stdout."""
    if exit_code != inv.expect_exit:
        return [f"exit code {exit_code}, expected {inv.expect_exit}"]
    if inv.expect_exit != 0:
        return [] if out == "" else ["failing call wrote to stdout"]
    args = _flags(inv.argv)
    spec = _spectrum(inv.graph, cache)
    try:
        if inv.command == "corona-build":
            return _check_edge_list(inv.graph, out)
        if args.get("--format") == "csv":
            return _check_sweep_csv(spec, args, out)
        report = json.loads(out)
    except (ValueError, KeyError, IndexError) as err:
        return [f"unparseable output: {err}"]
    if report.get("command") != inv.command:
        return [f"report command {report.get('command')!r}"]
    try:
        return _CHECKS[inv.command](inv, spec, args, report, cache)
    except (KeyError, TypeError, IndexError, ValueError) as err:
        return [f"malformed report: {type(err).__name__}: {err}"]


def _flags(argv) -> dict[str, str]:
    return {argv[i]: argv[i + 1] for i in range(2, len(argv) - 1, 2)}


def _spectrum(tree, cache) -> Spectrum:
    key = repr(tree)
    if key not in cache:
        cache[key] = Spectrum(adjacency(tree))
    return cache[key]


def _quad_value(q: dict) -> float:
    return (q["a"] + q["b"] * math.sqrt(q["delta"])) / 2.0


def _classes_match(classes, spec: Spectrum) -> list[str]:
    """Reported classes, in decreasing order, cover the reference spectrum."""
    problems = []
    if sum(c["multiplicity"] for c in classes) != spec.n:
        return [f"multiplicities sum to {sum(c['multiplicity'] for c in classes)}, "
                f"not {spec.n}"]
    i = 0
    for c in classes:
        ref = spec.values[i:i + c["multiplicity"]]
        i += c["multiplicity"]
        err = float(np.max(np.abs(ref - c["value"])))
        if err > VALUE_TOL:
            problems.append(f"class {c['value']} x{c['multiplicity']} is off by {err:.3g}")
        problems += _label_problems(c)
    return problems


def _label_problems(c: dict) -> list[str]:
    if "exact" in c and abs(_quad_value(c["exact"]) - c["value"]) > VALUE_TOL:
        return [f"exact label {c['exact']} does not evaluate to {c['value']}"]
    return []


def _group_of(spec: Spectrum, value: float) -> tuple[int, int] | None:
    for lo, hi in spec.groups:
        if abs(float(np.mean(spec.values[lo:hi])) - value) <= VALUE_TOL:
            return lo, hi
    return None


def _check_spectrum(inv, spec, args, report, cache):
    if report["n"] != spec.n:
        return [f"n={report['n']}, expected {spec.n}"]
    return _classes_match(report["classes"], spec)


def _check_support(inv, spec, args, report, cache):
    u = int(args["--u"])
    expected = [g for g in spec.groups if spec.column_norm(g, u) > 1e-6]
    unclear = [g for g in spec.groups if 1e-10 <= spec.column_norm(g, u) <= 1e-6]
    got = []
    for c in report["classes"]:
        g = _group_of(spec, c["value"])
        if g is None or g[1] - g[0] != c["multiplicity"]:
            return [f"support class {c['value']} x{c['multiplicity']} not in the spectrum"]
        got.append(g)
    problems = [p for c in report["classes"] for p in _label_problems(c)]
    if {g for g in got if g not in unclear} != set(expected):
        problems.append("support differs from the reference")
    return problems


def _cospectral_reference(spec: Spectrum, u: int, v: int):
    """(verdict or None when too close to the tolerance, signs by group)."""
    signs = {}
    for g in spec.groups:
        cu, cv = spec.projector_column(g, u), spec.projector_column(g, v)
        if max(np.linalg.norm(cu), np.linalg.norm(cv)) < 1e-9:
            continue
        plus, minus = float(np.max(np.abs(cu - cv))), float(np.max(np.abs(cu + cv)))
        if plus < 1e-9:
            signs[g] = 1
        elif minus < 1e-9:
            signs[g] = -1
        elif min(plus, minus) > 1e-5:
            return False, {}
        else:
            return None, {}
    return True, signs


def _check_cospectral(inv, spec, args, report, cache):
    u, v = int(args["--u"]), int(args["--v"])
    verdict, signs = _cospectral_reference(spec, u, v)
    if verdict is None:
        return []
    if report["strongly_cospectral"] != verdict:
        return [f"strongly_cospectral={report['strongly_cospectral']}, reference {verdict}"]
    if verdict:
        got = {_group_of(spec, s["value"]): s["sign"] for s in report["signs"]}
        if got != signs:
            return ["cospectral signs differ from the reference"]
    return []


def _check_amplitude(spec, u, v, t, amp: dict, fid: float) -> list[str]:
    ref = complex(spec.amplitudes(u, v, [t])[0])
    problems = []
    if abs(complex(amp["re"], amp["im"]) - ref) > AMP_TOL:
        problems.append(f"amplitude at t={t} is {amp}, reference {ref}")
    if abs(fid - abs(ref)) > AMP_TOL:
        problems.append(f"fidelity at t={t} is {fid}, reference {abs(ref)}")
    return problems


def _check_fidelity(inv, spec, args, report, cache):
    u, v, t = int(args["--u"]), int(args["--v"]), float(args["--t"])
    return _check_amplitude(spec, u, v, t, report["amplitude"], report["fidelity"])


def _sweep_problems(spec, args, times, fids) -> list[str]:
    u, v = int(args["--u"]), int(args["--v"])
    grid = np.linspace(0.0, float(args["--t-max"]), int(args["--steps"]))
    if len(times) != len(grid) or np.max(np.abs(np.asarray(times) - grid)) > 1e-9:
        return ["sweep grid differs from the requested one"]
    err = float(np.max(np.abs(np.abs(spec.amplitudes(u, v, grid)) - np.asarray(fids))))
    return [f"sweep fidelities off by {err:.3g}"] if err > AMP_TOL else []


def _check_sweep(inv, spec, args, report, cache):
    problems = _sweep_problems(spec, args, report["times"], report["fidelities"])
    best = int(np.argmax(report["fidelities"]))
    if report["best_fidelity"] != report["fidelities"][best] \
            or report["best_time"] != report["times"][best]:
        problems.append("best_time/best_fidelity is not the sweep maximum")
    return problems


def _check_sweep_csv(spec, args, out) -> list[str]:
    rows = list(csv.reader(io.StringIO(out)))
    if rows[0] != ["t", "fidelity"]:
        return [f"csv header {rows[0]}"]
    data = np.array([[float(x) for x in row] for row in rows[1:]])
    return _sweep_problems(spec, args, data[:, 0], data[:, 1])


def _check_periodic(inv, spec, args, report, cache):
    u = int(args["--u"])
    problems = []
    for key in ("vertex_test", "corona_base_test"):
        test = report.get(key)
        if test is None:
            continue
        if test["periodic"] not in ("yes", "no", "inconclusive"):
            problems.append(f"{key} verdict {test['periodic']!r}")
        period = test.get("witness_period")
        if test["periodic"] == "yes" and period is not None:
            fid = abs(complex(spec.amplitudes(u, u, [period])[0]))
            if fid < 1.0 - AMP_TOL:
                problems.append(f"{key}: |U(T)_uu| = {fid} at witness period {period}")
    return problems


def _check_pst(inv, spec, args, report, cache):
    u, v = int(args["--u"]), int(args["--v"])
    verdict = report["verdict"]
    if verdict == "PST":
        tau = report["tau"]
        expected_tau = math.pi / (report["g"] * math.sqrt(report["delta"]))
        fid = abs(complex(spec.amplitudes(u, v, [tau])[0]))
        problems = []
        if abs(tau - expected_tau) > 1e-12 * expected_tau:
            problems.append(f"tau {tau} is not pi/(g sqrt(delta))")
        if fid < 1.0 - PST_TOL:
            problems.append(f"PST certified but reference fidelity at tau is {fid}")
        if abs(report["fidelity_at_tau"] - fid) > AMP_TOL:
            problems.append(f"fidelity_at_tau {report['fidelity_at_tau']}, reference {fid}")
        return problems
    if verdict == "NoPST":
        if report["failure_reason"] == "not strongly cospectral" \
                and _cospectral_reference(spec, u, v)[0] is True:
            return ["NoPST for lack of strong cospectrality, but u, v are strongly cospectral"]
        return []
    if verdict == "Inconclusive":
        return []
    return [f"unknown verdict {verdict!r}"]


def _check_pgst(inv, spec, args, report, cache):
    u, v = int(args["--u"]), int(args["--v"])
    family = args["--family"]
    problems = []
    trace = report["trace"]
    ells = [e["ell"] for e in trace]
    fids = [e["fidelity"] for e in trace]
    # the report promises a strictly improving trace, as printed
    if any(b <= a for a, b in zip(ells, ells[1:])):
        problems.append("pgst trace ell does not strictly increase")
    if any(b <= a for a, b in zip(fids, fids[1:])):
        problems.append("pgst trace fidelity does not strictly increase")
    if trace and (ells[-1] != report["best_ell"] or fids[-1] != report["best_fidelity"]):
        problems.append("pgst trace does not end at the best value")
    if report["target_reached"] != (report["best_fidelity"] >= report["target"]):
        problems.append("target_reached disagrees with best_fidelity >= target")
    if inv.cap is not None and report["best_fidelity"] > inv.cap + AMP_TOL:
        problems.append(f"capped instance reached {report['best_fidelity']} above cap {inv.cap}")

    def times(ell_values):
        e = np.asarray(ell_values, dtype=float)
        if family == "t51":
            return (4.0 * e + 2.0 / report["g"]) * math.pi
        if family == "t52":
            return (4.0 * e + 1.0) * math.pi
        return 8.0 * e * math.pi

    best_time = float(times([report["best_ell"]])[0])
    if abs(report["best_time"] - best_time) > 1e-9 * max(1.0, best_time):
        problems.append(f"best_time {report['best_time']} is not the family time")
    ref = np.abs(spec.amplitudes(u, v, times(ells + [report["best_ell"]])))
    err = float(np.max(np.abs(ref - np.asarray(fids + [report["best_fidelity"]]))))
    if err > AMP_TOL:
        problems.append(f"pgst fidelities off the reference by {err:.3g}")
    # every ell scanned before the stop stays at or below the best value
    last = report["best_ell"] if report["target_reached"] else report["ell_max"]
    rng = np.random.default_rng(last)
    sample = rng.integers(0, last + 1, SPOT_CHECKS)
    worst = float(np.max(np.abs(spec.amplitudes(u, v, times(sample)))))
    if worst > report["best_fidelity"] + AMP_TOL:
        problems.append(f"scanned ell reaches {worst} above best_fidelity")
    return problems


def _check_scan(inv, spec, args, report, cache):
    problems = []
    base = _spectrum(inv.graph[1], cache)
    nb = base.n
    v, vp = int(args["--v"]), int(args["--vp"])
    if args["--pair"] == "base-base":
        rows = (v, vp)
        vertices = [v, vp]
    else:
        w = int(args.get("--w", 0))
        rows = (vp, nb + w * nb + v)
        vertices = [vp, v, w]
    if report["vertices"] != vertices:
        problems.append(f"vertices {report['vertices']}, expected {vertices}")
    points = int(args["--points"])
    grid_step = float(args["--t-max"]) / (points - 1)
    if report["samples"] != points:
        problems.append(f"samples {report['samples']}, expected {points}")
    index = report["argmax_time"] / grid_step
    if abs(index - round(index)) > 1e-6:
        problems.append("argmax_time is not a grid point")
    at_max = abs(complex(spec.amplitudes(*rows, [report["argmax_time"]])[0]))
    if abs(at_max - report["max_fidelity"]) > AMP_TOL:
        problems.append(f"max_fidelity {report['max_fidelity']}, reference {at_max}")
    rng = np.random.default_rng(points)
    sample = rng.integers(0, points, SPOT_CHECKS) * grid_step
    worst = float(np.max(np.abs(spec.amplitudes(*rows, sample))))
    if worst > report["max_fidelity"] + AMP_TOL:
        problems.append(f"grid point reaches {worst} above max_fidelity")
    # sum over base classes of |E[v, v']|, for either pair kind
    bound = sum(abs(float(base.projector_column(g, vp)[v])) for g in base.groups)
    if abs(bound - report["static_bound"]) > AMP_TOL:
        problems.append(f"static_bound {report['static_bound']}, reference {bound}")
    if report["all_below_one"] != (report["max_fidelity"] < 1.0):
        problems.append("all_below_one disagrees with max_fidelity")
    return problems


def _check_edge_list(tree, out: str) -> list[str]:
    ref = adjacency(tree)
    lines = [ln.split("#", 1)[0].strip() for ln in out.splitlines()]
    lines = [ln for ln in lines if ln]
    n = int(lines[0])
    got = np.zeros((n, n))
    for ln in lines[1:]:
        a, b = (int(x) for x in ln.split())
        got[a, b] = got[b, a] = 1.0
    if got.shape != ref.shape or not np.array_equal(got, ref):
        return ["corona-build edges differ from the block-form corona"]
    return []


_CHECKS = {
    "spectrum": _check_spectrum,
    "support": _check_support,
    "cospectral": _check_cospectral,
    "fidelity": _check_fidelity,
    "sweep": _check_sweep,
    "periodic": _check_periodic,
    "pst": _check_pst,
    "pgst": _check_pgst,
    "no-pst-scan": _check_scan,
}
