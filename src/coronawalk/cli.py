"""Command-line interface: graph-spec grammar, analysis subcommands, reports.

Reports are byte-deterministic for a fixed command line: floats are rounded
to 15 significant digits before serialization and JSON keys are sorted, so
emitted documents survive a parse/re-emit round trip unchanged.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import corona, graphs, spectral, transfer
from .exact import QuadInt

ENV_PREFIX = "CORONAWALK_"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ANALYSIS = 2


class GraphSpecError(ValueError):
    """Graph-spec text failed to parse; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclasses.dataclass
class RunConfig:
    group_tol: float = spectral.DEFAULT_GROUP_TOL
    support_tol: float = spectral.DEFAULT_SUPPORT_TOL
    cospectral_tol: float = spectral.DEFAULT_COSPECTRAL_TOL
    ell_max: int = transfer.DEFAULT_ELL_MAX
    target: float = transfer.DEFAULT_TARGET
    fmt: str = "json"
    output: str | None = None

    def validate(self) -> None:
        for name in ("group_tol", "support_tol", "cospectral_tol"):
            tol = getattr(self, name)
            if not 0.0 < tol <= 1e-2:
                raise ValueError(f"{name} must lie in (0, 1e-2], got {tol}")
        if self.ell_max < 1:
            raise ValueError("ell_max must be >= 1")
        if not 0.0 < self.target <= 1.0:
            raise ValueError("target fidelity must lie in (0, 1]")


# ---------------------------------------------------------------------------
# graph-spec grammar

def parse_graph_spec(text: str) -> graphs.GraphSpec:
    """Parse `path:N | cycle:N | complete:N | cocktail:N | empty:N | star:N |
    file:PATH | corona(SPEC,SPEC)`, whitespace-insensitive, coronas nest."""
    compact = "".join(text.split())
    if not compact:
        raise GraphSpecError("empty graph spec", 0)
    spec, pos = _parse_spec(compact, 0)
    if pos != len(compact):
        raise GraphSpecError(f"unexpected trailing text {compact[pos:]!r}", pos)
    return spec


_SIZE_MINIMA = {"cycle": 3}


def _parse_spec(s: str, i: int) -> tuple[graphs.GraphSpec, int]:
    if s.startswith("corona(", i):
        left, j = _parse_spec(s, i + len("corona("))
        if j >= len(s) or s[j] != ",":
            raise GraphSpecError("expected ',' between corona factors", j)
        right, j = _parse_spec(s, j + 1)
        if j >= len(s) or s[j] != ")":
            raise GraphSpecError("expected ')' closing corona", j)
        return graphs.GraphSpec("corona", factors=(left, right)), j + 1
    head = i
    while head < len(s) and s[head].isalpha():
        head += 1
    kind = s[i:head]
    if head >= len(s) or s[head] != ":":
        raise GraphSpecError("expected 'kind:value'", i)
    if kind == "file":
        tail = head + 1
        while tail < len(s) and s[tail] not in ",)":
            tail += 1
        if tail == head + 1:
            raise GraphSpecError("empty file path", head + 1)
        return graphs.GraphSpec("file", path=s[head + 1 : tail]), tail
    if kind not in graphs.FAMILY_KINDS:
        raise GraphSpecError(f"unknown graph family {kind!r}", i)
    tail = head + 1
    while tail < len(s) and s[tail].isdigit():
        tail += 1
    if tail == head + 1:
        raise GraphSpecError(f"{kind} needs an integer size", head + 1)
    size = int(s[head + 1 : tail])
    if size < _SIZE_MINIMA.get(kind, 1):
        raise GraphSpecError(
            f"{kind}:{size} is out of range (minimum {_SIZE_MINIMA.get(kind, 1)})",
            head + 1,
        )
    return graphs.GraphSpec(kind, size=size), tail


# ---------------------------------------------------------------------------
# deterministic serialization

def _round15(x: float) -> float:
    return float(f"{float(x):.15g}")


def _canon(obj):
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return _round15(obj)
    if isinstance(obj, complex):
        return {"im": _round15(obj.imag), "re": _round15(obj.real)}
    if isinstance(obj, QuadInt):
        return {"a": obj.a, "b": obj.b, "delta": obj.delta}
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return _round15(float(obj))
    if isinstance(obj, np.ndarray):
        return [_canon(x) for x in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canon(x) for x in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_report(report: dict) -> str:
    return json.dumps(_canon(report), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _text_lines(value, prefix: str = "") -> list[str]:
    if isinstance(value, dict):
        lines = []
        for key in sorted(value):
            lines.extend(_text_lines(value[key], f"{prefix}{key}."))
        return lines
    if isinstance(value, (list, tuple)):
        lines = []
        for idx, item in enumerate(value):
            lines.extend(_text_lines(item, f"{prefix}{idx}."))
        return lines
    return [f"{prefix[:-1]} = {value}"]


def render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return dumps_report(report)
    if fmt == "text":
        return "\n".join(_text_lines(_canon(report))) + "\n"
    raise ValueError(f"format {fmt!r} is not supported for this report")


def _render_csv(rows: list[tuple], header: tuple[str, ...]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{_round15(x):.15g}" if isinstance(x, float) else str(x)
                              for x in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# shared helpers

def _class_record(c: spectral.EigenClass) -> dict:
    rec: dict = {"value": c.value, "multiplicity": c.multiplicity}
    if c.exact is not None:
        rec["exact"] = c.exact
    return rec


def _require_corona(spec: graphs.GraphSpec, who: str = "this subcommand") -> None:
    if spec.kind != "corona":
        raise GraphSpecError(f"{who} needs a corona(...) spec", 0)


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (report_dict, payload_or_None); a payload
# is the handler's own rendering of --format (sweep csv, corona-build text)

def _cmd_spectrum(args, cfg: RunConfig):
    d = corona.SpecFactors(cfg.group_tol).decomposition(args.spec)
    return {
        "command": "spectrum",
        "spec": str(args.spec),
        "n": d.n,
        "classes": [_class_record(c) for c in d.classes],
    }, None


def _cmd_corona_build(args, cfg: RunConfig):
    _require_corona(args.spec, "corona-build")
    g = graphs.build_family(args.spec)
    report = {
        "command": "corona-build",
        "spec": str(args.spec),
        "n": g.n,
        "edge_count": g.edge_count,
        "edges": [list(e) for e in sorted(g.edges)],
        "labels": [graphs.format_vertex_label(l) for l in g.labels],
    }
    return report, graphs.write_edge_list(g) if cfg.fmt == "text" else None


def _cmd_fidelity(args, cfg: RunConfig):
    d = corona.SpecFactors(cfg.group_tol, exact=False).decomposition(args.spec)
    amp = complex(spectral.entry_amplitudes(d, args.u, args.v, args.t))
    return {
        "command": "fidelity",
        "spec": str(args.spec),
        "u": args.u,
        "v": args.v,
        "t": args.t,
        "amplitude": amp,
        "fidelity": abs(amp),
    }, None


def _cmd_sweep(args, cfg: RunConfig):
    d = corona.SpecFactors(cfg.group_tol, exact=False).decomposition(args.spec)
    trace = transfer.fidelity_sweep(d, args.u, args.v, args.t_max, args.steps)
    report = {
        "command": "sweep",
        "spec": str(args.spec),
        "u": args.u,
        "v": args.v,
        "t_max": args.t_max,
        "steps": args.steps,
        "best_time": trace.best_time,
        "best_fidelity": trace.best_value,
        "times": trace.times,
        "fidelities": trace.values,
    }
    if cfg.fmt != "csv":
        return report, None
    return report, _render_csv(
        [(float(t), float(f)) for t, f in zip(trace.times, trace.values)],
        ("t", "fidelity"),
    )


def _cmd_support(args, cfg: RunConfig):
    d = corona.SpecFactors(cfg.group_tol).decomposition(args.spec)
    sup = spectral.eigenvalue_support(d, args.u, cfg.support_tol)
    return {
        "command": "support",
        "spec": str(args.spec),
        "u": args.u,
        "classes": [_class_record(d.classes[i]) for i in sup.class_indices],
    }, None


def _cmd_cospectral(args, cfg: RunConfig):
    d = corona.SpecFactors(cfg.group_tol, exact=False).decomposition(args.spec)
    signs = spectral.strong_cospectral(d, args.u, args.v, cfg.cospectral_tol)
    report = {
        "command": "cospectral",
        "spec": str(args.spec),
        "u": args.u,
        "v": args.v,
        "strongly_cospectral": signs is not None,
    }
    if signs is not None:
        report["signs"] = [
            {"value": d.classes[i].value, "sign": sign} for i, sign in sorted(signs.items())
        ]
    return report, None


def _verdict_record(verdict: transfer.PeriodicityVerdict) -> dict:
    return {k: v for k, v in dataclasses.asdict(verdict).items() if v is not None}


def _cmd_periodic(args, cfg: RunConfig):
    factors = corona.SpecFactors(cfg.group_tol)
    d = factors.decomposition(args.spec)
    sup = spectral.eigenvalue_support(d, args.u, cfg.support_tol)
    entries = [q if q is not None else v for q, v in zip(sup.exact, sup.values)]
    verdict = transfer.periodicity_test(entries)
    report = {
        "command": "periodic",
        "spec": str(args.spec),
        "u": args.u,
        "vertex_test": _verdict_record(verdict),
    }
    if args.spec.kind == "corona":
        cspec = factors.corona(args.spec)
        if args.u < cspec.n and cspec.k is not None and cspec.n >= 2 \
                and cspec.g.is_connected():
            lifted = transfer.corona_base_periodicity(
                cspec, factors.decomposition(args.spec.factors[0]), args.u,
                cfg.support_tol,
            )
            report["corona_base_test"] = _verdict_record(lifted)
    return report, None


def _cmd_pst(args, cfg: RunConfig):
    d = corona.SpecFactors(cfg.group_tol).decomposition(args.spec)
    cert = transfer.pst_certify(d, args.u, args.v, cfg.support_tol, cfg.cospectral_tol)
    report = {
        "command": "pst",
        "spec": str(args.spec),
        "u": args.u,
        "v": args.v,
        "verdict": cert.verdict,
    }
    for field in ("failure_reason", "a", "delta", "g", "alpha", "tau",
                  "tau_symbolic", "phase", "fidelity_at_tau"):
        value = getattr(cert, field)
        if value is not None:
            report[field] = value
    if cert.b_values is not None:
        report["b_values"] = list(cert.b_values)
    if cert.d_values is not None:
        report["d_values"] = list(cert.d_values)
    return report, None


def _cmd_no_pst_scan(args, cfg: RunConfig):
    _require_corona(args.spec)
    cspec, g_decomp = corona.SpecFactors(cfg.group_tol).corona_context(args.spec)
    ts = np.linspace(0.0, args.t_max, args.points)
    if args.pair == "base-base":
        pair = ("base-base", args.v, args.vp)
    else:
        pair = ("base-copy", args.vp, args.v, args.w)
    scan = transfer.corona_no_pst_check(cspec, g_decomp, pair, ts)
    return {
        "command": "no-pst-scan",
        "spec": str(args.spec),
        "pair": args.pair,
        "vertices": list(scan.vertices),
        "t_max": args.t_max,
        "samples": scan.samples,
        "max_fidelity": scan.max_fidelity,
        "argmax_time": scan.argmax_time,
        "static_bound": scan.static_bound,
        "all_below_one": scan.all_below_one,
    }, None


def _cmd_pgst(args, cfg: RunConfig):
    _require_corona(args.spec)
    cspec, g_decomp = corona.SpecFactors(cfg.group_tol).corona_context(args.spec)
    result = transfer.pgst_search(
        cspec, g_decomp, args.u, args.v, args.family,
        ell_max=args.lmax if args.lmax is not None else cfg.ell_max,
        target=args.target if args.target is not None else cfg.target,
    )
    report = {
        "command": "pgst",
        "spec": str(args.spec),
        "family": result.family,
        "u": result.u,
        "v": result.v,
        "target": result.target,
        "ell_max": result.ell_max,
        "best_ell": result.best_ell,
        "best_time": result.best_time,
        "best_fidelity": result.best_fidelity,
        "target_reached": result.target_reached,
        "trace": [{"ell": e, "fidelity": f} for e, f in _printed_trace(result.trace)],
    }
    if result.g is not None:
        report["g"] = result.g
    return report, None


def _printed_trace(trace) -> list[tuple[int, float]]:
    """The trace minus entries whose 15-digit fidelity does not print below the
    next kept one, so the report stays strictly improving as printed."""
    kept = [trace[-1]]
    for ell, fid in reversed(trace[:-1]):
        if _round15(fid) < _round15(kept[-1][1]):
            kept.append((ell, fid))
    return kept[::-1]


_HANDLERS = {
    "spectrum": _cmd_spectrum,
    "corona-build": _cmd_corona_build,
    "fidelity": _cmd_fidelity,
    "sweep": _cmd_sweep,
    "support": _cmd_support,
    "cospectral": _cmd_cospectral,
    "periodic": _cmd_periodic,
    "pst": _cmd_pst,
    "no-pst-scan": _cmd_no_pst_scan,
    "pgst": _cmd_pgst,
}


# ---------------------------------------------------------------------------
# argument parsing

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _env_default(name: str, cast, fallback):
    raw = os.environ.get(ENV_PREFIX + name)
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except ValueError as err:
        raise _UsageError(f"bad {ENV_PREFIX}{name}={raw!r}: {err}") from err


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} must be >= 1")
    return value


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{value} must be finite")
    return value


def _positive_finite(text: str) -> float:
    value = _finite_float(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"{value} must be positive")
    return value


def _grid_size(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"{value} must be >= 2")
    return value


def _unit_fraction(text: str) -> float:
    value = float(text)
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"{value} must lie in (0, 1]")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="coronawalk", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, needs_uv=(), extra=None):
        p = sub.add_parser(name)
        p.add_argument("spec_text", metavar="SPEC")
        for flag in needs_uv:
            p.add_argument(f"--{flag}", type=int, required=True)
        p.add_argument("--format", dest="fmt", default="json",
                       choices=("json", "csv", "text"))
        p.add_argument("--output", default=None)
        p.add_argument("--group-tol", type=float,
                       default=_env_default("GROUP_TOL", float, spectral.DEFAULT_GROUP_TOL))
        p.add_argument("--support-tol", type=float,
                       default=_env_default("SUPPORT_TOL", float, spectral.DEFAULT_SUPPORT_TOL))
        p.add_argument("--cospectral-tol", type=float,
                       default=_env_default("COSPECTRAL_TOL", float,
                                            spectral.DEFAULT_COSPECTRAL_TOL))
        if extra:
            extra(p)
        return p

    add("spectrum")
    add("corona-build")
    add("fidelity", needs_uv=("u", "v"),
        extra=lambda p: p.add_argument("--t", type=_finite_float, required=True))

    def sweep_extra(p):
        p.add_argument("--t-max", type=_positive_finite, required=True)
        p.add_argument("--steps", type=_grid_size, required=True)

    add("sweep", needs_uv=("u", "v"), extra=sweep_extra)
    add("support", needs_uv=("u",))
    add("cospectral", needs_uv=("u", "v"))
    add("periodic", needs_uv=("u",))
    add("pst", needs_uv=("u", "v"))

    def scan_extra(p):
        p.add_argument("--pair", choices=("base-base", "base-copy"), required=True)
        p.add_argument("--v", type=int, required=True)
        p.add_argument("--vp", type=int, required=True)
        p.add_argument("--w", type=int, default=0)
        p.add_argument("--t-max", type=_positive_finite, default=50.0)
        p.add_argument("--points", type=_grid_size, default=10000)

    add("no-pst-scan", extra=scan_extra)

    def pgst_extra(p):
        p.add_argument("--family", choices=transfer.PGST_FAMILIES, required=True)
        p.add_argument("--lmax", type=_positive_int, default=None)
        p.add_argument("--target", type=_unit_fraction, default=None)

    add("pgst", needs_uv=("u", "v"), extra=pgst_extra)
    return parser


def run_command(argv: list[str]) -> int:
    """Execute one subcommand; exit code 0 ok, 1 usage error, 2 analysis error."""
    try:
        # built inside the guard: defaults read the CORONAWALK_* environment
        parser = _build_parser()
        args = parser.parse_args(argv)
        args.spec = parse_graph_spec(args.spec_text)
        cfg = RunConfig(
            group_tol=args.group_tol,
            support_tol=args.support_tol,
            cospectral_tol=args.cospectral_tol,
            ell_max=_env_default("LMAX", int, transfer.DEFAULT_ELL_MAX),
            target=_env_default("TARGET", float, transfer.DEFAULT_TARGET),
            fmt=args.fmt,
            output=args.output,
        )
        cfg.validate()
    except (_UsageError, GraphSpecError) as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE

    try:
        report, payload = _HANDLERS[args.command](args, cfg)
        if payload is None and cfg.fmt == "csv":
            print(f"usage error: {args.command} has no csv form", file=sys.stderr)
            return EXIT_USAGE
        if payload is None:
            payload = render_report(report, cfg.fmt)
    except GraphSpecError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, RuntimeError) as err:
        print(f"analysis error: {err}", file=sys.stderr)
        return EXIT_ANALYSIS

    if cfg.output:
        try:
            with open(cfg.output, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as err:
            print(f"usage error: cannot write {cfg.output}: {err}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(payload)
    return EXIT_OK


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
