"""Command-line interface: graph-spec grammar, analysis subcommands, reports.

Each subcommand declares only the options its handler reads, and a flag is
the one source of its setting.  Every subcommand takes --format json|text
and --output; csv is a format of sweep alone.  --group-tol is on the
subcommands whose reports depend on which eigenvalues share a class
(spectrum, support, cospectral, periodic, pst, pgst); fidelity, sweep and
no-pst-scan report the walk amplitude, a sum over the classes that does
not, and group at the default.  --support-tol is on support, periodic, pst
and pgst, --cospectral-tol on cospectral, pst and pgst; they are read by the
decisions on float data alone: a `file:` leaf's classes, a corona over a
float factor, and a copy vertex over an irregular copy factor, whose lift
entry there is a float; a family, the other vertices of a corona of
families, and pst and periodic on a `file:` vertex of integral walk module
(`_walk_module`) are decided exactly.
--w is a usage error unless --pair is base-copy.  The help text is in
`helptext`, which only a call with -h or --help imports.

Only `graphs` and the defaults are loaded up front (the JSON string escaper
comes from `_json`, not `json`), so usage errors and corona-build load
neither numpy, `json` nor `exact`.  pgst and no-pst-scan first import
`gates` and run the gates their factor graphs decide (the dense budgets,
vertex ranges, distinct vertices, a regular copy factor of nonzero degree,
the cocktail family's base, and on a family base the t51 and t52 families'
base transfer, by theorem), so those analysis errors load no numpy either;
the graphs the gates build seed the handler's decompositions.  A scan
passes --v, --vp and --w (None for base-base) to its gates and scan, and on
a family base loads no numpy unless its best-first search for the grid
maximum passes its cap and hands the grid over
(`transfer.corona_no_pst_check`).  The t51 and t52 gate on a family base
hands its g to the search, which certifies the base transfer no second
time.  A pgst search on a family base loads numpy only past the first batch
of ell, which it enters in pure Python when the family's locked-gap bound
reaches --target (`transfer.locked_bound`): the bound chooses how the
values are computed, never a verdict or an ell, and the two ways'
fidelities agree to rounding.

Every handler reads its spec through one recursive dispatch,
`_decomposition`: a family by theorem (`leafspectra.FamilyDecomposition`,
which loads `exact` but neither numpy nor `spectral`), a `file:` leaf by
eigensolve (`spectral`, and numpy), and a corona from its factors'
decompositions (`coronaspectra`, which loads `corona`), its copy factor
read at the default group tol where it is irregular.  So a corona of
families, nested or not, loads no numpy, nor do pst and periodic on a
`file:` vertex of integral walk module, which they try first.  The searches
read the corona's walk terms through the same dispatch (`_search_corona`),
over a regular copy factor with no class of it.  Exact labels are
made for the readers of labels, spectrum, support, periodic, pst and the
t51 and t52 base gate of pgst: a `file:` leaf's by rank and a lift's by its
lift polynomial; fidelity, sweep, cospectral, no-pst-scan and a search's
lifts read the classes alone.  All answer the same vertex queries
(`leafspectra.Decomposition`).  cospectral on a spec that is no family
first compares closed-walk counts (`_walks_differ`): unequal ones refute
strong cospectrality exactly, with no numpy.  `transfer`, which loads numpy
only inside its grid analyses, serves sweep, periodic, pst, no-pst-scan and
pgst, and runs a sweep within `defaults.PURE_GRID_CAP` in pure Python.
corona-build checks the vertex and edge count of its spec against the
build budget before it builds.  No module uses `dataclasses` (records
are NamedTuples, eigenvalue classes plain `__slots__` classes), so no call
loads it, and a call that skips numpy loads no `inspect` either.

Reports are byte-deterministic for a fixed command line.  `dumps_report`
writes JSON in one walk, byte for byte as json.dumps(indent=2,
sort_keys=True, allow_nan=False) writes the values rounded to 15
significant digits: each run of floats (a float array or list) is formatted
by one `%.15g` call, whose text is already the repr of the rounded value
when it has a '.' and no exponent; any other text goes through repr.  A
value that rounds to inf or nan is an analysis error, so --t and --t-max
values that would are usage errors.  Text prints the report's leaves as
`path = value` lines.  Both writers share one normalisation step, `_plain`:
a record (a NamedTuple such as QuadInt) becomes its fields, a complex
{"im", "re"}, a numpy value (one with a dtype) its tolist(), so neither
imports numpy.  The sweep csv writes all its rows with one `%`
call.  A report parsed and re-emitted by json.dumps is unchanged.

`run_command` is the in-process entry point: it returns the exit code (only
--help exits, as argparse does).  `main`, the console script, runs it,
flushes stdout and stderr and ends the process with `os._exit`, skipping
interpreter teardown, so nothing the CLI loads may rely on an atexit
handler.  A stdout that cannot be written (a full device, a pipe closed by
its reader) is a usage error, as an unwritable --output is.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from _json import encode_basestring_ascii  # json.encoder's, without loading json

from . import graphs
from .defaults import (
    DEFAULT_COSPECTRAL_TOL,
    DEFAULT_ELL_MAX,
    DEFAULT_GROUP_TOL,
    DEFAULT_SUPPORT_TOL,
    DEFAULT_TARGET,
    PGST_FAMILIES,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ANALYSIS = 2


class GraphSpecError(ValueError):
    """Graph-spec text failed to parse; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# ---------------------------------------------------------------------------
# graph-spec grammar

def parse_graph_spec(text: str) -> graphs.GraphSpec:
    """Parse `path:N | cycle:N | complete:N | cocktail:N | empty:N | star:N |
    file:PATH | corona(SPEC,SPEC)`; coronas nest.  Whitespace may stand
    between tokens; PATH is the text up to the next ',' or ')' with its
    surrounding whitespace stripped.  Error positions index `text`."""
    if not text.strip():
        raise GraphSpecError("empty graph spec", 0)
    spec, pos = _parse_spec(text, _skip_space(text, 0))
    if pos != len(text):
        raise GraphSpecError(f"unexpected trailing text {text[pos:]!r}", pos)
    return spec


def _skip_space(s: str, i: int) -> int:
    while i < len(s) and s[i].isspace():
        i += 1
    return i


def _parse_spec(s: str, i: int) -> tuple[graphs.GraphSpec, int]:
    """The spec at s[i] and the position after it and the whitespace behind it."""
    head = i
    while head < len(s) and s[head].isalpha():
        head += 1
    kind = s[i:head]
    j = _skip_space(s, head)
    if kind == "corona" and s.startswith("(", j):
        left, j = _parse_spec(s, _skip_space(s, j + 1))
        if j >= len(s) or s[j] != ",":
            raise GraphSpecError("expected ',' between corona factors", j)
        right, j = _parse_spec(s, _skip_space(s, j + 1))
        if j >= len(s) or s[j] != ")":
            raise GraphSpecError("expected ')' closing corona", j)
        return graphs.GraphSpec("corona", factors=(left, right)), _skip_space(s, j + 1)
    if not kind or j >= len(s) or s[j] != ":":
        raise GraphSpecError("expected 'kind:value'", i)
    if kind == "file":
        tail = j + 1
        while tail < len(s) and s[tail] not in ",)":
            tail += 1
        path = s[j + 1 : tail].strip()
        if not path:
            raise GraphSpecError("empty file path", j + 1)
        return graphs.GraphSpec("file", path=path), tail
    if kind not in graphs.FAMILIES:
        raise GraphSpecError(f"unknown graph family {kind!r}", i)
    start = tail = _skip_space(s, j + 1)
    while tail < len(s) and graphs.is_decimal(s[tail]):
        tail += 1
    if tail == start:
        raise GraphSpecError(f"{kind} needs an integer size", start)
    size = int(s[start:tail])
    minimum = graphs.FAMILIES[kind].minimum
    if size < minimum:
        raise GraphSpecError(f"{kind}:{size} is out of range (minimum {minimum})", start)
    return graphs.GraphSpec(kind, size=size), _skip_space(s, tail)


# ---------------------------------------------------------------------------
# deterministic serialization

def _round15(x: float) -> float:
    return float(f"{float(x):.15g}")


def _plain(obj):
    """A record, complex or numpy value as the plain values it is written as."""
    if hasattr(obj, "_fields"):
        return obj._asdict()
    if isinstance(obj, complex):
        return {"im": obj.imag, "re": obj.real}
    if hasattr(obj, "dtype"):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _floats_json(values) -> list[str]:
    """JSON texts of Python floats rounded to 15 significant digits, formatted
    with one `%` call: a text with a '.' and no exponent is already the repr
    of its rounded value (15 digits identify one double), any other goes
    through repr.  A value that rounds to inf or nan raises as json.dumps
    does with allow_nan=False."""
    texts = (("%.15g," * len(values)) % tuple(values)).split(",")
    texts.pop()
    return [s if "." in s and "e" not in s else _float_repr(s) for s in texts]


def _float_repr(text: str) -> str:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    return repr(value)


def _json(obj, indent: str) -> str:
    """obj as json.dumps(indent=2, sort_keys=True, allow_nan=False) writes its
    values rounded to 15 significant digits, at nesting `indent`."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _floats_json((obj,))[0]
    inner = indent + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = sorted({str(k): v for k, v in obj.items()}.items())
        texts = [f"{encode_basestring_ascii(k)}: {_json(v, inner)}" for k, v in items]
        return "{\n" + inner + f",\n{inner}".join(texts) + "\n" + indent + "}"
    if isinstance(obj, (list, tuple)) and not hasattr(obj, "_fields"):
        if not obj:
            return "[]"
        if all(type(x) is float for x in obj):
            texts = _floats_json(obj)
        else:
            texts = [_json(x, inner) for x in obj]
        return "[\n" + inner + f",\n{inner}".join(texts) + "\n" + indent + "]"
    return _json(_plain(obj), indent)


def dumps_report(report: dict) -> str:
    """The report as json.dumps(indent=2, sort_keys=True, allow_nan=False) +
    newline writes its 15-digit values, byte for byte, in one walk."""
    return _json(report, "") + "\n"


def _text_lines(value, prefix: str = "") -> list[str]:
    """`path = value` lines of the report's leaves, floats at 15 digits."""
    if isinstance(value, dict):
        items = sorted({str(k): v for k, v in value.items()}.items())
        return [line for k, v in items for line in _text_lines(v, f"{prefix}{k}.")]
    if isinstance(value, (list, tuple)) and not hasattr(value, "_fields"):
        return [line for i, v in enumerate(value) for line in _text_lines(v, f"{prefix}{i}.")]
    if isinstance(value, float):
        value = _round15(value)
    elif not isinstance(value, (str, int)) and value is not None:
        return _text_lines(_plain(value), prefix)
    return [f"{prefix[:-1]} = {value}"]


def render_report(report: dict, fmt: str) -> str:
    """json, or text for any other --format: sweep renders its own csv."""
    if fmt == "json":
        return dumps_report(report)
    return "\n".join(_text_lines(report)) + "\n"


def _render_csv(header: tuple[str, str], left, right) -> str:
    """Two float columns (lists or arrays) under a header, each value at 15
    significant digits, the rows written by one `%` call."""
    columns = [c.tolist() if hasattr(c, "dtype") else c for c in (left, right)]
    flat = [x for row in zip(*columns) for x in row]
    return ",".join(header) + "\n" + ("%.15g,%.15g\n" * len(left)) % tuple(flat)


# ---------------------------------------------------------------------------
# shared helpers

def _class_record(c) -> dict:
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

def _decomposition(spec: graphs.GraphSpec, group_tol: float = DEFAULT_GROUP_TOL,
                   labelled: bool = False, built: dict | None = None):
    """The classes of spec with its vertex queries, the one dispatch of every
    handler, on the graphs in `built`, once spec's order has passed the dense
    budget: a family's by theorem (`leafspectra.FamilyDecomposition`),
    labelled, with no numpy; a `file:` leaf's float classes
    (`spectral.decompose`), with exact labels when `labelled`; and a
    corona's from its factors' (`coronaspectra.CoronaDecomposition`)."""
    built = {} if built is None else built
    graphs.check_budget(graphs.spec_order(spec, built))
    return _decompose(spec, group_tol, labelled, built, {})


def _decompose(spec: graphs.GraphSpec, group_tol: float, labelled: bool, built: dict,
               made: dict):
    """spec's decomposition at group_tol, made once per spec term and kept
    in `made`."""
    if (spec, group_tol) not in made:
        made[spec, group_tol] = _make(spec, group_tol, labelled, built, made)
    return made[spec, group_tol]


def _make(spec: graphs.GraphSpec, group_tol: float, labelled: bool, built: dict, made: dict):
    if spec.kind in graphs.FAMILIES:
        from .leafspectra import FamilyDecomposition

        return FamilyDecomposition(spec.kind, spec.size, group_tol)
    if spec.kind == "file":
        from . import spectral

        g = graphs.build_graph(spec, built)
        if labelled:
            return spectral.exact_decomposition(g, group_tol)
        return spectral.decompose(g.adjacency(), group_tol)
    from .corona import main_atoms
    from .coronaspectra import CoronaDecomposition

    base, copy = spec.factors
    h = graphs.build_graph(copy, built)
    # an irregular H's classes at the default, where none merges two of its
    # eigenvalues, so that its main atoms are its main eigenspaces
    h_decomp = _decompose(copy, DEFAULT_GROUP_TOL if h.is_regular() is None else group_tol,
                          labelled, built, made)
    return CoronaDecomposition(_decompose(base, group_tol, labelled, built, made), h_decomp,
                               *main_atoms(h_decomp, h), group_tol, labelled)


def _cmd_spectrum(args):
    d = _decomposition(args.spec, args.group_tol, labelled=True)
    return {
        "n": d.n,
        "classes": [_class_record(c) for c in d.classes],
    }, None


def _cmd_corona_build(args):
    _require_corona(args.spec, "corona-build")
    built: dict = {}
    graphs.check_build_budget(args.spec, built)
    g = graphs.build_graph(args.spec, built)
    if args.fmt == "text":
        return {}, graphs.write_edge_list(g)
    return {
        "n": g.n,
        "edge_count": g.edge_count,
        "edges": sorted(g.edges),
        "labels": [graphs.format_vertex_label(l) for l in g.labels],
    }, None


def _cmd_fidelity(args):
    amp = _decomposition(args.spec).amplitude(args.u, args.v, args.t)
    return {
        "u": args.u,
        "v": args.v,
        "t": args.t,
        "amplitude": amp,
        "fidelity": abs(amp),
    }, None


def _cmd_sweep(args):
    from . import transfer

    trace = transfer.fidelity_sweep(_decomposition(args.spec), args.u, args.v, args.t_max,
                                    args.steps)
    report = {
        "u": args.u,
        "v": args.v,
        "t_max": args.t_max,
        "steps": args.steps,
        "best_time": trace.best_time,
        "best_fidelity": trace.best_value,
        "times": trace.times,
        "fidelities": trace.values,
    }
    if args.fmt != "csv":
        return report, None
    return report, _render_csv(("t", "fidelity"), trace.times, trace.values)


def _cmd_support(args):
    d = _decomposition(args.spec, args.group_tol, labelled=True)
    sup = d.support(args.u, args.support_tol)
    return {
        "u": args.u,
        "classes": [_class_record(d.classes[i]) for i in sup.class_indices],
    }, None


def _cmd_cospectral(args):
    u, v = args.u, args.v
    built: dict = {}
    if args.spec.kind not in graphs.FAMILIES:
        n = graphs.spec_order(args.spec, built)
        graphs.check_budget(n)
        if u != v and 0 <= u < n and 0 <= v < n and _walks_differ(args.spec, built, u, v):
            return {"u": u, "v": v, "strongly_cospectral": False}, None
    d = _decomposition(args.spec, args.group_tol, built=built)
    signs = d.signs(u, v, args.cospectral_tol)
    report = {
        "u": u,
        "v": v,
        "strongly_cospectral": signs is not None,
    }
    if signs is not None:
        report["signs"] = [
            {"value": d.classes[i].value, "sign": sign} for i, sign in sorted(signs.items())
        ]
    return report, None


def _walks_differ(spec: graphs.GraphSpec, built: dict, u: int, v: int) -> bool:
    """Whether u and v have unequal closed-walk counts, which strongly
    cospectral vertices never have: an exact refutation, which wins over any
    tolerance.  Degrees (length 2) are read off the factors, and a `file:`
    leaf's every length to n - 1 within a work bound (`exact`)."""
    if graphs.spec_degree(spec, built, u) != graphs.spec_degree(spec, built, v):
        return True
    if spec.kind != "file":
        return False
    from .exact import closed_walk_witness

    g = graphs.build_graph(spec, built)
    return closed_walk_witness(g.edges, g.n, u, v) is not None


def _record(result) -> dict:
    """A result record as report fields, the fields that are None left out."""
    return {k: v for k, v in result._asdict().items() if v is not None}


def _walk_module(spec: graphs.GraphSpec, built: dict, u: int, v: int | None = None):
    """u's integral walk module on a `file:` leaf (`walkmodule`), u and v in
    range and distinct; else None, and the caller takes `_decomposition`."""
    if spec.kind != "file":
        return None
    g = graphs.build_graph(spec, built)
    if not 0 <= u < g.n or v is not None and (v == u or not 0 <= v < g.n):
        return None
    from .walkmodule import integral_module

    return integral_module(g, u)


def _cmd_periodic(args):
    from . import transfer

    built: dict = {}
    d = _walk_module(args.spec, built, args.u) or _decomposition(
        args.spec, args.group_tol, labelled=True, built=built)
    sup = d.support(args.u, args.support_tol)
    verdict = transfer.periodicity_test(sup.exact, sup.beyond_quadratic)
    return {"u": args.u, "vertex_test": _record(verdict)}, None


def _cmd_pst(args):
    from . import transfer

    built: dict = {}
    d = _walk_module(args.spec, built, args.u, args.v) or _decomposition(
        args.spec, args.group_tol, labelled=True, built=built)
    cert = transfer.pst_certify(d, args.u, args.v, args.support_tol, args.cospectral_tol)
    return _record(cert), None


def _search_corona(spec: graphs.GraphSpec, built: dict, group_tol: float = DEFAULT_GROUP_TOL,
                   labelled_base: bool = False):
    """The corona engine a search reads, by `_decomposition`'s dispatch on
    the graphs in `built`, past the factor budgets its gates met: its lifts
    unlabelled, on a base made first, labelled where the t51 and t52 gate
    reads it.  A search reads no copy class, so a regular copy factor gives
    only its order and main data (`coronaspectra.RegularCopy`)."""
    made: dict = {}
    base = _decompose(spec.factors[0], group_tol, labelled_base, built, made)
    h = graphs.build_graph(spec.factors[1], built)
    k = h.is_regular()
    if k is None:
        return _decompose(spec, group_tol, False, built, made)
    from .corona import regular_main
    from .coronaspectra import CoronaDecomposition, RegularCopy

    return CoronaDecomposition(base, RegularCopy(h.n), regular_main(k, h.n), {}, group_tol,
                               labelled=False)


def _cmd_no_pst_scan(args):
    _require_corona(args.spec)
    if args.pair == "base-base" and args.w is not None:
        raise _UsageError("argument --w: a base-base pair has no copy vertex")
    w = None if args.pair == "base-base" else args.w or 0
    from . import gates

    built: dict = {}
    gates.scan_gates(args.spec, built, args.v, args.vp, w)
    corona = _search_corona(args.spec, built)
    from . import transfer

    scan = transfer.corona_no_pst_check(corona, args.v, args.vp, args.t_max, args.points, w)
    return {"pair": args.pair, "t_max": args.t_max, **_record(scan)}, None


def _cmd_pgst(args):
    _require_corona(args.spec)
    from . import gates

    built: dict = {}
    base_g = gates.pgst_gates(args.spec, built, args.u, args.v, args.family, args.lmax,
                              args.group_tol, args.support_tol, args.cospectral_tol)
    # only the t51 and t52 base gate reads labels
    corona = _search_corona(args.spec, built, args.group_tol, args.family != "cocktail")
    from . import transfer

    result = transfer.pgst_search(corona, graphs.build_graph(args.spec.factors[0], built),
                                  args.u, args.v, args.family, ell_max=args.lmax,
                                  target=args.target, support_tol=args.support_tol,
                                  cospectral_tol=args.cospectral_tol, base_g=base_g)
    trace = [{"ell": e, "fidelity": f} for e, f in _printed_trace(result.trace)]
    return {**_record(result), "trace": trace}, None


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


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} must be >= 1")
    return value


def _finite_float(text: str) -> float:
    """A float that stays finite at the 15 significant digits a report prints."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{value} must be finite")
    if not math.isfinite(_round15(value)):
        raise argparse.ArgumentTypeError(f"{value} is infinite at 15 significant digits")
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


def _tolerance(text: str) -> float:
    value = float(text)
    if not 0.0 < value <= 1e-2:
        raise argparse.ArgumentTypeError(f"{value} must lie in (0, 1e-2]")
    return value


_TOLERANCE_DEFAULTS = {"group": DEFAULT_GROUP_TOL, "support": DEFAULT_SUPPORT_TOL,
                       "cospectral": DEFAULT_COSPECTRAL_TOL}


def _asks_for_help(argv: list[str]) -> bool:
    """-h, or --help or a prefix of it, which argparse takes as --help."""
    return any(a == "-h" or (len(a) > 2 and "--help".startswith(a)) for a in argv)


def _build_parser(text=None) -> _Parser:
    """The parser; `text` is the `helptext` module for a call that asks for
    help, else None, and the parser carries no help text."""
    commands = text.COMMANDS if text else {}
    options = text.OPTIONS if text else {}
    parser = _Parser(prog="coronawalk", description=text.DESCRIPTION if text else None,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, tolerances=(), needs_uv=(), formats=("json", "text")):
        """Declare a subcommand; returns its option declarer."""
        p = sub.add_parser(name, help=commands.get(name), description=commands.get(name))

        def arg(flag: str, **kwargs) -> None:
            p.add_argument(flag, help=options.get(f"{name} {flag}", options.get(flag)),
                           **kwargs)

        p.add_argument("spec_text", metavar="SPEC", help=options.get("SPEC"))
        for flag in needs_uv:
            arg(f"--{flag}", type=int, required=True)
        arg("--format", dest="fmt", default="json", choices=formats)
        arg("--output", default=None)
        for tol in tolerances:
            arg(f"--{tol}-tol", type=_tolerance, default=_TOLERANCE_DEFAULTS[tol])
        return arg

    add("spectrum", ("group",))
    add("corona-build")
    arg = add("fidelity", needs_uv=("u", "v"))
    arg("--t", type=_finite_float, required=True)
    arg = add("sweep", needs_uv=("u", "v"), formats=("json", "csv", "text"))
    arg("--t-max", type=_positive_finite, required=True)
    arg("--steps", type=_grid_size, required=True)
    add("support", ("group", "support"), needs_uv=("u",))
    add("cospectral", ("group", "cospectral"), needs_uv=("u", "v"))
    add("periodic", ("group", "support"), needs_uv=("u",))
    add("pst", ("group", "support", "cospectral"), needs_uv=("u", "v"))
    arg = add("no-pst-scan")
    arg("--pair", choices=("base-base", "base-copy"), required=True)
    arg("--v", type=int, required=True)
    arg("--vp", type=int, required=True)
    arg("--w", type=int)
    arg("--t-max", type=_positive_finite, default=50.0)
    arg("--points", type=_grid_size, default=10000)
    arg = add("pgst", ("group", "support", "cospectral"), needs_uv=("u", "v"))
    arg("--family", choices=PGST_FAMILIES, required=True)
    arg("--lmax", type=_positive_int, default=DEFAULT_ELL_MAX)
    arg("--target", type=_unit_fraction, default=DEFAULT_TARGET)
    return parser


def run_command(argv: list[str]) -> int:
    """Execute one subcommand; exit code 0 ok, 1 usage error, 2 analysis error."""
    text = None
    if _asks_for_help(argv):
        from . import helptext as text
    try:
        args = _build_parser(text).parse_args(argv)
        args.spec = parse_graph_spec(args.spec_text)
    except (_UsageError, GraphSpecError) as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE

    try:
        report, payload = _HANDLERS[args.command](args)
        report = {"command": args.command, "spec": str(args.spec), **report}
        if payload is None:
            payload = render_report(report, args.fmt)
    except (_UsageError, GraphSpecError) as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, RuntimeError) as err:
        print(f"analysis error: {err}", file=sys.stderr)
        return EXIT_ANALYSIS

    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as err:
            print(f"usage error: cannot write {args.output}: {err}", file=sys.stderr)
            return EXIT_USAGE
    else:
        try:
            sys.stdout.write(payload)
        except OSError as err:
            return _stdout_failed(err)
    return EXIT_OK


def _stdout_failed(err: OSError) -> int:
    print(f"usage error: cannot write stdout: {err}", file=sys.stderr)
    return EXIT_USAGE


def main() -> None:
    """Run one command, flush, and end the process without interpreter teardown."""
    code = run_command(sys.argv[1:])
    try:
        sys.stdout.flush()
    except OSError as err:
        # after a failed write run_command has said so; the flush fails again
        if code == EXIT_OK:
            code = _stdout_failed(err)
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    main()
