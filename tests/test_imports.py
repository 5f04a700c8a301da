"""The import graph follows the work: each check runs in a fresh interpreter,
so `sys.modules` starts clean, and reports which modules it loaded."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# no module of the package uses dataclasses, so no call may load it; the
# report writer takes its string escaper from _json, so none loads json; only
# a call that asks for help loads the help text
WATCHED = ("numpy", "dataclasses", "json", "coronawalk.exact", "coronawalk.gates",
           "coronawalk.corona", "coronawalk.spectral", "coronawalk.transfer",
           "coronawalk.helptext")
# numpy loads inspect, so only calls that skip numpy can be held to skip it
NUMPY_FREE = WATCHED + ("inspect",)

# prints {"code": <exit code or null>, "loaded": [watched modules in sys.modules]},
# the modules read before the probe itself imports json
PROBE = """
import sys
{body}
loaded = [m for m in {watched!r} if m in sys.modules]
import json
print(json.dumps({{"code": code, "loaded": loaded}}))
"""


def probe(body: str, watched=WATCHED) -> dict:
    path = os.pathsep.join([str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])
    res = subprocess.run([sys.executable, "-c", PROBE.format(body=body, watched=watched)],
                         env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, timeout=60, check=True)
    return json.loads(res.stdout.splitlines()[-1])


def run_quietly(argv) -> str:
    """Probe body: run_command on argv with its output discarded; the code of
    a --help call is that of the SystemExit argparse raises."""
    return ("import contextlib, io\nfrom coronawalk.cli import run_command\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "    try:\n"
            f"        code = run_command({list(argv)!r})\n"
            "    except SystemExit as stop:\n"
            "        code = stop.code")


@pytest.mark.parametrize("module", ["coronawalk", "coronawalk.cli"])
def test_import_loads_no_analysis_module(module):
    assert probe(f"import {module}\ncode = None", NUMPY_FREE) == {"code": None, "loaded": []}


@pytest.mark.parametrize(
    "argv, code, loaded",
    [
        (("spectrum", "cycle:2"), 1, []),
        (("sweep", "path:2", "--u", "0", "--v", "1", "--t-max", "3", "--steps", "1"), 1, []),
        (("spectrum", "path:3", "--group-tol", "0.5"), 1, []),
        (("pgst", "path:3", "--u", "0", "--v", "2", "--family", "t51"), 1, []),
        (("no-pst-scan", "corona(path:3,cycle:3)", "--pair", "base-base", "--v", "0",
          "--vp", "1", "--w", "9", "--points", "3"), 1, []),
        (("corona-build", "corona(path:4,complete:2)"), 0, []),
        (("corona-build", "corona(path:4,complete:2)", "--format", "text"), 0, []),
        (("pgst", "--help"), 0, ["coronawalk.helptext"]),
    ],
    ids=["bad-spec", "bad-flag", "bad-tolerance", "plain-spec-to-pgst", "base-base-w",
         "corona-build-json", "corona-build-text", "pgst-help"],
)
def test_usage_errors_and_corona_build_never_load_numpy(argv, code, loaded):
    """Nor does --help, which alone loads the help text."""
    assert probe(run_quietly(argv), NUMPY_FREE) == {"code": code, "loaded": loaded}


@pytest.mark.parametrize(
    "argv",
    [
        ("pgst", "corona(path:2,star:3)", "--u", "0", "--v", "1", "--family", "t51"),
        ("pgst", "corona(path:2,empty:3)", "--u", "0", "--v", "1", "--family", "t52"),
        ("pgst", "corona(cocktail:4,cycle:3)", "--u", "0", "--v", "1", "--family", "cocktail"),
        ("pgst", "corona(cycle:6,cycle:3)", "--u", "0", "--v", "3", "--family", "cocktail"),
        ("pgst", "corona(cocktail:3,cycle:3)", "--u", "0", "--v", "2", "--family", "cocktail"),
        ("pgst", "corona(path:2,cycle:3)", "--u", "2", "--v", "1", "--family", "t51"),
        ("pgst", "corona(path:2,cycle:3)", "--u", "1", "--v", "1", "--family", "t51"),
        ("no-pst-scan", "corona(path:3,cycle:3)", "--pair", "base-base", "--v", "1",
         "--vp", "1"),
        ("no-pst-scan", "corona(path:3,cycle:3)", "--pair", "base-copy", "--v", "0",
         "--vp", "1", "--w", "3"),
    ],
    ids=["irregular-h", "h-degree-0", "even-cocktail-size", "not-cocktail",
         "not-antipodal", "base-vertex-range", "pgst-same-vertex", "base-base-same-vertex",
         "w-range"],
)
def test_search_gate_failures_never_load_numpy(argv):
    """What the factor graphs alone decide fails before the analysis imports."""
    assert probe(run_quietly(argv), NUMPY_FREE) == {"code": 2, "loaded": ["coronawalk.gates"]}


def test_a_regular_file_copy_factor_past_the_budget_fails_the_gate_without_numpy(tmp_path):
    """The corona engine eigensolves a `file:` copy factor, regular or not, so
    the search gate holds it to the dense budget before numpy loads."""
    path = tmp_path / "c4097.edges"
    path.write_text("4097\n" + "".join(f"{i} {i + 1}\n" for i in range(4096)) + "0 4096\n",
                    encoding="utf-8")
    argv = ("pgst", f"corona(path:2,file:{path})", "--u", "0", "--v", "1", "--family", "t51")
    assert probe(run_quietly(argv), NUMPY_FREE) == {"code": 2, "loaded": ["coronawalk.gates"]}


def test_family_base_without_transfer_fails_the_pgst_gate_without_numpy():
    """path:3 transfers between its ends at pi/sqrt(2), not at pi/g with an
    integer g: the t51 gate decides that on the family's eigenspaces, in pure
    Python, before the analysis imports."""
    argv = ("pgst", "corona(path:3,cycle:3)", "--u", "0", "--v", "2", "--family", "t51")
    assert probe(run_quietly(argv), NUMPY_FREE) == {
        "code": 2, "loaded": ["coronawalk.exact", "coronawalk.gates", "coronawalk.transfer"]}


def test_lifts_over_a_path_load_no_numpy():
    """Over an irregular copy factor the lifts are the roots of the secular
    equation, in pure Python: lifting and labelling over path:5's main data,
    its three odd eigenspaces by theorem, loads neither numpy nor
    `spectral`."""
    body = ("from coronawalk.corona import lift_class, main_atoms\n"
            "from coronawalk.exact import QuadInt\n"
            "from coronawalk.graphs import path_graph\n"
            "from coronawalk.leafspectra import FamilyDecomposition\n"
            "main, keys = main_atoms(FamilyDecomposition('path', 5, 1e-8), path_graph(5))\n"
            "lifts = lift_class(1.0, QuadInt.from_int(1), main)\n"
            "code = [len(lifts), sorted(keys)]")
    assert probe(body, NUMPY_FREE) == {
        "code": [4, [0, 2, 4]], "loaded": ["coronawalk.exact", "coronawalk.corona"]}


def test_degree_refuted_cospectral_never_loads_numpy():
    """Base vertex 2 has degree (3 + 1) * 1 = 4, copy vertex 6 = (0, w1) has
    2 + 1 = 3: unequal degrees refute strong cospectrality exactly."""
    argv = ("cospectral", "corona(path:3,cycle:3)", "--u", "2", "--v", "6")
    assert probe(run_quietly(argv), NUMPY_FREE) == {"code": 0, "loaded": []}


def test_family_spectrum_loads_no_numpy():
    """A family's spectrum comes from the theorem, with no eigensolve: it loads
    neither numpy nor `spectral`, only `exact` for the labels."""
    assert probe(run_quietly(("spectrum", "complete:4")), NUMPY_FREE) == {
        "code": 0, "loaded": ["coronawalk.exact"]}


def test_family_spectrum_over_budget_loads_nothing():
    """The order is read off the spec, 2n for cocktail:n: past the dense
    budget the call fails before it loads an analysis module."""
    assert probe(run_quietly(("spectrum", "cocktail:2049")), NUMPY_FREE) == {
        "code": 2, "loaded": []}


ANALYSIS = ["numpy", "coronawalk.exact", "coronawalk.spectral"]
SEARCH = ["numpy", "coronawalk.exact", "coronawalk.gates", "coronawalk.corona",
          "coronawalk.spectral", "coronawalk.transfer"]


@pytest.mark.parametrize(
    "argv, loaded",
    [
        # a family's spectrum is read off the theorem, a file's off the eigensolve
        (("spectrum", "path:3"), ["coronawalk.exact"]),
        (("spectrum", "file:{path}"), ANALYSIS),
        (("fidelity", "path:2", "--u", "0", "--v", "1", "--t", "1"), ["coronawalk.exact"]),
        (("support", "file:{path}", "--u", "1"), ANALYSIS),
        # a family's vertex queries are decided by theorem, with no numpy
        (("support", "star:5", "--u", "0"), ["coronawalk.exact"]),
        (("cospectral", "path:3", "--u", "0", "--v", "2"), ["coronawalk.exact"]),
        (("sweep", "path:2", "--u", "0", "--v", "1", "--t-max", "3", "--steps", "5"),
         ANALYSIS + ["coronawalk.transfer"]),
        (("periodic", "path:3", "--u", "0"), ["coronawalk.exact", "coronawalk.transfer"]),
        (("pst", "path:3", "--u", "0", "--v", "2"), ["coronawalk.exact", "coronawalk.transfer"]),
        (("pst", "file:{path}", "--u", "0", "--v", "2"), ANALYSIS + ["coronawalk.transfer"]),
        # so are a family corona's over a regular copy factor, by its lifts
        (("spectrum", "corona(path:2,cycle:3)"), ["coronawalk.exact", "coronawalk.corona"]),
        (("periodic", "corona(path:2,empty:2)", "--u", "0"),
         ["coronawalk.exact", "coronawalk.corona", "coronawalk.transfer"]),
        (("support", "corona(path:3,cycle:4)", "--u", "5"),
         ["coronawalk.exact", "coronawalk.corona"]),
        (("cospectral", "corona(cycle:4,cycle:3)", "--u", "0", "--v", "2"),
         ["coronawalk.exact", "coronawalk.corona"]),
        (("pst", "corona(cycle:8,cycle:4)", "--u", "0", "--v", "4"),
         ["coronawalk.exact", "coronawalk.corona", "coronawalk.transfer"]),
        (("fidelity", "corona(cycle:4,cycle:3)", "--u", "11", "--v", "12", "--t", "0.5"),
         ["coronawalk.exact", "coronawalk.corona"]),
        # so are a family corona's over a path or star copy, by the secular
        # equation, and a nested family corona's; an irregular copy factor
        # read from a file gives its float classes
        (("spectrum", "corona(path:2,path:3)"), ["coronawalk.exact", "coronawalk.corona"]),
        (("spectrum", "corona(path:2,corona(path:3,empty:1))"),
         ["coronawalk.exact", "coronawalk.corona"]),
        (("support", "corona(corona(cycle:20,cycle:10),cycle:12)", "--u", "0"),
         ["coronawalk.exact", "coronawalk.corona"]),
        (("spectrum", "corona(path:2,file:{path})"),
         ["numpy", "coronawalk.exact", "coronawalk.corona", "coronawalk.spectral"]),
        # a scan searches its grid in pure Python; on a family base it loads
        # numpy only where the search passes its cap and hands the grid over
        (("no-pst-scan", "corona(path:2,cycle:3)", "--pair", "base-base", "--v", "0",
          "--vp", "1", "--points", "100"),
         ["coronawalk.exact", "coronawalk.gates", "coronawalk.corona", "coronawalk.transfer"]),
        (("no-pst-scan", "corona(file:{path},cycle:3)", "--pair", "base-base", "--v", "0",
          "--vp", "2", "--points", "100"), SEARCH),
        (("no-pst-scan", "corona(cocktail:7,cycle:5)", "--pair", "base-base", "--v", "0",
          "--vp", "2", "--t-max", "2000", "--points", "2000000"), SEARCH),
        # a search on a family base whose family reaches the target evaluates
        # its first batch of ell in pure Python, and stops there; a capped
        # family and a base read off an eigensolve take numpy
        (("pgst", "corona(path:2,cycle:3)", "--u", "0", "--v", "1", "--family", "t51",
          "--lmax", "100"),
         ["coronawalk.exact", "coronawalk.gates", "coronawalk.corona", "coronawalk.transfer"]),
        (("pgst", "corona(path:2,cycle:3)", "--u", "0", "--v", "1", "--family", "t51",
          "--lmax", "100000", "--target", "0.999"),
         ["coronawalk.exact", "coronawalk.gates", "coronawalk.corona", "coronawalk.transfer"]),
        (("pgst", "corona(cycle:4,cycle:3)", "--u", "0", "--v", "2", "--family", "t52",
          "--lmax", "10000"), SEARCH),
        (("pgst", "corona(file:{path2},cycle:3)", "--u", "0", "--v", "1", "--family", "t51",
          "--lmax", "100"), SEARCH),
    ],
    ids=["spectrum", "spectrum-file", "fidelity", "support-file", "support", "cospectral",
         "sweep", "periodic", "pst", "pst-file", "spectrum-corona", "periodic-corona",
         "support-corona", "cospectral-corona", "pst-corona", "fidelity-corona",
         "spectrum-path-copy", "spectrum-nested-copy", "support-nested-base",
         "spectrum-irregular-copy", "no-pst-scan", "no-pst-scan-file",
         "no-pst-scan-handover", "pgst",
         "pgst-early-stop", "pgst-capped", "pgst-file"],
)
def test_each_subcommand_loads_what_it_runs(argv, loaded, tmp_path):
    """Only the searches load `gates`, and only a corona spec loads `corona`."""
    path, path2 = tmp_path / "path3.txt", tmp_path / "path2.txt"
    path.write_text("3\n0 1\n1 2\n", encoding="utf-8")
    path2.write_text("2\n0 1\n", encoding="utf-8")
    argv = [a.format(path=path, path2=path2) for a in argv]
    assert probe(run_quietly(argv)) == {"code": 0, "loaded": loaded}


@pytest.mark.parametrize("argv, loaded", [
    (("no-pst-scan", "corona(path:2,cycle:3)", "--pair", "base-base", "--v", "0", "--vp", "1",
      "--points", "100"), ["coronawalk.gridmax"]),
    (("pgst", "corona(path:2,cycle:3)", "--u", "0", "--v", "1", "--family", "t51",
      "--lmax", "100"), []),
    (("pst", "path:3", "--u", "0", "--v", "2"), []),
], ids=["no-pst-scan", "pgst", "pst"])
def test_only_a_scan_loads_the_grid_search(argv, loaded):
    """The scan's grid search is a module of its own, which the other calls
    that load `transfer` do not compile."""
    assert probe(run_quietly(argv), ("coronawalk.gridmax",)) == {"code": 0, "loaded": loaded}


def test_every_exported_name_resolves():
    body = ("import coronawalk\n"
            "missing = [n for n in coronawalk.__all__ if getattr(coronawalk, n, None) is None]\n"
            "assert coronawalk.__all__ and not missing, missing\n"
            "from coronawalk import (CoronaDecomposition, cycle_graph,\n"
            "    empty_graph, exact_decomposition, path_graph, periodicity_test, pgst_search,\n"
            "    pst_certify)\n"
            "code = 0")
    assert probe(body)["code"] == 0


EVERY_SUBCOMMAND = [
    ("spectrum", "path:3"),
    ("corona-build", "corona(path:2,cycle:3)"),
    ("fidelity", "path:2", "--u", "0", "--v", "1", "--t", "1"),
    ("sweep", "path:2", "--u", "0", "--v", "1", "--t-max", "3", "--steps", "5"),
    ("support", "path:3", "--u", "1"),
    ("cospectral", "path:3", "--u", "0", "--v", "2"),
    ("periodic", "corona(path:2,empty:2)", "--u", "0"),
    ("pst", "path:3", "--u", "0", "--v", "2"),
    ("no-pst-scan", "corona(path:2,cycle:3)", "--pair", "base-base", "--v", "0",
     "--vp", "1", "--points", "100"),
    ("pgst", "corona(path:2,cycle:3)", "--u", "0", "--v", "1", "--family", "t51",
     "--lmax", "100"),
]


def test_cli_registers_no_exit_handler():
    """The console entry point ends in os._exit, which runs no atexit handler,
    so nothing the CLI loads may register one."""
    body = ("import atexit, contextlib, io\n"
            "registered = []\n"
            "_register = atexit.register\n"
            "def register(func, *args, **kwargs):\n"
            "    registered.append(repr(func))\n"
            "    return _register(func, *args, **kwargs)\n"
            "atexit.register = register\n"
            "before = atexit._ncallbacks()\n"
            "from coronawalk.cli import run_command\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    codes = [run_command(list(argv)) for argv in {EVERY_SUBCOMMAND!r}]\n"
            "code = {'codes': codes, 'registered': registered,\n"
            "        'added': atexit._ncallbacks() - before}")
    assert probe(body) == {
        "code": {"codes": [0] * 10, "registered": [], "added": 0},
        "loaded": SEARCH,
    }


@pytest.mark.parametrize("argv", [
    ("no-pst-scan", "corona(cocktail:3,path:3)", "--pair", "base-copy", "--v", "0", "--vp",
     "1", "--points", "100"),
    ("pgst", "corona(path:2,cycle:3)", "--u", "0", "--v", "1", "--family", "t51",
     "--lmax", "100"),
    ("pgst", "corona(cocktail:3,complete:4)", "--u", "0", "--v", "1", "--family", "cocktail",
     "--lmax", "100"),
    ("no-pst-scan", "corona(path:2,corona(path:3,empty:1))", "--pair", "base-base", "--v",
     "0", "--vp", "1", "--points", "100"),
], ids=["no-pst-scan", "pgst-t51", "pgst-cocktail", "no-pst-scan-corona-copy"])
def test_searches_on_family_factors_read_the_engine_without_numpy(argv):
    """The searches read the corona engine's walk terms, as every other
    corona command does: on family factors, nested ones too, they compile
    the engine and load neither numpy nor `spectral`."""
    watched = ("numpy", "coronawalk.spectral", "coronawalk.coronaspectra")
    assert probe(run_quietly(argv), watched) == {"code": 0,
                                                  "loaded": ["coronawalk.coronaspectra"]}


def test_walk_refuted_cospectral_on_a_file_loads_no_numpy(tmp_path):
    """Vertices 1 and 2 of a path on 6 vertices, written as a file with its
    vertices permuted, have degree 2 each but 5 and 6 closed walks of length
    4: the walk counts refute strong cospectrality exactly, with no
    eigensolve."""
    perm = [3, 0, 5, 1, 4, 2]
    path = tmp_path / "p6.edges"
    edges = sorted(tuple(sorted((perm[i], perm[i + 1]))) for i in range(5))
    path.write_text("6\n" + "".join(f"{a} {b}\n" for a, b in edges), encoding="utf-8")
    argv = ("cospectral", f"file:{path}", "--u", str(perm[1]), "--v", str(perm[2]))
    assert probe(run_quietly(argv), NUMPY_FREE) == {"code": 0, "loaded": ["coronawalk.exact"]}
