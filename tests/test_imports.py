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


def test_a_regular_file_copy_factor_past_the_budget_passes_the_search_gates(tmp_path):
    """A search reads a regular copy factor's order and main data by theorem
    and no class of it, so a `file:` cycle on 4097 vertices passes the
    search gates, and the search on a family base loads no numpy; an
    irregular `file:` copy factor is eigensolved, and the gate holds it to
    the dense budget before numpy loads."""
    path = tmp_path / "c4097.edges"
    path.write_text("4097\n" + "".join(f"{i} {i + 1}\n" for i in range(4096)) + "0 4096\n",
                    encoding="utf-8")
    argv = ("pgst", f"corona(path:2,file:{path})", "--u", "0", "--v", "1", "--family", "t51",
            "--lmax", "100")
    assert probe(run_quietly(argv), ("numpy", "coronawalk.spectral")) == {
        "code": 0, "loaded": []}
    path.write_text("4097\n" + "".join(f"{i} {i + 1}\n" for i in range(4096)), encoding="utf-8")
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
# a search on family factors whose grid passes the pure-Python cap
GRID = [m for m in SEARCH if m != "coronawalk.spectral"]


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
        # a sweep within the pure-Python grid cap loads no numpy, a longer one
        # does, and no grid loads `spectral`
        (("sweep", "path:2", "--u", "0", "--v", "1", "--t-max", "3", "--steps", "5"),
         ["coronawalk.exact", "coronawalk.transfer"]),
        (("sweep", "path:2", "--u", "0", "--v", "1", "--t-max", "3", "--steps", "70000"),
         ["numpy", "coronawalk.exact", "coronawalk.transfer"]),
        (("periodic", "path:3", "--u", "0"), ["coronawalk.exact", "coronawalk.transfer"]),
        (("pst", "path:3", "--u", "0", "--v", "2"), ["coronawalk.exact", "coronawalk.transfer"]),
        # a file's vertex whose support values are not all integers (+-sqrt(2)
        # on path:3) is eigensolved; the hypercube's are read off its walk module
        (("pst", "file:{path}", "--u", "0", "--v", "2"), ANALYSIS + ["coronawalk.transfer"]),
        (("pst", "file:{cube}", "--u", "0", "--v", "7"),
         ["coronawalk.exact", "coronawalk.transfer"]),
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
        # numpy, and not `spectral`, only where the search passes its cap and
        # hands the grid over
        (("no-pst-scan", "corona(path:2,cycle:3)", "--pair", "base-base", "--v", "0",
          "--vp", "1", "--points", "100"),
         ["coronawalk.exact", "coronawalk.gates", "coronawalk.corona", "coronawalk.transfer"]),
        (("no-pst-scan", "corona(file:{path},cycle:3)", "--pair", "base-base", "--v", "0",
          "--vp", "2", "--points", "100"), SEARCH),
        (("no-pst-scan", "corona(cocktail:7,cycle:5)", "--pair", "base-base", "--v", "0",
          "--vp", "2", "--t-max", "2000", "--points", "2000000"), GRID),
        # a search on a family base whose family reaches the target evaluates
        # its first batch of ell in pure Python, and stops there; a capped
        # family runs in pure Python within the grid cap and with numpy past
        # it, without `spectral`; a base read off an eigensolve takes numpy
        (("pgst", "corona(path:2,cycle:3)", "--u", "0", "--v", "1", "--family", "t51",
          "--lmax", "100"),
         ["coronawalk.exact", "coronawalk.gates", "coronawalk.corona", "coronawalk.transfer"]),
        (("pgst", "corona(path:2,cycle:3)", "--u", "0", "--v", "1", "--family", "t51",
          "--lmax", "100000", "--target", "0.999"),
         ["coronawalk.exact", "coronawalk.gates", "coronawalk.corona", "coronawalk.transfer"]),
        (("pgst", "corona(cycle:4,cycle:3)", "--u", "0", "--v", "2", "--family", "t52",
          "--lmax", "10000"),
         ["coronawalk.exact", "coronawalk.gates", "coronawalk.corona", "coronawalk.transfer"]),
        (("pgst", "corona(cycle:4,cycle:3)", "--u", "0", "--v", "2", "--family", "t52",
          "--lmax", "100000"), GRID),
        # a search over an integral `file:` base (K2, the cube) reads it off
        # the walk module of the row it reads, with no numpy, as it reads a
        # family base by theorem
        (("pgst", "corona(file:{path2},cycle:3)", "--u", "0", "--v", "1", "--family", "t51",
          "--lmax", "100"),
         ["coronawalk.exact", "coronawalk.gates", "coronawalk.corona", "coronawalk.transfer"]),
        (("no-pst-scan", "corona(file:{cube},cycle:3)", "--pair", "base-copy", "--v", "7",
          "--vp", "0", "--w", "1", "--points", "2000"),
         ["coronawalk.exact", "coronawalk.gates", "coronawalk.corona", "coronawalk.transfer"]),
        # the cube and an isolated vertex: u's module holds no 0, and t52
        # reads the whole spectrum, so the base is eigensolved
        (("pgst", "corona(file:{cube1},cycle:3)", "--u", "0", "--v", "7", "--family", "t52",
          "--lmax", "100"), SEARCH),
    ],
    ids=["spectrum", "spectrum-file", "fidelity", "support-file", "support", "cospectral",
         "sweep", "sweep-past-the-cap", "periodic", "pst", "pst-file", "pst-integral-file",
         "spectrum-corona", "periodic-corona",
         "support-corona", "cospectral-corona", "pst-corona", "fidelity-corona",
         "spectrum-path-copy", "spectrum-nested-copy", "support-nested-base",
         "spectrum-irregular-copy", "no-pst-scan", "no-pst-scan-file",
         "no-pst-scan-handover", "pgst",
         "pgst-early-stop", "pgst-capped-within-the-cap", "pgst-capped", "pgst-file",
         "no-pst-scan-integral-file", "pgst-file-t52-without-0"],
)
def test_each_subcommand_loads_what_it_runs(argv, loaded, tmp_path):
    """Only the searches load `gates`, and only a corona spec loads `corona`."""
    path, path2, cube, cube1 = (tmp_path / f"{name}.txt"
                                for name in ("path3", "path2", "cube", "cube1"))
    path.write_text("3\n0 1\n1 2\n", encoding="utf-8")
    path2.write_text("2\n0 1\n", encoding="utf-8")
    cube.write_text(permuted_cube(), encoding="utf-8")
    cube1.write_text("9" + permuted_cube()[1:], encoding="utf-8")  # and vertex 8 alone
    argv = [a.format(path=path, path2=path2, cube=cube, cube1=cube1) for a in argv]
    assert probe(run_quietly(argv)) == {"code": 0, "loaded": loaded}


def test_a_pgst_on_a_non_integral_file_base_eigensolves_it(tmp_path):
    """The ends of path:3 have support values +-sqrt(2): no module serves,
    the base is eigensolved and ranked, and its t51 gate refuses the
    transfer at pi/sqrt(2).  A t51, t52 or cocktail search that passes its
    gate has integer support values at u, so this base can only be refused."""
    path = tmp_path / "path3.txt"
    path.write_text("3\n0 1\n1 2\n", encoding="utf-8")
    argv = ("pgst", f"corona(file:{path},cycle:3)", "--u", "0", "--v", "2", "--family", "t51")
    assert probe(run_quietly(argv)) == {"code": 2, "loaded": SEARCH}


@pytest.mark.parametrize("argv, code, loaded", [
    (("no-pst-scan", "corona(path:2,cycle:3)", "--pair", "base-base", "--v", "0", "--vp", "1",
      "--points", "100"), 0, ["coronawalk.grid"]),
    (("pgst", "corona(path:2,cycle:3)", "--u", "0", "--v", "1", "--family", "t51",
      "--lmax", "100"), 0, ["coronawalk.grid"]),
    (("sweep", "path:2", "--u", "0", "--v", "1", "--t-max", "3", "--steps", "5"), 0,
     ["coronawalk.grid"]),
    (("pst", "path:3", "--u", "0", "--v", "2"), 0, []),
    (("periodic", "path:3", "--u", "0"), 0, []),
    (("pgst", "corona(path:3,cycle:3)", "--u", "0", "--v", "2", "--family", "t51"), 2, []),
], ids=["no-pst-scan", "pgst", "sweep", "pst", "periodic", "pgst-gate-refuted"])
def test_only_sweep_pgst_and_no_pst_scan_load_the_grid(argv, code, loaded):
    """The grid is a module of its own, which the calls that load
    `transfer` for a verdict alone do not compile."""
    assert probe(run_quietly(argv), ("coronawalk.grid",)) == {"code": code, "loaded": loaded}


def test_every_exported_name_resolves():
    body = ("import coronawalk\n"
            "missing = [n for n in coronawalk.__all__ if getattr(coronawalk, n, None) is None]\n"
            "assert coronawalk.__all__ and not missing, missing\n"
            "from coronawalk import (CoronaDecomposition, cycle_graph,\n"
            "    empty_graph, exact_decomposition, path_graph, periodicity_test, pgst_search,\n"
            "    pst_certify)\n"
            "code = 0")
    assert probe(body)["code"] == 0


def permuted_cube() -> str:
    """The 3-cube's edge list, its vertices relabelled: 0 and 7 stay antipodal."""
    perm = [0, 5, 3, 6, 2, 4, 1, 7]
    edges = sorted(tuple(sorted((perm[a], perm[a ^ (1 << b)]))) for a in range(8)
                   for b in range(3) if a < a ^ (1 << b))
    return "8\n" + "".join(f"{a} {b}\n" for a, b in edges)


@pytest.mark.parametrize("argv", [
    ("pst", "file:{cube}", "--u", "0", "--v", "7"),
    ("periodic", "file:{cube}", "--u", "3"),
    ("sweep", "corona(cycle:6,complete:4)", "--u", "4", "--v", "2", "--t-max", "31.5",
     "--steps", "10000"),
], ids=["pst", "periodic", "sweep"])
def test_walk_modules_and_factor_sized_sweeps_load_no_numpy(argv, tmp_path):
    """pst and periodic on a vertex of a `file:` leaf whose support values
    are all integers read its walk module, and a sweep of at most
    PURE_GRID_CAP term evaluations runs in pure Python: neither eigensolves."""
    cube = tmp_path / "cube.edges"
    cube.write_text(permuted_cube(), encoding="utf-8")
    argv = [a.format(cube=cube) for a in argv]
    assert probe(run_quietly(argv), ("numpy", "coronawalk.spectral")) == {
        "code": 0, "loaded": []}


def test_pst_on_a_random_leaf_still_eigensolves(tmp_path):
    """A seeded G(12, 0.4): vertex 0's support holds values that are no
    integers, so the walk module declines and the leaf is eigensolved."""
    rng = __import__("random").Random(1)
    edges = [(a, b) for a in range(12) for b in range(a + 1, 12) if rng.random() < 0.4]
    path = tmp_path / "g.edges"
    path.write_text("12\n" + "".join(f"{a} {b}\n" for a, b in edges), encoding="utf-8")
    argv = ("pst", f"file:{path}", "--u", "0", "--v", "1")
    assert probe(run_quietly(argv), ("numpy", "coronawalk.spectral")) == {
        "code": 0, "loaded": ["numpy", "coronawalk.spectral"]}


# the sweep runs past the pure-Python grid cap, so numpy loads, and the file
# leaf's spectrum eigensolves, so `spectral` loads too
EVERY_SUBCOMMAND = [
    ("spectrum", "path:3"),
    ("spectrum", "file:{path}"),
    ("corona-build", "corona(path:2,cycle:3)"),
    ("fidelity", "path:2", "--u", "0", "--v", "1", "--t", "1"),
    ("sweep", "path:2", "--u", "0", "--v", "1", "--t-max", "3", "--steps", "70000"),
    ("support", "path:3", "--u", "1"),
    ("cospectral", "path:3", "--u", "0", "--v", "2"),
    ("periodic", "corona(path:2,empty:2)", "--u", "0"),
    ("pst", "path:3", "--u", "0", "--v", "2"),
    ("no-pst-scan", "corona(path:2,cycle:3)", "--pair", "base-base", "--v", "0",
     "--vp", "1", "--points", "100"),
    ("pgst", "corona(path:2,cycle:3)", "--u", "0", "--v", "1", "--family", "t51",
     "--lmax", "100"),
]


def test_cli_registers_no_exit_handler(tmp_path):
    """The console entry point ends in os._exit, which runs no atexit handler,
    so nothing the CLI loads may register one."""
    path = tmp_path / "path3.txt"
    path.write_text("3\n0 1\n1 2\n", encoding="utf-8")
    argvs = [[a.format(path=path) for a in argv] for argv in EVERY_SUBCOMMAND]
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
            f"    codes = [run_command(argv) for argv in {argvs!r}]\n"
            "code = {'codes': codes, 'registered': registered,\n"
            "        'added': atexit._ncallbacks() - before}")
    assert probe(body) == {
        "code": {"codes": [0] * 11, "registered": [], "added": 0},
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
