"""The walk module route of `pst` and `periodic` on a `file:` leaf, and of
`pgst` and `no-pst-scan` on a `file:` base: on graphs whose eigenvalues
are all integers it answers as the eigensolve and its rank labels do, and
on other graphs it declines, so the report keeps its bytes."""

import contextlib
import io
import itertools
import json
import random

import numpy as np
import pytest

from coronawalk import graphs, grid, transfer, walkmodule
from coronawalk.cli import _decomposition, _record, parse_graph_spec, render_report, run_command
from coronawalk.corona import regular_main
from coronawalk.coronaspectra import CoronaDecomposition, RegularCopy
from coronawalk.graphs import (
    cocktail_party_graph,
    complete_graph,
    cycle_graph,
    make_graph,
    path_graph,
    write_edge_list,
)
from coronawalk.spectral import exact_decomposition
from coronawalk.transfer import fidelity_sweep, periodicity_test, pst_certify
from coronawalk.walkmodule import integral_module


def hypercube(d):
    n = 1 << d
    return make_graph(n, [(a, a ^ (1 << b)) for a in range(n) for b in range(d)])


def complete_bipartite(m):
    return make_graph(2 * m, [(a, m + b) for a in range(m) for b in range(m)])


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return make_graph(10, outer + inner + [(i, 5 + i) for i in range(5)])


def relabelled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return make_graph(g.n, [(perm[a], perm[b]) for a, b in g.edges])


def seeded_gnp(n, p, seed):
    rng = random.Random(seed)
    return make_graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])


# every eigenvalue an integer: hypercubes Q2-Q6, cocktail parties,
# complete bipartite graphs K_{m,m} and the Petersen graph
INTEGRAL = {**{f"Q{d}": hypercube(d) for d in range(2, 7)},
            **{f"cocktail:{k}": cocktail_party_graph(k) for k in (2, 3, 5, 16)},
            **{f"K{m},{m}": complete_bipartite(m) for m in (2, 3, 5)},
            "petersen": petersen(), "K1": make_graph(1, [])}


def report(cert):
    """A pst record less its two floats, and the floats."""
    rec = cert._asdict()
    return {k: v for k, v in rec.items() if k not in ("phase", "fidelity_at_tau")}, \
        (rec["phase"], rec["fidelity_at_tau"])


@pytest.mark.parametrize("name", INTEGRAL)
def test_integral_graphs_answer_as_the_eigensolve(name):
    """On every pair, relabelled at random, pst and periodic report as today's
    route, the eigensolve labelled by rank, except the phase and fidelity at
    tau, within 1e-12."""
    g = relabelled(INTEGRAL[name], seed=len(name))
    d = exact_decomposition(g)
    for u in range(g.n):
        module = integral_module(g, u)
        assert module is not None
        sup, ref = module.support(u), d.support(u)
        assert periodicity_test(sup.exact) == periodicity_test(ref.exact, ref.beyond_quadratic)
        assert sup.exact == ref.exact
        for v in range(g.n):
            if v == u:
                continue
            (got, got_floats), (want, want_floats) = (
                report(pst_certify(x, u, v)) for x in (module, d))
            assert got == want, (u, v)
            if want_floats[0] is not None:
                assert abs(got_floats[0] - want_floats[0]) <= 1e-12
                assert abs(got_floats[1] - want_floats[1]) <= 1e-12


def test_the_module_signs_and_entries_are_the_projectors():
    """Per class, the module's sign and E[u, v] are the eigensolve's, on the
    Petersen graph, where no pair is strongly cospectral, and on Q4."""
    for g in (petersen(), hypercube(4)):
        d = exact_decomposition(g)
        for u, v in itertools.permutations(range(g.n), 2):
            module = integral_module(g, u)
            assert module.signs(u, v) == (None if d.signs(u, v) is None else {
                i: s for i, s in enumerate(d.signs(u, v).values())})
            want = dict(d.terms(u, v))
            for value, entry in module.terms(u, v):
                assert abs(entry - want[value]) <= 1e-13


def test_a_module_answers_for_its_vertex_alone():
    module = integral_module(hypercube(3), 0)
    with pytest.raises(ValueError, match="answers for it alone"):
        module.support(1)
    with pytest.raises(ValueError, match="out of range"):
        module.support(8)


NON_INTEGRAL = {"gnp-14": seeded_gnp(14, 0.4, 3), "gnp-20": seeded_gnp(20, 0.3, 5),
                "cycle:7": cycle_graph(7), "path:5": path_graph(5),
                "complete-less-an-edge": make_graph(5, [e for e in itertools.combinations(
                    range(5), 2) if e != (0, 1)])}


@pytest.mark.parametrize("name", NON_INTEGRAL)
def test_non_integral_graphs_decline_and_keep_their_bytes(name, tmp_path):
    """Every vertex has a support value that is no integer: the module
    declines, and pst and periodic print what the eigensolve route prints."""
    g = NON_INTEGRAL[name]
    path = tmp_path / "g.edges"
    path.write_text(write_edge_list(g), encoding="utf-8")
    spec = parse_graph_spec(f"file:{path}")
    d = _decomposition(spec, labelled=True)
    for u in range(g.n):
        assert integral_module(g, u) is None
    for u, v in [(0, 1), (1, g.n - 1), (2, 3)]:
        argv = ["pst", f"file:{path}", "--u", str(u), "--v", str(v)]
        want = {"command": "pst", "spec": str(spec), **_record(pst_certify(d, u, v))}
        assert run(argv) == render_report(want, "json")
        sup = d.support(u)
        want = {"command": "periodic", "spec": str(spec), "u": u,
                "vertex_test": _record(periodicity_test(sup.exact, sup.beyond_quadratic))}
        assert run(["periodic", f"file:{path}", "--u", str(u)]) == render_report(want, "json")


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run_command(argv) == 0
    return out.getvalue()


def test_a_vertex_with_an_integral_module_on_a_graph_with_others():
    """The path on 3 vertices and an isolated vertex: vertex 3's support is
    {0}, an integer, and vertex 0's holds +-sqrt(2): the route reads u's
    module alone."""
    g = make_graph(4, [(0, 1), (1, 2)])
    assert [c.exact for c in integral_module(g, 3).classes] == [transfer.QuadInt.from_int(0)]
    assert integral_module(g, 0) is None
    assert pst_certify(integral_module(g, 3), 3, 0).failure_reason == "not strongly cospectral"


def test_dense_graphs_of_high_degree_decline_at_once():
    """K_200 is integral, but its refutation would visit (2*199 + 1) * (19900
    + 200) edges and vertices, past both the work bound and n^3/128: the
    module declines and the leaf takes the eigensolve."""
    assert integral_module(complete_graph(200), 0) is None
    assert integral_module(complete_graph(60), 0) is not None


def test_cli_errors_keep_today_s_route(tmp_path):
    """Vertices out of range or equal go the eigensolve route, whose errors
    the reports keep."""
    path = tmp_path / "q3.edges"
    path.write_text(write_edge_list(hypercube(3)), encoding="utf-8")
    for argv in (["pst", f"file:{path}", "--u", "0", "--v", "8"],
                 ["pst", f"file:{path}", "--u", "9", "--v", "1"],
                 ["pst", f"file:{path}", "--u", "2", "--v", "2"],
                 ["periodic", f"file:{path}", "--u", "8"]):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            assert run_command(argv) == 2
        assert err.getvalue().startswith("analysis error")


@pytest.mark.parametrize("case", range(12))
def test_the_pure_python_sweep_is_the_numpy_sweep(case, monkeypatch):
    """On a walk module, which reads no tolerance: within 1e-13, with the
    same times, np.linspace's, and the same best index; past the cap (0
    here) the sweep takes numpy."""
    rng = np.random.default_rng(case)
    k = int(rng.integers(1, 9))
    g = [complete_graph(4), cycle_graph(6), hypercube(3), petersen()][case % 4]
    steps = int(rng.integers(2, 20000 // k))
    t_max = float(rng.uniform(0.1, 80.0))
    u, v = (int(x) for x in rng.integers(0, g.n, size=2))
    d = integral_module(g, u)
    entered, pure_batch = [], grid._pure_batch
    monkeypatch.setattr(grid, "_pure_batch", lambda *args: entered.append(args) or pure_batch(*args))
    pure = fidelity_sweep(d, u, v, t_max, steps)
    assert len(entered) == -(-steps // grid.GRID_BLOCK)
    monkeypatch.setattr(grid, "PURE_GRID_CAP", 0)
    dense = fidelity_sweep(d, u, v, t_max, steps)
    assert len(entered) == -(-steps // grid.GRID_BLOCK)
    assert pure.times == dense.times == np.linspace(0.0, t_max, steps).tolist()
    assert np.max(np.abs(np.asarray(pure.values) - dense.values)) <= 1e-13
    assert pure.best_index == dense.best_index


# searches over a `file:` base: (base, its pairs as (name, copy, argv tail)),
# the vertices those of the unrelabelled graph; every scan pair kind, v = v'
# included, every family, and the t51 and t52 gates' refusals
SEARCHES = {
    "Q3": [("t51", "cycle:3", ("pgst", "--u", 0, "--v", 7, "--family", "t51", "--lmax", 3000)),
           ("t51-early", "complete:4", ("pgst", "--u", 2, "--v", 5, "--family", "t51",
                                        "--target", "0.99", "--lmax", 100000)),
           ("t52-refused", "cycle:3", ("pgst", "--u", 0, "--v", 7, "--family", "t52")),
           ("base-base", "cycle:5", ("no-pst-scan", "--pair", "base-base", "--v", 1, "--vp", 6,
                                     "--t-max", "80", "--points", 20000)),
           ("base-copy-irregular", "path:3", ("no-pst-scan", "--pair", "base-copy", "--v", 2,
                                              "--vp", 5, "--w", 1, "--points", 5000))],
    "Q4": [("t52", "cycle:3", ("pgst", "--u", 0, "--v", 15, "--family", "t52", "--lmax", 3000)),
           ("t51-refused", "cycle:3", ("pgst", "--u", 0, "--v", 15, "--family", "t51")),
           ("base-copy-same", "complete:3", ("no-pst-scan", "--pair", "base-copy", "--v", 3,
                                             "--vp", 3, "--w", 0, "--points", 20000))],
    "C4": [("t52-capped", "cycle:3", ("pgst", "--u", 0, "--v", 2, "--family", "t52",
                                      "--lmax", 20000)),
           ("t52", "cycle:5", ("pgst", "--u", 1, "--v", 3, "--family", "t52", "--lmax", 20000)),
           ("t51-refused", "cycle:3", ("pgst", "--u", 0, "--v", 2, "--family", "t51")),
           ("base-base", "cycle:3", ("no-pst-scan", "--pair", "base-base", "--v", 0, "--vp", 1,
                                     "--points", 100000)),
           ("base-copy-same", "cycle:4", ("no-pst-scan", "--pair", "base-copy", "--v", 1,
                                          "--vp", 1, "--w", 2, "--points", 20000))],
    **{f"cocktail:{k}": [
        ("cocktail", copy, ("pgst", "--u", 2, "--v", 3, "--family", "cocktail",
                            "--lmax", 100000)),
        ("base-base", "cycle:3", ("no-pst-scan", "--pair", "base-base", "--v", 0, "--vp", 3,
                                  "--points", 20000)),
        ("base-copy", "cocktail:2", ("no-pst-scan", "--pair", "base-copy", "--v", 4,
                                     "--vp", 1, "--w", 1, "--points", 20000))]
        for k, copy in ((3, "complete:4"), (5, "cycle:4"), (7, "cycle:5"))},
}
SEARCH_GRAPHS = {"Q3": hypercube(3), "Q4": hypercube(4), "C4": cycle_graph(4),
                 **{f"cocktail:{k}": cocktail_party_graph(k) for k in (3, 5, 7)}}
SEARCH_CASES = [(base, *case) for base, cases in SEARCHES.items() for case in cases]


def search_argv(path, perm, copy, argv):
    """A search's command line on the base file at path, its vertices
    relabelled by perm."""
    command, *tail = argv
    tail = [str(perm[x]) if isinstance(x, int) and flag in ("--u", "--v", "--vp") else str(x)
            for flag, x in zip(["", *tail], tail)]
    return [command, f"corona(file:{path},{copy})", *tail]


def outcome(argv):
    """A call's exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    return code, out.getvalue(), err.getvalue()


def assert_same_search(got, want, spec=True):
    """Two calls' outcomes: the same exit and stderr and, where they report,
    the same verdict, g, ell values and fields (the spec too where `spec`),
    the floats within 1e-12."""
    assert (got[0], got[2]) == (want[0], want[2])
    if not want[1]:
        return
    got, want = json.loads(got[1]), json.loads(want[1])
    if not spec:
        got.pop("spec"), want.pop("spec")
    assert got.keys() == want.keys()
    for key, value in want.items():
        if key == "trace":
            assert [t["ell"] for t in got[key]] == [t["ell"] for t in value]
            assert all(abs(a["fidelity"] - b["fidelity"]) <= 1e-12
                       for a, b in zip(got[key], value))
        elif isinstance(value, float):
            assert abs(got[key] - value) <= 1e-12, key
        else:
            assert got[key] == value, key


@pytest.mark.parametrize("base, name, copy, argv", SEARCH_CASES,
                         ids=[f"{b}-{n}" for b, n, _, _ in SEARCH_CASES])
def test_a_search_on_a_module_base_answers_as_the_eigensolve(base, name, copy, argv, tmp_path,
                                                             monkeypatch):
    """pgst and no-pst-scan on a relabelled integral `file:` base read it off
    the walk module of the row they read, and report as the eigensolve
    route with its rank labels (the module declined): the same verdict, g
    and ell values, the floats within 1e-12, and the same refusals."""
    g = SEARCH_GRAPHS[base]
    perm = list(range(g.n))
    if not base.startswith("cocktail"):
        random.Random(len(base) + len(name)).shuffle(perm)
    path = tmp_path / "base.edges"
    path.write_text(write_edge_list(make_graph(g.n, [(perm[a], perm[b]) for a, b in g.edges])),
                    encoding="utf-8")
    argv = search_argv(path, perm, copy, argv)
    made = []
    monkeypatch.setattr(walkmodule, "integral_module",
                        lambda *args: made.append(integral_module(*args)) or made[-1])
    got = outcome(argv)
    assert made and made[-1] is not None
    monkeypatch.setattr(walkmodule, "integral_module", lambda *args: None)
    assert_same_search(got, outcome(argv))


TWINS = [(base, *case) for base, cases in SEARCHES.items() if base[0] in "Cc" for case in cases]


@pytest.mark.parametrize("base, name, copy, argv", TWINS,
                         ids=[f"{b}-{n}" for b, n, _, _ in TWINS])
def test_a_search_on_a_module_base_answers_as_its_twin_family(base, name, copy, argv,
                                                              tmp_path):
    """A family graph written as a file, read off walk modules, gives the
    family base's report but the spec: the same verdict, g and ell values,
    the floats within 1e-12.  The entries differ in rounding alone: the
    module rounds each once, the cocktail family's -2 eigenspace takes 1/2 -
    1/(2n)."""
    kind, size = ("cycle", 4) if base == "C4" else ("cocktail", int(base.split(":")[1]))
    path = tmp_path / "base.edges"
    path.write_text(write_edge_list(SEARCH_GRAPHS[base]), encoding="utf-8")
    argv = search_argv(path, range(SEARCH_GRAPHS[base].n), copy, argv)
    family = [argv[0], f"corona({kind}:{size},{copy})", *argv[2:]]
    assert_same_search(outcome(argv), outcome(family), spec=False)


NO_MODULE = {
    "path:3": (make_graph(3, [(0, 1), (1, 2)]), [
        ("cycle:3", ("pgst", "--u", 0, "--v", 2, "--family", "t51")),
        ("cycle:4", ("no-pst-scan", "--pair", "base-base", "--v", 0, "--vp", 2,
                     "--points", 20000)),
        ("path:3", ("no-pst-scan", "--pair", "base-copy", "--v", 1, "--vp", 1, "--w", 2,
                    "--points", 5000))]),
    "gnp-14": (NON_INTEGRAL["gnp-14"], [
        ("complete:3", ("no-pst-scan", "--pair", "base-copy", "--v", 3, "--vp", 7, "--w", 1,
                        "--points", 20000))]),
    # Q3 and an isolated vertex: u's module is integral, but 0 lies outside
    # supp(u), and t52 reads the whole spectrum, so the base is eigensolved
    "Q3+K1": (make_graph(9, hypercube(3).edges), [
        ("cycle:3", ("pgst", "--u", 0, "--v", 7, "--family", "t52", "--lmax", 100))]),
}
NO_MODULE_CASES = [(base, *case) for base, (_, cases) in NO_MODULE.items() for case in cases]


@pytest.mark.parametrize("base, copy, argv", NO_MODULE_CASES,
                         ids=[f"{b}-{a[0]}-{c}" for b, c, a in NO_MODULE_CASES])
def test_a_search_with_no_module_for_its_row_keeps_its_bytes(base, copy, argv, tmp_path,
                                                            monkeypatch):
    """Where the row's module is not integral, or t52 finds no 0 in it, the
    search takes the eigensolve and prints what it prints with no module."""
    g, _ = NO_MODULE[base]
    path = tmp_path / "base.edges"
    path.write_text(write_edge_list(g), encoding="utf-8")
    argv = search_argv(path, range(g.n), copy, argv)
    got = outcome(argv)
    monkeypatch.setattr(walkmodule, "integral_module", lambda *args: None)
    assert got == outcome(argv)
    if base == "Q3+K1":
        report = json.loads(got[1])
        assert (report["best_ell"], round(report["best_fidelity"], 4)) == (53, 0.9635)
        assert integral_module(g, 0) is not None


def test_the_corona_engine_lifts_a_module_base():
    """A walk module's classes carry no multiplicity, and the engine makes
    none up: its classes carry None, and its walk terms are those over the
    eigensolved base, within 1e-13."""
    g, main = hypercube(3), regular_main(2, 3)
    on_module, on_eigensolve = (
        CoronaDecomposition(base, RegularCopy(3), main, {}, 1e-8, labelled=False)
        for base in (integral_module(g, 0), exact_decomposition(g)))
    assert [c.multiplicity for c in on_module.classes] == [None] * 8
    for y in (7, 3, 8 + 7, 3 * 8 + 5):
        got, want = on_module.terms(0, y), on_eigensolve.terms(0, y)
        assert [value for value, _ in got] == [value for value, _ in want]
        assert max(abs(a - b) for (_, a), (_, b) in zip(got, want)) <= 1e-13


def test_the_dense_budget_binds_a_search_base_only_where_it_is_eigensolved(tmp_path):
    """The 13-cube (8192 vertices) is read off walk modules: its t51 search
    runs, at g = 2.  A path on 5000 vertices has no integral module, and its
    searches meet the budget as before, ahead of every other gate."""
    cube, path = tmp_path / "q13.edges", tmp_path / "p5000.edges"
    cube.write_text(write_edge_list(hypercube(13)), encoding="utf-8")
    path.write_text(write_edge_list(path_graph(5000)), encoding="utf-8")
    code, out, _ = outcome(["pgst", f"corona(file:{cube},cycle:3)", "--u", "0", "--v", "8191",
                            "--family", "t51", "--lmax", "1000"])
    assert (code, json.loads(out)["g"]) == (0, 2)
    for argv in (["pgst", f"corona(file:{path},path:3)", "--u", "0", "--v", "4999",
                  "--family", "t51"],
                 ["no-pst-scan", f"corona(file:{path},cycle:3)", "--pair", "base-copy",
                  "--v", "0", "--vp", "1", "--w", "5"]):
        assert outcome(argv) == (2, "", "analysis error: dimension 5000 exceeds dense "
                                        "budget 4096\n")


def test_the_refutation_spends_no_more_than_the_route_it_spares(monkeypatch, tmp_path):
    """The refutation may visit m^3/128 edges and vertices, m = min(n, the
    dense budget), where the eigensolve it spares would rank-label too, and
    m^3/1024 where a search reads no label; past the budget no eigensolve
    runs, so a search on a large non-integral base is refused with no
    product taken.  C100(1, 2) is 4-regular: 9 * (200 + 100) = 2700 visits."""
    g = make_graph(100, sorted({tuple(sorted((a, (a + s) % 100)))
                                for a in range(100) for s in (1, 2)}))
    products = []
    times = walkmodule._times_adjacency
    monkeypatch.setattr(walkmodule, "_times_adjacency",
                        lambda *args: products.append(1) or times(*args))
    monkeypatch.setattr(walkmodule, "_MODULE_WORK", 0)
    assert integral_module(g, 0) is None and len(products) == 9  # 2700 <= 100^3/128
    products.clear()
    assert integral_module(g, 0, labelled=False) is None and not products  # > 100^3/1024
    for module in (walkmodule, graphs):
        monkeypatch.setattr(module, "MAX_DIMENSION", 64)  # 64^3/128 = 2048
    assert integral_module(g, 0) is None and not products
    path = tmp_path / "c100.edges"
    path.write_text(write_edge_list(g), encoding="utf-8")
    for argv in (["pgst", f"corona(file:{path},cycle:3)", "--u", "0", "--v", "50",
                  "--family", "t51"],
                 ["no-pst-scan", f"corona(file:{path},cycle:3)", "--pair", "base-copy",
                  "--v", "0", "--vp", "1", "--w", "2"]):
        assert outcome(argv) == (2, "", "analysis error: dimension 100 exceeds dense budget 64\n")
    assert not products
