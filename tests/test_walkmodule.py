"""The walk module route of `pst` and `periodic` on a `file:` leaf: on graphs
whose eigenvalues are all integers it answers as the eigensolve and its
rank labels do, and on other graphs it declines, so the report keeps its
bytes."""

import contextlib
import io
import itertools
import random

import numpy as np
import pytest

from coronawalk import transfer
from coronawalk.cli import _decomposition, _record, parse_graph_spec, render_report, run_command
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
    """Within 1e-13, with the same times, np.linspace's, and the same best
    index; past the cap (0 here) the sweep takes numpy."""
    rng = np.random.default_rng(case)
    k = int(rng.integers(1, 9))
    g = [complete_graph(4), cycle_graph(6), hypercube(3), petersen()][case % 4]
    steps = int(rng.integers(2, 20000 // k))
    t_max = float(rng.uniform(0.1, 80.0))
    u, v = (int(x) for x in rng.integers(0, g.n, size=2))
    d = exact_decomposition(g)
    pure = fidelity_sweep(d, u, v, t_max, steps)
    assert isinstance(pure.times, list)
    monkeypatch.setattr(transfer, "PURE_GRID_CAP", 0)
    dense = fidelity_sweep(d, u, v, t_max, steps)
    assert isinstance(dense.times, np.ndarray)
    assert pure.times == dense.times.tolist() == np.linspace(0.0, t_max, steps).tolist()
    assert np.max(np.abs(np.asarray(pure.values) - dense.values)) <= 1e-13
    assert pure.best_index == dense.best_index
