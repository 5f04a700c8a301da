import json
import math

import numpy as np
import pytest

from coronawalk import corona, graphs, spectral, transfer
from coronawalk.cli import (
    EXIT_ANALYSIS,
    EXIT_OK,
    EXIT_USAGE,
    GraphSpecError,
    dumps_report,
    parse_graph_spec,
    run_command,
)
from coronawalk.corona import SpecFactors
from coronawalk.graphs import GraphSpec


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseGraphSpec:
    def test_corona(self):
        spec = parse_graph_spec("corona(path:2, cycle:3)")
        assert spec.kind == "corona"
        assert spec.factors == (GraphSpec("path", 2), GraphSpec("cycle", 3))

    def test_family(self):
        assert parse_graph_spec("cocktail:3") == GraphSpec("cocktail", 3)

    def test_nested_corona(self):
        spec = parse_graph_spec("corona(corona(path:2,empty:2),cycle:3)")
        assert spec.factors[0].kind == "corona"
        assert SpecFactors().graph(spec).n == (2 * 3) * 4

    def test_whitespace_insensitive(self):
        assert parse_graph_spec(" corona( path:2 ,\tcycle:3 ) ") == parse_graph_spec(
            "corona(path:2,cycle:3)"
        )

    def test_file_spec(self):
        spec = parse_graph_spec("file:/tmp/some.edges")
        assert spec == GraphSpec("file", path="/tmp/some.edges")

    @pytest.mark.parametrize(
        "text",
        ["", "path:", "foo:3", "corona(path:2)", "path:2garbage", "cycle:2", "path:0"],
    )
    def test_errors_carry_position(self, text):
        with pytest.raises(GraphSpecError) as err:
            parse_graph_spec(text)
        assert "position" in str(err.value)


class TestSpectrumCommand:
    def test_cocktail_classes(self, capsys):
        code, out, _ = run(capsys, "spectrum", "cocktail:3")
        assert code == EXIT_OK
        report = json.loads(out)
        classes = report["classes"]
        assert [(round(c["value"]), c["multiplicity"]) for c in classes] == [
            (4, 1),
            (0, 3),
            (-2, 2),
        ]
        assert classes[0]["exact"] == {"a": 8, "b": 0, "delta": 1}

    @pytest.mark.parametrize(
        "argv",
        [
            ("spectrum", "corona(path:2,cycle:3)"),
            ("pst", "path:3", "--u", "0", "--v", "2"),
            ("sweep", "path:2", "--u", "0", "--v", "1",
             "--t-max", "5", "--steps", "9", "--format", "csv"),
            ("pgst", "corona(path:2,cycle:3)", "--u", "0", "--v", "1",
             "--family", "t51", "--lmax", "100", "--target", "0.9"),
            ("corona-build", "corona(path:2,cycle:3)", "--format", "text"),
        ],
        ids=["spectrum", "pst", "sweep-csv", "pgst", "corona-build"],
    )
    def test_deterministic_bytes(self, capsys, argv):
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second and first

    def test_json_roundtrip_identical(self, capsys):
        _, out, _ = run(capsys, "spectrum", "corona(path:3,cycle:3)")
        assert dumps_report(json.loads(out)) == out

    def test_72_vertex_corona_is_warning_free(self, capsys):
        # the suite turns RuntimeWarnings into errors
        code, out, err = run(capsys, "spectrum", "corona(cycle:12,cycle:5)")
        assert code == EXIT_OK and err == ""
        assert json.loads(out)["n"] == 72


class TestFactorRouting:
    """Corona specs decompose from their factors, whatever the copy factor;
    only a corona that is a copy factor itself is assembled."""

    COMMANDS = [
        ("spectrum",),
        ("support", "--u", "1"),
        ("periodic", "--u", "1"),
        ("pst", "--u", "0", "--v", "1"),
        ("fidelity", "--u", "0", "--v", "1", "--t", "1.5"),
        ("sweep", "--u", "0", "--v", "1", "--t-max", "3", "--steps", "5"),
        ("cospectral", "--u", "0", "--v", "1"),
    ]

    @pytest.mark.parametrize(
        "spec, largest_factor",
        [("corona(cycle:12,cycle:5)", 12),
         ("corona(corona(cycle:6,cycle:3),cycle:3)", 6)],
        ids=["c12-c5", "nested"],
    )
    def test_eigensolver_never_sees_the_corona(self, capsys, monkeypatch,
                                               spec, largest_factor):
        dims = []
        solve = spectral.symmetric_eigen

        def recording(matrix):
            dims.append(len(matrix))
            return solve(matrix)

        monkeypatch.setattr(spectral, "symmetric_eigen", recording)
        for command, *flags in self.COMMANDS:
            assert run(capsys, command, spec, *flags)[0] == EXIT_OK, command
        assert dims and max(dims) <= largest_factor
        dims.clear()
        # an irregular copy factor lifts through its main directions too
        assert run(capsys, "spectrum", "corona(cycle:13,path:4)")[0] == EXIT_OK
        assert max(dims) <= 13

    @pytest.mark.parametrize(
        "text",
        [
            "corona(cycle:12,cycle:5)",
            "corona(cocktail:3,cycle:3)",
            "corona(cycle:8,cycle:4)",
            "corona(path:4,cycle:3)",
            "corona(star:4,complete:3)",
            "corona(empty:2,cycle:3)",
            "corona(path:3,complete:1)",
            "corona(corona(cycle:6,cycle:3),cycle:3)",
            # irregular, disconnected, nested and file: copy factors
            "corona(cycle:6,path:3)",
            "corona(star:4,star:5)",
            "corona(path:4,empty:2)",
            "corona(cycle:5,corona(path:2,empty:1))",
            "corona(path:3,file:{paw})",
        ],
    )
    def test_classes_equal_assembled_exact_decomposition(self, capsys, tmp_path, text):
        paw = tmp_path / "paw.edges"
        paw.write_text("4\n0 1\n1 2\n0 2\n2 3\n", encoding="utf-8")
        text = text.format(paw=paw)
        spec = parse_graph_spec(text)
        factors = SpecFactors()
        g = factors.graph(spec.factors[0])
        oracle = spectral.exact_decomposition(factors.graph(spec))

        def check(records, classes):
            assert len(records) == len(classes)
            for rec, c in zip(records, classes):
                assert rec["value"] == pytest.approx(c.value, abs=1e-9)
                assert rec["multiplicity"] == c.multiplicity
                expected = None if c.exact is None else {
                    "a": c.exact.a, "b": c.exact.b, "delta": c.exact.delta}
                assert rec.get("exact") == expected

        code, out, err = run(capsys, "spectrum", text)
        assert code == EXIT_OK and err == ""
        check(json.loads(out)["classes"], oracle.classes)
        for u in (0, g.n):  # a base vertex and a copy vertex
            code, out, err = run(capsys, "support", text, "--u", str(u))
            assert code == EXIT_OK and err == ""
            sup = spectral.eigenvalue_support(oracle, u)
            check(json.loads(out)["classes"],
                  [oracle.classes[i] for i in sup.class_indices])


class TestFileReads:
    """A file: leaf is read once per command, however the command uses it."""

    COMMANDS = TestFactorRouting.COMMANDS + [
        ("no-pst-scan", "--pair", "base-base", "--v", "0", "--vp", "1",
         "--points", "50"),
        ("pgst", "--u", "0", "--v", "1", "--family", "t51", "--lmax", "10"),
        ("corona-build", "--format", "text"),
    ]

    @pytest.mark.parametrize("nested", [False, True], ids=["corona", "nested"])
    def test_each_file_is_read_once(self, capsys, monkeypatch, tmp_path, nested):
        path = tmp_path / "p.edges"
        path.write_text("6\n0 1\n1 2\n2 3\n3 4\n4 5\n", encoding="utf-8")
        spec = f"corona(file:{path},cycle:3)"
        if nested:
            spec = f"corona({spec},cycle:3)"
        reads = []
        read = graphs.read_edge_list
        monkeypatch.setattr(graphs, "read_edge_list",
                            lambda p: reads.append(p) or read(p))
        for command, *flags in self.COMMANDS:
            reads.clear()
            code, _, err = run(capsys, command, spec, *flags)
            # pgst t51 needs base transfer, which the 6-path lacks
            assert code == (EXIT_ANALYSIS if command == "pgst" else EXIT_OK), err
            assert reads == [str(path)], command


class TestAdjacencyBuilds:
    """Each graph's adjacency matrix is built once per command."""

    @pytest.mark.parametrize(
        "argv, orders",
        [(("spectrum", "cycle:12"), [12]),
         (("periodic", "corona(cycle:8,cycle:4)", "--u", "1"), [8, 4])],
        ids=["spectrum", "periodic-corona"],
    )
    def test_each_adjacency_is_built_once(self, capsys, monkeypatch, argv, orders):
        built = []
        adjacency = graphs.Graph.adjacency
        monkeypatch.setattr(graphs.Graph, "adjacency",
                            lambda g: built.append(g.n) or adjacency(g))
        assert run(capsys, *argv)[0] == EXIT_OK
        assert built == orders


class TestPstCommand:
    def test_two_path(self, capsys):
        code, out, _ = run(capsys, "pst", "path:2", "--u", "0", "--v", "1")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["verdict"] == "PST"
        assert report["tau_symbolic"] == "pi/2"
        assert report["g"] == 2
        assert report["delta"] == 1
        assert report["phase"] == {"im": -1.0, "re": 0.0}

    def test_no_transfer_reports_reason(self, capsys):
        code, out, _ = run(capsys, "pst", "path:4", "--u", "0", "--v", "1")
        assert code == EXIT_OK
        assert json.loads(out)["failure_reason"] == "not strongly cospectral"


class TestSweepCommand:
    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep", "path:2", "--u", "0", "--v", "1",
            "--t-max", "3.141592653589793", "--steps", "5",
            "--format", "csv",
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "t,fidelity"
        assert len(lines) == 6
        last_t, last_f = lines[-1].split(",")
        assert float(last_t) == pytest.approx(math.pi)
        assert float(last_f) == pytest.approx(0.0, abs=1e-5)

    def test_json_contains_argmax(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep", "path:2", "--u", "0", "--v", "1",
            "--t-max", "3.141592653589793", "--steps", "5",
        )
        report = json.loads(out)
        assert report["best_time"] == pytest.approx(math.pi / 2)
        assert report["best_fidelity"] == pytest.approx(1.0, abs=1e-9)


class TestOtherCommands:
    def test_support(self, capsys):
        code, out, _ = run(capsys, "support", "path:3", "--u", "1")
        values = [c["value"] for c in json.loads(out)["classes"]]
        assert values == pytest.approx([math.sqrt(2), -math.sqrt(2)])

    def test_cospectral(self, capsys):
        code, out, _ = run(capsys, "cospectral", "path:3", "--u", "0", "--v", "2")
        report = json.loads(out)
        assert report["strongly_cospectral"] is True
        assert [s["sign"] for s in report["signs"]] == [1, -1, 1]

    def test_periodic_with_corona_base_check(self, capsys):
        code, out, _ = run(
            capsys, "periodic", "corona(path:2,empty:2)", "--u", "0"
        )
        report = json.loads(out)
        assert report["vertex_test"]["periodic"] == "yes"
        assert report["corona_base_test"]["periodic"] == "yes"
        assert report["corona_base_test"]["witness_period"] == pytest.approx(
            2 * math.pi
        )

    def test_fidelity(self, capsys):
        code, out, _ = run(
            capsys, "fidelity", "path:2", "--u", "0", "--v", "1",
            "--t", str(math.pi / 4),
        )
        assert json.loads(out)["fidelity"] == pytest.approx(math.sqrt(2) / 2)

    def test_no_pst_scan(self, capsys):
        code, out, _ = run(
            capsys,
            "no-pst-scan", "corona(path:2,cycle:3)",
            "--pair", "base-base", "--v", "0", "--vp", "1",
            "--t-max", "50", "--points", "2000",
        )
        report = json.loads(out)
        assert report["all_below_one"] is True
        assert report["max_fidelity"] < 1 - 1e-6

    def test_pgst(self, capsys):
        code, out, _ = run(
            capsys,
            "pgst", "corona(path:2,cycle:3)", "--u", "0", "--v", "1",
            "--family", "t51", "--lmax", "5000", "--target", "0.99",
        )
        report = json.loads(out)
        assert report["target_reached"] is True
        assert report["best_ell"] == 53
        assert report["best_fidelity"] >= 0.99

    def test_pgst_printed_trace_strictly_increases(self, capsys, monkeypatch):
        low = 0.7
        high = float(np.nextafter(low, 1.0))  # equal to 15 significant digits
        fake = transfer.PGSTSearchResult(
            family="t51", u=0, v=1, g=2, target=0.99, ell_max=10,
            best_ell=7, best_time=1.0, best_fidelity=high, target_reached=False,
            trace=((0, 0.5), (3, low), (7, high)),
        )
        monkeypatch.setattr(transfer, "pgst_search", lambda *a, **kw: fake)
        code, out, _ = run(
            capsys,
            "pgst", "corona(path:2,cycle:3)", "--u", "0", "--v", "1",
            "--family", "t51",
        )
        assert code == EXIT_OK
        report = json.loads(out)
        fids = [e["fidelity"] for e in report["trace"]]
        assert all(a < b for a, b in zip(fids, fids[1:]))
        assert report["trace"][-1] == {
            "ell": report["best_ell"], "fidelity": report["best_fidelity"]
        }
        assert [e["ell"] for e in report["trace"]] == [0, 7]

    def test_corona_build_text_is_loadable(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "corona-build", "corona(path:2,empty:1)", "--format", "text"
        )
        assert code == EXIT_OK
        path = tmp_path / "built.edges"
        path.write_text(out, encoding="utf-8")
        code2, out2, _ = run(capsys, "spectrum", f"file:{path}")
        assert code2 == EXIT_OK
        assert json.loads(out2)["n"] == 4

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "spectrum", "path:2", "--output", str(target)
        )
        assert code == EXIT_OK and out == ""
        assert json.loads(target.read_text())["n"] == 2


class TestExitCodes:
    def test_bad_spec_is_usage_error(self, capsys):
        code, _, err = run(capsys, "spectrum", "tesseract:4")
        assert code == EXIT_USAGE
        assert "usage error" in err

    def test_unknown_command_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "frobnicate", "path:2")
        assert code == EXIT_USAGE

    def test_csv_without_tabular_form_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "pst", "path:2", "--u", "0", "--v", "1",
                         "--format", "csv")
        assert code == EXIT_USAGE

    def test_analysis_error_exit_two(self, capsys):
        # cocktail family on a non-cocktail base graph
        code, _, err = run(
            capsys,
            "pgst", "corona(path:2,cycle:3)", "--u", "0", "--v", "1",
            "--family", "cocktail",
        )
        assert code == EXIT_ANALYSIS
        assert "analysis error" in err

    def test_non_corona_spec_for_corona_command(self, capsys):
        code, _, _ = run(
            capsys, "no-pst-scan", "path:4",
            "--pair", "base-base", "--v", "0", "--vp", "1",
        )
        assert code == EXIT_USAGE

    def test_bad_tolerance_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "spectrum", "path:2", "--group-tol", "0.5")
        assert code == EXIT_USAGE

    def test_bad_lmax_and_target_are_usage_errors(self, capsys):
        base = ("pgst", "corona(path:2,cycle:3)", "--u", "0", "--v", "1",
                "--family", "t51")
        assert run(capsys, *base, "--lmax", "0")[0] == EXIT_USAGE
        assert run(capsys, *base, "--target", "1.5")[0] == EXIT_USAGE


    @pytest.mark.parametrize(
        "argv",
        [
            ("fidelity", "path:3", "--u", "0", "--v", "2", "--t", "nan"),
            ("fidelity", "path:3", "--u", "0", "--v", "2", "--t=-inf"),
            ("sweep", "path:3", "--u", "0", "--v", "2", "--t-max", "inf",
             "--steps", "5"),
            ("sweep", "path:3", "--u", "0", "--v", "2", "--t-max", "0",
             "--steps", "5"),
            ("sweep", "path:3", "--u", "0", "--v", "2", "--t-max=-1",
             "--steps", "5"),
            ("sweep", "path:3", "--u", "0", "--v", "2", "--t-max", "5",
             "--steps", "1"),
            ("no-pst-scan", "corona(path:2,cycle:3)", "--pair", "base-base",
             "--v", "0", "--vp", "1", "--points", "0"),
            ("no-pst-scan", "corona(path:2,cycle:3)", "--pair", "base-base",
             "--v", "0", "--vp", "1", "--t-max", "nan"),
            ("no-pst-scan", "corona(path:2,cycle:3)", "--pair", "base-base",
             "--v", "0", "--vp", "1", "--t-max=-5"),
            ("no-pst-scan", "corona(path:2,cycle:3)", "--pair", "base-base",
             "--v", "0", "--vp", "1", "--t-max", "0"),
        ],
        ids=["t-nan", "t-neg-inf", "t-max-inf", "t-max-zero", "t-max-negative",
             "steps-1", "points-0", "scan-t-max-nan", "scan-t-max-negative",
             "scan-t-max-zero"],
    )
    def test_bad_numeric_flags_are_usage_errors(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == "" and "usage error" in err

    @pytest.mark.parametrize("u, v", [("99", "1"), ("-1", "1"), ("0", "6")])
    def test_pgst_vertex_out_of_range_is_analysis_error(self, capsys, u, v):
        code, out, err = run(capsys, "pgst", "corona(cocktail:3,cycle:4)",
                             "--u", u, "--v", v, "--family", "cocktail")
        assert code == EXIT_ANALYSIS
        assert out == "" and "out of range" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, n",
        [
            (("spectrum", "corona(cycle:100,cycle:50)"), 5100),
            (("spectrum", "path:5000"), 5000),
            (("spectrum", "complete:4097"), 4097),
            (("spectrum", "corona(complete:2000,cycle:3)"), 8000),
            (("pgst", "corona(cocktail:2049,cycle:3)", "--u", "0", "--v", "1",
              "--family", "cocktail"), 4098),
        ],
        ids=["corona", "leaf", "complete", "complete-base", "pgst"],
    )
    def test_corona_beyond_dense_budget_is_analysis_error(self, capsys, monkeypatch,
                                                          argv, n):
        dims, built = [], []
        solve = spectral.symmetric_eigen
        monkeypatch.setattr(spectral, "symmetric_eigen",
                            lambda matrix: dims.append(len(matrix)) or solve(matrix))
        adjacency = graphs.Graph.adjacency
        monkeypatch.setattr(graphs.Graph, "adjacency",
                            lambda g: built.append(g.n) or adjacency(g))

        def make_graph(*args, **kwargs):
            raise AssertionError("graph built before the dense budget check")

        monkeypatch.setattr(graphs, "make_graph", make_graph)
        monkeypatch.setattr(corona, "make_graph", make_graph)
        code, out, err = run(capsys, *argv)
        assert code == EXIT_ANALYSIS
        assert out == "" and f"dimension {n} exceeds dense budget 4096" in err
        # the budget is read off the spec before any graph is built, factor
        # decomposed or matrix made
        assert dims == [] and built == []

    def test_unwritable_output_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, "spectrum", "path:3", "--output", str(target))
        assert code == EXIT_USAGE
        assert out == "" and f"usage error: cannot write {target}" in err
        assert not target.exists()

    def test_nan_never_reaches_json(self):
        with pytest.raises(ValueError):
            dumps_report({"fidelity": math.nan})


class TestOptionSurface:
    """Each subcommand declares only the options its handler reads."""

    ARGS = {
        "spectrum": ("path:2",),
        "corona-build": ("corona(path:2,cycle:3)",),
        "fidelity": ("path:2", "--u", "0", "--v", "1", "--t", "1"),
        "sweep": ("path:2", "--u", "0", "--v", "1", "--t-max", "3", "--steps", "5"),
        "support": ("path:2", "--u", "0"),
        "cospectral": ("path:2", "--u", "0", "--v", "1"),
        "periodic": ("path:2", "--u", "0"),
        "pst": ("path:2", "--u", "0", "--v", "1"),
        "no-pst-scan": ("corona(path:2,cycle:3)", "--pair", "base-base",
                        "--v", "0", "--vp", "1", "--points", "5"),
        "pgst": ("corona(path:2,cycle:3)", "--u", "0", "--v", "1", "--family", "t51"),
    }
    UNREAD = [
        ("spectrum", "--support-tol"), ("spectrum", "--cospectral-tol"),
        ("corona-build", "--group-tol"), ("corona-build", "--support-tol"),
        ("corona-build", "--cospectral-tol"),
        ("fidelity", "--support-tol"), ("fidelity", "--cospectral-tol"),
        ("sweep", "--support-tol"), ("sweep", "--cospectral-tol"),
        ("support", "--cospectral-tol"), ("cospectral", "--support-tol"),
        ("periodic", "--cospectral-tol"),
        ("no-pst-scan", "--support-tol"), ("no-pst-scan", "--cospectral-tol"),
    ]

    @pytest.mark.parametrize(
        "command, extra, message",
        [(c, (flag, "1e-3"), f"unrecognized arguments: {flag} 1e-3") for c, flag in UNREAD]
        + [(c, ("--format", "csv"), "argument --format: invalid choice: 'csv'")
           for c in ARGS if c != "sweep"],
        ids=[f"{c}{flag}" for c, flag in UNREAD]
        + [f"{c}--format-csv" for c in ARGS if c != "sweep"],
    )
    def test_undeclared_option_is_refused_before_analysis(self, capsys, monkeypatch,
                                                          command, extra, message):
        dims = []
        solve = spectral.symmetric_eigen
        monkeypatch.setattr(spectral, "symmetric_eigen",
                            lambda matrix: dims.append(len(matrix)) or solve(matrix))
        code, out, err = run(capsys, command, *self.ARGS[command], *extra)
        assert code == EXIT_USAGE
        assert out == "" and message in err
        assert dims == []

    @pytest.mark.parametrize("command", ["spectrum", "corona-build"])
    def test_tolerance_env_default_is_checked_like_the_flag(self, capsys, monkeypatch,
                                                            command):
        monkeypatch.setenv("CORONAWALK_GROUP_TOL", "0.5")
        code, out, err = run(capsys, command, *self.ARGS[command])
        assert code == EXIT_USAGE
        assert out == ""
        assert "CORONAWALK_GROUP_TOL='0.5': 0.5 must lie in (0, 1e-2]" in err


class TestEnvOverrides:
    def test_target_env_changes_default(self, capsys, monkeypatch):
        monkeypatch.setenv("CORONAWALK_TARGET", "0.5")
        code, out, _ = run(
            capsys,
            "pgst", "corona(path:2,cycle:3)", "--u", "0", "--v", "1",
            "--family", "t51",
        )
        report = json.loads(out)
        # fidelity 0.734 at ell = 0 already clears the lowered target
        assert report["target"] == 0.5
        assert report["best_ell"] == 0

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("CORONAWALK_TARGET", "0.5")
        code, out, _ = run(
            capsys,
            "pgst", "corona(path:2,cycle:3)", "--u", "0", "--v", "1",
            "--family", "t51", "--target", "0.99", "--lmax", "100",
        )
        assert json.loads(out)["target"] == 0.99

    def test_bad_env_value_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("CORONAWALK_LMAX", "many")
        code, _, _ = run(capsys, "spectrum", "path:2")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("source", ["default", "flag", "env"])
    def test_pgst_tolerances_reach_the_base_gate(self, capsys, monkeypatch, source):
        seen = []
        certify = transfer.pst_certify
        monkeypatch.setattr(transfer, "pst_certify", lambda d, u, v, s, c:
                            seen.append((s, c)) or certify(d, u, v, s, c))
        extra = ()
        expected = (spectral.DEFAULT_SUPPORT_TOL, spectral.DEFAULT_COSPECTRAL_TOL)
        if source == "flag":
            extra = ("--support-tol", "1e-6", "--cospectral-tol", "1e-5")
            expected = (1e-6, 1e-5)
        elif source == "env":
            monkeypatch.setenv("CORONAWALK_SUPPORT_TOL", "1e-6")
            monkeypatch.setenv("CORONAWALK_COSPECTRAL_TOL", "1e-5")
            expected = (1e-6, 1e-5)
        code, out, _ = run(capsys, "pgst", "corona(path:2,cycle:3)", "--u", "0",
                           "--v", "1", "--family", "t51", "--lmax", "100", *extra)
        assert code == EXIT_OK
        assert seen == [expected]
        assert json.loads(out)["best_ell"] == 53
