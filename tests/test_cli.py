import contextlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from coronawalk import corona, exact, graphs, spectral, transfer
from coronawalk.cli import (
    EXIT_ANALYSIS,
    EXIT_OK,
    EXIT_USAGE,
    GraphSpecError,
    _decomposition,
    _render_csv,
    _round15,
    dumps_report,
    parse_graph_spec,
    render_report,
    run_command,
)
from coronawalk.defaults import DEFAULT_COSPECTRAL_TOL, DEFAULT_SUPPORT_TOL
from coronawalk.exact import QuadInt
from coronawalk.graphs import GraphSpec
from coronawalk.leafspectra import FamilyDecomposition


SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(argv, cwd=None, stdout=subprocess.PIPE, unbuffered=False):
    """`python -m coronawalk.cli argv` in a child, its stdout buffered unless
    `unbuffered`.  main() ends the process, so it only ever runs in a child."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "coronawalk.cli", *argv], cwd=cwd,
                          env=env, stdout=stdout, stderr=subprocess.PIPE, timeout=60)


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
        assert graphs.build_graph(spec, {}).n == (2 * 3) * 4

    def test_whitespace_insensitive(self):
        assert parse_graph_spec(" corona( path:2 ,\tcycle:3 ) ") == parse_graph_spec(
            "corona(path:2,cycle:3)"
        )

    def test_file_spec(self):
        spec = parse_graph_spec("file:/tmp/some.edges")
        assert spec == GraphSpec("file", path="/tmp/some.edges")

    @pytest.mark.parametrize(
        "text",
        ["", "path:", "foo:3", "corona(path:2)", "path:2garbage", "cycle:2", "path:0",
         "path:\u00b2", "corona(path:2,cycle:3", "path", ":3", "file:"],
    )
    def test_errors_carry_position(self, text):
        with pytest.raises(GraphSpecError) as err:
            parse_graph_spec(text)
        assert "position" in str(err.value)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("path:\u00b2", "path needs an integer size (at position 5)"),
            # int() reads a fullwidth digit; a size is ASCII digits only
            ("path:\uff12", "path needs an integer size (at position 5)"),
            ("path:3\u00b2", "unexpected trailing text '\u00b2' (at position 6)"),
            ("corona(path:2,cycle:\u00b9)", "cycle needs an integer size (at position 20)"),
            ("corona(path:2,cycle:3", "expected ')' closing corona (at position 21)"),
            ("path", "expected 'kind:value' (at position 0)"),
            # a missing kind is no family's name
            (":3", "expected 'kind:value' (at position 0)"),
            ("corona(:3,path:2)", "expected 'kind:value' (at position 7)"),
            ("file:", "empty file path (at position 5)"),
            ("file: ,", "empty file path (at position 5)"),
            # positions index the text as given, whitespace included
            (" corona( path:2 ;cycle:3)", "expected ',' between corona factors (at position 16)"),
            ("path: 1 0", "unexpected trailing text '0' (at position 8)"),
        ],
    )
    def test_error_messages(self, text, message):
        with pytest.raises(GraphSpecError) as err:
            parse_graph_spec(text)
        assert str(err.value) == message

    def test_file_path_keeps_inner_whitespace(self):
        spec = parse_graph_spec("corona( file: /tmp/a b.edges ,cycle:3)")
        assert spec.factors[0] == GraphSpec("file", path="/tmp/a b.edges")


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

    def test_family_values_print_as_their_labels(self, capsys):
        # the eigensolver gives 7.00000000000001; the theorem gives 7 exactly
        code, out, _ = run(capsys, "spectrum", "complete:8")
        assert code == EXIT_OK
        assert [(c["value"], c["multiplicity"]) for c in json.loads(out)["classes"]] == [
            (7.0, 1), (-1.0, 7)]

    def test_family_spectrum_runs_no_eigensolve_nor_rank(self, capsys, monkeypatch):
        calls = []
        for module, name in ((spectral, "symmetric_eigen"), (spectral, "exact_rank"),
                             (exact, "exact_rank"), (graphs, "build_family")):
            monkeypatch.setattr(module, name, lambda *args, name=name: calls.append(name))
        code, out, err = run(capsys, "spectrum", "cycle:400")
        assert (code, err, calls) == (EXIT_OK, "", [])
        classes = json.loads(out)["classes"]
        # 2cos(2 pi j/400), j/400 = p/d: j = 0, 200, 100 (d = 1, 2, 4), then
        # 80, 160 (d = 5), 50, 150 (d = 8) and 40, 120 (d = 10): 9 labels
        assert len(classes) == 201 and sum(c["multiplicity"] for c in classes) == 400
        assert sum("exact" in c for c in classes) == 9

    @pytest.mark.parametrize(
        "argv",
        [("support", "star:5", "--u", "0"), ("cospectral", "path:3", "--u", "0", "--v", "2"),
         ("periodic", "cycle:7", "--u", "0"), ("pst", "path:3", "--u", "0", "--v", "2")],
        ids=["support", "cospectral", "periodic", "pst"])
    def test_family_vertex_queries_run_no_eigensolve(self, capsys, monkeypatch, argv):
        calls = []
        for module, name in ((spectral, "symmetric_eigen"), (spectral, "exact_rank"),
                             (exact, "exact_rank"), (graphs, "build_family")):
            monkeypatch.setattr(module, name, lambda *args, name=name: calls.append(name))
        code, _, err = run(capsys, *argv)
        assert (code, err, calls) == (EXIT_OK, "", [])

    @pytest.mark.parametrize(
        "argv",
        [("spectrum", "corona(cocktail:3,cycle:3)"),
         ("support", "corona(path:3,empty:2)", "--u", "4"),
         ("cospectral", "corona(cycle:4,cycle:3)", "--u", "0", "--v", "2"),
         ("periodic", "corona(cycle:8,cycle:4)", "--u", "6"),
         # within one 4-cycle copy, over an isolated base vertex: PST at pi/2
         ("pst", "corona(empty:2,cycle:4)", "--u", "2", "--v", "6"),
         ("fidelity", "corona(cycle:4,cycle:3)", "--u", "11", "--v", "12", "--t", "0.5"),
         ("sweep", "corona(cycle:4,cycle:3)", "--u", "0", "--v", "2", "--t-max", "9",
          "--steps", "40"),
         # over a path or star copy the lifts are the secular equation's roots
         ("spectrum", "corona(cycle:13,path:4)"),
         ("pst", "corona(cycle:13,path:4)", "--u", "0", "--v", "6"),
         ("periodic", "corona(cycle:6,path:3)", "--u", "1"),
         ("cospectral", "corona(cycle:6,path:3)", "--u", "0", "--v", "3"),
         ("sweep", "corona(cycle:6,path:9)", "--u", "0", "--v", "3", "--t-max", "3",
          "--steps", "5"),
         ("support", "corona(path:6,star:4)", "--u", "14"),
         ("fidelity", "corona(path:4,star:3)", "--u", "0", "--v", "8", "--t", "1.5")],
        ids=["spectrum", "support", "cospectral", "periodic", "pst", "fidelity", "sweep",
             "spectrum-path", "pst-path", "periodic-path", "cospectral-path", "sweep-path",
             "support-star", "fidelity-star"])
    def test_family_corona_queries_run_no_eigensolve(self, capsys, argv):
        """A family corona is read off both factors' theorems and the lifts of
        its base classes: no eigensolver, no rank."""
        with mock.patch.object(spectral, "symmetric_eigen", side_effect=AssertionError), \
                mock.patch.object(np.linalg, "eigvalsh", side_effect=AssertionError), \
                mock.patch.object(np.linalg, "eigh", side_effect=AssertionError), \
                mock.patch.object(exact, "exact_rank", side_effect=AssertionError), \
                mock.patch.object(spectral, "exact_rank", side_effect=AssertionError):
            code, out, err = run(capsys, *argv)
        assert (code, err) == (EXIT_OK, "")
        if argv[:2] == ("pst", "corona(empty:2,cycle:4)"):
            assert json.loads(out)["verdict"] == "PST"

    @pytest.mark.parametrize(
        "argv",
        [("sweep", "path:6", "--u", "0", "--v", "5", "--t-max", "10", "--steps", "50"),
         ("pgst", "corona(cocktail:3,cycle:3)", "--u", "0", "--v", "1", "--family", "cocktail",
          "--lmax", "100"),
         ("pgst", "corona(path:2,cycle:3)", "--u", "0", "--v", "1", "--family", "t51",
          "--lmax", "100"),
         ("no-pst-scan", "corona(cycle:6,cycle:3)", "--pair", "base-copy", "--v", "0",
          "--vp", "3", "--points", "100")],
        ids=["sweep", "pgst-cocktail", "pgst-t51", "no-pst-scan"])
    def test_family_sweep_and_searches_run_no_eigensolve(self, capsys, argv):
        """A sweep on a family spec reads the family's eigenspaces, and so do
        the searches on a family base: the grid is the only numpy work."""
        with mock.patch.object(np.linalg, "eigh", side_effect=AssertionError), \
                mock.patch.object(exact, "exact_rank", side_effect=AssertionError), \
                mock.patch.object(spectral, "exact_rank", side_effect=AssertionError):
            code, _, err = run(capsys, *argv)
        assert (code, err) == (EXIT_OK, "")

    @pytest.mark.parametrize("spec", ["path:5000", "complete:4097", "cocktail:2049"])
    def test_family_spectrum_over_budget_builds_nothing(self, capsys, monkeypatch, spec):
        builds = []
        monkeypatch.setattr(graphs, "build_family", builds.append)
        code, out, err = run(capsys, "spectrum", spec)
        assert (code, out, builds) == (EXIT_ANALYSIS, "", [])
        assert "exceeds dense budget 4096" in err

    def test_json_roundtrip_identical(self, capsys):
        _, out, _ = run(capsys, "spectrum", "corona(path:3,cycle:3)")
        assert dumps_report(json.loads(out)) == out

    def test_72_vertex_corona_is_warning_free(self, capsys):
        # the suite turns RuntimeWarnings into errors
        code, out, err = run(capsys, "spectrum", "corona(cycle:12,cycle:5)")
        assert code == EXIT_OK and err == ""
        assert json.loads(out)["n"] == 72


# -0.0, integral floats, the edges of %.15g's fixed notation (1e15, 1e-4),
# values that round to inf at 15 digits, and the non-finite ones
EDGE_FLOATS = [0.0, -0.0, 1.0, -7.0, 2.0**53, 1e15, 999999999999999.4, 1e16,
               123456789012345.67, 1e-4, 9.99999999999999e-05, 1.5e-7, 5e-324,
               1.7976931348623157e308, -1.79769313486232e308, math.inf, -math.inf,
               math.nan]
report_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(1e14, 1e17),
    st.floats(1e-12, 1e-4),
    st.integers(-(2**60), 2**60).map(float),
    st.sampled_from(EDGE_FLOATS),
)
report_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70), st.text(max_size=8),
    report_floats,
    st.builds(complex, report_floats, report_floats),
    st.builds(QuadInt.from_int, st.integers(-50, 50)),
    st.builds(QuadInt, st.integers(-50, 50), st.integers(-50, 50).filter(bool),
              st.sampled_from([2, 3, 5, 6, 7, 10])),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    report_floats.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.lists(report_floats, max_size=8).map(np.array),
    st.lists(report_floats, max_size=8).map(lambda v: np.array(v).reshape(-1, 1)),
    st.lists(st.integers(-(2**40), 2**40), max_size=8).map(
        lambda v: np.array(v, dtype=np.int64)),
)
report_values = st.recursive(
    report_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.lists(report_floats, max_size=12),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=6), st.integers(-9, 9)), inner,
                        max_size=5),
    ),
    max_leaves=16,
)


class TestReportWriter:
    """The one-walk JSON writer, the text writer and the bulk CSV writer print
    the bytes of the references in tests/oracles.py (a stdlib encoder and a
    flattening of the canonical values that `oracles.canon` makes), and raise
    where they raise."""

    @given(st.dictionaries(st.text(max_size=6), report_values, max_size=6))
    @example({"times": np.linspace(0.0, 3.0, 7), "empty": {}, "none": [], "s": "a\"\n\u00e9"})
    @example({"t": 1.7976931348623157e308})
    @example({"fidelities": [0.5, math.nan]})
    @settings(max_examples=150, deadline=None)
    def test_json_matches_stdlib_reference(self, report):
        try:
            expected = oracles.dumps_report(report)
        except ValueError as err:
            with pytest.raises(ValueError) as raised:
                dumps_report(report)
            assert str(raised.value) == str(err)
            return
        assert dumps_report(report) == expected

    @given(st.dictionaries(st.text(max_size=6), report_values, max_size=6))
    @example({"phase": complex(-0.0, 1.0), "label": QuadInt(1, -1, 5), 3: (2.5, np.int64(4))})
    @settings(max_examples=150, deadline=None)
    def test_text_matches_reference(self, report):
        expected = "\n".join(oracles.text_lines(oracles.canon(report))) + "\n"
        assert render_report(report, "text") == expected

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_unknown_value_raises(self, fmt):
        with pytest.raises(TypeError) as raised:
            render_report({"ok": [1, QuadInt(2, 0, 1)], "seen": {3}}, fmt)
        assert str(raised.value) == "cannot serialize set"

    # finite values that round to inf at 15 digits are left out: the reference
    # prints them as inf and the bulk writer as their 15 digits, and neither
    # reaches a sweep (such a --t-max is a usage error, fidelities are <= 1)
    @given(st.lists(st.tuples(report_floats, report_floats).filter(
        lambda row: all(math.isfinite(_round15(x)) or not math.isfinite(x) for x in row)),
        max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_csv_matches_reference(self, rows):
        left = np.array([t for t, _ in rows], dtype=float)
        right = np.array([f for _, f in rows], dtype=float)
        header = ("t", "fidelity")
        assert _render_csv(header, left, right) == oracles.render_csv(header, left, right)


class TestTextReports:
    """--format text prints the JSON report's leaves as `path = value` lines:
    sorted keys, list indices and str() of each parsed leaf."""

    @pytest.mark.parametrize("argv, marker", [
        (("spectrum", "path:4"), "classes.0.exact.delta = 5"),
        (("support", "path:4", "--u", "0"), "classes.3.exact.b = -1"),
        (("fidelity", "path:2", "--u", "0", "--v", "1", "--t", "1.5"), "amplitude.im = "),
        (("sweep", "path:2", "--u", "0", "--v", "1", "--t-max", "3", "--steps", "5"),
         "times.4 = 3.0"),
        (("cospectral", "corona(path:3,cycle:3)", "--u", "2", "--v", "6"),
         "strongly_cospectral = False"),
        (("cospectral", "path:3", "--u", "0", "--v", "2"), "signs.1.sign = -1"),
        (("periodic", "corona(path:2,cycle:3)", "--u", "0"), "vertex_test.periodic = "),
        # the integer 2 cannot share the a = -1 of (-1 +- sqrt(5))/2
        (("periodic", "cycle:5", "--u", "0"),
         "vertex_test.reason = no shared (a, delta) quadratic form covers the support"),
        (("pst", "path:3", "--u", "0", "--v", "2"), "phase.re = "),
        (("no-pst-scan", "corona(cycle:4,cycle:3)", "--pair", "base-base", "--v", "0",
          "--vp", "2", "--points", "100"), "vertices.1 = 2"),
        (("pgst", "corona(cycle:4,cycle:3)", "--u", "0", "--v", "2", "--family", "t52",
          "--lmax", "100"), "trace.0.ell = 0"),
    ], ids=["spectrum", "support", "fidelity", "sweep", "cospectral-refuted",
            "cospectral-decomposed", "periodic", "periodic-no-quadratic-fit", "pst",
            "no-pst-scan", "pgst"])
    def test_text_flattens_the_json_report(self, capsys, argv, marker):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_OK, err
        report = json.loads(out)
        code, text, err = run(capsys, *argv, "--format", "text")
        assert code == EXIT_OK, err
        assert text == "\n".join(oracles.text_lines(report)) + "\n"
        assert any(line.startswith(marker) for line in text.splitlines())


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
    def test_eigensolver_never_sees_the_corona(self, capsys, monkeypatch, tmp_path,
                                               spec, largest_factor):
        dims = []
        solve = spectral.symmetric_eigen

        def recording(matrix):
            dims.append(len(matrix))
            return solve(matrix)

        monkeypatch.setattr(spectral, "symmetric_eigen", recording)
        for command, *flags in self.COMMANDS:
            assert run(capsys, command, spec, *flags)[0] == EXIT_OK, command
        # a family corona over a regular copy factor runs none at all
        assert max(dims, default=0) <= largest_factor
        dims.clear()
        # an irregular copy factor read from a file lifts through its main
        # directions too
        path4 = tmp_path / "path4.edges"
        path4.write_text("4\n0 1\n1 2\n2 3\n", encoding="utf-8")
        assert run(capsys, "spectrum", f"corona(cycle:13,file:{path4})")[0] == EXIT_OK
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
        g = graphs.build_graph(spec.factors[0], {})
        oracle = spectral.exact_decomposition(graphs.build_graph(spec, {}))

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
            sup = oracle.support(u)
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
        # a family's spectrum and vertex queries are read off the theorem, and
        # so are a family corona's over any family: no matrix is built
        [(("spectrum", "cycle:12"), []),
         (("support", "cycle:12", "--u", "0"), []),
         (("periodic", "corona(cycle:8,cycle:4)", "--u", "1"), []),
         (("pst", "corona(cycle:13,path:4)", "--u", "0", "--v", "6"), []),
         # an irregular H read from a file is labelled before its main data
         # is read off it, and the family base is read by theorem
         (("pst", "corona(cycle:13,file:{path4})", "--u", "0", "--v", "6"), [4]),
         # a leaf that is both factors is decomposed once
         (("spectrum", "corona(file:{path4},file:{path4})"), [4])],
        ids=["spectrum", "support", "periodic-corona", "pst-path-copy", "pst-irregular-copy",
             "spectrum-file-twice"],
    )
    def test_each_adjacency_is_built_once(self, capsys, monkeypatch, tmp_path, argv, orders):
        path4 = tmp_path / "path4.edges"
        path4.write_text("4\n0 1\n1 2\n2 3\n", encoding="utf-8")
        argv = [a.format(path4=path4) for a in argv]
        built = []
        adjacency = graphs.Graph.adjacency
        monkeypatch.setattr(graphs.Graph, "adjacency",
                            lambda g: built.append(g.n) or adjacency(g))
        assert run(capsys, *argv)[0] == EXIT_OK
        assert built == orders


class TestCoronaSpecBuilds:
    def test_irregular_copy_factor_krylov_rank_runs_once(self, capsys, monkeypatch, tmp_path):
        # periodic reads the corona spec in the closed form and in the base
        # test; H's Krylov relation is eliminated once
        path3 = tmp_path / "path3.edges"
        path3.write_text("3\n0 1\n1 2\n", encoding="utf-8")
        orders = []
        relation = corona.main_polynomial
        monkeypatch.setattr(corona, "main_polynomial",
                            lambda edges, n: orders.append(n) or relation(edges, n))
        assert run(capsys, "periodic", f"corona(cycle:6,file:{path3})", "--u", "1")[0] == EXIT_OK
        assert orders == [3]


class TestLabelsFollowTheReader:
    """Exact labels are made only where a command reads them: the certifying
    commands and the base of the searches, never a scan's copy factor nor a
    float reader."""

    SCAN = ("--pair", "base-base", "--v", "0", "--vp", "3", "--points", "100")

    @pytest.mark.parametrize(
        "spec",
        ["corona(cycle:6,path:9)", "corona(cycle:6,corona(path:3,empty:1))"],
        ids=["irregular-copy", "corona-copy"],
    )
    def test_scan_ranks_the_main_data_alone(self, capsys, monkeypatch, spec):
        """The scan makes no rank at all: the 6-cycle base takes its labels
        by theorem, H's main data comes from its exact Krylov relation, and
        H's own classes stay unlabelled."""
        ranks = []
        for module in (exact, spectral):
            monkeypatch.setattr(module, "exact_rank", lambda rows, rank=module.exact_rank:
                                ranks.append(len(rows)) or rank(rows))
        code, out, err = run(capsys, "no-pst-scan", spec, *self.SCAN)
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out)["max_fidelity"] < 1
        assert ranks == []

    def test_family_base_takes_labels_without_rank(self, capsys, monkeypatch):
        """The 202-vertex cocktail base is read by theorem: its eigenspaces
        give the walk terms the search reads, with no rank and no
        eigensolve."""
        ranks, solves = [], []
        for module in (exact, spectral):
            monkeypatch.setattr(module, "exact_rank", lambda rows, rank=module.exact_rank:
                                ranks.append(len(rows)) or rank(rows))
        eigen = spectral.symmetric_eigen
        monkeypatch.setattr(spectral, "symmetric_eigen",
                            lambda a: solves.append(len(a)) or eigen(a))
        code, out, err = run(capsys, "pgst", "corona(cocktail:101,cycle:3)", "--u", "0",
                             "--v", "1", "--family", "cocktail", "--lmax", "1000")
        assert (code, err) == (EXIT_OK, "")
        assert ranks == []
        assert solves == []

    @pytest.mark.parametrize("copy", ["path:3", "star:4"])
    def test_scan_reads_a_family_copy_factor_by_theorem(self, capsys, monkeypatch, copy):
        """Over a path or star copy factor the scan reads H's main data by
        theorem (`corona.main_atoms` on its eigenspaces), with no eigensolve,
        and finds what the main data off H's eigensolve finds."""
        spec_text = f"corona(cycle:6,{copy})"
        argv = ("--pair", "base-copy", "--v", "0", "--vp", "1", "--w", "1", "--points", "2000")
        with mock.patch.object(spectral, "symmetric_eigen", side_effect=AssertionError):
            code, out, err = run(capsys, "no-pst-scan", spec_text, *argv)
        assert (code, err) == (EXIT_OK, "")
        spec = parse_graph_spec(spec_text)
        base = spec.factors[0]
        h = graphs.build_graph(spec.factors[1], {})
        scan = transfer.corona_no_pst_check(
            oracles.search_engine(FamilyDecomposition(base.kind, base.size, 1e-8), h),
            1, 0, 50.0, 2000, 1)
        report = json.loads(out)
        for key in ("max_fidelity", "argmax_time", "static_bound"):
            assert abs(report[key] - getattr(scan, key)) <= 1e-12

    @pytest.mark.parametrize(
        "argv",
        [("pgst", "--u", "0", "--v", "1", "--family", "cocktail", "--lmax", "1000"),
         ("no-pst-scan", "--pair", "base-base", "--v", "0", "--vp", "3", "--points", "1000")],
        ids=["pgst-cocktail", "no-pst-scan"])
    def test_searches_on_a_file_base_make_no_rank(self, capsys, tmp_path, argv):
        """Only the t51 and t52 base gate reads labels: the cocktail family and
        the scan read a file base's float classes, with no rank, and find what
        the family spelling of the same graph finds."""
        path = tmp_path / "cocktail7.edges"
        path.write_text(graphs.write_edge_list(graphs.build_family(GraphSpec("cocktail", 7))),
                        encoding="utf-8")
        command, *flags = argv
        with mock.patch.object(exact, "exact_rank", side_effect=AssertionError), \
                mock.patch.object(spectral, "exact_rank", side_effect=AssertionError):
            code, out, err = run(capsys, command, f"corona(file:{path},cycle:3)", *flags)
        assert (code, err) == (EXIT_OK, "")
        family = json.loads(run(capsys, command, "corona(cocktail:7,cycle:3)", *flags)[1])
        key = "best_fidelity" if command == "pgst" else "max_fidelity"
        assert abs(json.loads(out)[key] - family[key]) <= 1e-12

    @pytest.mark.parametrize(
        "argv",
        [("fidelity", "corona(cycle:6,corona(path:3,empty:1))", "--u", "0", "--v", "3",
          "--t", "1"),
         ("sweep", "corona(cycle:6,file:{path9})", "--u", "0", "--v", "3", "--t-max", "3",
          "--steps", "5"),
         ("cospectral", "corona(cycle:6,file:{path3})", "--u", "0", "--v", "3")],
        ids=["fidelity", "sweep", "cospectral"],
    )
    def test_float_readers_make_no_label(self, capsys, monkeypatch, tmp_path, argv):
        # the two labellers: a file leaf's rank and a lift's polynomial; the
        # irregular copy factors are path:9 and path:3 read from files, which
        # take the float classes
        paths = {}
        for m in (3, 9):
            paths[f"path{m}"] = tmp_path / f"path{m}.edges"
            paths[f"path{m}"].write_text(graphs.write_edge_list(graphs.path_graph(m)),
                                         encoding="utf-8")
        argv = [a.format(**paths) for a in argv]
        labels = []
        for module, name in ((spectral, "attach_exact_labels"), (corona, "_lift_labels")):
            monkeypatch.setattr(module, name, lambda *args, label=getattr(module, name):
                                labels.append(args[0].n) or label(*args))
        assert run(capsys, *argv)[0] == EXIT_OK
        assert labels == []


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

    def test_unlabelled_support_value_refutes_transfer_by_degree(self, capsys):
        # 2cos(2 pi j/400) with j/400 = p/d, d = 400/gcd(j, 400), has degree
        # phi(d)/2 >= 3 unless d is 1, 2, 3, 4, 5, 6, 8, 10 or 12
        code, out, _ = run(capsys, "pst", "cycle:400", "--u", "0", "--v", "200")
        assert code == EXIT_OK
        report = json.loads(out)
        assert (report["verdict"], report["failure_reason"]) == (
            "NoPST", "support value of degree > 2")
        code, out, _ = run(capsys, "periodic", "cycle:7", "--u", "0")
        assert json.loads(out)["vertex_test"] == {
            "periodic": "no", "reason": "support value of degree > 2"}

    @pytest.mark.parametrize("spec", ["path:7", "corona(path:3,path:3)"])
    def test_out_of_range_target_fails_before_a_verdict(self, capsys, spec):
        # u = 0's support holds an unlabelled value, a verdict that needs no v
        code, out, err = run(capsys, "pst", spec, "--u", "0", "--v", "99")
        assert (code, out) == (EXIT_ANALYSIS, "")
        assert err.startswith("analysis error: vertex 99 out of range for dimension ")

    def test_family_support_reads_no_tolerance(self, capsys):
        # the 6 classes of path:200 nearest each of 2 and -2 hold vertex 0 with
        # ||E e_0|| from 1.6e-3 to 9.4e-3, below this tolerance: the float
        # route dropped them
        code, out, _ = run(capsys, "support", "path:200", "--u", "0", "--support-tol", "1e-2")
        assert code == EXIT_OK and len(json.loads(out)["classes"]) == 200

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
        assert "corona_base_test" not in report
        assert report["vertex_test"]["periodic"] == "yes"
        assert report["vertex_test"]["witness_period"] == pytest.approx(
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

    def test_base_copy_scan_defaults_to_copy_vertex_0(self, capsys):
        """star:4 is irregular, so the base-copy amplitude depends on w."""
        argv = ("no-pst-scan", "corona(path:3,star:4)", "--pair", "base-copy",
                "--v", "0", "--vp", "1", "--points", "200")
        default = run(capsys, *argv)
        assert default[0] == EXIT_OK
        assert run(capsys, *argv, "--w", "0") == default
        assert run(capsys, *argv, "--w", "1") != default

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

    def test_pgst_cocktail(self, capsys):
        """A cocktail search that passes its gates reports what the library
        search on the same factors finds."""
        code, out, err = run(
            capsys,
            "pgst", "corona(cocktail:3,complete:4)", "--u", "0", "--v", "1",
            "--family", "cocktail", "--lmax", "1000", "--target", "0.99",
        )
        assert code == EXIT_OK and err == ""
        g = graphs.cocktail_party_graph(3)
        result = transfer.pgst_search(
            oracles.search_engine(spectral.exact_decomposition(g), graphs.complete_graph(4)), g,
            0, 1, "cocktail", ell_max=1000, target=0.99,
        )
        report = json.loads(out)
        assert result.target_reached and report["target_reached"] is True
        assert report["best_ell"] == result.best_ell
        assert report["best_fidelity"] == pytest.approx(result.best_fidelity, abs=1e-14)

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

    def test_periodic_coincident_lifts(self, capsys):
        # the lifts of C6's support over two isolated copies meet at 2 and -2
        code, out, _ = run(capsys, "periodic", "corona(cycle:6,empty:2)", "--u", "0")
        report = json.loads(out)
        assert code == EXIT_OK and "corona_base_test" not in report
        assert report["vertex_test"]["periodic"] == "yes"

    @pytest.mark.parametrize("spec", ["corona(path:1,cycle:3)", "corona(empty:2,empty:2)"])
    def test_periodic_lifts_a_one_vertex_or_disconnected_base(self, capsys, spec):
        # the base vertex is isolated in the corona: support {0}, periodic
        code, out, _ = run(capsys, "periodic", spec, "--u", "0")
        report = json.loads(out)
        assert code == EXIT_OK and "corona_base_test" not in report
        assert report["vertex_test"] == {"case": "all-integer", "periodic": "yes",
                                         "witness_period": pytest.approx(2 * math.pi)}

    def test_file_path_with_a_space(self, capsys, tmp_path):
        # a decoy without the space: reading it would report n = 2
        (tmp_path / "a b.edges").write_text("3\n0 1\n1 2\n", encoding="utf-8")
        (tmp_path / "ab.edges").write_text("2\n0 1\n", encoding="utf-8")
        text = f"file:{tmp_path}/a b.edges"
        code, out, _ = run(capsys, "spectrum", text)
        report = json.loads(out)
        assert code == EXIT_OK and report["n"] == 3 and report["spec"] == text

    def test_corona_build_text_formats_each_label_once(self, capsys):
        spec = "corona(path:4,cycle:3)"
        with mock.patch.object(graphs, "format_vertex_label",
                               wraps=graphs.format_vertex_label) as fmt:
            code, out, _ = run(capsys, "corona-build", spec, "--format", "text")
        assert code == EXIT_OK and fmt.call_count == 16
        assert out == graphs.write_edge_list(graphs.build_graph(parse_graph_spec(spec), {}))

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

    @pytest.mark.parametrize("text", ["path:\u00b2", "path:3\u00b2", "corona(path:2,cycle:\u00b9)",
                                      "path:\uff12"])
    def test_non_decimal_size_is_usage_error(self, capsys, text):
        code, out, err = run(capsys, "spectrum", text)
        assert code == EXIT_USAGE
        assert out == "" and err.startswith("usage error") and "Traceback" not in err

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
            ("sweep", "path:2", "--u", "0", "--v", "1", "--t-max",
             "1.7976931348623157e308", "--steps", "2"),
            ("sweep", "path:2", "--u", "0", "--v", "1", "--t-max",
             "1.7976931348623157e308", "--steps", "2", "--format", "csv"),
            ("fidelity", "path:2", "--u", "0", "--v", "1", "--t=-1.7976931348623157e308"),
        ],
        ids=["t-nan", "t-neg-inf", "t-max-inf", "t-max-zero", "t-max-negative",
             "steps-1", "points-0", "scan-t-max-nan", "scan-t-max-negative",
             "scan-t-max-zero", "t-max-rounds-to-inf-json", "t-max-rounds-to-inf-csv",
             "t-rounds-to-inf"],
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


_BUDGET = "analysis error: dimension 5000 exceeds dense budget 4096\n"
_REGULAR = "analysis error: the pgst families need a regular copy factor H\n"
_DEGREE = "analysis error: pgst families need a copy factor of nonzero degree\n"
_COCKTAIL = ("analysis error: cocktail family needs a cocktail party base graph on 2n "
             "vertices with odd n >= 3\n")
_DISTINCT = "analysis error: base-base scans need distinct vertices\n"
_SAME = "analysis error: perfect state transfer is between distinct vertices\n"
_NO_FILE = ("analysis error: cannot read edge list no/such.edges: [Errno 2] No such file "
            "or directory: 'no/such.edges'\n")


def _pgst(spec, u, v, family):
    return ("pgst", spec, "--u", str(u), "--v", str(v), "--family", family)


def _scan(spec, pair, v, vp, *w):
    return ("no-pst-scan", spec, "--pair", pair, "--v", str(v), "--vp", str(vp), *w)


class TestSearchGates:
    """The gates of pgst and no-pst-scan that the factor graphs decide fail
    before anything is decomposed.  Exit codes and stderr were recorded from
    the code that checked them after the decompositions; each row with more
    than one fault pins which gate comes first."""

    ROWS = [
        (_pgst("corona(path:5000,cycle:3)", 0, 1, "t51"), _BUDGET),
        (_pgst("corona(path:2,star:5000)", 0, 1, "t51"), _BUDGET),
        (_pgst("corona(path:2,cycle:3)", 2, 1, "t51"),
         "analysis error: base vertex 2 out of range\n"),
        (_pgst("corona(path:2,cycle:3)", 0, -1, "t52"),
         "analysis error: base vertex -1 out of range\n"),
        (_pgst("corona(path:2,star:3)", 0, 1, "t51"), _REGULAR),
        (_pgst("corona(path:2,empty:3)", 0, 1, "t51"), _DEGREE),
        (_pgst("corona(path:2,cycle:3)", 0, 0, "t51"), _SAME),
        (_pgst("corona(path:2,cycle:3)", 1, 1, "t52"), _SAME),
        (_pgst("corona(cocktail:4,cycle:3)", 0, 1, "cocktail"), _COCKTAIL),
        (_pgst("corona(cocktail:1,cycle:3)", 0, 1, "cocktail"), _COCKTAIL),
        (_pgst("corona(cycle:6,cycle:3)", 0, 3, "cocktail"), _COCKTAIL),
        (_pgst("corona(cocktail:3,cycle:3)", 0, 2, "cocktail"),
         "analysis error: vertices 0 and 2 are not antipodal\n"),
        (_pgst("corona(cocktail:3,cycle:3)", 0, 0, "cocktail"),
         "analysis error: vertices 0 and 0 are not antipodal\n"),
        (_pgst("corona(corona(path:2,empty:2),cycle:3)", 0, 1, "cocktail"), _COCKTAIL),
        (_pgst("corona(file:no/such.edges,cycle:3)", 0, 1, "t51"), _NO_FILE),
        # more than one fault
        (_pgst("corona(path:5000,star:3)", 0, 1, "t51"), _BUDGET),
        (_pgst("corona(path:2,star:5000)", 9, 1, "t51"), _BUDGET),
        (_pgst("corona(cocktail:4,cycle:3)", 0, 2, "cocktail"), _COCKTAIL),
        (_pgst("corona(path:3,star:3)", 5, 1, "cocktail"),
         "analysis error: base vertex 5 out of range\n"),
        (_pgst("corona(cycle:6,star:3)", 0, 3, "cocktail"), _REGULAR),
        (_pgst("corona(cycle:6,empty:2)", 0, 3, "cocktail"), _DEGREE),
        (_pgst("corona(path:2,star:3)", 1, 1, "t52"), _REGULAR),
        (_scan("corona(path:5000,cycle:3)", "base-base", 0, 1), _BUDGET),
        (_scan("corona(path:2,star:5000)", "base-copy", 0, 1), _BUDGET),
        (_scan("corona(path:3,cycle:3)", "base-base", 1, 1), _DISTINCT),
        (_scan("corona(path:3,cycle:3)", "base-base", 3, 0),
         "analysis error: base vertex 3 out of range\n"),
        (_scan("corona(path:3,cycle:3)", "base-base", 0, -1),
         "analysis error: base vertex -1 out of range\n"),
        (_scan("corona(path:3,cycle:3)", "base-copy", 3, 0),
         "analysis error: base vertex 3 out of range\n"),
        (_scan("corona(path:3,cycle:3)", "base-copy", 0, 3),
         "analysis error: base vertex 3 out of range\n"),
        (_scan("corona(path:3,cycle:3)", "base-copy", 0, 1, "--w", "3"),
         "analysis error: copy vertex 3 out of range\n"),
        (_scan("corona(path:3,star:4)", "base-copy", 0, 1, "--w", "-1"),
         "analysis error: copy vertex -1 out of range\n"),
        (_scan("corona(file:no/such.edges,cycle:3)", "base-base", 0, 1), _NO_FILE),
        # more than one fault
        (_scan("corona(path:3,cycle:3)", "base-base", 9, 9), _DISTINCT),
        (_scan("corona(path:3,cycle:3)", "base-copy", 5, 1, "--w", "7"),
         "analysis error: base vertex 5 out of range\n"),
        (_scan("corona(path:2,star:5000)", "base-base", 1, 1), _BUDGET),
    ]

    @staticmethod
    def record_decompositions(monkeypatch) -> list[str]:
        """Record every eigensolve, exact rank and adjacency matrix a call makes."""
        calls: list[str] = []

        def recorder(name, fn):
            return lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs)

        monkeypatch.setattr(spectral, "symmetric_eigen",
                            recorder("symmetric_eigen", spectral.symmetric_eigen))
        for module in (exact, spectral):
            monkeypatch.setattr(module, "exact_rank",
                                recorder("exact_rank", module.exact_rank))
        monkeypatch.setattr(graphs.Graph, "adjacency",
                            recorder("adjacency", graphs.Graph.adjacency))
        return calls

    @pytest.mark.parametrize("argv, err", ROWS, ids=[" ".join(r[0]) for r in ROWS])
    def test_pinned_failures(self, capsys, monkeypatch, tmp_path, argv, err):
        monkeypatch.chdir(tmp_path)  # where no/such.edges does not exist
        calls = self.record_decompositions(monkeypatch)
        assert run(capsys, *argv) == (EXIT_ANALYSIS, "", err)
        assert calls == []

    @pytest.mark.parametrize(
        "argv, err",
        [(_pgst("corona(cycle:2000,cycle:3)", 0, 5, "cocktail"), _COCKTAIL),
         (_scan("corona(cycle:400,cycle:3)", "base-base", 1, 1), _DISTINCT),
         (_pgst("corona(cycle:400,cycle:3)", 1, 1, "t51"), _SAME)],
        ids=["pgst-cycle-2000-cocktail", "scan-cycle-400-same-vertex",
             "pgst-cycle-400-same-vertex"],
    )
    def test_gates_do_not_scale_with_the_base(self, capsys, monkeypatch, argv, err):
        """Before the gates ran first, the cocktail call ran for minutes and
        the other two for seconds, in the base's exact decomposition."""
        calls = self.record_decompositions(monkeypatch)
        assert run(capsys, *argv) == (EXIT_ANALYSIS, "", err)
        assert calls == []


class TestSearchPreconditions:
    """The pgst family conditions that the base's exact spectrum decides fail
    after its decomposition, with their own messages."""

    @pytest.mark.parametrize("argv, err", [
        (_pgst("corona(cycle:4,cycle:3)", 0, 2, "t51"),
         "analysis error: t51 family needs 0 outside the support of u\n"),
        (_pgst("corona(path:3,cycle:3)", 0, 2, "t52"),
         "analysis error: t52 family needs base transfer exactly at time pi/2\n"),
    ], ids=["t51-zero-in-support", "t52-transfer-not-at-pi-over-2"])
    def test_unmet_family_condition(self, capsys, argv, err):
        assert run(capsys, *argv) == (EXIT_ANALYSIS, "", err)


def run_captured(*argv) -> tuple[int, str, str]:
    """run_command on argv: exit code, stdout and stderr (no fixtures, for
    use under hypothesis)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(list(argv))
    return code, out.getvalue(), err.getvalue()


def cospectral_report(spec_text: str, u: int, v: int,
                      tol: float = DEFAULT_COSPECTRAL_TOL):
    """Signs of strong cospectrality on the spec's full decomposition (the
    corona engine for a corona), and the cospectral report that path writes."""
    spec = parse_graph_spec(spec_text)
    d = _decomposition(spec)
    signs = d.signs(u, v, tol)
    report = {"command": "cospectral", "spec": str(spec), "u": u, "v": v,
              "strongly_cospectral": signs is not None}
    if signs is not None:
        report["signs"] = [{"value": d.classes[i].value, "sign": sign}
                           for i, sign in sorted(signs.items())]
    return signs, dumps_report(report)


LEAVES = ("path:1", "path:2", "path:3", "cycle:3", "star:3", "star:4", "empty:2",
          "complete:3", "cocktail:2")
small_coronas = st.recursive(
    st.sampled_from(LEAVES),
    lambda inner: st.builds(lambda g, h: f"corona({g},{h})", inner, inner),
    max_leaves=3,
).filter(lambda text: "corona" in text
         and graphs.spec_order(parse_graph_spec(text), {}) <= 48)


class TestCospectralDegreeGate:
    """Strongly cospectral vertices have equal degrees (closed walks of length
    2), so cospectral refutes a pair of unequal degrees, read off the factor
    graphs, before anything is decomposed.  At the default tolerances the
    decomposition path agrees whenever 4 tol |E| < 1: each class moves
    |E[u,u] - E[v,v]| by at most 2 tol, and sum theta^2 <= tr A^2 = 2|E|."""

    # at most this many refuted pairs a graph go through the CLI
    CLI_PAIRS = 6

    def check_refuted_pairs(self, text: str) -> int:
        spec = parse_graph_spec(text)
        g = graphs.build_graph(spec, {})
        degree = [len(g.neighbors(x)) for x in range(g.n)]
        assert [graphs.spec_degree(spec, {}, x) for x in range(g.n)] == degree
        assert 4 * DEFAULT_COSPECTRAL_TOL * g.edge_count < 1
        d = _decomposition(spec)
        refuted = [(u, v) for u in range(g.n) for v in range(g.n) if degree[u] != degree[v]]
        for u, v in refuted:
            assert d.signs(u, v) is None, (u, v)
        for u, v in refuted[:: max(1, len(refuted) // self.CLI_PAIRS)]:
            expected = cospectral_report(text, u, v)[1]
            with mock.patch("coronawalk.cli._decompose") as decomposition:
                assert run_captured("cospectral", text, "--u", str(u), "--v", str(v)) == (
                    EXIT_OK, expected, "")
            decomposition.assert_not_called()
        return len(refuted)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_random_graphs(self, tmp_path_factory, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 12)
        p = rng.random()
        g = graphs.make_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                  if rng.random() < p])
        path = tmp_path_factory.mktemp("degree-gate") / "g.edges"
        path.write_text(graphs.write_edge_list(g), encoding="utf-8")
        self.check_refuted_pairs(f"file:{path}")

    @given(small_coronas)
    @example("corona(path:3,cycle:3)")
    @example("corona(corona(path:2,empty:2),path:3)")
    @settings(max_examples=30, deadline=None)
    def test_small_nested_coronas(self, text):
        self.check_refuted_pairs(text)

    def test_refutation_outranks_a_coarse_tolerance(self):
        """At --cospectral-tol 1e-2 on 33 edges, 4 tol |E| = 1.32: the bound no
        longer covers the float path, and the exact false stands."""
        text = "corona(path:4,cycle:3)"  # base 0 has degree 4, base 1 degree 8
        assert graphs.build_graph(parse_graph_spec(text), {}).edge_count == 33
        argv = ("cospectral", text, "--u", "0", "--v", "1", "--cospectral-tol", "1e-2")
        with mock.patch("coronawalk.cli._decompose") as decomposition:
            code, out, err = run_captured(*argv)
        decomposition.assert_not_called()
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out) == {"command": "cospectral", "spec": text, "u": 0, "v": 1,
                                   "strongly_cospectral": False}

    @pytest.mark.parametrize(
        "argv, err",
        [(("--u", "2", "--v", "2"),
          "analysis error: strong cospectrality is a relation on distinct vertices\n"),
         (("--u", "2", "--v", "12"),
          "analysis error: vertex 12 out of range for dimension 12\n"),
         (("--u", "12", "--v", "0"),
          "analysis error: vertex 12 out of range for dimension 12\n"),
         (("--u", "-1", "--v", "6"),
          "analysis error: vertex -1 out of range for dimension 12\n")],
        ids=["same-vertex", "v-out-of-range", "u-out-of-range", "u-negative"],
    )
    def test_errors_come_from_the_decomposition_path(self, capsys, argv, err):
        """Only an in-range pair of distinct vertices is refuted by degree;
        any other reaches strong_cospectral's own checks and messages."""
        assert run(capsys, "cospectral", "corona(path:3,cycle:3)", *argv) == (
            EXIT_ANALYSIS, "", err)

    def test_budget_comes_first(self, capsys):
        assert run(capsys, "cospectral", "corona(path:5000,cycle:3)", "--u", "0",
                   "--v", "5000") == (EXIT_ANALYSIS, "", _BUDGET.replace("5000", "20000"))


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
        ("fidelity", "--group-tol"), ("fidelity", "--support-tol"),
        ("fidelity", "--cospectral-tol"),
        ("sweep", "--group-tol"), ("sweep", "--support-tol"), ("sweep", "--cospectral-tol"),
        ("support", "--cospectral-tol"), ("cospectral", "--support-tol"),
        ("periodic", "--cospectral-tol"),
        ("no-pst-scan", "--group-tol"), ("no-pst-scan", "--support-tol"),
        ("no-pst-scan", "--cospectral-tol"),
    ]

    @pytest.mark.parametrize(
        "command, extra, message",
        [(c, (flag, "1e-3"), f"unrecognized arguments: {flag} 1e-3") for c, flag in UNREAD]
        + [(c, ("--format", "csv"), "argument --format: invalid choice: 'csv'")
           for c in ARGS if c != "sweep"]
        + [("no-pst-scan", ("--w", "9"), "argument --w: a base-base pair has no copy vertex")],
        ids=[f"{c}{flag}" for c, flag in UNREAD]
        + [f"{c}--format-csv" for c in ARGS if c != "sweep"] + ["no-pst-scan-base-base--w"],
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

    @staticmethod
    def help_output(capsys, *argv) -> str:
        with pytest.raises(SystemExit) as stop:
            run_command([*argv, "--help"])
        assert stop.value.code == 0
        return capsys.readouterr().out

    @staticmethod
    def help_entries(out: str) -> dict[str, str]:
        """Each argument entry of argparse's help output, by its first flag or
        its name, mapped to its text (continuation lines joined)."""
        entries: dict[str, str] = {}
        name = None
        for line in out.splitlines():
            if re.match(r"  \S", line):
                flags, _, text = line.strip().partition("  ")
                name = flags.split()[0].rstrip(",")
                entries[name] = text.strip()
            elif name and line.startswith("    "):
                entries[name] = f"{entries[name]} {line.strip()}".strip()
            else:
                name = None
        return entries

    def test_help_is_for_users(self, capsys):
        """--help exits 0 and describes the tool, not its internals: a line for
        each subcommand, and for each option what it does and its default."""
        out = self.help_output(capsys)
        assert "0 success, 1 usage error, 2 analysis error" in out
        assert "corona(SPEC,SPEC)" in out
        listed = {command: " ".join(text.split()) for command, text in
                  re.findall(r"^    (\S+) +(\S.*(?:\n {5,}\S.*)*)", out, re.M)}
        assert set(listed) == set(self.ARGS)
        for command in self.ARGS:
            sub = self.help_output(capsys, command)
            out += sub
            usage, summary = sub.split("\n\n")[:2]
            assert " ".join(summary.split()) == listed[command]
            entries = self.help_entries(sub)
            assert set(entries) == {"-h", "SPEC", *re.findall(r"--[\w-]+", usage)}, command
            for flag, text in entries.items():
                assert text, (command, flag)
                if flag not in ("-h", "SPEC", "--output"):
                    assert "default: " in text or "(required)" in text, (command, flag, text)
        assert "%(" not in out
        assert not any(word in out for word in ("numpy", "_json", "dataclasses"))


class TestCospectralWalkGate:
    """On a `file:` leaf cospectral also compares the closed walks of every
    length to n - 1 (`exact.closed_walk_witness`): a difference refutes the
    pair exactly, with the report the eigensolve gives and no
    decomposition; a pair that no length refutes takes the eigensolve."""

    @staticmethod
    def permuted_path(tmp_path, n: int, rng: random.Random) -> tuple[str, list[int]]:
        perm = list(range(n))
        rng.shuffle(perm)
        g = graphs.make_graph(n, [tuple(sorted((perm[i], perm[i + 1]))) for i in range(n - 1)])
        path = tmp_path / "path.edges"
        path.write_text(graphs.write_edge_list(g), encoding="utf-8")
        return f"file:{path}", perm

    @pytest.mark.parametrize("seed", range(8))
    def test_a_permuted_path_is_refuted_as_the_eigensolve_refutes_it(self, tmp_path, seed):
        rng = random.Random(seed)
        text, perm = self.permuted_path(tmp_path, 30, rng)
        # two interior vertices of one degree, no mirror pair
        i = rng.randrange(1, 14)
        u, v = perm[i], perm[i + 1]
        signs, expected = cospectral_report(text, u, v)
        assert signs is None
        with mock.patch("coronawalk.cli._decompose") as decomposition:
            assert run_captured("cospectral", text, "--u", str(u), "--v", str(v)) == (
                EXIT_OK, expected, "")
        decomposition.assert_not_called()

    def test_a_mirror_pair_takes_the_eigensolve(self, tmp_path):
        text, perm = self.permuted_path(tmp_path, 30, random.Random(3))
        u, v = perm[4], perm[25]
        signs, expected = cospectral_report(text, u, v)
        assert signs is not None
        assert run_captured("cospectral", text, "--u", str(u), "--v", str(v)) == (
            EXIT_OK, expected, "")


class TestSearchSettings:
    def test_lowered_target_stops_early(self, capsys):
        code, out, _ = run(
            capsys,
            "pgst", "corona(path:2,cycle:3)", "--u", "0", "--v", "1",
            "--family", "t51", "--target", "0.5",
        )
        report = json.loads(out)
        # fidelity 0.734 at ell = 0 already clears the lowered target
        assert report["target"] == 0.5
        assert report["best_ell"] == 0

    @pytest.mark.parametrize("source", ["default", "flag"])
    def test_pgst_tolerances_reach_the_base_gate(self, capsys, monkeypatch, source):
        seen = []
        certify = transfer.pst_certify
        monkeypatch.setattr(transfer, "pst_certify", lambda d, u, v, s, c:
                            seen.append((s, c)) or certify(d, u, v, s, c))
        extra = ()
        expected = (DEFAULT_SUPPORT_TOL, DEFAULT_COSPECTRAL_TOL)
        if source == "flag":
            extra = ("--support-tol", "1e-6", "--cospectral-tol", "1e-5")
            expected = (1e-6, 1e-5)
        code, out, _ = run(capsys, "pgst", "corona(path:2,cycle:3)", "--u", "0",
                           "--v", "1", "--family", "t51", "--lmax", "100", *extra)
        assert code == EXIT_OK
        # once, in the CLI's gate on the family base; the search takes its g
        assert seen == [expected]
        assert json.loads(out)["best_ell"] == 53


class TestSearchReadsTheEngine:
    """pgst and no-pst-scan read the corona engine's walk terms
    (`cli._search_corona`): its lifts carry no label, while the t51 and t52
    base gate reads the labels of the base."""

    def test_a_search_labels_no_lift(self, capsys, monkeypatch, tmp_path):
        """A t51 search on a `file:` base: its gate needs the base's rank
        labels, and its lifts run no lift polynomial."""
        path = tmp_path / "p2.edges"
        path.write_text("2\n0 1\n", encoding="utf-8")
        monkeypatch.setattr(corona, "lift_polynomial", mock.Mock(side_effect=AssertionError))
        code, out, err = run(capsys, "pgst", f"corona(file:{path},cycle:3)", "--u", "0",
                             "--v", "1", "--family", "t51", "--lmax", "5000")
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out)["best_ell"] == 53
        assert corona.lift_polynomial.call_count == 0

    @pytest.mark.parametrize("argv", [
        ("pgst", "corona(cocktail:3,complete:4)", "--u", "0", "--v", "1", "--family",
         "cocktail", "--lmax", "1000"),
        ("no-pst-scan", "corona(cycle:4,cycle:3)", "--pair", "base-copy", "--v", "1",
         "--vp", "0", "--w", "2", "--points", "5000"),
    ], ids=["pgst", "no-pst-scan"])
    def test_the_grid_reads_no_exact_zero(self, capsys, monkeypatch, argv):
        """A copy class is 0 on a base vertex, as is the lift of 0 to k: the
        grid gets the nonzero terms alone."""
        seen = []
        walk_terms = transfer._walk_terms
        monkeypatch.setattr(transfer, "_walk_terms", lambda *args: seen.append(
            (args[0].terms(*args[1:]), walk_terms(*args))) or seen[-1][1])
        assert run(capsys, *argv)[0] == EXIT_OK
        ((terms, (freqs, coefs)),) = seen
        assert 0.0 in [entry for _, entry in terms]
        assert list(zip(freqs, coefs)) == [(f, c) for f, c in terms if c != 0.0]


SMALL_REPORT = ("spectrum", "path:4")
# 225,627 bytes of JSON, far past the 8 KiB stdout buffer
LARGE_REPORT = ("sweep", "path:4", "--u", "0", "--v", "3", "--t-max", "10",
                "--steps", "5000")


class TestProcess:
    """The console entry point flushes and ends in os._exit: what it flushed is
    all that reaches the caller."""

    @pytest.mark.parametrize(
        "argv",
        [
            SMALL_REPORT,
            LARGE_REPORT,
            ("sweep", "path:2", "--u", "0", "--v", "1", "--t-max", "3",
             "--steps", "2000", "--format", "csv"),
            ("corona-build", "corona(path:3,cycle:3)", "--format", "text"),
            ("spectrum", "corona(path:2,cycle:3)", "--output", "report.json"),
            ("spectrum", "cycle:2"),
            ("spectrum", "complete:5000"),
        ],
        ids=["small", "large", "csv", "corona-build-text", "output-file",
             "usage-error", "analysis-error"],
    )
    def test_process_writes_what_run_command_writes(self, capsys, monkeypatch,
                                                    tmp_path, argv):
        in_process, child = tmp_path / "in-process", tmp_path / "child"
        in_process.mkdir()
        child.mkdir()
        monkeypatch.chdir(in_process)
        code, out, err = run(capsys, *argv)
        proc = run_process(argv, cwd=child)
        assert (proc.returncode, proc.stderr.decode()) == (code, err)
        assert proc.stdout == out.encode()
        assert {p.name: p.read_bytes() for p in child.iterdir()} == \
            {p.name: p.read_bytes() for p in in_process.iterdir()}

    @staticmethod
    def assert_stdout_refused(proc):
        err = proc.stderr.decode()
        assert proc.returncode == EXIT_USAGE, err
        assert err.startswith("usage error: cannot write stdout: "), err
        assert "Traceback" not in err and err.count("\n") == 1, err

    # unbuffered, the write fails in run_command; buffered, a small report
    # fails only at the flush in main()
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [SMALL_REPORT, LARGE_REPORT], ids=["small", "large"])
    def test_full_stdout_is_usage_error(self, argv, unbuffered):
        with open("/dev/full", "wb") as full:
            self.assert_stdout_refused(run_process(argv, stdout=full, unbuffered=unbuffered))

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [SMALL_REPORT, LARGE_REPORT], ids=["small", "large"])
    def test_closed_stdout_pipe_is_usage_error(self, argv, unbuffered):
        read_end, write_end = os.pipe()
        os.close(read_end)  # before the child starts, so before it writes
        try:
            proc = run_process(argv, stdout=write_end, unbuffered=unbuffered)
        finally:
            os.close(write_end)
        self.assert_stdout_refused(proc)


class TestCoronaBuildBudget:
    """corona-build reads the vertex and edge count off the spec and refuses
    a graph past either build budget before it builds anything."""

    @given(small_coronas)
    @settings(max_examples=60, deadline=None)
    @example("corona(cocktail:2,corona(star:4,complete:3))")
    def test_edge_count_read_off_the_spec(self, text):
        spec = parse_graph_spec(text)
        g = graphs.build_graph(spec, {})
        assert (graphs.spec_order(spec, {}), graphs.spec_edge_count(spec, {})) == (
            g.n, g.edge_count)

    @pytest.mark.parametrize(
        "spec, message",
        [("corona(path:10000,path:10)", "110000 vertices exceed the build budget 100000"),
         # 40,200 vertices, within the vertex budget, but 11,959,900 edges
         ("corona(complete:200,complete:200)", "11959900 edges exceed the build budget 250000")],
        ids=["vertices", "edges"])
    def test_over_budget_builds_nothing(self, capsys, monkeypatch, spec, message):
        builds = []
        monkeypatch.setattr(graphs, "build_family", builds.append)
        code, out, err = run(capsys, "corona-build", spec, "--format", "text")
        assert (code, out, builds) == (EXIT_ANALYSIS, "", [])
        assert err == f"analysis error: {message}\n"
