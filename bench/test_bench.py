"""Self-tests of the benchmark: generation, oracle and failure counting.

    python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import collections
import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_invocation_list(name):
    a = workloads.generate(name, 7, "bench/out/x").listing()
    b = workloads.generate(name, 7, "bench/out/x").listing()
    assert a.encode() == b.encode()
    assert a != workloads.generate(name, 8, "bench/out/x").listing()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seeds_share_command_mix_and_size_ladder(name):
    one = workloads.generate(name, 1, "bench/out/x")
    two = workloads.generate(name, 2, "bench/out/x")
    count = lambda w: collections.Counter((i.command, i.expect_exit) for i in w.invocations)
    assert count(one) == count(two)
    assert workloads.ladder(one) == workloads.ladder(two)


def _report(argv) -> str:
    from coronawalk import cli

    code, out, _ = run.run_in_process(cli, argv)
    assert code == 0
    return out


def test_oracle_rejects_one_eigenvalue_perturbed_by_1e_6():
    tree = workloads.corona(workloads.fam("cycle", 4), workloads.fam("cycle", 3))
    inv = workloads.Invocation("spectrum", ("spectrum", "corona(cycle:4,cycle:3)"), 0, tree)
    out = _report(inv.argv)
    assert oracle.check(inv, 0, out, {}) == []
    report = json.loads(out)
    bad = copy.deepcopy(report)
    bad["classes"][1]["value"] += 1e-6
    bad["classes"][1].pop("exact", None)
    assert oracle.check(inv, 0, json.dumps(bad), {})


def test_oracle_rejects_a_pgst_search_above_its_cap():
    tree = workloads.corona(workloads.fam("cycle", 4), workloads.fam("cycle", 3))
    argv = ("pgst", "corona(cycle:4,cycle:3)", "--u", "0", "--v", "2", "--family", "t52",
            "--lmax", "2000", "--target", "0.99")
    inv = workloads.Invocation("pgst", argv, 0, tree, 0.5)
    out = _report(argv)
    assert oracle.check(inv, 0, out, {}) == []
    tight = workloads.Invocation("pgst", argv, 0, tree, 0.4)
    assert oracle.check(tight, 0, out, {})


def test_oracle_rejects_a_pgst_trace_that_does_not_strictly_improve():
    tree = workloads.corona(workloads.fam("cycle", 4), workloads.fam("cycle", 3))
    argv = ("pgst", "corona(cycle:4,cycle:3)", "--u", "0", "--v", "2", "--family", "t52",
            "--lmax", "2000", "--target", "0.99")
    inv = workloads.Invocation("pgst", argv, 0, tree, 0.5)
    report = json.loads(_report(argv))
    assert len(report["trace"]) >= 2
    flat = copy.deepcopy(report)
    flat["trace"][0]["fidelity"] = flat["trace"][1]["fidelity"]
    assert any("strictly" in p for p in oracle.check(inv, 0, json.dumps(flat), {}))


def test_pass_count_depends_on_seconds_only():
    for name in workloads.WORKLOADS:
        assert run.pass_count(name, 1) == 1
        assert run.pass_count(name, 35) == run.pass_count(name, 35.0) >= 3


def test_wrong_exit_code_counts_as_failed():
    wl = workloads.generate("startup", 1, "bench/out/x")
    idx = next(i for i, inv in enumerate(wl.invocations) if inv.expect_exit == 1)
    checker = run.Checker(wl)
    assert not checker.verdict(idx, 0, "")
    assert len(checker.failures) == 1
    assert run.Checker(wl).verdict(idx, 1, "")


def test_startup_workload_passes_the_oracle_in_process(tmp_path, monkeypatch):
    from coronawalk import cli

    monkeypatch.chdir(tmp_path)
    wl = workloads.generate("startup", 3, "inputs")
    (tmp_path / "inputs").mkdir()
    for rel, text in wl.files.items():
        (tmp_path / rel).write_text(text, encoding="utf-8")
    checker = run.Checker(wl)
    for idx, inv in enumerate(wl.invocations):
        code, out, _ = run.run_in_process(cli, inv.argv)
        checker.verdict(idx, code, out)
    assert checker.failures == []


def test_tail_has_ten_invocations_beyond_it():
    walls = [float(i) for i in range(1, 41)]
    value, pct = run.percentile_tail(walls)
    assert sum(w > value for w in walls) == 10
    assert pct == 75.0


def test_known_defect_is_outside_the_traffic_and_still_fails_the_oracle():
    from coronawalk import cli

    wl = workloads.generate("search", 1, "bench/out/x")
    assert wl.known_defects
    checker = run.Checker(wl)
    for inv in wl.known_defects:
        assert inv not in wl.invocations
        code, out, _ = run.run_in_process(cli, inv.argv)
        # once the program is fixed this fails: move the call back into the traffic
        assert any("strictly" in p for p in checker.problems(inv, code, out))
