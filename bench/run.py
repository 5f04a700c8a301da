"""coronawalk benchmark: seeded CLI workloads, timed end to end, checked by an oracle.

    python3 bench/run.py --workload dense --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35

--trace 0 runs the workload closed loop, one client, one fresh
`python -m coronawalk.cli` process at a time, in whole passes over the
invocation list that take about --seconds (PASS_SECONDS), and reports the
end-to-end metrics, call times scaled by an interleaved speed reference
(REFERENCE below).  --trace 1 replays one pass of the same invocations
in-process through `coronawalk.cli.run_command`, untraced and traced, and
reports the per-layer metrics.  The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}; bench/README.md maps every
metric to its layer and workload.
"""

from __future__ import annotations

import os

# one BLAS thread for the oracle here and for every child: steadier timings
# and never more threads than CPUs
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402
from tracer import SpanIndex, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = "bench/out"            # relative to ROOT; listed in .gitignore
SETUP_REPEATS = 9
IMPORT_REPEATS = 5
CALL_TIMEOUT_S = 60.0
TAIL_BEYOND = 10             # cmd_tail_s: ten invocations lie beyond it

# A timed run makes round(--seconds / PASS_SECONDS) whole passes over the
# invocation list.  The pass count depends on --seconds only, so every commit
# times the same calls and the tail rank falls on the same call; a program
# much slower than today stops at the first pass boundary after OVERRUN
# times --seconds.  A pass takes about 12 s on dense and 9.5 s on search and
# startup (speed references included, host in bench/README.md); startup's
# figure is set higher so that a 35 s run makes 3 passes, not 4, and stays
# under 40 s.
PASS_SECONDS = {"dense": 12.0, "search": 9.0, "startup": 11.0}
OVERRUN = 3.0

# Speed reference: a fixed program outside the repository (interpreter start,
# numpy import, a pure-Python loop; -E so PYTHONPATH cannot reach it), run
# every REF_INTERVAL_S between calls.  A shared host's speed can drift by
# 10-25% over minutes; reported times are scaled by REF_NOMINAL_S over the run's
# mean reference time, which cancels most of that drift (bench/README.md).
# The mean, not the median, so that a slow spell weighs on the reference as
# it weighs on the calls.  setup_s, a median of set-ups, is scaled by the
# median of one reference run right after each set-up.
REFERENCE = ("-E", "-c", "import numpy\ns = 0\nfor i in range(150000):\n    s += i * i\n")
REF_INTERVAL_S = 2.0
REF_NOMINAL_S = 0.2

E2E_UNITS = {"cmds_per_s": "1/s", "cmd_p50_s": "s", "cmd_tail_s": "s",
             "peak_rss_mb": "MB", "failed_frac": "ratio", "setup_s": "s"}
# failed_frac is 0 on a correct program, so the JSON line carries it as
# "failed" / "attempted" rather than as a bounded metric
JSON_E2E = ("cmds_per_s", "cmd_p50_s", "cmd_tail_s", "peak_rss_mb", "setup_s")


# ---------------------------------------------------------------------------
# child processes

def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("CORONAWALK_")}
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass(frozen=True)
class Call:
    """Result of one CLI process: exit code, wall seconds, peak RSS, output file."""

    exit_code: int
    wall: float
    maxrss_kb: int
    out_path: Path
    timed_out: bool


class Launcher:
    """The helper process that starts every CLI call; see launcher.py for why."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=child_env(), cwd=ROOT)

    def call(self, argv, out_path: Path) -> Call:
        """One `python -m coronawalk.cli argv` process."""
        return self.run(["-m", "coronawalk.cli", *argv], out_path)

    def run(self, interpreter_args, out_path: Path) -> Call:
        request = {"argv": list(interpreter_args), "out": str(out_path),
                   "timeout": CALL_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process exited")
        res = json.loads(line)
        return Call(res["exit_code"], res["wall"], res["maxrss_kb"], out_path,
                    res["timed_out"])

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


def speed_reference(launcher: Launcher, workdir: Path) -> float:
    ref = launcher.run(REFERENCE, workdir / "reference.out")
    if ref.exit_code != 0:
        raise RuntimeError(f"speed reference exited with {ref.exit_code}")
    return ref.wall


def write_inputs(wl: workloads.Workload, workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    for rel, text in wl.files.items():
        (ROOT / rel).write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# checking

class Checker:
    """Oracle verdicts per distinct invocation; repeats must match byte for byte."""

    def __init__(self, wl: workloads.Workload):
        self.wl = wl
        self.cache: dict = {}
        self.first: dict[int, tuple[int, str, list[str]]] = {}
        self.failures: list[dict] = []

    def problems(self, inv: workloads.Invocation, exit_code: int, out: str) -> list[str]:
        try:
            return oracle.check(inv, exit_code, out, self.cache)
        except Exception as err:  # a report the oracle cannot digest is a failure
            return [f"oracle error: {type(err).__name__}: {err}"]

    def known_defect(self, inv: workloads.Invocation, call: Call) -> dict:
        """Verdict on a set-aside call; it is reported but never counted."""
        if call.timed_out:
            problems = [f"timed out after {CALL_TIMEOUT_S} s"]
        else:
            problems = self.problems(inv, call.exit_code,
                                     call.out_path.read_text(encoding="utf-8"))
        return {"argv": list(inv.argv), "exit_code": call.exit_code, "problems": problems}

    def verdict(self, idx: int, exit_code: int, out: str, timed_out: bool = False) -> bool:
        inv = self.wl.invocations[idx]
        if timed_out:
            problems = [f"timed out after {CALL_TIMEOUT_S} s"]
        elif idx in self.first:
            code0, out0, problems0 = self.first[idx]
            if (code0, out0) == (exit_code, out):
                problems = problems0
            else:
                problems = ["output differs from an earlier run of the same call"]
        else:
            problems = self.problems(inv, exit_code, out)
            self.first[idx] = (exit_code, out, problems)
        if problems:
            self.failures.append({"invocation": idx, "argv": list(inv.argv),
                                  "exit_code": exit_code, "problems": problems})
        return not problems


# ---------------------------------------------------------------------------
# timed run (--trace 0)

def percentile_tail(walls: list[float]) -> tuple[float, float]:
    """Value with TAIL_BEYOND invocations beyond it, and its percentile."""
    ordered = sorted(walls)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    k = n - TAIL_BEYOND  # 1-based rank
    return ordered[k - 1], 100.0 * k / n


def pass_count(name: str, seconds: float) -> int:
    """Whole passes that take about `seconds` at the reference speed."""
    return max(1, round(seconds / PASS_SECONDS[name]))


def run_timed(name: str, seed: int, seconds: float) -> dict:
    workdir = ROOT / OUT / f"{name}-s{seed}"
    rel = f"{OUT}/{name}-s{seed}"
    setup_times, setup_refs = [], []
    calls: list[tuple[int, Call]] = []
    with Launcher() as launcher:
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            wl = workloads.generate(name, seed, rel)
            write_inputs(wl, workdir)
            launcher.call(wl.invocations[0].argv, workdir / "warmup.out")
            setup_times.append(time.perf_counter() - start)
            # outside the set-up clock: the host's speed during set-up, which
            # follows set-up times better than the speed during the calls
            setup_refs.append(speed_reference(launcher, workdir))

        passes = pass_count(name, seconds)
        refs: list[float] = []
        start = time.perf_counter()
        next_ref = start
        for _ in range(passes):
            for idx, inv in enumerate(wl.invocations):
                if time.perf_counter() >= next_ref:
                    refs.append(speed_reference(launcher, workdir))
                    next_ref = time.perf_counter() + REF_INTERVAL_S
                out_path = workdir / f"call{len(calls)}.out"
                calls.append((idx, launcher.call(inv.argv, out_path)))
            if time.perf_counter() - start > OVERRUN * seconds:
                break
        # after the clock: each known defect once, to show whether it still holds
        defect_calls = [launcher.call(inv.argv, workdir / f"defect{i}.out")
                        for i, inv in enumerate(wl.known_defects)]

    checker = Checker(wl)
    failed = 0
    for idx, call in calls:
        out = call.out_path.read_text(encoding="utf-8")
        if not checker.verdict(idx, call.exit_code, out, call.timed_out):
            failed += 1
    known = [checker.known_defect(inv, call)
             for inv, call in zip(wl.known_defects, defect_calls)]
    shutil.rmtree(workdir, ignore_errors=True)

    walls = [c.wall for _, c in calls]
    tail, tail_pct = percentile_tail(walls)
    raw = {
        "cmds_per_s": len(calls) / sum(walls),
        "cmd_p50_s": statistics.median(walls),
        "cmd_tail_s": tail,
        "setup_s": statistics.median(setup_times),
    }
    speed = REF_NOMINAL_S / statistics.mean(refs)
    metrics = {
        "cmds_per_s": raw["cmds_per_s"] / speed,
        "cmd_p50_s": raw["cmd_p50_s"] * speed,
        "cmd_tail_s": raw["cmd_tail_s"] * speed,
        "peak_rss_mb": max(c.maxrss_kb for _, c in calls) / 1024.0,
        "failed_frac": failed / len(calls),
        "setup_s": raw["setup_s"] * REF_NOMINAL_S / statistics.median(setup_refs),
    }
    return {"workload": name, "seed": seed, "mode": "timed", "attempted": len(calls),
            "passes": len(calls) // len(wl.invocations),
            "failed": failed, "metrics": metrics, "raw_wall_metrics": raw,
            "speed_scale": speed, "reference_walls": refs, "tail_percentile": tail_pct,
            "setup_samples_s": setup_times, "setup_reference_walls": setup_refs,
            "calls": [[idx, c.wall, c.maxrss_kb, c.exit_code] for idx, c in calls],
            "failures": checker.failures, "known_defects": known}


# ---------------------------------------------------------------------------
# traced run (--trace 1)

def _import_package():
    sys.path.insert(0, str(SRC))
    import coronawalk
    from coronawalk import cli, corona, exact, graphs, spectral, transfer

    return {"coronawalk": coronawalk, "graphs": graphs, "exact": exact,
            "spectral": spectral, "corona": corona, "transfer": transfer, "cli": cli}


def run_in_process(cli, argv) -> tuple[int, str, float]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.run_command(list(argv))
        except Exception:  # an escaped exception is a failed call, not a crash here
            code = -1
        wall = time.perf_counter() - start
    return code, out.getvalue(), wall


def traced_in_process(tracer: Tracer, mods, idx: int, argv) -> tuple[int, str, float]:
    tracer.invocation = idx
    tracer.install(mods)
    try:
        return run_in_process(mods["cli"], argv)
    finally:
        tracer.uninstall()


def import_seconds(env) -> float:
    probe = ("import time; t = time.perf_counter(); import coronawalk.cli; "
             "print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_REPEATS):
        res = subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=CALL_TIMEOUT_S,
                             check=True)
        samples.append(float(res.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def run_traced(name: str, seed: int) -> dict:
    workdir = ROOT / OUT / f"{name}-s{seed}"
    rel = f"{OUT}/{name}-s{seed}"
    wl = workloads.generate(name, seed, rel)
    write_inputs(wl, workdir)
    os.chdir(ROOT)  # spec files are relative to the checkout root
    mods = _import_package()
    cli = mods["cli"]
    import_s = import_seconds(child_env())
    run_in_process(cli, wl.invocations[0].argv)  # warm-up

    tracer = Tracer()
    checker = Checker(wl)
    failed = 0
    process_gaps, untraced, traced, outputs = [], [], [], []
    with Launcher() as launcher:
        subprocess_calls = [launcher.call(inv.argv, workdir / f"call{idx}.out")
                            for idx, inv in enumerate(wl.invocations)]
    for idx, (inv, call) in enumerate(zip(wl.invocations, subprocess_calls)):
        sub_out = call.out_path.read_text(encoding="utf-8")
        # a warm-up run first, so that neither timed run starts cold, then
        # alternate which of the two goes first, so that neither always runs
        # on the state the other leaves behind
        run_in_process(cli, inv.argv)
        if idx % 2:
            code_t, out_t, wall_t = traced_in_process(tracer, mods, idx, inv.argv)
            code_u, out_u, wall_u = run_in_process(cli, inv.argv)
        else:
            code_u, out_u, wall_u = run_in_process(cli, inv.argv)
            code_t, out_t, wall_t = traced_in_process(tracer, mods, idx, inv.argv)
        ok = checker.verdict(idx, call.exit_code, sub_out, call.timed_out)
        for code, out in ((code_u, out_u), (code_t, out_t)):
            ok = checker.verdict(idx, code, out) and ok
        failed += not ok
        process_gaps.append(call.wall - wall_u)
        untraced.append(wall_u)
        traced.append(wall_t)
        outputs.append((inv, code_t, out_t))

    trace_path = ROOT / OUT / f"trace-{name}-s{seed}.jsonl"
    tracer.write(trace_path)
    shutil.rmtree(workdir, ignore_errors=True)
    metrics = layer_metrics(SpanIndex(tracer.spans), outputs)
    metrics["cli.import_s"] = import_s
    metrics["cli.process_s"] = statistics.median(process_gaps)
    metrics["trace.overhead_frac"] = sum(traced) / sum(untraced) - 1.0
    return {"workload": name, "seed": seed, "mode": "traced",
            "attempted": len(wl.invocations), "failed": failed, "metrics": metrics,
            "spans": len(tracer.spans), "trace_file": str(trace_path.relative_to(ROOT)),
            "failures": checker.failures}


LAYER_UNITS = {
    "graphs.build_s": "s", "graphs.read_s": "s", "graphs.adjacency_calls": "count",
    "graphs.bfs_calls": "count",
    "corona.assemble_s": "s", "corona.assembled_n_max": "count",
    "corona.closed_form_calls": "count", "corona.closed_form_s": "s",
    "corona.entry_s": "s", "corona.entry_points": "count",
    "exact.rank_calls": "count", "exact.rank_s": "s", "exact.rank_dim_sum": "count",
    "exact.rank_per_label": "ratio", "exact.recognize_s": "s",
    "exact.square_free_calls": "count",
    "spectral.eigen_calls": "count", "spectral.eigen_s": "s",
    "spectral.eigen_dim_max": "count", "spectral.decompose_self_s": "s",
    "spectral.classes": "count", "spectral.label_self_s": "s",
    "spectral.labeled_ratio": "ratio", "spectral.amplitude_s": "s",
    "spectral.amplitude_points": "count", "spectral.query_s": "s",
    "transfer.pgst_self_s": "s", "transfer.pgst_ells": "count",
    "transfer.pgst_hit_ratio": "ratio", "transfer.scan_self_s": "s",
    "transfer.pst_s": "s", "transfer.sweep_self_s": "s", "transfer.periodic_s": "s",
    "cli.import_s": "s", "cli.process_s": "s", "cli.parse_s": "s", "cli.run_s": "s",
    "cli.serialize_s": "s", "cli.bytes_out": "bytes",
    "trace.overhead_frac": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(ix: SpanIndex, outputs) -> dict[str, float]:
    labels = ix.sizes("spectral.attach_exact_labels")
    labeled = sum(s[0] for s in labels)
    label_classes = sum(s[1] for s in labels)
    rank_calls = ix.count("exact.exact_rank")
    searches = ells = hits = 0
    for inv, code, out in outputs:
        if inv.command == "pgst" and code == 0:
            rep = json.loads(out)
            searches += 1
            hits += rep["target_reached"]
            ells += rep["best_ell"] + 1 if rep["target_reached"] else rep["ell_max"] + 1
    return {
        "graphs.build_s": ix.inclusive("graphs.build_family"),
        "graphs.read_s": ix.inclusive("graphs.read_edge_list"),
        "graphs.adjacency_calls": ix.count("graphs.Graph.adjacency"),
        "graphs.bfs_calls": ix.count("graphs.Graph.bfs_distances"),
        "corona.assemble_s": ix.inclusive("corona.corona_graph"),
        "corona.assembled_n_max": max(ix.sizes("corona.corona_graph"), default=0),
        "corona.closed_form_calls": ix.count("corona.corona_spectral_closed_form"),
        "corona.closed_form_s": ix.inclusive("corona.corona_spectral_closed_form"),
        "corona.entry_s": ix.inclusive("corona.corona_entry_base_base",
                                       "corona.corona_entry_base_copy"),
        "corona.entry_points": sum(ix.sizes("corona.corona_entry_base_base"))
        + sum(ix.sizes("corona.corona_entry_base_copy")),
        "exact.rank_calls": rank_calls,
        "exact.rank_s": ix.inclusive("exact.exact_rank"),
        "exact.rank_dim_sum": sum(ix.sizes("exact.exact_rank")),
        "exact.rank_per_label": _ratio(rank_calls, labeled),
        "exact.recognize_s": ix.inclusive("exact.recognize_quad"),
        "exact.square_free_calls": ix.count("exact.square_free_part"),
        "spectral.eigen_calls": ix.count("spectral.symmetric_eigen"),
        "spectral.eigen_s": ix.inclusive("spectral.symmetric_eigen"),
        "spectral.eigen_dim_max": max(ix.sizes("spectral.symmetric_eigen"), default=0),
        "spectral.decompose_self_s": ix.self_time("spectral.decompose"),
        "spectral.classes": sum(ix.sizes("spectral.decompose")),
        "spectral.label_self_s": ix.self_time("spectral.attach_exact_labels"),
        "spectral.labeled_ratio": _ratio(labeled, label_classes),
        "spectral.amplitude_s": ix.inclusive("spectral.entry_amplitudes"),
        "spectral.amplitude_points": sum(ix.sizes("spectral.entry_amplitudes")),
        "spectral.query_s": ix.inclusive("spectral.eigenvalue_support",
                                         "spectral.strong_cospectral"),
        "transfer.pgst_self_s": ix.self_time("transfer.pgst_search"),
        "transfer.pgst_ells": ells,
        "transfer.pgst_hit_ratio": _ratio(hits, searches),
        "transfer.scan_self_s": ix.self_time("transfer.corona_no_pst_check"),
        "transfer.pst_s": ix.inclusive("transfer.pst_certify"),
        "transfer.sweep_self_s": ix.self_time("transfer.fidelity_sweep"),
        "transfer.periodic_s": ix.inclusive("transfer.periodicity_test",
                                            "transfer.corona_base_periodicity"),
        "cli.parse_s": ix.inclusive("cli._build_parser", "cli.parse_args",
                                    "cli.parse_graph_spec"),
        "cli.run_s": ix.inclusive("cli.run_command"),
        "cli.serialize_s": ix.inclusive("cli.render_report", "cli._render_csv",
                                        "graphs.write_edge_list"),
        "cli.bytes_out": sum(len(out.encode("utf-8")) for _, _, out in outputs),
    }


# ---------------------------------------------------------------------------
# reporting

def environment(seed: int) -> dict:
    blas = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        commit = res.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "git_commit": commit,
        "seed": seed,
        "client_processes": 1,
    }


def print_summary(result: dict) -> None:
    name = result["workload"]
    if result["mode"] == "timed":
        for key, unit in E2E_UNITS.items():
            value = result["metrics"][key]
            note = ""
            if key in result["raw_wall_metrics"]:
                note = f"  (raw {result['raw_wall_metrics'][key]:.6g})"
            if key == "cmd_tail_s":
                note += f"  (p{result['tail_percentile']:.1f} of {result['attempted']} calls)"
            print(f"{name:8s} {key:14s} {value:12.6g} {unit}{note}")
        print(f"{name:8s} {'speed_scale':14s} {result['speed_scale']:12.6g} "
              f"(from {len(result['reference_walls'])} reference runs, "
              f"{result['passes']} passes)")
    else:
        for key, unit in LAYER_UNITS.items():
            print(f"{name:8s} {key:28s} {result['metrics'][key]:14.6g} {unit}")
    # each failing invocation once, with how often it failed
    times = collections.Counter(f["invocation"] for f in result["failures"])
    for f in result["failures"]:
        if times[f["invocation"]] == 0:
            continue
        print(f"FAILED {name} #{f['invocation']} ({times.pop(f['invocation'])}x) "
              f"exit={f['exit_code']} "
              f"{' '.join(f['argv'])}: {'; '.join(f['problems'])}", file=sys.stderr)
    for k in result.get("known_defects", []):
        if k["problems"]:
            print(f"KNOWN DEFECT {name} (outside the timed traffic, not counted) "
                  f"exit={k['exit_code']} {' '.join(k['argv'])}: {'; '.join(k['problems'])}",
                  file=sys.stderr)
        else:
            print(f"KNOWN DEFECT GONE {name}: {' '.join(k['argv'])} passes the oracle; "
                  f"return it to the timed traffic (bench/workloads.py)", file=sys.stderr)


def json_line(results: list[dict], trace: bool) -> dict:
    metrics = {}
    for res in results:
        prefix = "" if len(results) == 1 else f"{res['workload']}."
        keys = LAYER_UNITS if trace else JSON_E2E
        for key in keys:
            unit = LAYER_UNITS[key] if trace else E2E_UNITS[key]
            metrics[prefix + key] = {"value": res["metrics"][key], "unit": unit}
    failed = sum(r["failed"] for r in results)
    return {"correct": failed == 0, "attempted": sum(r["attempted"] for r in results),
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "coronawalk" / "cli.py").is_file():
        print(f"error: no coronawalk sources under {SRC}", file=sys.stderr)
        return 2
    (ROOT / OUT).mkdir(parents=True, exist_ok=True)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    results = []
    for name in names:
        res = run_traced(name, args.seed) if args.trace else \
            run_timed(name, args.seed, args.seconds)
        res["env"] = env
        print_summary(res)
        tag = "trace" if args.trace else "timed"
        path = ROOT / OUT / f"result-{name}-s{args.seed}-{tag}.json"
        path.write_text(json.dumps(res, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        results.append(res)
    sys.stdout.flush()
    print(json.dumps(json_line(results, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
