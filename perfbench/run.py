#!/usr/bin/env python3
"""Benchmark of the sensordiag CLI; standard library only.

    python3 perfbench/run.py --workload eval_sweep --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; the package is used from ``src/``
through PYTHONPATH, nothing is installed. One run

1. generates the workload's inputs from ``--seed`` (same seed, same bytes);
2. repeats the workload's ``sensordiag`` command(s), each in a fresh
   interpreter with tracing off, until ``--seconds`` have passed, checking
   every output and requiring its sha256 digest to repeat exactly;
3. with ``--trace 0`` prints the end-to-end metrics; with ``--trace 1`` it
   also runs the command(s) once under ``perfbench/traced.py`` and prints
   the per-layer metrics instead.

Workloads (single process, closed loop, one operation at a time):

* ``eval_sweep``: the default-config ``eval`` (n=8, d=10, 4x5000 validation
  rows, 100 amplitudes, 5 variants). The costliest user command.
* ``monitor_replay``: default-config ``monitor`` over one seeded 50k-row
  series with a step fault on sensor 0.
* ``ingest_fit``: ``simulate`` then ``fit`` at d=10 on 40k training rows.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
earlier lines list every metric with its unit and the run's provenance. Work
files, spans and a full result go to ``.perfbench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench_out"
LAYERS = json.loads((BENCH / "layers.json").read_text(encoding="utf-8"))

SIZES = {
    "eval_sweep": {"lag_depth": 10, "m_train": 20000, "m_validation": 5000, "runs": 4, "grid": 100},
    "monitor_replay": {"lag_depth": 10, "m_train": 20000, "rows": 50000},
    "ingest_fit": {"lag_depth": 10, "m_train": 40000},
}
DEFAULT_VARIANTS = 5
MONITOR_KEYS = {"k", "spe", "t2", "spe_exceeds", "t2_exceeds", "raw_winner", "ebf_declared", "s"}
# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_REPEATS = 7
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class BenchError(Exception):
    """The run cannot produce a trustworthy result; no metrics are printed."""


@dataclass
class Plan:
    """One workload instance: what an operation runs and how it is checked."""

    commands: list[list[str]]  # sensordiag arguments, run in order, in the work dir
    stdouts: list[str]  # file taking each command's stdout
    outputs: list[str]  # files whose sha256 must repeat on every operation
    inputs: list[str]  # files digested for provenance
    input_rows: int
    setup_probe: list[str]  # probe.py arguments timed as setup_s
    check: Callable[[Path], str | None]  # error message, or None when correct
    validation_runs: int = 0
    fault: dict | None = None  # the injected fault, when the workload has one


@dataclass
class Operation:
    wall_s: float
    peak_rss_mb: float
    error: str | None
    digests: dict[str, str]


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_process(argv: list[str], work: Path, stdout_name: str, env: dict) -> tuple[float, float, int, str]:
    """Run one process to completion in ``work``: wall s, peak RSS MB, exit code, stderr."""
    with (work / stdout_name).open("wb") as out, (work / "stderr.txt").open("w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=work, stdout=out, stderr=err, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", errors="replace")
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, stderr


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "sensordiag", "--config", "config.json", *args]


def probe_argv(args: list[str]) -> list[str]:
    return [sys.executable, str(BENCH / "probe.py"), *args]


def setup_step(argv: list[str], work: Path, env: dict) -> str:
    """Run an untimed set-up process; any failure aborts the run."""
    _, _, code, stderr = run_process(argv, work, "setup_stdout.txt", env)
    if code != 0:
        raise BenchError(f"set-up step {argv[1:]} exited {code}: {stderr.strip()[-500:]}")
    return (work / "setup_stdout.txt").read_text(encoding="utf-8")


def write_config(work: Path, lag_depth: int, simulate: dict, sweep: dict | None = None) -> None:
    cfg = {"lag_depth": lag_depth, "simulate": simulate}
    if sweep:
        cfg["sweep"] = sweep
    (work / "config.json").write_text(json.dumps(cfg, indent=1) + "\n", encoding="utf-8")


# ---------------------------------------------------------------- workloads


def plan_eval_sweep(work: Path, seed: int, sizes: dict, env: dict) -> Plan:
    runs, grid = sizes["runs"], sizes["grid"]
    simulate = {"m_train": sizes["m_train"], "m_validation": sizes["m_validation"],
                "n_validation_runs": runs, "seed": seed}
    write_config(work, sizes["lag_depth"], simulate, {"grid_points": grid})
    setup_step(cli_argv(["simulate", "--out-dir", "data"]), work, env)
    setup_step(cli_argv(["fit", "data/train.csv", "--model-out", "model.json"]), work, env)
    validation = [f"data/validation_{j}.csv" for j in range(1, runs + 1)]

    def check(work: Path) -> str | None:
        with (work / "report.csv").open(newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != grid * DEFAULT_VARIANTS:
            return f"report has {len(rows)} rows, expected {grid * DEFAULT_VARIANTS}"
        for row in rows:
            pct = row["isolation_pct"]
            if pct == "" and float(row["amplitude"]) == 0.0:
                continue
            if not 0.0 <= float(pct) <= 100.0:
                return f"isolation_pct {pct!r} outside [0, 100]"
        return None

    return Plan(
        commands=[["eval", "model.json", *validation, "--report-out", "report"]],
        stdouts=["eval_stdout.txt"],
        outputs=["report.csv", "report.json"],
        inputs=["config.json", "model.json", *validation],
        input_rows=runs * sizes["m_validation"] * grid,
        setup_probe=["setup-model", "model.json"],
        check=check,
        validation_runs=runs,
    )


def plan_monitor_replay(work: Path, seed: int, sizes: dict, env: dict) -> Plan:
    d, rows = sizes["lag_depth"], sizes["rows"]
    simulate = {"m_train": sizes["m_train"], "m_validation": d + 2, "n_validation_runs": 1, "seed": seed}
    write_config(work, d, simulate)
    setup_step(cli_argv(["simulate", "--out-dir", "data"]), work, env)
    setup_step(cli_argv(["fit", "data/train.csv", "--model-out", "model.json"]), work, env)
    # The series' noise seed differs from every training/validation seed.
    fault = setup_step(
        probe_argv(["make-series", "model.json", "data/series.csv", str(seed + 1000), str(rows)]), work, env
    )

    def check(work: Path) -> str | None:
        count = 0
        with (work / "events.ndjson").open(encoding="utf-8") as fh:
            for count, line in enumerate(fh, start=1):
                if set(json.loads(line)) != MONITOR_KEYS:
                    return f"monitor line {count} has keys {sorted(json.loads(line))}"
        if count != rows - d:
            return f"monitor wrote {count} lines, expected {rows - d}"
        return None

    return Plan(
        commands=[["monitor", "model.json", "data/series.csv"]],
        stdouts=["events.ndjson"],
        outputs=["events.ndjson"],
        inputs=["config.json", "model.json", "data/series.csv"],
        input_rows=rows,
        setup_probe=["setup-model", "model.json"],
        check=check,
        fault=json.loads(fault),
    )


def plan_ingest_fit(work: Path, seed: int, sizes: dict, env: dict) -> Plan:
    d, m_train = sizes["lag_depth"], sizes["m_train"]
    # One minimal validation run: `simulate` always writes one.
    simulate = {"m_train": m_train, "m_validation": d + 2, "n_validation_runs": 1, "seed": seed}
    write_config(work, d, simulate)

    def check(work: Path) -> str | None:
        with (work / "data" / "train.csv").open(encoding="utf-8") as fh:
            lines = sum(1 for _ in fh)
        if lines != m_train + 1:
            return f"train.csv has {lines} lines, expected {m_train + 1}"
        _, _, code, stderr = run_process(probe_argv(["check-model", "model.json"]), work, "check.txt", env)
        if code != 0:
            limits = (work / "check.txt").read_text(encoding="utf-8").strip()
            return f"model does not reload with finite positive limits: {limits} {stderr.strip()[-300:]}"
        return None

    return Plan(
        commands=[["simulate", "--out-dir", "data"], ["fit", "data/train.csv", "--model-out", "model.json"]],
        stdouts=["simulate_stdout.txt", "fit_stdout.txt"],
        outputs=["data/train.csv", "data/validation_1.csv", "model.json", "fit_stdout.txt"],
        inputs=["config.json"],
        input_rows=m_train,
        setup_probe=["setup-config", "config.json"],
        check=check,
    )


PLANS = {
    "eval_sweep": plan_eval_sweep,
    "monitor_replay": plan_monitor_replay,
    "ingest_fit": plan_ingest_fit,
}


# ---------------------------------------------------------------- measuring


def run_operation(plan: Plan, work: Path, env: dict, argv_for: Callable[[int, list[str]], list[str]]) -> Operation:
    """One operation: every command of the plan, then the output checks."""
    wall, rss, error = 0.0, 0.0, None
    for i, (args, stdout_name) in enumerate(zip(plan.commands, plan.stdouts)):
        w, r, code, stderr = run_process(argv_for(i, args), work, stdout_name, env)
        wall += w
        rss = max(rss, r)
        if code != 0:
            error = f"{args[0]} exited {code}: {stderr.strip()[-300:]}"
        elif "Traceback" in stderr:
            error = f"{args[0]} printed a traceback: {stderr.strip()[-300:]}"
        if error:
            return Operation(wall, rss, error, {})
    error = plan.check(work)
    return Operation(wall, rss, error, {name: sha256(work / name) for name in plan.outputs})


def measure(plan: Plan, work: Path, env: dict, seconds: float) -> list[Operation]:
    """Repeat the operation untraced until ``seconds`` have passed (at least once)."""
    ops: list[Operation] = []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        op = run_operation(plan, work, env, lambda i, args: cli_argv(args))
        if op.error is None and ops and ops[0].digests and op.digests != ops[0].digests:
            op.error = "outputs differ from the first operation of this run"
        ops.append(op)
    return ops


def measure_setup(plan: Plan, work: Path, env: dict) -> float:
    walls = []
    for _ in range(SETUP_REPEATS):
        wall, _, code, stderr = run_process(probe_argv(plan.setup_probe), work, "setup_probe.txt", env)
        if code != 0:
            raise BenchError(f"setup probe {plan.setup_probe} exited {code}: {stderr.strip()[-300:]}")
        walls.append(wall)
    return statistics.median(walls)


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[min(int(rank), len(ordered)) - 1]


class SpanStats:
    """Self time, call count and per-call durations per span name, over all traced commands."""

    def __init__(self, traces: list[dict]):
        self.self_s: dict[str, float] = {}
        self.durations: dict[str, list[float]] = {}
        self.root_s = 0.0
        self.embeds_in_sweep = 0
        self.counters: dict[str, int] = {}
        for trace in traces:
            spans = trace["spans"]
            child_s = [0.0] * len(spans)
            in_sweep = [False] * len(spans)
            for i, span in enumerate(spans):
                parent = span["parent"]
                duration = span["end"] - span["start"]
                if parent is None:
                    self.root_s += duration
                else:
                    child_s[parent] += duration
                    in_sweep[i] = in_sweep[parent]
                if span["name"] == "harness.sweep":
                    in_sweep[i] = True
                elif span["name"] == "dataset.embed_lags" and in_sweep[i]:
                    self.embeds_in_sweep += 1
                self.durations.setdefault(span["name"], []).append(duration)
            for span, children in zip(spans, child_s):
                name = span["name"]
                self.self_s[name] = self.self_s.get(name, 0.0) + (span["end"] - span["start"] - children)
            for key, value in trace["counters"].items():
                self.counters[key] = self.counters.get(key, 0) + value

    def s(self, *names: str) -> float:
        return sum(self.self_s.get(name, 0.0) for name in names)

    def calls(self, *names: str) -> int:
        return sum(len(self.durations.get(name, ())) for name in names)

    def ms(self, pct: float, *names: str) -> float:
        values = [v for name in names for v in self.durations.get(name, ())]
        return 1000.0 * percentile(values, pct) if values else 0.0


CONTRIBUTION_VARIANTS = ("cp-spe", "cp-t2", "rbc-spe", "rbc-t2")


def layer_metrics(stats: SpanStats, validation_runs: int, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics: ``.s`` is self time summed over calls; ``pNN_ms`` per call."""
    contrib = [f"isolation.contribution_matrix.{v}" for v in CONTRIBUTION_VARIANTS]
    m = {
        "dataset.read_raw_csv.s": (stats.s("dataset.read_raw_csv"), "s"),
        "dataset.read_raw_csv.calls": (stats.calls("dataset.read_raw_csv"), "count"),
        "dataset.read_raw_csv.rows": (stats.counters.get("dataset.read_raw_csv.rows", 0), "count"),
        "dataset.write_raw_csv.s": (stats.s("dataset.write_raw_csv"), "s"),
        "dataset.write_raw_csv.bytes": (stats.counters.get("dataset.write_raw_csv.bytes", 0), "bytes"),
        "dataset.apply_scaler.s": (stats.s("dataset.apply_scaler"), "s"),
        "dataset.embed_lags.s": (stats.s("dataset.embed_lags"), "s"),
        "dataset.embed_lags.calls": (stats.calls("dataset.embed_lags"), "count"),
        "dataset.embed_lags.p50_ms": (stats.ms(50, "dataset.embed_lags"), "ms"),
        "dataset.embed_lags.p90_ms": (stats.ms(90, "dataset.embed_lags"), "ms"),
        "pca.covariance.s": (stats.s("pca.covariance"), "s"),
        "pca.fit_pca.s": (stats.s("pca.fit_pca"), "s"),
        "pca.load_model.s": (stats.s("pca.load_model"), "s"),
        "pca.save_model.s": (stats.s("pca.save_model"), "s"),
        "detection.spe.s": (stats.s("detection.spe"), "s"),
        "detection.t2.s": (stats.s("detection.t2"), "s"),
        "detection.fit_threshold.s": (stats.s("detection.fit_threshold"), "s"),
        **{f"{name}.s": (stats.s(name), "s") for name in contrib},
        "isolation.contribution_matrix.calls": (stats.calls(*contrib), "count"),
        "isolation.contribution_matrix.p50_ms": (stats.ms(50, *contrib), "ms"),
        "isolation.contribution_matrix.p99_ms": (stats.ms(99, *contrib), "ms"),
        "isolation.estimate_matrix.s": (stats.s("isolation.estimate_matrix"), "s"),
        "ebf.filter_stream.s": (stats.s("ebf.filter_stream"), "s"),
        "ebf.filter_stream.samples": (stats.counters.get("ebf.filter_stream.samples", 0), "count"),
        "ebf.filter_stream.p50_ms": (stats.ms(50, "ebf.filter_stream"), "ms"),
        "ebf.filter_stream.p90_ms": (stats.ms(90, "ebf.filter_stream"), "ms"),
        "ebf.ebf_step.s": (stats.s("ebf.ebf_step"), "s"),
        "ebf.ebf_step.calls": (stats.calls("ebf.ebf_step"), "count"),
        "ebf.ebf_step.p50_ms": (stats.ms(50, "ebf.ebf_step"), "ms"),
        "ebf.ebf_step.p99_9_ms": (stats.ms(99.9, "ebf.ebf_step"), "ms"),
        "harness.simulate.s": (stats.s("harness.simulate"), "s"),
        "harness.inject_fault.s": (stats.s("harness.inject_fault"), "s"),
        "harness.sweep.self_s": (stats.s("harness.sweep"), "s"),
        "harness.report_write.s": (stats.s("harness.EvalReport.to_csv", "harness.EvalReport.to_json"), "s"),
        "harness.sweep.embeds_per_run": (
            stats.embeds_in_sweep / validation_runs if validation_runs else 0.0, "count"),
        "cli.simulate.self_s": (stats.s("cli.cmd_simulate"), "s"),
        "cli.fit.self_s": (stats.s("cli.cmd_fit"), "s"),
        "cli.eval.self_s": (stats.s("cli.cmd_eval"), "s"),
        "cli.monitor.self_s": (stats.s("cli.cmd_monitor"), "s"),
        "tracing.overhead_s": (traced_wall - untraced_wall, "s"),
        "tracing.uncovered_s": (traced_wall - stats.root_s, "s"),
        "tracing.covered_pct": (100.0 * stats.root_s / traced_wall, "%"),
        "tracing.spans": (stats.calls(*stats.durations), "count"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def trace_operation(plan: Plan, work: Path, env: dict) -> tuple[Operation, list[dict]]:
    def traced_argv(i: int, args: list[str]) -> list[str]:
        return [sys.executable, str(BENCH / "traced.py"), f"spans_{i}.json", str(i), "--",
                "--config", "config.json", *args]

    op = run_operation(plan, work, env, traced_argv)
    traces = [json.loads((work / f"spans_{i}.json").read_text(encoding="utf-8"))
              for i in range(len(plan.commands)) if (work / f"spans_{i}.json").exists()]
    return op, traces


def expected_spans_fired(workload: str, stats: SpanStats) -> None:
    missing = [name for name in LAYERS["expected_spans"][workload] if name not in stats.durations]
    if missing:
        raise BenchError(f"expected layer spans never fired on {workload}: {', '.join(missing)}")


# ---------------------------------------------------------------- reporting


def declared_metrics(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def require_declared(metrics: dict, kind: str) -> None:
    """The printed metrics must be exactly those BENCHMARK.json declares."""
    declared = declared_metrics(kind)
    printed = {name: m["unit"] for name, m in metrics.items()}
    if printed != declared:
        diff = sorted(set(printed.items()) ^ set(declared.items()))
        raise BenchError(f"{kind} metrics differ from BENCHMARK.json: {diff}")


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() or None


def provenance(plan: Plan, work: Path, env: dict, workload: str, seed: int, sizes: dict) -> dict:
    versions = json.loads(setup_step(probe_argv(["versions"]), work, env))
    return {
        "workload": workload,
        "seed": seed,
        "sizes": sizes,
        "input_rows": plan.input_rows,
        "input_digests": {name: sha256(work / name) for name in plan.inputs},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **versions,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "fault": plan.fault,
    }


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  sizes: dict | None = None, work: Path | None = None) -> dict:
    """One benchmark run; returns the result with its provenance and digests."""
    if not (ROOT / "src" / "sensordiag" / "cli.py").is_file():
        raise BenchError(f"no sensordiag sources under {ROOT / 'src'}")
    sizes = dict(SIZES[workload] if sizes is None else sizes)
    work = OUT / workload if work is None else work
    if work.exists():
        shutil.rmtree(work)
    (work / "data").mkdir(parents=True)
    env = child_env()
    seed = seed % 2**31
    plan = PLANS[workload](work, seed, sizes, env)
    prov = provenance(plan, work, env, workload, seed, sizes)

    ops = measure(plan, work, env, seconds)
    wall = statistics.median(op.wall_s for op in ops)
    if trace:
        traced, traces = trace_operation(plan, work, env)
        if traced.error is None and ops[0].digests and traced.digests != ops[0].digests:
            traced.error = "traced outputs differ from untraced outputs"
        ops.append(traced)
        stats = SpanStats(traces)
        if traced.error is None:
            expected_spans_fired(workload, stats)
        metrics = layer_metrics(stats, plan.validation_runs, traced.wall_s, wall)
        require_declared(metrics, "per_layer")
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "rows_per_s": {"value": plan.input_rows / wall, "unit": "1/s"},
            "setup_s": {"value": measure_setup(plan, work, env), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(op.peak_rss_mb for op in ops), "unit": "MB"},
            "success_rate": {"value": sum(op.error is None for op in ops) / len(ops), "unit": "ratio"},
        }
        require_declared(metrics, "end_to_end")
    failed = sum(op.error is not None for op in ops)
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }
    details = {
        "provenance": prov,
        "operations": [{"wall_s": op.wall_s, "peak_rss_mb": op.peak_rss_mb, "error": op.error}
                       for op in ops],
        "error_rate": failed / len(ops),
        "output_digests": ops[0].digests,
        "result": result,
    }
    (work / "result.json").write_text(json.dumps(details, indent=1) + "\n", encoding="utf-8")
    return details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        details = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    result = details["result"]
    for op in details["operations"]:
        if op["error"]:
            print(f"failed operation: {op['error']}")
    print(f"operations: {result['attempted']}  failed: {result['failed']}  "
          f"error_rate: {details['error_rate']!r} ratio")
    for name, metric in result["metrics"].items():
        print(f"{name}: {metric['value']!r} {metric['unit']}")
    print(json.dumps({"provenance": details["provenance"], "output_digests": details["output_digests"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
