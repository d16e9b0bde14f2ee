"""Tiny-size self-test of the benchmark runner; no timing is asserted.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

TINY = {
    "eval_sweep": {"lag_depth": 2, "m_train": 600, "m_validation": 150, "runs": 2, "grid": 4},
    "monitor_replay": {"lag_depth": 2, "m_train": 600, "rows": 300},
    "ingest_fit": {"lag_depth": 2, "m_train": 600},
}


def _declared(kind: str) -> set[str]:
    return set(run.declared_metrics(kind))


def test_benchmark_json_matches_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(run.PLANS) == set(run.SIZES)
    assert set(run.LAYERS["expected_spans"]) == set(run.PLANS)
    for layer in run.LAYERS["targets"]:
        assert any(name.startswith(layer + ".") for name in _declared("per_layer")), layer


@pytest.mark.parametrize("workload", sorted(TINY))
def test_untraced_run(workload, tmp_path):
    details = run.run_benchmark(workload, 3, 0, False, sizes=TINY[workload], work=tmp_path)
    result = details["result"]
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 1, 0)
    assert set(result["metrics"]) == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    prov = details["provenance"]
    assert prov["seed"] == 3 and prov["nproc"] >= 1 and prov["numpy"]
    assert all(len(digest) == 64 for digest in prov["input_digests"].values())


def test_same_seed_same_inputs_and_outputs(tmp_path):
    first = run.run_benchmark("ingest_fit", 11, 0, False, sizes=TINY["ingest_fit"], work=tmp_path / "a")
    second = run.run_benchmark("ingest_fit", 11, 0, False, sizes=TINY["ingest_fit"], work=tmp_path / "b")
    assert first["output_digests"] == second["output_digests"]
    other = run.run_benchmark("ingest_fit", 12, 0, False, sizes=TINY["ingest_fit"], work=tmp_path / "c")
    assert other["output_digests"] != first["output_digests"]


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_run(workload, tmp_path):
    sizes = TINY[workload]
    details = run.run_benchmark(workload, 4, 0, True, sizes=sizes, work=tmp_path)
    result = details["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == _declared("per_layer")
    spans = [json.loads(p.read_text()) for p in sorted(tmp_path.glob("spans_*.json"))]
    assert spans and all(
        set(s) == {"name", "start", "end", "parent", "op_id"} for t in spans for s in t["spans"]
    )
    if workload == "eval_sweep":
        amplitudes = sizes["grid"]
        assert metrics["harness.sweep.embeds_per_run"] == amplitudes
        assert metrics["isolation.contribution_matrix.calls"] == amplitudes * sizes["runs"] * 4
        assert metrics["ebf.filter_stream.samples"] > 0
        assert metrics["ebf.ebf_step.calls"] == 0
    elif workload == "monitor_replay":
        assert metrics["ebf.ebf_step.calls"] == sizes["rows"] - sizes["lag_depth"]
        assert metrics["isolation.contribution_matrix.calls"] == 1
        assert metrics["dataset.read_raw_csv.rows"] == sizes["rows"]
    else:
        assert metrics["isolation.contribution_matrix.calls"] == 0
        assert metrics["ebf.filter_stream.samples"] == 0
        assert metrics["dataset.write_raw_csv.bytes"] > 0


def test_missing_expected_span_fails():
    stats = run.SpanStats([{"spans": [], "counters": {}}])
    with pytest.raises(run.BenchError, match="never fired"):
        run.expected_spans_fired("ingest_fit", stats)


def test_output_checks_catch_bad_reports(tmp_path):
    env = run.child_env()
    plan = run.PLANS["eval_sweep"](tmp_path, 5, TINY["eval_sweep"], env)
    assert run.run_operation(plan, tmp_path, env, lambda i, args: run.cli_argv(args)).error is None
    report = tmp_path / "report.csv"
    lines = report.read_text().splitlines(keepends=True)
    report.write_text("".join(lines[:-1]))
    assert "rows" in plan.check(tmp_path)
    cells = lines[1].split(",")
    cells[4] = "100.5"  # isolation_pct
    report.write_text("".join([lines[0], ",".join(cells), *lines[2:]]))
    assert "outside [0, 100]" in plan.check(tmp_path)


def test_fails_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ingest_fit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
