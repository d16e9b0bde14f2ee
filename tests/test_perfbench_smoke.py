"""Smoke runs of the benchmark at tiny sizes, so that a change which breaks
``perfbench/run.py`` on any workload fails here too. No timing is asserted."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import run  # noqa: E402

TINY_EVAL = {"lag_depth": 2, "m_train": 600, "m_validation": 150, "runs": 2, "grid": 4}
TINY = {
    "monitor_replay": {"lag_depth": 2, "m_train": 600, "rows": 300},
    "ingest_fit": {"lag_depth": 2, "m_train": 600},
}
OUTPUTS = {
    "monitor_replay": {"events.ndjson"},
    "ingest_fit": {"data/train.csv", "data/validation_1.csv", "model.json", "fit_stdout.txt"},
}


def test_eval_sweep_traced_smoke(tmp_path):
    details = run.run_benchmark("eval_sweep", 5, 0, True, sizes=TINY_EVAL, work=tmp_path)
    result = details["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    untraced = details["output_digests"]
    assert set(untraced) == {"report.csv", "report.json"}
    # The traced operation runs last, so the work directory holds its outputs.
    assert {name: run.sha256(tmp_path / name) for name in untraced} == untraced


@pytest.mark.parametrize("workload", sorted(TINY))
def test_untraced_smoke(tmp_path, monkeypatch, workload):
    # One setup probe instead of seven: setup_s is reported, not checked here.
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    runs = [
        run.run_benchmark(workload, 5, 0, False, sizes=TINY[workload], work=tmp_path / side)
        for side in ("a", "b")
    ]
    for details in runs:
        result = details["result"]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] == 1
        assert result["metrics"]["success_rate"]["value"] == 1.0
    # Same seed, same inputs: every output digest repeats.
    assert set(runs[0]["output_digests"]) == OUTPUTS[workload]
    assert runs[0]["output_digests"] == runs[1]["output_digests"]
