"""Smoke run of the benchmark at tiny sizes, so that a change which breaks
``perfbench/run.py`` on ``eval_sweep`` fails here too. No timing is asserted."""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import run  # noqa: E402

TINY_EVAL = {"lag_depth": 2, "m_train": 600, "m_validation": 150, "runs": 2, "grid": 4}


def test_eval_sweep_traced_smoke(tmp_path):
    details = run.run_benchmark("eval_sweep", 5, 0, True, sizes=TINY_EVAL, work=tmp_path)
    result = details["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    untraced = details["output_digests"]
    assert set(untraced) == {"report.csv", "report.json"}
    # The traced operation runs last, so the work directory holds its outputs.
    assert {name: run.sha256(tmp_path / name) for name in untraced} == untraced
