"""The benchmark's traced run must find every span it expects.

``perfbench/layers.json`` lists, per workload, the spans a traced run has to
fire; the tracer wraps public functions (and ``EvalReport`` methods) by name
and the run fails when an expected span never fires. Resolving the names here
catches a rename that would break the benchmark without running it, and a tiny
``eval`` and ``monitor`` run with the same functions wrapped catches a refactor
that stops reaching one of them.
"""

import importlib
import inspect
import json
import os
import socket
import sys
from pathlib import Path

import pytest

from sensordiag import ContributionMethod, DetectionIndex, cli, dataset, ebf, harness
from sensordiag.harness import _RENDER_LINES

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.json"
# Contribution spans carry the variant as a suffix, e.g. ".rbc-t2".
VARIANT_SPAN = "isolation.contribution_matrix"
VARIANTS = {f"{m.value}-{i.value}" for m in ContributionMethod for i in DetectionIndex}


def expected_spans() -> list[str]:
    spans = json.loads(LAYERS.read_text(encoding="utf-8"))["expected_spans"]
    return sorted({name for names in spans.values() for name in names})


@pytest.mark.parametrize("span", expected_spans())
def test_span_names_a_public_function(span):
    if span.startswith(VARIANT_SPAN + "."):
        assert span[len(VARIANT_SPAN) + 1 :] in VARIANTS
        span = VARIANT_SPAN
    short, *path = span.split(".")
    module = importlib.import_module(f"sensordiag.{short}")
    obj = module
    for attr in path:
        assert not attr.startswith("_"), f"{span} names a private attribute"
        obj = getattr(obj, attr, None)
        assert obj is not None, f"sensordiag.{short} has no {'.'.join(path)}"
    assert inspect.isfunction(obj), f"{span} is not a function"
    assert obj.__module__ == module.__name__, f"{span} is not defined in {module.__name__}"


TINY_CONFIG = {
    "lag_depth": 1,
    "simulate": {"n_sensors": 3, "m_train": 300, "m_validation": 120, "n_validation_runs": 2},
    "sweep": {"grid_points": 3},
}


def _record_calls(monkeypatch, spans) -> set:
    """Wrap each spanned function wherever a sensordiag namespace holds it, as
    the benchmark's tracer does; returns the set of span names that fired."""
    fired = set()
    package = [m for k, m in sys.modules.items() if k.split(".")[0] == "sensordiag"]
    for name in {VARIANT_SPAN if s.startswith(VARIANT_SPAN + ".") else s for s in spans}:
        short, *path = name.split(".")
        owner = importlib.import_module(f"sensordiag.{short}")
        for attr in path[:-1]:
            owner = getattr(owner, attr)
        fn = getattr(owner, path[-1])

        def wrapper(*args, _fn=fn, _name=name, **kwargs):
            if _name == VARIANT_SPAN:
                tag = args[2] if len(args) > 2 else kwargs["tag"]
                fired.add(f"{_name}.{tag.method.value}-{tag.index.value}")
            else:
                fired.add(_name)
            return _fn(*args, **kwargs)

        if inspect.isclass(owner):
            monkeypatch.setattr(owner, path[-1], wrapper)
            continue
        for module in package:
            for key, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, key, wrapper)
    return fired


@pytest.fixture(scope="module")
def tiny_workspace(tmp_path_factory):
    """Simulated CSVs, a fitted model and a config small enough for tier-1."""
    root = tmp_path_factory.mktemp("spans")
    config = root / "config.json"
    config.write_text(json.dumps(TINY_CONFIG), encoding="utf-8")
    data = root / "data"
    assert cli.main(["--config", str(config), "simulate", "--out-dir", str(data)]) == 0
    model = root / "model.json"
    fit = ["--config", str(config), "fit", str(data / "train.csv"), "--model-out", str(model)]
    assert cli.main(fit) == 0
    return root, config, data, model


@pytest.mark.parametrize("workload", ["eval_sweep", "monitor_replay"])
def test_expected_spans_fire_on_a_tiny_run(workload, tiny_workspace, monkeypatch):
    # A refactor that stops reaching a spanned function (say, an attribution
    # variant) fails here, not only in the benchmark's traced run.
    root, config, data, model = tiny_workspace
    spans = json.loads(LAYERS.read_text(encoding="utf-8"))["expected_spans"][workload]
    fired = _record_calls(monkeypatch, spans)
    if workload == "eval_sweep":
        runs = [str(data / "validation_1.csv"), str(data / "validation_2.csv")]
        argv = ["eval", str(model), *runs, "--report-out", str(root / "report")]
    else:
        argv = ["monitor", str(model), str(data / "validation_1.csv")]
    assert cli.main(["--config", str(config), *argv]) == 0
    assert not set(spans) - fired, f"never reached: {sorted(set(spans) - fired)}"


def test_monitor_steps_once_per_line(tiny_workspace, long_series, monkeypatch, capsys):
    # The benchmark pins ebf.ebf_step.calls == rows - d on monitor_replay;
    # with the detection gate off every emitted line is one step. The traced
    # run counts the calls of one process, so on the pipelined path (a
    # multi-block series on two CPUs) every step must still run in the parent.
    root, config, data, model = tiny_workspace
    calls = []

    def counting_step(*args, **kwargs):
        calls.append(1)
        return ebf.ebf_step(*args, **kwargs)

    monkeypatch.setattr(harness, "ebf_step", counting_step)
    capsys.readouterr()
    assert cli.main(["--config", str(config), "monitor", str(model), str(data / "validation_1.csv")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert not cli.load_config(str(config))["monitor"]["gate_on_detection"]
    assert len(lines) == TINY_CONFIG["simulate"]["m_validation"] - TINY_CONFIG["lag_depth"]
    assert len(calls) == len(lines)
    if not hasattr(os, "fork"):
        return
    calls.clear()
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    argv = ["--config", str(config), "monitor", str(long_series["model"]), str(long_series["csv"])]
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(forks) == (1 if hasattr(socket, "MSG_NOSIGNAL") else 0)
    assert len(calls) == len(lines) == long_series["rows"] - long_series["d"]


def test_monitor_embeds_block_by_block(long_series, monkeypatch, capsys, tmp_path):
    # monitor must embed and score the series one row block at a time; the
    # benchmark's peak_rss_mb on monitor_replay depends on it.
    d = long_series["d"]
    embedded, steps = [], []
    embed_lags = dataset.embed_lags

    def recording_embed(data, lags):
        out = embed_lags(data, lags)
        embedded.append((data.m, out.m))
        return out

    def counting_step(*args, **kwargs):
        steps.append(1)
        return ebf.ebf_step(*args, **kwargs)

    monkeypatch.setattr(dataset, "embed_lags", recording_embed)
    monkeypatch.setattr(harness, "ebf_step", counting_step)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({}))
    capsys.readouterr()
    argv = ["--config", str(config), "monitor", str(long_series["model"]), str(long_series["csv"])]
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(embedded) > 1
    assert all(rows_in <= _RENDER_LINES + d for rows_in, _ in embedded)  # one block plus its lag history
    assert sum(rows_out for _, rows_out in embedded) == long_series["rows"] - d
    assert len(steps) == len(lines) == long_series["rows"] - d


def test_bench_files_hold_the_declared_end_to_end_metrics():
    # Each committed BENCH_<pr>.json holds, per benchmark workload and side
    # (parent and change), one final line of ``perfbench/run.py --trace 0``;
    # its metrics must be exactly the end-to-end metrics BENCHMARK.json declares.
    root = LAYERS.parents[1]
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    workloads = {w["name"] for w in spec["workloads"]}
    files = sorted(root.glob("BENCH_*.json"))
    assert files, "no BENCH_<pr>.json is committed"
    for path in files:
        bench = json.loads(path.read_text(encoding="utf-8"))
        assert set(bench["runs"]) == workloads == set(bench["seeds"]), path.name
        for workload, sides in bench["runs"].items():
            assert set(sides) == {"parent", "change"}, (path.name, workload)
            for side, line in sides.items():
                units = {name: metric["unit"] for name, metric in line["metrics"].items()}
                assert units == declared, (path.name, workload, side)
                assert line["correct"] and line["failed"] == 0, (path.name, workload, side)
            assert set(bench["pairs"][workload]) <= set(declared), (path.name, workload)
