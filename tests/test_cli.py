import contextlib
import hashlib
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sensordiag import (
    EbfParams,
    FaultSpec,
    RawDataset,
    apply_scaler,
    embed_lags,
    fit_pca,
    fit_scaler,
    inject_fault,
    load_model,
    read_raw_csv,
    save_model,
    write_raw_csv,
)
from sensordiag.cli import main
from sensordiag.errors import ConfigError, IndexOutOfRange, LagTooLarge, SensorDiagError, UnstableConfig
from sensordiag.harness import _RENDER_LINES
from conftest import assert_same_stream, make_raw, monitor_blocks, oracle_monitor_ndjson, tampered_model

BASE_CONFIG = {
    "lag_depth": 2,
    "simulate": {
        "n_sensors": 4,
        "m_train": 1200,
        "m_validation": 400,
        "n_validation_runs": 2,
        "seed": 11,
    },
    "sweep": {"grid_points": 4, "onset_k": 200},
    "variance_fraction": 0.9,
}


def write_config(tmp_path, overrides=None, name="config.json"):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    for key, value in (overrides or {}).items():
        if isinstance(value, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Simulated data plus a fitted model, shared across CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    config = write_config(root)
    data_dir = root / "data"
    assert main(["--config", config, "simulate", "--out-dir", str(data_dir)]) == 0
    model = root / "model.json"
    assert (
        main(
            [
                "--config",
                config,
                "fit",
                str(data_dir / "train.csv"),
                "--model-out",
                str(model),
            ]
        )
        == 0
    )
    return {
        "root": root,
        "config": config,
        "train": data_dir / "train.csv",
        "validation": [data_dir / "validation_1.csv", data_dir / "validation_2.csv"],
        "model": model,
    }


class TestSimulate:
    def test_deterministic_files(self, tmp_path, workspace):
        config = workspace["config"]
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["--config", config, "simulate", "--out-dir", str(out_a)]) == 0
        assert main(["--config", config, "simulate", "--out-dir", str(out_b)]) == 0
        for name in ("train.csv", "validation_1.csv", "validation_2.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_autogenerated_sensor_names(self, workspace):
        data = read_raw_csv(workspace["train"])
        assert data.sensor_names == ("s1", "s2", "s3", "s4")

    def test_too_short_series_rejected(self, tmp_path):
        config = write_config(
            tmp_path, {"lag_depth": 10, "simulate": {"m_validation": 11}}
        )
        code = main(["--config", config, "simulate", "--out-dir", str(tmp_path / "x")])
        assert code == 3


class TestFit:
    def test_reports_model_summary(self, workspace, capsys):
        capsys.readouterr()
        config = workspace["config"]
        out = workspace["root"] / "model2.json"
        assert (
            main(
                [
                    "--config",
                    config,
                    "fit",
                    str(workspace["train"]),
                    "--model-out",
                    str(out),
                ]
            )
            == 0
        )
        stdout = capsys.readouterr().out
        assert "components:" in stdout and "explained variance" in stdout
        assert out.exists()

    def test_constant_column_exit_2(self, tmp_path, workspace, capsys):
        data = read_raw_csv(workspace["train"])
        broken = np.array(data.samples)
        broken[:, 2] = 7.0
        bad_csv = tmp_path / "bad.csv"
        write_raw_csv(type(data)(broken, data.sensor_names), bad_csv)
        code = main(["--config", workspace["config"], "fit", str(bad_csv)])
        assert code == 2
        assert "s3" in capsys.readouterr().err

    def test_overflowing_column_exit_2(self, tmp_path, capsys):
        # noise_std 1e200 writes finite values whose variance overflows
        config = write_config(tmp_path, {"simulate": {"noise_std": 1e200}})
        assert main(["--config", config, "simulate", "--out-dir", str(tmp_path / "d")]) == 0
        capsys.readouterr()
        code = main(["--config", config, "fit", str(tmp_path / "d" / "train.csv")])
        assert code == 2
        assert re.search(r"sensor 's\d': .*overflows float64", capsys.readouterr().err)

    def test_lag_exceeding_samples_exit_3(self, tmp_path, workspace):
        short = tmp_path / "short.csv"
        short.write_text("a,b\n" + "\n".join("1.0,2.5\n2.0,1.5" for _ in range(3)))
        config = write_config(tmp_path, {"lag_depth": 40})
        assert main(["--config", config, "fit", str(short)]) == 3

    def test_corrupt_csv_exit_2(self, tmp_path, workspace):
        bad = tmp_path / "corrupt.csv"
        bad.write_text("a,b\n1.0,2.0\n3.0,oops\n")
        assert main(["--config", workspace["config"], "fit", str(bad)]) == 2


class TestConfig:
    def test_unknown_top_level_key(self, tmp_path):
        config = write_config(tmp_path, {"not_a_key": 1})
        assert main(["--config", config, "simulate", "--out-dir", str(tmp_path)]) == 3

    def test_unknown_nested_key(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"ebf": {"bonus": 1.0}}))
        assert main(["--config", str(config), "simulate", "--out-dir", str(tmp_path)]) == 3

    def test_malformed_json(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text("{nope")
        assert main(["--config", str(config), "simulate", "--out-dir", str(tmp_path)]) == 3

    def test_invalid_value(self, tmp_path):
        config = write_config(tmp_path, {"alpha": 2.0})
        assert main(["--config", config, "simulate", "--out-dir", str(tmp_path)]) == 3

    @pytest.mark.parametrize(
        "overrides",
        [
            {"lag_depth": True},
            {"alpha": None},
            {"sample_period_s": "x"},
            {"simulate": {"noise_std": "1"}},
            {"sweep": {"amplitudes": ["a"]}},
            {"simulate": {"seed": -1}},
            {"ebf": {"reward": True}},
        ],
        ids=[
            "lag_depth-bool",
            "alpha-null",
            "sample_period_s-string",
            "noise_std-string",
            "amplitudes-string",
            "seed-negative",
            "reward-bool",
        ],
    )
    def test_ill_typed_value_exit_3(self, tmp_path, capsys, overrides):
        config = write_config(tmp_path, overrides)
        assert main(["--config", config, "simulate", "--out-dir", str(tmp_path)]) == 3
        assert capsys.readouterr().err.startswith("config error:")

    def test_missing_config_file(self, tmp_path):
        assert (
            main(
                [
                    "--config",
                    str(tmp_path / "absent.json"),
                    "simulate",
                    "--out-dir",
                    str(tmp_path),
                ]
            )
            == 3
        )


class TestEval:
    def test_empty_validation_list_exit_3(self, workspace):
        code = main(
            ["--config", workspace["config"], "eval", str(workspace["model"])]
        )
        assert code == 3

    def test_report_row_count(self, tmp_path, workspace):
        report = tmp_path / "report"
        code = main(
            [
                "--config",
                workspace["config"],
                "eval",
                str(workspace["model"]),
                *[str(p) for p in workspace["validation"]],
                "--report-out",
                str(report),
            ]
        )
        assert code == 0
        lines = (tmp_path / "report.csv").read_text().strip().splitlines()
        # 4 grid points x 5 default variants, plus header
        assert len(lines) == 1 + 4 * 5
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["metadata"]["config"]["lag_depth"] == 2
        assert len(payload["rows"]) == 20

    def eval_renamed(self, tmp_path, workspace, capsys, names):
        """``eval`` over a good CSV and then one renamed to ``names``: the
        bad file comes second, so the error line must say which one it is."""
        data = read_raw_csv(workspace["validation"][0])
        bad = tmp_path / "renamed.csv"
        write_raw_csv(type(data)(data.samples, names), bad)
        capsys.readouterr()
        code = main(
            ["--config", workspace["config"], "eval", str(workspace["model"]),
             str(workspace["validation"][0]), str(bad), "--report-out", str(tmp_path / "report")]
        )
        assert code == 2
        assert not list(tmp_path.glob("report.*"))
        return bad, capsys.readouterr().err

    def test_mismatched_sensor_names_exit_2(self, tmp_path, workspace, capsys):
        bad, err = self.eval_renamed(tmp_path, workspace, capsys, ("a", "b", "c", "d"))
        assert err == (
            f"data error: {bad}: sensor names ('a', 'b', 'c', 'd') do not match "
            "the model's ('s1', 's2', 's3', 's4')\n"
        )

    def test_utf8_bom_header_exit_2(self, tmp_path, workspace, capsys):
        # an Excel export starts with a byte order mark, read into the first name
        bad, err = self.eval_renamed(tmp_path, workspace, capsys, ("\ufeffs1", "s2", "s3", "s4"))
        assert err == (
            f"data error: {bad}: sensor names ('\\ufeffs1', 's2', 's3', 's4') do not match "
            "the model's ('s1', 's2', 's3', 's4')\n"
        )
        assert bad.read_bytes().startswith(b"\xef\xbb\xbfs1,")

    def test_missing_model_exit_2(self, tmp_path, workspace):
        code = main(
            [
                "--config",
                workspace["config"],
                "eval",
                str(tmp_path / "nothing.json"),
                str(workspace["validation"][0]),
            ]
        )
        assert code == 2

    def test_onset_past_the_run_exit_3(self, tmp_path, workspace, capsys):
        config = write_config(tmp_path, {"sweep": {"onset_k": 400}})  # m_validation 400
        capsys.readouterr()
        csv = workspace["validation"][0]
        code = main(["--config", config, "eval", str(workspace["model"]), str(csv)])
        assert code == 3
        assert capsys.readouterr().err == f"config error: sweep.onset_k 400 not in [0, 400) for {csv}\n"

    def test_onset_past_a_later_run_names_its_file(self, tmp_path, workspace, capsys):
        # The first run is long enough; the second, cut to 199 rows, is not.
        short = tmp_path / "short.csv"
        short.write_text("".join(workspace["validation"][1].read_text().splitlines(keepends=True)[:200]))
        config = write_config(tmp_path, {"sweep": {"onset_k": 300}})
        capsys.readouterr()
        argv = ["--config", config, "eval", str(workspace["model"]), str(workspace["validation"][0]), str(short)]
        assert main([*argv, "--report-out", str(tmp_path / "report")]) == 3
        assert capsys.readouterr().err == f"config error: sweep.onset_k 300 not in [0, 199) for {short}\n"
        assert not list(tmp_path.glob("report.*"))

    @pytest.mark.parametrize("overrides", [{"variance_fraction": 1.0}, {"sweep": {"amplitudes": [0.0, -0.0]}}],
                             ids=["full-variance-model", "zero-amplitudes"])
    def test_all_zero_grid_exit_3(self, tmp_path, workspace, capsys, overrides):
        # a model keeping every component has residual std 0, so the
        # default grid of +-6 residual stds is all zero
        config = write_config(tmp_path, overrides)
        model = tmp_path / "model.json"
        assert main(["--config", config, "fit", str(workspace["train"]), "--model-out", str(model)]) == 0
        capsys.readouterr()
        report = tmp_path / "report"
        code = main(["--config", config, "eval", str(model), str(workspace["validation"][0]),
                     "--report-out", str(report)])
        assert code == 3
        err = capsys.readouterr().err
        assert "sweep.max_amplitude" in err and "sweep.amplitudes" in err
        assert not list(tmp_path.glob("report.*"))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_report_exit_2(self, tmp_path, workspace, capsys):
        # amplitude / std overflows to inf for a target whose std is below 1
        stds = load_model(workspace["model"]).scaler.std
        target = int(np.argmin(stds))
        assert stds[target] < 1.0
        config = write_config(tmp_path, {"sweep": {"target_sensor": target, "amplitudes": [1.7e308, -1.7e308]}})
        report = tmp_path / "report"
        capsys.readouterr()
        code = main(["--config", config, "eval", str(workspace["model"]),
                     *[str(p) for p in workspace["validation"]], "--report-out", str(report)])
        assert code == 2
        assert "overflow float64" in capsys.readouterr().err
        assert not list(tmp_path.glob("report.*"))

    def test_target_sensor_out_of_range_exit_3(self, tmp_path, workspace):
        config = write_config(tmp_path, {"sweep": {"target_sensor": 40}})
        code = main(
            [
                "--config",
                config,
                "eval",
                str(workspace["model"]),
                str(workspace["validation"][0]),
            ]
        )
        assert code == 3


def monitor_lines(capsys, config, model, csv):
    assert main(["--config", config, "monitor", str(model), str(csv)]) == 0
    return [json.loads(line) for line in capsys.readouterr().out.splitlines()]


class TestMonitor:
    def test_fault_free_stream_rarely_declares(self, workspace, capsys):
        capsys.readouterr()
        lines = monitor_lines(
            capsys, workspace["config"], workspace["model"], workspace["validation"][0]
        )
        data = read_raw_csv(workspace["validation"][0])
        assert len(lines) == data.m - 2  # lag depth 2
        for key in ("k", "spe", "t2", "spe_exceeds", "t2_exceeds", "raw_winner", "ebf_declared", "s"):
            assert key in lines[0]
        declared = [line for line in lines if line["ebf_declared"] is not None]
        # default alpha 0.01: false declarations on clean data stay below 5%
        assert len(declared) / len(lines) < 0.05

    def test_injected_fault_declared_quickly(self, tmp_path, workspace, capsys):
        capsys.readouterr()
        data = read_raw_csv(workspace["validation"][0])
        onset, target, d = 100, 0, 2
        amplitude = 25.0 * data.samples[:, target].std(ddof=1)
        faulty = inject_fault(
            data, FaultSpec(sensor=target, amplitude=amplitude, onset_k=onset)
        )
        path = tmp_path / "faulty.csv"
        write_raw_csv(faulty, path)
        lines = monitor_lines(capsys, workspace["config"], workspace["model"], path)
        first = next(
            line["k"]
            for line in lines
            if line["k"] >= onset and line["ebf_declared"] == target
        )
        assert first - onset <= 20 + d

    def test_corrupt_row_exit_2(self, tmp_path, workspace):
        bad = tmp_path / "bad.csv"
        bad.write_text("s1,s2,s3,s4\n1,2,3,4\n1,2,,4\n")
        code = main(
            ["--config", workspace["config"], "monitor", str(workspace["model"]), str(bad)]
        )
        assert code == 2

    def test_name_mismatch_exit_2(self, tmp_path, workspace, capsys):
        data = read_raw_csv(workspace["validation"][0])
        bad = tmp_path / "renamed.csv"
        write_raw_csv(type(data)(data.samples, ("w", "x", "y", "z")), bad)
        capsys.readouterr()
        code = main(
            ["--config", workspace["config"], "monitor", str(workspace["model"]), str(bad)]
        )
        assert code == 2
        assert capsys.readouterr() == (
            "",
            f"data error: {bad}: sensor names ('w', 'x', 'y', 'z') do not match "
            "the model's ('s1', 's2', 's3', 's4')\n",
        )

    @pytest.mark.parametrize(
        "key, value", [("spe_limit", float("nan")), ("n", "8")], ids=["nan_spe_limit", "string_n"]
    )
    def test_tampered_model_exit_2(self, tmp_path, workspace, capsys, key, value):
        payload = json.loads(workspace["model"].read_text())
        payload[key] = value
        model = tmp_path / "tampered.json"
        model.write_text(json.dumps(payload))
        code = main(
            ["--config", workspace["config"], "monitor", str(model), str(workspace["validation"][0])]
        )
        assert code == 2
        assert f"{key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "defect",
        [
            "p_hat_doubled",
            "lambda_tilde_negative",
            "lambda_hat_swapped",
            "scaler_mean_untiled",
            "scaler_extra_key",
            "scaler_missing_std",
            "variance_fraction_7",
            "sensor_name_number",
            "nested_document",
            "nested_scaler",
            "nested_p_hat",
            "lambda_hat_ragged",
            "p_hat_nested",
        ],
    )
    def test_model_invariant_violation_exit_2(self, tmp_path, workspace, capsys, defect):
        text, message = tampered_model(workspace["model"].read_text(), defect)
        model = tmp_path / "tampered.json"
        model.write_text(text)
        code = main(
            ["--config", workspace["config"], "monitor", str(model), str(workspace["validation"][0])]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert message in err
        assert err.count("\n") == 1 and err.startswith(f"data error: {model}: ")

    def test_full_variance_model_round_trips(self, tmp_path, workspace, capsys):
        # variance_fraction 1.0 keeps every component, so fit writes
        # spe_limit 0.0; monitor must load that model.
        monitor = {"method": "cp", "index": "t2", "gate_on_detection": False}
        config = write_config(tmp_path, {"variance_fraction": 1.0, "monitor": monitor})
        model = tmp_path / "model.json"
        fit = ["--config", config, "fit", str(workspace["train"]), "--model-out", str(model)]
        assert main(fit) == 0
        assert json.loads(model.read_text())["spe_limit"] == 0.0
        csv = workspace["validation"][0]
        capsys.readouterr()
        assert main(["--config", config, "monitor", str(model), str(csv)]) == 0
        out = capsys.readouterr().out
        assert_same_stream(out, oracle_monitor_ndjson(load_model(model), csv, monitor, EbfParams()))


@pytest.fixture(scope="module")
def faulty_csv(workspace):
    """A validation run with a step fault on sensor 0 large enough to be declared."""
    data = read_raw_csv(workspace["validation"][0])
    amplitude = 25.0 * data.samples[:, 0].std(ddof=1)
    path = workspace["root"] / "faulty.csv"
    write_raw_csv(inject_fault(data, FaultSpec(sensor=0, amplitude=amplitude, onset_k=100)), path)
    return path


class TestMonitorOracle:
    """``monitor`` stdout is byte-identical to one ``json.dumps`` per sample."""

    @pytest.mark.parametrize("fault", [False, True], ids=["clean", "fault"])
    @pytest.mark.parametrize("index", ["spe", "t2"])
    @pytest.mark.parametrize("method", ["cp", "rbc"])
    @pytest.mark.parametrize("gate", [False, True], ids=["ungated", "gated"])
    def test_stdout_matches_per_line_dumps(
        self, tmp_path, workspace, faulty_csv, capsys, gate, method, index, fault
    ):
        monitor = {"method": method, "index": index, "gate_on_detection": gate}
        config = write_config(tmp_path, {"monitor": monitor})
        csv = faulty_csv if fault else workspace["validation"][0]
        capsys.readouterr()
        assert main(["--config", config, "monitor", str(workspace["model"]), str(csv)]) == 0
        out = capsys.readouterr().out
        model = load_model(workspace["model"])
        assert_same_stream(out, oracle_monitor_ndjson(model, csv, monitor, EbfParams()))
        if fault:
            assert '"ebf_declared": 0,' in out

    def test_negative_zero_band_edge(self, tmp_path, workspace, faulty_csv, capsys):
        # With lower_sat -0.0 an evidence sum of exactly +0.0 sits on the
        # bound; the stream must print what np.clip keeps.
        ebf = {"lower_sat": -0.0}
        config = write_config(tmp_path, {"ebf": ebf})
        capsys.readouterr()
        assert main(["--config", config, "monitor", str(workspace["model"]), str(faulty_csv)]) == 0
        out = capsys.readouterr().out
        monitor = {"method": "rbc", "index": "t2", "gate_on_detection": False}
        params = EbfParams(lower_sat=-0.0)
        expected = oracle_monitor_ndjson(load_model(workspace["model"]), faulty_csv, monitor, params)
        assert_same_stream(out, expected)
        assert "-0.0" in out


class TestMonitorBlocks:
    """A series longer than one scoring block prints what whole-array scoring
    of the full embedded series prints."""

    @pytest.mark.parametrize(
        "method, index", [("rbc", "t2"), ("cp", "spe"), ("rbc", "spe"), ("cp", "t2")]
    )
    @pytest.mark.parametrize("gate", [False, True], ids=["ungated", "gated"])
    def test_stdout_matches_whole_array_oracle(self, tmp_path, long_series, capsys, gate, method, index):
        monitor = {"method": method, "index": index, "gate_on_detection": gate}
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"monitor": monitor}))
        model, csv = long_series["model"], long_series["csv"]
        capsys.readouterr()
        assert main(["--config", str(config), "monitor", str(model), str(csv)]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == long_series["rows"] - long_series["d"]
        assert_same_stream(out, oracle_monitor_ndjson(load_model(model), csv, monitor, EbfParams()))
        if method == "rbc":  # plain contributions may smear onto another sensor
            assert '"ebf_declared": 0,' in out


SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(args, cwd):
    """``python -m sensordiag`` in a fresh interpreter with default warning filters."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-m", "sensordiag", *args], cwd=cwd, env=env, capture_output=True, text=True
    )


def assert_one_data_error(proc, message):
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("data error: ")
    assert message in proc.stderr


class TestQuietDataErrors:
    """Inputs that used to exit 1 with a traceback, or 0 with an infinite
    score, exit 2 with one ``data error:`` line and nothing else."""

    def test_monitor_not_utf8_csv(self, tmp_path, workspace):
        bad = tmp_path / "utf16.csv"
        bad.write_bytes(b"\xff\xfe" + workspace["validation"][0].read_bytes())
        proc = run_cli(["--config", workspace["config"], "monitor", str(workspace["model"]), str(bad)], tmp_path)
        assert_one_data_error(proc, f"{bad}: not UTF-8 text")

    @pytest.mark.parametrize("command", ["eval", "monitor"])
    def test_deeply_nested_model(self, tmp_path, workspace, command):
        text, message = tampered_model(workspace["model"].read_text(), "nested_document")
        model = tmp_path / "nested.json"
        model.write_text(text)
        proc = run_cli(["--config", workspace["config"], command, str(model), str(workspace["validation"][0])], tmp_path)
        assert_one_data_error(proc, f"data error: {model}: {message}")

    def test_monitor_cell_over_field_limit(self, tmp_path, workspace):
        bad = tmp_path / "long.csv"
        bad.write_text("s1,s2,s3,s4\n1,2,3,4\n1,2,3," + "4" * 200_000 + "\n")
        proc = run_cli(["--config", workspace["config"], "monitor", str(workspace["model"]), str(bad)], tmp_path)
        assert_one_data_error(proc, f"{bad}:3: field larger than field limit")

    @pytest.mark.parametrize("value", [1e200, 1.7e308])
    def test_monitor_score_overflow(self, tmp_path, workspace, value):
        # 1e200 is finite once scaled, but its squared score is not;
        # 1.7e308 / std overflows the scaling of a column whose std is below 1
        stds = load_model(workspace["model"]).scaler.std
        data = read_raw_csv(workspace["validation"][0])
        samples = np.array(data.samples)
        samples[150, int(np.argmin(stds))] = value
        bad = tmp_path / "huge.csv"
        write_raw_csv(type(data)(samples, data.sensor_names), bad)
        proc = run_cli(["--config", workspace["config"], "monitor", str(workspace["model"]), str(bad)], tmp_path)
        assert_one_data_error(proc, "overflow float64")

    @pytest.mark.parametrize("amplitude", [1e300, 1.7e308])
    def test_eval_overflow(self, tmp_path, workspace, amplitude):
        # 1e300 squares to inf in the contribution scores; 1.7e308 / std
        # overflows the scaled data of a target whose std is below 1
        stds = load_model(workspace["model"]).scaler.std
        target = int(np.argmin(stds))
        sweep = {"target_sensor": target, "amplitudes": [amplitude, -amplitude]}
        config = write_config(tmp_path, {"sweep": sweep})
        report = tmp_path / "report"
        args = ["--config", config, "eval", str(workspace["model"]), *map(str, workspace["validation"])]
        proc = run_cli([*args, "--report-out", str(report)], tmp_path)
        assert_one_data_error(proc, "overflow float64")
        assert not list(tmp_path.glob("report.*"))

    def test_monitor_overflow_in_last_block_prints_nothing(self, tmp_path, long_series):
        # Every block is scored before the first line is written, so an
        # overflow in the last scoring block still leaves stdout empty.
        d = long_series["d"]
        blocks = monitor_blocks(long_series["rows"] - d)
        assert len(blocks) >= 2
        row = (blocks[-1].start + blocks[-1].stop) // 2 + d  # read by embedded rows row-d .. row
        assert row - d >= blocks[-1].start
        data = read_raw_csv(long_series["csv"])
        samples = np.array(data.samples)
        samples[row, 3] = 1e200
        bad = tmp_path / "late_overflow.csv"
        write_raw_csv(type(data)(samples, data.sensor_names), bad)
        proc = run_cli(["monitor", str(long_series["model"]), str(bad)], tmp_path)
        assert_one_data_error(proc, "overflow float64")


    def test_eval_injection_overflow(self, tmp_path):
        # 1.7e308 cells plus a 1e308 step overflow float64 in the injected data
        sim = {"n_sensors": 3, "n_validation_runs": 1}
        config = write_config(tmp_path, {"lag_depth": 1, "simulate": sim, "sweep": {"amplitudes": [1e308]}})
        data = tmp_path / "data"
        assert main(["--config", config, "simulate", "--out-dir", str(data)]) == 0
        model = tmp_path / "model.json"
        assert main(["--config", config, "fit", str(data / "train.csv"), "--model-out", str(model)]) == 0
        run = read_raw_csv(data / "validation_1.csv")
        samples = np.array(run.samples)
        samples[60:, 0] = 1.7e308
        bad = tmp_path / "huge.csv"
        write_raw_csv(type(run)(samples, run.sensor_names), bad)
        report = tmp_path / "report"
        proc = run_cli(["--config", config, "eval", str(model), str(bad), "--report-out", str(report)], tmp_path)
        assert_one_data_error(
            proc, "step fault of amplitude 1e+308 on sensor 's1' from onset 200: the faulty data overflow float64"
        )
        assert not list(tmp_path.glob("report.*"))


def test_import_loads_neither_openssl_nor_numpy_random():
    # OpenSSL (_hashlib) costs 3.6 MB resident and numpy.random 5.6 MB with
    # it; simulate loads numpy.random when it runs, not at import.
    script = (
        "import sys\nimport sensordiag, sensordiag.cli\n"
        "print(sorted({'_hashlib', 'numpy.random'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.stdout == "[]\n", proc.stderr


@pytest.mark.parametrize("command", ["fit", "monitor", "eval"])
def test_no_command_loads_openssl(tmp_path, workspace, command):
    # hashlib loads OpenSSL (_hashlib), 3.6 MB resident; eval's model digest
    # takes CPython's built-in SHA-256 instead. simulate is left out:
    # numpy.random loads OpenSSL through secrets and hmac.
    argv = {
        "fit": ["fit", str(workspace["train"]), "--model-out", str(tmp_path / "model.json")],
        "monitor": ["monitor", str(workspace["model"]), str(workspace["validation"][0])],
        "eval": ["eval", str(workspace["model"]), *map(str, workspace["validation"]),
                 "--report-out", str(tmp_path / "report")],
    }[command]
    script = (
        "import sys\nfrom sensordiag.cli import main\n"
        f"code = main({['--config', workspace['config'], *argv]!r})\n"
        "print(code, '_hashlib' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.stdout.splitlines()[-1] == "0 False", proc.stderr
    if command == "eval":
        payload = json.loads(workspace["model"].read_text(encoding="utf-8"))
        expected = hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()
        report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert report["metadata"]["model_digest"] == expected


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
def test_closed_stdout_ends_the_command_like_cat(tmp_path, long_series):
    # ``monitor ... | head -c 100``: killed by SIGPIPE, with nothing on stderr
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    args = ["-m", "sensordiag", "monitor", str(long_series["model"]), str(long_series["csv"])]
    proc = subprocess.Popen(
        [sys.executable, *args], cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    try:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        proc.wait(timeout=120)
    finally:
        proc.kill()  # no-op once it has exited
        proc.wait()
        err = proc.stderr.read()
        proc.stderr.close()
    assert proc.returncode == -signal.SIGPIPE
    assert err == b""


class TestQuietConfigErrors:
    """Config files that used to exit 1 with a traceback exit 3 with one
    ``config error:`` line that names the file."""

    @pytest.mark.parametrize(
        "content",
        [b"\xff\xfe{}", b"1" * 5000, b"[" * 100_000, None],
        ids=["not-utf8", "long-integer", "deep-nesting", "directory"],
    )
    def test_unreadable_config_exit_3(self, tmp_path, content):
        config = tmp_path / "config.json"
        if content is None:
            config.mkdir()
        else:
            config.write_bytes(content)
        out_dir = tmp_path / "out"
        proc = run_cli(["--config", str(config), "simulate", "--out-dir", str(out_dir)], tmp_path)
        assert proc.returncode == 3, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith(f"config error: config file {config}: ")
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "command, overrides, key",
        [
            ("simulate", {"simulate": {"noise_std": 10**400}}, "simulate.noise_std"),
            ("eval", {"sweep": {"amplitudes": [10**400]}}, "sweep.amplitudes"),
            ("eval", {"sweep": {"max_amplitude": 10**400}}, "sweep.max_amplitude"),
            ("eval", {"ebf": {"upper_sat": 10**400}}, "ebf.upper_sat"),
            ("monitor", {"ebf": {"reward": 10**400, "upper_sat": 10**400}}, "ebf.reward"),
            ("monitor", {"ebf": {"penalty": -(10**400), "lower_sat": -(10**400)}}, "ebf.penalty"),
            ("eval", {"sample_period_s": 10**400}, "sample_period_s"),
            ("eval", {"sweep": {"variants": []}}, "sweep.variants"),
        ],
        ids=[
            "noise_std-huge",
            "amplitudes-huge",
            "max_amplitude-huge",
            "upper_sat-huge",
            "reward-huge",
            "penalty-huge",
            "sample_period_s-huge",
            "variants-empty",
        ],
    )
    def test_invalid_value_exit_3(self, tmp_path, workspace, command, overrides, key):
        """Integers beyond float range and an empty variant list are rejected
        by the config table, not by a traceback in the command."""
        out = tmp_path / "out"
        args = {
            "simulate": ["simulate", "--out-dir", str(out)],
            "eval": ["eval", str(workspace["model"]), *map(str, workspace["validation"]), "--report-out", str(out)],
            "monitor": ["monitor", str(workspace["model"]), str(workspace["validation"][0])],
        }[command]
        proc = run_cli(["--config", write_config(tmp_path, overrides), *args], tmp_path)
        assert proc.returncode == 3, proc.stderr
        assert proc.stdout == "" and "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1 and proc.stderr.startswith(f"config error: {key} must be ")
        assert not list(tmp_path.glob("out*"))


# What no JSON input may be (None: no file), each with the reason both
# readers give (a directory's is the OS's message).
UNREADABLE_JSON = [
    (None, "file not found"),
    ("directory", "Is a directory"),
    (b"\xff\xfe{}", "not UTF-8 text"),
    (b"1" * 5000, "Exceeds the limit (4300 digits) for integer string conversion"),
    (b"[" * 100_000, "maximum recursion depth exceeded"),
    (b"not json", "Expecting value: line 1 column 1 (char 0)"),
    (b"[1]", "top-level JSON object expected"),
]


@pytest.mark.parametrize(
    "content, reason",
    UNREADABLE_JSON,
    ids=["missing", "directory", "not-utf8", "long-integer", "deep-nesting", "not-json", "array"],
)
def test_config_and_model_share_one_reader(tmp_path, workspace, capsys, content, reason):
    """The same bytes, read as the config or as the model, fail with the
    same reason, each under its own exit code and prefix."""
    path = tmp_path / "input.json"
    if content == "directory":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    csv = str(workspace["validation"][0])
    capsys.readouterr()
    assert main(["--config", str(path), "monitor", str(workspace["model"]), csv]) == 3
    config = capsys.readouterr()
    assert main(["--config", workspace["config"], "monitor", str(path), csv]) == 2
    model = capsys.readouterr()
    assert config.out == model.out == ""
    config_prefix, model_prefix = f"config error: config file {path}: ", f"data error: {path}: "
    assert config.err.startswith(config_prefix) and model.err.startswith(model_prefix)
    assert config.err.count("\n") == model.err.count("\n") == 1
    assert config.err[len(config_prefix) :] == model.err[len(model_prefix) :]
    assert reason in model.err


class TestTinyAmplitudes:
    """An amplitude so near zero that the error relative to it overflows,
    though every estimate is finite, is a config error naming the key that
    built the grid. A real data overflow stays a data error (see
    ``TestQuietDataErrors.test_eval_overflow``)."""

    @pytest.mark.parametrize(
        "sweep, key, amplitude",
        [
            ({"amplitudes": [5e-324, 1.0]}, "sweep.amplitudes", "5e-324"),
            ({"max_amplitude": 1e-307, "grid_points": 4}, "sweep.max_amplitude", "-1e-307"),
        ],
        ids=["amplitudes", "max_amplitude"],
    )
    def test_exit_3_naming_the_key(self, tmp_path, workspace, sweep, key, amplitude):
        report = tmp_path / "report"
        args = ["eval", str(workspace["model"]), *map(str, workspace["validation"]), "--report-out", str(report)]
        proc = run_cli(["--config", write_config(tmp_path, {"sweep": sweep}), *args], tmp_path)
        assert proc.returncode == 3, proc.stderr
        assert proc.stdout == "" and "Traceback" not in proc.stderr and "Warning" not in proc.stderr
        assert proc.stderr.count("\n") == 1 and proc.stderr.startswith(f"config error: {key}: ")
        assert f"at amplitude {amplitude} " in proc.stderr
        assert not list(tmp_path.glob("report.*"))

    def test_small_normal_amplitude_runs(self, tmp_path, workspace, capsys):
        report = tmp_path / "report"
        config = write_config(tmp_path, {"sweep": {"amplitudes": [1e-300, 1.0]}})
        code = main(["--config", config, "eval", str(workspace["model"]), *map(str, workspace["validation"]),
                     "--report-out", str(report)])
        assert code == 0, capsys.readouterr().err
        assert (tmp_path / "report.csv").exists()


@pytest.mark.parametrize(
    "max_amplitude, grid_points",
    [(1e308, 4), (math.nextafter(sys.float_info.max / 2, math.inf), 2), (sys.float_info.max, 1)],
    ids=["1e308", "past-half-max", "max-one-point"],
)
def test_max_amplitude_overflowing_the_grid_exits_3(tmp_path, workspace, max_amplitude, grid_points):
    # linspace takes max_amplitude - (-max_amplitude), which overflows past
    # half the float64 maximum and would leave NaN amplitudes in the grid.
    report = tmp_path / "report"
    sweep = {"max_amplitude": max_amplitude, "grid_points": grid_points}
    args = ["eval", str(workspace["model"]), *map(str, workspace["validation"]), "--report-out", str(report)]
    proc = run_cli(["--config", write_config(tmp_path, {"sweep": sweep}), *args], tmp_path)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr == (  # one line: no numpy warning, no traceback
        f"config error: sweep.max_amplitude {max_amplitude!r}: the grid from {-max_amplitude!r} "
        f"to {max_amplitude!r} overflows float64 (use at most 8.988465674311579e+307)\n"
    )
    assert not list(tmp_path.glob("report.*"))


def all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from all_subclasses(sub)


def test_every_error_type_carries_a_contract_exit_code():
    """The CLI takes its exit code from the error type, so a new type is
    covered without a list to keep; only these four are config errors."""
    types = {SensorDiagError, *all_subclasses(SensorDiagError)}
    assert len(types) > 15
    assert all(t.exit_code in (2, 3) for t in types)
    config_types = {t for t in types if t.exit_code == 3}
    assert config_types == {ConfigError, LagTooLarge, UnstableConfig, IndexOutOfRange}


@pytest.fixture(scope="module")
def full_variance_model(tmp_path_factory):
    """An n=3, d=1 model fitted at variance_fraction 1.0: it has no residual
    subspace, so no sensor direction can be reconstructed for spe."""
    root = tmp_path_factory.mktemp("full_variance")
    sim = {"n_sensors": 3, "n_validation_runs": 1, "seed": 5}
    config = write_config(root, {"lag_depth": 1, "variance_fraction": 1.0, "simulate": sim})
    assert main(["--config", config, "simulate", "--out-dir", str(root / "data")]) == 0
    model = root / "model.json"
    assert main(["--config", config, "fit", str(root / "data" / "train.csv"), "--model-out", str(model)]) == 0
    return {"model": model, "validation": root / "data" / "validation_1.csv"}


class TestOneLineErrors:
    """Inputs that used to exit 1 with a traceback, or print a bare
    ``error:`` line or a line broken in two, exit 2 or 3 with exactly one
    ``data error:`` or ``config error:`` line."""

    @pytest.mark.parametrize("command", ["fit", "eval", "monitor"])
    def test_directory_as_input_csv(self, tmp_path, workspace, command):
        folder = tmp_path / "folder.csv"
        folder.mkdir()
        args = {
            "fit": ["fit", str(folder), "--model-out", str(tmp_path / "model.json")],
            "eval": ["eval", str(workspace["model"]), str(folder), "--report-out", str(tmp_path / "report")],
            "monitor": ["monitor", str(workspace["model"]), str(folder)],
        }[command]
        proc = run_cli(["--config", workspace["config"], *args], tmp_path)
        assert_one_data_error(proc, f"Is a directory: '{folder}'")
        assert not (tmp_path / "model.json").exists() and not list(tmp_path.glob("report.*"))

    def test_directory_as_model_out(self, tmp_path, workspace):
        folder = tmp_path / "model.json"
        folder.mkdir()
        args = ["fit", str(workspace["train"]), "--model-out", str(folder)]
        proc = run_cli(["--config", workspace["config"], *args], tmp_path)
        assert_one_data_error(proc, f"Is a directory: '{folder}'")

    def test_file_as_simulate_out_dir(self, tmp_path, workspace):
        out = tmp_path / "out"
        out.write_text("not a directory\n")
        proc = run_cli(["--config", workspace["config"], "simulate", "--out-dir", str(out)], tmp_path)
        assert_one_data_error(proc, f"File exists: '{out}'")
        assert out.read_text() == "not a directory\n"

    def test_monitor_degenerate_direction(self, tmp_path, full_variance_model):
        config = write_config(tmp_path, {"lag_depth": 1, "monitor": {"method": "rbc", "index": "spe"}})
        args = ["monitor", str(full_variance_model["model"]), str(full_variance_model["validation"])]
        proc = run_cli(["--config", config, *args], tmp_path)
        assert_one_data_error(proc, "data error: direction of sensor 0 is degenerate")

    def test_eval_degenerate_direction(self, tmp_path, full_variance_model):
        # the default grid of this model is all zero, so amplitudes are given
        config = write_config(tmp_path, {"lag_depth": 1, "sweep": {"amplitudes": [1.0, -1.0]}})
        report = tmp_path / "report"
        args = ["eval", str(full_variance_model["model"]), str(full_variance_model["validation"])]
        proc = run_cli(["--config", config, *args, "--report-out", str(report)], tmp_path)
        assert_one_data_error(proc, "data error: direction of sensor 0 is degenerate")
        assert not list(tmp_path.glob("report.*"))

    @pytest.mark.parametrize("report_out", ["", ".", "/", "..", "sub/.."])
    def test_eval_report_out_without_a_file_name(self, tmp_path, workspace, report_out):
        args = ["eval", str(workspace["model"]), *map(str, workspace["validation"])]
        proc = run_cli(["--config", workspace["config"], *args, "--report-out", report_out], tmp_path)
        assert_one_data_error(proc, f"data error: --report-out {report_out!r}: empty file name")
        assert not list(tmp_path.iterdir())

    def test_eval_report_out_checked_before_the_model_is_read(self, tmp_path, workspace):
        args = ["eval", str(tmp_path / "missing.json"), str(workspace["validation"][0])]
        proc = run_cli(["--config", workspace["config"], *args, "--report-out", ""], tmp_path)
        assert_one_data_error(proc, "data error: --report-out '': empty file name")

    @pytest.mark.parametrize(
        "command, case",
        [(command, case) for command in ("fit", "eval")
         for case in ("missing-directory", "directory", "dot", "trailing-slash")] + [("fit", "empty")],
    )
    def test_output_path_checked_before_any_input(self, tmp_path, command, case):
        # The inputs do not exist, so only a check made before any is read
        # can name the output path. An empty --report-out is tested above.
        flag, target = {"fit": ("--model-out", ""), "eval": ("--report-out", ".csv")}[command]
        out, message = {
            "missing-directory": (tmp_path / "missing" / "out", f"No such directory: '{tmp_path / 'missing'}'"),
            "directory": (tmp_path / "out", f"Is a directory: '{tmp_path / ('out' + target)}'"),
            "dot": (f"{tmp_path}/.", "empty file name"),
            "trailing-slash": (f"{tmp_path}/out/", "empty file name"),
            "empty": ("", "empty file name"),
        }[case]
        if case == "directory":
            (tmp_path / ("out" + target)).mkdir()
        args = {
            "fit": ["fit", str(tmp_path / "train.csv")],
            "eval": ["eval", str(tmp_path / "model.json"), str(tmp_path / "validation.csv")],
        }[command]
        proc = run_cli([*args, flag, str(out)], tmp_path)
        assert_one_data_error(proc, f"data error: {flag} {str(out)!r}: {message}")

    def test_fit_on_too_few_rows_exit_3(self, tmp_path, workspace):
        # one embedded row at lag_depth 1 has no covariance estimate
        train = tmp_path / "train.csv"
        train.write_text("a,b,c\n1.0,2.0,3.0\n2.0,3.5,5.0\n")
        model = tmp_path / "model.json"
        config = write_config(tmp_path, {"lag_depth": 1})
        proc = run_cli(["--config", config, "fit", str(train), "--model-out", str(model)], tmp_path)
        assert proc.returncode == 3, proc.stderr
        assert proc.stdout == "" and "Traceback" not in proc.stderr
        assert proc.stderr == f"config error: {train}: 2 rows too few for lag_depth 1 (need at least 3)\n"
        assert not model.exists()

    @pytest.mark.parametrize("rows", [2, 3])
    def test_fit_within_lag_depth_names_the_rows_needed(self, tmp_path, workspace, rows):
        # A cut of at most lag_depth rows and one of lag_depth + 1 rows fail
        # the same check, so they read the same message.
        train = tmp_path / "train.csv"
        with open(workspace["train"], encoding="utf-8") as fh:
            train.write_text("".join(fh.readline() for _ in range(1 + rows)))
        model = tmp_path / "model.json"
        config = write_config(tmp_path, {"lag_depth": 2})
        proc = run_cli(["--config", config, "fit", str(train), "--model-out", str(model)], tmp_path)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == f"config error: {train}: {rows} rows too few for lag_depth 2 (need at least 4)\n"
        assert not model.exists()

    @pytest.mark.parametrize("command", ["eval", "monitor"])
    @pytest.mark.parametrize("rows", [2, 3])
    def test_series_within_model_lag_depth_exit_2(self, tmp_path, command, rows):
        # the model's lag depth, not the config's lag_depth, sets the bound
        train = make_raw(3, 400, seed=5)
        model = tmp_path / "m3.json"
        save_model(fit_pca(embed_lags(apply_scaler(train, fit_scaler(train)), 3)), model)
        short = tmp_path / "short.csv"
        write_raw_csv(RawDataset(train.samples[:rows], train.sensor_names), short)
        args = {
            "eval": ["eval", str(model), str(short), "--report-out", str(tmp_path / "report")],
            "monitor": ["monitor", str(model), str(short)],
        }[command]
        config = write_config(tmp_path, {"lag_depth": 1, "sweep": {"amplitudes": [1.0], "onset_k": None}})
        proc = run_cli(["--config", config, *args], tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr == (
            f"data error: {short}: {rows} rows too few for the model's lag depth 3 (need at least 4)\n"
        )
        assert not list(tmp_path.glob("report.*"))

    @pytest.mark.parametrize(
        "payload, key",
        [({"\n": 1}, "\\n"), ({"sweep": {"\n": 1}}, "sweep.\\n"), ({"\r": 1}, "\\r")],
        ids=["top-level-newline", "sweep-newline", "top-level-return"],
    )
    def test_line_break_in_unknown_key_is_escaped(self, tmp_path, capsys, payload, key):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(payload))
        assert main(["--config", str(config), "simulate", "--out-dir", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == f"config error: unknown config key '{key}'\n"

    def test_line_break_in_sensor_name_is_escaped(self, tmp_path, workspace, capsys):
        train = tmp_path / "train.csv"
        train.write_text('"a\nb",c\n1.0,2.0\n1.0,3.5\n1.0,5.0\n')
        assert main(["--config", workspace["config"], "fit", str(train), "--model-out", str(tmp_path / "m.json")]) == 2
        assert capsys.readouterr().err == (
            "data error: sensor 'a\\nb' has zero variance; a constant column cannot be standardized\n"
        )


class TestFitWarnings:
    """Rank-deficient or undersampled training data still fit, exit 0, and
    print each warning as one ``warning:`` line, without a source path."""

    def fit(self, tmp_path, workspace, rows):
        train = tmp_path / "train.csv"
        train.write_text("".join(rows))
        model = tmp_path / "model.json"
        proc = run_cli(["--config", workspace["config"], "fit", str(train), "--model-out", str(model)], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith(f"model written: {model}\n")
        return proc.stderr.splitlines()

    def test_duplicated_column(self, tmp_path, workspace):
        lines = workspace["train"].read_text().splitlines()
        rows = [f"{line},{'dup' if i == 0 else line.split(',')[0]}\n" for i, line in enumerate(lines)]
        assert self.fit(tmp_path, workspace, rows) == [
            "warning: trailing eigenvalues are numerically zero (rank-deficient data)"
        ]

    def test_undersampled(self, tmp_path, workspace):
        # 10 rows at n=4, d=2: 8 embedded rows for 12 extended variables
        rows = workspace["train"].read_text().splitlines(keepends=True)[:11]
        assert self.fit(tmp_path, workspace, rows) == [
            "warning: only 8 samples for 12 extended variables; covariance is "
            "rank-deficient and trailing eigenvalues are meaningless",
            "warning: trailing eigenvalues are numerically zero (rank-deficient data)",
        ]


@pytest.fixture(scope="module")
def chunk_series(tmp_path_factory):
    """An n=4, d=2 model and a series three render chunks and eight rows long,
    with a step fault on sensor 0 from sample 700."""
    root = tmp_path_factory.mktemp("render_chunks")
    d, m_train = 2, 3000
    raw = make_raw(n=4, m=m_train + 3 * _RENDER_LINES + 8, seed=41)
    train = RawDataset(raw.samples[:m_train], raw.sensor_names)
    save_model(fit_pca(embed_lags(apply_scaler(train, fit_scaler(train)), d)), root / "model.json")
    series = RawDataset(raw.samples[m_train:], raw.sensor_names)
    amplitude = 4.0 * train.samples[:, 0].std(ddof=1)
    return {
        "root": root,
        "model": root / "model.json",
        "series": inject_fault(series, FaultSpec(sensor=0, amplitude=amplitude, onset_k=700)),
        "d": d,
    }


def write_lines_csv(case, lines, path):
    """The first ``lines + d`` rows of the case's series: ``lines`` monitor lines."""
    data = case["series"]
    write_raw_csv(RawDataset(data.samples[: lines + case["d"]], data.sensor_names), path)
    return path


def monitor_stdout(config, model, csv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["--config", config, "monitor", str(model), str(csv)]) == 0
    return out.getvalue()


class TestMonitorRenderChunks:
    """Streams that end just before, on and just after a render-chunk edge
    print what one ``json.dumps`` per sample prints."""

    @pytest.mark.parametrize(
        "lines", [_RENDER_LINES - 1, _RENDER_LINES, _RENDER_LINES + 1, 2 * _RENDER_LINES + 1]
    )
    @pytest.mark.parametrize("index", ["spe", "t2"])
    @pytest.mark.parametrize("method", ["cp", "rbc"])
    @pytest.mark.parametrize("gate", [False, True], ids=["ungated", "gated"])
    def test_chunk_edges(self, tmp_path, chunk_series, gate, method, index, lines):
        monitor = {"method": method, "index": index, "gate_on_detection": gate}
        config = write_config(tmp_path, {"monitor": monitor})
        csv = write_lines_csv(chunk_series, lines, tmp_path / "series.csv")
        out = monitor_stdout(config, chunk_series["model"], csv)
        assert out.count("\n") == lines
        expected = oracle_monitor_ndjson(load_model(chunk_series["model"]), csv, monitor, EbfParams())
        assert_same_stream(out, expected)

    @given(
        lines=st.sampled_from([1, 2, 3]).flatmap(
            lambda c: st.integers(c * _RENDER_LINES - 2, c * _RENDER_LINES + 2)
        ),
        gate=st.booleans(),
        method=st.sampled_from(["cp", "rbc"]),
        index=st.sampled_from(["spe", "t2"]),
    )
    @settings(max_examples=20, deadline=None)
    def test_lengths_around_chunk_edges(self, chunk_series, lines, gate, method, index):
        root = chunk_series["root"]
        monitor = {"method": method, "index": index, "gate_on_detection": gate}
        config = write_config(root, {"monitor": monitor}, name="hypothesis.json")
        csv = write_lines_csv(chunk_series, lines, root / "hypothesis.csv")
        out = monitor_stdout(config, chunk_series["model"], csv)
        expected = oracle_monitor_ndjson(load_model(chunk_series["model"]), csv, monitor, EbfParams())
        assert_same_stream(out, expected)

    def test_negative_zero_band_edge(self, tmp_path, chunk_series):
        config = write_config(tmp_path, {"ebf": {"lower_sat": -0.0}})
        csv = write_lines_csv(chunk_series, 2 * _RENDER_LINES + 1, tmp_path / "series.csv")
        out = monitor_stdout(config, chunk_series["model"], csv)
        monitor = {"method": "rbc", "index": "t2", "gate_on_detection": False}
        params = EbfParams(lower_sat=-0.0)
        expected = oracle_monitor_ndjson(load_model(chunk_series["model"]), csv, monitor, params)
        assert_same_stream(out, expected)
        assert "-0.0" in out

    def test_single_sensor_model(self, tmp_path):
        d, m_train = 2, 1000
        raw = make_raw(n=1, m=m_train + _RENDER_LINES + 1 + d, seed=43)
        train = RawDataset(raw.samples[:m_train], raw.sensor_names)
        model = fit_pca(embed_lags(apply_scaler(train, fit_scaler(train)), d))
        save_model(model, tmp_path / "model.json")
        csv = tmp_path / "series.csv"
        write_raw_csv(RawDataset(raw.samples[m_train:], raw.sensor_names), csv)
        config = write_config(tmp_path)
        out = monitor_stdout(config, tmp_path / "model.json", csv)
        assert out.count('"raw_winner": 0, ') == _RENDER_LINES + 1
        monitor = {"method": "rbc", "index": "t2", "gate_on_detection": False}
        expected = oracle_monitor_ndjson(load_model(tmp_path / "model.json"), csv, monitor, EbfParams())
        assert_same_stream(out, expected)
