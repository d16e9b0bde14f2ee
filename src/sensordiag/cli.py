"""Command-line surface: fit, eval, monitor, simulate.

All tunable parameters live in one JSON config file (``--config``); command
arguments carry only file paths. Exit codes are a stable contract for
scripting: 0 success, 2 data error (bad CSV/model content), 3 config error
(unknown keys, invalid values, impossible lag depth).
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .dataset import LagSpec, apply_scaler, embed_lags, fit_scaler, read_raw_csv, write_raw_csv
from .detection import _row_blocks, spe, t2
from .ebf import EbfParams, EbfState, ebf_decide, ebf_step
from .errors import (
    ConfigError,
    CorruptModelFile,
    CsvParseError,
    DimensionMismatch,
    EmptySample,
    IndexOutOfRange,
    LagTooLarge,
    NonFiniteResult,
    SchemaVersionMismatch,
    SensorDiagError,
    UnstableConfig,
    ZeroAmplitude,
    ZeroVarianceColumn,
)
from .harness import DEFAULT_VARIANTS, default_sim_config, simulate, sweep
from .isolation import (
    ContributionMethod,
    DetectionIndex,
    IsolationMethod,
    contribution_matrix,
)
from .pca import fit_pca, load_model, save_model

DEFAULT_CONFIG: dict = {
    "sample_period_s": 0.1,
    "variance_fraction": 0.98,
    "alpha": 0.01,
    "lag_depth": 10,
    "ebf": {
        "reward": 0.01,
        "penalty": -0.005,
        "decision_threshold": 0.2,
        "upper_sat": 1.0,
        "lower_sat": 0.0,
    },
    "monitor": {
        "method": "rbc",
        "index": "t2",
        "gate_on_detection": False,
    },
    "sweep": {
        "target_sensor": 0,
        "grid_points": 100,
        "max_amplitude": None,
        "amplitudes": None,
        "onset_k": None,
        "variants": None,
    },
    "simulate": {
        "n_sensors": 8,
        "m_train": 20000,
        "m_validation": 5000,
        "n_validation_runs": 4,
        "seed": 1,
        "structure_seed": 118,
        "noise_std": 1.0,
    },
}

_CONFIG_ERRORS = (ConfigError, LagTooLarge, UnstableConfig, IndexOutOfRange)
_DATA_ERRORS = (
    CsvParseError,
    ZeroVarianceColumn,
    DimensionMismatch,
    CorruptModelFile,
    SchemaVersionMismatch,
    EmptySample,
    ZeroAmplitude,
    NonFiniteResult,
    FileNotFoundError,
)


def _merge_strict(defaults: dict, user: dict, prefix: str = "") -> dict:
    merged = copy.deepcopy(defaults)
    for key, value in user.items():
        if key not in defaults:
            raise ConfigError(f"unknown config key '{prefix}{key}'")
        if isinstance(defaults[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key '{prefix}{key}' must be an object")
            merged[key] = _merge_strict(defaults[key], value, f"{prefix}{key}.")
        else:
            merged[key] = value
    return merged


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _is_int(value) -> bool:
    """JSON integer; ``bool`` is rejected although Python counts it as int."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """Finite JSON number, integer or float; ``bool`` is rejected."""
    return _is_int(value) or (isinstance(value, float) and math.isfinite(value))


def _validate_config(cfg: dict) -> None:
    _require(
        _is_real(cfg["sample_period_s"]) and cfg["sample_period_s"] > 0,
        "sample_period_s must be a positive number",
    )
    _require(
        _is_real(cfg["variance_fraction"]) and 0 < cfg["variance_fraction"] <= 1,
        "variance_fraction must be a number in (0, 1]",
    )
    _require(
        _is_real(cfg["alpha"]) and 0 < cfg["alpha"] < 1,
        "alpha must be a number in (0, 1)",
    )
    _require(
        _is_int(cfg["lag_depth"]) and cfg["lag_depth"] >= 0,
        "lag_depth must be a non-negative integer",
    )
    for key, value in cfg["ebf"].items():
        _require(_is_real(value), f"ebf.{key} must be a number")
    try:
        EbfParams(**cfg["ebf"])
    except ValueError as exc:
        raise ConfigError(f"ebf: {exc}") from exc
    _require(cfg["monitor"]["method"] in ("cp", "rbc"), "monitor.method must be cp|rbc")
    _require(cfg["monitor"]["index"] in ("spe", "t2"), "monitor.index must be spe|t2")
    _require(
        isinstance(cfg["monitor"]["gate_on_detection"], bool),
        "monitor.gate_on_detection must be a boolean",
    )
    sw = cfg["sweep"]
    _require(
        _is_int(sw["target_sensor"]) and sw["target_sensor"] >= 0,
        "sweep.target_sensor must be a non-negative integer",
    )
    _require(
        _is_int(sw["grid_points"]) and sw["grid_points"] >= 1,
        "sweep.grid_points must be a positive integer",
    )
    if sw["max_amplitude"] is not None:
        _require(
            _is_real(sw["max_amplitude"]) and sw["max_amplitude"] > 0,
            "sweep.max_amplitude must be a positive number",
        )
    if sw["amplitudes"] is not None:
        _require(
            isinstance(sw["amplitudes"], list)
            and len(sw["amplitudes"]) > 0
            and all(_is_real(a) for a in sw["amplitudes"]),
            "sweep.amplitudes must be a non-empty list of numbers",
        )
    if sw["onset_k"] is not None:
        _require(
            _is_int(sw["onset_k"]) and sw["onset_k"] >= 0,
            "sweep.onset_k must be a non-negative integer",
        )
    if sw["variants"] is not None:
        _require(isinstance(sw["variants"], list), "sweep.variants must be a list")
        for item in sw["variants"]:
            _require(
                isinstance(item, dict)
                and set(item) == {"method", "index", "ebf"}
                and item["method"] in ("cp", "rbc")
                and item["index"] in ("spe", "t2")
                and isinstance(item["ebf"], bool),
                "sweep.variants entries must be "
                '{"method": cp|rbc, "index": spe|t2, "ebf": bool}',
            )
    sim = cfg["simulate"]
    for key in ("n_sensors", "m_train", "m_validation", "n_validation_runs"):
        _require(
            _is_int(sim[key]) and sim[key] >= 1,
            f"simulate.{key} must be a positive integer",
        )
    for key in ("seed", "structure_seed"):
        _require(
            _is_int(sim[key]) and sim[key] >= 0,
            f"simulate.{key} must be a non-negative integer",
        )
    _require(
        _is_real(sim["noise_std"]) and sim["noise_std"] >= 0,
        "simulate.noise_std must be a non-negative number",
    )


def load_config(path: str | None) -> dict:
    """Defaults overlaid with the user file; unknown keys are rejected."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        try:
            user = json.loads(Path(path).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path}: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError("config file must hold a JSON object")
        cfg = _merge_strict(DEFAULT_CONFIG, user)
    _validate_config(cfg)
    return cfg


def _ebf_params(cfg: dict) -> EbfParams:
    return EbfParams(**cfg["ebf"])


def _config_variants(cfg: dict):
    raw = cfg["sweep"]["variants"]
    if raw is None:
        return DEFAULT_VARIANTS
    return [
        (
            IsolationMethod(
                ContributionMethod(item["method"]), DetectionIndex(item["index"])
            ),
            item["ebf"],
        )
        for item in raw
    ]


def cmd_fit(args, cfg: dict) -> int:
    data = read_raw_csv(args.train_csv, cfg["sample_period_s"])
    scaler = fit_scaler(data)
    scaled = apply_scaler(data, scaler)
    embedded = embed_lags(scaled, LagSpec(cfg["lag_depth"]))
    model = fit_pca(embedded, cfg["variance_fraction"], cfg["alpha"])
    save_model(model, args.model_out)
    explained = float(model.lambda_hat.sum()) / float(
        model.lambda_hat.sum() + model.lambda_tilde.sum()
    )
    print(f"model written: {args.model_out}")
    print(f"components: {model.l} of {model.n_e} (lag depth {model.d})")
    print(f"explained variance: {100.0 * explained:.2f}%")
    print(f"spe limit: {model.spe_limit!r}")
    print(f"t2 limit: {model.t2_limit!r}")
    return 0


def cmd_eval(args, cfg: dict) -> int:
    if not args.validation_csvs:
        raise ConfigError("at least one validation CSV is required")
    model = load_model(args.model)
    runs = [read_raw_csv(p, cfg["sample_period_s"]) for p in args.validation_csvs]
    sw = cfg["sweep"]
    target = sw["target_sensor"]
    if not 0 <= target < model.n:
        raise IndexOutOfRange(
            f"sweep.target_sensor {target} not in [0, {model.n})"
        )
    if sw["amplitudes"] is not None:
        grid = [float(a) for a in sw["amplitudes"]]
    else:
        a_max = sw["max_amplitude"]
        if a_max is None:
            a_max = 6.0 * model.residual_std(target)
        grid = np.linspace(-a_max, a_max, sw["grid_points"]).tolist()
    if not any(grid):
        raise ConfigError(
            "every sweep amplitude is zero, so no cell would be evaluated; "
            "set sweep.max_amplitude or sweep.amplitudes"
        )
    report = sweep(
        model,
        runs,
        target,
        grid,
        _config_variants(cfg),
        onset_k=sw["onset_k"],
        ebf_params=_ebf_params(cfg),
    )
    report.metadata["config"] = cfg
    report.metadata["validation_files"] = [str(p) for p in args.validation_csvs]
    base = Path(args.report_out)
    csv_path = base.with_suffix(".csv")
    json_path = base.with_suffix(".json")
    report.to_csv(csv_path)
    report.to_json(json_path)
    print(f"report written: {csv_path} {json_path}")
    print(f"rows: {len(report.rows)}")
    return 0


@np.errstate(over="ignore", invalid="ignore")  # scoring rejects an overflow
def cmd_monitor(args, cfg: dict) -> int:
    model = load_model(args.csv_model)
    data = read_raw_csv(args.csv, cfg["sample_period_s"])
    if data.sensor_names != model.sensor_names:
        raise DimensionMismatch("CSV sensor names do not match the model")
    scaled = apply_scaler(data, model.base_scaler)
    tag = IsolationMethod(
        ContributionMethod(cfg["monitor"]["method"]),
        DetectionIndex(cfg["monitor"]["index"]),
    )
    gate = cfg["monitor"]["gate_on_detection"]
    params = _ebf_params(cfg)
    d = model.d
    spe_list, t2_list, spe_exceeds, t2_exceeds, winners = [], [], [], [], []
    # Embed and score one row block at a time, so memory is bounded by the
    # block; embedded row e reads scaled rows e .. e + d.
    for blk in _row_blocks(max(scaled.m - d, 0)):
        window = replace(scaled, samples=scaled.samples[blk.start : blk.stop + d])
        z = embed_lags(window, LagSpec(d)).samples
        spe_vals = spe(model, z)
        t2_vals = t2(model, z)
        spe_exceeds += (spe_vals > model.spe_limit).tolist()
        t2_exceeds += (t2_vals > model.t2_limit).tolist()
        winners += contribution_matrix(model, z, tag).argmax(axis=1).tolist()
        spe_list += spe_vals.tolist()
        t2_list += t2_vals.tolist()
        del z  # free this block before the next one is embedded
    state = EbfState.fresh(model.n)
    out = sys.stdout
    for e, winner in enumerate(winners):
        if not gate or spe_exceeds[e] or t2_exceeds[e]:
            state = ebf_step(state, winner, params)
        record = {
            "k": e + d,
            "spe": spe_list[e],
            "t2": t2_list[e],
            "spe_exceeds": spe_exceeds[e],
            "t2_exceeds": t2_exceeds[e],
            "raw_winner": winner,
            "ebf_declared": ebf_decide(state, params),
            "s": state.s.tolist(),
        }
        out.write(json.dumps(record) + "\n")
    return 0


def cmd_simulate(args, cfg: dict) -> int:
    sim = cfg["simulate"]
    d = cfg["lag_depth"]
    for key in ("m_train", "m_validation"):
        if sim[key] < d + 2:
            raise ConfigError(
                f"simulate.{key} = {sim[key]} too small for lag_depth {d} "
                f"(need at least {d + 2})"
            )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    base = default_sim_config(
        n_sensors=sim["n_sensors"],
        m_samples=sim["m_train"],
        seed=sim["seed"],
        noise_std=sim["noise_std"],
        structure_seed=sim["structure_seed"],
    )
    paths = []
    train_path = out_dir / "train.csv"
    write_raw_csv(simulate(base), train_path)
    paths.append(train_path)
    for j in range(sim["n_validation_runs"]):
        run_cfg = replace(
            base, m_samples=sim["m_validation"], seed=sim["seed"] + 1 + j
        )
        path = out_dir / f"validation_{j + 1}.csv"
        write_raw_csv(simulate(run_cfg), path)
        paths.append(path)
    for path in paths:
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sensordiag",
        description="PCA-based sensor fault detection, isolation and estimation",
    )
    parser.add_argument("--config", default=None, help="JSON config file")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a model on a training CSV")
    p_fit.add_argument("train_csv")
    p_fit.add_argument("--model-out", default="model.json")
    p_fit.set_defaults(func=cmd_fit)

    p_eval = sub.add_parser("eval", help="amplitude-sweep evaluation on validation CSVs")
    p_eval.add_argument("model")
    p_eval.add_argument("validation_csvs", nargs="*")
    p_eval.add_argument("--report-out", default="report")
    p_eval.set_defaults(func=cmd_eval)

    p_mon = sub.add_parser("monitor", help="replay a CSV, emitting one JSON line per sample")
    p_mon.add_argument("csv_model", metavar="model")
    p_mon.add_argument("csv")
    p_mon.set_defaults(func=cmd_monitor)

    p_sim = sub.add_parser("simulate", help="generate synthetic train/validation CSVs")
    p_sim.add_argument("--out-dir", default="synthetic")
    p_sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        return args.func(args, cfg)
    except _CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except _DATA_ERRORS as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except SensorDiagError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
