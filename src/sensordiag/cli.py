"""Command-line surface: fit, eval, monitor, simulate.

All tunable parameters live in one JSON config file (``--config``); command
arguments carry only file paths. Exit codes are a stable contract for
scripting: 0 success, 2 data error (bad CSV/model content, an unreadable or
unwritable path), 3 config error (unknown keys, invalid values, impossible lag
depth). Each code comes from the error type (``SensorDiagError.exit_code``),
and every error is reported as one ``data error:`` or ``config error:`` line.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import warnings
from dataclasses import fields, replace
from itertools import chain, islice
from pathlib import Path

import numpy as np

from . import _shares
from ._jsonin import integer, list_of, read_object, real
from .dataset import apply_scaler, embed_lags, fit_scaler, read_raw_csv, write_raw_csv
from .ebf import NO_DECLARATION, EbfParams
from .errors import (
    AmplitudeOverflow,
    ConfigError,
    IndexOutOfRange,
    SensorDiagError,
    check_index,
)
from .harness import (
    _RENDER_LINES, DEFAULT_STRUCTURE_SEED, DEFAULT_VARIANTS, default_sim_config, replay, simulate, sweep
)
from .isolation import ContributionMethod, DetectionIndex, IsolationMethod
from .pca import fit_pca, load_model, save_model

_METHODS, _INDICES = [m.value for m in ContributionMethod], [i.value for i in DetectionIndex]


def _variant(item) -> bool:
    return (
        isinstance(item, dict)
        and item.keys() == {"method", "index", "ebf"}
        and item["method"] in _METHODS
        and item["index"] in _INDICES
        and type(item["ebf"]) is bool
    )


# Every config key as (default, check, what the value must be), nested as in
# the file. The upper bounds cap what one config can make the CLI allocate:
# n_sensors sizes simulate's (32n)^2 block-Toeplitz recursion matrix, m_* the
# simulated series, n_validation_runs the CSV files it writes and grid_points
# the sweep grid. lag_depth has no bound: its cost scales with the input CSV,
# which no config bounds. The ebf section is EbfParams' fields and defaults.
_SCHEMA: dict = {
    "sample_period_s": (0.1, lambda v: real(v) and v > 0, "a positive number"),
    "variance_fraction": (0.98, lambda v: real(v) and 0 < v <= 1, "a number in (0, 1]"),
    "alpha": (0.01, lambda v: real(v) and 0 < v < 1, "a number in (0, 1)"),
    "lag_depth": (10, lambda v: integer(v, 0), "a non-negative integer"),
    "ebf": {f.name: (f.default, real, "a number") for f in fields(EbfParams)},
    "monitor": {
        "method": ("rbc", lambda v: v in _METHODS, "cp|rbc"),
        "index": ("t2", lambda v: v in _INDICES, "spe|t2"),
        "gate_on_detection": (False, lambda v: type(v) is bool, "a boolean"),
    },
    "sweep": {
        "target_sensor": (0, lambda v: integer(v, 0), "a non-negative integer"),
        "grid_points": (100, lambda v: integer(v, 1, 10_000), "an integer in [1, 10000]"),
        "max_amplitude": (
            None, lambda v: v is None or (real(v) and v > 0), "null or a positive number"
        ),
        "amplitudes": (
            None, lambda v: v is None or list_of(v, real), "null or a non-empty list of numbers"
        ),
        "onset_k": (None, lambda v: v is None or integer(v, 0), "null or a non-negative integer"),
        "variants": (
            None,
            lambda v: v is None or list_of(v, _variant),
            'null or a non-empty list of {"method": cp|rbc, "index": spe|t2, "ebf": bool}',
        ),
    },
    "simulate": {
        "n_sensors": (8, lambda v: integer(v, 1, 32), "an integer in [1, 32]"),
        "m_train": (20000, lambda v: integer(v, 1, 1_000_000), "an integer in [1, 1000000]"),
        "m_validation": (5000, lambda v: integer(v, 1, 1_000_000), "an integer in [1, 1000000]"),
        "n_validation_runs": (4, lambda v: integer(v, 1, 1000), "an integer in [1, 1000]"),
        "seed": (1, lambda v: integer(v, 0), "a non-negative integer"),
        "structure_seed": (
            DEFAULT_STRUCTURE_SEED, lambda v: integer(v, 0), "a non-negative integer"
        ),
        "noise_std": (1.0, lambda v: real(v) and v >= 0, "a non-negative number"),
    },
}


def _resolve(schema: dict, user: dict, prefix: str = "") -> dict:
    """One walk over ``schema``: reject keys it lacks, fill its defaults and
    check every value. User values are kept as given, never coerced."""
    for key in user:
        if key not in schema:
            raise ConfigError(f"unknown config key '{prefix}{key}'")
    cfg = {}
    for key, spec in schema.items():
        name = prefix + key
        if isinstance(spec, dict):
            section = user.get(key, {})
            if not isinstance(section, dict):
                raise ConfigError(f"config key '{name}' must be an object")
            cfg[key] = _resolve(spec, section, name + ".")
        else:
            default, check, what = spec
            cfg[key] = user.get(key, default)
            if not check(cfg[key]):
                raise ConfigError(f"{name} must be {what}")
    return cfg


DEFAULT_CONFIG: dict = _resolve(_SCHEMA, {})

_PIPELINE_MIN_BLOCKS = 4  # blocks worth a render child; README "Performance" derives it
_JSON_BOOL = ("false", "true")


def load_config(path: str | None) -> dict:
    """Defaults overlaid with the user file; unknown keys and invalid values
    are rejected."""
    user = {} if path is None else read_object(path, ConfigError, f"config file {path}")
    cfg = _resolve(_SCHEMA, user)
    try:
        _ebf_params(cfg)
    except ValueError as exc:
        raise ConfigError(f"ebf: {exc}") from exc
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


def _read_for_model(path, model):
    """Read a CSV for ``model`` to score: the model's sensor names, in order,
    and more rows than its lag depth."""
    data = read_raw_csv(path)
    model._require_series(data, f"{path}: ")
    return data


def _output_path(flag: str, value: str, suffix: str | None = None) -> Path:
    """The file ``value`` names, with ``suffix`` if one is given, checked before any
    input is read: it has a file name, is not a directory, and its directory exists."""
    if os.path.basename(value) in ("", ".", ".."):
        raise SensorDiagError(f"{flag} {value!r}: empty file name")
    path = Path(value) if suffix is None else Path(value).with_suffix(suffix)
    if path.is_dir():
        raise SensorDiagError(f"{flag} {value!r}: Is a directory: {str(path)!r}")
    if not path.parent.is_dir():
        raise SensorDiagError(f"{flag} {value!r}: No such directory: {str(path.parent)!r}")
    return path


def cmd_fit(args, cfg: dict) -> int:
    model_out = _output_path("--model-out", args.model_out)
    d = cfg["lag_depth"]
    # Each copy of the series is dropped once the next is built, and the
    # embedded matrix once the model is fitted, so save_model builds its JSON
    # text beside none of them.
    data = read_raw_csv(args.train_csv)
    scaler = fit_scaler(data)  # a constant column is a data error at any row count
    if data.m < d + 2:  # embed_lags leaves m - d rows; a covariance needs two
        raise ConfigError(
            f"{args.train_csv}: {data.m} rows too few for lag_depth {d} (need at least {d + 2})"
        )
    scaled = apply_scaler(data, scaler)
    del data
    embedded = embed_lags(scaled, d)
    del scaled
    model = fit_pca(embedded, cfg["variance_fraction"], cfg["alpha"])
    del embedded
    save_model(model, model_out)
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
    csv_path = _output_path("--report-out", args.report_out, ".csv")
    json_path = _output_path("--report-out", args.report_out, ".json")
    model = load_model(args.model)
    runs = [_read_for_model(p, model) for p in args.validation_csvs]
    sw = cfg["sweep"]
    target = sw["target_sensor"]
    check_index(target, model.n, "sweep.target_sensor")
    onset = sw["onset_k"]
    # sweep would reject it too, at its first amplitude, but this error names the key and file.
    for path, run in zip(args.validation_csvs, runs):
        if onset is not None and onset >= run.m:
            raise IndexOutOfRange(f"sweep.onset_k {onset} not in [0, {run.m}) for {path}")
    if sw["amplitudes"] is not None:
        grid = [float(a) for a in sw["amplitudes"]]
    else:
        a_max = sw["max_amplitude"]
        if a_max is None:
            a_max = 6.0 * model.residual_std(target)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected below
            grid = np.linspace(-a_max, a_max, sw["grid_points"])
        if not np.isfinite(grid).all():  # linspace takes a_max - (-a_max), which can overflow
            raise ConfigError(
                f"sweep.max_amplitude {a_max!r}: the grid from {-a_max!r} to {a_max!r} "
                f"overflows float64 (use at most {sys.float_info.max / 2!r})"
            )
        grid = grid.tolist()
    if not any(grid):
        raise ConfigError(
            "every sweep amplitude is zero, so no cell would be evaluated; "
            "set sweep.max_amplitude or sweep.amplitudes"
        )
    try:
        report = sweep(
            model,
            runs,
            target,
            grid,
            _config_variants(cfg),
            onset_k=onset,
            ebf_params=_ebf_params(cfg),
        )
    except AmplitudeOverflow as exc:
        key = "sweep.amplitudes" if sw["amplitudes"] is not None else "sweep.max_amplitude"
        raise ConfigError(f"{key}: {exc}") from None
    report.metadata["config"] = cfg
    report.metadata["validation_files"] = [str(p) for p in args.validation_csvs]
    report.to_csv(csv_path)
    report.to_json(json_path)
    print(f"report written: {csv_path} {json_path}")
    print(f"rows: {len(report.rows)}")
    return 0


def cmd_monitor(args, cfg: dict) -> int:
    model = load_model(args.csv_model)
    raw = _read_for_model(args.csv, model)
    tag = IsolationMethod(
        ContributionMethod(cfg["monitor"]["method"]),
        DetectionIndex(cfg["monitor"]["index"]),
    )
    # replay yields ceil(lines / _RENDER_LINES) blocks; a child pays from _PIPELINE_MIN_BLOCKS.
    lines = raw.m - model.d
    fits = lines > (_PIPELINE_MIN_BLOCKS - 1) * _RENDER_LINES and _shares.usable_cpus() > 1
    blocks = replay(model, raw, tag, _ebf_params(cfg), cfg["monitor"]["gate_on_detection"])
    del raw  # replay holds the only reference, and drops it once every block is scored
    # json.dumps spelling: a finite float prints as its repr, as %r does.
    line = (
        '{"k": %d, "spe": %r, "t2": %r, "spe_exceeds": %s, "t2_exceeds": %s, '
        '"raw_winner": %d, "ebf_declared": %s, "s": [' + ", ".join(["%r"] * model.n) + "]}\n"
    )

    def render(block) -> str:
        cols = [
            block.k,
            block.spe.tolist(),
            block.t2.tolist(),
            [_JSON_BOOL[hit] for hit in block.spe_exceeds.tolist()],
            [_JSON_BOOL[hit] for hit in block.t2_exceeds.tolist()],
            block.raw_winner.tolist(),
            ["null" if v == NO_DECLARATION else v for v in block.declared.tolist()],
            *block.levels.T.tolist(),
        ]
        return (line * len(block.k)) % tuple(chain.from_iterable(zip(*cols)))

    _write_blocks(blocks, fits, render)
    return 0


def _write_blocks(blocks, fits: bool, render) -> None:
    """Write ``render(block)`` for each record of ``blocks``, in order, drawing every one here.
    With ``fits`` a child forked once the first is drawn renders record i - 1 meanwhile,
    one reading as the other sends so neither blocks (README "Performance")."""

    def serve(link) -> None:  # the child: render each record it is sent until its input ends
        for block in iter(lambda: _shares.receive(link), None):
            _shares.send(link, render(block))

    blocks = iter(blocks)
    first = list(islice(blocks, 1))  # drawn before the fork: replay has dropped its series then
    child = _shares.fork(serve) if fits else None  # None: every record is rendered here
    pending = None  # the record the child is rendering

    def collect() -> None:  # the pending record's text, if any: the child's, or rendered here
        if pending is not None:
            text = _shares.receive(child)  # None: the child died owing it
            sys.stdout.write(render(pending) if text is None else text)

    try:
        for block in chain(first, blocks):  # each draw steps the evidence over record i
            collect()  # R[i-1] in
            pending = block if _shares.send(child, block) else None  # B[i] out
            if pending is None:  # no child, or a dead one that refused B[i]
                sys.stdout.write(render(block))
        collect()
    finally:
        _shares.end(child)


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
    runs = [(base, out_dir / "train.csv")] + [
        (replace(base, m_samples=sim["m_validation"], seed=sim["seed"] + 1 + j),
         out_dir / f"validation_{j + 1}.csv") for j in range(sim["n_validation_runs"])
    ]
    for run_cfg, path in runs:
        write_raw_csv(simulate(run_cfg), path)
    for _, path in runs:
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


def _warning_line(message, *_):
    """Show a warning as one ``warning: ...`` line, without source location."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        with warnings.catch_warnings():  # restores showwarning on the way out
            warnings.showwarning = _warning_line
            return args.func(args, cfg)
    except (SensorDiagError, OSError) as exc:
        code = getattr(exc, "exit_code", 2)  # an unreadable or unwritable path is a data error
        message = str(exc).replace("\r", "\\r").replace("\n", "\\n")  # one line per error
        print(f"{'config' if code == 3 else 'data'} error: {message}", file=sys.stderr)
        return code


def entrypoint() -> None:
    # A closed stdout (``| head``) ends the command the way it ends ``cat``:
    # killed by SIGPIPE, silently. main() leaves in-process callers' handlers alone.
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
