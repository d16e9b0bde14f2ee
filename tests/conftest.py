import csv
import json
import math
import signal
from pathlib import Path

import numpy as np
import pytest

from sensordiag import (
    ContributionMethod,
    DetectionIndex,
    EbfState,
    FaultSpec,
    IsolationMethod,
    PcaModel,
    RawDataset,
    ScaledDataset,
    ScalerParams,
    apply_scaler,
    direction,
    embed_lags,
    estimate_fault,
    fit_pca,
    fit_scaler,
    inject_fault,
    save_model,
    write_raw_csv,
)
from sensordiag.cli import _RENDER_LINES
from sensordiag.detection import _BLOCK_ROWS, _row_blocks
from sensordiag.ebf import _DECISION_TOL
from sensordiag.errors import CsvParseError, IndexOutOfRange
from sensordiag.isolation import _attribution

REF2_EIGVALS = np.array([1.8, 0.2])
REF2_V = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


@pytest.fixture
def ref2():
    """Hand-built 2-sensor model: covariance [[1, .8], [.8, 1]], l = 1."""
    return PcaModel(
        p_hat=REF2_V[:, :1],
        p_tilde=REF2_V[:, 1:],
        lambda_hat=REF2_EIGVALS[:1],
        lambda_tilde=REF2_EIGVALS[1:],
        l=1,
        n=2,
        d=0,
        scaler=ScalerParams(np.zeros(2), np.ones(2)),
        sensor_names=("a", "b"),
        variance_fraction=0.9,
        alpha=0.01,
        spe_limit=1.0,
        t2_limit=1.0,
    )


def ref2_training_set() -> ScaledDataset:
    """3-sample dataset whose covariance is exactly [[1, .8], [.8, 1]]."""
    rows = np.sqrt(2.0) * (np.sqrt(REF2_EIGVALS)[:, None] * REF2_V.T)
    x = np.vstack([rows, np.zeros((1, 2))])
    return ScaledDataset(x, ScalerParams(np.zeros(2), np.ones(2)), ("a", "b"))


def make_raw(n: int = 4, m: int = 400, seed: int = 0) -> RawDataset:
    """Cross-correlated Gaussian data, deterministic in the seed."""
    rng = np.random.default_rng(seed)
    latent = rng.standard_normal((m, n))
    mix = rng.standard_normal((n, n)) + 0.5 * np.eye(n)
    samples = latent @ mix.T + 0.3 * rng.standard_normal((m, n))
    return RawDataset(samples, tuple(f"s{i + 1}" for i in range(n)))


def make_scaled(n: int = 4, m: int = 400, seed: int = 0, d: int = 0) -> ScaledDataset:
    raw = make_raw(n=n, m=m, seed=seed)
    return embed_lags(apply_scaler(raw, fit_scaler(raw)), d)


def make_model(
    n: int = 4,
    m: int = 400,
    seed: int = 0,
    d: int = 0,
    variance_fraction: float = 0.9,
    alpha: float = 0.01,
) -> PcaModel:
    return fit_pca(make_scaled(n=n, m=m, seed=seed, d=d), variance_fraction, alpha)


def assert_same_stream(out, expected):
    """Equality of two line-based outputs, text or bytes, reported as the
    first differing line; pytest's own diff of two long strings takes minutes."""
    if out != expected:
        got, want = out.splitlines(keepends=True), expected.splitlines(keepends=True)
        pairs = enumerate(zip(got, want))
        first = next((i for i, (a, b) in pairs if a != b), min(len(got), len(want)))
        pytest.fail(
            f"{len(got)} lines vs {len(want)} expected; first difference at line {first}: "
            f"{got[first : first + 1]!r} != {want[first : first + 1]!r}"
        )


def monitor_blocks(lines: int) -> list[slice]:
    """The row blocks ``monitor`` scores and renders a series of ``lines``
    output lines in."""
    return _row_blocks(lines, _RENDER_LINES)


def write_long_series(root: Path, d: int) -> dict:
    """Save an n=8 model of lag depth ``d`` and a monitor series two scoring
    blocks plus one row long, with a step fault on sensor 0 whose onset is the
    last sample of monitor's first row block, so the sensor's lag window
    straddles the block edge."""
    m_train = 3000
    rows = 2 * _BLOCK_ROWS + d + 1
    raw = make_raw(n=8, m=m_train + rows, seed=31)
    train = RawDataset(raw.samples[:m_train], raw.sensor_names)
    model = fit_pca(embed_lags(apply_scaler(train, fit_scaler(train)), d))
    save_model(model, root / "model.json")
    onset = monitor_blocks(rows - d)[1].start + d - 1
    amplitude = 25.0 * train.samples[:, 0].std(ddof=1)
    series = RawDataset(raw.samples[m_train:], raw.sensor_names)
    write_raw_csv(inject_fault(series, FaultSpec(0, amplitude, onset)), root / "series.csv")
    return {"model": root / "model.json", "csv": root / "series.csv", "rows": rows, "d": d}


@pytest.fixture
def sigchld_ignored():
    """``SIGCHLD`` ignored, as in a process exec'd by one that ignores it: the
    kernel reaps each child as it exits, so no pid is left to signal or reap."""
    saved = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    yield
    signal.signal(signal.SIGCHLD, saved)


@pytest.fixture(scope="session")
def long_series(tmp_path_factory):
    """A multi-block monitor case at the default shape, n=8 and d=10."""
    return write_long_series(tmp_path_factory.mktemp("long_series"), d=10)


def _scale_p_hat(p):
    p["p_hat"] = (2.0 * np.array(p["p_hat"])).tolist()


def _nudge_p_tilde(p):
    p["p_tilde"][0][0] += 1e-6


def _swap_lambda_hat(p):
    p["lambda_hat"][0], p["lambda_hat"][1] = p["lambda_hat"][1], p["lambda_hat"][0]


def _set(key, value, index=None):
    def tamper(p):
        if index is None:
            p[key] = value
        else:
            p[key][index] = value

    return tamper


def _shift_scaler(part, delta):
    def tamper(p):
        p["scaler"][part][-1] += delta

    return tamper


def _add_scaler_key(p):
    p["scaler"]["var"] = p["scaler"]["std"]


def _drop_scaler_std(p):
    del p["scaler"]["std"]


def _shorten_scaler(p):
    for part in ("mean", "std"):
        p["scaler"][part].pop()


def _huge_scaler_std(p):
    p["scaler"]["std"][0] = 10**400


def _true_scaler_std(p):
    p["scaler"]["std"] = [True] * len(p["scaler"]["std"])  # still tiled


def _quote_lambda_tilde(p):
    p["lambda_tilde"][0] = repr(p["lambda_tilde"][0])


def _flatten_p_tilde(p):
    p["p_tilde"] = [v for row in p["p_tilde"] for v in row]


def _add_sensor_name(p):
    p["sensor_names"].append("extra")


def _drop_sensor_name(p):
    p["sensor_names"].pop()


def _lift_lambda_tilde(p):
    # Each block stays descending, but the residual space now outranks the
    # smallest retained eigenvalue.
    p["lambda_tilde"][0] = 2.0 * p["lambda_hat"][-1]


# A tamper stores _DEEP where tampered_model writes arrays nested 100,000
# deep, deeper than json.dumps or json.loads recurses.
_DEEP = "<arrays nested 100,000 deep>"

# Edits of a saved n=4, d=2 model, each with the error it must raise.
MODEL_DEFECTS = {
    "p_hat_doubled": (_scale_p_hat, "not orthonormal"),
    "p_tilde_nudged": (_nudge_p_tilde, "not orthonormal"),
    "lambda_tilde_negative": (_set("lambda_tilde", -1.0, 0), "non-negative and descending"),
    "lambda_hat_swapped": (_swap_lambda_hat, "non-negative and descending"),
    "lambda_tilde_above_lambda_hat": (_lift_lambda_tilde, "non-negative and descending"),
    "scaler_mean_untiled": (_shift_scaler("mean", 5.0), "tiled"),
    "scaler_std_untiled": (_shift_scaler("std", 1.0), "tiled"),
    "scaler_extra_key": (_add_scaler_key, "scaler must be"),
    "scaler_missing_std": (_drop_scaler_std, "scaler must be"),
    "scaler_short": (_shorten_scaler, "inconsistent dimensions"),
    "sensor_names_extra": (_add_sensor_name, "inconsistent dimensions"),
    "sensor_names_short": (_drop_sensor_name, "inconsistent dimensions"),
    "scaler_std_huge_int": (_huge_scaler_std, "scaler mean and std must be 1-D vectors of numbers"),
    "lambda_tilde_huge_int": (_set("lambda_tilde", 10**400, 0), "lambda_tilde must be an array of numbers"),
    "scaler_std_true": (_true_scaler_std, "scaler mean and std must be 1-D vectors of numbers"),
    "lambda_hat_bool": (_set("lambda_hat", True, 1), "lambda_hat must be an array of numbers"),
    "lambda_tilde_string": (_quote_lambda_tilde, "lambda_tilde must be an array of numbers"),
    "p_tilde_flat": (_flatten_p_tilde, "p_tilde must be an array of numbers"),
    "variance_fraction_7": (_set("variance_fraction", 7.0), "variance_fraction must be"),
    "variance_fraction_0": (_set("variance_fraction", 0.0), "variance_fraction must be"),
    "variance_fraction_string": (_set("variance_fraction", "0.9"), "variance_fraction must be"),
    "alpha_1": (_set("alpha", 1.0), "alpha must be"),
    "alpha_negative": (_set("alpha", -0.01), "alpha must be"),
    "alpha_bool": (_set("alpha", True), "alpha must be"),
    "alpha_nan": (_set("alpha", float("nan")), "alpha must be"),
    "sensor_name_number": (_set("sensor_names", 5, 0), "sensor_names must be"),
    "sensor_name_duplicate": (_set("sensor_names", "s1", 1), "sensor_names must be"),
    "sensor_names_string": (_set("sensor_names", "s1s2s3s4"), "sensor_names must be"),
    "l_above_n_e": (_set("l", 13), "out of range"),
    "l_negative": (_set("l", -1), "out of range"),
    "n_zero": (_set("n", 0), "out of range"),
    "d_negative": (_set("d", -1), "out of range"),
    "lambda_hat_ragged": (_set("lambda_hat", [1.0, [2.0]]), "lambda_hat must be an array of numbers of shape"),
    "p_hat_nested": (_set("p_hat", [[[1.0]]]), "p_hat must be an array of numbers of shape"),
    "nested_document": (lambda p: _DEEP, "maximum recursion depth exceeded"),
    "nested_scaler": (_set("scaler", _DEEP), "maximum recursion depth exceeded"),
    "nested_p_hat": (_set("p_hat", _DEEP), "maximum recursion depth exceeded"),
}


def tampered_model(text: str, defect: str) -> tuple[str, str]:
    """The saved model ``text`` with ``defect`` applied, and the message
    loading it must raise. A tamper edits the payload in place or returns
    the document that replaces it."""
    tamper, message = MODEL_DEFECTS[defect]
    raw = json.loads(text)
    doc = tamper(raw)
    text = json.dumps(raw if doc is None else doc)
    return text.replace(json.dumps(_DEEP), "[" * 100_000 + "]" * 100_000), message


def oracle_kernel(model: PcaModel, method, index) -> np.ndarray:
    """The variant's kernel K, read straight from the model's projectors."""
    if index is DetectionIndex.SPE:
        return model.c_tilde
    return model.d_sqrt if method is ContributionMethod.CP else model.d_mat


def oracle_direction_matrix(model: PcaModel) -> np.ndarray:
    """All candidate directions stacked as columns, shape ``(n_e, n)``: the
    identity tiled once per lag block."""
    return np.tile(np.eye(model.n), (model.d + 1, 1))


def oracle_inverse_scaler(data: ScaledDataset) -> np.ndarray:
    """Standardized samples mapped back to physical units, ``z * std + mean``."""
    return data.samples * data.scaler.std + data.scaler.mean


def oracle_denominators(model: PcaModel, kernel: np.ndarray) -> np.ndarray:
    """``diag(UᵀKU)`` from the full ``n_e x n`` direction matrix."""
    u = oracle_direction_matrix(model)
    return np.einsum("ji,jk,ki->i", u, kernel, u)


def oracle_contribution_matrix(model: PcaModel, x, tag) -> np.ndarray:
    """Direct attribution: the full ``rows @ K`` product, then each sensor's
    lag copies summed, squared and, for RBC, divided by ``diag(UᵀKU)``."""
    rows = np.atleast_2d(np.asarray(x, dtype=float))
    kernel = oracle_kernel(model, tag.method, tag.index)
    agg = (rows @ kernel).reshape(len(rows), model.d + 1, model.n).sum(axis=1)
    scores = agg**2
    if tag.method is ContributionMethod.RBC:
        scores = scores / oracle_denominators(model, kernel)
    return scores


def oracle_reconstruct(model: PcaModel, x, sensor: int, index=DetectionIndex.SPE) -> np.ndarray:
    """The sample with the optimal single-sensor correction removed:
    ``x - u * f`` for the sensor's direction ``u`` and estimated amplitude ``f``."""
    x = np.asarray(x, dtype=float)
    return x - direction(model, sensor) * estimate_fault(model, x, sensor, index).amplitude_scaled


def oracle_estimate_matrix(
    model: PcaModel, x, sensor: int, index=DetectionIndex.SPE
) -> np.ndarray:
    """Direct estimate ``rows @ (K @ u) / (uᵀKu)`` for one sensor direction."""
    rows = np.atleast_2d(np.asarray(x, dtype=float))
    u = direction(model, sensor)
    ku = oracle_kernel(model, ContributionMethod.RBC, index) @ u
    return rows @ ku / float(u @ ku)


def whole_array_spe(model: PcaModel, rows: np.ndarray) -> np.ndarray:
    """SPE of every row from one ``rows @ P̃`` product, no row blocks."""
    scores = rows @ model.p_tilde
    return np.einsum("ij,ij->i", scores, scores)


def whole_array_t2(model: PcaModel, rows: np.ndarray) -> np.ndarray:
    """T2 of every row from one ``rows @ P̂ / sqrt(λ̂)`` expression, no row blocks."""
    scores = rows @ model.p_hat / np.sqrt(model.lambda_hat)
    return np.einsum("ij,ij->i", scores, scores)


def whole_array_contributions(model: PcaModel, rows: np.ndarray, tag) -> np.ndarray:
    """``(rows @ K·U)**2`` (over ``diag(UᵀKU)`` for RBC) in one product."""
    ku, dens = _attribution(model, tag)
    scores = (rows @ ku) ** 2
    return scores if tag.method is ContributionMethod.CP else scores / dens


def assert_same_winners(scores: np.ndarray, reference: np.ndarray) -> None:
    """Argmax per row must match the reference; a row may differ only where
    the reference itself ties its top score within ``rtol=1e-9`` (rank-one
    kernels give every sensor the same RBC score)."""
    win = np.argmax(scores, axis=1)
    ref = np.argmax(reference, axis=1)
    differs = win != ref
    top = reference[differs, ref[differs]]
    np.testing.assert_allclose(reference[differs, win[differs]], top, rtol=1e-9)


def oracle_prepare_run(model: PcaModel, run: RawDataset, fault: FaultSpec) -> np.ndarray:
    """The full-run path: inject, scale and embed the whole run, then drop
    the embedded rows before ``onset - d``."""
    faulty = inject_fault(run, fault)
    z = embed_lags(apply_scaler(faulty, model.scaler), model.d).samples
    return z[max(0, fault.onset_k - model.d) :]


def oracle_faulty_runs(model: PcaModel, run: RawDataset, target: int, amplitudes, onset: int):
    """Stand-in for ``harness._faulty_runs``: a fresh full-run matrix per amplitude."""
    for amplitude in amplitudes:
        yield oracle_prepare_run(model, run, FaultSpec(target, amplitude, onset))


def oracle_read_raw_csv(path) -> RawDataset:
    """Row-by-row reader: ``float()`` on each cell, checks in line order."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvParseError(f"{path}: file is empty") from None
        names = [h.strip() for h in header]
        if not names or any(not h for h in names):
            raise CsvParseError(f"{path}: blank sensor name in header")
        if len(set(names)) != len(names):
            raise CsvParseError(f"{path}: duplicate sensor names in header")
        n = len(names)
        rows: list[list[float]] = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != n:
                raise CsvParseError(
                    f"{path}:{lineno}: expected {n} cells, got {len(row)}"
                )
            try:
                values = [float(cell) for cell in row]
            except ValueError:
                raise CsvParseError(f"{path}:{lineno}: unparseable cell") from None
            if not all(math.isfinite(v) for v in values):
                raise CsvParseError(f"{path}:{lineno}: non-finite value")
            rows.append(values)
    if len(rows) < 2:
        raise CsvParseError(f"{path}: need at least 2 data rows, got {len(rows)}")
    return RawDataset(
        samples=np.array(rows, dtype=float),
        sensor_names=tuple(names),
    )


def oracle_write_raw_csv(data: RawDataset, path) -> None:
    """Per-cell writer: every value formatted with ``repr`` before ``csv``."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(data.sensor_names)
        for row in data.samples:
            writer.writerow([repr(float(v)) for v in row])


def oracle_ebf_step(state: EbfState, winner: int, params) -> EbfState:
    """One accumulator step from a full gain vector and ``np.clip``."""
    n = state.s.shape[0]
    if not 0 <= winner < n:
        raise IndexOutOfRange(f"winner {winner} not in [0, {n})")
    g = np.full(n, params.penalty)
    g[winner] = params.reward
    s = np.clip(state.s + g, params.lower_sat, params.upper_sat)
    return EbfState(s=s)


def oracle_ebf_decide(state: EbfState, params) -> int | None:
    top = int(np.argmax(state.s))
    if state.s[top] >= params.decision_threshold - _DECISION_TOL:
        return top
    return None


def oracle_monitor_ndjson(model: PcaModel, csv_path, monitor: dict, params) -> str:
    """The monitor stream built one ``json.dumps`` per sample."""
    data = oracle_read_raw_csv(csv_path)
    z = embed_lags(apply_scaler(data, model.scaler), model.d).samples
    tag = IsolationMethod(
        ContributionMethod(monitor["method"]), DetectionIndex(monitor["index"])
    )
    spe_vals = whole_array_spe(model, z)
    t2_vals = whole_array_t2(model, z)
    winners = np.argmax(whole_array_contributions(model, z, tag), axis=1)
    state = EbfState.fresh(model.n)
    lines = []
    for e in range(z.shape[0]):
        spe_exceeds = bool(spe_vals[e] > model.spe_limit)
        t2_exceeds = bool(t2_vals[e] > model.t2_limit)
        if not monitor["gate_on_detection"] or spe_exceeds or t2_exceeds:
            state = oracle_ebf_step(state, int(winners[e]), params)
        record = {
            "k": e + model.d,
            "spe": float(spe_vals[e]),
            "t2": float(t2_vals[e]),
            "spe_exceeds": spe_exceeds,
            "t2_exceeds": t2_exceeds,
            "raw_winner": int(winners[e]),
            "ebf_declared": oracle_ebf_decide(state, params),
            "s": state.s.tolist(),
        }
        lines.append(json.dumps(record) + "\n")
    return "".join(lines)
