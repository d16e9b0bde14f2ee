import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from sensordiag import (
    ContributionMethod,
    DetectionIndex,
    EbfState,
    IsolationMethod,
    LagSpec,
    PcaModel,
    RawDataset,
    ScaledDataset,
    ScalerParams,
    apply_scaler,
    contribution_matrix,
    direction,
    direction_matrix,
    embed_lags,
    fit_pca,
    fit_scaler,
    spe,
    t2,
)
from sensordiag.ebf import _DECISION_TOL
from sensordiag.errors import CsvParseError, IndexOutOfRange

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
    return embed_lags(apply_scaler(raw, fit_scaler(raw)), LagSpec(d))


def make_model(
    n: int = 4,
    m: int = 400,
    seed: int = 0,
    d: int = 0,
    variance_fraction: float = 0.9,
    alpha: float = 0.01,
) -> PcaModel:
    return fit_pca(make_scaled(n=n, m=m, seed=seed, d=d), variance_fraction, alpha)


def oracle_kernel(model: PcaModel, method, index) -> np.ndarray:
    """The variant's kernel K, read straight from the model's projectors."""
    if index is DetectionIndex.SPE:
        return model.c_tilde
    return model.d_sqrt if method is ContributionMethod.CP else model.d_mat


def oracle_denominators(model: PcaModel, kernel: np.ndarray) -> np.ndarray:
    """``diag(UᵀKU)`` from the full ``n_e x n`` direction matrix."""
    u = direction_matrix(model)
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


def oracle_estimate_matrix(
    model: PcaModel, x, sensor: int, index=DetectionIndex.SPE
) -> np.ndarray:
    """Direct estimate ``rows @ (K @ u) / (uᵀKu)`` for one sensor direction."""
    rows = np.atleast_2d(np.asarray(x, dtype=float))
    u = direction(model, sensor)
    ku = oracle_kernel(model, ContributionMethod.RBC, index) @ u
    return rows @ ku / float(u @ ku)


def oracle_read_raw_csv(path, sample_period_s: float = 0.1) -> RawDataset:
    """Row-by-row reader: ``float()`` on each cell, checks in line order."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvParseError(f"{path}: file is empty") from None
        names = [h.strip() for h in header]
        if any(not h for h in names):
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
        sample_period_s=sample_period_s,
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
    return EbfState(s=s, k=state.k + 1)


def oracle_ebf_decide(state: EbfState, params) -> int | None:
    top = int(np.argmax(state.s))
    if state.s[top] >= params.decision_threshold - _DECISION_TOL:
        return top
    return None


def oracle_monitor_ndjson(model: PcaModel, csv_path, monitor: dict, params) -> str:
    """The monitor stream built one ``json.dumps`` per sample."""
    data = oracle_read_raw_csv(csv_path)
    z = embed_lags(apply_scaler(data, model.base_scaler), LagSpec(model.d)).samples
    tag = IsolationMethod(
        ContributionMethod(monitor["method"]), DetectionIndex(monitor["index"])
    )
    spe_vals = spe(model, z)
    t2_vals = t2(model, z)
    winners = np.argmax(contribution_matrix(model, z, tag), axis=1)
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
