"""Synthetic data generation, fault injection, and evaluation sweeps.

The generator produces a stationary second-order vector-autoregressive
series mixed through a full-rank matrix, standing in for coupled multi-
sensor recordings. Step faults add a constant bias to one sensor from an
onset sample onward. The evaluation sweep replays fault-free validation
runs with injected faults over an amplitude grid and aggregates, per
(method, index, filter) variant, the pooled isolation percentage and the
mean absolute relative amplitude-reconstruction error.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import _shares
from .dataset import RawDataset, ScalerParams, _embedded_rows
from .ebf import EbfParams, filter_stream
from .errors import (
    AmplitudeOverflow,
    DimensionMismatch,
    EmptySample,
    IndexOutOfRange,
    NonFiniteResult,
    SensorDiagError,
    UnstableConfig,
    ZeroAmplitude,
)
from .isolation import (
    ContributionMethod,
    DetectionIndex,
    IsolationMethod,
    contribution_matrix,
    estimate_matrix,
)
from .pca import PcaModel, model_digest

__all__ = [
    "FaultSpec",
    "SimConfig",
    "ReportRow",
    "EvalReport",
    "default_sim_config",
    "simulate",
    "inject_fault",
    "isolation_percentage",
    "reconstruction_error",
    "sweep",
    "DEFAULT_VARIANTS",
]

# Seed for the VAR parameter matrices; train/validation runs then differ only
# in their noise seed, so they come from one common process.
DEFAULT_STRUCTURE_SEED = 118

_BURN_IN = 200


@dataclass(frozen=True)
class FaultSpec:
    """Additive single-sensor fault: constant bias from ``onset_k`` onward."""

    sensor: int
    amplitude: float
    onset_k: int

    def __post_init__(self):
        if self.sensor < 0:
            raise IndexOutOfRange(f"sensor {self.sensor} must be non-negative")
        if self.onset_k < 0:
            raise IndexOutOfRange(f"onset {self.onset_k} must be non-negative")


@dataclass(frozen=True)
class SimConfig:
    """Parameters of the synthetic VAR(2) sensor-suite generator."""

    n_sensors: int
    m_samples: int
    seed: int
    ar1: np.ndarray
    ar2: np.ndarray
    mixing: np.ndarray
    noise_std: float = 1.0

    def __post_init__(self):
        n = self.n_sensors
        ar1 = np.asarray(self.ar1, dtype=float)
        ar2 = np.asarray(self.ar2, dtype=float)
        mixing = np.asarray(self.mixing, dtype=float)
        for name, mat in (("ar1", ar1), ("ar2", ar2), ("mixing", mixing)):
            if mat.shape != (n, n):
                raise ValueError(f"{name} must be {n}x{n}, got {mat.shape}")
        if np.linalg.matrix_rank(mixing) < n:
            raise ValueError("mixing matrix must have full rank")
        if self.noise_std < 0:
            raise ValueError("noise_std must be non-negative")
        object.__setattr__(self, "ar1", ar1)
        object.__setattr__(self, "ar2", ar2)
        object.__setattr__(self, "mixing", mixing)

    @property
    def spectral_radius(self) -> float:
        return _companion_radius(self.ar1, self.ar2)


def _companion(ar1: np.ndarray, ar2: np.ndarray) -> np.ndarray:
    """Companion matrix ``[[A1, A2], [I, 0]]`` of the VAR(2) state."""
    n = ar1.shape[0]
    return np.vstack([np.hstack([ar1, ar2]), np.hstack([np.eye(n), np.zeros((n, n))])])


def _companion_radius(ar1: np.ndarray, ar2: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(_companion(ar1, ar2)))))


# After j doublings sigma sums F^i Q F^i' over i < 2^j; at a spectral radius of at most _MAX_RADIUS
# the rest falls below an ulp from i = 352: 9 doublings, plus 3 for a non-normal F's transient.
_MAX_RADIUS = 0.95
_DOUBLINGS = math.ceil(math.log2(math.log(2.0**-52) / math.log(_MAX_RADIUS**2))) + 3


def _stationary_covariance(ar1: np.ndarray, ar2: np.ndarray) -> np.ndarray:
    """The companion state's stationary covariance under unit noise: ``sigma = F sigma F' + Q``,
    solved by Smith's doubling."""
    n = ar1.shape[0]
    a = _companion(ar1, ar2)
    sigma = np.zeros((2 * n, 2 * n))
    sigma[:n, :n] = np.eye(n)
    for _ in range(_DOUBLINGS):
        sigma = sigma + a @ sigma @ a.T
        a = a @ a
    return (sigma + sigma.T) / 2.0


_VAR_BLOCK = 32  # steps per block of _var2; README "Performance"
_SLAB_VALUES = 2**22  # noise values simulate draws at a time, so the series is its one large array


def _var2(ar1: np.ndarray, ar2: np.ndarray, noise: np.ndarray, before=0.0) -> np.ndarray:
    """``y[t] = ar1 @ y[t-1] + ar2 @ y[t-2] + noise[t]`` after the rows ``before`` (zeros), in
    blocks of b steps, each ``T e + C x``: T holds the top-left block of F^(j-i) at block (j, i),
    e is the block's noise, C the top rows of F^1 .. F^b and x the two rows before the block.
    One gemm forms every ``T e``, then each block adds its ``C x``, all at one BLAS thread."""
    steps, n = noise.shape
    b = min(_VAR_BLOCK, steps)
    full, y = steps - steps % b, np.empty((steps + 2, n))
    y[:2] = before
    with _shares.one_blas_thread():
        powers = [np.linalg.matrix_power(_companion(ar1, ar2), j) for j in range(b + 1)]
        lag = np.subtract.outer(np.arange(b), np.arange(b))
        tops = np.array([p[:n, :n] for p in powers[:b]])[lag.clip(0)] * (lag >= 0)[..., None, None]
        t = tops.transpose(0, 2, 1, 3).reshape(b * n, b * n)
        c = np.vstack([np.hstack([p[:n, n:], p[:n, :n]]) for p in powers[1:]])  # x: y[t-2], y[t-1]
        np.matmul(noise[:full].reshape(-1, b * n), t.T, out=y[2 : full + 2].reshape(-1, b * n))
        r = noise[full:].size  # a last, shorter block's T is T's top-left corner
        y[full + 2 :] = (t[:r, :r] @ noise[full:].ravel()).reshape(-1, n)
        for lo in range(2, steps + 2, b):
            y[lo : lo + b] += (c[: y[lo : lo + b].size] @ y[lo - 2 : lo].ravel()).reshape(-1, n)
    return y[2:]


def _symmetric_power(mat: np.ndarray, exponent: float) -> np.ndarray:
    w, v = np.linalg.eigh(mat)
    return (v * w**exponent) @ v.T


def default_sim_config(
    n_sensors: int = 8,
    m_samples: int = 20000,
    seed: int = 1,
    noise_std: float = 1.0,
    structure_seed: int = DEFAULT_STRUCTURE_SEED,
) -> SimConfig:
    """Build a stationary, cross-correlated generator configuration.

    The AR matrices are drawn from ``structure_seed`` and rescaled until the
    companion spectral radius is at most 0.95; the noise stream is governed
    by ``seed`` alone. The mixing matrix maps the stationary VAR state onto
    a sensor covariance with a geometrically graded spectrum in a random
    orientation, mimicking a redundant sensor suite: a few strong shared
    directions carry most of the variance, mid-sized directions keep the
    Mahalanobis-scaled index responsive, and a small tail leaves every
    sensor a genuine residual.
    """
    rng = np.random.default_rng(structure_seed)
    r1 = rng.standard_normal((n_sensors, n_sensors))
    r2 = rng.standard_normal((n_sensors, n_sensors))
    ar1 = 0.5 * r1 / np.max(np.abs(np.linalg.eigvals(r1)))
    ar2 = 0.2 * r2 / np.max(np.abs(np.linalg.eigvals(r2)))
    while _companion_radius(ar1, ar2) > _MAX_RADIUS:
        ar1 *= 0.9
        ar2 *= 0.9
    spectrum = 0.5 ** np.arange(n_sensors)
    spectrum *= n_sensors / spectrum.sum()
    orient, _ = np.linalg.qr(rng.standard_normal((n_sensors, n_sensors)))
    target = (orient * spectrum) @ orient.T
    sigma_y = _stationary_covariance(ar1, ar2)[:n_sensors, :n_sensors]
    mixing = _symmetric_power(target, 0.5) @ _symmetric_power(sigma_y, -0.5)
    return SimConfig(
        n_sensors=n_sensors,
        m_samples=m_samples,
        seed=seed,
        ar1=ar1,
        ar2=ar2,
        mixing=mixing,
        noise_std=noise_std,
    )


def simulate(config: SimConfig) -> RawDataset:
    """Generate one deterministic run of the mixed VAR(2) process.

    A burn-in segment is discarded so the collected samples start near the
    stationary regime; with zero noise the series is identically zero.
    """
    if config.spectral_radius >= 1.0:
        raise UnstableConfig(
            f"VAR spectral radius {config.spectral_radius:.4f} >= 1"
        )
    n, m = config.n_sensors, config.m_samples
    rng = np.random.default_rng(config.seed)
    total, y = _BURN_IN + m, np.zeros((2, n))
    x = np.empty((total, n))
    for lo in range(0, total, _SLAB_VALUES // n):  # one stream of draws, a slab at a time
        noise = rng.normal(0.0, config.noise_std, size=(min(_SLAB_VALUES // n, total - lo), n))
        y = _var2(config.ar1, config.ar2, noise, y[-2:])
        np.matmul(y, config.mixing.T, out=x[lo : lo + len(y)])
    names = tuple(f"s{i + 1}" for i in range(n))
    return RawDataset(samples=x[_BURN_IN:], sensor_names=names)


def inject_fault(data: RawDataset, fault: FaultSpec) -> RawDataset:
    """Add the fault bias to the target column from the onset row onward.

    Raises ``NonFiniteResult`` if a biased value overflows float64.
    """
    if fault.sensor >= data.n:
        raise IndexOutOfRange(f"sensor {fault.sensor} not in [0, {data.n})")
    if fault.onset_k >= data.m:
        raise IndexOutOfRange(f"onset {fault.onset_k} not in [0, {data.m})")
    samples = data.samples.copy()
    biased = samples[fault.onset_k :, fault.sensor]
    with np.errstate(over="ignore"):
        biased += fault.amplitude
    if not np.isfinite(biased).all():
        raise NonFiniteResult(
            f"step fault of amplitude {fault.amplitude!r} on sensor "
            f"{data.sensor_names[fault.sensor]!r} from onset {fault.onset_k}: "
            "the faulty data overflow float64"
        )
    return replace(data, samples=samples)


def _target_hits(winners, target: int) -> tuple[int, int]:
    """Samples of one winner stream attributed to the target, and its length."""
    arr = np.asarray(winners)
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(f"winners must be integers, got dtype {arr.dtype}")
    return int((arr == target).sum()), arr.size


def _error_sum(estimates, amplitude: float) -> tuple[float, int]:
    """Summed absolute relative error of one run's estimates, and their count."""
    arr = np.asarray(estimates, dtype=float)
    return float(np.abs((arr - amplitude) / amplitude).sum()), arr.size


def _pool(parts, what: str) -> float:
    """``100 * sum / count`` over per-run ``(sum, count)`` parts, each added
    in run order."""
    total = 0
    acc = 0
    for part, count in parts:
        acc += part
        total += count
    if total == 0:
        raise EmptySample(f"no {what} to score")
    return 100.0 * acc / total


def isolation_percentage(winner_runs, target: int) -> float:
    """Pooled percentage of post-onset samples attributed to the target.

    The ratio pools counts across runs (sum of hits over sum of samples),
    which weights long runs more than a mean of per-run ratios would.
    Winners must be integer sensor indices; float or bool runs raise
    ``ValueError`` rather than being truncated.
    """
    return _pool((_target_hits(run, target) for run in winner_runs), "post-onset samples")


def reconstruction_error(estimate_runs, amplitude: float) -> float:
    """Mean absolute relative amplitude error, in percent, pooled over runs."""
    if amplitude == 0:
        raise ZeroAmplitude("relative error is undefined at zero amplitude")
    return _pool((_error_sum(run, amplitude) for run in estimate_runs), "estimates")


@dataclass(frozen=True)
class ReportRow:
    """Sweep outcome for one (amplitude, variant) cell."""

    amplitude: float
    method: str
    index: str
    ebf: bool
    isolation_pct: float | None
    recon_err_pct: float | None
    skipped: bool = False


@dataclass
class EvalReport:
    """All sweep rows plus provenance metadata."""

    rows: list[ReportRow]
    metadata: dict = field(default_factory=dict)

    def to_csv(self, path: str | Path) -> None:
        with Path(path).open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["amplitude", "method", "index", "ebf", "isolation_pct", "recon_err_pct"]
            )
            for row in self.rows:
                writer.writerow(
                    [
                        repr(row.amplitude),
                        row.method,
                        row.index,
                        str(row.ebf).lower(),
                        "" if row.isolation_pct is None else repr(row.isolation_pct),
                        "" if row.recon_err_pct is None else repr(row.recon_err_pct),
                    ]
                )

    def to_json(self, path: str | Path) -> None:
        payload = {
            "metadata": self.metadata,
            "rows": [asdict(row) for row in self.rows],
        }
        text = json.dumps(payload, indent=1, allow_nan=False)  # NaN and Infinity are not JSON
        Path(path).write_text(text + "\n", encoding="utf-8")


DEFAULT_VARIANTS: tuple[tuple[IsolationMethod, bool], ...] = (
    (IsolationMethod(ContributionMethod.CP, DetectionIndex.SPE), False),
    (IsolationMethod(ContributionMethod.CP, DetectionIndex.T2), False),
    (IsolationMethod(ContributionMethod.RBC, DetectionIndex.SPE), False),
    (IsolationMethod(ContributionMethod.RBC, DetectionIndex.T2), False),
    (IsolationMethod(ContributionMethod.RBC, DetectionIndex.T2), True),
)


def _faulty_runs(model: PcaModel, run: RawDataset, target: int, amplitudes, onset: int):
    """Yield the evaluation rows of ``run`` with a step fault on ``target``
    for each amplitude in turn: the embedded rows from ``onset - d`` on, the
    first to read a faulty sample, each from ``dataset._embedded_rows``. The
    fault is injected into the whole run, so an overflow names the onset in
    the run's own rows.

    Every amplitude is yielded in one matrix, overwritten in place by the
    next, so no caller may keep it; ``sweep`` uses up one run's generator
    before it makes the next, so one such matrix is live at a time. The
    first amplitude prepares it from every column of the run. A step on
    sensor ``s`` changes only raw column ``s``, so each later amplitude
    prepares that column alone and copies its ``d+1`` lag columns into
    ``s, s+n, ..., s+d*n``; the values are the same bits either way.
    """
    column = RawDataset(run.samples[:, target : target + 1], (run.sensor_names[target],))
    scaler = model.scaler
    column_scaler = ScalerParams(scaler.mean[target : target + 1], scaler.std[target : target + 1])
    rows = range(max(0, onset - model.d), run.m - model.d)
    z = None
    for amplitude in amplitudes:
        fault = FaultSpec(sensor=target, amplitude=amplitude, onset_k=onset)
        if z is None:
            z = _embedded_rows(inject_fault(run, fault), scaler, model.d, rows)
        else:
            faulty = inject_fault(column, replace(fault, sensor=0))
            z[:, target :: model.n] = _embedded_rows(faulty, column_scaler, model.d, rows)
        yield z


class _RunScore(NamedTuple):
    """One validation run's partials, one dict per list for each amplitude scored,
    in grid order, and its failure ``(position, phase, error)`` or ``None``."""

    hits: list  # (tag, use_ebf) -> (winners on the target, stream length); see _filter_runs
    errors: list  # index -> (summed relative error, estimate count)
    finite: list  # index -> whether every estimate is finite
    failure: tuple | None = None


def _score_run(
    model: PcaModel, run: RawDataset, target: int, amplitudes, onset: int, tags, indices, filtered
) -> _RunScore:
    """Score ``run`` at each amplitude in turn until one fails.

    Phase 0 of a failure is preparing the faulty rows, phase 1 scoring them and
    phase 2 an error sum that is not finite; a phase-2 amplitude is kept, with
    ``error`` ``None``, since its estimates decide what ``sweep`` raises. A tag in
    ``filtered`` keeps its raw winners, in the smallest sensor-index dtype, under ``(tag, True)``.
    """
    std_target = float(model.scaler.std[target])
    score = _RunScore([], [], [])
    faulty = _faulty_runs(model, run, target, amplitudes, onset)
    for j, amplitude in enumerate(amplitudes):
        try:
            z = next(faulty)
        except SensorDiagError as exc:
            return score._replace(failure=(j, 0, exc))
        hits, errors, finite = {}, {}, {}
        try:
            for tag in tags:
                winners = np.argmax(contribution_matrix(model, z, tag), axis=1)
                hits[tag, False] = _target_hits(winners, target)
                if tag in filtered:
                    hits[tag, True] = winners.astype(np.min_scalar_type(-model.n))
            for idx in indices:
                estimates = estimate_matrix(model, z, target, idx) * std_target
                errors[idx] = _error_sum(estimates, amplitude)
                finite[idx] = bool(np.isfinite(estimates).all())
        except SensorDiagError as exc:
            return score._replace(failure=(j, 1, exc))
        for parts, cell in zip(score, (hits, errors, finite)):
            parts.append(cell)
        if not all(math.isfinite(err) for err, _ in errors.values()):
            return score._replace(failure=(j, 2, None))
    return score


def _filter_runs(model: PcaModel, scores, target: int, filtered, ebf_params) -> list:
    """Replace each raw winner stream in ``scores`` by its filtered stream's target hits,
    from one filter pass per tag over a right-padded batch. The filter is causal and starts
    each row from a fresh state, so neither padding nor other rows change a stream's hits."""
    cells = [hits for score in scores for hits in score.hits]
    for tag in filtered if cells else ():
        streams = [hits.pop((tag, True)) for hits in cells]
        batch = np.zeros((len(streams), max(map(len, streams))), streams[0].dtype)
        for row, stream in zip(batch, streams):
            row[: stream.size] = stream
        del streams  # the batch holds the only copy the filter reads
        for row, hits in zip(filter_stream(batch, model.n, ebf_params), cells):
            hits[tag, True] = _target_hits(row[: hits[tag, False][1]], target)
    return scores


def _pool_runs(scores, grid, variants) -> list:
    """Pool the runs' scores, each added in run order, into the report rows,
    or raise the error ``sweep`` documents."""
    # First in (position, phase, run) order: min keeps the earlier of two equal keys.
    failure = min((s.failure for s in scores if s.failure), key=lambda f: f[:2], default=None)
    scored = [i for i, a in enumerate(grid) if a != 0.0]  # a zero amplitude is skipped
    iso: dict = {}  # (grid position, (tag, use_ebf)) -> isolation percentage
    recon: dict = {}  # (grid position, index) -> reconstruction error
    for j, i in enumerate(scored):
        if failure is not None and failure[0] == j and failure[2] is not None:
            raise failure[2]
        # Percentages count integer winners, so only the errors can overflow.
        for idx in scores[0].errors[j]:
            err = _pool((s.errors[j][idx] for s in scores), "estimates")
            if not math.isfinite(err):
                if all(s.finite[j][idx] for s in scores):
                    raise AmplitudeOverflow(
                        f"{idx.value} estimates at amplitude {grid[i]!r} are all finite, "
                        "but their errors relative to the amplitude overflow float64"
                    )
                raise NonFiniteResult(
                    f"{idx.value} estimates at amplitude {grid[i]!r} score a "
                    "non-finite error; the faulty data overflow float64"
                )
            recon[i, idx] = err
        for key in scores[0].hits[j]:
            iso[i, key] = _pool((s.hits[j][key] for s in scores), "post-onset samples")
    return [
        ReportRow(
            amplitude=amplitude or 0.0,  # a skipped -0.0 reads 0.0
            method=tag.method.value,
            index=tag.index.value,
            ebf=use_ebf,
            isolation_pct=iso.get((i, (tag, use_ebf))),
            recon_err_pct=recon.get((i, tag.index)),
            skipped=amplitude == 0.0,
        )
        for i, amplitude in enumerate(grid)
        for tag, use_ebf in variants
    ]


_PARALLEL_MIN_WORK = 500_000  # scored products worth a fork; README "Performance" derives it


def _score_shares(score_share, count: int, work: int) -> list:
    """``score_share(lo, hi)`` over one contiguous share of ``range(count)`` per usable CPU,
    in order, through ``_shares.in_order``. When to stay serial: README "Performance"."""
    k = min(count, _shares.usable_cpus()) if work >= _PARALLEL_MIN_WORK else 1
    bounds, scores = [count * i // k for i in range(k + 1)], []
    _shares.in_order(lambda i: score_share(bounds[i], bounds[i + 1]), k, k, scores.extend)
    return scores


@np.errstate(over="ignore", invalid="ignore")  # overflow is checked, not warned
def sweep(
    model: PcaModel,
    runs,
    target: int,
    grid,
    variants=DEFAULT_VARIANTS,
    *,
    onset_k: int | None = None,
    ebf_params: EbfParams | None = None,
) -> EvalReport:
    """Evaluate every (amplitude, variant) cell over the validation runs.

    With more than one usable CPU, large sweeps score and filter shares of the runs
    in forked child processes; the result is the same (README "Performance").

    Parameters
    ----------
    model : PcaModel
        Fitted model whose scaler and lag depth define the pipeline.
    runs : sequence of RawDataset
        Fault-free validation series; sensor names must match the model.
    target : int
        Sensor receiving the injected step fault.
    grid : sequence of float
        Fault amplitudes in physical units. A zero amplitude yields a
        flagged, unevaluated row (relative error is undefined there).
    variants : sequence of (IsolationMethod, use_ebf) pairs
    onset_k : int, optional
        Fault onset sample per run; defaults to the middle of each run.
    ebf_params : EbfParams, optional
        Accumulator constants for the filtered variants; the filter state
        resets at every run boundary, so every (amplitude, run) stream is
        independent, and each share of the runs filters its own streams in
        one batched pass once they are scored.

    Raises
    ------
    NonFiniteResult
        If a score or a report number is not finite, as when an amplitude
        near the float64 limit overflows the scaled data. The error is the
        one of the first failing amplitude in grid order; there a run whose
        faulty rows cannot be prepared comes first, then a failed score,
        each in run order, then a pooled error that is not finite.
    AmplitudeOverflow
        A ``NonFiniteResult`` raised instead when every estimate is finite
        but the error relative to the amplitude is not, as at a subnormal
        amplitude; the amplitude is at fault, not the data.
    """
    runs = list(runs)
    if not runs:
        raise ValueError("need at least one validation run")
    grid = [float(a) for a in grid]
    if not grid:
        raise ValueError("amplitude grid is empty")
    variants = list(variants)
    if not variants:
        raise ValueError("need at least one variant")
    if not 0 <= target < model.n:
        raise IndexOutOfRange(f"target sensor {target} not in [0, {model.n})")
    for run in runs:
        if run.sensor_names != model.sensor_names:
            raise DimensionMismatch(
                "validation run sensor names do not match the model"
            )
    if ebf_params is None:
        ebf_params = EbfParams()

    # Built before scoring, so the digest's serialised model is freed before
    # the sweep's arrays are made and the two never add up in the peak.
    metadata = {
        "model_digest": model_digest(model),
        "target_sensor": target,
        "onset_k": onset_k,
        "amplitudes": grid,
        "run_lengths": [run.m for run in runs],
        "variants": [
            {"method": tag.method.value, "index": tag.index.value, "ebf": use_ebf}
            for tag, use_ebf in variants
        ],
        "ebf_params": asdict(ebf_params),
    }

    tags = list(dict.fromkeys(tag for tag, _ in variants))
    indices = list(dict.fromkeys(tag.index for tag in tags))
    filtered = list(dict.fromkeys(tag for tag, use_ebf in variants if use_ebf))
    nonzero = [a for a in grid if a != 0.0]
    onsets = [run.m // 2 if onset_k is None else onset_k for run in runs]
    # Each run is scored into its own result. Only an earlier failure can matter,
    # so a later run of a share stops at the first failing amplitude found so far
    # in that share, and every run at the first one when an onset is outside its run.
    stop = len(nonzero) if all(0 <= onset < run.m for run, onset in zip(runs, onsets)) else 1

    def score_share(lo: int, hi: int) -> list:
        scores, limit = [], stop
        for run, onset in zip(runs[lo:hi], onsets[lo:hi]):
            score = _score_run(model, run, target, nonzero[:limit], onset, tags, indices, filtered)
            scores.append(score)
            if score.failure is not None:
                limit = score.failure[0] + 1
        return _filter_runs(model, scores, target, filtered, ebf_params)

    rows = sum(max(run.m - onset, 0) for run, onset in zip(runs, onsets))  # scored per amplitude
    scores = _score_shares(score_share, len(runs), rows * stop * (len(tags) + len(indices)))
    return EvalReport(_pool_runs(scores, grid, variants), metadata)
