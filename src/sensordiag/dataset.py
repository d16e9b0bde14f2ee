"""Time-series ingestion, standardization, and lag embedding.

The raw input is an ``m x n`` matrix: one row per sample instant, one column
per physical sensor. Standardization brings every column to zero mean and
unit (sample) variance using statistics fitted on training data only. For
dynamic modelling, consecutive samples are stacked into a lag-extended
vector ``[x(k), x(k-1), ..., x(k-d)]`` of width ``n*(d+1)``.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _shares
from .errors import (
    CsvParseError,
    DimensionMismatch,
    LagTooLarge,
    NonFiniteResult,
    ZeroVarianceColumn,
)

__all__ = [
    "RawDataset",
    "ScalerParams",
    "ScaledDataset",
    "fit_scaler",
    "apply_scaler",
    "embed_lags",
    "read_raw_csv",
    "write_raw_csv",
]


@dataclass(frozen=True)
class RawDataset:
    """Multivariate time series in physical units.

    Attributes
    ----------
    samples : ndarray, shape (m, n)
        One row per sample, one column per sensor. All values finite.
    sensor_names : tuple of str
        Unique column labels, length n.
    """

    samples: np.ndarray
    sensor_names: tuple[str, ...]

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 2:
            raise ValueError(f"samples must be 2-D, got shape {samples.shape}")
        m, n = samples.shape
        if m < 2:
            raise ValueError(f"need at least 2 samples, got {m}")
        if n < 1:
            raise ValueError("need at least 1 sensor column")
        if not np.isfinite(samples).all():
            raise ValueError("samples contain non-finite values")
        names = tuple(str(s) for s in self.sensor_names)
        if len(names) != n:
            raise ValueError(f"{len(names)} sensor names for {n} columns")
        if len(set(names)) != n:
            raise ValueError("sensor names must be unique")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sensor_names", names)

    @property
    def m(self) -> int:
        return self.samples.shape[0]

    @property
    def n(self) -> int:
        return self.samples.shape[1]


@dataclass(frozen=True)
class ScalerParams:
    """Per-column mean and sample standard deviation (ddof=1)."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        std = np.asarray(self.std, dtype=float)
        if mean.ndim != 1 or std.ndim != 1 or mean.shape != std.shape:
            raise ValueError("scaler mean and std must be 1-D vectors of numbers of equal length")
        if not (np.isfinite(mean).all() and np.isfinite(std).all()):
            raise ValueError("scaler parameters must be finite")
        if (std <= 0).any():
            raise ValueError("every std component must be positive")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)

    def __len__(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True)
class ScaledDataset:
    """Standardized samples together with the scaler that produced them.

    After :func:`embed_lags` the columns are the lag-extended variables and
    ``lag_depth`` records the embedding depth (0 for plain data).
    ``scaler`` and ``sensor_names`` always hold the ``n`` physical sensors:
    column ``L*n + i`` is sensor ``i`` at lag ``L``.
    """

    samples: np.ndarray
    scaler: ScalerParams
    sensor_names: tuple[str, ...]
    lag_depth: int = 0

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 2:
            raise ValueError("samples must be 2-D")
        names = tuple(str(s) for s in self.sensor_names)
        if len(names) * (self.lag_depth + 1) != samples.shape[1]:
            raise ValueError("one name per physical sensor required")
        if len(self.scaler) != len(names):
            raise ValueError("scaler length does not match sensor count")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sensor_names", names)

    @property
    def m(self) -> int:
        return self.samples.shape[0]


def fit_scaler(data: RawDataset) -> ScalerParams:
    """Fit per-column mean and sample standard deviation on training data.

    Raises
    ------
    NonFiniteResult
        If a column's mean or standard deviation overflows float64, as it
        does once the column's spread nears 1e154.
    ZeroVarianceColumn
        If any column is constant relative to its own magnitude; a dead
        sensor invalidates a correlation-based model and must be handled
        upstream rather than epsilon-scaled away.
    """
    x = data.samples
    with np.errstate(over="ignore", invalid="ignore"):
        mean = x.mean(axis=0)
        std = x.std(axis=0, ddof=1)
    overflow = np.nonzero(~(np.isfinite(mean) & np.isfinite(std)))[0]
    if overflow.size:
        raise NonFiniteResult(
            f"sensor '{data.sensor_names[int(overflow[0])]}': mean or standard "
            "deviation overflows float64"
        )
    floor = 1e-12 * np.maximum(1.0, np.abs(mean))
    dead = np.nonzero(std < floor)[0]
    if dead.size:
        raise ZeroVarianceColumn(data.sensor_names[int(dead[0])])
    return ScalerParams(mean=mean, std=std)


def apply_scaler(data: RawDataset, scaler: ScalerParams) -> ScaledDataset:
    """Standardize ``data`` column-wise: ``(x - mean) / std``."""
    if data.n != len(scaler):
        raise DimensionMismatch(
            f"data has {data.n} columns but scaler expects {len(scaler)}"
        )
    z = (data.samples - scaler.mean) / scaler.std
    return ScaledDataset(
        samples=z,
        scaler=scaler,
        sensor_names=data.sensor_names,
    )


def embed_lags(data: ScaledDataset, d: int) -> ScaledDataset:
    """Stack each sample with its ``d`` predecessors into one wide row.

    Row ``k`` of the output (0-based, ``k = 0 .. m-d-1``) corresponds to
    source time ``k + d`` and reads ``[x(k+d), x(k+d-1), ..., x(k)]``, i.e.
    lag-0 block first. The output therefore has ``m - d`` rows and
    ``n*(d+1)`` columns; values are copied, never recomputed. The scaler
    and the sensor names pass through unchanged.

    Raises
    ------
    ValueError
        If ``d`` is not a non-negative integer.
    LagTooLarge
        If ``d >= m`` (no row has enough history).
    """
    if not isinstance(d, (int, np.integer)) or d < 0:
        raise ValueError(f"lag depth must be a non-negative integer, got {d!r}")
    d = int(d)  # the model file stores it, and json.dumps rejects np.int64
    if data.lag_depth != 0:
        raise ValueError("data is already lag-extended")
    m, n = data.samples.shape
    if d >= m:
        raise LagTooLarge(f"lag depth {d} requires more than {m} samples")
    # One strided copy: the window axis is reversed so lag 0 comes first.
    windows = sliding_window_view(data.samples, d + 1, axis=0)[:, :, ::-1]
    out = np.array(windows.transpose(0, 2, 1), order="C").reshape(m - d, n * (d + 1))
    return ScaledDataset(
        samples=out,
        scaler=data.scaler,
        sensor_names=data.sensor_names,
        lag_depth=d,
    )


def _embedded_rows(data: RawDataset, scaler: ScalerParams, d: int, rows) -> np.ndarray:
    """Rows ``rows`` (non-empty, step 1) of ``embed_lags(apply_scaler(data, scaler), d).samples``,
    the same bits. Embedded row ``e`` reads raw rows ``e .. e + d``, so only the raw
    rows ``rows`` read are scaled and embedded: scaling acts on each value alone and
    embedding only copies."""
    lo = min(rows.start, data.m - 2)  # a dataset holds at least two rows,
    hi = max(rows.stop + d, lo + 2)  # so a shorter window grows to two
    window = RawDataset(data.samples[lo:hi], data.sensor_names)
    return embed_lags(apply_scaler(window, scaler), d).samples[rows.start - lo : rows.stop - lo]


_CSV_CHUNK_ROWS = 2048  # body rows formatted per write
_WRITE_MIN_VALUES = 50_000  # values worth formatting in shares; README "Performance" derives it


def _loadtxt_lines(fh):
    """The lines of ``fh`` for ``np.loadtxt``. It skips blank lines, warns on
    no lines and ignores the csv field limit, so each of those cases raises
    ``ValueError`` here instead: a blank or over-long line, or no line."""
    limit = csv.field_size_limit()
    line = None
    for line in fh:
        if line.isspace() or len(line) > limit:
            raise ValueError("a line for the row-by-row reader")
        yield line
    if line is None:
        raise ValueError("no body lines")


def _read_rows(path: Path, n: int) -> np.ndarray:
    """The body read record by record with ``float``, naming the first bad line."""
    values = array("d")  # packed doubles, so memory stays near the result's size
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)  # the header, checked by the caller
        lineno = 1
        try:
            for lineno, row in enumerate(reader, start=2):
                if len(row) != n:
                    raise CsvParseError(f"{path}:{lineno}: expected {n} cells, got {len(row)}")
                try:
                    cells = [float(cell) for cell in row]
                except ValueError:
                    raise CsvParseError(f"{path}:{lineno}: unparseable cell") from None
                if not all(map(math.isfinite, cells)):
                    raise CsvParseError(f"{path}:{lineno}: non-finite value")
                values.extend(cells)
        except csv.Error as exc:  # raised reading the record after ``lineno``
            raise CsvParseError(f"{path}:{lineno + 1}: {exc}") from None
    return np.frombuffer(values).reshape(-1, n)


def read_raw_csv(path: str | Path) -> RawDataset:
    """Read a strict CSV: header row of sensor names, body of finite floats.

    Any missing, empty, or non-finite cell is a hard error naming its line
    (``<path>:<line>: ...``); silent repair would make experiments
    irreproducible. Cells are parsed with Python's ``float``. One
    ``np.loadtxt`` call reads the body; if it fails, or reads a non-finite
    value or the wrong width, the body is read again record by record, which
    accepts, rejects and names lines exactly as ``float`` and ``csv`` do.
    """
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            try:
                header = next(csv.reader(fh))
            except StopIteration:
                raise CsvParseError(f"{path}: file is empty") from None
            except csv.Error as exc:
                raise CsvParseError(f"{path}:1: {exc}") from None
            names = [h.strip() for h in header]
            if not names or any(not h for h in names):
                raise CsvParseError(f"{path}: blank sensor name in header")
            if len(set(names)) != len(names):
                raise CsvParseError(f"{path}: duplicate sensor names in header")
            n = len(names)
            try:
                samples = np.loadtxt(
                    _loadtxt_lines(fh), delimiter=",", comments=None, dtype=float, ndmin=2
                )
            except ValueError:
                samples = None
        if samples is None or samples.shape[1] != n or not np.isfinite(samples).all():
            samples = _read_rows(path, n)
    except UnicodeDecodeError as exc:
        raise CsvParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    m = samples.shape[0]
    if m < 2:
        raise CsvParseError(f"{path}: need at least 2 data rows, got {m}")
    return RawDataset(
        samples=samples,
        sensor_names=tuple(names),
    )


def write_raw_csv(data: RawDataset, path: str | Path) -> None:
    """Write a dataset in the same strict CSV layout ``read_raw_csv`` accepts.

    Each float is written as its ``repr`` (``%r``), so a read gives back the
    same bits; no repr needs quoting, so the bytes are those ``csv`` writes.
    The body is formatted one block of rows per write to bound memory, in
    shares on every usable CPU from ``_WRITE_MIN_VALUES`` values on.
    """
    path = Path(path)
    row_fmt = ",".join(["%r"] * data.n) + "\r\n"
    blocks = [data.samples[lo : lo + _CSV_CHUNK_ROWS] for lo in range(0, data.m, _CSV_CHUNK_ROWS)]
    k = _shares.usable_cpus() if data.samples.size >= _WRITE_MIN_VALUES else 1
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(data.sensor_names)
        _shares.in_order(lambda i: (row_fmt * len(blocks[i])) % tuple(blocks[i].ravel().tolist()),
                         len(blocks), k, fh.write)
