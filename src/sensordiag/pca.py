"""Principal-component model fitting and persistence.

The model is fitted on standardized (optionally lag-extended) training data:
the sample covariance is eigendecomposed, the leading ``l`` eigenvectors
span the principal subspace and the remainder the residual subspace. ``l``
is the smallest count whose eigenvalues explain at least the requested
variance fraction. The fitted model is the single persisted artifact; it
carries the scaler, both loading blocks, both eigenvalue blocks, and the
empirical control limits for the two detection indices. The scaler holds
the ``n`` physical sensors; only the model file stores it tiled over the
``d + 1`` lag blocks, one entry per extended column.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ._jsonin import floats, integer, list_of, read_object, real
from .dataset import ScaledDataset, ScalerParams, _written
from .errors import (
    CorruptModelFile,
    DegenerateSpectrum,
    DimensionMismatch,
    EigendecompositionFailure,
    SchemaVersionMismatch,
    SingularLambda,
    UndersampledFit,
    check_index,
)

__all__ = [
    "PcaModel",
    "covariance",
    "fit_pca",
    "save_model",
    "load_model",
    "model_digest",
]

MODEL_SCHEMA_VERSION = 1

# Eigenvalues closer than this (relative to the spectrum top) are treated as
# a repeated block that the principal/residual split must not cut through.
_TIE_RTOL = 1e-9

# Largest entry of ``|QᵀQ - I|`` for ``Q = [P̂ P̃]`` that a loaded model may
# show; ``eigh`` loadings sit near 1e-15, a tampered or truncated file far off.
_ORTHONORMAL_TOL = 1e-8


@dataclass(eq=False, frozen=True)
class PcaModel:
    """Fitted principal/residual subspace decomposition.

    Attributes
    ----------
    p_hat : ndarray, shape (n_e, l)
        Principal loading matrix (leading eigenvectors).
    p_tilde : ndarray, shape (n_e, n_e - l)
        Residual loading matrix (trailing eigenvectors).
    lambda_hat, lambda_tilde : ndarray
        Corresponding eigenvalues, each block sorted descending.
    l : int
        Retained component count.
    n : int
        Physical sensor count; the column space has ``n_e = n * (d + 1)``
        extended variables.
    d : int
        Lag depth the model was fitted with (0 for plain PCA).
    scaler : ScalerParams
        Standardization parameters of the n physical sensors.
    sensor_names : tuple of str
        The n physical sensor labels.
    spe_limit, t2_limit : float
        Empirical control limits fitted on the training indices.
    alpha : float
        Tail probability used for the control limits.
    variance_fraction : float
        Explained-variance target used to choose ``l``.
    """

    p_hat: np.ndarray
    p_tilde: np.ndarray
    lambda_hat: np.ndarray
    lambda_tilde: np.ndarray
    l: int
    n: int
    d: int
    scaler: ScalerParams
    sensor_names: tuple[str, ...]
    variance_fraction: float
    alpha: float
    spe_limit: float
    t2_limit: float

    def __post_init__(self):
        n_e, l = self.n_e, self.l
        for name, shape in [("p_hat", (n_e, l)), ("p_tilde", (n_e, n_e - l)),
                            ("lambda_hat", (l,)), ("lambda_tilde", (n_e - l,))]:
            try:
                array = np.asarray(getattr(self, name), dtype=float)
            except (TypeError, ValueError):  # ragged, or not numbers
                array = None
            if array is None or array.shape != shape:
                raise ValueError(f"{name} must be an array of numbers of shape {shape}")
            object.__setattr__(self, name, array)
        object.__setattr__(self, "sensor_names", tuple(str(s) for s in self.sensor_names))
        if len(self.scaler) != self.n:
            raise ValueError(f"scaler has {len(self.scaler)} entries for {self.n} sensors")

    @property
    def n_e(self) -> int:
        """Extended variable count ``n * (d + 1)``."""
        return self.n * (self.d + 1)

    def _require_invertible_lambda(self) -> None:
        if self.l == 0 or (self.lambda_hat <= 1e-12).any():
            raise SingularLambda(
                "a retained eigenvalue is numerically zero; the principal-"
                "subspace index is undefined (l reaches into noise eigenvalues)"
            )

    def _require_series(self, data, source: str = "") -> None:
        """Raise ``DimensionMismatch`` unless the raw series ``data`` has the model's sensor
        names, in order, and more rows than its lag depth; ``source`` prefixes the message."""
        if data.sensor_names != self.sensor_names:
            raise DimensionMismatch(
                f"{source}sensor names {data.sensor_names!r} "
                f"do not match the model's {self.sensor_names!r}"
            )
        if data.m <= self.d:
            raise DimensionMismatch(
                f"{source}{data.m} rows too few for the model's lag depth {self.d} "
                f"(need at least {self.d + 1})"
            )

    def residual_std(self, sensor: int) -> float:
        """Standard deviation of one sensor's residual-subspace component,
        in the sensor's engineering units.

        Computed from the fitted spectrum: the residual part of extended
        column ``i`` has variance ``sum_j lambda_tilde[j] * p_tilde[i, j]**2``
        under the training distribution; its root is scaled by the sensor's
        scaler std.
        """
        check_index(sensor, self.n, "sensor")
        var = float(np.sum(self.lambda_tilde * self.p_tilde[sensor, :] ** 2))
        std = np.sqrt(max(var, 0.0))
        return float(std * self.scaler.std[sensor])


def covariance(data: ScaledDataset) -> np.ndarray:
    """Sample covariance ``X^T X / (m - 1)`` of standardized data.

    The result is explicitly symmetrized to remove accumulation asymmetry
    from the matrix product.
    """
    x = data.samples
    m = x.shape[0]
    if m < 2:
        raise ValueError("need at least 2 samples for a covariance estimate")
    s = x.T @ x / (m - 1)
    return (s + s.T) / 2.0


def _descending_eigh(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    try:
        w, v = np.linalg.eigh(s)
    except np.linalg.LinAlgError as exc:
        raise EigendecompositionFailure(str(exc)) from exc
    w = w[::-1]
    v = v[:, ::-1]
    # Deterministic sign: largest-magnitude entry of each eigenvector positive.
    idx = np.argmax(np.abs(v), axis=0)
    signs = np.sign(v[idx, np.arange(v.shape[1])])
    return w, v * signs


def _component_count(w: np.ndarray, variance_fraction: float) -> int:
    total = float(w.sum())
    if total <= 0:
        raise EigendecompositionFailure("covariance spectrum is entirely zero")
    ratio = np.cumsum(w) / total
    l = int(np.searchsorted(ratio, variance_fraction - 1e-12) + 1)
    l = min(l, w.shape[0])
    # Never split a repeated eigenvalue: the residual projector would not be
    # a function of the data alone. Grow l until a clear gap.
    tie_tol = _TIE_RTOL * max(float(w[0]), 1e-300)
    while l < w.shape[0] and abs(float(w[l - 1]) - float(w[l])) <= tie_tol:
        l += 1
    return l


def fit_pca(
    data: ScaledDataset,
    variance_fraction: float = 0.98,
    alpha: float = 0.01,
) -> PcaModel:
    """Fit the principal/residual decomposition on standardized training data.

    Parameters
    ----------
    data : ScaledDataset
        Standardized (optionally lag-extended) training matrix.
    variance_fraction : float in (0, 1]
        Retain the smallest l whose eigenvalues explain at least this
        fraction of total variance.
    alpha : float in (0, 1)
        Tail probability for the empirical control limits, fitted on the
        training-set index values themselves.
    """
    from .detection import fit_threshold, spe, t2

    if not 0 < variance_fraction <= 1:
        raise ValueError(f"variance_fraction must be in (0, 1], got {variance_fraction}")
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    x = data.samples
    m, n_e = x.shape
    if m <= n_e:
        warnings.warn(
            f"only {m} samples for {n_e} extended variables; covariance is "
            "rank-deficient and trailing eigenvalues are meaningless",
            UndersampledFit,
            stacklevel=2,
        )
    s = covariance(data)
    w, v = _descending_eigh(s)
    if (w < 1e-12).any():
        warnings.warn(
            "trailing eigenvalues are numerically zero (rank-deficient data)",
            DegenerateSpectrum,
            stacklevel=2,
        )
    w = np.maximum(w, 0.0)
    l = _component_count(w, variance_fraction)

    model = PcaModel(
        p_hat=v[:, :l],
        p_tilde=v[:, l:],
        lambda_hat=w[:l],
        lambda_tilde=w[l:],
        l=l,
        n=len(data.sensor_names),
        d=data.lag_depth,
        scaler=data.scaler,
        sensor_names=data.sensor_names,
        variance_fraction=float(variance_fraction),
        alpha=float(alpha),
        spe_limit=np.nan,
        t2_limit=np.nan,
    )
    spe_limit, t2_limit = (float(fit_threshold(score(model, x), alpha)) for score in (spe, t2))
    return replace(model, spe_limit=spe_limit, t2_limit=t2_limit)


def _model_payload(model: PcaModel) -> dict:
    return {
        "schema_version": MODEL_SCHEMA_VERSION,
        "n": model.n,
        "d": model.d,
        "l": model.l,
        "alpha": model.alpha,
        "variance_fraction": model.variance_fraction,
        "sensor_names": list(model.sensor_names),
        "scaler": {  # one entry per extended column
            "mean": np.tile(model.scaler.mean, model.d + 1).tolist(),
            "std": np.tile(model.scaler.std, model.d + 1).tolist(),
        },
        "p_hat": model.p_hat.tolist(),
        "p_tilde": model.p_tilde.tolist(),
        "lambda_hat": model.lambda_hat.tolist(),
        "lambda_tilde": model.lambda_tilde.tolist(),
        "spe_limit": model.spe_limit,
        "t2_limit": model.t2_limit,
    }


def save_model(model: PcaModel, path: str | Path) -> None:
    """Serialize the model to JSON; floats round-trip exactly. A write error removes the file."""
    text = json.dumps(_model_payload(model), indent=1) + "\n"
    with _written(path) as fh:
        fh.write(text)


# Every model key in file order: (check, what the value must be), or None
# for the version, gated first, and for the scaler and the arrays, whose
# shapes and values PcaModel and the invariant checks below test.
_FIELDS: dict = {
    "schema_version": None,
    "n": (integer, "a JSON integer"),
    "d": (integer, "a JSON integer"),
    "l": (integer, "a JSON integer"),
    "alpha": (lambda v: real(v) and 0 < v < 1, "a number in (0, 1)"),
    "variance_fraction": (lambda v: real(v) and 0 < v <= 1, "a number in (0, 1]"),
    "sensor_names": (
        lambda v: list_of(v, lambda s: type(s) is str) and len(set(v)) == len(v),
        "a list of unique strings",
    ),
    "scaler": None,
    "p_hat": None,
    "p_tilde": None,
    "lambda_hat": None,
    "lambda_tilde": None,
    # 0.0 is a valid limit: a fit that keeps every component has SPE == 0.
    "spe_limit": (lambda v: real(v) and v >= 0, "a finite non-negative number"),
    "t2_limit": (lambda v: real(v) and v >= 0, "a finite non-negative number"),
}


def load_model(path: str | Path) -> PcaModel:
    """Load a model saved by :func:`save_model`, validating shape consistency."""
    raw = read_object(path, CorruptModelFile, str(path))
    version = raw.get("schema_version")
    if not integer(version, MODEL_SCHEMA_VERSION, MODEL_SCHEMA_VERSION):  # not true or 1.0
        raise SchemaVersionMismatch(
            f"{path}: schema version {version!r}, expected {MODEL_SCHEMA_VERSION}"
        )
    missing = _FIELDS.keys() - raw.keys()
    if missing:
        raise CorruptModelFile(f"{path}: missing keys {sorted(missing)}")
    unknown = raw.keys() - _FIELDS.keys()
    if unknown:
        raise CorruptModelFile(f"{path}: unknown keys {sorted(unknown)}")
    for key, field in _FIELDS.items():
        if field is not None and not field[0](raw[key]):
            raise CorruptModelFile(f"{path}: {key} must be {field[1]}, got {raw[key]!r}")
    n, d, l = raw["n"], raw["d"], raw["l"]
    if n < 1 or d < 0 or not 0 <= l <= n * (d + 1):
        raise CorruptModelFile(f"{path}: counts out of range: n={n}, d={d}, l={l}")
    scaler = raw["scaler"]
    if type(scaler) is not dict or scaler.keys() != {"mean", "std"}:  # printed without its arrays
        raise CorruptModelFile(f'{path}: scaler must be an object with keys "mean" and "std" only')
    try:
        tiled = ScalerParams(floats(scaler["mean"]), floats(scaler["std"]))  # n * (d + 1) entries
        if len(tiled) != n * (d + 1) or len(raw["sensor_names"]) != n:
            raise CorruptModelFile(f"{path}: inconsistent dimensions")
        model = PcaModel(
            p_hat=floats(raw["p_hat"]),  # None, and so rejected, unless it holds numbers only
            p_tilde=floats(raw["p_tilde"]),
            lambda_hat=floats(raw["lambda_hat"]),
            lambda_tilde=floats(raw["lambda_tilde"]),
            l=l,
            n=n,
            d=d,
            scaler=ScalerParams(tiled.mean[:n], tiled.std[:n]),
            sensor_names=raw["sensor_names"],
            variance_fraction=float(raw["variance_fraction"]),
            alpha=float(raw["alpha"]),
            spe_limit=float(raw["spe_limit"]),
            t2_limit=float(raw["t2_limit"]),
        )
    except (TypeError, ValueError) as exc:
        raise CorruptModelFile(f"{path}: {exc}") from exc
    for arr in (model.p_hat, model.p_tilde, model.lambda_hat, model.lambda_tilde):
        if not np.isfinite(arr).all():
            raise CorruptModelFile(f"{path}: non-finite model values")
    loadings = np.hstack([model.p_hat, model.p_tilde])
    # einsum, not a BLAS product: a fresh process's first multi-threaded gemm
    # can wait milliseconds for its worker threads, longer than this check.
    gram = np.einsum("ij,ik->jk", loadings, loadings)
    if np.abs(gram - np.eye(model.n_e)).max() > _ORTHONORMAL_TOL:
        raise CorruptModelFile(f"{path}: loadings [p_hat p_tilde] are not orthonormal")
    spectrum = np.concatenate([model.lambda_hat, model.lambda_tilde])
    if (spectrum < 0).any() or (np.diff(spectrum) > 0).any():
        raise CorruptModelFile(
            f"{path}: eigenvalues must be non-negative and descending "
            "(lambda_hat, then lambda_tilde)"
        )
    for part in (tiled.mean, tiled.std):
        if not np.array_equal(part, np.tile(part[:n], d + 1)):
            raise CorruptModelFile(
                f"{path}: scaler is not its first {n} entries tiled {d + 1} times"
            )
    return model


def model_digest(model: PcaModel) -> str:
    """Stable content hash of the serialized model (for report provenance)."""
    # hashlib loads OpenSSL (3.6 MB resident); CPython's built-in SHA-256
    # gives the same digest, so hashlib is only the last resort (as random.py).
    try:
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10-3.11
        except ImportError:
            from hashlib import sha256

    blob = json.dumps(_model_payload(model), sort_keys=True).encode("utf-8")
    return sha256(blob).hexdigest()
