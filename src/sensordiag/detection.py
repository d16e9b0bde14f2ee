"""Detection indices and empirical control limits.

Two quadratic indices monitor a standardized sample against the fitted
model: the squared prediction error (SPE) measures deviation in the
residual subspace, the Hotelling statistic (T2) measures Mahalanobis-scaled
variation inside the principal subspace. Control limits are nearest-rank
empirical quantiles of the training-set index values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionMismatch, EmptySample, SingularLambda

if TYPE_CHECKING:
    from .pca import PcaModel

__all__ = ["IndexSample", "spe", "t2", "fit_threshold", "index_sample"]


@dataclass(frozen=True)
class IndexSample:
    """Both detection indices for one sample, with exceedance flags."""

    spe: float
    t2: float
    spe_exceeds: bool
    t2_exceeds: bool


def _rows(model: "PcaModel", x: np.ndarray) -> np.ndarray:
    """``x`` as an (m, n_e) float batch; a single sample becomes one row."""
    x = np.asarray(x, dtype=float)
    rows = x[None, :] if x.ndim == 1 else x
    if rows.ndim != 2 or rows.shape[1] != model.n_e:
        raise DimensionMismatch(
            f"expected vectors of length {model.n_e}, got shape {x.shape}"
        )
    return rows


def spe(model: "PcaModel", x: np.ndarray):
    """Squared prediction error: squared norm of the residual projection.

    Accepts a single vector (returns a float) or a matrix of row vectors
    (returns one value per row).
    """
    rows = _rows(model, x)
    scores = rows @ model.p_tilde
    values = np.einsum("ij,ij->i", scores, scores)
    return float(values[0]) if np.ndim(x) == 1 else values


def t2(model: "PcaModel", x: np.ndarray):
    """Hotelling statistic: eigenvalue-weighted squared principal scores."""
    rows = _rows(model, x)
    if model.l == 0 or (model.lambda_hat <= 1e-12).any():
        raise SingularLambda(
            "a retained eigenvalue is numerically zero; T2 is undefined"
        )
    scores = rows @ model.p_hat / np.sqrt(model.lambda_hat)
    values = np.einsum("ij,ij->i", scores, scores)
    return float(values[0]) if np.ndim(x) == 1 else values


def fit_threshold(values, alpha: float) -> float:
    """Nearest-rank empirical (1 - alpha)-quantile of a training sample.

    With the values sorted ascending the limit is the entry at 1-based rank
    ``ceil((1 - alpha) * count)``. A nudge of 1e-9 guards the ceil against
    floating-point fuzz in the product.
    """
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        raise EmptySample("cannot fit a threshold on an empty sample")
    rank = math.ceil((1.0 - alpha) * arr.size - 1e-9)
    rank = min(max(rank, 1), arr.size)
    return float(np.sort(arr)[rank - 1])


def index_sample(model: "PcaModel", x: np.ndarray) -> IndexSample:
    """Evaluate both indices for one sample against the model's limits."""
    s = spe(model, x)
    h = t2(model, x)
    return IndexSample(
        spe=s,
        t2=h,
        spe_exceeds=bool(s > model.spe_limit),
        t2_exceeds=bool(h > model.t2_limit),
    )
