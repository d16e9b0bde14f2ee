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

from .errors import DimensionMismatch, EmptySample, NonFiniteResult

if TYPE_CHECKING:
    from .pca import PcaModel

__all__ = ["IndexSample", "spe", "t2", "fit_threshold", "index_sample"]

# Longest row block one scoring call sends through a gemm. Longer inputs are
# scored block by block, so temporaries stay bounded by the block, not by the
# series length. Inputs up to this size, such as the sweep's tail of any run
# up to 8192 rows, stay one product and so match an unblocked product at any
# shape. monitor cuts its series into smaller blocks of its own.
_BLOCK_ROWS = 4096


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


def _row_blocks(m: int, size: int | None = None) -> list[slice]:
    """``ceil(m / size)`` near-equal slices covering ``range(m)``; ``size``
    is ``_BLOCK_ROWS`` unless given, read at each call.

    At most ``size`` rows is one block, so a short input, such as the
    post-onset tail ``sweep`` scores for a default validation run, keeps a
    single gemm; a longer one splits into blocks of at least ``size // 2``
    rows each. Aligned ``size``-row chunks would leave a last block as
    short as one row, whose product may round differently.
    """
    size = _BLOCK_ROWS if size is None else size
    k = max(1, -(-m // size))
    return [slice(i * m // k, (i + 1) * m // k) for i in range(k)]


def _check_finite(scores: np.ndarray, what: str) -> None:
    """Raise ``NonFiniteResult`` if a block of non-negative scores holds an
    inf or a nan; one ``max`` finds either, since nan propagates."""
    if scores.size and not math.isfinite(scores.max()):
        raise NonFiniteResult(f"{what} scores overflow float64; the scaled data are too large")


@np.errstate(over="ignore", invalid="ignore")  # _check_finite reports it
def _squared_norms(rows: np.ndarray, loadings: np.ndarray, what: str, scale=None) -> np.ndarray:
    """Squared norm of each row of ``rows @ loadings / scale``, block by block."""
    out = np.empty(rows.shape[0])
    for blk in _row_blocks(rows.shape[0]):
        scores = rows[blk] @ loadings
        if scale is not None:
            scores /= scale
        out[blk] = np.einsum("ij,ij->i", scores, scores)
        del scores  # free this block before the next gemm allocates its own
        _check_finite(out[blk], what)
    return out


def spe(model: "PcaModel", x: np.ndarray):
    """Squared prediction error: squared norm of the residual projection.

    Accepts a single vector (returns a float) or a matrix of row vectors
    (returns one value per row). Both indices raise ``NonFiniteResult``
    when a score overflows float64.
    """
    values = _squared_norms(_rows(model, x), model.p_tilde, "spe")
    return float(values[0]) if np.ndim(x) == 1 else values


def t2(model: "PcaModel", x: np.ndarray):
    """Hotelling statistic: eigenvalue-weighted squared principal scores."""
    rows = _rows(model, x)
    model._require_invertible_lambda()
    values = _squared_norms(rows, model.p_hat, "t2", np.sqrt(model.lambda_hat))
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
