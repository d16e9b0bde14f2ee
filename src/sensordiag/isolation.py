"""Per-sensor fault attribution and amplitude reconstruction.

Two families of per-sensor scores decompose a detection alarm:

* contribution scores square the sensor-direction component of the index
  kernel applied to the sample;
* reconstruction-based scores measure how much of the index an optimal
  single-sensor correction along that direction removes. For a fault lying
  exactly on a candidate direction, the reconstruction-based score of the
  true sensor provably dominates every other sensor's score (a
  Cauchy-Schwarz argument in the kernel inner product), which plain
  contributions do not guarantee.

For a lag-extended model, a steady additive bias on one sensor displaces
every lagged copy of that sensor equally, so the candidate direction of
sensor ``i`` is the unnormalized sum of the unit vectors of all its lag
copies. With that choice the reconstructed amplitude of a steady fault is
the physical bias itself (after unscaling); during the first ``d`` samples
after onset the window is only partially displaced and scores are
transient.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .detection import _check_finite, _row_blocks, _rows
from .errors import DegenerateDirection, DimensionMismatch, check_index

if TYPE_CHECKING:
    from .pca import PcaModel

__all__ = [
    "ContributionMethod",
    "DetectionIndex",
    "IsolationMethod",
    "ContributionVector",
    "FaultEstimate",
    "direction",
    "contributions",
    "contribution_matrix",
    "estimate_fault",
    "estimate_matrix",
]

_DEGENERATE_TOL = 1e-12


class ContributionMethod(str, Enum):
    """How a detection index is attributed to individual sensors."""

    CP = "cp"
    RBC = "rbc"


class DetectionIndex(str, Enum):
    """Which quadratic index the attribution decomposes."""

    SPE = "spe"
    T2 = "t2"


@dataclass(frozen=True)
class IsolationMethod:
    """One of the four (method, index) attribution variants."""

    method: ContributionMethod
    index: DetectionIndex

    def __str__(self) -> str:
        return f"{self.method.value}/{self.index.value}"


@dataclass(frozen=True)
class ContributionVector:
    """Per-sensor scores for one sample under one attribution variant.

    ``winner`` is the argmax sensor, lowest index on ties.
    """

    values: np.ndarray
    winner: int


@dataclass(frozen=True)
class FaultEstimate:
    """Reconstructed single-sensor fault amplitude.

    ``amplitude_scaled`` is in standardized units; ``amplitude`` converts to
    the sensor's physical units via its scaler std.
    """

    sensor: int
    amplitude: float
    amplitude_scaled: float


def direction(model: "PcaModel", sensor: int) -> np.ndarray:
    """Candidate fault direction of a physical sensor in extended space.

    For ``d > 0`` the direction has a 1 at every lag copy of the sensor
    (positions ``sensor + L*n`` for ``L = 0..d``); for a plain model it is
    the ``sensor``-th column of the identity.
    """
    check_index(sensor, model.n, "sensor")
    u = np.zeros(model.n_e)
    u[sensor :: model.n] = 1.0
    return u


def _kernel(model: "PcaModel", tag: IsolationMethod) -> np.ndarray:
    """The matrix whose sensor-direction components are squared into scores:
    ``P̃P̃ᵀ`` for SPE; for T2 ``D = P̂Λ̂⁻¹P̂ᵀ`` (RBC) or its root ``P̂Λ̂^-½P̂ᵀ`` (CP)."""
    if tag.index is DetectionIndex.SPE:
        return model.p_tilde @ model.p_tilde.T
    model._require_invertible_lambda()
    w = model.lambda_hat if tag.method is ContributionMethod.RBC else np.sqrt(model.lambda_hat)
    return (model.p_hat / w) @ model.p_hat.T


def _attribution(
    model: "PcaModel", tag: IsolationMethod
) -> tuple[np.ndarray, np.ndarray]:
    """``(K·U, diag(UᵀKU))`` of the variant's kernel ``K``, built once per model.

    Kept in the model's instance dict, which holds no ``K``. Column ``s``
    is ``K @ u`` and its denominator ``u @ (K @ u)`` for ``u = direction(s)``,
    so both match the per-sensor products bit for bit at any ``n``; a single
    ``K @ U`` may sum the lag copies in another order.
    """
    cache = vars(model).setdefault("_attribution", {})
    if tag not in cache:
        kernel = _kernel(model, tag)
        dirs = [direction(model, s) for s in range(model.n)]
        cols = [kernel @ u for u in dirs]
        dens = np.array([u @ col for u, col in zip(dirs, cols)])
        cache[tag] = (np.stack(cols, axis=1), dens)
    return cache[tag]


@np.errstate(over="ignore", invalid="ignore")  # _check_finite reports it
def contribution_matrix(
    model: "PcaModel", x: np.ndarray, tag: IsolationMethod
) -> np.ndarray:
    """Per-sensor scores for a batch of standardized row vectors.

    Returns an (m, n) array; each row is the score vector of one sample.
    A score that overflows float64 raises ``NonFiniteResult``.
    """
    rows = _rows(model, x)
    ku, dens = _attribution(model, tag)
    rbc = tag.method is ContributionMethod.RBC
    if rbc:
        bad = np.flatnonzero(dens < _DEGENERATE_TOL)
        if bad.size:
            raise DegenerateDirection(int(bad[0]), str(tag))
    out = np.empty((rows.shape[0], model.n))
    for blk in _row_blocks(rows.shape[0]):
        scores = out[blk]
        np.matmul(rows[blk], ku, out=scores)
        scores **= 2
        if rbc:
            scores /= dens
        _check_finite(scores, str(tag))
    return out


def contributions(
    model: "PcaModel", x: np.ndarray, method_tag: IsolationMethod
) -> ContributionVector:
    """Score every sensor for one sample and pick the argmax winner."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DimensionMismatch("contributions expects a single sample vector")
    values = contribution_matrix(model, x, method_tag)[0]
    return ContributionVector(values=values, winner=int(np.argmax(values)))


def estimate_matrix(
    model: "PcaModel",
    x: np.ndarray,
    sensor: int,
    index: DetectionIndex = DetectionIndex.SPE,
) -> np.ndarray:
    """Standardized fault amplitudes along one sensor for a batch of rows.

    Reads column ``sensor`` of the cached ``K·U`` of the RBC variant of
    ``index``, so estimates and RBC scores share one computation.
    """
    rows = _rows(model, x)
    check_index(sensor, model.n, "sensor")
    ku, dens = _attribution(model, IsolationMethod(ContributionMethod.RBC, index))
    if dens[sensor] < _DEGENERATE_TOL:
        raise DegenerateDirection(sensor, f"amplitude estimation ({index.value})")
    return rows @ ku[:, sensor] / dens[sensor]


def estimate_fault(
    model: "PcaModel",
    x: np.ndarray,
    sensor: int,
    index: DetectionIndex = DetectionIndex.SPE,
) -> FaultEstimate:
    """Optimal additive fault amplitude along one sensor's direction.

    The estimate minimizes the chosen index after subtracting
    ``amplitude_scaled * direction`` from the sample; it is linear in the
    sample, so a steady bias plus fault-free background decomposes exactly.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DimensionMismatch("estimate_fault expects a single sample vector")
    f = float(estimate_matrix(model, x, sensor, index)[0])
    return FaultEstimate(
        sensor=sensor,
        amplitude=f * float(model.scaler.std[sensor]),
        amplitude_scaled=f,
    )
