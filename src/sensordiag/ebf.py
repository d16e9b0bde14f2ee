"""Evidence-based filtering of the per-sample isolation decision.

Each sensor carries an accumulated evidence level. Every sample, the sensor
that won the raw isolation gets a fixed reward added to its evidence and
every other sensor pays a fixed penalty; levels are clamped to a saturation
band so the filter stays reactive. A fault is declared once some sensor's
evidence crosses the decision threshold, and the declared sensor is the
evidence argmax among the exceeders.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange, check_index

__all__ = ["NO_DECLARATION", "EbfParams", "EbfState", "ebf_step", "ebf_decide", "filter_stream"]

# Makes threshold comparisons follow exact decimal arithmetic: accumulated
# float evidence can land one ulp below an exactly-reachable boundary, and
# reachable levels are never closer to the threshold than the penalty step.
_DECISION_TOL = 1e-12

NO_DECLARATION = -1


@dataclass(frozen=True)
class EbfParams:
    """Accumulator constants. Defaults: reward 0.01, penalty -0.005,
    declaration threshold 0.2, saturation band [0, 1]."""

    reward: float = 0.01
    penalty: float = -0.005
    decision_threshold: float = 0.2
    upper_sat: float = 1.0
    lower_sat: float = 0.0

    def __post_init__(self):
        if not self.reward > 0 > self.penalty:
            raise ValueError("need reward > 0 > penalty")
        if not self.lower_sat < self.decision_threshold <= self.upper_sat:
            raise ValueError("need lower_sat < decision_threshold <= upper_sat")
        if not self.lower_sat <= 0 <= self.upper_sat:
            raise ValueError("saturation band must contain the initial level 0")


@dataclass(frozen=True)
class EbfState:
    """Per-sensor evidence levels."""

    s: np.ndarray

    @classmethod
    def fresh(cls, n_sensors: int) -> "EbfState":
        if n_sensors < 1:
            raise ValueError("need at least one sensor")
        return cls(s=np.zeros(n_sensors))


def _step(s: np.ndarray, at, params: EbfParams) -> np.ndarray:
    """Levels ``s`` advanced one sample: the reward where ``at`` indexes, the penalty elsewhere.
    ndarray.clip is np.clip without its wrappers; np.maximum/np.minimum would differ from it
    where a sum ties a saturation bound of opposite zero sign."""
    t = s + params.penalty
    t[at] = s[at] + params.reward
    return t.clip(params.lower_sat, params.upper_sat, out=t)


def ebf_step(state: EbfState, winner: int, params: EbfParams) -> EbfState:
    """Advance the accumulator by one sample whose raw winner is ``winner``."""
    check_index(winner, state.s.shape[0], "winner")
    return EbfState(s=_step(state.s, winner, params))


def ebf_decide(state: EbfState, params: EbfParams) -> int | None:
    """Declared sensor, or None while no evidence level reaches the threshold.

    Among sensors at or above the threshold the one with the most evidence
    wins; ties break to the lowest index.
    """
    top = int(state.s.argmax())
    if state.s[top] >= params.decision_threshold - _DECISION_TOL:
        return top
    return None


def filter_stream(winners, n_sensors: int, params: EbfParams) -> np.ndarray:
    """Run the accumulator over winner streams, each from a fresh state.

    ``winners`` is one integer stream of shape ``(T,)`` or a batch of
    independent streams of shape ``(B, T)``; every row starts from zeroed
    evidence and the rows are advanced together, one time step at a time.
    Returns the declared sensor per input sample, in the input's shape,
    ``NO_DECLARATION`` (-1) where no evidence level had crossed the
    threshold yet; the dtype is the input's if it is signed, else ``int``.
    Arithmetic is identical to iterating :func:`ebf_step` +
    :func:`ebf_decide` on each row.
    """
    winners = np.asarray(winners)
    if winners.ndim not in (1, 2):
        raise ValueError("winners must be a 1-D stream or a 2-D batch of streams")
    if winners.dtype.kind not in "iu":
        if winners.size:
            raise ValueError(f"winners must be integers, got dtype {winners.dtype}")
        winners = winners.astype(int)  # an empty list arrives as float64
    if winners.size and not (winners.min() >= 0 and winners.max() < n_sensors):
        raise IndexOutOfRange("winner stream contains out-of-range sensors")
    batch = np.atleast_2d(winners)
    rows = np.arange(batch.shape[0])
    s = np.zeros((batch.shape[0], n_sensors))
    # A declared sensor is 0 or at most the largest winner seen (a sensor
    # that never won holds the least evidence), so a signed winner dtype
    # holds every result, NO_DECLARATION included.
    out_dtype = batch.dtype if batch.dtype.kind == "i" else int
    out = np.full(batch.shape, NO_DECLARATION, dtype=out_dtype)
    thresh = params.decision_threshold - _DECISION_TOL
    for t in range(batch.shape[1]):
        s = _step(s, (rows, batch[:, t]), params)
        top = np.argmax(s, axis=1)
        out[:, t] = np.where(s[rows, top] >= thresh, top, NO_DECLARATION)
    return out.reshape(winners.shape)
