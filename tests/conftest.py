import numpy as np
import pytest

from sensordiag import (
    ContributionMethod,
    DetectionIndex,
    LagSpec,
    PcaModel,
    RawDataset,
    ScaledDataset,
    ScalerParams,
    apply_scaler,
    direction,
    direction_matrix,
    embed_lags,
    fit_pca,
    fit_scaler,
)

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
