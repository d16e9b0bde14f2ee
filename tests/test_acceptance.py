"""End-to-end acceptance gates for the fault-diagnosis toolkit.

Each test pins one release-blocking contract at an explicit tolerance and
runtime budget and prints a one-line PASS record (run with ``-s`` to see
them live). Gates 1-6 and 9-10 are exact theorem-level properties; gates
7-8 are fixed-seed synthetic reproductions of the qualitative behavior the
toolkit is built around: reconstruction-based scores beat plain
contributions, the lag-extended model with the Mahalanobis index isolates
best, and evidence filtering lifts a noisy 67%-correct decision stream
above 90%.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from sensordiag import (
    ContributionMethod,
    DetectionIndex,
    EbfParams,
    EbfState,
    IsolationMethod,
    apply_scaler,
    contribution_matrix,
    contributions,
    covariance,
    default_sim_config,
    direction,
    ebf_decide,
    ebf_step,
    embed_lags,
    estimate_fault,
    filter_stream,
    fit_pca,
    fit_scaler,
    isolation_percentage,
    load_model,
    reconstruction_error,
    save_model,
    simulate,
    spe,
    sweep,
    t2,
)
from sensordiag.ebf import NO_DECLARATION
from conftest import make_scaled, projectors

CP_SPE = IsolationMethod(ContributionMethod.CP, DetectionIndex.SPE)
CP_T2 = IsolationMethod(ContributionMethod.CP, DetectionIndex.T2)
RBC_SPE = IsolationMethod(ContributionMethod.RBC, DetectionIndex.SPE)
RBC_T2 = IsolationMethod(ContributionMethod.RBC, DetectionIndex.T2)
ALL_RAW_VARIANTS = [(CP_SPE, False), (CP_T2, False), (RBC_SPE, False), (RBC_T2, False)]


class Gate:
    """Times a criterion body and enforces its runtime budget."""

    def __init__(self, number: int, budget_s: float, label: str):
        self.number = number
        self.budget_s = budget_s
        self.label = label

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(f"ACCEPTANCE {self.number:02d} PASS ({elapsed:5.1f}s) {self.label}")
            assert elapsed < self.budget_s, (
                f"gate {self.number} exceeded its {self.budget_s}s budget: {elapsed:.1f}s"
            )
        else:
            print(f"ACCEPTANCE {self.number:02d} FAIL ({elapsed:5.1f}s) {self.label}")
        return False


def test_c01_projection_algebra():
    with Gate(1, 5.0, "projector algebra and spectrum reconstruction"):
        rng = np.random.default_rng(1000)
        for case in range(20):
            n = 3 + case % 8
            vf = (0.6, 0.75, 0.9, 0.98)[case % 4]
            data = make_scaled(n=n, m=300, seed=2000 + case)
            model = fit_pca(data, vf)
            eye = np.eye(model.n_e)
            c_hat, c_tilde, _, _ = projectors(model)
            assert np.abs(c_hat + c_tilde - eye).max() < 1e-8
            assert np.abs(c_hat @ c_hat - c_hat).max() < 1e-8
            assert np.abs(c_tilde @ c_tilde - c_tilde).max() < 1e-8
            assert np.abs(c_hat @ c_tilde).max() < 1e-8
            rebuilt = (model.p_hat * model.lambda_hat) @ model.p_hat.T + (
                model.p_tilde * model.lambda_tilde
            ) @ model.p_tilde.T
            assert np.abs(rebuilt - covariance(data)).max() < 1e-8


def test_c02_contribution_sums():
    with Gate(2, 5.0, "per-sensor contributions sum to the indices"):
        for seed, n, vf in ((0, 4, 0.8), (1, 6, 0.9), (2, 8, 0.7), (3, 5, 0.95)):
            model = fit_pca(make_scaled(n=n, m=500, seed=seed), vf)
            x = np.random.default_rng(3000 + seed).standard_normal((1000, model.n_e))
            spe_vals = spe(model, x)
            gap = np.abs(contribution_matrix(model, x, CP_SPE).sum(axis=1) - spe_vals)
            assert (gap < 1e-9 * np.maximum(1.0, spe_vals)).all()
            t2_vals = t2(model, x)
            gap = np.abs(contribution_matrix(model, x, CP_T2).sum(axis=1) - t2_vals)
            assert (gap < 1e-9 * np.maximum(1.0, t2_vals)).all()


def test_c03_rbc_dominance():
    with Gate(3, 10.0, "reconstruction-based scores rank exact-direction faults first"):
        rng = np.random.default_rng(4000)
        for d in (0, 5):
            model = fit_pca(make_scaled(n=6, m=800, seed=40 + d, d=d), 0.9)
            for _ in range(1000):
                i = int(rng.integers(model.n))
                f = float(rng.uniform(0.05, 25.0)) * float(rng.choice([-1.0, 1.0]))
                x = direction(model, i) * f
                for tag in (RBC_SPE, RBC_T2):
                    values = contributions(model, x, tag).values
                    slack = 1e-12 * max(1.0, values[i])
                    assert (values <= values[i] + slack).all()


def test_c04_fault_estimation_exactness():
    with Gate(4, 5.0, "exact-direction faults recover their amplitude; estimates are linear"):
        rng = np.random.default_rng(5000)
        for d in (0, 3):
            model = fit_pca(make_scaled(n=5, m=600, seed=50 + d, d=d), 0.9)
            for index in (DetectionIndex.SPE, DetectionIndex.T2):
                for _ in range(250):
                    i = int(rng.integers(model.n))
                    a = float(rng.uniform(0.1, 10.0)) * float(rng.choice([-1.0, 1.0]))
                    est = estimate_fault(model, direction(model, i) * a, i, index)
                    assert est.amplitude_scaled == pytest.approx(a, rel=1e-9)
                    x0 = rng.standard_normal(model.n_e)
                    mixed = estimate_fault(model, x0 + direction(model, i) * a, i, index)
                    background = estimate_fault(model, x0, i, index)
                    assert mixed.amplitude_scaled - a == pytest.approx(
                        background.amplitude_scaled, rel=1e-9, abs=1e-9
                    )


def test_c05_ebf_declaration_step_count():
    with Gate(5, 5.0, "evidence filter declares at exactly step 20, never earlier"):
        params = EbfParams()
        state = EbfState.fresh(3)
        for step in range(1, 20):
            state = ebf_step(state, 0, params)
            assert ebf_decide(state, params) is None, f"declared at step {step}"
        state = ebf_step(state, 0, params)
        assert ebf_decide(state, params) == 0

        # conservativity bound: evidence grows at most reward per step, so no
        # sequence of 19 winners can reach the threshold
        assert 19 * params.reward < params.decision_threshold
        rng = np.random.default_rng(6000)
        for _ in range(2000):
            stream = rng.integers(0, 3, size=19)
            declared = filter_stream(stream, 3, params)
            assert (declared == NO_DECLARATION).all()
            # evidence ceiling holds along the whole stream
            state = EbfState.fresh(3)
            for k, w in enumerate(stream, start=1):
                state = ebf_step(state, int(w), params)
                assert state.s.max() <= k * params.reward + 1e-15


def test_c06_lag_zero_pipeline_degeneracy():
    with Gate(6, 5.0, "zero-lag dynamic pipeline reproduces the plain model exactly"):
        raw_scaled = make_scaled(n=6, m=600, seed=60, d=0)
        plain = fit_pca(raw_scaled, 0.9)
        embedded = embed_lags(raw_scaled, 0)
        dynamic = fit_pca(embedded, 0.9)
        x = np.random.default_rng(61).standard_normal((100, 6))
        assert np.abs(spe(plain, x) - spe(dynamic, x)).max() <= 1e-12
        assert np.abs(t2(plain, x) - t2(dynamic, x)).max() <= 1e-12
        for tag in (CP_SPE, CP_T2, RBC_SPE, RBC_T2):
            a = contribution_matrix(plain, x, tag)
            b = contribution_matrix(dynamic, x, tag)
            assert np.abs(a - b).max() <= 1e-12


# Fixed-seed outcomes of gate 7, frozen from the first run. Isolation
# percentages are ratios of winner counts, so reruns on the same stack must
# reproduce them exactly.
GOLDEN_C7: dict = {
    "d0/cp/spe": 0.0,
    "d0/cp/t2": 100.0,
    "d0/rbc/spe": 99.76,
    "d0/rbc/t2": 100.0,
    "d5/cp/spe": 100.0,
    "d5/cp/t2": 99.97,
    "d5/rbc/spe": 100.0,
    "d5/rbc/t2": 99.98,
    "d5/rbc/t2@10rs": 98.17,
}


def _run_criterion7():
    cfg = default_sim_config(n_sensors=8, m_samples=20000, seed=1)
    train = simulate(cfg)
    runs = [simulate(replace(cfg, m_samples=5000, seed=2 + j)) for j in range(4)]
    scaler = fit_scaler(train)
    scaled = apply_scaler(train, scaler)
    model_d0 = fit_pca(embed_lags(scaled, 0), 0.98, 0.01)
    model_d5 = fit_pca(embed_lags(scaled, 5), 0.98, 0.01)
    onset = 2500
    a_max = 50.0 * model_d0.residual_std(0)
    amp_mid = 10.0 * model_d5.residual_std(0)
    grid = np.linspace(-a_max, a_max, 100).tolist()

    measured = {}
    for label, model in (("d0", model_d0), ("d5", model_d5)):
        report = sweep(model, runs, 0, grid, ALL_RAW_VARIANTS, onset_k=onset)
        for row in report.rows:
            if row.amplitude == grid[-1]:
                measured[f"{label}/{row.method}/{row.index}"] = row.isolation_pct
    mid = sweep(model_d5, runs, 0, [amp_mid], [(RBC_T2, False)], onset_k=onset)
    measured["d5/rbc/t2@10rs"] = mid.rows[0].isolation_pct
    return measured


def test_c07_synthetic_end_to_end():
    with Gate(7, 120.0, "fixed-seed synthetic sweep reproduces the qualitative ranking"):
        measured = _run_criterion7()
        # (a) reconstruction-based beats plain contributions at the largest
        # amplitude, for both indices and both lag depths
        for label in ("d0", "d5"):
            for index in ("spe", "t2"):
                assert (
                    measured[f"{label}/rbc/{index}"]
                    >= measured[f"{label}/cp/{index}"]
                )
        # (b) lag-extended Mahalanobis variant is reliable at a mid amplitude
        assert measured["d5/rbc/t2@10rs"] >= 95.0
        # (c) every reconstruction-based variant saturates at the largest
        # amplitude
        for label in ("d0", "d5"):
            for index in ("spe", "t2"):
                assert measured[f"{label}/rbc/{index}"] >= 99.0
        if not GOLDEN_C7:
            pytest.fail(f"freeze these golden values: {measured!r}")
        assert set(measured) == set(GOLDEN_C7)
        for key, value in GOLDEN_C7.items():
            assert measured[key] == pytest.approx(value, rel=1e-12), key


def test_c08_evidence_filter_benefit():
    with Gate(8, 30.0, "evidence filtering lifts a 67%-correct decision stream by 15+ points"):
        params = EbfParams()
        n, target, length = 8, 3, 5000
        improvements = []
        for seed in range(10):
            rng = np.random.default_rng(7000 + seed)
            correct = rng.random(length) < 0.67
            others = rng.integers(0, n - 1, size=length)
            others = others + (others >= target)  # uniform over the 7 wrong sensors
            winners = np.where(correct, target, others)
            raw_pct = isolation_percentage([winners], target)
            declared = filter_stream(winners, n, params)
            ebf_pct = isolation_percentage([declared], target)
            improvements.append(ebf_pct - raw_pct)
            assert ebf_pct - raw_pct >= 15.0
        assert float(np.mean(improvements)) >= 15.0


def test_c09_metric_oracles():
    with Gate(9, 1.0, "hand-built streams reproduce the pooled metrics exactly"):
        # pooled ratio, not mean of per-run ratios: 100 * 10 / 40
        runs = [[1] * 10, [0] * 30]
        assert isolation_percentage(runs, target=1) == 25.0
        # mean absolute relative error: alternating exact and doubled estimates
        a = 2.0
        assert reconstruction_error([[a, 2 * a, a, 2 * a]], amplitude=a) == 50.0
        # constant 10% bias
        assert reconstruction_error([[1.1 * a] * 8], amplitude=a) == pytest.approx(
            10.0, rel=1e-9
        )


def test_c10_persistence_round_trip(tmp_path):
    with Gate(10, 5.0, "saved and loaded models agree to 1e-15 on every index"):
        for d, seed in ((0, 70), (2, 71)):
            model = fit_pca(make_scaled(n=5, m=500, seed=seed, d=d), 0.9)
            path = tmp_path / f"model_{d}.json"
            save_model(model, path)
            back = load_model(path)
            x = np.random.default_rng(72).standard_normal((100, model.n_e))

            def rel_gap(u, v):
                return np.abs(u - v) / np.maximum(1.0, np.abs(u))

            assert rel_gap(spe(model, x), spe(back, x)).max() <= 1e-15
            assert rel_gap(t2(model, x), t2(back, x)).max() <= 1e-15
            for tag in (CP_SPE, CP_T2, RBC_SPE, RBC_T2):
                a = contribution_matrix(model, x, tag)
                b = contribution_matrix(back, x, tag)
                assert rel_gap(a, b).max() <= 1e-15
