import json
import math
import pickle
import re
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sensordiag import (
    DEFAULT_VARIANTS,
    ContributionMethod,
    DetectionIndex,
    EbfParams,
    EvalReport,
    FaultSpec,
    IsolationMethod,
    RawDataset,
    ReportRow,
    SimConfig,
    apply_scaler,
    contribution_matrix,
    default_sim_config,
    embed_lags,
    filter_stream,
    fit_pca,
    fit_scaler,
    harness,
    inject_fault,
    isolation_percentage,
    reconstruction_error,
    simulate,
    sweep,
)
from sensordiag.errors import (
    AmplitudeOverflow,
    DimensionMismatch,
    EmptySample,
    IndexOutOfRange,
    NonFiniteResult,
    SensorDiagError,
    UnstableConfig,
    ZeroAmplitude,
)
from conftest import (
    make_model,
    make_raw,
    oracle_contribution_matrix,
    oracle_estimate_matrix,
    oracle_faulty_runs,
    oracle_prepare_run,
)

CP_SPE = IsolationMethod(ContributionMethod.CP, DetectionIndex.SPE)
CP_T2 = IsolationMethod(ContributionMethod.CP, DetectionIndex.T2)
RBC_SPE = IsolationMethod(ContributionMethod.RBC, DetectionIndex.SPE)
RBC_T2 = IsolationMethod(ContributionMethod.RBC, DetectionIndex.T2)


def stationary_column_stds(config: SimConfig) -> np.ndarray:
    """Closed-form stationary stds of the mixed VAR(2) outputs.

    Independent oracle: solves the companion-form discrete Lyapunov equation
    via a dense Kronecker linear system instead of simulating.
    """
    n = config.n_sensors
    top = np.hstack([config.ar1, config.ar2])
    bottom = np.hstack([np.eye(n), np.zeros((n, n))])
    f = np.vstack([top, bottom])
    q = np.zeros((2 * n, 2 * n))
    q[:n, :n] = config.noise_std**2 * np.eye(n)
    dim = 2 * n
    lhs = np.eye(dim * dim) - np.kron(f, f)
    sigma = np.linalg.solve(lhs, q.ravel()).reshape(dim, dim)
    sigma_y = sigma[:n, :n]
    sigma_x = config.mixing @ sigma_y @ config.mixing.T
    return np.sqrt(np.diag(sigma_x))


def small_config(seed=101, m=1200, n=4):
    return default_sim_config(n_sensors=n, m_samples=m, seed=seed, structure_seed=777)


def small_model(d=2, vf=0.9):
    train = simulate(small_config(seed=101, m=1500))
    scaler = fit_scaler(train)
    scaled = apply_scaler(train, scaler)
    return fit_pca(embed_lags(scaled, d), vf)


def validation_runs(count=2, m=400):
    return [simulate(small_config(seed=200 + j, m=m)) for j in range(count)]


class TestSimulate:
    def test_deterministic(self):
        cfg = small_config()
        a = simulate(cfg)
        b = simulate(cfg)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_zero_noise_is_all_zero(self):
        cfg = small_config()
        quiet = SimConfig(
            n_sensors=cfg.n_sensors,
            m_samples=200,
            seed=1,
            ar1=cfg.ar1,
            ar2=cfg.ar2,
            mixing=cfg.mixing,
            noise_std=0.0,
        )
        assert not simulate(quiet).samples.any()

    def test_column_stds_match_lyapunov_oracle(self):
        cfg = default_sim_config(n_sensors=8, m_samples=20000, seed=5)
        data = simulate(cfg)
        expected = stationary_column_stds(cfg)
        observed = data.samples.std(axis=0, ddof=1)
        np.testing.assert_allclose(observed, expected, rtol=0.2)

    def test_unstable_config_rejected(self):
        n = 3
        with pytest.raises(UnstableConfig):
            simulate(
                SimConfig(
                    n_sensors=n,
                    m_samples=100,
                    seed=0,
                    ar1=1.2 * np.eye(n),
                    ar2=np.zeros((n, n)),
                    mixing=np.eye(n),
                )
            )

    def test_singular_mixing_rejected(self):
        n = 2
        with pytest.raises(ValueError):
            SimConfig(
                n_sensors=n,
                m_samples=100,
                seed=0,
                ar1=0.1 * np.eye(n),
                ar2=np.zeros((n, n)),
                mixing=np.ones((n, n)),
            )

    def test_default_config_is_stationary_and_correlated(self):
        cfg = default_sim_config()
        assert cfg.spectral_radius < 1.0
        data = simulate(default_sim_config(m_samples=4000))
        corr = np.corrcoef(data.samples.T)
        off_diag = corr[~np.eye(cfg.n_sensors, dtype=bool)]
        assert np.abs(off_diag).max() > 0.2


class TestInjectFault:
    def test_zero_amplitude_identical(self):
        data = validation_runs(1)[0]
        out = inject_fault(data, FaultSpec(sensor=1, amplitude=0.0, onset_k=50))
        np.testing.assert_array_equal(out.samples, data.samples)

    def test_onset_zero_shifts_whole_column(self):
        data = validation_runs(1)[0]
        out = inject_fault(data, FaultSpec(sensor=2, amplitude=3.0, onset_k=0))
        np.testing.assert_array_equal(out.samples[:, 2], data.samples[:, 2] + 3.0)

    def test_only_target_column_and_tail_change(self):
        data = validation_runs(1)[0]
        out = inject_fault(data, FaultSpec(sensor=0, amplitude=-1.5, onset_k=100))
        np.testing.assert_array_equal(out.samples[:100], data.samples[:100])
        np.testing.assert_array_equal(out.samples[:, 1:], data.samples[:, 1:])
        np.testing.assert_array_equal(
            out.samples[100:, 0], data.samples[100:, 0] - 1.5
        )

    def test_bad_indices(self):
        data = validation_runs(1)[0]
        with pytest.raises(IndexOutOfRange):
            inject_fault(data, FaultSpec(sensor=99, amplitude=1.0, onset_k=0))
        with pytest.raises(IndexOutOfRange):
            inject_fault(data, FaultSpec(sensor=0, amplitude=1.0, onset_k=data.m))

    @pytest.mark.filterwarnings("error")  # no numpy overflow warning comes first
    def test_overflow_raises_naming_the_fault(self):
        data = validation_runs(1)[0]
        samples = data.samples.copy()
        samples[60:, 0] = 1.7e308
        huge = RawDataset(samples, data.sensor_names)
        message = (
            f"step fault of amplitude 1e+308 on sensor {data.sensor_names[0]!r} "
            "from onset 100: the faulty data overflow float64"
        )
        with pytest.raises(NonFiniteResult, match=f"^{re.escape(message)}$"):
            inject_fault(huge, FaultSpec(sensor=0, amplitude=1e308, onset_k=100))


class TestMetrics:
    def test_all_correct(self):
        assert isolation_percentage([[3, 3, 3], [3, 3]], target=3) == 100.0

    def test_pooled_ratio_not_mean_of_ratios(self):
        runs = [[1] * 10, [0] * 30]
        assert isolation_percentage(runs, target=1) == 25.0

    def test_empty_sample(self):
        with pytest.raises(EmptySample):
            isolation_percentage([[], []], target=0)

    @pytest.mark.parametrize(
        "runs",
        [
            [[2.7, 2.2, 1.0]],  # would truncate to [2, 2, 1]: 66.7 %
            [[2, 2], [2.0]],
            [np.array([2.0, 2.0])],
            [[True, False]],
            [np.array([1, 0], dtype=bool)],
        ],
    )
    def test_non_integer_winners_rejected(self, runs):
        with pytest.raises(ValueError, match="integers"):
            isolation_percentage(runs, target=2)

    def test_small_integer_dtypes_accepted(self):
        runs = [np.array([2, 2, 1], dtype=np.int8), np.array([2], dtype=np.uint8)]
        assert isolation_percentage(runs, target=2) == 75.0
        assert isolation_percentage([[], [2]], target=2) == 100.0

    def test_perfect_estimates(self):
        assert reconstruction_error([[2.0, 2.0], [2.0]], amplitude=2.0) == 0.0

    def test_constant_ten_percent_bias(self):
        a = 4.0
        err = reconstruction_error([[1.1 * a] * 6], amplitude=a)
        assert err == pytest.approx(10.0, rel=1e-9)

    def test_alternating_estimates(self):
        a = 2.0
        err = reconstruction_error([[a, 2 * a, a, 2 * a]], amplitude=a)
        assert err == pytest.approx(50.0, rel=1e-12)

    def test_zero_amplitude(self):
        with pytest.raises(ZeroAmplitude):
            reconstruction_error([[1.0]], amplitude=0.0)

    def test_negative_amplitude_uses_absolute_relative_error(self):
        err = reconstruction_error([[-1.1]], amplitude=-1.0)
        assert err == pytest.approx(10.0, rel=1e-9)


class TestSweep:
    def test_row_count_and_determinism(self):
        model = small_model()
        runs = validation_runs(2)
        grid = [-1.0, 0.5, 2.0]
        variants = [(CP_SPE, False), (RBC_T2, False), (RBC_T2, True)]
        rep_a = sweep(model, runs, 0, grid, variants, onset_k=200)
        rep_b = sweep(model, runs, 0, grid, variants, onset_k=200)
        assert len(rep_a.rows) == len(grid) * len(variants)
        for ra, rb in zip(rep_a.rows, rep_b.rows):
            assert ra == rb
        assert rep_a.metadata["model_digest"] == rep_b.metadata["model_digest"]

    def test_zero_amplitude_flagged(self):
        model = small_model()
        runs = validation_runs(1)
        rep = sweep(model, runs, 0, [0.0, 1.0], [(RBC_SPE, False)], onset_k=200)
        zero_row = rep.rows[0]
        assert zero_row.skipped and zero_row.isolation_pct is None
        assert zero_row.recon_err_pct is None
        live_row = rep.rows[1]
        assert not live_row.skipped and live_row.isolation_pct is not None

    def test_sensor_name_mismatch(self):
        model = small_model()
        bad = RawDataset(np.zeros((50, 4)) + np.arange(50)[:, None], ("w", "x", "y", "z"))
        with pytest.raises(DimensionMismatch):
            sweep(model, [bad], 0, [1.0], [(RBC_SPE, False)])

    def test_large_amplitude_rbc_is_nearly_perfect(self):
        model = small_model(d=2, vf=0.8)
        runs = validation_runs(2)
        amp = 50.0 * model.residual_std(0)
        rep = sweep(
            model, runs, 0, [amp], [(RBC_SPE, False), (RBC_T2, False)], onset_k=200
        )
        for row in rep.rows:
            assert row.isolation_pct >= 99.0
            assert row.recon_err_pct < 25.0

    def test_ebf_state_resets_per_run(self):
        # every run is too short post-onset for any declaration, so leakage
        # across runs is the only way the filtered percentage could be > 0
        model = small_model()
        runs = validation_runs(4, m=400)
        amp = 50.0 * model.residual_std(0)
        rep = sweep(model, runs, 0, [amp], [(RBC_T2, True)], onset_k=390)
        assert rep.rows[0].isolation_pct == 0.0

    @pytest.mark.parametrize("onset_k", [None, 150])
    def test_batched_filter_matches_per_stream_reference(self, onset_k):
        # ragged runs: the batched pass right-pads the shorter streams
        model = small_model()
        lengths = (260, 400, 330)
        runs = [simulate(small_config(seed=300 + j, m=m)) for j, m in enumerate(lengths)]
        res = model.residual_std(0)
        # -0.0 is skipped like 0.0; a repeated amplitude is scored again
        grid = [2.0 * res, 0.0, -4.0 * res, -0.0, 0.5 * res, -4.0 * res]
        # CP_T2 is filtered only; (RBC_T2, True) is listed twice
        variants = [
            (RBC_T2, True), (CP_SPE, False), (RBC_T2, False), (CP_SPE, True), (CP_T2, True), (RBC_T2, True)
        ]
        params = EbfParams()
        rep = sweep(model, runs, 0, grid, variants, onset_k=onset_k, ebf_params=params)
        rows = iter(rep.rows)
        declared_somewhere = False
        for amplitude in grid:
            for tag, use_ebf in variants:
                row = next(rows)
                assert (row.amplitude, row.method, row.index, row.ebf) == (
                    amplitude, tag.method.value, tag.index.value, use_ebf
                )
                if amplitude == 0.0:
                    assert row.skipped and math.copysign(1.0, row.amplitude) == 1.0
                    assert row.isolation_pct is None and row.recon_err_pct is None
                    continue
                assert not row.skipped
                decided = []
                for run in runs:
                    onset = run.m // 2 if onset_k is None else onset_k
                    faulty = inject_fault(run, FaultSpec(0, amplitude, onset))
                    scaled = apply_scaler(faulty, model.scaler)
                    z = embed_lags(scaled, model.d).samples[onset - model.d :]
                    winners = np.argmax(contribution_matrix(model, z, tag), axis=1)
                    decided.append(
                        filter_stream(winners, model.n, params) if use_ebf else winners
                    )
                assert row.isolation_pct == isolation_percentage(decided, 0)
                declared_somewhere |= use_ebf and row.isolation_pct > 0.0
        assert declared_somewhere

    def test_rows_match_direct_attribution(self, monkeypatch):
        # the same sweep with the direct rows @ K attribution and per-sensor
        # estimates patched in must give exactly the same report rows
        model = small_model()
        runs = [simulate(small_config(seed=310 + j, m=m)) for j, m in enumerate((300, 360))]
        res = model.residual_std(0)
        grid = [-4.0 * res, -0.7 * res, 0.0, 0.3 * res, 2.0 * res, 6.0 * res]
        variants = [(tag, False) for tag in (CP_SPE, CP_T2, RBC_SPE, RBC_T2)]
        variants.append((RBC_T2, True))
        rep = sweep(model, runs, 0, grid, variants)
        monkeypatch.setattr(harness, "contribution_matrix", oracle_contribution_matrix)
        monkeypatch.setattr(harness, "estimate_matrix", oracle_estimate_matrix)
        ref = sweep(model, runs, 0, grid, variants)
        assert len(rep.rows) == len(ref.rows) == len(grid) * len(variants)
        for row, expected in zip(rep.rows, ref.rows):
            assert row == expected
            assert row.isolation_pct == expected.isolation_pct
            assert row.recon_err_pct == expected.recon_err_pct

    def test_report_files_round_trip(self, tmp_path):
        model = small_model()
        rep = sweep(model, validation_runs(1), 0, [1.0], [(RBC_T2, False)], onset_k=200)
        rep.to_csv(tmp_path / "report.csv")
        rep.to_json(tmp_path / "report.json")
        header = (tmp_path / "report.csv").read_text().splitlines()[0]
        assert header == "amplitude,method,index,ebf,isolation_pct,recon_err_pct"
        rows = json.loads((tmp_path / "report.json").read_text())["rows"]
        assert list(rows[0]) == [
            "amplitude", "method", "index", "ebf", "isolation_pct", "recon_err_pct", "skipped"
        ]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_report_raises(self):
        # A target std below 1 makes amplitude / std overflow to inf.
        model = small_model()
        target = int(np.argmin(model.scaler.std))
        assert model.scaler.std[target] < 1.0
        with pytest.raises(NonFiniteResult, match="overflow float64"):
            sweep(model, validation_runs(1), target, [1.7e308], [(CP_SPE, False)], onset_k=200)

    def test_non_finite_error_stops_at_its_amplitude(self, monkeypatch):
        # |estimate - A| / A overflows at the smallest subnormal amplitude,
        # while every contribution score stays finite.
        calls = []

        def counting(model, z, tag):
            calls.append(tag)
            return contribution_matrix(model, z, tag)

        monkeypatch.setattr(harness, "contribution_matrix", counting)
        with pytest.raises(NonFiniteResult, match=r"^spe estimates at amplitude 5e-324 .*overflow float64"):
            sweep(small_model(), validation_runs(2), 0, [1.0, 5e-324, 2.0, 3.0], [(CP_SPE, False)], onset_k=200)
        assert len(calls) == 2 * 2  # two amplitudes of two runs, then no more

    def test_finite_estimates_blame_the_amplitude(self, monkeypatch):
        runs = validation_runs(2)
        with pytest.raises(AmplitudeOverflow, match=r"^spe estimates at amplitude 5e-324 are all finite"):
            sweep(small_model(), runs, 0, [1.0, 5e-324], [(CP_SPE, False)], onset_k=200)
        # Estimates that are not finite themselves still blame the data.
        monkeypatch.setattr(harness, "estimate_matrix", lambda model, z, s, idx: np.full(z.shape[0], np.inf))
        with pytest.raises(NonFiniteResult, match="the faulty data overflow float64") as info:
            sweep(small_model(), runs, 0, [5e-324], [(CP_SPE, False)], onset_k=200)
        assert not isinstance(info.value, AmplitudeOverflow)

    def test_to_json_writes_no_non_json_number(self, tmp_path):
        row = ReportRow(1.0, "cp", "spe", False, 50.0, float("inf"))
        with pytest.raises(ValueError):
            EvalReport(rows=[row]).to_json(tmp_path / "report.json")
        assert not (tmp_path / "report.json").exists()


@lru_cache(maxsize=None)
def lag_model(d):
    return small_model(d=d, vf=0.8)


@lru_cache(maxsize=None)
def long_validation_run():
    return simulate(small_config(seed=400, m=200))


def ragged_runs(lengths):
    """Runs of the given lengths, cut from one validation series."""
    base = long_validation_run()
    return [
        RawDataset(base.samples[7 * j : 7 * j + m], base.sensor_names)
        for j, m in enumerate(lengths)
    ]


def oracle_sweep(*args, **kwargs):
    """``sweep`` with each faulty run prepared on the full-run path."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_faulty_runs", oracle_faulty_runs)
        return sweep(*args, **kwargs)


class TestPatchedSweep:
    """Tail-only preparation with the target's lag columns patched in place
    must give the bits of the full inject-scale-embed path."""

    @settings(max_examples=40, deadline=None)
    @given(
        d=st.sampled_from([0, 1, 3]),
        onset=st.sampled_from(["zero", "below_d", "last", "middle"]),
        lengths=st.lists(st.integers(6, 40), min_size=1, max_size=3),
        grid=st.lists(st.integers(-40, 40).map(lambda k: k / 4.0), min_size=1, max_size=5),
    )
    @example(d=0, onset="last", lengths=[9, 6], grid=[0.0, 1.5, -2.0])
    @example(d=3, onset="below_d", lengths=[12, 40, 7], grid=[-0.25, 0.0, 4.0, 0.0])
    def test_matches_full_run_oracle(self, d, onset, lengths, grid):
        model = lag_model(d)
        target = model.n - 1
        runs = ragged_runs(lengths)
        onset_k = {"zero": 0, "below_d": max(d - 1, 0), "last": min(lengths) - 1, "middle": None}[onset]
        nonzero = [a for a in grid if a != 0.0]
        for run in runs:
            k = run.m // 2 if onset_k is None else onset_k
            for amplitude, z in zip(nonzero, harness._faulty_runs(model, run, target, nonzero, k)):
                expected = oracle_prepare_run(model, run, FaultSpec(target, amplitude, k))
                assert z.shape == expected.shape
                assert z.tobytes() == expected.tobytes()
        rep = sweep(model, runs, target, grid, onset_k=onset_k)
        ref = oracle_sweep(model, runs, target, grid, onset_k=onset_k)
        assert rep.rows == ref.rows
        assert rep.metadata == ref.metadata

    def test_one_row_tail_at_lag_zero(self):
        # d = 0 and onset m - 1 score one row, which alone is no dataset
        model = lag_model(0)
        run = ragged_runs([30])[0]
        onset = run.m - 1
        grid = [1.5, -2.0]
        for amplitude, z in zip(grid, harness._faulty_runs(model, run, 0, grid, onset)):
            expected = oracle_prepare_run(model, run, FaultSpec(0, amplitude, onset))
            assert z.shape == (1, model.n)
            assert z.tobytes() == expected.tobytes()
        rep = sweep(model, [run], 0, [0.0, *grid], onset_k=onset)
        assert rep.rows == oracle_sweep(model, [run], 0, [0.0, *grid], onset_k=onset).rows

    @pytest.mark.parametrize("past", [0, 7])
    def test_onset_past_the_run_raises_the_full_run_error(self, past):
        model = lag_model(1)
        runs = ragged_runs([40, 25])
        onset = 25 + past
        with pytest.raises(IndexOutOfRange) as patched:
            sweep(model, runs, 0, [0.0, 1.0], onset_k=onset)
        with pytest.raises(IndexOutOfRange) as full:
            oracle_sweep(model, runs, 0, [0.0, 1.0], onset_k=onset)
        assert str(patched.value) == str(full.value) == f"onset {onset} not in [0, 25)"


def leveled_runs(levels):
    """Ragged runs of 40 and 26 rows (default onsets 20 and 13), each holding
    its level in sensor 0 from its default onset on; a sweep amplitude of
    minus that level cancels the level exactly."""
    out = []
    for run, level in zip(ragged_runs([40, 26]), levels):
        samples = run.samples.copy()
        samples[run.m // 2 :, 0] = level
        out.append(RawDataset(samples, run.sensor_names))
    return out


class TestErrorOrder:
    """Scoring run by run raises the error that scoring amplitude by
    amplitude would: at the first failing amplitude, a run whose faulty data
    overflow first, then a score that overflows, each in run order."""

    INJECTION = "step fault of amplitude -1e+308 on sensor 's1' from onset 13: the faulty data overflow float64"
    SCORE = "cp/spe scores overflow float64; the scaled data are too large"

    @pytest.mark.parametrize(
        "levels, grid, message",
        [
            # Run 0 overflows the injection at the second amplitude, run 1 at the first.
            ((1e308, -1e308), [-1e308, 1e308], INJECTION),
            # Run 0 overflows the injection at the second amplitude, run 1's
            # scores at the first.
            ((1e308, 1.5e308), [-1e308, 1e308], SCORE),
            # At one amplitude run 0's scores and run 1's injection overflow:
            # every run is prepared before any is scored.
            ((1.5e308, -1e308), [-1e308, 1.0], INJECTION),
        ],
        ids=["injection", "score", "injection-before-score"],
    )
    def test_first_failing_amplitude_wins(self, levels, grid, message):
        runs = leveled_runs(levels)
        with pytest.raises(NonFiniteResult) as info:
            sweep(lag_model(1), runs, 0, grid, [(CP_SPE, False)])
        assert str(info.value) == message

    ONSET = "onset 13 not in [0, 10)"

    @pytest.mark.parametrize(
        "order, message",
        [((0, 1), INJECTION.replace("-1e+308", "1e+308")), ((1, 0), ONSET)],
        ids=["injection-first", "onset-first"],
    )
    def test_ties_at_the_first_amplitude_go_to_the_earlier_run(self, order, message):
        # Both runs fail while the first amplitude is prepared: a 40-row run
        # whose sensor 0 overflows once injected, and a 10-row run that does
        # not reach onset 13.
        overflowing = ragged_runs([40])[0]
        samples = overflowing.samples.copy()
        samples[13:, 0] = 1e308
        runs = [RawDataset(samples, overflowing.sensor_names), ragged_runs([10])[0]]
        with pytest.raises(SensorDiagError) as info:
            sweep(lag_model(1), [runs[k] for k in order], 0, [1e308, 1.0], [(CP_SPE, False)], onset_k=13)
        assert str(info.value) == message

    def test_onset_past_a_later_run_scores_one_amplitude_per_run(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(1)
            return contribution_matrix(*args)

        monkeypatch.setattr(harness, "contribution_matrix", counting)
        runs = [*validation_runs(3, m=600), validation_runs(1, m=199)[0]]
        variants = [(CP_SPE, False), (RBC_T2, False), (RBC_T2, True)]
        with pytest.raises(IndexOutOfRange) as info:
            sweep(lag_model(1), runs, 0, np.linspace(-3.0, 3.0, 20), variants, onset_k=500)
        assert str(info.value) == "onset 500 not in [0, 199)"
        assert len(calls) == 3 * 2  # the first amplitude of each earlier run, two tags


def scored_apart(model, runs, target, grid, variants=DEFAULT_VARIANTS, onset_k=None):
    """``sweep``'s rows from each run scored and filtered as its own share at
    every amplitude, in reverse run order, each result through a pickle round
    trip, then pooled in run order."""
    grid = [float(a) for a in grid]
    variants = list(variants)
    tags = list(dict.fromkeys(tag for tag, _ in variants))
    indices = list(dict.fromkeys(tag.index for tag in tags))
    filtered = list(dict.fromkeys(tag for tag, use_ebf in variants if use_ebf))
    nonzero = [a for a in grid if a != 0.0]
    scores = [None] * len(runs)
    with np.errstate(over="ignore", invalid="ignore"):
        for r in reversed(range(len(runs))):
            onset = runs[r].m // 2 if onset_k is None else onset_k
            score = harness._score_run(model, runs[r], target, nonzero, onset, tags, indices, filtered)
            share = harness._filter_runs(model, [score], target, filtered, EbfParams())
            [scores[r]] = pickle.loads(pickle.dumps(share))
        return harness._pool_runs(scores, grid, variants)


def outcome(rows):
    """Each row's ``repr``, which tells every float bit apart, or the
    error's type and message."""
    try:
        return [repr(row) for row in rows()]
    except SensorDiagError as exc:
        return type(exc), str(exc)


def tied_runs(order):
    """TestErrorOrder's two runs that both fail at the first amplitude."""
    overflowing = ragged_runs([40])[0]
    samples = overflowing.samples.copy()
    samples[13:, 0] = 1e308
    runs = [RawDataset(samples, overflowing.sensor_names), ragged_runs([10])[0]]
    return [runs[k] for k in order]


class TestRunIndependence:
    """A run's result depends on that run alone, and the pooled rows or the
    raised error on the results in run order, not on how they were made."""

    CASES = {
        "default": lambda: (small_model(), validation_runs(3), 0, [-1.5, 0.0, 0.4, 2.5, -0.0], {}),
        "ebf-ragged": lambda: (
            small_model(),
            [simulate(small_config(seed=300 + j, m=m)) for j, m in enumerate((260, 400, 330))],
            0,
            [1.0, 0.0, -2.0, -0.0, 0.25, -2.0],
            {"variants": [(RBC_T2, True), (CP_SPE, False), (CP_SPE, True), (CP_T2, True), (RBC_T2, True)],
             "onset_k": 150},
        ),
        "injection": lambda: (lag_model(1), leveled_runs((1e308, -1e308)), 0, [-1e308, 1e308],
                              {"variants": [(CP_SPE, False)]}),
        "score": lambda: (lag_model(1), leveled_runs((1e308, 1.5e308)), 0, [-1e308, 1e308],
                          {"variants": [(CP_SPE, False)]}),
        "injection-before-score": lambda: (lag_model(1), leveled_runs((1.5e308, -1e308)), 0, [-1e308, 1.0],
                                           {"variants": [(CP_SPE, False)]}),
        "tie-injection-first": lambda: (lag_model(1), tied_runs((0, 1)), 0, [1e308, 1.0],
                                        {"variants": [(CP_SPE, False)], "onset_k": 13}),
        "tie-onset-first": lambda: (lag_model(1), tied_runs((1, 0)), 0, [1e308, 1.0],
                                    {"variants": [(CP_SPE, False)], "onset_k": 13}),
        "onset-past-a-later-run": lambda: (
            lag_model(1),
            [*validation_runs(3, m=600), validation_runs(1, m=199)[0]],
            0,
            list(np.linspace(-3.0, 3.0, 20)),
            {"variants": [(CP_SPE, False), (RBC_T2, False), (RBC_T2, True)], "onset_k": 500},
        ),
        "amplitude-overflow": lambda: (small_model(), validation_runs(2), 0, [1.0, 5e-324],
                                       {"variants": [(CP_SPE, False)], "onset_k": 200}),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_runs_scored_apart_pool_to_the_sweep(self, case):
        model, runs, target, grid, kwargs = self.CASES[case]()
        expected = outcome(lambda: sweep(model, runs, target, grid, **kwargs).rows)
        assert isinstance(expected, list) == (case in ("default", "ebf-ragged"))
        assert outcome(lambda: scored_apart(model, runs, target, grid, **kwargs)) == expected

    def test_a_share_sends_back_numbers_only(self, monkeypatch):
        # A child pickles its share's results back to the parent: once the
        # share has filtered its streams, they hold counts, sums and flags.
        sent = []

        def one_share(score_share, count, work):
            sent.append(pickle.dumps(score_share(0, count)))
            return pickle.loads(sent[-1])

        monkeypatch.setattr(harness, "_score_shares", one_share)
        model, runs, target, grid, kwargs = self.CASES["ebf-ragged"]()
        sweep(model, runs, target, grid, **kwargs)
        assert len(sent) == 1 and b"numpy" not in sent[0]


class TestSignSymmetry:
    def test_winner_is_even_in_the_sample(self):
        model = small_model()
        rng = np.random.default_rng(73)
        for tag in (CP_SPE, CP_T2, RBC_SPE, RBC_T2):
            x = rng.standard_normal((100, model.n_e))
            a = np.argmax(contribution_matrix(model, x, tag), axis=1)
            b = np.argmax(contribution_matrix(model, -x, tag), axis=1)
            np.testing.assert_array_equal(a, b)

    def test_amplitude_sign_symmetry_on_meanlevel_run(self):
        # a run pinned at the training mean standardizes to exactly zero, so
        # the faulty sample is an exact-direction fault and winners for +A
        # and -A coincide sample-for-sample
        model = small_model(vf=0.8)
        flat = RawDataset(
            np.tile(model.scaler.mean, (300, 1)),
            tuple(f"s{i + 1}" for i in range(model.n)),
        )
        amp = 3.0 * model.residual_std(0)
        variants = [(RBC_SPE, False), (RBC_T2, False)]
        rep_pos = sweep(model, [flat], 0, [amp], variants, onset_k=150)
        rep_neg = sweep(model, [flat], 0, [-amp], variants, onset_k=150)
        for pos, neg in zip(rep_pos.rows, rep_neg.rows):
            assert pos.isolation_pct == neg.isolation_pct


# Each call on an n=4 model and one 60-row run, with the error it must raise.
BAD_INPUTS = {
    "fault-sensor-negative": (lambda model, runs: FaultSpec(-1, 1.0, 0), IndexOutOfRange,
                              "sensor -1 must be non-negative"),
    "fault-onset-negative": (lambda model, runs: FaultSpec(0, 1.0, -2), IndexOutOfRange,
                             "onset -2 must be non-negative"),
    "sim-matrix-shape": (lambda model, runs: replace(small_config(), ar1=np.zeros((2, 2))), ValueError,
                         "ar1 must be 4x4, got (2, 2)"),
    "sim-noise-negative": (lambda model, runs: replace(small_config(), noise_std=-1.0), ValueError,
                           "noise_std must be non-negative"),
    "sweep-no-runs": (lambda model, runs: sweep(model, [], 0, [1.0]), ValueError,
                      "need at least one validation run"),
    "sweep-empty-grid": (lambda model, runs: sweep(model, runs, 0, []), ValueError, "amplitude grid is empty"),
    "sweep-no-variants": (lambda model, runs: sweep(model, runs, 0, [1.0], []), ValueError,
                          "need at least one variant"),
    "sweep-target-past-end": (lambda model, runs: sweep(model, runs, 4, [1.0]), IndexOutOfRange,
                              "target sensor 4 not in [0, 4)"),
    "sweep-target-negative": (lambda model, runs: sweep(model, runs, -1, [1.0]), IndexOutOfRange,
                              "target sensor -1 not in [0, 4)"),
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_raises_its_error(case):
    call, error, message = BAD_INPUTS[case]
    with pytest.raises(Exception) as caught:
        call(make_model(n=4, m=400, seed=5, d=2), [make_raw(n=4, m=60, seed=9)])
    assert (type(caught.value), str(caught.value)) == (error, message)
