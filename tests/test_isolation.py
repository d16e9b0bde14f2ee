from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sensordiag import (
    ContributionMethod,
    DetectionIndex,
    IsolationMethod,
    PcaModel,
    ScalerParams,
    contribution_matrix,
    contributions,
    direction,
    estimate_fault,
    estimate_matrix,
    fit_pca,
    spe,
    t2,
)
from sensordiag.errors import (
    DegenerateDirection,
    DimensionMismatch,
    IndexOutOfRange,
    SingularLambda,
)
from conftest import (
    assert_same_winners,
    make_model,
    make_scaled,
    oracle_contribution_matrix,
    oracle_denominators,
    oracle_direction_matrix,
    oracle_estimate_matrix,
    oracle_kernel,
    oracle_reconstruct,
    projectors,
)

CP_SPE = IsolationMethod(ContributionMethod.CP, DetectionIndex.SPE)
CP_T2 = IsolationMethod(ContributionMethod.CP, DetectionIndex.T2)
RBC_SPE = IsolationMethod(ContributionMethod.RBC, DetectionIndex.SPE)
RBC_T2 = IsolationMethod(ContributionMethod.RBC, DetectionIndex.T2)
ALL_METHODS = (CP_SPE, CP_T2, RBC_SPE, RBC_T2)


def reference_scores(model, x, tag):
    """Direct per-sensor loop; independent of the vectorized aggregation."""
    _, c_tilde, d_mat, d_sqrt = projectors(model)
    out = np.zeros(model.n)
    for i in range(model.n):
        u = direction(model, i)
        if tag == CP_SPE:
            out[i] = float(u @ c_tilde @ x) ** 2
        elif tag == CP_T2:
            out[i] = float(u @ d_sqrt @ x) ** 2
        elif tag == RBC_SPE:
            out[i] = float(u @ c_tilde @ x) ** 2 / float(u @ c_tilde @ u)
        else:
            out[i] = float(u @ d_mat @ x) ** 2 / float(u @ d_mat @ u)
    return out


class TestDirection:
    def test_plain_model_identity_column(self):
        model = make_model(n=2, m=100, seed=30)
        np.testing.assert_array_equal(direction(model, 0), [1.0, 0.0])

    def test_two_sensor_one_lag(self):
        model = make_model(n=2, m=100, seed=31, d=1)
        np.testing.assert_array_equal(direction(model, 1), [0.0, 1.0, 0.0, 1.0])

    def test_three_sensor_two_lags(self):
        model = make_model(n=3, m=100, seed=32, d=2)
        u = direction(model, 0)
        assert set(np.nonzero(u)[0]) == {0, 3, 6}
        assert (u[[0, 3, 6]] == 1.0).all()

    def test_out_of_range(self):
        model = make_model(n=3, m=100, seed=33)
        with pytest.raises(IndexOutOfRange):
            direction(model, 3)

    def test_matrix_columns_match(self):
        model = make_model(n=4, m=100, seed=34, d=3)
        u_mat = oracle_direction_matrix(model)
        for i in range(model.n):
            np.testing.assert_array_equal(u_mat[:, i], direction(model, i))


class TestContributions:
    def test_ref2_cp_spe(self, ref2):
        cv = contributions(ref2, np.array([1.0, 0.0]), CP_SPE)
        np.testing.assert_allclose(cv.values, [0.25, 0.25], rtol=1e-12)
        assert cv.values.sum() == pytest.approx(spe(ref2, np.array([1.0, 0.0])), rel=1e-12)

    def test_ref2_rbc_spe_tie_break(self, ref2):
        cv = contributions(ref2, np.array([1.0, 0.0]), RBC_SPE)
        np.testing.assert_allclose(cv.values, [0.5, 0.5], rtol=1e-12)
        assert cv.winner == 0

    def test_zero_vector_all_zero(self, ref2):
        for tag in ALL_METHODS:
            cv = contributions(ref2, np.zeros(2), tag)
            assert not cv.values.any()
            assert cv.winner == 0

    @pytest.mark.parametrize("d", [0, 2])
    def test_matches_per_sensor_reference(self, d):
        model = make_model(n=4, m=300, seed=35, d=d)
        rng = np.random.default_rng(36)
        for _ in range(25):
            x = rng.standard_normal(model.n_e)
            for tag in ALL_METHODS:
                np.testing.assert_allclose(
                    contributions(model, x, tag).values,
                    reference_scores(model, x, tag),
                    rtol=1e-9,
                    atol=1e-12,
                )

    def test_values_non_negative(self):
        model = make_model(n=5, m=300, seed=37)
        rng = np.random.default_rng(38)
        x = rng.standard_normal((200, model.n_e))
        for tag in ALL_METHODS:
            assert (contribution_matrix(model, x, tag) >= 0).all()

    def test_sum_identities_plain_model(self):
        model = make_model(n=6, m=500, seed=39, variance_fraction=0.85)
        rng = np.random.default_rng(40)
        x = rng.standard_normal((1000, model.n_e))
        spe_vals = spe(model, x)
        np.testing.assert_allclose(
            contribution_matrix(model, x, CP_SPE).sum(axis=1), spe_vals, rtol=1e-9
        )
        np.testing.assert_allclose(
            contribution_matrix(model, x, CP_T2).sum(axis=1), t2(model, x), rtol=1e-9
        )

    def test_rbc_is_scaled_cp_plain_model(self):
        model = make_model(n=5, m=400, seed=41)
        rng = np.random.default_rng(42)
        c_diag = np.diag(projectors(model)[1])
        assert ((c_diag > 0) & (c_diag <= 1 + 1e-12)).all()
        for _ in range(50):
            x = rng.standard_normal(model.n_e)
            cp = contributions(model, x, CP_SPE).values
            rbc = contributions(model, x, RBC_SPE).values
            np.testing.assert_allclose(rbc, cp / c_diag, rtol=1e-9)
            assert (rbc >= cp - 1e-9).all()

    def test_degenerate_direction_rejected(self):
        # full principal space: the residual projector is identically zero
        data = make_scaled(n=3, m=200, seed=43)
        model = fit_pca(data, variance_fraction=1.0)
        with pytest.raises(DegenerateDirection):
            contributions(model, np.ones(3), RBC_SPE)

    def test_dimension_mismatch(self, ref2):
        with pytest.raises(DimensionMismatch):
            contributions(ref2, np.zeros(3), CP_SPE)


class TestIsolate:
    def test_exact_direction_fault(self):
        # residual space must have rank >= 2, else RBC/SPE ties all sensors
        model = make_model(n=5, m=400, seed=44, variance_fraction=0.6)
        assert model.l <= model.n_e - 2
        x = direction(model, 1) * 5.0
        assert contributions(model, x, RBC_SPE).winner == 1
        assert contributions(model, x, RBC_T2).winner == 1

    def test_ref2_tie_goes_low(self, ref2):
        assert contributions(ref2, np.array([1.0, 0.0]), RBC_SPE).winner == 0

    def test_zero_vector_degenerate_tie(self, ref2):
        assert contributions(ref2, np.zeros(2), CP_SPE).winner == 0

    def test_scaling_invariance(self):
        model = make_model(n=5, m=400, seed=45, d=1)
        rng = np.random.default_rng(46)
        for _ in range(30):
            x = rng.standard_normal(model.n_e)
            c = rng.choice([-3.0, -0.5, 0.25, 7.0])
            for tag in ALL_METHODS:
                assert contributions(model, c * x, tag).winner == contributions(model, x, tag).winner

    @pytest.mark.parametrize("d", [0, 5])
    def test_rbc_dominance_exact_direction(self, d):
        model = make_model(n=5, m=600, seed=47, d=d)
        rng = np.random.default_rng(48)
        for _ in range(200):
            i = int(rng.integers(model.n))
            f = float(rng.uniform(0.05, 20.0)) * float(rng.choice([-1.0, 1.0]))
            x = direction(model, i) * f
            for tag in (RBC_SPE, RBC_T2):
                values = contributions(model, x, tag).values
                assert (values[i] >= values - 1e-12 * max(1.0, values[i])).all()


class TestEstimateFault:
    def test_ref2_exact_direction(self, ref2):
        est = estimate_fault(ref2, np.array([0.0, 2.0]), 1, DetectionIndex.SPE)
        assert est.amplitude_scaled == pytest.approx(2.0, rel=1e-12)
        assert est.amplitude == pytest.approx(2.0, rel=1e-12)  # unit scaler std

    def test_zero_input(self, ref2):
        est = estimate_fault(ref2, np.zeros(2), 0, DetectionIndex.SPE)
        assert est.amplitude_scaled == 0.0

    def test_principal_subspace_input_estimates_zero(self, ref2):
        x0 = ref2.p_hat[:, 0] * 37.0
        est = estimate_fault(ref2, x0, 0, DetectionIndex.SPE)
        assert est.amplitude_scaled == pytest.approx(0.0, abs=1e-12)

    def test_physical_units_use_sensor_std(self):
        model = make_model(n=4, m=300, seed=49, d=2)
        x = direction(model, 2) * 1.5
        est = estimate_fault(model, x, 2, DetectionIndex.SPE)
        assert est.amplitude == pytest.approx(
            est.amplitude_scaled * model.scaler.std[2], rel=1e-15
        )

    @pytest.mark.parametrize("index", [DetectionIndex.SPE, DetectionIndex.T2])
    @pytest.mark.parametrize("d", [0, 3])
    def test_exact_direction_recovers_amplitude(self, index, d):
        model = make_model(n=4, m=500, seed=50, d=d)
        rng = np.random.default_rng(51)
        for _ in range(50):
            i = int(rng.integers(model.n))
            a = float(rng.uniform(-8.0, 8.0))
            est = estimate_fault(model, direction(model, i) * a, i, index)
            assert est.amplitude_scaled == pytest.approx(a, rel=1e-9, abs=1e-12)

    def test_linearity_of_bias(self):
        model = make_model(n=5, m=400, seed=52, d=1)
        rng = np.random.default_rng(53)
        for _ in range(50):
            i = int(rng.integers(model.n))
            a = float(rng.uniform(-5.0, 5.0))
            x0 = rng.standard_normal(model.n_e)
            est_mixed = estimate_fault(model, x0 + direction(model, i) * a, i)
            est_background = estimate_fault(model, x0, i)
            assert est_mixed.amplitude_scaled - a == pytest.approx(
                est_background.amplitude_scaled, rel=1e-9, abs=1e-9
            )

    def test_batch_matches_single(self):
        model = make_model(n=4, m=300, seed=54, d=1)
        rng = np.random.default_rng(55)
        x = rng.standard_normal((20, model.n_e))
        batch = estimate_matrix(model, x, 1, DetectionIndex.T2)
        for k in range(20):
            single = estimate_fault(model, x[k], 1, DetectionIndex.T2)
            assert batch[k] == pytest.approx(single.amplitude_scaled, rel=1e-15)


class TestReconstruct:
    def test_perfect_reconstruction(self):
        model = make_model(n=4, m=300, seed=56, d=1)
        x = direction(model, 3) * 4.2
        z = oracle_reconstruct(model, x, 3, DetectionIndex.SPE)
        np.testing.assert_allclose(z, np.zeros(model.n_e), atol=1e-12)

    def test_orthogonal_input_unchanged(self, ref2):
        x0 = ref2.p_hat[:, 0] * 2.5  # residual projection is zero
        z = oracle_reconstruct(ref2, x0, 1, DetectionIndex.SPE)
        np.testing.assert_allclose(z, x0, atol=1e-12)

    def test_never_increases_spe_and_is_optimal(self):
        # Brute-force oracle: scan the 1-D correction amplitude on a fine grid.
        model = make_model(n=5, m=400, seed=57)
        rng = np.random.default_rng(58)
        for _ in range(20):
            x = rng.standard_normal(model.n_e)
            i = int(rng.integers(model.n))
            z = oracle_reconstruct(model, x, i, DetectionIndex.SPE)
            assert spe(model, z) <= spe(model, x) + 1e-12
            u = direction(model, i)
            grid = np.linspace(-10.0, 10.0, 2001)
            j_grid = [spe(model, x - u * f) for f in grid]
            assert spe(model, z) <= min(j_grid) + 1e-9

    def test_t2_variant_optimal(self):
        model = make_model(n=4, m=300, seed=59)
        rng = np.random.default_rng(60)
        x = rng.standard_normal(model.n_e)
        z = oracle_reconstruct(model, x, 2, DetectionIndex.T2)
        grid = np.linspace(-10.0, 10.0, 2001)
        u = direction(model, 2)
        assert t2(model, z) <= min(t2(model, x - u * f) for f in grid) + 1e-9


def axis_model() -> PcaModel:
    """Plain 2-sensor model whose sensor 0 spans the principal subspace and
    sensor 1 the residual one: RBC-SPE is degenerate for sensor 0 and
    RBC-T2 for sensor 1."""
    return PcaModel(
        p_hat=np.array([[1.0], [0.0]]),
        p_tilde=np.array([[0.0], [1.0]]),
        lambda_hat=np.array([2.0]),
        lambda_tilde=np.array([0.5]),
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


def rounding_floor(model, rows, tag) -> np.ndarray:
    """Absolute bound on how far two float64 evaluations of the scores can
    differ. Each aggregate ``a = Σ x_i K_ij`` (j over the sensor's lag
    columns) is off by at most ``γ·Σ|x_i K_ij|`` with ``γ = (n_e + d + 1)·eps``
    in either order of summation, so two of them differ by ``e = 2γ·Σ|x_i K_ij|``
    and their squares by ``e·(2|a| + e)``, then divided by ``uᵀKu`` for RBC.
    Near a cancelled score this exceeds any relative tolerance."""
    kernel = oracle_kernel(model, tag.method, tag.index)
    lags = (len(rows), model.d + 1, model.n)
    agg = (rows @ kernel).reshape(lags).sum(axis=1)
    err = 2 * (model.n_e + model.d + 1) * np.finfo(float).eps
    err = err * (np.abs(rows) @ np.abs(kernel)).reshape(lags).sum(axis=1)
    floor = err * (2 * np.abs(agg) + err)
    if tag.method is ContributionMethod.RBC:
        floor /= oracle_denominators(model, kernel)
    return floor


class TestAttributionKernelOracle:
    """The cached ``K·U`` kernel against the direct ``rows @ K`` computation."""

    @given(
        n=st.integers(min_value=2, max_value=5),
        d=st.integers(min_value=0, max_value=4),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        vf=st.sampled_from([0.6, 0.9, 0.99]),
        scale=st.floats(min_value=1e-3, max_value=1e3),
    )
    @settings(max_examples=60, deadline=None)
    # Sensor 4's CP-SPE score in a direction row is 2e-19, at the cancellation
    # floor: against the exact rational x·K·u the kernel is off by 3.1e-9 and
    # the oracle by 1.6e-9 (relative), 4.7e-9 apart, past an rtol of 1e-9.
    @example(n=5, d=2, seed=10288, vf=0.99, scale=1.0)
    def test_matches_direct_computation(self, n, d, seed, vf, scale):
        model = make_model(n=n, m=200, seed=seed, d=d, variance_fraction=vf)
        rng = np.random.default_rng(seed)
        amps = rng.uniform(-10.0, 10.0, model.n)
        rows = np.vstack(
            [
                scale * rng.standard_normal((6, model.n_e)),
                np.zeros((1, model.n_e)),
                [a * direction(model, s) for s, a in enumerate(amps)],
            ]
        )
        for tag in ALL_METHODS:
            kernel = oracle_kernel(model, tag.method, tag.index)
            dens = oracle_denominators(model, kernel)
            if tag.method is ContributionMethod.RBC and (dens < 1e-12).any():
                with pytest.raises(DegenerateDirection) as err:
                    contribution_matrix(model, rows, tag)
                assert err.value.sensor == int(np.flatnonzero(dens < 1e-12)[0])
                continue
            scores = contribution_matrix(model, rows, tag)
            reference = oracle_contribution_matrix(model, rows, tag)
            # assert_allclose with rtol=1e-9, plus the per-entry rounding floor
            slack = rounding_floor(model, rows, tag) + 1e-9 * np.abs(reference)
            assert (np.abs(scores - reference) <= slack).all(), (tag, scores, reference)
            assert_same_winners(scores, reference)
        for index in DetectionIndex:
            kernel = oracle_kernel(model, ContributionMethod.RBC, index)
            dens = oracle_denominators(model, kernel)
            for sensor in range(model.n):
                if dens[sensor] < 1e-12:
                    with pytest.raises(DegenerateDirection):
                        estimate_matrix(model, rows, sensor, index)
                    continue
                assert np.array_equal(
                    estimate_matrix(model, rows, sensor, index),
                    oracle_estimate_matrix(model, rows, sensor, index),
                )

    @pytest.mark.parametrize("d", [0, 10])
    def test_estimate_bit_identical_on_sweep_sized_model(self, d):
        model = make_model(n=8, m=2000, seed=75, d=d)
        rows = np.random.default_rng(76).standard_normal((500, model.n_e))
        for index in DetectionIndex:
            for sensor in range(model.n):
                assert np.array_equal(
                    estimate_matrix(model, rows[3:], sensor, index),
                    oracle_estimate_matrix(model, rows[3:], sensor, index),
                )


class TestAttributionErrors:
    """Error contract of the cached-kernel path, on first and later calls."""

    @pytest.mark.parametrize("shape", [(3,), (4, 3), (4, 1), (2, 2, 2)])
    def test_contribution_width_mismatch(self, ref2, shape):
        for tag in ALL_METHODS:
            with pytest.raises(DimensionMismatch):
                contribution_matrix(ref2, np.zeros(shape), tag)

    @pytest.mark.parametrize("shape", [(3,), (4, 3), (4, 1), (2, 2, 2)])
    def test_estimate_width_mismatch(self, ref2, shape):
        for index in DetectionIndex:
            with pytest.raises(DimensionMismatch):
                estimate_matrix(ref2, np.zeros(shape), 0, index)

    @pytest.mark.parametrize(
        "sensor, error",
        [pytest.param(s, IndexOutOfRange, id=str(s)) for s in (-1, 2, 5)]
        + [pytest.param(s, ValueError, id=i) for s, i in ((True, "bool"), (np.True_, "numpy-bool"), (1.0, "float"))],
    )
    def test_estimate_sensor_out_of_range(self, ref2, sensor, error):
        # numpy would read a bool sensor as a mask, so it is refused by type like a float
        with pytest.raises(error):
            direction(ref2, sensor)
        for index in DetectionIndex:
            estimate_matrix(ref2, np.zeros((3, 2)), 1, index)  # kernel cached
            with pytest.raises(error):
                estimate_matrix(ref2, np.zeros((3, 2)), sensor, index)
            with pytest.raises(error):
                estimate_fault(ref2, np.zeros(2), sensor, index)

    def test_degenerate_contribution_raises_every_call(self):
        model = axis_model()
        x = np.ones((3, 2))
        for tag, sensor in ((RBC_SPE, 0), (RBC_T2, 1)):
            for _ in range(3):
                with pytest.raises(DegenerateDirection) as err:
                    contribution_matrix(model, x, tag)
                assert err.value.sensor == sensor
        for tag in (CP_SPE, CP_T2):  # plain contributions have no denominator
            assert contribution_matrix(model, x, tag).shape == (3, 2)

    def test_degenerate_estimate_raises_every_call(self):
        model = axis_model()
        x = np.ones((3, 2))
        for index, ok, bad in ((DetectionIndex.SPE, 1, 0), (DetectionIndex.T2, 0, 1)):
            for _ in range(3):
                np.testing.assert_array_equal(estimate_matrix(model, x, ok, index), 1.0)
                with pytest.raises(DegenerateDirection) as err:
                    estimate_matrix(model, x, bad, index)
                assert err.value.sensor == bad

    def test_singular_lambda_raises_before_degenerate_direction(self):
        # sensor 1 is degenerate for RBC-T2 too, but T2 is undefined first
        model = replace(axis_model(), lambda_hat=np.array([1e-12]))
        x = np.ones((3, 2))
        for _ in range(2):
            for tag in (CP_T2, RBC_T2):
                with pytest.raises(SingularLambda):
                    contribution_matrix(model, x, tag)
            with pytest.raises(SingularLambda):
                estimate_matrix(model, x, 1, DetectionIndex.T2)
        with pytest.raises(DegenerateDirection):
            contribution_matrix(model, x, RBC_SPE)
        assert contribution_matrix(model, x, CP_SPE).shape == (3, 2)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda model, x: contributions(model, x, CP_SPE), "contributions expects a single sample vector"),
        (lambda model, x: estimate_fault(model, x, 0), "estimate_fault expects a single sample vector"),
    ],
    ids=["contributions", "estimate_fault"],
)
def test_one_sample_calls_reject_a_batch(call, message):
    model = make_model(n=4, m=400, seed=5, d=2)
    with pytest.raises(Exception) as caught:
        call(model, np.zeros((2, model.n_e)))
    assert (type(caught.value), str(caught.value)) == (DimensionMismatch, message)
