import hashlib
import json
import sys
import warnings
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sensordiag import (
    ContributionMethod,
    DetectionIndex,
    IsolationMethod,
    PcaModel,
    ScaledDataset,
    ScalerParams,
    contribution_matrix,
    covariance,
    fit_pca,
    load_model,
    model_digest,
    save_model,
    spe,
    t2,
)
from sensordiag.errors import (
    CorruptModelFile,
    DegenerateSpectrum,
    EigendecompositionFailure,
    IndexOutOfRange,
    SchemaVersionMismatch,
    UndersampledFit,
)
from conftest import MODEL_DEFECTS, REF2_V, make_model, make_scaled, ref2_training_set, tampered_model


def identity_scaled(x):
    n = x.shape[1]
    return ScaledDataset(x, ScalerParams(np.zeros(n), np.ones(n)), tuple(f"s{i}" for i in range(n)))


class TestCovariance:
    def test_unit_variance_column(self):
        s = covariance(identity_scaled(np.array([[-1.0], [0.0], [1.0]])))
        np.testing.assert_allclose(s, [[1.0]], rtol=1e-15)

    def test_two_by_two_identity(self):
        s = covariance(identity_scaled(np.array([[1.0, 0.0], [0.0, 1.0]])))
        np.testing.assert_array_equal(s, np.eye(2))

    def test_perfectly_correlated_columns(self):
        x = np.array([[-1.0, -1.0], [0.0, 0.0], [1.0, 1.0]])
        s = covariance(identity_scaled(x))
        assert s[0, 1] == pytest.approx(1.0, rel=1e-15)

    def test_symmetry(self):
        data = make_scaled(n=6, m=100, seed=7)
        s = covariance(data)
        assert np.abs(s - s.T).max() < 1e-12


class TestFitPca:
    def test_ref2_low_fraction(self):
        model = fit_pca(ref2_training_set(), variance_fraction=0.90)
        assert model.l == 1
        np.testing.assert_allclose(model.lambda_hat, [1.8], rtol=1e-12)
        np.testing.assert_allclose(model.lambda_tilde, [0.2], rtol=1e-12)
        np.testing.assert_allclose(np.abs(model.p_hat[:, 0]), REF2_V[:, 0], rtol=1e-12)
        # sign convention: largest-magnitude entry positive
        assert model.p_hat[0, 0] > 0

    def test_ref2_high_fraction(self):
        model = fit_pca(ref2_training_set(), variance_fraction=0.98)
        assert model.l == 2

    def test_identity_covariance_full_fraction(self):
        with pytest.warns(UndersampledFit):
            model = fit_pca(
                identity_scaled(np.eye(2)), variance_fraction=1.0
            )
        assert model.l == 2
        assert model.p_tilde.shape == (2, 0)
        assert spe(model, np.array([3.0, -4.0])) == 0.0

    def test_repeated_block_never_split(self):
        # isotropic spectrum: the split may not cut the repeated eigenvalue
        x = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]) * np.sqrt(1.5)
        model = fit_pca(identity_scaled(x), variance_fraction=0.5)
        assert model.l == 2

    def test_monotone_component_rule(self):
        data = make_scaled(n=6, m=300, seed=8)
        ls = [fit_pca(data, vf).l for vf in (0.5, 0.7, 0.9, 0.98, 1.0)]
        assert ls == sorted(ls)

    def test_thresholds_from_training_quantiles(self):
        data = make_scaled(n=5, m=400, seed=9)
        model = fit_pca(data, 0.9, alpha=0.05)
        exceed = np.mean(spe(model, data.samples) > model.spe_limit)
        assert exceed <= 0.05 + 1.0 / data.m
        exceed_t2 = np.mean(t2(model, data.samples) > model.t2_limit)
        assert exceed_t2 <= 0.05 + 1.0 / data.m

    def test_degenerate_spectrum_warns(self):
        rng = np.random.default_rng(10)
        base = rng.standard_normal((50, 2))
        x = np.hstack([base, base[:, :1] + base[:, 1:]])  # exact linear dependence
        with pytest.warns(DegenerateSpectrum):
            fit_pca(identity_scaled(x), 0.9)

    def test_invalid_parameters(self):
        data = make_scaled(n=3, m=50, seed=11)
        with pytest.raises(ValueError):
            fit_pca(data, 0.0)
        with pytest.raises(ValueError):
            fit_pca(data, 0.9, alpha=1.0)


class TestModelInvariants:
    @pytest.mark.parametrize("seed,n,d,vf", [(0, 3, 0, 0.8), (1, 5, 0, 0.9), (2, 4, 2, 0.95)])
    def test_projector_algebra(self, seed, n, d, vf):
        model = make_model(n=n, m=500, seed=seed, d=d, variance_fraction=vf)
        eye = np.eye(model.n_e)
        gram = np.hstack([model.p_hat, model.p_tilde])
        np.testing.assert_allclose(gram.T @ gram, eye, atol=1e-9)
        np.testing.assert_allclose(model.c_hat + model.c_tilde, eye, atol=1e-9)
        np.testing.assert_allclose(model.c_hat @ model.c_hat, model.c_hat, atol=1e-9)
        np.testing.assert_allclose(model.c_tilde @ model.c_tilde, model.c_tilde, atol=1e-9)
        np.testing.assert_allclose(model.c_hat @ model.c_tilde, 0 * eye, atol=1e-9)

    def test_spectrum_reconstruction(self):
        data = make_scaled(n=5, m=400, seed=12)
        model = fit_pca(data, 0.9)
        s = covariance(data)
        rebuilt = (model.p_hat * model.lambda_hat) @ model.p_hat.T + (
            model.p_tilde * model.lambda_tilde
        ) @ model.p_tilde.T
        np.testing.assert_allclose(rebuilt, s, atol=1e-8)

    def test_eigenvalue_ordering(self):
        model = make_model(n=6, m=400, seed=13, variance_fraction=0.9)
        w = np.concatenate([model.lambda_hat, model.lambda_tilde])
        assert (np.diff(w) <= 1e-12).all()
        assert model.lambda_hat.min() >= model.lambda_tilde.max() - 1e-12

    def test_lag_zero_embedding_matches_plain_fit(self):
        plain = make_scaled(n=4, m=300, seed=14, d=0)
        model_a = fit_pca(plain, 0.9)
        model_b = fit_pca(make_scaled(n=4, m=300, seed=14, d=0), 0.9)
        x = np.random.default_rng(15).standard_normal((100, 4))
        np.testing.assert_array_equal(spe(model_a, x), spe(model_b, x))
        np.testing.assert_array_equal(t2(model_a, x), t2(model_b, x))


    def test_fields_cannot_be_assigned(self):
        # The projectors and attribution kernels are cached on first use, so a
        # field assigned afterwards would leave scoring on the old loadings.
        model = make_model(n=4, m=300, seed=16, d=1)
        tag = IsolationMethod(ContributionMethod.RBC, DetectionIndex.T2)
        before = contribution_matrix(model, np.ones((3, model.n_e)), tag)
        for field in fields(model):
            with pytest.raises(FrozenInstanceError):
                setattr(model, field.name, getattr(model, field.name))
        assert np.array_equal(contribution_matrix(model, np.ones((3, model.n_e)), tag), before)


class TestProject:
    """A sample splits into its principal part ``x @ c_hat`` and its residual
    part ``x @ c_tilde``."""

    def test_ref2_vector(self, ref2):
        x = np.array([1.0, 0.0])
        np.testing.assert_allclose(x @ ref2.c_hat, [0.5, 0.5], rtol=1e-12)
        np.testing.assert_allclose(x @ ref2.c_tilde, [0.5, -0.5], rtol=1e-12)

    def test_eigenvector_has_no_residual(self, ref2):
        np.testing.assert_allclose(ref2.p_hat[:, 0] @ ref2.c_tilde, np.zeros(2), atol=1e-12)

    def test_zero_vector(self, ref2):
        x = np.zeros(2)
        assert not (x @ ref2.c_hat).any() and not (x @ ref2.c_tilde).any()

    def test_parts_sum_and_orthogonality(self):
        model = make_model(n=5, m=300, seed=16)
        rng = np.random.default_rng(17)
        for _ in range(50):
            x = rng.standard_normal(model.n_e)
            x_hat, x_tilde = x @ model.c_hat, x @ model.c_tilde
            np.testing.assert_allclose(x_hat + x_tilde, x, atol=1e-9)
            assert abs(x_hat @ x_tilde) < 1e-9


class TestPersistence:
    def test_round_trip_exact(self, ref2, tmp_path):
        path = tmp_path / "model.json"
        save_model(ref2, path)
        back = load_model(path)
        x = np.array([1.0, 0.0])
        assert spe(back, x) == spe(ref2, x)
        assert t2(back, x) == t2(ref2, x)
        np.testing.assert_array_equal(back.p_hat, ref2.p_hat)
        np.testing.assert_array_equal(back.scaler.std, ref2.scaler.std)
        assert back.sensor_names == ref2.sensor_names

    def test_round_trip_fitted_model(self, tmp_path):
        model = make_model(n=5, m=300, seed=18, d=1, variance_fraction=0.95)
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        np.testing.assert_array_equal(back.p_tilde, model.p_tilde)
        np.testing.assert_array_equal(back.lambda_hat, model.lambda_hat)
        assert back.spe_limit == model.spe_limit
        assert model_digest(back) == model_digest(model)
        # the file stores the scaler tiled over the lag blocks; the model holds it once
        assert len(back.scaler) == model.n == 5
        np.testing.assert_array_equal(back.scaler.mean, model.scaler.mean)
        np.testing.assert_array_equal(back.scaler.std, model.scaler.std)

    def test_extended_scaler_rejected(self):
        # a scaler tiled over the lag blocks would be saved as a file load_model rejects
        model = make_model(n=3, m=200, seed=18, d=1)
        mean, std = model.scaler.mean[: model.n], model.scaler.std[: model.n]
        tiled = ScalerParams(np.tile(mean, 2), np.tile(std, 2))
        with pytest.raises(ValueError, match="scaler has 6 entries for 3 sensors"):
            replace(model, scaler=tiled)

    def test_missing_field(self, ref2, tmp_path):
        path = tmp_path / "model.json"
        save_model(ref2, path)
        payload = json.loads(path.read_text())
        del payload["p_tilde"]
        path.write_text(json.dumps(payload))
        with pytest.raises(CorruptModelFile):
            load_model(path)

    def test_version_gate(self, ref2, tmp_path):
        path = tmp_path / "model.json"
        save_model(ref2, path)
        payload = json.loads(path.read_text())
        payload["schema_version"] = 0
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaVersionMismatch):
            load_model(path)

    @pytest.mark.parametrize("version", [True, 1.0, "1"], ids=["true", "1.0", "string"])
    def test_version_must_be_the_integer_one(self, ref2, tmp_path, version):
        path = tmp_path / "model.json"
        save_model(ref2, path)
        payload = json.loads(path.read_text())
        payload["schema_version"] = version
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaVersionMismatch) as err:
            load_model(path)
        assert str(err.value) == f"{path}: schema version {version!r}, expected 1"

    @pytest.mark.parametrize(
        "scaler",
        [[1.0], {"mean": [0.0]}, {"mean": [0.0], "std": [1.0], "var": [1.0]}],
        ids=["list", "no-std", "extra-key"],
    )
    def test_scaler_must_hold_mean_and_std_only(self, ref2, tmp_path, scaler):
        path = tmp_path / "model.json"
        save_model(ref2, path)
        payload = json.loads(path.read_text())
        payload["scaler"] = scaler
        path.write_text(json.dumps(payload))
        with pytest.raises(CorruptModelFile) as err:
            load_model(path)
        assert str(err.value) == f'{path}: scaler must be an object with keys "mean" and "std" only'

    def test_unknown_key_rejected(self, ref2, tmp_path):
        path = tmp_path / "model.json"
        save_model(ref2, path)
        payload = json.loads(path.read_text())
        payload["extra"] = 1
        path.write_text(json.dumps(payload))
        with pytest.raises(CorruptModelFile):
            load_model(path)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("n", "2"),
            ("n", 2.0),
            ("d", 0.5),
            ("d", False),
            ("l", True),
            ("l", None),
            ("spe_limit", float("nan")),
            ("spe_limit", float("inf")),
            ("spe_limit", -0.5),
            ("t2_limit", -1.0),
            ("t2_limit", "1.0"),
            ("t2_limit", True),
            pytest.param("t2_limit", 10**400, id="t2_limit-int_too_large_for_float"),
        ],
    )
    def test_ill_typed_count_or_bad_limit_rejected(self, ref2, tmp_path, key, value):
        path = tmp_path / "model.json"
        save_model(ref2, path)
        payload = json.loads(path.read_text())
        payload[key] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(CorruptModelFile, match=f"{key} must be"):
            load_model(path)

    def test_integer_limit_accepted(self, ref2, tmp_path):
        path = tmp_path / "model.json"
        save_model(ref2, path)
        payload = json.loads(path.read_text())
        payload["spe_limit"] = 3
        path.write_text(json.dumps(payload))
        assert load_model(path).spe_limit == 3.0

    def test_full_variance_fit_round_trips(self, tmp_path):
        # Keeping every component leaves no residual space, so SPE and its
        # limit are exactly 0.0; the saved model must still load.
        model = make_model(n=4, m=300, seed=3, d=2, variance_fraction=1.0)
        assert model.spe_limit == 0.0
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert back.spe_limit == 0.0
        assert back.t2_limit == model.t2_limit
        assert model_digest(back) == model_digest(model)

    def test_digest_falls_back_to_hashlib(self, tmp_path, monkeypatch):
        # Without CPython's built-in SHA-256 module, model_digest takes
        # hashlib's sha256, and the digest stays the same.
        model = make_model(n=4, m=300, seed=19, d=1)
        save_model(model, tmp_path / "model.json")
        payload = json.loads((tmp_path / "model.json").read_text(encoding="utf-8"))
        expected = hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()
        assert model_digest(model) == expected
        calls, real = [], hashlib.sha256

        def spy(blob):
            calls.append(len(blob))
            return real(blob)

        monkeypatch.setattr(hashlib, "sha256", spy)
        monkeypatch.setitem(sys.modules, "_sha2", None)  # import then raises ImportError
        monkeypatch.setitem(sys.modules, "_sha256", None)
        assert model_digest(model) == expected
        assert len(calls) == 1

    def test_not_json(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("not json at all")
        with pytest.raises(CorruptModelFile):
            load_model(path)

    @pytest.mark.parametrize(
        "text",
        [b'{"n": ' + b"1" * 5000 + b"}", b'{"n": "\xff"}'],
        ids=["int_over_digit_limit", "bad_utf8"],
    )
    def test_unreadable_json_rejected(self, tmp_path, text):
        path = tmp_path / "model.json"
        path.write_bytes(text)
        with pytest.raises(CorruptModelFile):
            load_model(path)


class TestLoadInvariants:
    """``load_model`` checks the fitted model's invariants, not only shapes."""

    @pytest.fixture(scope="class")
    def payload(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("invariants") / "model.json"
        model = make_model(n=4, m=400, seed=5, d=2)
        assert model.l >= 2 and model.l < model.n_e
        save_model(model, path)
        return path.read_text()

    @pytest.mark.parametrize("defect", sorted(MODEL_DEFECTS))
    def test_defect_rejected(self, payload, tmp_path, defect):
        text, message = tampered_model(payload, defect)
        path = tmp_path / "model.json"
        path.write_text(text)
        with pytest.raises(CorruptModelFile, match=message):
            load_model(path)

    @pytest.mark.parametrize(
        "field, value",
        [("lambda_hat", [1.0, [2.0]]), ("p_hat", [[[1.0]]]), ("p_tilde", [[1.0, 2.0], [3.0]]),
         ("lambda_tilde", [[1.0], [2.0]]), ("lambda_hat", ["one"])],
    )
    def test_misshaped_field_is_named_with_its_shape(self, payload, tmp_path, field, value):
        raw = json.loads(payload)
        n_e, l = raw["n"] * (raw["d"] + 1), raw["l"]
        shape = {"p_hat": (n_e, l), "p_tilde": (n_e, n_e - l), "lambda_hat": (l,), "lambda_tilde": (n_e - l,)}
        raw[field] = value
        path = tmp_path / "model.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(CorruptModelFile) as caught:
            load_model(path)
        assert str(caught.value) == f"{path}: {field} must be an array of numbers of shape {shape[field]}"

    def test_untampered_payload_loads(self, payload, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(payload)
        back = load_model(path)
        save_model(back, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_text() == payload

    @given(
        n=st.integers(min_value=1, max_value=6),
        d=st.integers(min_value=0, max_value=4),
        m=st.integers(min_value=8, max_value=200),
        seed=st.integers(min_value=0, max_value=1000),
        vf=st.sampled_from([0.5, 0.9, 0.99, 1.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_fit_loads(self, tmp_path_factory, n, d, m, seed, vf):
        # Undersampled and rank-deficient fits included: what fit_pca writes,
        # load_model must accept byte for byte.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = make_model(n=n, m=m + d, seed=seed, d=d, variance_fraction=vf)
        path = tmp_path_factory.mktemp("fit") / "model.json"
        save_model(model, path)
        again = path.with_name("again.json")
        save_model(load_model(path), again)
        assert again.read_text() == path.read_text()


class TestResidualStd:
    def test_ref2_closed_form(self, ref2):
        # residual variance of sensor 0: 0.2 * (1/sqrt(2))^2 = 0.1
        assert ref2.residual_std(0) / ref2.scaler.std[0] == pytest.approx(
            np.sqrt(0.1), rel=1e-12
        )

    def test_physical_units_scale_by_std(self, ref2):
        model = replace(ref2, scaler=ScalerParams(np.zeros(2), np.array([2.0, 3.0])))
        assert model.residual_std(1) == pytest.approx(3.0 * ref2.residual_std(1), rel=1e-12)

    def test_matches_empirical_residual_spread(self):
        data = make_scaled(n=5, m=5000, seed=19)
        model = fit_pca(data, 0.8)
        resid = data.samples @ model.c_tilde
        for i in range(model.n):
            empirical = resid[:, i].std(ddof=1)
            assert model.residual_std(i) / model.scaler.std[i] == pytest.approx(
                empirical, rel=0.05
            )


UNIT2 = ScalerParams(np.zeros(2), np.ones(2))

# Each call, with the error it must raise.
BAD_INPUTS = {
    "residual-std-past-end": (lambda: make_model(n=4, m=400, seed=5).residual_std(4), IndexOutOfRange,
                              "sensor 4 not in [0, 4)"),
    "residual-std-negative": (lambda: make_model(n=4, m=400, seed=5).residual_std(-1), IndexOutOfRange,
                              "sensor -1 not in [0, 4)"),
    "covariance-one-row": (lambda: covariance(ScaledDataset(np.zeros((1, 2)), UNIT2, ("a", "b"))), ValueError,
                           "need at least 2 samples for a covariance estimate"),
    "fit-zero-spectrum": (lambda: fit_pca(ScaledDataset(np.zeros((5, 2)), UNIT2, ("a", "b"))),
                          EigendecompositionFailure, "covariance spectrum is entirely zero"),
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
@pytest.mark.filterwarnings("ignore::sensordiag.errors.DegenerateSpectrum")  # all-zero data warns first
def test_bad_input_raises_its_error(case):
    call, error, message = BAD_INPUTS[case]
    with pytest.raises(Exception) as caught:
        call()
    assert (type(caught.value), str(caught.value)) == (error, message)
