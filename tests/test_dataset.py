import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sensordiag import (
    RawDataset,
    ScaledDataset,
    ScalerParams,
    apply_scaler,
    embed_lags,
    fit_pca,
    fit_scaler,
    read_raw_csv,
    save_model,
    write_raw_csv,
)
from sensordiag.errors import (
    CsvParseError,
    DimensionMismatch,
    LagTooLarge,
    NonFiniteResult,
    ZeroVarianceColumn,
)
from sensordiag.dataset import _CSV_CHUNK_ROWS, _embedded_rows
from conftest import make_raw, oracle_inverse_scaler, oracle_read_raw_csv, oracle_write_raw_csv


def raw_from(*rows, names=None):
    arr = np.array(rows, dtype=float)
    names = names or tuple(f"s{i + 1}" for i in range(arr.shape[1]))
    return RawDataset(arr, names)


class TestFitScaler:
    def test_symmetric_column(self):
        sc = fit_scaler(raw_from([-1.0], [0.0], [1.0]))
        assert sc.mean[0] == pytest.approx(0.0, abs=1e-15)
        assert sc.std[0] == pytest.approx(1.0, rel=1e-15)

    def test_constant_column_rejected(self):
        with pytest.raises(ZeroVarianceColumn) as exc:
            fit_scaler(raw_from([5.0], [5.0], [5.0], names=("dead",)))
        assert "dead" in str(exc.value)

    @pytest.mark.parametrize(
        "column", [[1e200, -1e200, 1e200], [1.7e308, 1.7e308, 1.6e308]], ids=["std", "mean"]
    )
    def test_overflowing_column_rejected(self, column):
        rows = [[1.0, v] for v in column]
        with pytest.raises(NonFiniteResult, match="sensor 'hot'.*overflows float64"):
            fit_scaler(raw_from(*rows, names=("ok", "hot")))

    def test_two_columns_direct_arithmetic(self):
        # mean = [3, 4]; std (ddof=1) = sqrt(((1-3)^2 + (5-3)^2) / 2) = 2
        sc = fit_scaler(raw_from([1.0, 2.0], [3.0, 4.0], [5.0, 6.0]))
        np.testing.assert_allclose(sc.mean, [3.0, 4.0], rtol=1e-15)
        np.testing.assert_allclose(sc.std, [2.0, 2.0], rtol=1e-15)


class TestApplyScaler:
    def test_identity_scaler_is_noop(self):
        raw = make_raw(n=3, m=20, seed=1)
        sc = ScalerParams(np.zeros(3), np.ones(3))
        out = apply_scaler(raw, sc)
        np.testing.assert_array_equal(out.samples, raw.samples)

    def test_shift_only(self):
        out = apply_scaler(
            raw_from([3.0], [4.0], [5.0]), ScalerParams([4.0], [1.0])
        )
        np.testing.assert_array_equal(out.samples.ravel(), [-1.0, 0.0, 1.0])

    def test_shift_and_scale(self):
        out = apply_scaler(raw_from([0.0], [4.0]), ScalerParams([2.0], [2.0]))
        np.testing.assert_array_equal(out.samples.ravel(), [-1.0, 1.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            apply_scaler(make_raw(n=3), ScalerParams(np.zeros(2), np.ones(2)))

    def test_round_trip_inverse(self):
        raw = make_raw(n=5, m=100, seed=2)
        scaled = apply_scaler(raw, fit_scaler(raw))
        back = oracle_inverse_scaler(scaled)
        np.testing.assert_allclose(back, raw.samples, rtol=1e-12)

    def test_self_standardization(self):
        raw = make_raw(n=6, m=300, seed=3)
        scaled = apply_scaler(raw, fit_scaler(raw))
        assert np.abs(scaled.samples.mean(axis=0)).max() < 1e-9
        assert np.abs(scaled.samples.std(axis=0, ddof=1) - 1.0).max() < 1e-9


class TestEmbedLags:
    def test_zero_depth_is_identity(self):
        raw = make_raw(n=2, m=10)
        scaled = apply_scaler(raw, fit_scaler(raw))
        out = embed_lags(scaled, 0)
        np.testing.assert_array_equal(out.samples, scaled.samples)
        assert out.sensor_names == scaled.sensor_names
        assert out.lag_depth == 0

    def test_depth_one_layout(self):
        r1, r2, r3 = [1.0, 2.0], [3.0, 4.0], [5.0, 6.0]
        scaled = apply_scaler(
            raw_from(r1, r2, r3), ScalerParams(np.zeros(2), np.ones(2))
        )
        out = embed_lags(scaled, 1)
        np.testing.assert_array_equal(out.samples, [r2 + r1, r3 + r2])
        assert out.sensor_names == ("s1", "s2")
        assert out.lag_depth == 1

    def test_lag_too_large(self):
        raw = make_raw(n=2, m=3)
        scaled = apply_scaler(raw, fit_scaler(raw))
        with pytest.raises(LagTooLarge):
            embed_lags(scaled, 3)

    @given(
        d=st.integers(min_value=0, max_value=6),
        m=st.integers(min_value=7, max_value=30),
        n=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_shape_and_value_preservation(self, d, m, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((m, n))
        scaled = apply_scaler(
            RawDataset(x, tuple(f"c{i}" for i in range(n))),
            ScalerParams(np.zeros(n), np.ones(n)),
        )
        out = embed_lags(scaled, d)
        assert out.samples.shape == (m - d, n * (d + 1))
        for k in range(m - d):
            for lag in range(d + 1):
                for i in range(n):
                    assert out.samples[k, i + lag * n] == x[k + d - lag, i]

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("d", [0, 1, 4])
    def test_output_is_a_fresh_contiguous_copy(self, d, n):
        raw = make_raw(n=n, m=12, seed=5)
        scaled = apply_scaler(raw, fit_scaler(raw))
        before = scaled.samples.copy()
        out = embed_lags(scaled, d)
        assert out.samples.flags.c_contiguous
        assert not np.shares_memory(out.samples, scaled.samples)
        base = out.samples
        while base is not None:  # not a view of the input at any depth
            assert base is not scaled.samples
            base = base.base
        out.samples[:] = 0.0
        np.testing.assert_array_equal(scaled.samples, before)

    def test_scaler_passes_through_physical(self):
        raw = make_raw(n=3, m=30, seed=4)
        scaled = apply_scaler(raw, fit_scaler(raw))
        assert embed_lags(scaled, 2).scaler is scaled.scaler

    def test_model_file_holds_scaler_tiled(self, tmp_path):
        raw = make_raw(n=3, m=30, seed=4)
        scaled = apply_scaler(raw, fit_scaler(raw))
        save_model(fit_pca(embed_lags(scaled, 2)), tmp_path / "model.json")
        stored = json.loads((tmp_path / "model.json").read_text("utf-8"))["scaler"]
        assert stored["mean"] == np.tile(scaled.scaler.mean, 3).tolist()
        assert stored["std"] == np.tile(scaled.scaler.std, 3).tolist()


class TestEmbeddedRows:
    """``_embedded_rows`` gives the bytes of the whole series scaled, embedded and sliced."""

    @staticmethod
    def check(m, n, d, start, stop, seed):
        rng = np.random.default_rng(seed)
        raw = RawDataset(rng.standard_normal((m, n)) * 50.0 + 3.0, tuple(f"c{i}" for i in range(n)))
        scaler = ScalerParams(rng.standard_normal(n), rng.uniform(0.1, 10.0, n))
        expected = embed_lags(apply_scaler(raw, scaler), d).samples[range(start, stop)]
        for rows in (range(start, stop), slice(start, stop)):  # sweep passes ranges, monitor slices
            got = _embedded_rows(raw, scaler, d, rows)
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()

    @given(
        d=st.sampled_from([0, 1, 3]),
        n=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_any_range_matches_the_whole_series(self, d, n, seed, data):
        m = data.draw(st.integers(min_value=max(2, d + 1), max_value=40), label="m")
        start = data.draw(st.integers(min_value=0, max_value=m - d - 1), label="start")
        stop = data.draw(st.integers(min_value=start + 1, max_value=m - d), label="stop")
        self.check(m, n, d, start, stop, seed)

    @pytest.mark.parametrize(
        ("m", "d", "start", "stop"),
        [(6, 0, 5, 6), (6, 0, 0, 1), (9, 3, 0, 2), (9, 3, 0, 6)],
        ids=["one-row-at-d0-clamped", "one-row-at-d0-grown", "from-row-0", "full-series"],
    )
    def test_edge_ranges(self, m, d, start, stop):
        self.check(m, 2, d, start, stop, seed=7)


class TestValidation:
    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            RawDataset(np.array([[1.0], [np.nan]]), ("a",))

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            RawDataset(np.array([[1.0]]), ("a",))

    def test_duplicate_names(self):
        with pytest.raises(ValueError):
            RawDataset(np.zeros((3, 2)) + [[0], [1], [2]], ("a", "a"))

    def test_scaler_positive_std(self):
        with pytest.raises(ValueError):
            ScalerParams([0.0], [0.0])

    def test_negative_lag(self):
        raw = make_raw(n=2, m=10)
        scaled = apply_scaler(raw, fit_scaler(raw))
        with pytest.raises(ValueError, match="lag depth must be a non-negative integer, got -1"):
            embed_lags(scaled, -1)

    def test_numpy_lag_depth_stored_as_int(self):
        raw = make_raw(n=2, m=10)
        scaled = apply_scaler(raw, fit_scaler(raw))
        assert type(embed_lags(scaled, np.int64(2)).lag_depth) is int

    def test_scaled_names_count_physical_sensors(self):
        # four columns at lag depth 1 hold two sensors; one name per column is wrong too
        scaler = ScalerParams(np.zeros(2), np.ones(2))
        for names in (("a",), ("a", "b", "c"), ("a", "b", "c", "d")):
            with pytest.raises(ValueError, match="one name per physical sensor"):
                ScaledDataset(np.zeros((3, 4)), scaler, names, lag_depth=1)
        assert ScaledDataset(np.zeros((3, 4)), scaler, ("a", "b"), lag_depth=1).sensor_names == ("a", "b")
        # so is the scaler: one entry per sensor, not per column
        tiled = ScalerParams(np.zeros(4), np.ones(4))
        with pytest.raises(ValueError, match="scaler length does not match sensor count"):
            ScaledDataset(np.zeros((3, 4)), tiled, ("a", "b"), lag_depth=1)


# Each malformed body and the message after "<path>" that it must raise.
MALFORMED = {
    "a,b\n1.0\n2.0,3.0\n": ":2: expected 2 cells, got 1",  # ragged row
    "a,b\n1.0,x\n2.0,3.0\n": ":2: unparseable cell",
    "a,b\n1.0,nan\n2.0,3.0\n": ":2: non-finite value",
    "a,a\n1.0,2.0\n3.0,4.0\n": ": duplicate sensor names in header",
    "a,b\n1.0,2.0\n": ": need at least 2 data rows, got 1",
    "": ": file is empty",
}


def read_or_error(reader, path):
    """The dataset ``reader`` returns, or the message of its ``CsvParseError``."""
    try:
        return reader(path)
    except CsvParseError as exc:
        return str(exc)


class TestCsv:
    def test_round_trip(self, tmp_path):
        raw = make_raw(n=3, m=25, seed=5)
        path = tmp_path / "data.csv"
        write_raw_csv(raw, path)
        back = read_raw_csv(path)
        np.testing.assert_array_equal(back.samples, raw.samples)
        assert back.sensor_names == raw.sensor_names

    @pytest.mark.parametrize("body", list(MALFORMED))
    def test_malformed_inputs(self, tmp_path, body):
        path = tmp_path / "bad.csv"
        path.write_text(body, encoding="utf-8")
        with pytest.raises(CsvParseError) as exc:
            read_raw_csv(path)
        assert str(exc.value) == f"{path}{MALFORMED[body]}"

    def test_writer_bytes_match_per_cell_repr(self, tmp_path):
        values = [-0.0, 5e-324, 1e-5, 1e16, 0.1 + 0.2, -1.5e-300, 123456789.0]
        raw = RawDataset(np.array([values, values[::-1]]), [f"s{i}" for i in range(7)])
        write_raw_csv(raw, tmp_path / "new.csv")
        oracle_write_raw_csv(raw, tmp_path / "old.csv")
        written = (tmp_path / "new.csv").read_bytes()
        assert written == (tmp_path / "old.csv").read_bytes()
        assert b"-0.0,5e-324,1e-05,1e+16,0.30000000000000004," in written
        back = read_raw_csv(tmp_path / "new.csv").samples
        assert back.tobytes() == raw.samples.tobytes()

    # Lines just past 8192-row multiples, which are also write-block boundaries.
    @pytest.mark.parametrize("bad_line", [8193, 8194, 16389])
    def test_error_line_after_a_chunk_boundary(self, tmp_path, bad_line):
        assert (bad_line - 1) // 8192 * 8192 % _CSV_CHUNK_ROWS == 0
        lines = ["a,b"] + ["1.0,2.0"] * (2 * 8192 + 10)
        lines[bad_line - 1] = "1.0,inf"
        path = tmp_path / "long.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CsvParseError) as exc:
            read_raw_csv(path)
        assert str(exc.value) == f"{path}:{bad_line}: non-finite value"

    def test_rows_span_several_chunks(self, tmp_path):
        raw = make_raw(n=2, m=2 * _CSV_CHUNK_ROWS + 3, seed=6)
        path = tmp_path / "long.csv"
        write_raw_csv(raw, path)
        assert read_raw_csv(path).samples.tobytes() == raw.samples.tobytes()


# Cells the strict reader must treat exactly as float() does.
ODD_CELLS = ["1_0", " 2.5 ", '"3.25"', "x", "nan", "1e400", "-Infinity", "", "1__0", "-0", "\uff11"]


@st.composite
def csv_bodies(draw):
    """A header and body rows mixing float reprs, odd cells, ragged and blank rows."""
    n = draw(st.integers(1, 4))
    cell = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f" {v!r}\t"),
        st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f'"{v!r}"'),
        st.sampled_from(ODD_CELLS),
    )
    good = st.lists(
        st.floats(allow_nan=False, allow_infinity=False).map(repr), min_size=n, max_size=n
    )
    row = st.one_of(
        good,
        good,
        st.lists(cell, min_size=n, max_size=n),
        st.lists(cell, min_size=0, max_size=n + 2),  # ragged or blank
    )
    rows = draw(st.lists(row, min_size=0, max_size=12))
    return [f"c{i}" for i in range(n)], rows


@pytest.mark.filterwarnings("error")
class TestCsvReaderOracle:
    @given(
        case=csv_bodies(),
        newline=st.sampled_from(["\n", "\r\n", "\r"]),
        final_newline=st.booleans(),
        pad=st.sampled_from([0, _CSV_CHUNK_ROWS - 3]),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_row_by_row_reader(self, tmp_path_factory, case, newline, final_newline, pad):
        names, rows = case
        # ``pad`` good rows first put the drawn rows past the first 8192 lines.
        lines = [",".join(names)] + [",".join(["1.5"] * len(names))] * pad
        lines += [",".join(row) for row in rows]
        path = tmp_path_factory.mktemp("csv") / "data.csv"
        body = newline.join(lines) + (newline if final_newline else "")
        path.write_bytes(body.encode("utf-8"))
        got = read_or_error(read_raw_csv, path)
        want = read_or_error(oracle_read_raw_csv, path)
        if isinstance(want, str):
            assert got == want
        else:
            assert not isinstance(got, str), got
            assert got.samples.tobytes() == want.samples.tobytes()
            assert got.sensor_names == want.sensor_names


# Inputs ``np.loadtxt`` reads differently from ``float`` (it skips blank
# lines, parses ``Infinity``, warns on an empty body) or that exercise its
# line handling, with the outcome each must keep: the message after
# ``<path>``, or the values read.
LOADTXT_HAZARDS = {
    "blank-line-mid-file": (b"a,b\n1,2\n\n3,4\n", ":3: expected 2 cells, got 0"),
    "blank-line-last": (b"a,b\n1,2\n3,4\n\n", ":4: expected 2 cells, got 0"),
    "blank-crlf-line": (b"a,b\r\n1,2\r\n\r\n3,4\r\n", ":3: expected 2 cells, got 0"),
    "blank-cr-line": (b"a,b\r1,2\r\r3,4\r", ":3: expected 2 cells, got 0"),
    "whitespace-only-line": (b"a,b\n1,2\n \t\n3,4\n", ":3: expected 2 cells, got 1"),
    "whitespace-only-one-column": (b"a\n1\n  \n3\n", ":3: unparseable cell"),
    "hash": (b"a,b\n1,2\n3,4 # note\n", ":3: unparseable cell"),
    "hash-line": (b"a,b\n# 1,2\n3,4\n5,6\n", ":2: unparseable cell"),
    "infinity": (b"a,b\n1,2\n3,Infinity\n", ":3: non-finite value"),
    "overflow": (b"a,b\n1,2\n3,1e400\n", ":3: non-finite value"),
    "header-only": (b"a,b\n", ": need at least 2 data rows, got 0"),
    "header-only-no-newline": (b"a,b", ": need at least 2 data rows, got 0"),
    "blank-header": (b"\n1,2\n3,4\n", ": blank sensor name in header"),
    "cr-line-ends": (b"a,b\r1,2\r3,4\r", [[1.0, 2.0], [3.0, 4.0]]),
    "no-final-newline": (b"a,b\n1,2\n3,4", [[1.0, 2.0], [3.0, 4.0]]),
    "one-column": (b"a\n1\n-2.5\n", [[1.0], [-2.5]]),
    "underscore-digits": (b"a,b\n1_0,2\n3,4\n", [[10.0, 2.0], [3.0, 4.0]]),
    "quoted-cell": (b'a,b\n"1",2\n3,4\n', [[1.0, 2.0], [3.0, 4.0]]),
    "unicode-padding": ("a,b\n\u20031\u2003,2\n3,\u0664\n".encode(), [[1.0, 2.0], [3.0, 4.0]]),
    "wide-rows": (b"a\n1,2\n3,4\n", ":2: expected 1 cells, got 2"),
}


@pytest.mark.filterwarnings("error")
class TestLoadtxtHazards:
    @pytest.mark.parametrize("name", list(LOADTXT_HAZARDS))
    def test_same_outcome_as_row_by_row_reader(self, tmp_path, name):
        body, expected = LOADTXT_HAZARDS[name]
        path = tmp_path / "data.csv"
        path.write_bytes(body)
        got = read_or_error(read_raw_csv, path)
        want = read_or_error(oracle_read_raw_csv, path)
        if isinstance(expected, str):
            assert got == want == f"{path}{expected}"
        else:
            assert got.samples.tobytes() == want.samples.tobytes()
            assert got.samples.tolist() == expected

    def test_header_names_survive_the_fast_path(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b'"x,1" , y\r\n1,2\r\n3,4\r\n')
        assert read_raw_csv(path).sensor_names == ("x,1", "y")


def _not_utf8_bodies():
    good = b"1.0,2.0\n" * 2000  # past the first decoded block of the file
    return {
        "header": b"a\xff\xfe,b\n1,2\n3,4\n",
        "body-fast-path": b"a,b\n" + good + b"3,4\xff\n",
        # ``1_0`` sends the body to the row-by-row reader before the bad byte
        "body-row-by-row": b"a,b\n1_0,2\n" + good + b"3,\xfe4\n",
    }


def _long_cell_bodies():
    # One over the csv module's default field limit; np.loadtxt reads it as 0.0.
    cell = b"0." + b"0" * 131071
    return {
        "header": b"a," + cell + b"\n1,2\n3,4\n",
        "body-fast-path": b"a,b\n1,2\n3," + cell + b"\n",
        "body-row-by-row": b"a,b\n1_0,2\n3," + cell + b"\n",
    }


class TestCsvDataErrors:
    @pytest.mark.parametrize("where", list(_not_utf8_bodies()))
    def test_not_utf8_is_a_parse_error(self, tmp_path, where):
        path = tmp_path / "data.csv"
        path.write_bytes(_not_utf8_bodies()[where])
        with pytest.raises(CsvParseError) as exc:
            read_raw_csv(path)
        assert str(exc.value) == f"{path}: not UTF-8 text (invalid start byte)"

    @pytest.mark.parametrize("where, line", [("header", 1), ("body-fast-path", 3), ("body-row-by-row", 3)])
    def test_cell_over_the_field_limit_names_its_line(self, tmp_path, where, line):
        path = tmp_path / "data.csv"
        path.write_bytes(_long_cell_bodies()[where])
        with pytest.raises(CsvParseError) as exc:
            read_raw_csv(path)
        assert str(exc.value) == f"{path}:{line}: field larger than field limit (131072)"


@st.composite
def chunk_datasets(draw):
    """1-8 columns and row counts on either side of a writer block boundary."""
    n = draw(st.integers(1, 8))
    m = draw(st.sampled_from([2, 3, _CSV_CHUNK_ROWS - 1, _CSV_CHUNK_ROWS, _CSV_CHUNK_ROWS + 1]))
    values = draw(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=24)
    )
    samples = np.resize(np.array(values + [-0.0, 5e-324]), (m, n))
    return RawDataset(samples, tuple(f"s{i}" for i in range(n)))


class TestCsvWriterOracle:
    @given(raw=chunk_datasets())
    @settings(max_examples=12, deadline=None)
    def test_bytes_match_per_cell_writer(self, tmp_path_factory, raw):
        out = tmp_path_factory.mktemp("csv")
        write_raw_csv(raw, out / "new.csv")
        oracle_write_raw_csv(raw, out / "old.csv")
        assert (out / "new.csv").read_bytes() == (out / "old.csv").read_bytes()


def test_read_peak_memory_is_bounded_by_the_result(tmp_path):
    # 50k x 8, the monitor_replay series shape. A reader that holds the
    # text or its str cells peaks several times over the result's size.
    raw = make_raw(n=8, m=50_000, seed=8)
    path = tmp_path / "series.csv"
    write_raw_csv(raw, path)
    tracemalloc.start()
    try:
        got = read_raw_csv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.samples.tobytes() == raw.samples.tobytes()
    assert peak < 2 * got.samples.nbytes


UNIT2 = ScalerParams(np.zeros(2), np.ones(2))

# Each call, with the error it must raise.
BAD_INPUTS = {
    "raw-one-dimensional": (lambda: RawDataset(np.zeros(5), ("a",)), "samples must be 2-D, got shape (5,)"),
    "raw-no-columns": (lambda: RawDataset(np.zeros((3, 0)), ()), "need at least 1 sensor column"),
    "raw-name-count": (lambda: RawDataset(np.zeros((3, 2)), ("a",)), "1 sensor names for 2 columns"),
    "scaled-one-dimensional": (lambda: ScaledDataset(np.zeros(4), UNIT2, ("a", "b")), "samples must be 2-D"),
    "embed-twice": (lambda: embed_lags(embed_lags(ScaledDataset(np.eye(4)[:, :2], UNIT2, ("a", "b")), 1), 1),
                    "data is already lag-extended"),
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_raises_its_error(case):
    call, message = BAD_INPUTS[case]
    with pytest.raises(Exception) as caught:
        call()
    assert (type(caught.value), str(caught.value)) == (ValueError, message)
