"""Row-blocked scoring against whole-array scoring, and its memory bound.

``spe``, ``t2`` and ``contribution_matrix`` score at most ``_BLOCK_ROWS`` rows
per gemm. Up to that many rows they make today's single call, so they must
equal the whole-array expressions bit for bit. Longer inputs are split into
blocks; a blocked gemm may round the last bits differently for some shapes,
so there only the default n=8, d=10 shape is held to bit identity and the
others to 1e-9 relative.
"""

import json
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sensordiag import ContributionMethod, DetectionIndex, IsolationMethod, cli, detection
from sensordiag import contribution_matrix, load_model, spe, t2, write_raw_csv
from sensordiag.detection import _BLOCK_ROWS, _row_blocks
from sensordiag.errors import DegenerateDirection, NonFiniteResult
from conftest import (
    assert_same_stream,
    assert_same_winners,
    make_model,
    make_raw,
    whole_array_contributions,
    whole_array_spe,
    whole_array_t2,
    write_long_series,
)

ALL_METHODS = [IsolationMethod(m, i) for m in ContributionMethod for i in DetectionIndex]


def scored(model, rows):
    """``(name, blocked, whole-array)`` for both indices and every variant
    whose denominators are usable."""
    out = [
        ("spe", spe(model, rows), whole_array_spe(model, rows)),
        ("t2", t2(model, rows), whole_array_t2(model, rows)),
    ]
    for tag in ALL_METHODS:
        try:
            blocked = contribution_matrix(model, rows, tag)
        except DegenerateDirection:
            continue
        out.append((str(tag), blocked, whole_array_contributions(model, rows, tag)))
    return out


def random_rows(model, count, seed, scale=1.0):
    return scale * np.random.default_rng(seed).standard_normal((count, model.n_e))


class TestRowBlocks:
    @pytest.mark.parametrize(
        "m",
        [0, 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS, 2 * _BLOCK_ROWS + 1]
        + [4 * _BLOCK_ROWS, 4 * _BLOCK_ROWS + 1, 49990],
    )
    def test_near_equal_cover(self, m):
        blocks = _row_blocks(m)
        assert len(blocks) == max(1, -(-m // _BLOCK_ROWS))
        assert blocks[0].start == 0 and blocks[-1].stop == m
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        sizes = [b.stop - b.start for b in blocks]
        assert max(sizes) <= _BLOCK_ROWS and max(sizes) - min(sizes) <= 1
        if len(blocks) > 1:
            assert min(sizes) >= _BLOCK_ROWS // 2


class TestBlockedKernelOracle:
    @given(
        n=st.integers(min_value=1, max_value=8),
        d=st.integers(min_value=0, max_value=10),
        count=st.one_of(
            st.sampled_from([0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS]),
            st.integers(min_value=0, max_value=_BLOCK_ROWS),
        ),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        vf=st.sampled_from([0.6, 0.9, 0.99]),
        scale=st.floats(min_value=1e-3, max_value=1e3),
    )
    @settings(max_examples=30, deadline=None)
    def test_single_block_is_bit_identical(self, n, d, count, seed, vf, scale):
        model = make_model(n=n, m=4 * n * (d + 1) + 40, seed=seed % 1000, d=d, variance_fraction=vf)
        rows = random_rows(model, count, seed, scale)
        for name, blocked, whole in scored(model, rows):
            assert blocked.shape == whole.shape, name
            assert np.array_equal(blocked, whole), name

    @pytest.mark.parametrize("count", [_BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 1, 30001])
    def test_default_shape_is_bit_identical_across_blocks(self, count):
        model = make_model(n=8, m=2000, seed=41, d=10)
        rows = random_rows(model, count, count)
        for name, blocked, whole in scored(model, rows):
            assert np.array_equal(blocked, whole), name

    @given(
        n=st.integers(min_value=1, max_value=8),
        d=st.integers(min_value=0, max_value=10),
        count=st.one_of(
            st.sampled_from([_BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 1]),
            st.integers(min_value=_BLOCK_ROWS + 1, max_value=3 * _BLOCK_ROWS),
        ),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        vf=st.sampled_from([0.6, 0.9, 0.99]),
    )
    @settings(max_examples=15, deadline=None)
    def test_multi_block_matches_within_rounding(self, n, d, count, seed, vf):
        model = make_model(n=n, m=4 * n * (d + 1) + 40, seed=seed % 1000, d=d, variance_fraction=vf)
        rows = random_rows(model, count, seed)
        for name, blocked, whole in scored(model, rows):
            # A contribution near zero is a cancelled sum, whose rounding is
            # relative to its terms, not to it: floor it at the largest score.
            floor = 1e-12 * np.abs(whole).max(initial=0.0)
            np.testing.assert_allclose(blocked, whole, rtol=1e-9, atol=floor, err_msg=name)
            if blocked.ndim == 2:
                assert_same_winners(blocked, whole)


def traced_peak(fn, *args) -> tuple:
    """``fn(*args)`` and the peak bytes traced while it ran; numpy reports
    its buffers to ``tracemalloc``."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemoryBound:
    @pytest.fixture(scope="class")
    def model_and_rows(self):
        model = make_model(n=8, m=2000, seed=43, d=10)
        return model, random_rows(model, 40000, 44)

    @pytest.mark.parametrize("score", ["spe", "t2", *map(str, ALL_METHODS)])
    def test_peak_is_a_fraction_of_the_input(self, model_and_rows, score):
        model, rows = model_and_rows
        tags = {str(tag): tag for tag in ALL_METHODS}
        if score in tags:
            contribution_matrix(model, rows[:2], tags[score])  # build the cached kernel
            _, peak = traced_peak(contribution_matrix, model, rows, tags[score])
        else:
            _, peak = traced_peak({"spe": spe, "t2": t2}[score], model, rows)
        assert peak < rows.nbytes / 4

    def test_monitor_never_holds_the_embedded_series(self, tmp_path, monkeypatch):
        # A deep lag makes the embedded series far larger than the CSV reader's
        # chunk, so the peak of the whole command shows whether it was built.
        case = write_long_series(tmp_path, d=40)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({}))
        argv = ["--config", str(config), "monitor", str(case["model"]), str(case["csv"])]
        embedded_nbytes = (case["rows"] - case["d"]) * 8 * (case["d"] + 1) * 8
        with open(tmp_path / "events.ndjson", "w") as sink:
            monkeypatch.setattr(sys, "stdout", sink)
            code, peak = traced_peak(cli.main, argv)
        assert code == 0
        assert peak < embedded_nbytes


def block_product_nbytes(model, rows: int) -> int:
    """Bytes of the widest block product one ``spe`` or ``t2`` call over
    ``rows`` rows holds at once."""
    block = max(b.stop - b.start for b in _row_blocks(rows))
    return 8 * block * max(model.l, model.n_e - model.l)


class TestOneSeriesCopy:
    """Each command holds one full-series copy of its input at its peak.
    The slack above the arrays it must hold is half a raw series, so a
    command that keeps the raw or the scaled series alive beside them fails."""

    def test_fit_holds_only_the_embedded_matrix(self, tmp_path, capsys):
        m, n, d = 20_000, 8, 10
        raw = make_raw(n=n, m=m, seed=51)
        write_raw_csv(raw, tmp_path / "train.csv")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"lag_depth": d}))
        argv = ["--config", str(config), "fit", str(tmp_path / "train.csv"), "--model-out", str(tmp_path / "m.json")]
        code, peak = traced_peak(cli.main, argv)
        assert code == 0, capsys.readouterr().err
        model = load_model(tmp_path / "m.json")
        embedded_nbytes = (m - d) * model.n_e * 8
        scores_nbytes = 2 * (m - d) * 8  # one index's scores and the sorted copy its limit takes
        bound = embedded_nbytes + block_product_nbytes(model, m - d) + scores_nbytes
        bound += raw.samples.nbytes // 2
        assert peak < bound, (peak, bound)

    def test_monitor_holds_only_the_scaled_series(self, tmp_path, monkeypatch, long_series):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({}))
        argv = ["--config", str(config), "monitor", str(long_series["model"]), str(long_series["csv"])]
        with open(tmp_path / "events.ndjson", "w") as sink:
            monkeypatch.setattr(sys, "stdout", sink)
            code, peak = traced_peak(cli.main, argv)
        assert code == 0
        model = load_model(long_series["model"])
        rows = long_series["rows"] - model.d
        series_nbytes = long_series["rows"] * model.n * 8
        block_nbytes = max(b.stop - b.start for b in _row_blocks(rows)) * model.n_e * 8
        scores_nbytes = 3 * rows * 8  # SPE, T2 and the raw winner, kept for rendering
        bound = series_nbytes + block_nbytes + block_product_nbytes(model, rows) + scores_nbytes
        bound += series_nbytes // 2
        assert peak < bound, (peak, bound)


class TestNonFiniteScores:
    """Each scored block is checked for inf and nan, whichever block holds them."""

    @pytest.mark.parametrize("bad", [1e200, np.inf, np.nan], ids=["overflow", "inf", "nan"])
    @pytest.mark.parametrize("row", [0, _BLOCK_ROWS + 5], ids=["first-block", "second-block"])
    def test_every_score_raises(self, bad, row):
        model = make_model(n=3, m=200, seed=5, d=1)
        rows = random_rows(model, _BLOCK_ROWS + 10, seed=6)
        rows[row, 0] = bad
        for name, score in [("spe", spe), ("t2", t2)]:
            with pytest.raises(NonFiniteResult, match=f"^{name} scores overflow float64"):
                score(model, rows)
        for tag in ALL_METHODS:
            with pytest.raises(NonFiniteResult, match=f"^{tag} scores overflow float64"):
                contribution_matrix(model, rows, tag)


class TestOneProductOracle:
    """At the default n=8, d=10 shape, each command's output at the module
    block size equals its output with every input scored in one product."""

    def test_default_sweep_tail_is_one_block(self):
        # sweep scores a run from its default onset m // 2 on
        assert cli.DEFAULT_CONFIG["sweep"]["onset_k"] is None
        m = cli.DEFAULT_CONFIG["simulate"]["m_validation"]
        assert m - m // 2 <= _BLOCK_ROWS

    @staticmethod
    def both_ways(monkeypatch, run):
        """``run()`` at the module block size, then with one block."""
        blocked = run()
        monkeypatch.setattr(detection, "_BLOCK_ROWS", 10**9)
        return blocked, run()

    def test_eval_report_from_onset_zero(self, tmp_path, monkeypatch, capsys):
        # From onset 0 a 5000-row run scores 4990 rows, more than one block.
        config = tmp_path / "config.json"
        sim = {"m_train": 3000, "n_validation_runs": 1}
        config.write_text(json.dumps({"simulate": sim, "sweep": {"onset_k": 0, "grid_points": 6}}))
        data = tmp_path / "data"
        assert cli.main(["--config", str(config), "simulate", "--out-dir", str(data)]) == 0
        model = tmp_path / "model.json"
        assert cli.main(["--config", str(config), "fit", str(data / "train.csv"), "--model-out", str(model)]) == 0
        assert len(_row_blocks(5000 - 10)) > 1

        def run():
            report = tmp_path / "report"
            argv = ["--config", str(config), "eval", str(model), str(data / "validation_1.csv")]
            assert cli.main([*argv, "--report-out", str(report)]) == 0
            return b"".join(report.with_suffix(ext).read_bytes() for ext in (".csv", ".json"))

        blocked, whole = self.both_ways(monkeypatch, run)
        assert_same_stream(blocked, whole)

    def test_monitor_ndjson(self, long_series, monkeypatch, capsys):
        # past one 8192-row block too, so the series takes several blocks at either size
        assert long_series["rows"] > 8193 and long_series["d"] == 10
        assert len(_row_blocks(long_series["rows"] - long_series["d"])) > 1

        def run():
            capsys.readouterr()
            assert cli.main(["monitor", str(long_series["model"]), str(long_series["csv"])]) == 0
            return capsys.readouterr().out

        blocked, whole = self.both_ways(monkeypatch, run)
        assert_same_stream(blocked, whole)

    def test_fit_model_file(self, tmp_path, monkeypatch, capsys):
        rows = 9000
        write_raw_csv(make_raw(n=8, m=rows, seed=53), tmp_path / "train.csv")
        assert len(_row_blocks(rows - 10)) > 1

        def run():
            model = tmp_path / "model.json"
            assert cli.main(["fit", str(tmp_path / "train.csv"), "--model-out", str(model)]) == 0
            return model.read_bytes()

        blocked, whole = self.both_ways(monkeypatch, run)
        assert_same_stream(blocked, whole)
