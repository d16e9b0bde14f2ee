"""Row-blocked scoring against whole-array scoring, and its memory bound.

``spe``, ``t2`` and ``contribution_matrix`` score at most ``_BLOCK_ROWS`` rows
per gemm. Up to that many rows they make today's single call, so they must
equal the whole-array expressions bit for bit. Longer inputs are split into
blocks; a blocked gemm may round the last bits differently for some shapes,
so there only the default n=8, d=10 shape is held to bit identity and the
others to 1e-9 relative.
"""

import json
import os
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sensordiag import ContributionMethod, DetectionIndex, IsolationMethod, cli, detection, harness
from sensordiag import contribution_matrix, load_model, save_model, spe, t2, write_raw_csv
from sensordiag.detection import _BLOCK_ROWS, _row_blocks
from sensordiag.errors import DegenerateDirection, NonFiniteResult
from conftest import (
    assert_same_stream,
    assert_same_winners,
    make_model,
    make_raw,
    monitor_blocks,
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


def one_cpu(monkeypatch):
    """Score eval's runs serially, in this process, on any host: the bound then
    covers every run's streams, not only those of the parent's share."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


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

    def test_fit_saves_without_the_embedded_matrix(self, tmp_path, capsys, monkeypatch):
        # save_model builds the model's JSON text; the embedded matrix is
        # dropped before it, so less than one matrix is live when it starts.
        m, n, d = 8_000, 8, 10
        write_raw_csv(make_raw(n=n, m=m, seed=52), tmp_path / "train.csv")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"lag_depth": d}))
        live = []

        def save_model_spy(model, path):
            live.append(tracemalloc.get_traced_memory()[0])
            save_model(model, path)

        monkeypatch.setattr(cli, "save_model", save_model_spy)
        argv = ["--config", str(config), "fit", str(tmp_path / "train.csv"), "--model-out", str(tmp_path / "m.json")]
        code, _ = traced_peak(cli.main, argv)
        assert code == 0, capsys.readouterr().err
        embedded_nbytes = (m - d) * n * (d + 1) * 8
        assert len(live) == 1 and live[0] < embedded_nbytes, (live, embedded_nbytes)

    def test_monitor_holds_only_the_raw_series(self, tmp_path, monkeypatch, long_series):
        # monitor scales, embeds and scores one row block of at most
        # _RENDER_LINES rows at a time, so beside the raw series it holds one
        # block and its product, never a scaled copy of the series.
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
        block = max(b.stop - b.start for b in monitor_blocks(rows))
        assert block <= cli._RENDER_LINES
        block_nbytes = block * model.n_e * 8
        scores_nbytes = rows * (8 + 8 + 1)  # SPE, T2 and the int8 raw winner, kept for rendering
        model_nbytes = model.p_hat.nbytes + model.p_tilde.nbytes + model.n_e**2 * 8  # and one kernel
        bound = series_nbytes + block_nbytes + block_product_nbytes(model, block) + scores_nbytes
        bound += model_nbytes + series_nbytes // 2
        assert peak < bound, (peak, bound)

    def test_eval_holds_one_prepared_matrix(self, tmp_path, capsys, monkeypatch):
        # The prepared post-onset rows of one run are the largest array eval
        # builds, so holding every run's at once breaks the bound.
        one_cpu(monkeypatch)
        n, d, m, runs, grid = 8, 10, 8000, 4, 6
        model = make_model(n=n, m=3000, seed=57, d=d)
        save_model(model, tmp_path / "model.json")
        csvs = []
        for k in range(runs):
            csvs.append(str(tmp_path / f"validation_{k}.csv"))
            write_raw_csv(make_raw(n=n, m=m, seed=58 + k), csvs[-1])
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"sweep": {"grid_points": grid}}))
        argv = ["--config", str(config), "eval", str(tmp_path / "model.json"), *csvs]
        code, peak = traced_peak(cli.main, [*argv, "--report-out", str(tmp_path / "report")])
        assert code == 0, capsys.readouterr().err
        tail = m - m // 2  # rows scored from the default onset m // 2 > d on
        runs_nbytes = runs * m * n * 8
        prepared_nbytes = tail * model.n_e * 8
        streams_nbytes = 3 * grid * runs * tail  # int8 streams, their padded batch and the filter output
        block_nbytes = tail * n * 8  # one variant's contributions
        bound = runs_nbytes + prepared_nbytes + streams_nbytes + block_nbytes + prepared_nbytes // 2
        assert peak < bound, (peak, bound)

    def test_eval_holds_each_winner_stream_once(self, tmp_path, capsys, monkeypatch):
        # Many amplitudes over short rows make the filtered tag's int8 winner
        # streams eval's largest arrays. Each moves out of its run's result
        # into the batch the filter reads, which with the filter's output
        # makes two copies; a third copy breaks the bound.
        one_cpu(monkeypatch)
        n, d, m, runs, grid = 4, 1, 8000, 2, 100
        model = make_model(n=n, m=3000, seed=57, d=d)
        save_model(model, tmp_path / "model.json")
        csvs = []
        for k in range(runs):
            csvs.append(str(tmp_path / f"validation_{k}.csv"))
            write_raw_csv(make_raw(n=n, m=m, seed=58 + k), csvs[-1])
        config = tmp_path / "config.json"
        variants = [{"method": "rbc", "index": "t2", "ebf": True}]
        config.write_text(json.dumps({"sweep": {"grid_points": grid, "variants": variants}}))
        argv = ["--config", str(config), "eval", str(tmp_path / "model.json"), *csvs]
        code, peak = traced_peak(cli.main, [*argv, "--report-out", str(tmp_path / "report")])
        assert code == 0, capsys.readouterr().err
        tail = m - m // 2  # rows scored from the default onset m // 2 > d on
        runs_nbytes = runs * m * n * 8
        prepared_nbytes = tail * model.n_e * 8
        streams_nbytes = grid * runs * tail  # one int8 copy of every stream
        block_nbytes = tail * n * 8  # the variant's contributions
        bound = runs_nbytes + prepared_nbytes + 2 * streams_nbytes + block_nbytes + streams_nbytes // 2
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
        """``run()`` at the module block sizes, then with one block."""
        blocked = run()
        monkeypatch.setattr(detection, "_BLOCK_ROWS", 10**9)
        monkeypatch.setattr(harness, "_RENDER_LINES", 10**9)  # monitor's block cap
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
        # past one 8192-row block too, so the series takes several blocks at any size
        assert long_series["rows"] > 8193 and long_series["d"] == 10
        assert len(monitor_blocks(long_series["rows"] - long_series["d"])) > 1

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
