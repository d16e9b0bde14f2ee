"""``sweep`` scores shares of its validation runs in forked children.

The parallel path is forced on tiny inputs: the usable CPU set is patched to
the share count wanted and the work threshold to zero. Whatever the share
count, the report rows, the report files and the raised error must be those
of the serial sweep, the parent's BLAS thread count must come back, and no
child may be left running.
"""

import ctypes
import errno
import json
import os
import signal
import socket

import pytest

import test_harness as th
from test_acceptance import GOLDEN_C7, _run_criterion7
from sensordiag import _shares, cli, harness, sweep
from sensordiag.errors import NonFiniteResult

BLAS = _shares.blas_threads()
needs_blas = pytest.mark.skipif(BLAS is None, reason="no OpenBLAS thread setter is loaded")


def shares(monkeypatch, count):
    """Let ``sweep`` cut its runs into up to ``count`` shares, whatever its work."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    monkeypatch.setattr(harness, "_PARALLEL_MIN_WORK", 0)


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def serial_outcome(case):
    model, runs, target, grid, kwargs = th.TestRunIndependence.CASES[case]()
    return th.outcome(lambda: sweep(model, runs, target, grid, **kwargs).rows)


@needs_blas
class TestSameResultAtAnyShareCount:
    @pytest.mark.parametrize("count", [2, 4])
    @pytest.mark.parametrize("case", list(th.TestRunIndependence.CASES))
    def test_rows_or_error_match_serial(self, monkeypatch, case, count):
        # The error cases are TestErrorOrder's, so its (position, phase, run)
        # rule holds when the failing run is scored in a child.
        expected = serial_outcome(case)
        shares(monkeypatch, count)
        assert serial_outcome(case) == expected
        no_child_left()

    def test_golden_c7_stays_exact(self, monkeypatch):
        shares(monkeypatch, 2)
        assert _run_criterion7() == GOLDEN_C7


EDGE_SWEEP = {
    "amplitudes": [-0.0, 1.0, 0.0, 1.0, -2.5],
    "variants": [
        {"method": "rbc", "index": "spe", "ebf": True},  # a tag scored only with the filter
        {"method": "cp", "index": "t2", "ebf": False},
        {"method": "cp", "index": "t2", "ebf": False},  # a duplicated (tag, ebf) pair
        {"method": "rbc", "index": "t2", "ebf": True},
    ],
}


@pytest.fixture(scope="module")
def four_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("shares")
    sim = {"n_sensors": 4, "m_train": 1500, "m_validation": 300, "n_validation_runs": 4, "seed": 3}
    config = root / "config.json"
    config.write_text(json.dumps({"lag_depth": 2, "variance_fraction": 0.9, "simulate": sim}))
    assert cli.main(["--config", str(config), "simulate", "--out-dir", str(root / "data")]) == 0
    model = root / "model.json"
    fit = ["fit", str(root / "data" / "train.csv"), "--model-out", str(model)]
    assert cli.main(["--config", str(config), *fit]) == 0
    return root, model, [str(root / "data" / f"validation_{j}.csv") for j in range(1, 5)]


@needs_blas
@pytest.mark.parametrize(
    "sweep_config", [{"grid_points": 6}, {"grid_points": 6, "onset_k": 0}, EDGE_SWEEP],
    ids=["default", "onset-0", "edge"],
)
def test_eval_reports_are_byte_identical(four_runs, monkeypatch, capsys, tmp_path, sweep_config):
    root, model, runs = four_runs
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"lag_depth": 2, "variance_fraction": 0.9, "sweep": sweep_config}))
    reports, forks, fork = {}, [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    for count in (1, 2, 4):
        shares(monkeypatch, count)
        monkeypatch.setattr(harness, "_PARALLEL_MIN_WORK", 0 if count > 1 else 10**18)
        base = tmp_path / f"report_{count}"
        assert cli.main(["--config", str(config), "eval", str(model), *runs, "--report-out", str(base)]) == 0
        reports[count] = [base.with_suffix(s).read_bytes() for s in (".csv", ".json")]
        assert capsys.readouterr().err == ""
    assert reports[2] == reports[1] and reports[4] == reports[1]
    assert len(forks) == 1 + 3  # one child at two shares, three at four
    no_child_left()


@needs_blas
def test_eval_ends_the_children_the_kernel_reaped(four_runs, monkeypatch, capsys, tmp_path, sigchld_ignored):
    # With SIGCHLD ignored, ending a share's child finds no process (ESRCH) or no
    # child (ECHILD): it has ended, and the report is the serial one.
    root, model, runs = four_runs
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"lag_depth": 2, "variance_fraction": 0.9, "sweep": {"grid_points": 6}}))
    reports, forks, fork = {}, [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    for count in (1, 4):
        shares(monkeypatch, count)
        monkeypatch.setattr(harness, "_PARALLEL_MIN_WORK", 0 if count > 1 else 10**18)
        base = tmp_path / f"report_{count}"
        code = cli.main(["--config", str(config), "eval", str(model), *runs, "--report-out", str(base)])
        assert (code, capsys.readouterr().err) == (0, "")
        reports[count] = [base.with_suffix(s).read_bytes() for s in (".csv", ".json")]
    assert reports[4] == reports[1]
    assert len(forks) == 3
    no_child_left()


@needs_blas
class TestBlasThreads:
    @pytest.fixture(autouse=True)
    def two_threads(self):
        """Start each test at two BLAS threads, not one, so a count left at one shows."""
        get, put = BLAS
        saved = get()
        put(2)
        yield
        put(saved)

    def test_every_share_scores_at_one_thread_and_the_count_comes_back(self, monkeypatch, tmp_path):
        get, put = BLAS
        before = get()
        log = tmp_path / "threads.txt"
        score_run = harness._score_run

        def logging_score_run(*args):
            with log.open("a") as fh:
                fh.write(f"{os.getpid()} {get()}\n")
            return score_run(*args)

        monkeypatch.setattr(harness, "_score_run", logging_score_run)
        shares(monkeypatch, 2)
        sweep(th.small_model(), th.validation_runs(4), 0, [1.0, -2.0])
        seen = [line.split() for line in log.read_text().splitlines()]
        assert len(seen) == 4 and len({pid for pid, _ in seen}) == 2
        assert {threads for _, threads in seen} == {"1"}
        assert get() == before
        no_child_left()

    def test_count_comes_back_after_a_data_error(self, monkeypatch):
        get, _ = BLAS
        before = get()
        shares(monkeypatch, 2)
        with pytest.raises(NonFiniteResult):
            sweep(th.lag_model(1), th.leveled_runs((1e308, -1e308)), 0, [-1e308, 1e308], [(th.CP_SPE, False)])
        assert get() == before
        no_child_left()

    def test_count_comes_back_when_the_parents_share_raises(self, monkeypatch):
        get, _ = BLAS
        before = get()
        parent = os.getpid()
        score_run = harness._score_run

        def failing_here(*args):
            if os.getpid() == parent:
                raise RuntimeError("share 0 failed")
            return score_run(*args)

        monkeypatch.setattr(harness, "_score_run", failing_here)
        shares(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="share 0 failed"):
            sweep(th.small_model(), th.validation_runs(2), 0, [1.0])
        assert get() == before
        no_child_left()


def forbidden_fork():
    raise AssertionError("os.fork was called")


def unreadable(*args, **kwargs):
    raise FileNotFoundError(2, "No such file or directory", "/proc/self/maps")


def unloadable(*args, **kwargs):
    raise OSError("cannot open shared object file")


@pytest.mark.parametrize("reason", ["no-pin", "one-cpu", "no-fork", "below-threshold", "no-maps", "no-lib"])
def test_serial_fallback_never_forks(monkeypatch, reason):
    model, runs = th.small_model(), th.validation_runs(3)
    expected = [repr(row) for row in sweep(model, runs, 0, [1.0, -2.0]).rows]
    shares(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", forbidden_fork)
    if reason == "no-pin":
        monkeypatch.setattr(_shares, "blas_threads", lambda: None)
    elif reason == "one-cpu":
        shares(monkeypatch, 1)
    elif reason == "no-fork":
        monkeypatch.delattr(os, "fork")
    elif reason == "no-maps":
        monkeypatch.setattr(_shares, "open", unreadable, raising=False)
    elif reason == "no-lib":
        monkeypatch.setattr(ctypes, "CDLL", unloadable)
    else:
        monkeypatch.setattr(harness, "_PARALLEL_MIN_WORK", 10**18)
    assert [repr(row) for row in sweep(model, runs, 0, [1.0, -2.0]).rows] == expected


@needs_blas
def test_a_dead_childs_share_is_scored_by_the_parent(monkeypatch):
    model, runs = th.small_model(), th.validation_runs(4)
    variants = [(th.RBC_T2, True), (th.CP_SPE, False)]
    expected = [repr(row) for row in sweep(model, runs, 0, [1.0, -2.0, 0.5], variants).rows]
    parent = os.getpid()
    score_run = harness._score_run

    def dying_child(*args):
        if os.getpid() != parent:
            os._exit(1)
        return score_run(*args)

    monkeypatch.setattr(harness, "_score_run", dying_child)
    shares(monkeypatch, 4)
    assert [repr(row) for row in sweep(model, runs, 0, [1.0, -2.0, 0.5], variants).rows] == expected
    no_child_left()


@needs_blas
@pytest.mark.parametrize("failing", [{1}, {2}, {1, 2, 3}], ids=["first-fork", "second-fork", "every-fork"])
def test_a_failed_forks_share_is_scored_by_the_parent(monkeypatch, failing):
    model, runs = th.small_model(), th.validation_runs(4)
    variants = [(th.RBC_T2, True), (th.CP_SPE, False)]
    expected = [repr(row) for row in sweep(model, runs, 0, [1.0, -2.0, 0.5], variants).rows]
    fds = len(os.listdir("/proc/self/fd"))
    forks, fork = [], os.fork

    def fork_out_of_processes():
        forks.append(1)
        if len(forks) in failing:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", fork_out_of_processes)
    shares(monkeypatch, 4)
    assert [repr(row) for row in sweep(model, runs, 0, [1.0, -2.0, 0.5], variants).rows] == expected
    assert len(forks) == 3
    assert len(os.listdir("/proc/self/fd")) == fds  # both ends of each socket pair are closed
    no_child_left()


@needs_blas
def test_a_child_cut_off_mid_message_has_its_share_scored_by_the_parent(monkeypatch):
    model, runs = th.small_model(), th.validation_runs(4)
    variants = [(th.RBC_T2, True), (th.CP_SPE, False)]
    expected = [repr(row) for row in sweep(model, runs, 0, [1.0, -2.0, 0.5], variants).rows]
    parent, sendall = os.getpid(), socket.socket.sendall

    def dying_sendall(sock, data, *flags):
        if os.getpid() != parent:  # a child: half of its share's message, then SIGKILL
            sendall(sock, data[: len(data) // 2], *flags)
            os.kill(os.getpid(), signal.SIGKILL)
        return sendall(sock, data, *flags)

    monkeypatch.setattr(socket.socket, "sendall", dying_sendall)
    shares(monkeypatch, 4)
    assert [repr(row) for row in sweep(model, runs, 0, [1.0, -2.0, 0.5], variants).rows] == expected
    no_child_left()


def no_socket_pair(*args, **kwargs):
    raise OSError(errno.EMFILE, "Too many open files")


@needs_blas
def test_a_failed_socket_pair_scores_here(four_runs, monkeypatch, capsys, tmp_path):
    # At the open-file limit no share's socket pair can be made: eval scores every
    # share here, as after a failed fork, rather than exit 2 with a data error.
    root, model, runs = four_runs
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"lag_depth": 2, "variance_fraction": 0.9, "sweep": {"grid_points": 6}}))

    def report(name):
        base = tmp_path / name
        assert cli.main(["--config", str(config), "eval", str(model), *runs, "--report-out", str(base)]) == 0
        assert capsys.readouterr().err == ""
        return [base.with_suffix(s).read_bytes() for s in (".csv", ".json")]

    expected = report("serial")
    fds = len(os.listdir("/proc/self/fd"))
    shares(monkeypatch, 2)
    monkeypatch.setattr(socket, "socketpair", no_socket_pair)
    monkeypatch.setattr(os, "fork", forbidden_fork)
    assert report("no-pair") == expected
    assert len(os.listdir("/proc/self/fd")) == fds
    no_child_left()
