"""``_shares`` ends each child through a pidfd where the platform has one.

Under an ignored ``SIGCHLD`` the kernel frees a child's pid as it exits, and
the pid may be given to another process before the parent ends the child; a
pidfd names only the child. Every command that forks must also leave no
descriptor open, pidfds included.
"""

import contextlib
import io
import json
import os
import select
import signal

import pytest

from sensordiag import _shares, cli, dataset, harness
from conftest import no_child_left

needs_pidfd = pytest.mark.skipif(
    not (hasattr(os, "pidfd_open") and hasattr(signal, "pidfd_send_signal")), reason="no pidfds"
)
pytestmark = pytest.mark.filterwarnings("ignore:.*use of fork:DeprecationWarning")


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def waiting_child():
    """A child that waits for one message, or for the parent's end of its socket pair to close."""
    return _shares.fork(lambda link: _shares.receive(link))


def signals_by_pid(monkeypatch):
    """Record every ``os.kill``, and refuse it: no process is signalled by pid here."""
    kills = []

    def refused_kill(pid, sig):
        kills.append((pid, sig))
        raise AssertionError("signalled by pid")

    monkeypatch.setattr(os, "kill", refused_kill)
    return kills


@needs_pidfd
@pytest.mark.parametrize("state", ["running", "exited", "reaped"])
def test_the_pidfd_path_never_signals_by_pid(monkeypatch, request, state):
    fds = open_fds()
    if state == "reaped":
        request.getfixturevalue("sigchld_ignored")
    link = waiting_child()
    assert link.pidfd is not None
    if state != "running":  # let the child exit: a zombie, or reaped by the kernel
        assert _shares.send(link, "exit")
        assert select.select([link.pidfd], [], [], 30)[0] == [link.pidfd]
    kills = signals_by_pid(monkeypatch)
    _shares.end(link)
    assert kills == []
    assert open_fds() == fds
    no_child_left()


def test_without_pidfds_a_child_is_ended_by_pid(monkeypatch):
    monkeypatch.delattr(os, "pidfd_open", raising=False)
    kill, kills = os.kill, []
    monkeypatch.setattr(os, "kill", lambda pid, sig: kills.append((pid, sig)) or kill(pid, sig))
    link = waiting_child()
    assert link.pidfd is None
    _shares.end(link)
    assert kills == [(link.pid, signal.SIGKILL)]
    no_child_left()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("fds")
    sim = {"n_sensors": 4, "m_train": 1500, "m_validation": 300, "n_validation_runs": 4, "seed": 3}
    config = root / "config.json"
    config.write_text(json.dumps({"lag_depth": 2, "variance_fraction": 0.9, "simulate": sim}))
    assert cli.main(["--config", str(config), "simulate", "--out-dir", str(root / "data")]) == 0
    fit = ["fit", str(root / "data" / "train.csv"), "--model-out", str(root / "model.json")]
    assert cli.main(["--config", str(config), *fit]) == 0
    return root, config


def run(args) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(args)


@pytest.mark.skipif(_shares.blas_threads() is None, reason="no OpenBLAS thread setter is loaded")
def test_no_descriptor_is_left_after_a_forking_command(monkeypatch, workspace, long_series, tmp_path):
    root, config = workspace
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(harness, "_PARALLEL_MIN_WORK", 0)
    monkeypatch.setattr(dataset, "_WRITE_MIN_VALUES", 0)
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    runs = [str(root / "data" / f"validation_{j}.csv") for j in range(1, 5)]
    two_blocks = tmp_path / "config.json"  # a train.csv of two blocks, so one child formats
    two_blocks.write_text(json.dumps({"simulate": {"m_train": 2 * dataset._CSV_CHUNK_ROWS}}))
    commands = {
        "simulate": ["--config", str(two_blocks), "simulate", "--out-dir", str(tmp_path / "data")],
        "eval": ["--config", str(config), "eval", str(root / "model.json"), *runs,
                 "--report-out", str(tmp_path / "report")],
        "monitor": ["monitor", str(long_series["model"]), str(long_series["csv"])],
    }
    for name, args in commands.items():
        fds, before = open_fds(), len(forks)
        assert run(args) == 0, name
        assert len(forks) > before, name
        assert open_fds() == fds, name
        no_child_left()
