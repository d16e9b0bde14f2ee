"""``monitor`` renders each block's NDJSON in a forked child while it steps the
evidence over the next block.

The pipelined path is forced by patching the usable CPU set to two CPUs, as
``test_parallel_sweep`` does. Whatever the path, and whenever the child dies,
stdout, stderr and the exit code must be those of the one-CPU run, every
evidence step must run in the parent, and no child may be left running.
"""

import contextlib
import errno
import io
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from sensordiag import cli
from conftest import forbidden_fork, no_child_left, no_socket_pair

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
needs_fork = pytest.mark.skipif(
    not all(hasattr(m, a) for m, a in [(os, "fork"), (os, "sched_getaffinity"), (socket, "MSG_NOSIGNAL")]),
    reason="monitor renders serially on this platform",
)
# Python 3.12 warns when a process with threads forks; pytest would show it, the CLI's
# default filters do not (test_entrypoint_prints_the_serial_bytes).
pytestmark = [needs_fork, pytest.mark.filterwarnings("ignore:.*use of fork:DeprecationWarning")]


def cpus(patch, count):
    """Report ``count`` usable CPUs to ``monitor``."""
    patch(os, "sched_getaffinity", lambda pid: set(range(count)))


def children() -> list[int]:
    """The pids of this process's children, from ``/proc``."""
    found = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):  # gone meanwhile
            continue
        if ppid == os.getpid():
            found.append(int(entry))
    return found


def gone(pid) -> bool:
    """True once ``pid`` has exited (a zombie still counts as gone)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] in "ZX"
    except FileNotFoundError:
        return True


def kill_child(patch, when):
    """SIGKILL the render child at ``when``: ``first-reply`` (before it sends any
    text), ``mid-reply`` (after half of its second block's text) or ``before-send``
    (dead before the parent sends it the second block's evidence, so that send
    hits a closed socket)."""
    if when is None:
        return
    parent, sendall, sends = os.getpid(), socket.socket.sendall, {}

    def dying_sendall(sock, data, *flags):
        here = os.getpid()
        sends[here] = count = sends.get(here, 0) + 1
        if here != parent and (when, count) in {("first-reply", 1), ("mid-reply", 2)}:
            sendall(sock, data[: len(data) // 2 if count == 2 else 0], *flags)
            os.kill(here, signal.SIGKILL)
        if here == parent and (when, count) == ("before-send", 2):
            for pid in children():
                os.kill(pid, signal.SIGKILL)
                deadline = time.monotonic() + 10
                while not gone(pid) and time.monotonic() < deadline:
                    time.sleep(0.001)
        return sendall(sock, data, *flags)

    patch(socket.socket, "sendall", dying_sendall)


def forks(monkeypatch) -> list[int]:
    """Record the pid of every child ``os.fork`` makes."""
    pids, fork = [], os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def monitor(config, model, csv):
    """``(exit code, stdout, stderr)`` of one in-process ``monitor`` run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["--config", str(config), "monitor", str(model), str(csv)])
    return code, out.getvalue(), err.getvalue()


def serial_and_pipelined(monkeypatch, config, model, csv):
    """The one-CPU run and the two-CPU run of the same ``monitor``."""
    with monkeypatch.context() as m:
        cpus(m.setattr, 1)
        m.setattr(os, "fork", forbidden_fork)
        serial = monitor(config, model, csv)
    cpus(monkeypatch.setattr, 2)
    pids = forks(monkeypatch)
    pipelined = monitor(config, model, csv)
    assert len(pids) == 1
    no_child_left()
    return serial, pipelined


def write_config(tmp_path, content) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(content))
    return path


@pytest.fixture(scope="module")
def default_pipeline(tmp_path_factory):
    """``simulate`` and ``fit`` at the default config: a 5000-row validation run."""
    root = tmp_path_factory.mktemp("default_pipeline")
    config = write_config(root, {"simulate": {"n_validation_runs": 1}})
    assert cli.main(["--config", str(config), "simulate", "--out-dir", str(root / "data")]) == 0
    fit = ["fit", str(root / "data" / "train.csv"), "--model-out", str(root / "model.json")]
    assert cli.main(["--config", str(config), *fit]) == 0
    return root / "model.json", root / "data" / "validation_1.csv"


MONITOR_CASES = [
    {"method": "rbc", "index": "t2", "gate_on_detection": False},
    {"method": "rbc", "index": "t2", "gate_on_detection": True},
    {"method": "cp", "index": "spe", "gate_on_detection": False},
    {"method": "cp", "index": "spe", "gate_on_detection": True},
]
MONITOR_IDS = ["rbc-t2", "rbc-t2-gated", "cp-spe", "cp-spe-gated"]


@pytest.mark.parametrize("settings", MONITOR_CASES, ids=MONITOR_IDS)
def test_default_pipeline_is_byte_identical(tmp_path, monkeypatch, default_pipeline, settings):
    config = write_config(tmp_path, {"monitor": settings})
    serial, pipelined = serial_and_pipelined(monkeypatch, config, *default_pipeline)
    assert pipelined == serial
    assert serial[0] == 0 and serial[2] == "" and serial[1].count("\n") == 5000 - 10


@pytest.mark.parametrize("settings", MONITOR_CASES, ids=MONITOR_IDS)
def test_long_series_is_byte_identical(tmp_path, monkeypatch, long_series, settings):
    config = write_config(tmp_path, {"monitor": settings})
    serial, pipelined = serial_and_pipelined(monkeypatch, config, long_series["model"], long_series["csv"])
    assert pipelined == serial
    assert serial[1].count("\n") == long_series["rows"] - long_series["d"]


def test_negative_zero_band_edge_is_byte_identical(tmp_path, monkeypatch, long_series):
    # With lower_sat -0.0 a level clipped at the bound prints as -0.0; the
    # bytes the child renders from must keep the sign.
    config = write_config(tmp_path, {"ebf": {"lower_sat": -0.0}})
    serial, pipelined = serial_and_pipelined(monkeypatch, config, long_series["model"], long_series["csv"])
    assert pipelined == serial
    assert "-0.0" in serial[1]


@pytest.mark.parametrize("failure", [OSError(errno.ENOMEM, "Cannot allocate memory"),
                                     BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")],
                         ids=["ENOMEM", "EAGAIN"])
def test_a_failed_fork_renders_here(tmp_path, monkeypatch, long_series, failure):
    config = write_config(tmp_path, {})
    with monkeypatch.context() as m:
        cpus(m.setattr, 1)
        expected = monitor(config, long_series["model"], long_series["csv"])
    fds = len(os.listdir("/proc/self/fd"))
    calls = []

    def failing_fork():
        calls.append(1)
        raise failure

    cpus(monkeypatch.setattr, 2)
    monkeypatch.setattr(os, "fork", failing_fork)
    assert monitor(config, long_series["model"], long_series["csv"]) == expected
    assert len(calls) == 1
    assert len(os.listdir("/proc/self/fd")) == fds  # both ends of the socket pair are closed
    no_child_left()


def test_a_failed_socket_pair_renders_here(tmp_path, monkeypatch, long_series):
    # At the open-file limit the render child's socket pair cannot be made: monitor
    # renders here, as after a failed fork, rather than exit 2 with a data error.
    config = write_config(tmp_path, {})
    with monkeypatch.context() as m:
        cpus(m.setattr, 1)
        expected = monitor(config, long_series["model"], long_series["csv"])
    fds = len(os.listdir("/proc/self/fd"))
    cpus(monkeypatch.setattr, 2)
    monkeypatch.setattr(socket, "socketpair", no_socket_pair)
    monkeypatch.setattr(os, "fork", forbidden_fork)
    assert monitor(config, long_series["model"], long_series["csv"]) == expected
    assert len(os.listdir("/proc/self/fd")) == fds
    no_child_left()


SHORTEST_PIPELINED = (cli._PIPELINE_MIN_BLOCKS - 1) * cli._RENDER_LINES + 1  # lines


@pytest.mark.parametrize("lines", [1, cli._RENDER_LINES, SHORTEST_PIPELINED - 1, SHORTEST_PIPELINED])
def test_only_a_series_long_enough_to_pay_forks(tmp_path, monkeypatch, long_series, lines):
    # Below _PIPELINE_MIN_BLOCKS blocks the fork costs more than the overlap saves.
    csv = tmp_path / "short.csv"
    with open(long_series["csv"], encoding="utf-8") as fh:
        csv.write_text("".join(fh.readline() for _ in range(1 + lines + long_series["d"])))
    cpus(monkeypatch.setattr, 2)
    pids = forks(monkeypatch)
    code, out, err = monitor(write_config(tmp_path, {}), long_series["model"], csv)
    assert (code, out.count("\n"), err) == (0, lines, "")
    assert len(pids) == (lines >= SHORTEST_PIPELINED)
    no_child_left()


@pytest.mark.parametrize("when", ["first-reply", "mid-reply", "before-send"])
def test_a_dead_childs_blocks_are_rendered_here(tmp_path, monkeypatch, long_series, when):
    config = write_config(tmp_path, {})
    with monkeypatch.context() as m:
        cpus(m.setattr, 1)
        expected = monitor(config, long_series["model"], long_series["csv"])
    cpus(monkeypatch.setattr, 2)
    pids = forks(monkeypatch)
    kill_child(monkeypatch.setattr, when)
    assert monitor(config, long_series["model"], long_series["csv"]) == expected
    assert len(pids) == 1
    no_child_left()


def test_a_render_child_the_kernel_reaped_is_ended(tmp_path, monkeypatch, long_series, sigchld_ignored):
    # With SIGCHLD ignored, ending the render child finds no process (ESRCH) or no
    # child (ECHILD): it has ended, and the run is the serial one.
    config = write_config(tmp_path, {})
    serial, pipelined = serial_and_pipelined(monkeypatch, config, long_series["model"], long_series["csv"])
    assert pipelined == serial
    assert serial[0] == 0 and serial[2] == ""


def forced_cli(*args, kill=None) -> list[str]:
    """argv of the real ``entrypoint`` (SIGPIPE at its default action) in a fresh
    interpreter with default warning filters, seeing two usable CPUs and killing
    its render child at ``kill`` (see ``kill_child``)."""
    script = (
        f"import sys; sys.path.insert(0, {str(TESTS)!r})\n"
        "import test_monitor_pipeline as t\n"
        f"t.cpus(setattr, 2); t.kill_child(setattr, {kill!r})\n"
        "from sensordiag.cli import entrypoint\n"
        "entrypoint()\n"
    )
    return [sys.executable, "-c", script, *args]


def cli_env():
    return {**os.environ, "PYTHONPATH": str(SRC)}


@pytest.mark.parametrize("kill", [None, "mid-reply", "before-send"], ids=["alive", "mid-reply", "before-send"])
def test_entrypoint_prints_the_serial_bytes(tmp_path, monkeypatch, long_series, kill):
    # A send to a dead child must not raise SIGPIPE in a process where it kills,
    # and with the default warning filters no "warning:" line may reach stderr
    # (Python 3.12 warns when a process with threads forks).
    config = write_config(tmp_path, {})
    with monkeypatch.context() as m:
        cpus(m.setattr, 1)
        _, expected, _ = monitor(config, long_series["model"], long_series["csv"])
    args = ["--config", str(config), "monitor", str(long_series["model"]), str(long_series["csv"])]
    proc = subprocess.run(
        forced_cli(*args, kill=kill), cwd=tmp_path, env=cli_env(), capture_output=True, text=True, timeout=300
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == expected


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
def test_head_leaves_no_process(tmp_path, long_series):
    # ``monitor ... | head -1``: the parent is killed by SIGPIPE, as before, and
    # its render child sees its input end and exits. stderr goes to a file, so a
    # child left running fails the test rather than hanging it on the pipe.
    args = ["monitor", str(long_series["model"]), str(long_series["csv"])]
    with open(tmp_path / "stderr.txt", "wb") as err:
        proc = subprocess.Popen(
            forced_cli(*args), cwd=tmp_path, env=cli_env(), stdout=subprocess.PIPE, stderr=err,
            start_new_session=True,
        )
    try:
        assert json.loads(proc.stdout.readline())["k"] == long_series["d"]
        proc.stdout.close()
        proc.wait(timeout=120)
        deadline = time.monotonic() + 20
        while True:
            try:
                os.killpg(proc.pid, 0)  # the group outlives its leader while a member runs
            except ProcessLookupError:
                break
            assert time.monotonic() < deadline, "a process of monitor's group is still running"
            time.sleep(0.05)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    assert proc.returncode == -signal.SIGPIPE
    assert (tmp_path / "stderr.txt").read_bytes() == b""
