"""``simulate``'s fast paths against their slow oracles.

* The stationary covariance comes from Smith's doubling, checked against the
  Lyapunov equation itself and against the dense Kronecker solve of
  ``test_harness.stationary_column_stds``.
* The VAR(2) recursion runs in blocks of steps (``harness._var2``), checked
  against the one-step-at-a-time loop.
* ``write_raw_csv`` formats its blocks in forked shares, checked against the
  serial writer at every share count and whenever a share's child fails.
* The bytes ``simulate`` writes do not depend on the BLAS thread count.
"""

import errno
import hashlib
import json
import os
import signal
import socket
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import test_harness as th
from sensordiag import RawDataset, _shares, dataset, default_sim_config, harness, simulate, write_raw_csv

SRC = Path(dataset.__file__).resolve().parents[1]
needs_blas = pytest.mark.skipif(_shares.blas_threads() is None, reason="no OpenBLAS thread setter is loaded")
pytestmark = pytest.mark.filterwarnings("ignore:.*use of fork:DeprecationWarning")
BLOCK = dataset._CSV_CHUNK_ROWS


def sequential_var2(ar1, ar2, noise, before=None):
    """The recursion one step at a time, after the rows ``before`` (zeros)."""
    y = np.zeros((len(noise) + 2, noise.shape[1]))
    if before is not None:
        y[:2] = before
    for t in range(len(noise)):
        y[t + 2] = ar1 @ y[t + 1] + ar2 @ y[t] + noise[t]
    return y[2:]


def sequential_simulate(config):
    """``simulate`` with the recursion one step at a time and one draw of all the noise."""
    noise = np.random.default_rng(config.seed).normal(
        0.0, config.noise_std, size=(harness._BURN_IN + config.m_samples, config.n_sensors)
    )
    return sequential_var2(config.ar1, config.ar2, noise)[harness._BURN_IN :] @ config.mixing.T


def close(fast, slow, rtol=1e-13):
    """Within ``rtol`` of the largest magnitude of ``slow``."""
    return np.abs(fast - slow).max(initial=0.0) <= rtol * np.abs(slow).max(initial=0.0)


class TestStationaryCovariance:
    @pytest.mark.parametrize("n", [1, 4, 8, 18, 32])
    def test_solves_the_lyapunov_equation_to_a_few_ulps(self, n):
        config = default_sim_config(n_sensors=n)
        f = harness._companion(config.ar1, config.ar2)
        sigma = harness._stationary_covariance(config.ar1, config.ar2)
        q = np.zeros_like(sigma)
        q[:n, :n] = np.eye(n)
        residual = np.linalg.norm(sigma - f @ sigma @ f.T - q)
        assert residual <= 4 * np.finfo(float).eps * np.linalg.norm(sigma)

    @pytest.mark.parametrize("n", [1, 4, 8, 18])
    def test_matches_the_kronecker_solve(self, n):
        config = default_sim_config(n_sensors=n)
        sigma_y = harness._stationary_covariance(config.ar1, config.ar2)[:n, :n]
        stds = np.sqrt(np.diag(config.mixing @ sigma_y @ config.mixing.T))
        np.testing.assert_allclose(stds, th.stationary_column_stds(config), rtol=1e-12)

    def test_the_doubling_count_follows_from_the_radius_bound(self):
        # 0.95^(2i) falls below 2^-52 from i = 352, which 2^9 terms cover; 3 doublings more.
        assert harness._MAX_RADIUS == 0.95 and harness._DOUBLINGS == 12


class TestBlockedRecursion:
    @pytest.mark.parametrize("n", [8, 18])
    @pytest.mark.parametrize("steps", [1, 2, 31, 32, 33, 40_200])
    def test_matches_the_step_loop(self, n, steps):
        config = default_sim_config(n_sensors=n)
        noise = np.random.default_rng(steps).standard_normal((steps, n))
        fast = harness._var2(config.ar1, config.ar2, noise)
        assert fast.shape == noise.shape
        assert close(fast, sequential_var2(config.ar1, config.ar2, noise))

    @pytest.mark.parametrize("steps", [1, 2, 33])
    def test_continues_from_the_rows_before(self, steps):
        config = default_sim_config(n_sensors=8)
        rng = np.random.default_rng(5)
        before, noise = rng.standard_normal((2, 8)), rng.standard_normal((steps, 8))
        fast = harness._var2(config.ar1, config.ar2, noise, before)
        assert close(fast, sequential_var2(config.ar1, config.ar2, noise, before))

    @pytest.mark.parametrize("slab_rows", [None, 37, 64])
    def test_simulate_in_slabs_matches_the_step_loop(self, monkeypatch, slab_rows):
        # A slab of draws ends inside a block, on a block edge, or never (the default).
        config = default_sim_config(n_sensors=8, m_samples=3000, seed=9)
        if slab_rows is not None:
            monkeypatch.setattr(harness, "_SLAB_VALUES", slab_rows * config.n_sensors)
        assert close(simulate(config).samples, sequential_simulate(config))


def dataset_of(rows, n=3, seed=0):
    samples = np.random.default_rng(seed).standard_normal((rows, n)) * 10.0 ** np.arange(-3, n - 3)
    return RawDataset(samples, tuple(f"c{i}" for i in range(n)))


def shares(monkeypatch, count):
    """Let ``write_raw_csv`` format in up to ``count`` shares, whatever its size."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    monkeypatch.setattr(dataset, "_WRITE_MIN_VALUES", 0)


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def counting_forks(monkeypatch):
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


@needs_blas
class TestWriterShares:
    @pytest.mark.parametrize("rows", [2, BLOCK - 1, BLOCK, BLOCK + 1, 5 * BLOCK + 3])
    def test_every_share_count_writes_the_serial_bytes(self, monkeypatch, tmp_path, rows):
        data = dataset_of(rows)
        write_raw_csv(data, tmp_path / "serial.csv")
        expected = (tmp_path / "serial.csv").read_bytes()
        forks = counting_forks(monkeypatch)
        for count in (1, 2, 4):
            shares(monkeypatch, count)
            write_raw_csv(data, tmp_path / f"{count}.csv")
            assert (tmp_path / f"{count}.csv").read_bytes() == expected, count
        blocks = -(-rows // BLOCK)
        assert len(forks) == min(2, blocks) - 1 + min(4, blocks) - 1
        no_child_left()

    def test_below_the_threshold_it_never_forks(self, monkeypatch, tmp_path):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        forks = counting_forks(monkeypatch)
        write_raw_csv(dataset_of(dataset._WRITE_MIN_VALUES // 3 - 1), tmp_path / "small.csv")
        assert forks == []

    def expected_and_fds(self, tmp_path, data):
        write_raw_csv(data, tmp_path / "serial.csv")
        return (tmp_path / "serial.csv").read_bytes(), len(os.listdir("/proc/self/fd"))

    @pytest.mark.parametrize("when", ["before-sending", "mid-message"])
    def test_a_dead_childs_blocks_are_formatted_here(self, monkeypatch, tmp_path, when):
        data = dataset_of(7 * BLOCK)
        expected, fds = self.expected_and_fds(tmp_path, data)
        parent, sendall = os.getpid(), socket.socket.sendall

        def dying_sendall(sock, payload, *flags):
            if os.getpid() != parent:
                if when == "mid-message":
                    sendall(sock, payload[: len(payload) // 2], *flags)
                os.kill(os.getpid(), signal.SIGKILL)
            return sendall(sock, payload, *flags)

        monkeypatch.setattr(socket.socket, "sendall", dying_sendall)
        shares(monkeypatch, 4)
        write_raw_csv(data, tmp_path / "shared.csv")
        assert (tmp_path / "shared.csv").read_bytes() == expected
        assert len(os.listdir("/proc/self/fd")) == fds
        no_child_left()

    @pytest.mark.parametrize("failing", ["fork", "socketpair"])
    def test_a_child_that_cannot_be_made_has_its_blocks_formatted_here(self, monkeypatch, tmp_path, failing):
        data = dataset_of(7 * BLOCK)
        expected, fds = self.expected_and_fds(tmp_path, data)
        calls = []

        def out_of_resources(*args):
            calls.append(1)
            if failing == "fork":
                raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
            raise OSError(errno.EMFILE, "Too many open files")

        monkeypatch.setattr(os if failing == "fork" else socket, failing, out_of_resources)
        shares(monkeypatch, 4)
        write_raw_csv(data, tmp_path / "shared.csv")
        assert (tmp_path / "shared.csv").read_bytes() == expected
        assert len(calls) == 3
        assert len(os.listdir("/proc/self/fd")) == fds
        no_child_left()


WRITE_LIMITED = """
import os, resource, signal, sys
from sensordiag import cli, dataset
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)  # a write past the limit fails with EFBIG
resource.setrlimit(resource.RLIMIT_FSIZE, (100_000, 100_000))
if sys.argv[1] == "shares":
    os.sched_getaffinity = lambda pid: {0, 1, 2, 3}
    dataset._WRITE_MIN_VALUES = 0
else:
    os.sched_getaffinity = lambda pid: {0}
sys.exit(cli.main(["--config", sys.argv[2], "simulate", "--out-dir", sys.argv[3]]))
"""


@needs_blas
@pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="no file size limit signal")
def test_a_write_error_is_the_serial_one_line_error(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"simulate": {"m_train": 20000, "n_validation_runs": 1}}))
    outcomes = {}
    for mode in ("serial", "shares"):
        run = subprocess.run(
            [sys.executable, "-c", WRITE_LIMITED, mode, str(config), str(tmp_path / mode)],
            env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=120,
        )
        outcomes[mode] = run.returncode, run.stdout, run.stderr.replace(mode, "<dir>")
    assert outcomes["shares"] == outcomes["serial"]
    code, stdout, stderr = outcomes["serial"]
    assert (code, stdout) == (2, "")
    assert stderr.startswith("data error: [Errno 27] File too large") and stderr.count("\n") == 1


SIMULATE_N18 = """
import hashlib
from sensordiag import default_sim_config, simulate
config = default_sim_config(n_sensors=18, m_samples=20000)
for array in (config.mixing, simulate(config).samples):
    print(hashlib.sha256(array.tobytes()).hexdigest())
"""


def at_threads(threads, args, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": str(threads)}
    run = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=300,
                         cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    return run.stdout


class TestThreadIndependence:
    """OpenBLAS sizes its thread pool from the CPU set, so a CPU-set-dependent
    ``simulate`` would give each host, and each CI leg, other data."""

    def test_default_simulate_writes_the_same_bytes_at_one_and_two_threads(self, tmp_path):
        digests = {}
        for threads in (1, 2):
            out = tmp_path / f"threads_{threads}"
            at_threads(threads, ["-m", "sensordiag", "simulate", "--out-dir", str(out)], tmp_path)
            files = sorted(out.iterdir())
            assert [p.name for p in files][0] == "train.csv" and len(files) == 5
            assert (out / "train.csv").read_bytes().count(b"\n") == 20_001
            digests[threads] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
        assert digests[1] == digests[2]

    def test_the_paper_scale_config_and_series_are_the_same_at_one_and_two_threads(self, tmp_path):
        runs = [at_threads(threads, ["-c", SIMULATE_N18], tmp_path) for threads in (1, 2)]
        assert runs[0] == runs[1] and len(runs[0].split()) == 2
