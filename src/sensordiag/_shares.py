"""The one module that forks a child, talks to it and ends it, or pins numpy's BLAS threads, for
the shares of ``harness.sweep`` and ``dataset.write_raw_csv`` and ``cli.cmd_monitor``'s render
child; each message is one pickle over a socket pair. Callers keep their rules for when a child
pays (README "Performance") and do what a child could not."""

import contextlib
import ctypes
import os
import pickle
import signal
from typing import NamedTuple


def usable_cpus() -> int:
    """The CPUs this process may run on, or 1 where the platform cannot fork or tell."""
    can_fork = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    return len(os.sched_getaffinity(0)) if can_fork else 1


def blas_threads():
    """The ``(get, set)`` thread-count functions of numpy's OpenBLAS, or ``None``."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split(None, 5)[-1].strip() for line in fh if "openblas" in line.lower()}
        for lib in map(ctypes.CDLL, sorted(paths)):
            for name in ("scipy_openblas_%s_num_threads64_", "scipy_openblas_%s_num_threads",
                         "openblas_%s_num_threads64_", "openblas_%s_num_threads"):
                if hasattr(lib, name % "get") and hasattr(lib, name % "set"):
                    return (ctypes.CFUNCTYPE(ctypes.c_int)((name % "get", lib)),
                            ctypes.CFUNCTYPE(None, ctypes.c_int)((name % "set", lib)))
    except OSError:  # no readable maps, or a mapped library that does not load
        pass
    return None


@contextlib.contextmanager
def one_blas_thread():
    """BLAS at one thread inside the block and as it was after it; yields whether it could."""
    get, put = blas_threads() or (lambda: None, lambda threads: None)
    threads = get()
    put(1)
    try:
        yield threads is not None
    finally:
        put(threads)


class Link(NamedTuple):
    """One end of a socket pair: the parent's, with its child's pid and pidfd, or the child's."""

    sock: object
    inbox: object  # a buffered reader over sock
    pid: int  # 0 in the child
    pidfd: int | None = None  # None in the child, or where the platform has no pidfds


def fork(body) -> Link | None:
    """Fork a child that runs ``body(link)`` on its end of a new socket pair and exits; the
    parent's end, or ``None`` without a pair (``EMFILE``) or a fork (``EAGAIN``, ``ENOMEM``)."""
    import socket  # here, not at the top, so the commands that never fork do not load it

    try:
        ours, theirs = socket.socketpair()
    except OSError:
        return None
    with theirs:  # the parent's copy of the child's end closes on the way out
        try:
            pid = os.fork()
        except OSError:
            ours.close()
            return None
        if pid == 0:
            try:
                ours.close()  # so the child sees its input end once the parent's end closes
                body(Link(theirs, theirs.makefile("rb"), 0))
            finally:
                os._exit(0)
    pidfd = None  # end() signals through it, so never through a pid the kernel has freed
    with contextlib.suppress(AttributeError, OSError):  # no pidfds, or a child reaped already
        pidfd = os.pidfd_open(pid)
    return Link(ours, ours.makefile("rb"), pid, pidfd)


def send(link: Link | None, message) -> bool:
    """Send ``message`` as one pickle; ``False`` with no peer or a dead one (EPIPE, ECONNRESET)."""
    if link is None:
        return False
    from socket import MSG_NOSIGNAL  # a dead peer is an error, not a SIGPIPE; fork loaded socket
    try:
        link.sock.sendall(pickle.dumps(message, pickle.HIGHEST_PROTOCOL), MSG_NOSIGNAL)
    except OSError:
        return False
    return True


def receive(link: Link | None):
    """The next message, or ``None`` if there is no peer or it died before all of it came."""
    if link is None:
        return None
    try:
        return pickle.load(link.inbox)
    except (OSError, EOFError, pickle.UnpicklingError):  # OSError: it died with ours unread
        return None


def end(link: Link | None) -> None:
    """Close the parent's end of ``link``, then kill its child (by pidfd if it has one), reap it."""
    if link is not None:
        link.inbox.close()
        link.sock.close()
        with contextlib.suppress(ProcessLookupError, ChildProcessError):  # SIGCHLD ignored: reaped
            if link.pidfd is None:
                os.kill(link.pid, signal.SIGKILL)  # no effect on a child that has exited
            else:
                signal.pidfd_send_signal(link.pidfd, signal.SIGKILL)
            os.waitpid(link.pid, 0)
        if link.pidfd is not None:
            os.close(link.pidfd)


def in_order(task, count: int, k: int, sink) -> None:
    """``sink(task(i))`` for each ``i`` in ``range(count)``, in order; share ``i % k`` does item
    ``i``: share 0 here, each other a child forked at one BLAS thread that sends each item as it
    is done. Items are done here without a BLAS setter, or if their child was not forked or died."""
    k = min(k, count)
    with one_blas_thread() if k > 1 else contextlib.nullcontext(False) as pinned:
        children = []
        try:
            for j in range(1, k if pinned else 1):
                mine = range(j, count, k)
                children.append(fork(lambda link, r=mine: all(send(link, task(i)) for i in r)))
            for i in range(count):
                result = receive(children[i % k - 1]) if children and i % k else None
                sink(task(i) if result is None else result)
        finally:
            for child in children:
                end(child)
