"""The one module that forks a child, talks to it and ends it, for ``harness.sweep``'s shares
and ``cli.cmd_monitor``'s render child; each message is one pickle over a socket pair. Callers
keep their rules for when a child pays (README "Performance") and do what a child could not."""

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


class Link(NamedTuple):
    """One end of a socket pair: the parent's, with its child's pid, or the child's, with 0."""

    sock: object
    inbox: object  # a buffered reader over sock
    pid: int


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
    return Link(ours, ours.makefile("rb"), pid)


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
    """Close the parent's end of ``link``, then kill and reap its child."""
    if link is not None:
        link.inbox.close()
        link.sock.close()
        with contextlib.suppress(ProcessLookupError, ChildProcessError):  # SIGCHLD ignored: reaped
            os.kill(link.pid, signal.SIGKILL)  # no effect on a child that has exited
            os.waitpid(link.pid, 0)
