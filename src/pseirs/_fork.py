"""Forked processes for the sweep (``scenario``) and the CSV formatters
(``stats``): how many processes may share a job, and ``Child``, where
every sweep worker and formatter child is started, ended and reaped.  A
child first closes every pipe end ``_fork`` handed to its parent that is
still open, so it holds only its own, and a closed read end means EPIPE
to the one child that writes it.  It exits 0 when its work returns and 1
when the work raises.

Forking goes one level deep: every ``Child`` forks nothing of its own
(``fork_width`` is 1 there), so a pSEIRS trajectory is formatted during
the solve, and a large phase plane or SIR trajectory split after it,
only outside a sweep worker.  ``analyze`` reads and parses a stored
trajectory in its own process; only its phase-plane CSVs may be split.
"""

from __future__ import annotations

import os
import signal
import threading
import warnings

# set in every ``Child``
_in_worker = False
# the pipe ends ``pipe`` and ``Child`` handed to this process, while open
_ends: set[int] = set()


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call outside Linux
        return os.cpu_count() or 1


def fork_width(parts: int) -> int:
    """Processes to share ``parts`` pieces of work: one per usable CPU and
    at most one per piece; 1 without ``os.fork`` and in a ``Child``."""
    if _in_worker or not hasattr(os, "fork"):
        return 1
    return min(parts, usable_cpus())


def pipe() -> tuple[int, int]:
    """A pipe (r, w) into the next ``Child``: its work reads r, which this
    process closes once the child is forked; w is this process's end,
    closed in every child, until ``close_end(w)``."""
    r, w = os.pipe()
    _ends.add(w)
    return r, w


def close_end(fd: int) -> None:
    """Close a pipe end that ``pipe`` or ``Child`` handed out."""
    _ends.remove(fd)
    os.close(fd)


class Child:
    """A forked process that runs ``work(fd, *args)``, ``fd`` the write end
    of a pipe whose read end is this process's ``fd``; it exits 0 when
    ``work`` returns and 1 when it raises."""

    def __init__(self, work, *args):
        global _in_worker
        r, w = os.pipe()
        _ends.add(r)
        try:
            with warnings.catch_warnings():
                # Python 3.12+ warns on fork() with OS threads (numpy's BLAS
                # pool); with no other Python thread, none holds a lock here
                if threading.active_count() == 1:
                    warnings.filterwarnings(
                        "ignore", r"This process \(pid=\d+\) is "
                        r"multi-threaded, use of fork\(\)", DeprecationWarning)
                pid = os.fork()
        except BaseException:
            close_end(r)
            os.close(w)
            raise
        if pid == 0:
            code = 1
            try:
                for end in _ends:
                    os.close(end)
                _ends.clear()
                _in_worker = True
                work(w, *args)
                code = 0
            finally:
                os._exit(code)
        os.close(w)
        self.fd, self.pid, self.code = r, pid, None

    def wait(self) -> int:
        """Reap the child, once; its exit code, -N if signal N ended it."""
        if self.code is None:
            self.code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        return self.code

    def kill(self) -> None:
        """End the child with SIGKILL, unless it has been reaped."""
        if self.code is None:
            os.kill(self.pid, signal.SIGKILL)

    def close(self) -> None:
        """Close the read end, then reap the child: one blocked on a full
        pipe gets EPIPE and exits, so the wait cannot hang."""
        if self.fd is not None:
            close_end(self.fd)
            self.fd = None
        self.wait()
