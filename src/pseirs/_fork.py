"""Forked processes, shared by the sweep pool and the trajectory CSV
reader of ``analyze`` (``scenario``) and the CSV formatters (``stats``):
how many processes may share a job, the one filter for Python 3.12's
warning on ``fork()``, and ``Child``, where every formatter and parser
child is started, ended and reaped.  A child first closes every pipe end
``_fork`` handed to its parent that is still open, so it holds only its
own, and a closed read end means EPIPE to the one child that writes it.
It exits 0 when its work returns and 1 when the work raises.

Forking goes one level deep: a sweep's pool workers and every ``Child``
fork nothing of their own (``fork_width`` is 1 there), so a run's
trajectory is formatted during the solve, and a large phase plane split
over processes, only outside a pool.  ``analyze`` parses a long pSEIRS
trajectory in one forked child while it rebuilds the derivative rows.
"""

from __future__ import annotations

import contextlib
import os
import threading
import warnings

# set in a sweep pool's workers (``enter_worker``) and in every ``Child``
_in_worker = False
# the pipe ends ``pipe`` and ``Child`` handed to this process, while open
_ends: set[int] = set()


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call outside Linux
        return os.cpu_count() or 1


def enter_worker() -> None:
    """Pool initializer: this process forks no processes of its own."""
    global _in_worker
    _in_worker = True


def fork_width(parts: int) -> int:
    """Processes to share ``parts`` pieces of work: one per usable CPU and
    at most one per piece; 1 without ``os.fork``, in a pool worker and in
    a ``Child``."""
    if _in_worker or not hasattr(os, "fork"):
        return 1
    return min(parts, usable_cpus())


@contextlib.contextmanager
def fork_warning_filtered():
    """Hide Python 3.12+'s DeprecationWarning on ``fork()`` from a process
    with OS threads, such as numpy's BLAS pool, while no other Python
    thread runs: none can then hold a lock a child needs.  With another
    Python thread running the warning still shows."""
    with warnings.catch_warnings():
        if threading.active_count() == 1:
            warnings.filterwarnings(
                "ignore", r"This process \(pid=\d+\) is multi-threaded, "
                r"use of fork\(\)", DeprecationWarning)
        yield


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
            with fork_warning_filtered():
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

    def close(self) -> None:
        """Close the read end, then reap the child: one blocked on a full
        pipe gets EPIPE and exits, so the wait cannot hang."""
        if self.fd is not None:
            close_end(self.fd)
            self.fd = None
        self.wait()
