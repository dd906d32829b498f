"""Forked processes, shared by the sweep pool and the trajectory CSV
reader of ``analyze`` (``scenario``) and the CSV formatters (``stats``):
how many processes may share a job, and the one filter for Python 3.12's
warning on ``fork()``.

Forking goes one level deep: a sweep's pool workers fork nothing of their
own, so a run's trajectory is formatted during the solve, and a large
phase plane split over processes, only outside a pool.  ``analyze``
parses a long pSEIRS trajectory in one forked child while it rebuilds
the derivative rows.
"""

from __future__ import annotations

import contextlib
import os
import threading
import warnings

# set by ``enter_worker`` in the sweep pool's workers
_in_worker = False


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
    at most one per piece; 1 without ``os.fork`` or in a pool worker."""
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
