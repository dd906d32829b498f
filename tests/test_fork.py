"""``_fork.Child``, the one lifecycle of every forked sweep worker and CSV
formatter: its exit code says whether its work returned, its parent can
always end it, it forks nothing itself, and it holds no pipe end but its
own."""

import json
import os
import signal
import sys
import time

import numpy as np
import pytest

from pseirs import _fork, stats

from conftest import children_left
from test_scenario_cli import run_forked

needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                                reason="no /proc/self/fd")


def returns(fd):
    pass


def raises(fd):
    raise ValueError("the work failed")


def sleeps(fd):
    time.sleep(60)


def fills_the_pipe(fd):
    with open(fd, "wb") as pipe:
        pipe.write(bytes(1 << 22))  # 64 times a Linux pipe's buffer


def writes_fork_width(fd):
    os.write(fd, str(_fork.fork_width(2)).encode())


def pipe_ends():
    """fd -> ``pipe:[inode]`` for each open pipe end of this process."""
    ends = {}
    for name in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{name}")
        except OSError:  # the listing's own fd, closed by now
            continue
        if target.startswith("pipe:"):
            ends[int(name)] = target
    return ends


def new_pipe_ends(before):
    """The fds of this process's pipe ends that ``before`` does not hold."""
    return sorted(fd for fd, target in pipe_ends().items()
                  if before.get(fd) != target)


@pytest.mark.parametrize("work, code", [(returns, 0), (raises, 1)])
def test_exit_code_says_whether_work_returned(work, code):
    child = _fork.Child(work)
    try:
        assert child.wait() == code
        assert child.wait() == code  # reaped once, asked twice
    finally:
        child.close()


def test_killed_child_waits_non_zero():
    child = _fork.Child(sleeps)
    try:
        os.kill(child.pid, signal.SIGKILL)
        assert child.wait() == -signal.SIGKILL
    finally:
        child.close()


def close_blocked_child():
    """Process target: 0 once ``close`` ended a child blocked on a full
    pipe with EPIPE, 3 if the child exited otherwise, 4 if it is left."""
    child = _fork.Child(fills_the_pipe)
    assert os.read(child.fd, 1) == b"\0"  # the child is writing
    child.close()
    sys.exit(4 if children_left() else 0 if child.code == 1 else 3)


def test_close_ends_a_child_blocked_on_a_full_pipe():
    assert run_forked(close_blocked_child) == 0


def test_child_forks_nothing(monkeypatch):
    monkeypatch.setattr(_fork, "usable_cpus", lambda: 2)
    assert _fork.fork_width(2) == 2
    child = _fork.Child(writes_fork_width)
    try:
        assert os.read(child.fd, 16) == b"1"
        assert child.wait() == 0
    finally:
        child.close()


@needs_proc
def test_child_holds_only_its_own_pipe_end():
    before = pipe_ends()

    def reports_pipe_ends(fd):
        os.write(fd, json.dumps([fd, new_pipe_ends(before)]).encode())

    first = _fork.Child(fills_the_pipe)
    try:
        second = _fork.Child(reports_pipe_ends)
        try:
            fd, ends = json.loads(os.read(second.fd, 1 << 12))
            assert second.wait() == 0
        finally:
            second.close()
    finally:
        first.close()
    assert ends == [fd]


@needs_proc
def test_phase_plane_formatter_holds_no_stream_end(tmp_path, monkeypatch):
    # a run's phase planes are formatted while its trajectory stream's
    # child holds text this process has not read yet
    monkeypatch.setattr(_fork, "usable_cpus", lambda: 2)
    before = pipe_ends()
    report = tmp_path / "ends.json"
    format_child = stats._format_child

    def reporting_child(fd, blocks, row):
        def reported_blocks():
            report.write_text(json.dumps([fd, new_pipe_ends(before)]))
            yield from blocks
        format_child(fd, reported_blocks(), row)

    rows = -(-stats.CSV_SPLIT_MIN_VALUES // 6)  # t, S, E, I, R and N
    stream = stats.trajectory_stream(0.5, rows)
    try:
        stream.send(np.ones((rows, 4)))
        monkeypatch.setattr(stats, "_format_child", reporting_child)
        plane = np.ones((stats.CSV_SPLIT_MIN_VALUES, 2))
        assert "".join(stats.csv_row_blocks(plane)) == "1.0,1.0\n" * len(plane)
        assert len("".join(stream.text()).splitlines()) == rows
    finally:
        stream.close()
    fd, ends = json.loads(report.read_text())
    assert ends == [fd]
