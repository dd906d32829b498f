"""``pseirs analyze`` of a pSEIRS trajectory of PIPELINE_MIN_ROWS rows or
more parses the CSV body in a forked child while this process rebuilds the
derivative rows.  At one CPU, and wherever the child does not parse every
row, the file is parsed serially.  Both ways must give the same output
bytes and the same error records, and leave no process behind."""

import contextlib
import io
import json
import os
import shlex
import signal
import subprocess

import numpy as np
import pytest

from pseirs import _fork, scenario
from pseirs.cli import main

from test_scenario_cli import (CONFIG_DIR, children_left, load_config, run_cli,
                               run_forked, tree_bytes)

PSEIRS_CONFIGS = ("scale_free_5000", "seirs_baseline", "seirs_long_latency",
                  "seirs_low_immunity")


@pytest.fixture
def parses(tmp_path, monkeypatch):
    """A file that gets one line for each forked parse an ``analyze``
    starts, in this process or in a forked one."""
    log = tmp_path / "parses.txt"
    log.write_text("")

    class LoggedParse(scenario._ForkedParse):
        def __init__(self, *args):
            super().__init__(*args)
            with open(log, "a") as f:
                f.write("parse\n")

    monkeypatch.setattr(scenario, "_ForkedParse", LoggedParse)
    return log


def started(log) -> int:
    return len(log.read_text().splitlines())


@pytest.fixture(scope="module")
def stored(tmp_path_factory):
    """name -> (config path, stored trajectory path) for the four shipped
    pSEIRS configs and ``long_baseline``, the baseline cut to a horizon
    just above PIPELINE_MIN_ROWS rows."""
    root = tmp_path_factory.mktemp("stored")
    raw = load_config("seirs_baseline.json")
    step = scenario.ScenarioConfig.from_dict(raw).step
    raw["horizon"] = (scenario.PIPELINE_MIN_ROWS + 500) * step
    configs = {name: CONFIG_DIR / f"{name}.json" for name in PSEIRS_CONFIGS}
    configs["long_baseline"] = root / "long_baseline.json"
    configs["long_baseline"].write_text(json.dumps(raw))
    runs = {}
    for name, config in configs.items():
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["simulate", "--config", str(config),
                         "--out", str(root / name)]) == 0
        runs[name] = (config, root / name / "trajectory.csv")
    return runs


def analyze(config, trajectory, out):
    """(exit code, stderr, output tree) of one ``pseirs analyze``."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(["analyze", "--config", str(config),
                     "--trajectory", str(trajectory), "--out", str(out)])
    return code, err.getvalue(), tree_bytes(out) if out.exists() else None


def at_two_and_one_cpu(monkeypatch, parses, tmp_path, config, trajectory):
    """``analyze`` results at 2 and at 1 usable CPUs, which must be equal,
    and the forked parses each started."""
    results, forks = [], []
    for cpus in (2, 1):
        monkeypatch.setattr(_fork, "usable_cpus", lambda n=cpus: n)
        before = started(parses)
        results.append(analyze(config, trajectory, tmp_path / f"cpus{cpus}"))
        forks.append(started(parses) - before)
    assert results[0] == results[1]
    assert not children_left()
    return results[0], forks


@pytest.mark.parametrize("name", PSEIRS_CONFIGS)
def test_shipped_configs_analyze_to_the_serial_bytes(tmp_path, monkeypatch,
                                                     parses, stored, name):
    config, trajectory = stored[name]
    (code, err, tree), forks = at_two_and_one_cpu(monkeypatch, parses,
                                                  tmp_path, config, trajectory)
    assert code == 0 and err == ""
    assert "summary.json" in tree
    # the 6,001 rows of seirs_long_latency stay below the threshold
    assert forks == [int(name != "seirs_long_latency"), 0]


def damaged(lines, kind):
    """The text of ``lines`` (a stored trajectory, header first) with one
    damage of ``kind`` three quarters of the way into its rows, where the
    forked parse has sent, and this process rebuilt, rows before it."""
    header, rows = lines[0], [line.split(",") for line in lines[1:]]
    k = 3 * len(rows) // 4
    end = "\n"
    if kind.startswith("ragged_row"):
        rows[k] = rows[k][:-1] if kind.endswith("short") else rows[k] + ["1.0"]
    elif kind.startswith("non_numeric_field"):
        rows[k][2] = kind.rpartition(":")[2]
    elif kind.startswith("non_finite_field"):
        rows[k][3] = kind.rpartition(":")[2]
    elif kind == "header_only":
        rows = []
    elif kind == "dropped_last_column_rows":
        rows = [row[:-1] for row in rows]
    elif kind == "dropped_last_column_header":
        header = header.rpartition(",")[0]
    elif kind == "zero_population_row":
        rows[k] = [rows[k][0]] + ["0.0"] * (len(rows[k]) - 1)
    elif kind == "non_uniform_time":
        rows[k][0] = repr(float(rows[k][0]) + 0.3 * float(rows[1][0]))
    text = [header] + [",".join(row) for row in rows]
    if kind == "crlf":
        return "\r\n".join(text) + "\r\n"
    if kind == "crlf_rows":
        return text[0] + "\n" + "\r\n".join(text[1:]) + "\r\n"
    if kind == "blank_line":
        text.insert(k, "")
    elif kind == "comment_line":
        text.insert(k, "# a comment")
    elif kind == "no_final_newline":
        end = ""
    elif kind == "non_ascii_byte":
        text[k] = text[k].replace(".", "é", 1)
    return "\n".join(text) + end


DAMAGE = ["ragged_row:short", "ragged_row:long", "non_numeric_field:x",
          "non_numeric_field:", "non_numeric_field:1.0.0",
          "non_numeric_field:0x10", "non_numeric_field:--1",
          "non_numeric_field:1,0", "non_finite_field:nan",
          "non_finite_field:-inf", "non_finite_field:1e999", "header_only",
          "dropped_last_column_rows", "dropped_last_column_header",
          "zero_population_row", "non_uniform_time", "crlf", "crlf_rows",
          "blank_line",
          "comment_line", "no_final_newline", "non_ascii_byte"]
# damage a forked parse never starts on: no rows, or another header line
SERIAL_ONLY = {"header_only", "dropped_last_column_header", "crlf"}
# damage the serial read takes in its stride
PARSES_CLEANLY = {"crlf", "crlf_rows", "blank_line", "comment_line",
                  "no_final_newline"}


@pytest.mark.parametrize("kind", DAMAGE)
def test_damage_gives_the_serial_result(tmp_path, monkeypatch, parses, stored,
                                        kind):
    config, trajectory = stored["long_baseline"]
    csv = tmp_path / "trajectory.csv"
    csv.write_bytes(damaged(trajectory.read_text().splitlines(),
                            kind).encode("utf-8"))
    (code, err, tree), forks = at_two_and_one_cpu(monkeypatch, parses,
                                                  tmp_path, config, csv)
    assert forks == [int(kind not in SERIAL_ONLY), 0]
    if kind in PARSES_CLEANLY:
        assert code == 0 and err == ""
        _, _, clean = analyze(config, trajectory, tmp_path / "clean")
        assert tree == clean
    else:
        assert code == 1 and tree is None
        record = json.loads(err)
        assert list(record) == ["error"]


def test_zero_population_then_bad_cell_is_invalid_parameter(
        tmp_path, monkeypatch, parses, stored):
    # reconstruction stops at the zero row while the child still parses;
    # the non-numeric cell after it wins, as in the serial read
    config, trajectory = stored["long_baseline"]
    lines = trajectory.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    rows[100] = [rows[100][0]] + ["0.0"] * 5
    rows[-100][2] = "x"
    csv = tmp_path / "trajectory.csv"
    csv.write_text("\n".join([lines[0], *map(",".join, rows)]) + "\n")
    (code, err, tree), forks = at_two_and_one_cpu(monkeypatch, parses,
                                                  tmp_path, config, csv)
    assert forks == [1, 0]
    assert code == 1 and tree is None
    assert json.loads(err)["error"]["type"] == "InvalidParameter"


def test_network_error_waits_for_the_parse(tmp_path, monkeypatch, parses,
                                           stored):
    # m > m0 fails only when the graph is generated, during the parse
    raw = load_config("scale_free_5000.json")
    raw["network"]["m"] = raw["network"]["m0"] + 1
    config = tmp_path / "bad_network.json"
    config.write_text(json.dumps(raw))
    _, trajectory = stored["scale_free_5000"]
    (code, err, _), forks = at_two_and_one_cpu(
        monkeypatch, parses, tmp_path / "clean", config, trajectory)
    assert forks == [1, 0] and code == 1
    assert json.loads(err)["error"]["type"] == "InvalidGraphParams"
    # a damaged file's InvalidParameter wins over it
    csv = tmp_path / "trajectory.csv"
    csv.write_text(damaged(trajectory.read_text().splitlines(),
                           "non_finite_field:nan"))
    (code, err, _), forks = at_two_and_one_cpu(
        monkeypatch, parses, tmp_path / "damaged", config, csv)
    assert forks == [1, 0] and code == 1
    assert json.loads(err)["error"]["type"] == "InvalidParameter"


def exit_parse_child(fd, data, start, columns, inherited):
    """A parsing child that dies before it sends a row."""
    os._exit(3)


def killed_parse_child(fd, data, start, columns, inherited):
    """A parsing child that sends the rows of the first half of the body,
    then is killed by SIGKILL."""
    for other in inherited:
        os.close(other)
    half = data.find(b"\n", (start + len(data)) // 2) + 1
    rows = np.loadtxt(io.StringIO(data[start:half].decode("ascii")),
                      delimiter=",", ndmin=2)
    with open(fd, "wb") as pipe:
        pipe.write(rows)
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("child", [exit_parse_child, killed_parse_child],
                         ids=["exit", "killed"])
def test_dead_parse_child_gives_the_serial_summary(tmp_path, monkeypatch,
                                                   parses, stored, child):
    config, trajectory = stored["seirs_baseline"]
    monkeypatch.setattr(_fork, "usable_cpus", lambda: 1)
    _, _, serial = analyze(config, trajectory, tmp_path / "serial")
    monkeypatch.setattr(_fork, "usable_cpus", lambda: 2)
    monkeypatch.setattr(scenario, "_parse_child", child)
    argv = ["analyze", "--config", str(config), "--trajectory",
            str(trajectory), "--out", str(tmp_path / "forked")]
    assert run_forked(run_cli, argv, tmp_path / "stderr.txt") == 0
    assert (tmp_path / "stderr.txt").read_text() == ""
    assert started(parses) == 1
    assert tree_bytes(tmp_path / "forked") == serial


def test_fifo_is_read_once(tmp_path, monkeypatch, parses, stored):
    # the pipelined read and its serial fallback share the bytes read once
    config, trajectory = stored["seirs_baseline"]
    monkeypatch.setattr(_fork, "usable_cpus", lambda: 2)
    _, _, from_file = analyze(config, trajectory, tmp_path / "file")
    fifo = tmp_path / "trajectory.csv"
    os.mkfifo(fifo)
    writer = subprocess.Popen(["sh", "-c", f"cat {shlex.quote(str(trajectory))}"
                               f" > {shlex.quote(str(fifo))}"])
    try:
        result = analyze(config, fifo, tmp_path / "fifo")
    finally:
        writer.wait(timeout=60)
    assert result == (0, "", from_file)
    assert started(parses) == 2
