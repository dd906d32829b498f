import contextlib
import errno
import io
import json
import multiprocessing
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pseirs import _fork, scenario, stats
from pseirs.cli import main
from pseirs.core import MAX_STEPS
from pseirs.errors import (EmptyWindow, InvalidParameter, TrajectoryTooShort,
                           WorkerDied)
from pseirs.scenario import (ScenarioConfig, read_trajectory_csv, run_scenario,
                             sweep_scenario, write_trajectory_csv)

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"


MALFORMED_PSEIRS = {
    "ragged_row": ["0.0,63.0,0.0,7.0,0.0,70.0", "0.0075,63.0,0.0,7.0"],
    "non_numeric_cell": ["0.0,63.0,0.0,7.0,0.0,70.0", "0.0075,63.0,x,7.0,0.0,70.0"],
    "too_few_columns": ["0.0,63.0,0.0,7.0,0.0", "0.0075,63.0,0.0,7.0,0.0"],
    "no_samples": [],
    "nan_cell": ["0.0,63.0,0.0,7.0,0.0,70.0", "0.0075,63.0,nan,7.0,0.0,70.0"],
    "inf_cell": ["0.0,63.0,0.0,7.0,0.0,70.0", "0.0075,63.0,0.0,inf,0.0,70.0"],
}
MALFORMED_SIR = {
    "ragged_row": ["0.0,11.0,1.0,0.0", "0.01,11.0,1.0"],
    "non_numeric_cell": ["0.0,11.0,1.0,0.0", "0.01,11.0,x,0.0"],
    "too_few_columns": ["0.0,11.0,1.0", "0.01,11.0,1.0"],
    "no_samples": [],
    "nan_cell": ["0.0,11.0,1.0,0.0", "0.01,11.0,nan,0.0"],
    "inf_cell": ["0.0,11.0,1.0,0.0", "0.01,inf,1.0,0.0"],
}


def load_config(name):
    return json.loads((CONFIG_DIR / name).read_text())


@pytest.fixture
def streams(tmp_path, monkeypatch):
    """A file that gets one line for each trajectory stream a run opens,
    in this process or in a forked one."""
    log = tmp_path / "streams.txt"
    log.write_text("")

    class LoggedStream(stats.TrajectoryStream):
        def __init__(self, *args):
            super().__init__(*args)
            with open(log, "a") as f:
                f.write(f"{args}\n")

    monkeypatch.setattr(stats, "TrajectoryStream", LoggedStream)
    return log


@pytest.fixture
def workers(monkeypatch):
    """Every worker ``Child`` a sweep starts, in start order: (the index
    of its member, the workers alive once it has started)."""
    started, children = [], []

    class RecordedChild(_fork.Child):
        def __init__(self, work, *args):
            super().__init__(work, *args)
            if work is scenario._member_worker:
                children.append(self)
                started.append((args[0][2], sum(c.code is None for c in children)))

    monkeypatch.setattr(_fork, "Child", RecordedChild)
    return started


def tree_bytes(root):
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


_sweep_member = scenario._sweep_member


def exit_at_second_member(base_config, parameter, idx, value, out_dir):
    """A sweep member whose worker dies at the second value."""
    if idx == 1:
        os._exit(3)
    return _sweep_member(base_config, parameter, idx, value, out_dir)


def exit_at_first_member(base_config, parameter, idx, value, out_dir):
    """A sweep member whose worker dies at the first value."""
    if idx == 0:
        os._exit(3)
    return _sweep_member(base_config, parameter, idx, value, out_dir)


def kill_at_second_member(base_config, parameter, idx, value, out_dir):
    """A sweep member whose worker is killed at the second value."""
    if idx == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return _sweep_member(base_config, parameter, idx, value, out_dir)


class TwoArgumentError(Exception):
    """An exception that pickles but does not unpickle: its ``args`` hold
    one message, and its ``__init__`` takes two arguments."""

    def __init__(self, what, why):
        super().__init__(f"{what}: {why}")


def raise_at_second_member(base_config, parameter, idx, value, out_dir):
    """A sweep member that raises ``TwoArgumentError`` at the second value."""
    if idx == 1:
        raise TwoArgumentError("member 1", "failed")
    return _sweep_member(base_config, parameter, idx, value, out_dir)


def exit_csv_child(fd, table, row):
    """A CSV formatting child that dies before it writes."""
    os._exit(3)


def short_csv_child(fd, table, row):
    """A CSV formatting child that sends one line of its range, exit 0."""
    os.write(fd, b"0.0\n")
    os._exit(0)


def read_all_rows(blocks):
    for _ in blocks:
        pass


def exit_after_rows_child(fd, blocks, row):
    """A CSV formatting child that reads all its rows, then dies."""
    read_all_rows(blocks)
    os._exit(3)


def short_after_rows_child(fd, blocks, row):
    """A CSV formatting child that reads all its rows, then sends one
    line, exit 0."""
    read_all_rows(blocks)
    short_csv_child(fd, blocks, row)


def member_counting_forks(base_config, parameter, idx, value, out_dir):
    """A sweep member whose entry records how often its run forked."""
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(None)
        return real_fork()

    os.fork = counting_fork
    try:
        entry = _sweep_member(base_config, parameter, idx, value, out_dir)
    finally:
        os.fork = real_fork
    entry["forks"] = len(forks)
    return entry


class FullDisk(io.RawIOBase):
    """A file that takes ``room`` bytes, then fails as a full disk does."""

    def __init__(self, room):
        self.room = room

    def writable(self):
        return True

    def write(self, data):
        if len(data) > self.room:
            raise OSError(errno.ENOSPC, "No space left on device")
        self.room -= len(data)
        return len(data)


def children_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return False
    return True


def lead_group(target, *args):
    """Process target: ``target(*args)`` in a process group of its own."""
    os.setpgid(0, 0)
    target(*args)


def run_forked(target, *args):
    """Exit code of ``target(*args)`` run in a forked process, which must
    end within 120 s; on a timeout it is killed with its process group,
    so every process it forked goes too."""
    proc = multiprocessing.get_context("fork").Process(
        target=lead_group, args=(target, *args))
    proc.start()
    proc.join(timeout=120)
    if proc.is_alive():
        os.killpg(proc.pid, signal.SIGKILL)
        proc.join()
        pytest.fail(f"{target.__name__} did not end within 120 s")
    return proc.exitcode


def run_cli(argv, stderr_path):
    """Process target: the CLI's exit code, or 4 if it left a child."""
    with open(stderr_path, "w") as fh, contextlib.redirect_stderr(fh):
        code = main(argv)
    sys.exit(4 if children_left() else code)


def run_to_full_disk(config, out_dir):
    """Process target: 0 once the run failed with OSError and left no
    child, 4 if it left one, 5 if the run did not fail."""
    try:
        run_scenario(config, out_dir)
    except OSError:
        sys.exit(4 if children_left() else 0)
    sys.exit(5)


def write_to_full_disk(traj, path):
    """Process target: 0 once writing ``traj`` failed with OSError and left
    no child, 4 if it left one, 5 if the write did not fail."""
    try:
        write_trajectory_csv(traj, path)
    except OSError:
        sys.exit(4 if children_left() else 0)
    sys.exit(5)


def set_path(raw, dotted, value):
    """Set a dotted config path; integer parts index lists."""
    *parents, leaf = [int(k) if k.isdigit() else k for k in dotted.split(".")]
    node = raw
    for key in parents:
        node = node[key]
    node[leaf] = value


def test_shipped_configs_parse():
    for path in sorted(CONFIG_DIR.glob("*.json")):
        ScenarioConfig.from_dict(json.loads(path.read_text()))


def test_sir_scenario_summary(tmp_path):
    cfg = ScenarioConfig.from_dict(load_config("sir_low_infectivity.json"))
    summary = run_scenario(cfg, tmp_path)
    assert summary["r0"]["value"] == pytest.approx(0.6, rel=1e-12)
    max_i = summary["stats"]["compartments"]["I"]["max"]
    assert max_i == pytest.approx(7.189, rel=5e-3)
    assert (tmp_path / "trajectory.csv").exists()
    assert (tmp_path / "phase_S_I.csv").exists()
    doc = json.loads((tmp_path / "summary.json").read_text())
    assert doc["config"] == cfg.raw
    assert "duration" not in json.dumps(doc)


def test_pseirs_scenario_summary(tmp_path):
    raw = load_config("seirs_baseline.json")
    raw["horizon"] = 60
    cfg = ScenarioConfig.from_dict(raw)
    summary = run_scenario(cfg, tmp_path)
    assert summary["r0"]["nominal"] == pytest.approx(0.68169, abs=1e-4)
    assert summary["r0"]["linearized"] == pytest.approx(2.90305, abs=1e-4)
    assert summary["r0"]["probe"] == "growing"
    # the report must state that the quoted threshold values match neither formula
    for quoted in ("7.77", "0.3703", "8.621329079589127e-01"):
        assert quoted in summary["r0"]["note"]
    assert summary["integral_equivalence"]["max_residual"] <= 1e-4
    doc = json.loads((tmp_path / "summary.json").read_text())
    assert doc == json.loads(json.dumps(summary))  # the run returns the document
    # every requested analysis appears exactly once
    for key in ("stats", "classification", "integral_equivalence"):
        assert key in doc
    assert doc["outputs"]["phase_planes"] == ["phase_s_e_i.csv"]


def test_network_scenario(tmp_path):
    raw = load_config("scale_free_5000.json")
    raw["horizon"] = 40
    cfg = ScenarioConfig.from_dict(raw)
    summary = run_scenario(cfg, tmp_path)
    assert summary["network"]["edge_count"] == 9997
    assert summary["network"]["mean_degree"] == pytest.approx(3.9988, abs=1e-12)
    assert summary["network"]["derived_gamma"] == \
        pytest.approx(0.077 * 3.9988, rel=1e-12)
    assert (tmp_path / "edges.txt").exists()
    assert (tmp_path / "graph.json").exists()


def test_invalid_config_writes_nothing(tmp_path):
    # the first fails to parse, the second before the solve; the third
    # solves, then fails in the analyses
    for path, value, error in [("params.p", 2.0, InvalidParameter),
                               ("horizon", 20, TrajectoryTooShort),
                               ("analyses.stats", {"window": [400, 500]}, EmptyWindow)]:
        raw = load_config("seirs_baseline.json")
        set_path(raw, path, value)
        with pytest.raises(error):
            run_scenario(ScenarioConfig.from_dict(raw), tmp_path / "run")
        assert not (tmp_path / "run").exists()


def test_unknown_keys_rejected():
    raw = load_config("seirs_baseline.json")
    raw["extra"] = 1
    with pytest.raises(InvalidParameter):
        ScenarioConfig.from_dict(raw)


@pytest.mark.parametrize("path, value", [
    ("analyses.stats", 5),
    ("analyses.stats", {"window": "ab"}),
    ("analyses.classify.tail_fraction", "x"),
    ("analyses.classify.tail", 0.1),
    ("analyses.integral_equivalence.checkpoints", "many"),
    ("analyses.integral_equivalence.checkpoints", 2.5),
    ("history.s", "abc"),
    ("analyses.phase_plane.0.axes", "SI"),
    ("analyses.phase_plane.0.proportions", "no"),
    ("analyses.phase_plane.0", ["S", "I"]),
    ("analyses.threshold", "no"),
    ("network", {"n": 50.5, "m0": 3, "m": 2, "seed": 7, "per_contact_prob": 0.077}),
])
def test_config_types_checked_at_parse(path, value):
    raw = load_config("seirs_baseline.json")
    set_path(raw, path, value)
    with pytest.raises(InvalidParameter):
        ScenarioConfig.from_dict(raw)


@pytest.mark.parametrize("name", ["seirs_baseline.json", "sir_low_infectivity.json"])
def test_step_count_bounded_at_parse(name):
    raw = load_config(name)
    raw["step"] = 2.0 ** -10
    raw["horizon"] = MAX_STEPS * 2.0 ** -10
    ScenarioConfig.from_dict(raw)
    raw["horizon"] = (MAX_STEPS + 1) * 2.0 ** -10
    with pytest.raises(InvalidParameter) as err:
        ScenarioConfig.from_dict(raw)
    assert err.value.name == "step"


def test_integral_equivalence_rejected_for_sir():
    raw = load_config("sir_low_infectivity.json")
    raw["analyses"]["integral_equivalence"] = True
    with pytest.raises(InvalidParameter):
        ScenarioConfig.from_dict(raw)


def test_trajectory_csv_round_trip(tmp_path, canonical_params,
                                   canonical_history):
    from pseirs import simulate_pseirs
    traj = simulate_pseirs(canonical_params, canonical_history, 40.0)
    path = tmp_path / "t.csv"
    write_trajectory_csv(traj, path)
    first = path.read_text()
    times, states, labels = read_trajectory_csv(path)
    assert labels == ("S", "E", "I", "R")
    assert np.array_equal(times, traj.times)
    assert np.array_equal(states, traj.states)
    rebuilt = traj.__class__(times=times, states=states, derivs=traj.derivs,
                             step=traj.step, labels=labels)
    write_trajectory_csv(rebuilt, path)
    assert path.read_text() == first


def test_sweep_orders_and_continues_on_error(tmp_path, monkeypatch, workers):
    raw = load_config("seirs_baseline.json")
    raw["horizon"] = 40
    del raw["analyses"]["integral_equivalence"]
    trees = []
    for cpus in (2, 1):  # two workers, then the members in this process
        monkeypatch.setattr(_fork, "usable_cpus", lambda n=cpus: n)
        out = tmp_path / f"cpus{cpus}"
        results = sweep_scenario(raw, "params.p", [0.25, 2.0, 0.75], out)
        assert [r["value"] for r in results] == [0.25, 2.0, 0.75]
        assert [r["status"] for r in results] == ["ok", "error", "ok"]
        assert results[1]["error"]["type"] == "InvalidParameter"
        doc = json.loads((out / "sweep.json").read_text())
        assert len(doc) == 3
        trees.append(tree_bytes(out))
        # one worker per member, at most two alive, none more at 1 CPU
        assert [idx for idx, _ in workers] == [0, 1, 2]
        assert max(alive for _, alive in workers) == 2
    assert {"run_000/trajectory.csv", "run_002/summary.json",
            "sweep.json"} <= set(trees[0])
    assert trees[0] == trees[1]


def test_sweep_empty_values(tmp_path, workers):
    raw = load_config("seirs_baseline.json")
    results = sweep_scenario(raw, "params.p", [], tmp_path)
    assert results == []
    assert json.loads((tmp_path / "sweep.json").read_text()) == []
    assert workers == []


def test_sweep_worker_death_is_one_error_record(tmp_path, monkeypatch):
    monkeypatch.setattr(_fork, "usable_cpus", lambda: 2)
    # a naive pickle channel lets raise_at_second_member's unpickling
    # TypeError escape as a traceback
    for member in (exit_at_second_member, kill_at_second_member,
                   raise_at_second_member):
        monkeypatch.setattr(scenario, "_sweep_member", member)
        stderr_path = tmp_path / f"{member.__name__}.txt"
        out = tmp_path / member.__name__
        argv = ["sweep", "--config", str(CONFIG_DIR / "seirs_long_latency.json"),
                "--param", "params.p", "--values", "0.25,0.5,0.75",
                "--horizon", "40", "--out", str(out)]
        assert run_forked(run_cli, argv, stderr_path) == 1, member.__name__
        record = json.loads(stderr_path.read_text())
        assert record["error"]["type"] == "WorkerDied", member.__name__
        assert not (out / "sweep.json").exists()


@pytest.mark.parametrize("member", [exit_at_first_member, exit_at_second_member],
                         ids=["first", "second"])
def test_dead_worker_stops_the_other_workers(tmp_path, monkeypatch, member):
    # the worker of member 0 or 1 dies at once; the other, in a 40,001-row
    # run, is killed rather than waited for, and members 2-7 never start
    monkeypatch.setattr(scenario, "_sweep_member", member)
    monkeypatch.setattr(_fork, "usable_cpus", lambda: 2)
    raw = load_config("seirs_baseline.json")
    values = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    with pytest.raises(WorkerDied, match="exit code 3"):
        sweep_scenario(raw, "params.p", values, tmp_path)
    assert not any((tmp_path / f"run_{idx:03d}").exists() for idx in range(2, 8))
    assert not (tmp_path / "sweep.json").exists()


@pytest.mark.parametrize("cpus", [2, 1], ids=["pool", "serial"])
def test_sweep_worker_os_error_is_an_error_record(tmp_path, capsys,
                                                  monkeypatch, cpus):
    # a run directory under a regular file: the members' mkdir fails
    monkeypatch.setattr(_fork, "usable_cpus", lambda: cpus)
    (tmp_path / "out").write_text("")
    code = main(["sweep", "--config", str(CONFIG_DIR / "seirs_long_latency.json"),
                 "--param", "params.p", "--values", "0.25,0.5",
                 "--horizon", "40", "--out", str(tmp_path / "out")])
    assert code == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"]["type"] == "NotADirectoryError"


@pytest.mark.parametrize("child, config", [
    # the stream of trajectory.csv fails during the solve: the child is
    # gone before it reads the rows
    (exit_csv_child, "seirs_long_latency.json"),
    (short_csv_child, "seirs_baseline.json"),
    # the copy of trajectory.csv fails: the child read every row
    (exit_after_rows_child, "seirs_long_latency.json"),
    (short_after_rows_child, "sir_low_infectivity.json"),
], ids=["exit", "short", "exit-after-rows", "short-after-rows"])
def test_csv_child_death_is_one_error_record(tmp_path, monkeypatch, streams,
                                             child, config):
    monkeypatch.setattr(stats, "_format_child", child)
    monkeypatch.setattr(_fork, "usable_cpus", lambda: 2)
    stderr_path = tmp_path / "stderr.txt"
    argv = ["simulate", "--config", str(CONFIG_DIR / config),
            "--out", str(tmp_path / "out")]
    assert run_forked(run_cli, argv, stderr_path) == 1
    record = json.loads(stderr_path.read_text())
    assert record["error"]["type"] == "WorkerDied"
    assert not (tmp_path / "out" / "summary.json").exists()
    assert len(streams.read_text().splitlines()) == 1


@pytest.mark.parametrize("child", [exit_csv_child, short_csv_child],
                         ids=["exit", "short"])
def test_split_csv_child_death_raises(monkeypatch, child):
    # the phase CSV's path: a table split over this process and a child
    monkeypatch.setattr(stats, "_format_child", child)
    monkeypatch.setattr(_fork, "usable_cpus", lambda: 2)
    with pytest.raises(WorkerDied):
        "".join(stats.csv_row_blocks(np.ones((stats.CSV_SPLIT_MIN_VALUES, 2))))
    assert not children_left()


def test_solve_failing_mid_stream_leaves_no_child(tmp_path, monkeypatch,
                                                  streams):
    # births off and deaths at rate 1: N underflows to 0 at t = 217.525,
    # 4,350 of the 16,001 steps in, after some 4,000 rows went to the child
    raw = load_config("seirs_low_immunity.json")
    raw["params"].update(beta=0.0, mu=1.0, omega=1.0, tau=1.0)
    raw["horizon"] = 800
    config = tmp_path / "zero.json"
    config.write_text(json.dumps(raw))
    monkeypatch.setattr(_fork, "usable_cpus", lambda: 2)
    stderr_path = tmp_path / "stderr.txt"
    argv = ["simulate", "--config", str(config), "--out", str(tmp_path / "out")]
    assert run_forked(run_cli, argv, stderr_path) == 1
    record = json.loads(stderr_path.read_text())
    assert record["error"]["type"] == "ZeroPopulation"
    assert "t=217.525" in record["error"]["message"]
    assert len(streams.read_text().splitlines()) == 1
    assert not (tmp_path / "out").exists()


# the canonical trajectory splits in two at 2.3 MB of its 4.5 MB
@pytest.mark.parametrize("room", [10**6, 4 * 10**6], ids=["parent", "child"])
def test_full_disk_reaps_the_csv_child(tmp_path, monkeypatch, canonical_run,
                                       room):
    monkeypatch.setattr(_fork, "usable_cpus", lambda: 2)
    monkeypatch.setattr(scenario, "open", raising=False, value=lambda path, mode:
                        io.TextIOWrapper(io.BufferedWriter(FullDisk(room)),
                                         encoding="ascii"))
    assert run_forked(write_to_full_disk, canonical_run, tmp_path / "t.csv") == 0


def test_full_disk_reaps_the_stream_child(tmp_path, monkeypatch, streams):
    # the disk fills while the stream's text is copied, 100 kB into the
    # 646 kB trajectory
    monkeypatch.setattr(_fork, "usable_cpus", lambda: 2)
    monkeypatch.setattr(scenario, "open", raising=False, value=lambda path, mode:
                        io.TextIOWrapper(io.BufferedWriter(FullDisk(10**5)),
                                         encoding="ascii"))
    config = ScenarioConfig.from_dict(load_config("seirs_long_latency.json"))
    assert run_forked(run_to_full_disk, config, tmp_path / "out") == 0
    assert len(streams.read_text().splitlines()) == 1


def test_streamed_runs_write_the_serial_bytes(tmp_path, monkeypatch, streams):
    # every shipped config streams its trajectory at two CPUs; at one the
    # whole run stays in this process
    trees = {}
    for cpus in (2, 1):
        monkeypatch.setattr(_fork, "usable_cpus", lambda n=cpus: n)
        for path in sorted(CONFIG_DIR.glob("*.json")):
            out = tmp_path / f"cpus{cpus}" / path.stem
            assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
            trees[cpus, path.stem] = tree_bytes(out)
        assert len(streams.read_text().splitlines()) == 6
    names = sorted({stem for _, stem in trees})
    assert len(names) == 6
    for stem in names:
        assert trees[2, stem] == trees[1, stem], stem
    assert not children_left()


def test_sweep_workers_format_csv_serially(tmp_path, monkeypatch, workers):
    raw = load_config("seirs_baseline.json")
    raw["horizon"] = 120
    del raw["analyses"]["integral_equivalence"]
    monkeypatch.setattr(_fork, "usable_cpus", lambda: 2)
    monkeypatch.setattr(scenario, "_sweep_member", member_counting_forks)
    # alone, a run streams its trajectory and splits its phase CSV
    alone = member_counting_forks(raw, "params.p", 0, 0.5, tmp_path / "alone")
    assert alone["forks"] == 2
    results = sweep_scenario(raw, "params.p", [0.5, 1.0], tmp_path / "sweep")
    assert len(workers) == 2
    assert [r["forks"] for r in results] == [0, 0]


def test_cli_import_leaves_out_multiprocessing(tmp_path):
    # every command pays for what it imports; a sweep's workers are
    # forked by _fork.Child, which needs neither module
    code = ("import sys, pseirs.cli; from pseirs import _fork; "
            "_fork.usable_cpus = lambda: 2; code = pseirs.cli.main(sys.argv[1:]); "
            "print(code, [m for m in ('multiprocessing', 'concurrent.futures') "
            "if m in sys.modules])")
    argv = ["sweep", "--config", str(CONFIG_DIR / "seirs_long_latency.json"),
            "--param", "params.p", "--values", "0.25,0.5", "--horizon", "40",
            "--out", str(tmp_path / "out")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    assert proc.stdout.splitlines()[-1] == "0 []"
    doc = json.loads((tmp_path / "out" / "sweep.json").read_text())
    assert [entry["status"] for entry in doc] == ["ok", "ok"]


def test_sweep_bad_path_fails_fast(tmp_path):
    raw = load_config("seirs_baseline.json")
    with pytest.raises(InvalidParameter):
        sweep_scenario(raw, "params.nope", [1.0], tmp_path)


def test_sweep_latency_classifications(tmp_path):
    # the infected fraction dies out at both latencies: the population
    # outgrows the infected class even when the infected count itself grows
    raw = load_config("seirs_baseline.json")
    del raw["analyses"]["integral_equivalence"]
    results = sweep_scenario(raw, "params.omega", [0.15, 30.0], tmp_path)
    kinds = [r["summary"]["classification"]["kind"] for r in results]
    assert kinds == ["disease_free", "disease_free"]


class TestCli:
    def test_simulate_and_analyze(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["simulate", "--config",
                     str(CONFIG_DIR / "seirs_baseline.json"),
                     "--out", str(out), "--horizon", "60"])
        assert code == 0
        assert "r0_nominal" in capsys.readouterr().out
        code = main(["analyze", "--config",
                     str(CONFIG_DIR / "seirs_baseline.json"),
                     "--horizon", "60",
                     "--trajectory", str(out / "trajectory.csv"),
                     "--out", str(tmp_path / "re")])
        assert code == 0
        a = json.loads((out / "summary.json").read_text())
        b = json.loads((tmp_path / "re" / "summary.json").read_text())
        assert a["integral_equivalence"] == b["integral_equivalence"]
        assert a["stats"] == b["stats"]
        assert a["classification"] == b["classification"]

    def test_generate_network_cli(self, tmp_path, capsys):
        code = main(["generate-network", "--nodes", "10", "--m0", "3",
                     "--m", "2", "--seed", "42", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "edges: 17" in out
        assert "mean degree: 3.4" in out
        assert len((tmp_path / "edges.txt").read_text().strip().split("\n")) == 17

    def test_generate_network_invalid(self, tmp_path, capsys):
        code = main(["generate-network", "--nodes", "10", "--m0", "3",
                     "--m", "5", "--seed", "1", "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        record = json.loads(err)
        assert record["error"]["type"] == "InvalidGraphParams"

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        raw = load_config("seirs_baseline.json")
        raw["params"]["p"] = 2.0
        bad.write_text(json.dumps(raw))
        code = main(["simulate", "--config", str(bad), "--out",
                     str(tmp_path / "o")])
        assert code == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"]["type"] == "InvalidParameter"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("config, header, rows", [
        *(pytest.param("seirs_baseline.json", "t,S,E,I,R,N", rows, id=case)
          for case, rows in MALFORMED_PSEIRS.items()),
        # the SIR branch builds its derivative rows without a per-row check
        *(pytest.param("sir_low_infectivity.json", "t,S,I,R", rows,
                       id=f"sir_{case}")
          for case, rows in MALFORMED_SIR.items()),
    ])
    def test_analyze_malformed_trajectory(self, tmp_path, capsys, config,
                                          header, rows):
        csv = tmp_path / "trajectory.csv"
        csv.write_text("\n".join([header, *rows]) + "\n")
        code = main(["analyze", "--config", str(CONFIG_DIR / config),
                     "--trajectory", str(csv), "--out", str(tmp_path / "re")])
        assert code == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"]["type"] == "InvalidParameter"
        assert not (tmp_path / "re").exists()

    def test_analyze_zero_population_names_t(self, tmp_path, capsys):
        # 60 samples of the baseline state at its default step, one all zero
        rows = [f"{k * 0.0075!r},63.0,0.0,7.0,0.0,70.0" for k in range(60)]
        rows[30] = f"{30 * 0.0075!r},0.0,0.0,0.0,0.0,0.0"
        csv = tmp_path / "trajectory.csv"
        csv.write_text("\n".join(["t,S,E,I,R,N", *rows]) + "\n")
        code = main(["analyze", "--config",
                     str(CONFIG_DIR / "seirs_baseline.json"),
                     "--trajectory", str(csv), "--out", str(tmp_path / "re")])
        assert code == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "ZeroPopulation"
        assert f"population N reached zero at t={30 * 0.0075!r};" in error["message"]
        assert not (tmp_path / "re").exists()

    def test_analyze_summary_independent_of_path_spelling(self, tmp_path,
                                                          monkeypatch):
        config = str(CONFIG_DIR / "seirs_baseline.json")
        assert main(["simulate", "--config", config, "--horizon", "40",
                     "--out", str(tmp_path / "run")]) == 0
        stored = (tmp_path / "run" / "trajectory.csv").read_bytes()
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            (tmp_path / name / "trajectory.csv").write_bytes(stored)
        monkeypatch.chdir(tmp_path)
        for name, trajectory in (("a", "a/trajectory.csv"),
                                 ("b", str(tmp_path / "b" / "trajectory.csv"))):
            assert main(["analyze", "--config", config, "--horizon", "40",
                         "--trajectory", trajectory,
                         "--out", str(tmp_path / name / "re")]) == 0
        assert ((tmp_path / "a" / "re" / "summary.json").read_bytes()
                == (tmp_path / "b" / "re" / "summary.json").read_bytes())

    def test_analyze_judges_the_stored_horizon(self, tmp_path, capsys):
        # the analyses read the stored times, not the config's horizon: a
        # 40-long run analysed with --horizon 20 < kappa = 30 passes, and a
        # 20-long one analysed with the config's 300 fails
        from pseirs import simulate_pseirs
        from pseirs.presets import baseline_history, baseline_pseirs
        config = str(CONFIG_DIR / "seirs_baseline.json")
        assert main(["simulate", "--config", config, "--horizon", "40",
                     "--out", str(tmp_path / "run")]) == 0
        assert main(["analyze", "--config", config, "--horizon", "20",
                     "--trajectory", str(tmp_path / "run" / "trajectory.csv"),
                     "--out", str(tmp_path / "re")]) == 0
        summary = json.loads((tmp_path / "re" / "summary.json").read_text())
        assert summary["integral_equivalence"]["max_residual"] <= 1e-4
        short = tmp_path / "short.csv"
        write_trajectory_csv(simulate_pseirs(baseline_pseirs(),
                                             baseline_history(), 20.0), short)
        capsys.readouterr()
        assert main(["analyze", "--config", config, "--trajectory", str(short),
                     "--out", str(tmp_path / "short")]) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "TrajectoryTooShort"
        end = float(read_trajectory_csv(short)[0][-1])
        assert error["message"] == f"horizon {end!r} must exceed kappa 30.0"
        assert not (tmp_path / "short").exists()

    def test_analyze_takes_no_step(self, tmp_path, capsys):
        # the stored trajectory's grid sets the step
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--config", str(CONFIG_DIR / "seirs_baseline.json"),
                  "--trajectory", "trajectory.csv", "--step", "1",
                  "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --step 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_sweep_cli(self, tmp_path):
        code = main(["sweep", "--config",
                     str(CONFIG_DIR / "seirs_long_latency.json"),
                     "--param", "params.p", "--values", "0.25,0.5,0.75,1",
                     "--horizon", "40", "--out", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "sweep.json").read_text())
        assert [e["value"] for e in doc] == [0.25, 0.5, 0.75, 1.0]

    @pytest.mark.parametrize("config, argv", [
        (None, ["sweep", "--param", "params.p", "--values", "a,b"]),
        (None, ["sweep", "--param", "params.p", "--values", "0.5,nan"]),
        ({"out_dir": 5}, ["simulate"]),
        ([1, 2], ["simulate", "--horizon", "40"]),
        ([1, 2], ["sweep", "--param", "horizon", "--values", "40", "--step", "0.01"]),
        ("not an object", ["simulate", "--seed", "3"]),
        (None, ["simulate", "--horizon", "inf"]),
        # 3e15 and 2e11 steps; a quotient horizon/step that overflows
        (None, ["simulate", "--step", "1e-13"]),
        ("sir_low_infectivity.json", ["simulate", "--step", "1e-9"]),
        (None, ["simulate", "--step", "5e-324"]),
    ], ids=["non_numeric_sweep_values", "non_finite_sweep_value",
            "non_string_out_dir",
            "list_root_with_horizon", "list_root_with_step", "string_root_with_seed",
            "infinite_horizon", "step_count_above_cap", "sir_step_count_above_cap",
            "step_count_overflows"])
    def test_bad_input_is_an_error_record(self, tmp_path, capsys, monkeypatch,
                                          config, argv):
        # None: seirs_baseline; a .json name: that shipped config; a dict:
        # fields replaced in seirs_baseline; else the root
        def no_solve(*args, **kwargs):
            # every case fails before the solve; without the step cap the
            # SIR case would grow its lists without end
            raise AssertionError("a solver was called")

        monkeypatch.setattr(scenario, "simulate_pseirs", no_solve)
        monkeypatch.setattr(scenario, "simulate_sir", no_solve)
        raw = load_config("seirs_baseline.json")
        if isinstance(config, str) and config.endswith(".json"):
            raw = load_config(config)
        elif isinstance(config, dict):
            raw.update(config)
        elif config is not None:
            raw = config
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)  # the default output directory is ./out
        code = main([argv[0], "--config", str(path), *argv[1:]])
        assert code == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"]["type"] == "InvalidParameter"
        assert list(work.iterdir()) == []

    @pytest.mark.parametrize("field, value, error", [
        ("horizon", 20, "TrajectoryTooShort"),
        ("analyses.classify.tail_fraction", 0.7, "InvalidParameter"),
    ], ids=["horizon_within_kappa", "tail_fraction_above_half"])
    def test_analysis_bounds_checked_before_the_solve(self, tmp_path, capsys,
                                                      monkeypatch, field,
                                                      value, error):
        def no_solve(*args, **kwargs):
            raise AssertionError("simulate_pseirs was called")

        monkeypatch.setattr(scenario, "simulate_pseirs", no_solve)
        raw = load_config("seirs_baseline.json")
        set_path(raw, field, value)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(path), "--out", str(out)])
        assert code == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"]["type"] == error
        assert not out.exists()

    def test_seed_override_requires_network(self, tmp_path, capsys):
        code = main(["simulate", "--config",
                     str(CONFIG_DIR / "seirs_long_latency.json"),
                     "--seed", "3", "--out", str(tmp_path)])
        assert code == 1
        assert "network" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["simulate"],
        ["sweep", "--param", "params.p", "--values", "0.5"],
        ["analyze", "--trajectory", "trajectory.csv"],
    ], ids=["simulate", "sweep", "analyze"])
    @pytest.mark.parametrize("text, error", [
        (b"\xff\xfe{}", "InvalidParameter"),
        (b"[" * 100_000 + b"]" * 100_000, "InvalidParameter"),
        (b"{", "JSONDecodeError"),
    ], ids=["not_utf8", "nested_too_deep", "malformed_json"])
    def test_unreadable_config_is_an_error_record(self, tmp_path, capsys,
                                                  monkeypatch, argv, text,
                                                  error):
        path = tmp_path / "config.json"
        path.write_bytes(text)
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)  # the default output directory is ./out
        code = main([argv[0], "--config", str(path), *argv[1:]])
        assert code == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"]["type"] == error
        assert list(work.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["simulate", "--config", "negative_seed.json"],
        ["simulate", "--config", str(CONFIG_DIR / "scale_free_5000.json"),
         "--seed", "-5"],
        ["generate-network", "--nodes", "10", "--m0", "3", "--m", "2",
         "--seed", "-1"],
    ], ids=["config_seed", "simulate_seed", "generate_network_seed"])
    def test_negative_network_seed_is_an_error_record(self, tmp_path, capsys,
                                                      monkeypatch, argv):
        raw = load_config("scale_free_5000.json")
        raw["network"]["seed"] = -1
        (tmp_path / "negative_seed.json").write_text(json.dumps(raw))
        monkeypatch.chdir(tmp_path)
        code = main([*argv, "--out", "out"])
        assert code == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"]["type"] == "InvalidGraphParams"
        assert not (tmp_path / "out").exists()

    def test_sweep_records_a_negative_network_seed(self, tmp_path):
        code = main(["sweep", "--config",
                     str(CONFIG_DIR / "scale_free_5000.json"),
                     "--param", "network.seed", "--values", "3,-1",
                     "--horizon", "40", "--out", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "sweep.json").read_text())
        assert [e["status"] for e in doc] == ["ok", "error"]
        assert doc[1]["error"]["type"] == "InvalidGraphParams"
