"""Tests of the benchmark itself: seeded inputs, output checks, tracing.

They drive short commands (reduced horizons) so the whole file runs in a
few seconds.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
import pseirs.cli  # noqa: E402

BASELINE = str(ROOT / "configs" / "seirs_baseline.json")
SHORT = workloads.Command(
    "simulate", "seirs_baseline_short",
    ("simulate", "--config", BASELINE, "--horizon", "40"))
ROWS = 5335  # samples of SHORT: 40/0.0075 rounded up to 5334 steps, plus t=0
SHORT_SIR = workloads.Command(
    "simulate", "sir_short",
    ("simulate", "--config", str(ROOT / "configs" / "sir_low_infectivity.json"),
     "--horizon", "20"))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_changes_inputs_not_commands(name, tmp_path):
    def make(seed):
        workload = workloads.WORKLOADS[name](ROOT, tmp_path, seed)
        return workload.inputs(), [workload.round() for _ in range(3)]

    inputs_1, rounds_1 = make(1)
    inputs_2, rounds_2 = make(2)
    assert make(1) == (inputs_1, rounds_1)
    assert inputs_1 != inputs_2
    kinds = {tuple(sorted((c.kind, c.name) for c in r)) for r in rounds_1 + rounds_2}
    assert len(kinds) == 1


def test_sweep_values_cover_range(tmp_path):
    values = workloads.SweepP(ROOT, tmp_path, 5).values
    assert len(values) == workloads.SWEEP_VALUES
    lo, width = workloads.SWEEP_P_MIN, (1 - workloads.SWEEP_P_MIN) / 16
    assert all(lo + k * width <= v < lo + (k + 1) * width
               for k, v in enumerate(values))


def test_sweep_round_holds_every_value_once(tmp_path):
    workload = workloads.SweepP(ROOT, tmp_path, 5)
    commands = workload.round()
    assert len(commands) == workloads.SWEEP_COMMANDS
    values = [float(v) for c in commands for v in c.argv[-1].split(",")]
    assert sorted(values) == workload.values


def _run(command, out, checker, tally):
    wall, code = run.run_command(pseirs.cli.main, command, out)
    tally.add(command.key, wall, 1.0, *checker.check(command, out, code))


def test_repeat_passes_and_corrupted_output_fails(tmp_path):
    checker, tally = workloads.OutputChecker(), run.Tally()
    _run(SHORT, tmp_path / "a", checker, tally)
    _run(SHORT, tmp_path / "b", checker, tally)
    assert (tally.failed, len(tally.walls)) == (0, 2), checker.failures
    assert tally.samples == 2 * ROWS

    wall, code = run.run_command(pseirs.cli.main, SHORT, tmp_path / "c")
    csv = tmp_path / "c" / "trajectory.csv"
    data = bytearray(csv.read_bytes())
    data[-3] = ord("7") if data[-3] != ord("7") else ord("8")
    csv.write_bytes(bytes(data))
    tally.add(SHORT.key, wall, 1.0, *checker.check(SHORT, tmp_path / "c", code))
    assert tally.failed == 1
    assert "differ" in checker.failures[-1]


def test_residual_above_bound_fails(tmp_path):
    checker = workloads.OutputChecker()
    _, code = run.run_command(pseirs.cli.main, SHORT, tmp_path)
    summary = json.loads((tmp_path / "summary.json").read_text())
    summary["integral_equivalence"]["max_residual"] = 2 * workloads.MAX_RESIDUAL
    (tmp_path / "summary.json").write_text(json.dumps(summary))
    samples, ok = checker.check(SHORT, tmp_path, code)
    assert not ok and samples == ROWS
    assert "max_residual" in checker.failures[-1]


def test_residual_below_p_one_is_reported_not_bounded(tmp_path):
    checker = workloads.OutputChecker()
    _, code = run.run_command(pseirs.cli.main, SHORT, tmp_path)
    summary = json.loads((tmp_path / "summary.json").read_text())
    summary["config"]["params"]["p"] = 0.4
    summary["integral_equivalence"]["max_residual"] = 0.026
    (tmp_path / "summary.json").write_text(json.dumps(summary))
    assert checker.check(SHORT, tmp_path, code) == (ROWS, True)
    assert checker.unbounded_residuals == [0.026]


def _fake_sweep(out, r_max):
    entries = []
    for k, (value, top) in enumerate(zip((0.3, 0.6, 0.9), r_max)):
        (out / f"run_{k:03d}").mkdir(parents=True)
        (out / f"run_{k:03d}" / "trajectory.csv").write_text("t,R\n0,0\n1,1\n")
        summary = {"config": {"params": {"p": value}},
                   "stats": {"compartments": {"R": {"max": top, "mean": top / 2}}}}
        entries.append({"out_dir": f"run_{k:03d}", "parameter": workloads.SWEEP_PARAM,
                        "status": "ok", "summary": summary, "value": value})
    (out / "sweep.json").write_text(json.dumps(entries))


def test_sweep_recovered_must_rise_with_p(tmp_path):
    def sweep(name):
        return workloads.Command("sweep", name, ("--values", "0.3,0.6,0.9"))

    _fake_sweep(tmp_path / "a", (1.0, 2.0, 3.0))
    _fake_sweep(tmp_path / "b", (1.0, 3.0, 2.0))
    checker = workloads.OutputChecker()
    assert checker.check(sweep("a"), tmp_path / "a", 0) == (6, True)
    assert checker.check(sweep("b"), tmp_path / "b", 0) == (6, False)
    assert "R max or mean falls" in checker.failures[-1]


def test_failed_command_counts(tmp_path):
    checker, tally = workloads.OutputChecker(), run.Tally()
    bad = workloads.Command("simulate", "missing",
                            ("simulate", "--config", str(tmp_path / "none.json")))
    _run(bad, tmp_path / "out", checker, tally)
    assert tally.failed == 1 and tally.samples == 0


def test_analyze_must_match_simulate(tmp_path):
    checker = workloads.OutputChecker()
    run.run_command(pseirs.cli.main, SHORT, tmp_path / "sim")
    stored = json.loads((tmp_path / "sim" / "summary.json").read_text())
    expected = {k: stored.get(k) for k in workloads.ANALYSIS_KEYS}
    argv = ("analyze", "--config", BASELINE, "--horizon", "40",
            "--trajectory", str(tmp_path / "sim" / "trajectory.csv"))
    good = workloads.Command("analyze", "short", argv, expected, ROWS)
    _, code = run.run_command(pseirs.cli.main, good, tmp_path / "a")
    assert checker.check(good, tmp_path / "a", code) == (ROWS, True)

    wrong = dict(expected, classification={"kind": "endemic", "point": None})
    bad = workloads.Command("analyze", "short2", argv, wrong, ROWS)
    _, code = run.run_command(pseirs.cli.main, bad, tmp_path / "b")
    assert checker.check(bad, tmp_path / "b", code) == (ROWS, False)


def _targets():
    out = {}
    for target in {**tracer.SPANNED, **tracer.COUNTED}:
        owner, attr = tracer._resolve(target)
        out[target] = owner.__dict__[attr]
    return out


def _traced_round(t, commands, tmp_path):
    checker, tally = workloads.OutputChecker(), run.Tally()
    first = len(t.spans)
    t.counts.clear()
    with t.installed():
        run.run_round(pseirs.cli.main, commands, tmp_path, checker, tally, t)
    assert tally.failed == 0, checker.failures
    return t.metrics(first)


def test_wrappers_removed_after_traced_run(tmp_path):
    before = _targets()
    t = tracer.Tracer()
    _traced_round(t, [SHORT_SIR], tmp_path)
    assert _targets() == before
    assert all(_targets()[k] is v for k, v in before.items())

    with pytest.raises(RuntimeError):
        with t.installed():
            assert pseirs.cli.run_scenario is not before["pseirs.cli:run_scenario"]
            raise RuntimeError
    assert all(_targets()[k] is v for k, v in before.items())


def test_counts_repeat_exactly(tmp_path):
    t = tracer.Tracer()
    first = _traced_round(t, [SHORT, SHORT_SIR], tmp_path)
    second = _traced_round(t, [SHORT, SHORT_SIR], tmp_path)
    counts = [m for m, unit in tracer.PER_LAYER.items() if unit in ("count", "bytes")]
    assert {m: first[m] for m in counts} == {m: second[m] for m in counts}
    assert first["dde.steps"] == ROWS - 1 and first["sir.steps"] == 2000
    assert first["integro.checkpoints"] == 20
    # 40 adaptive calls of the verify, 2 of the consistent initial values
    assert first["quadrature.adaptive_calls"] == 42
    assert first["quadrature.integrand_evals"] > 0
    assert 0 < first["quadrature.accepted_frac"] <= 1
    assert first["dde.simulate_s"] > 0 and first["cli.self_s"] > 0


def test_spans_nest_within_commands(tmp_path):
    t = tracer.Tracer()
    _traced_round(t, [SHORT], tmp_path)
    roots = [s for s in t.spans if s[3] is None]
    assert [s[0] for s in roots] == ["cli.main"]
    for name, start, end, parent, command in t.spans:
        assert start <= end and command == roots[0][4]
        if parent is not None:
            assert t.spans[parent][1] <= start and end <= t.spans[parent][2]
    # self times partition the command's time among the layers
    metrics = t.metrics()
    total = sum(metrics[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert total == pytest.approx(roots[0][2] - roots[0][1], rel=1e-9)


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.PER_LAYER


def test_exits_nonzero_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in Path(__file__).parent.glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep_p", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
