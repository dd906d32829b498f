"""Benchmark workloads: inputs drawn from a seed, the ``pseirs`` CLI commands
that consume them, and the checks every command's outputs must pass.

A workload runs in rounds. A round always holds the same commands; the seed
changes only their order and the generated inputs (network seed, sweep
values). Within one run every repeat of a command must write byte-identical
files.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

CONFIGS = ("scale_free_5000", "seirs_baseline", "seirs_long_latency",
           "seirs_low_immunity", "sir_high_infectivity", "sir_low_infectivity")
NETWORK_CONFIG = "scale_free_5000"
SWEEP_CONFIG = "seirs_low_immunity"
SWEEP_PARAM = "params.p"
SWEEP_VALUES = 16
# A round splits the values among this many sweep commands, so that the
# speed probe between commands runs every few seconds, not every 15.
SWEEP_COMMANDS = 8
# Below p of about 0.156 the stated dR/dt drives R negative on this config
# and the solver stops with StepTooLarge, so the sweep starts above that.
SWEEP_P_MIN = 0.2
# bound on integral_equivalence.max_residual where the integral form of R
# holds, p = 1: the stated dR/dt returns alpha*I(t-tau)*exp(-mu*tau) to S
# without the factor p that the integral form of R carries
MAX_RESIDUAL = 1e-4
# summary entries an `analyze` of a stored trajectory must reproduce exactly
ANALYSIS_KEYS = ("stats", "classification", "integral_equivalence")


@dataclass
class Command:
    """One CLI invocation; the runner appends ``--out <fresh dir>``."""

    kind: str    # "simulate" | "sweep" | "analyze"
    name: str    # config stem
    argv: tuple
    # analyze only: ANALYSIS_KEYS entries of the simulate run that wrote
    # the trajectory, and the trajectory's sample count
    expected: dict | None = None
    rows: int = 0

    @property
    def key(self) -> str:
        """Identifies repeats within a run (their inputs are identical)."""
        return f"{self.kind} {self.name}"


class CheckFailed(Exception):
    pass


class Workload:
    """Inputs are drawn in the constructor; ``setup`` writes what the
    commands read; ``round`` returns the next round in a seeded order."""

    name = ""

    def __init__(self, root: Path, work: Path, seed: int):
        self.root = Path(root)
        self.work = Path(work)
        self.rng = random.Random(seed)

    def config_path(self, name: str) -> Path:
        return self.root / "configs" / f"{name}.json"

    def setup(self, execute) -> None:
        """``execute(command, out_dir)`` runs one CLI command."""

    def round(self) -> list[Command]:
        raise NotImplementedError

    def inputs(self) -> dict:
        """The generated inputs, for reporting and tests."""
        raise NotImplementedError


class SimulateConfigs(Workload):
    """Rounds of ``simulate`` over the six shipped configs. Every layer
    runs; output writing is about half the wall time."""

    name = "simulate_configs"

    def __init__(self, root, work, seed):
        super().__init__(root, work, seed)
        self.net_seed = self.rng.randrange(1, 2**31)

    def inputs(self):
        return {"network_seed": self.net_seed}

    def round(self):
        names = list(CONFIGS)
        self.rng.shuffle(names)
        commands = []
        for name in names:
            argv = ["simulate", "--config", str(self.config_path(name))]
            if name == NETWORK_CONFIG:
                argv += ["--seed", str(self.net_seed)]
            commands.append(Command("simulate", name, tuple(argv)))
        return commands


class SweepP(Workload):
    """A 16-value ``params.p`` sweep of a config without a phase plane, so
    the delayed solve and the threshold probe do most of the work. A round
    runs it as eight 2-value sweeps that each span the whole range."""

    name = "sweep_p"

    def __init__(self, root, work, seed):
        super().__init__(root, work, seed)
        # one value in each sixteenth of [SWEEP_P_MIN, 1], so every seed
        # covers the whole range and the work per sweep hardly depends on
        # the seed
        width = (1.0 - SWEEP_P_MIN) / SWEEP_VALUES
        self.values = [SWEEP_P_MIN + (k + self.rng.random()) * width
                       for k in range(SWEEP_VALUES)]

    def inputs(self):
        return {"values": list(self.values)}

    def round(self):
        parts = list(range(SWEEP_COMMANDS))
        self.rng.shuffle(parts)
        commands = []
        for part in parts:
            values = self.values[part::SWEEP_COMMANDS]
            argv = ("sweep", "--config", str(self.config_path(SWEEP_CONFIG)),
                    "--param", SWEEP_PARAM,
                    "--values", ",".join(repr(v) for v in values))
            commands.append(Command("sweep", f"{SWEEP_CONFIG}[{part}]", argv))
        return commands


class AnalyzeStored(Workload):
    """Rounds of ``analyze`` over trajectories written once in set-up: the
    read path, with no forward solve and no trajectory write."""

    name = "analyze_stored"

    def __init__(self, root, work, seed):
        super().__init__(root, work, seed)
        self.net_seed = self.rng.randrange(1, 2**31)
        self.expected = {}   # config -> ANALYSIS_KEYS entries of the simulate run
        self.rows = {}       # config -> samples in the stored trajectory

    def inputs(self):
        return {"network_seed": self.net_seed}

    def _paths(self, name):
        return (self.work / "configs" / f"{name}.json",
                self.work / "stored" / name)

    def setup(self, execute):
        # `analyze` has no --seed flag, so the network seed goes into a
        # generated copy of the config that both commands read.
        (self.work / "configs").mkdir(parents=True, exist_ok=True)
        for name in CONFIGS:
            config, stored = self._paths(name)
            raw = load_json(self.config_path(name))
            if "network" in raw:
                raw["network"]["seed"] = self.net_seed
            config.write_text(json.dumps(raw, indent=2) + "\n")
            execute(Command("simulate", name, ("simulate", "--config", str(config))),
                    stored)
            summary = load_json(stored / "summary.json")
            self.expected[name] = {k: summary.get(k) for k in ANALYSIS_KEYS}
            self.rows[name] = trajectory_rows(stored / "trajectory.csv")

    def round(self):
        names = list(CONFIGS)
        self.rng.shuffle(names)
        commands = []
        for name in names:
            config, stored = self._paths(name)
            argv = ("analyze", "--config", str(config),
                    "--trajectory", str(stored / "trajectory.csv"))
            commands.append(Command("analyze", name, argv,
                                    self.expected.get(name), self.rows.get(name, 0)))
        return commands


WORKLOADS = {w.name: w for w in (SimulateConfigs, SweepP, AnalyzeStored)}


def load_json(path: Path):
    return json.loads(Path(path).read_text())


def trajectory_rows(path: Path) -> int:
    rows = Path(path).read_bytes().count(b"\n") - 1
    if rows < 2:
        raise CheckFailed(f"{path.name} holds {rows} samples")
    return rows


def residual_problems(summary: dict, unbounded: list) -> list:
    """Problems with the summary's integral equivalence. The bound applies
    at p = 1; other residuals are appended to ``unbounded`` for the report."""
    block = summary.get("integral_equivalence")
    if block is None:
        return []
    residual = block["max_residual"]
    if summary["config"]["params"]["p"] != 1:
        unbounded.append(residual)
        return []
    if residual <= MAX_RESIDUAL:
        return []
    return [f"integral_equivalence.max_residual {residual!r} > {MAX_RESIDUAL}"]


def _check_simulate(command: Command, out: Path, unbounded: list) -> tuple[int, list]:
    samples = trajectory_rows(out / "trajectory.csv")
    return samples, residual_problems(load_json(out / "summary.json"), unbounded)


def _check_sweep(command: Command, out: Path, unbounded: list) -> tuple[int, list]:
    entries = load_json(out / "sweep.json")
    problems = []
    expected = len(command.argv[command.argv.index("--values") + 1].split(","))
    if len(entries) != expected:
        problems.append(f"{len(entries)} sweep entries, expected {expected}")
    samples = 0
    recovered = []   # (p, R max, R mean) of each entry
    for entry in entries:
        if entry["status"] != "ok":
            problems.append(f"params.p={entry['value']!r}: status "
                            f"{entry['status']!r} ({entry['error']['type']})")
            continue
        samples += trajectory_rows(out / entry["out_dir"] / "trajectory.csv")
        problems += [f"params.p={entry['value']!r}: {p}"
                     for p in residual_problems(entry["summary"], unbounded)]
        r = entry["summary"]["stats"]["compartments"]["R"]
        recovered.append((entry["value"], r["max"], r["mean"]))
    # a larger recovery probability leaves more nodes recovered
    recovered.sort()
    problems += [f"R max or mean falls from params.p={a[0]!r} to {b[0]!r}"
                 for a, b in zip(recovered, recovered[1:])
                 if not (a[1] < b[1] and a[2] < b[2])]
    return samples, problems


def _check_analyze(command: Command, out: Path, unbounded: list) -> tuple[int, list]:
    summary = load_json(out / "summary.json")
    problems = residual_problems(summary, unbounded)
    problems += [f"'{key}' differs from the simulate run that wrote the trajectory"
                 for key in ANALYSIS_KEYS
                 if summary.get(key) != command.expected[key]]
    return command.rows, problems


# Each returns the trajectory samples the command produced or analysed and
# the problems found in its outputs.
_CHECKS = {"simulate": _check_simulate, "sweep": _check_sweep,
           "analyze": _check_analyze}


def tree_digest(out: Path) -> dict:
    """SHA-256 of every file under ``out``, keyed by relative path."""
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(out).rglob("*")) if p.is_file()}


class OutputChecker:
    """Checks each command's outputs and remembers their digests, so a
    repeated command must reproduce its files byte for byte."""

    def __init__(self):
        self.digests = {}
        self.failures = []
        # integral_equivalence.max_residual of runs with p != 1
        self.unbounded_residuals = []

    def check(self, command: Command, out: Path, exit_code: int) -> tuple[int, bool]:
        """Samples the command produced, and whether its outputs pass; the
        reasons for a failure are appended to ``failures``."""
        samples, problems = 0, []
        try:
            if exit_code != 0:
                problems.append(f"exit code {exit_code}")
            else:
                digest = tree_digest(out)
                if self.digests.setdefault(command.key, digest) != digest:
                    problems.append("files differ from an earlier run of the same command")
                samples, found = _CHECKS[command.kind](command, out,
                                                         self.unbounded_residuals)
                problems += found
        except (CheckFailed, OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
        if problems:
            more = f" (+{len(problems) - 3} more)" if len(problems) > 3 else ""
            self.failures.append(f"{command.key}: {'; '.join(problems[:3])}{more}")
        return samples, not problems
