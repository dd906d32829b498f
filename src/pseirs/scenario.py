"""Config-driven scenario execution: parse a JSON scenario, run the
requested simulation and analyses, and write deterministic output files.

Outputs per run: ``trajectory.csv`` (full round-trip decimal precision),
``summary.json`` (config echo plus one entry per requested analysis) and
one CSV per requested phase-plane projection.  Runs return the
``summary.json`` document as a dict; no wall-clock time goes into it or any
other file, so re-running a config byte-reproduces every output.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import io
import itertools
import json
import math
import pickle
import select
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _fork
from .core import (CompartmentState, ConstantHistory, HistoryFunction,
                   PseirsParams, SirParams, SirState, Trajectory, _require,
                   kappa, step_count)
from .dde import PLAN_CHUNK, default_step, reconstruct_trajectory, simulate_pseirs
from .errors import InvalidParameter, PseirsError, TrajectoryTooShort, WorkerDied
from .integro import verify_integral_equivalence
from .netgen import (degree_histogram, edge_list_text, gamma_from_graph,
                     generate_ba, graph_to_dict, mean_degree, powerlaw_slope)
# sir_derivatives stays importable here: bench/tracer.py wraps this name
from .sir import simulate_sir, sir_derivative_rows, sir_derivatives, sir_r0
from .stats import (TrajectoryStream, compartment_stats, csv_row_blocks,
                    phase_plane, trajectory_stream, trajectory_table)
from .threshold import classify_equilibrium, r0_linearized, r0_nominal, stability_probe

SCHEMA_VERSION = 1

# Required by the reporting contract: the two formulas are exact
# evaluations, disagree with each other, and neither reproduces the
# externally quoted thresholds for these scenarios.
THRESHOLD_NOTE = (
    "r0_nominal = gamma*exp(-beta*omega)/(epsilon+beta+alpha) and "
    "r0_linearized = gamma*exp(-mu*omega)/(mu+epsilon+alpha) are exact "
    "formula evaluations and generally disagree; externally quoted "
    "threshold values for these scenarios (7.77 at omega=0.15, 0.3703 at "
    "omega=30, 8.621329079589127e-01 for the 5000-node run) are "
    "reproducible from neither formula.")

# smallest stored pSEIRS trajectory, in rows, whose CSV body ``analyze``
# parses in a forked child while it rebuilds the derivative rows.  In a
# 45 MB process on a 2-vCPU VM (medians of 30-40 alternating pairs), the
# baseline broke even near 5,000 rows and gained 6% at 8,000 and 18-20% at
# 20,000-40,001; long latency, whose long lags make reconstruction cheap,
# lost 10% at 6,001 rows, broke even near 9,000-18,000 and gained 7% at
# 24,001 and 16% at 40,001
PIPELINE_MIN_ROWS = 20000
# bytes of CSV text per ``np.loadtxt`` call in that child: a chunk's rows
# (about 28 KB) fit in a 64 KB pipe, so the child seldom waits on its
# reader; 256 KB chunks made an analyze of the baseline 16% slower
_PARSE_CHUNK = 1 << 16
# the columns ``write_trajectory_csv`` gives a pSEIRS trajectory
_PSEIRS_COLUMNS = ["t", "S", "E", "I", "R", "N"]

_TOP_KEYS = {"schema", "model", "params", "init", "history", "horizon",
             "step", "analyses", "network", "out_dir"}
_ANALYSIS_KEYS = {"stats", "phase_plane", "integral_equivalence", "threshold", "classify"}


@dataclass
class ScenarioConfig:
    """``params``/``init``: SirParams/SirState or PseirsParams/history."""

    raw: dict
    model: str
    horizon: float
    step: float
    params: SirParams | PseirsParams
    init: SirState | HistoryFunction
    analyses: dict
    network: dict | None

    @staticmethod
    def from_dict(raw: dict) -> "ScenarioConfig":
        _require(isinstance(raw, dict), "config", type(raw).__name__, "JSON object")
        unknown = set(raw) - _TOP_KEYS
        _require(not unknown, "config", sorted(unknown), "unknown keys")
        _require(raw.get("schema") == SCHEMA_VERSION, "schema",
                 raw.get("schema"), f"schema == {SCHEMA_VERSION}")
        model = raw.get("model")
        _require(model in ("sir", "pseirs"), "model", model, "'sir' or 'pseirs'")
        horizon = _number(raw.get("horizon"), "horizon")
        _require(0 < horizon < math.inf, "horizon", horizon, "finite horizon > 0")
        step = None
        if raw.get("step") is not None:
            step = _number(raw["step"], "step")
            _require(step > 0, "step", step, "step > 0")

        if model == "sir":
            p = _block(raw, "params", {"beta", "alpha"})
            params = SirParams(beta=p["beta"], alpha=p["alpha"])
            init = _block(raw, "init", {"s", "i", "r"})
            init = SirState(s=init["s"], i=init["i"], r=init["r"])
            _require("history" not in raw, "history", None,
                     "history only valid for the pseirs model")
            _require("network" not in raw, "network", None,
                     "network only valid for the pseirs model")
        else:
            p = _block(raw, "params",
                       {"beta", "mu", "epsilon", "alpha", "gamma", "omega", "tau", "p"})
            params = PseirsParams(**p)
            hist = raw.get("history")
            _require(isinstance(hist, dict), "history", hist,
                     "history block required for pseirs")
            _require(hist.get("kind") == "constant", "history.kind",
                     hist.get("kind"), "'constant' (the only configurable kind)")
            extra = set(hist) - {"kind", "s", "e", "i", "r"}
            _require(not extra, "history", sorted(extra), "unknown keys")
            init = ConstantHistory(CompartmentState(
                *(_number(hist.get(k, 0.0), f"history.{k}") for k in "seir")))
            _require("init" not in raw, "init", None,
                     "init only valid for the sir model")
        if step is None:
            step = 0.01 if model == "sir" else default_step(params)
        step_count(horizon, step)  # rejects a step count too large

        analyses = _parse_analyses(raw.get("analyses", {}), model)
        network = None
        if raw.get("network") is not None:
            net = _block(raw, "network", {"n", "m0", "m", "seed", "per_contact_prob"})
            network = {k: _integer(net[k], f"network.{k}") for k in ("n", "m0", "m", "seed")}
            network["per_contact_prob"] = float(net["per_contact_prob"])
        return ScenarioConfig(raw=raw, model=model, horizon=horizon, step=step,
                              params=params, init=init, analyses=analyses,
                              network=network)


def _is_number(val) -> bool:
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def _number(val, name: str) -> float:
    _require(_is_number(val), name, val, "a number")
    return float(val)


def _integer(val, name: str) -> int:
    _require(_is_number(val) and float(val).is_integer(), name, val, "an integer")
    return int(val)


def _block(raw: dict, key: str, fields: set) -> dict:
    block = raw.get(key)
    _require(isinstance(block, dict), key, block, "JSON object")
    missing = fields - set(block)
    _require(not missing, key, sorted(missing), "missing fields")
    extra = set(block) - fields
    _require(not extra, key, sorted(extra), "unknown fields")
    for f in fields:
        _require(_is_number(block[f]), f"{key}.{f}", block[f], "a number")
    return block


def _entry(entry, name: str, fields: set) -> dict:
    """An analysis entry: ``true`` for the defaults, or an object with
    some of ``fields``."""
    if entry is True:
        return {}
    _require(isinstance(entry, dict), name, entry, "true or a JSON object")
    extra = set(entry) - fields
    _require(not extra, name, sorted(extra), "unknown fields")
    return entry


def _window(entry: dict, name: str):
    window = entry.get("window")
    _require(window is None or (isinstance(window, list) and len(window) == 2
                                and all(map(_is_number, window))),
             f"{name}.window", window, "null or [start, end]")
    return window


def _plane(entry) -> dict:
    name = "analyses.phase_plane"
    entry = _entry(entry, name, {"axes", "proportions", "window"})
    axes = entry.get("axes")
    _require(isinstance(axes, list) and all(isinstance(a, str) for a in axes),
             f"{name}.axes", axes, "a list of compartment labels")
    proportions = entry.get("proportions", False)
    _require(isinstance(proportions, bool), f"{name}.proportions", proportions,
             "true or false")
    return {"axes": tuple(axes), "proportions": proportions,
            "window": _window(entry, name)}


def _parse_analyses(block, model: str) -> dict:
    _require(isinstance(block, dict), "analyses", block, "JSON object")
    unknown = set(block) - _ANALYSIS_KEYS
    _require(not unknown, "analyses", sorted(unknown), "unknown analyses")
    out = {}
    if block.get("stats"):
        entry = _entry(block["stats"], "analyses.stats", {"window"})
        out["stats"] = {"window": _window(entry, "analyses.stats")}
    if block.get("phase_plane"):
        planes = block["phase_plane"]
        _require(isinstance(planes, list), "analyses.phase_plane", planes, "a list")
        out["phase_plane"] = [_plane(p) for p in planes]
    if block.get("integral_equivalence"):
        name = "analyses.integral_equivalence"
        _require(model == "pseirs", name, model,
                 "integral_equivalence only valid for the pseirs model")
        cp = _entry(block["integral_equivalence"], name, {"checkpoints"}).get("checkpoints", 20)
        cp = _integer(cp, f"{name}.checkpoints")
        _require(cp >= 1, f"{name}.checkpoints", cp, ">= 1")
        out["integral_equivalence"] = {"checkpoints": cp}
    if block.get("threshold"):
        _entry(block["threshold"], "analyses.threshold", set())
        out["threshold"] = True
    if block.get("classify"):
        name = "analyses.classify"
        tail = _entry(block["classify"], name, {"tail_fraction"}).get("tail_fraction", 0.1)
        tail = _number(tail, f"{name}.tail_fraction")
        _require(0.0 < tail <= 0.5, f"{name}.tail_fraction", tail,
                 "0 < tail_fraction <= 0.5")
        out["classify"] = {"tail_fraction": tail}
    return out


def write_trajectory_csv(traj: Trajectory, path: Path,
                         stream: TrajectoryStream | None = None) -> None:
    """``t``, the states and, for four compartments, ``N = ((S+E)+I)+R``.

    With ``stream``, the ``TrajectoryStream`` the solver sent ``traj``'s
    rows to, the lines are its child's text, copied into the file in
    chunks of at most 64 KB.  Without it they come from
    ``csv_row_blocks``, so a large trajectory is formatted on up to one
    process per usable CPU.  Either way a child that dies or sends too
    few lines raises ``WorkerDied``.  A write that fails part-way leaves a
    partial file; the stream's owner closes the stream."""
    header = ["t", *traj.labels]
    if len(traj.labels) == 4:
        header.append("N")
    if stream is None:
        rows = csv_row_blocks(trajectory_table(traj.times, traj.states))
    else:
        rows = stream.text()
    with open(path, "w") as f, contextlib.closing(rows):
        f.write(",".join(header) + "\n")
        f.writelines(rows)


def read_trajectory_csv(path: Path, data: bytes | None = None):
    """(times, states, labels); a trailing N column is dropped (recomputed).
    Every row must hold one finite number per header column.  ``data`` is
    the file's bytes where they have been read, else the file is read."""
    text = open(path) if data is None else io.TextIOWrapper(io.BytesIO(data))
    try:
        with text as f, warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no rows: checked below
            header = f.readline().rstrip("\n").split(",")
            body = np.loadtxt(f, delimiter=",", ndmin=2)
    except ValueError as exc:  # ragged or non-numeric rows, undecodable bytes
        raise InvalidParameter("trajectory", str(path), f"numeric CSV rows ({exc})") from None
    labels = _checked_labels(path, header, body.shape,
                             bool(np.isfinite(body).all()))
    return body[:, 0].copy(), body[:, 1:1 + len(labels)].copy(), labels


def _checked_labels(path, header: list, shape: tuple, finite: bool) -> tuple:
    """The state labels of a trajectory CSV's ``header``, once its parsed
    body, of ``shape`` and all ``finite``, holds at least two rows of one
    number per header column."""
    _require(header[0] == "t", "trajectory", header, "first column must be t")
    _require(shape[0] >= 2, "trajectory", str(path), "header plus >= 2 samples")
    _require(shape[1] == len(header), "trajectory", header,
             f"one header name per column ({shape[1]} in each row)")
    _require(finite, "trajectory", str(path),
             "finite numbers only (no nan or inf)")
    return tuple(header[1:-1] if header[-1] == "N" else header[1:])


def _parse_child(fd, data: bytes, start: int, columns: int):
    """A forked CSV parser's work: parse the lines of ``data[start:]`` in
    chunks of about _PARSE_CHUNK bytes, cut after a newline, each with
    ``read_trajectory_csv``'s ``np.loadtxt``, and write each chunk's
    float64 rows to the pipe ``fd`` as soon as it is parsed.  It returns,
    and the child exits 0, only once every line gave one row of
    ``columns`` numbers, so every line was parsed as the serial read
    parses it; a chunk that is not ASCII, holds a CR (a line end to the
    serial read's universal newlines) or gives another shape raises, as
    does any error or warning."""
    warnings.simplefilter("error")
    with open(fd, "wb") as pipe:
        while start < len(data):
            stop = data.find(b"\n", start + _PARSE_CHUNK) + 1 or len(data)
            chunk = data[start:stop]
            if b"\r" in chunk:
                raise ValueError("a line end the serial read differs on")
            rows = np.loadtxt(io.StringIO(chunk.decode("ascii")),
                              delimiter=",", ndmin=2)
            if rows.shape != (chunk.count(b"\n"), columns):
                raise ValueError("not one row per line")
            pipe.write(rows)
            start = stop


class _ParseFailed(Exception):
    """The forked parser ended before it sent every row."""


class _ForkedParse(_fork.Child):
    """The rows of a pSEIRS trajectory CSV's body, ``data[start:]``, parsed
    by a forked ``_parse_child`` and read back in order, PLAN_CHUNK rows
    at a time, into the ``times`` and ``states`` that
    ``reconstruct_trajectory`` takes; ``finite`` while every number read
    is."""

    def __init__(self, data: bytes, start: int, rows: int):
        columns = len(_PSEIRS_COLUMNS)
        self.times = np.empty(rows)
        self.states = np.empty((rows, 4))
        self.finite = True
        self._filled = 0
        # one buffer for every read: each page this process writes while
        # the child lives costs a copy-on-write fault
        self._piece = np.empty((PLAN_CHUNK, columns))
        super().__init__(_parse_child, data, start, columns)
        self._pipe = open(self.fd, "rb", closefd=False)  # closed by close

    def _fill(self, stop: int) -> bool:
        """Read the rows up to ``stop``; False if the pipe ends first."""
        while self._filled < stop:
            k = self._filled
            piece = self._piece[:min(stop - k, PLAN_CHUNK)]
            if self._pipe.readinto(piece) != piece.nbytes:
                return False
            self.finite = self.finite and bool(np.isfinite(piece).all())
            self.times[k:k + len(piece)] = piece[:, 0]
            self.states[k:k + len(piece)] = piece[:, 1:5]
            self._filled += len(piece)
        return True

    def rows_in(self):
        """The counts of rows read, PLAN_CHUNK more each time: the
        ``rows_in`` of ``reconstruct_trajectory``.  Raises ``_ParseFailed``
        if the pipe ends early."""
        rows = len(self.times)
        while self._filled < rows:
            if not self._fill(min(self._filled + PLAN_CHUNK, rows)):
                raise _ParseFailed
            yield self._filled

    def finish(self) -> bool:
        """Read the rows not read yet and reap the child: whether it sent
        every row and exited 0."""
        sent = self._fill(len(self.times))
        return self.wait() == 0 and sent


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _prepare_network(config: ScenarioConfig):
    """(graph, params with the graph's gamma, summary network block), or
    (None, config.params, None) without a network block"""
    net = config.network
    if net is None:
        return None, config.params, None
    graph = generate_ba(net["n"], net["m0"], net["m"], net["seed"])
    md = mean_degree(graph)
    gamma = gamma_from_graph(graph, net["per_contact_prob"])
    try:
        exponent = powerlaw_slope(degree_histogram(graph), k_min=net["m"])
    except PseirsError:
        exponent = None
    info = {"n": graph.n, "m0": graph.m0, "m": graph.m, "seed": graph.seed,
            "per_contact_prob": net["per_contact_prob"],
            "edge_count": len(graph.edges), "mean_degree": md,
            "derived_gamma": gamma, "powerlaw_exponent": exponent}
    return graph, dataclasses.replace(config.params, gamma=gamma), info


def _write_network(graph, out: Path) -> None:
    """Write the graph's ``edges.txt`` and ``graph.json`` into ``out``."""
    (out / "edges.txt").write_text(edge_list_text(graph))
    (out / "graph.json").write_text(_json_text(graph_to_dict(graph)))


def _run_analyses(config: ScenarioConfig, traj: Trajectory, params,
                  network_info: dict | None, outputs: dict):
    """Run the requested analyses and the r0 block without writing a file.

    Returns the summary.json document and the phase-plane CSV texts as
    (file name, text) pairs."""
    analyses = config.analyses
    summary = {"schema": SCHEMA_VERSION, "model": config.model,
               "config": config.raw, "outputs": outputs}
    planes = []
    if "stats" in analyses:
        window = analyses["stats"]["window"]
        if window is None:
            window = (0.0, traj.horizon)
        summary["stats"] = compartment_stats(traj, tuple(window)).to_dict()
    if "phase_plane" in analyses:
        for plane in analyses["phase_plane"]:
            series = phase_plane(traj, plane["axes"],
                                 window=plane["window"],
                                 proportions=plane["proportions"])
            name = "phase_" + "_".join(series.labels) + ".csv"
            planes.append((name, series.to_csv_text()))
        outputs["phase_planes"] = [name for name, _ in planes]
    if "integral_equivalence" in analyses:
        report = verify_integral_equivalence(traj, params,
                                 n_checkpoints=analyses["integral_equivalence"]["checkpoints"])
        summary["integral_equivalence"] = report.to_dict()
    if "classify" in analyses:
        result = classify_equilibrium(traj, analyses["classify"]["tail_fraction"])
        summary["classification"] = result.to_dict()
    summary["r0"] = _r0_block(config, params)
    if network_info is not None:
        summary["network"] = network_info
    return summary, planes


def _r0_block(config: ScenarioConfig, params) -> dict:
    if config.model == "sir":
        return {"value": sir_r0(params)}
    block = {"nominal": r0_nominal(params), "linearized": r0_linearized(params),
             "note": THRESHOLD_NOTE}
    if "threshold" in config.analyses:
        block["probe"] = stability_probe(params).value
    return block


def _write_run(out: Path, summary: dict, planes: list) -> None:
    """Write the phase-plane CSVs and, last, summary.json into ``out``."""
    for name, text in planes:
        (out / name).write_text(text)
    (out / "summary.json").write_text(_json_text(summary))


def run_scenario(config: ScenarioConfig, out_dir) -> dict:
    """Simulate one scenario, write its files, return the summary.json dict.

    The solve and every analysis finish before anything touches the
    filesystem, so a config that fails writes no files.  Where it pays,
    a forked child formats ``trajectory.csv`` during the solve and the
    analyses (``trajectory_stream``), closed on every path.
    """
    if config.model == "pseirs" and ("classify" in config.analyses
                                     or "integral_equivalence" in config.analyses):
        # the analyses' own check, on the horizon the solver will reach,
        # before the network and the solve
        end = step_count(config.horizon, config.step) * config.step
        kap = kappa(config.params)
        if end <= kap:
            raise TrajectoryTooShort(f"horizon {end} must exceed kappa {kap}")
    graph, params, network_info = _prepare_network(config)
    outputs = {"trajectory": "trajectory.csv"}
    if graph is not None:
        outputs["network"] = ["edges.txt", "graph.json"]
    simulate = simulate_sir if config.model == "sir" else simulate_pseirs
    stream = trajectory_stream(config.step, 3 if config.model == "sir" else 4,
                               step_count(config.horizon, config.step) + 1)
    try:
        traj = simulate(params, config.init, config.horizon, config.step,
                        rows_out=None if stream is None else stream.send)
        summary, planes = _run_analyses(config, traj, params, network_info,
                                        outputs)

        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_trajectory_csv(traj, out / "trajectory.csv", stream)
    finally:
        if stream is not None:
            stream.close()
    if graph is not None:
        _write_network(graph, out)
    _write_run(out, summary, planes)
    return summary


def analyze_stored(config: ScenarioConfig, trajectory_csv, out_dir) -> dict:
    """Re-run the configured analyses on a stored trajectory CSV; returns
    the summary.json dict.

    The config supplies the parameters and history needed to resolve
    delayed lookups; derivative samples are recomputed, so interpolating
    analyses (integral_equivalence among them) match the original run.
    The file is read once.  Where it pays (``_pipelined``), a forked child
    parses a pSEIRS trajectory while this process builds the network and
    rebuilds the derivative rows as the parsed rows arrive; any file the
    child does not parse cleanly is parsed again here, serially, so the
    results and the errors are those of the serial read.  Nothing is
    written unless the trajectory and every analysis are valid.
    """
    traj, params, network_info = _rebuilt(config, trajectory_csv)
    summary, planes = _run_analyses(config, traj, params, network_info,
                                    {"trajectory": Path(trajectory_csv).name})

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_run(out, summary, planes)
    return summary


def _rebuilt(config: ScenarioConfig, path):
    """(trajectory, params, network info) of a stored trajectory CSV, read
    once: pipelined where ``_pipelined`` takes it, else serially.  The
    file's bytes are dropped on return, before the analyses run."""
    if config.model == "sir" or _fork.fork_width(2) == 1:
        return _rebuilt_serially(config, path, None)
    with open(path, "rb") as f:
        data = f.read()
    rebuilt = _pipelined(config, path, data)
    return rebuilt or _rebuilt_serially(config, path, data)


def _rebuilt_serially(config: ScenarioConfig, path, data: bytes | None):
    """(trajectory, params, network info) of a stored trajectory CSV, read
    by ``read_trajectory_csv`` from ``data``, or from ``path`` without it."""
    times, states, labels = read_trajectory_csv(path, data)
    _, params, network_info = _prepare_network(config)
    if config.model == "sir":
        _require(labels == ("S", "I", "R"), "trajectory", labels,
                 "S, I, R columns for a sir config")
        # the step of the stored grid, as reconstruct_trajectory takes it
        step = float(times[1] - times[0])
        traj = Trajectory(times=times, states=states,
                          derivs=sir_derivative_rows(states, params),
                          step=step, labels=labels)
    else:
        _require(labels == ("S", "E", "I", "R"), "trajectory", labels,
                 "S, E, I, R columns for a pseirs config")
        traj = reconstruct_trajectory(params, config.init, times, states)
    return traj, params, network_info


def _pipelined(config: ScenarioConfig, path, data: bytes):
    """``_rebuilt_serially``'s result for the pSEIRS trajectory CSV
    ``data``, its body parsed by a ``_ForkedParse`` while this process
    builds the network and rebuilds the derivative rows; None where the
    file has another header or fewer than PIPELINE_MIN_ROWS rows, or the
    child did not parse every row.  An error of the network or the
    reconstruction waits until the parse has ended, so a damaged file's
    ``InvalidParameter`` wins, as in the serial read."""
    header = (",".join(_PSEIRS_COLUMNS) + "\n").encode()
    if not data.startswith(header):
        return None
    start = len(header)
    rows = data.count(b"\n", start)
    if rows < PIPELINE_MIN_ROWS:
        return None
    parse = _ForkedParse(data, start, rows)
    held = None
    try:
        try:
            _, params, network_info = _prepare_network(config)
            traj = reconstruct_trajectory(params, config.init, parse.times,
                                          parse.states,
                                          rows_in=parse.rows_in())
        except PseirsError as exc:
            held = exc
        except _ParseFailed:
            pass  # finish says so
        parsed = parse.finish()
    finally:
        parse.close()
    if not parsed:
        return None
    _checked_labels(path, _PSEIRS_COLUMNS, (rows, len(_PSEIRS_COLUMNS)),
                    parse.finite)
    if held is not None:
        raise held
    return traj, params, network_info


def _resolve_path(raw: dict, dotted: str):
    node = raw
    parts = dotted.split(".")
    for part in parts[:-1]:
        _require(isinstance(node, dict) and part in node, "parameter", dotted,
                 "a dotted path into the config")
        node = node[part]
    _require(isinstance(node, dict) and parts[-1] in node, "parameter", dotted,
             "a dotted path to an existing scalar config field")
    _require(isinstance(node[parts[-1]], (int, float)), "parameter", dotted,
             "a scalar config field")
    return node, parts[-1]


def _sweep_member(base_config: dict, parameter: str, idx: int, value,
                  out_dir: Path) -> dict:
    """Run one sweep member into ``out_dir/run_<idx>`` and return its entry.
    A ``PseirsError`` becomes the entry's error record here, in the worker:
    ``InvalidParameter`` cannot be rebuilt from its ``args`` when unpickled."""
    raw = copy.deepcopy(base_config)
    node, leaf = _resolve_path(raw, parameter)
    node[leaf] = value
    run_dir = out_dir / f"run_{idx:03d}"
    entry = {"parameter": parameter, "value": value, "out_dir": run_dir.name}
    try:
        cfg = ScenarioConfig.from_dict(raw)
        entry["summary"] = run_scenario(cfg, run_dir)
        entry["status"] = "ok"
    except PseirsError as exc:
        entry["status"] = "error"
        entry["error"] = {"type": type(exc).__name__, "message": str(exc)}
    return entry


def _member_worker(fd, args: tuple) -> None:
    """A sweep worker: one member's entry, or what it raised, pickled to ``fd``."""
    try:
        sent = _sweep_member(*args)
    except Exception as exc:  # re-raised by the sweep
        sent = exc
    with open(fd, "wb") as pipe:
        pickle.dump(sent, pipe)


def _map_members(members: list) -> list:
    """The entries of ``members``, argument tuples of ``_sweep_member``.
    With W = ``fork_width(len(members))`` > 1, each member runs in its own
    forked worker, at most W at once, the next starting as one ends; the
    first worker to end with an exception, a non-zero exit or what does not
    unpickle (``WorkerDied``) stops the sweep and kills the rest."""
    width = _fork.fork_width(len(members))
    if width == 1:
        return [_sweep_member(*args) for args in members]
    results, todo, running = [None] * len(members), iter(enumerate(members)), {}
    try:
        while True:
            for idx, args in itertools.islice(todo, width - len(running)):
                worker = _fork.Child(_member_worker, args)
                running[worker.fd] = idx, worker
            if not running:
                return results
            for fd in select.select(list(running), [], [])[0]:  # wrote or ended
                idx, worker = running[fd]
                sent = None  # stays None if cut short, or if an exception will not unpickle
                with open(fd, "rb", closefd=False) as pipe, contextlib.suppress(Exception):
                    sent = pickle.load(pipe)
                if worker.wait() != 0 or sent is None:
                    raise WorkerDied(f"a sweep worker (exit code {worker.code}) did not return its run")
                if isinstance(sent, Exception):
                    raise sent
                del running[fd]
                worker.close()
                results[idx] = sent
    finally:
        for _, worker in running.values():
            worker.kill()  # not reaped yet: the sweep failed
            worker.close()


def sweep_scenario(base_config: dict, parameter: str, values, out_dir) -> list:
    """Run one scenario per value of ``parameter`` (a dotted config path)
    into ``out_dir/run_NNN`` and write ``sweep.json``, the entries in input
    order.  A run's ``PseirsError`` is its entry's error record and the
    sweep goes on.  The runs share the usable CPUs (``_map_members``); with
    one CPU, one value or no ``os.fork`` they run here, one after another.
    Both ways write the same bytes."""
    _resolve_path(base_config, parameter)  # fail fast on a bad path
    values = list(values)
    for value in values:  # fail fast: sweep.json must be JSON
        _require(not isinstance(value, float) or math.isfinite(value), "values", value, "finite numbers")
    out = Path(out_dir)
    results = _map_members([(base_config, parameter, idx, value, out)
                            for idx, value in enumerate(values)])
    out.mkdir(parents=True, exist_ok=True)
    (out / "sweep.json").write_text(_json_text(results))
    return results
