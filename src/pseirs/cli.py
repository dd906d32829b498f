"""Command-line front end.

Subcommands: ``simulate`` (run one scenario config), ``sweep`` (repeat a
scenario over a list of values for one config field), ``generate-network``
(write a seeded scale-free graph), ``analyze`` (re-run analyses on a
stored trajectory CSV).  Failures print a machine-readable error record
to stderr and exit non-zero; an invalid config writes no files.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .errors import InvalidParameter, PseirsError
from .netgen import degree_histogram, generate_ba, mean_degree, powerlaw_slope
from .scenario import (ScenarioConfig, _write_network, analyze_stored,
                       run_scenario, sweep_scenario)


def _load_config(path: str, args) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except UnicodeDecodeError:
        raise InvalidParameter("config", path, "UTF-8 text") from None
    except RecursionError:
        raise InvalidParameter("config", path,
                               "JSON nested within the recursion limit") from None
    if not isinstance(raw, dict):
        raise InvalidParameter("config", type(raw).__name__, "JSON object")
    if not isinstance(raw.get("out_dir") or "", str):
        raise InvalidParameter("out_dir", raw["out_dir"], "a directory path")
    if getattr(args, "step", None) is not None:
        raw["step"] = args.step
    if getattr(args, "horizon", None) is not None:
        raw["horizon"] = args.horizon
    if getattr(args, "seed", None) is not None:
        if not isinstance(raw.get("network"), dict):
            raise InvalidParameter("seed", args.seed,
                                   "--seed requires a network block in the config")
        raw["network"]["seed"] = args.seed
    return raw


def _out_dir(args, raw: dict) -> Path:
    return Path(args.out or raw.get("out_dir") or "out")


def _cmd_simulate(args) -> int:
    raw = _load_config(args.config, args)
    config = ScenarioConfig.from_dict(raw)
    out = _out_dir(args, raw)
    start = time.perf_counter()
    summary = run_scenario(config, out)
    print(f"wrote {out / 'summary.json'} in {time.perf_counter() - start:.3f}s")
    if config.model == "pseirs":
        print(f"r0_nominal={summary['r0']['nominal']:.6g} "
              f"r0_linearized={summary['r0']['linearized']:.6g}")
    if "classification" in summary:
        print(f"classification: {summary['classification']['kind']}")
    return 0


def _cmd_sweep(args) -> int:
    raw = _load_config(args.config, args)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip() != ""]
    except ValueError:
        raise InvalidParameter("values", args.values,
                               "comma-separated numbers") from None
    out = _out_dir(args, raw)
    results = sweep_scenario(raw, args.param, values, out)
    failures = sum(1 for r in results if r["status"] != "ok")
    print(f"wrote {out / 'sweep.json'}: {len(results)} runs, {failures} failed")
    return 0


def _cmd_generate_network(args) -> int:
    graph = generate_ba(args.nodes, args.m0, args.m, args.seed)
    out = Path(args.out or "out")
    out.mkdir(parents=True, exist_ok=True)
    _write_network(graph, out)
    print(f"nodes: {graph.n}")
    print(f"edges: {len(graph.edges)}")
    print(f"mean degree: {mean_degree(graph)!r}")
    try:
        exponent = powerlaw_slope(degree_histogram(graph), k_min=graph.m)
        print(f"power-law exponent (k_min={graph.m}): {exponent:.4f}")
    except PseirsError as exc:
        print(f"power-law exponent: unavailable ({exc})")
    return 0


def _cmd_analyze(args) -> int:
    raw = _load_config(args.config, args)
    config = ScenarioConfig.from_dict(raw)
    out = _out_dir(args, raw)
    start = time.perf_counter()
    analyze_stored(config, args.trajectory, out)
    print(f"wrote {out / 'summary.json'} in {time.perf_counter() - start:.3f}s")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pseirs",
        description="Compartmental propagation models: classical SIR and a "
                    "delayed SEIRS variant with probabilistic immunity.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one scenario config")
    sim.add_argument("--config", required=True, help="scenario JSON path")
    sim.add_argument("--out", help="output directory (default: config out_dir or ./out)")
    sim.add_argument("--step", type=float, help="override the config step")
    sim.add_argument("--horizon", type=float, help="override the config horizon")
    sim.add_argument("--seed", type=int, help="override the network seed")
    sim.set_defaults(func=_cmd_simulate)

    sw = sub.add_parser("sweep", help="run a scenario once per value of one field")
    sw.add_argument("--config", required=True)
    sw.add_argument("--param", required=True,
                    help="dotted config path, e.g. params.p or horizon")
    sw.add_argument("--values", required=True,
                    help="comma-separated values (empty for an empty sweep)")
    sw.add_argument("--out", help="output directory")
    sw.add_argument("--step", type=float, help="override the config step")
    sw.add_argument("--horizon", type=float, help="override the config horizon")
    sw.set_defaults(func=_cmd_sweep)

    net = sub.add_parser("generate-network", help="write a seeded scale-free graph")
    net.add_argument("--nodes", type=int, required=True)
    net.add_argument("--m0", type=int, required=True, help="seed clique size")
    net.add_argument("--m", type=int, required=True, help="edges per new node")
    net.add_argument("--seed", type=int, required=True)
    net.add_argument("--out", help="output directory")
    net.set_defaults(func=_cmd_generate_network)

    ana = sub.add_parser("analyze", help="re-run analyses on a stored trajectory CSV")
    ana.add_argument("--config", required=True)
    ana.add_argument("--trajectory", required=True, help="trajectory CSV path")
    ana.add_argument("--out", help="output directory")
    ana.add_argument("--horizon", type=float, help="override the config horizon")
    ana.set_defaults(func=_cmd_analyze)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PseirsError, OSError, json.JSONDecodeError) as exc:
        record = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(record), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
