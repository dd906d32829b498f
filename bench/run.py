#!/usr/bin/env python3
"""Benchmark of the pseirs command line.

    python3 bench/run.py --workload simulate_configs --seed 1 --seconds 30 --trace 0

Runs one workload of ``workloads.py`` in this process, single-threaded
(numpy's BLAS pool capped at one thread), by calling ``pseirs.cli.main``
from the ``src`` tree next to this directory, with a fresh output directory
per command. Every command's outputs are checked. Commands run in whole
rounds until ``--seconds`` have passed.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs one
untimed warm-up round, then each round once untraced and once traced (order
alternating), and reports per-layer metrics from the traced rounds
(``tracer.py``), plus the tracing overhead.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable table with the machine's facts and the unscaled wall times.

Times are wall seconds scaled to a reference machine speed: a fixed
pure-Python kernel is timed next to every command and every set-up, and
each wall time is multiplied by ``REFERENCE_KERNEL_S / kernel time``. Shared
hosts change speed by up to 2x over tens of seconds; the kernel tracks that
drift (correlation about 0.8 with command times on a 2-vCPU VM) and no
change to the program can move it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

from tracer import PER_LAYER, Tracer
from workloads import WORKLOADS, OutputChecker, tree_digest

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".bench_out"
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS")
# set-up runs at least this often and for at least this long; the median counts
SETUP_REPEATS = 3
SETUP_MIN_S = 3.0
# cmd_s_p90 needs ten samples beyond it
P90_MIN_COMMANDS = 100

END_TO_END = {"setup_s": "s", "samples_per_s": "1/s", "cmd_s_p50": "s",
              "peak_rss_mb": "MB"}

# kernel time that defines the reference speed (about the median on the
# 2-vCPU Xeon VM the benchmark was written on)
REFERENCE_KERNEL_S = 0.0035
# the probe after a command lasts this share of the command's wall time, so
# that a long command is scaled by a speed measured over a long interval
PROBE_SHARE = 0.1


def _speed_kernel(n=1500):
    # function calls, small tuples, float arithmetic, list appends and
    # float-to-text formatting: the mix the program's own loops are made of
    def rhs(y, t):
        return (-0.5 * y + t, 0.25 * y)

    y, h = 1.0, 0.001
    hh = 0.5 * h
    out = []
    for k in range(n):
        t = k * h
        d1 = rhs(y, t)
        d2 = rhs(y + hh * d1[0], t + hh)
        d3 = rhs(y + hh * d2[0], t + hh)
        d4 = rhs(y + h * d3[0], t + h)
        y += h / 6.0 * (d1[0] + 2.0 * d2[0] + 2.0 * d3[0] + d4[0])
        out.append(y)
    return "\n".join(f"{y!r},{0.5 * y!r}" for y in out)


def kernel_s(seconds: float = 0.0) -> float:
    """Mean wall time of the speed kernel now, over at least three runs
    that together take at least ``seconds``: a longer probe averages out
    short changes of speed."""
    gc.collect()
    runs = 0
    start = time.perf_counter()
    while runs < 3 or time.perf_counter() - start < seconds:
        _speed_kernel()
        runs += 1
    return (time.perf_counter() - start) / runs


def scaled_wall(fn):
    """Run ``fn()``; return its result and its wall time scaled to the
    reference speed by kernel runs just before and after it."""
    before = kernel_s()
    start = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - start
    return result, wall * 2 * REFERENCE_KERNEL_S / (before + kernel_s())


class SetupFailed(Exception):
    pass


class Tally:
    """Scaled wall times and check results of a series of commands."""

    def __init__(self):
        self.walls = []
        self.raw_walls = []
        self.scales = []
        self.by_key = defaultdict(list)
        self.samples = 0
        self.failed = 0

    @property
    def last_wall(self) -> float:
        return self.raw_walls[-1] if self.raw_walls else 0.0

    def add(self, key: str, wall: float, scale: float, samples: int, ok: bool) -> None:
        self.walls.append(wall * scale)
        self.raw_walls.append(wall)
        self.scales.append(scale)
        self.by_key[key].append(wall * scale)
        self.samples += samples
        self.failed += not ok


def run_command(cli_main, command, out: Path, tracer=None) -> tuple[float, int]:
    """Wall time and exit code of one CLI command writing into ``out``."""
    argv = [*command.argv, "--out", str(out)]
    gc.collect()
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        span = tracer.open("cli.main") if tracer is not None else None
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback escaped the CLI: the command failed
            code = -1
            traceback.print_exc(file=sys.__stderr__)
        finally:
            if tracer is not None:
                tracer.close(span)
        wall = time.perf_counter() - start
    return wall, code


def run_round(cli_main, commands, work: Path, checker: OutputChecker,
              tally: Tally, tracer=None) -> float:
    """Run and check the commands; return the round's median scale."""
    before = kernel_s(PROBE_SHARE * tally.last_wall)
    scales = []
    for command in commands:
        out = work / f"cmd{len(tally.walls):05d}"
        if tracer is not None:
            tracer.command = f"{out.name} {command.key}"
        wall, code = run_command(cli_main, command, out, tracer)
        after = kernel_s(PROBE_SHARE * wall)
        scales.append(2 * REFERENCE_KERNEL_S / (before + after))
        tally.add(command.key, wall, scales[-1], *checker.check(command, out, code))
        shutil.rmtree(out, ignore_errors=True)
        before = after
    return statistics.median(scales)


def set_up(name: str, seed: int, work: Path, cli_main, digests: dict):
    """Draw the workload's inputs and write what its commands read. A
    repeated set-up must write the same files as the first."""
    workload = WORKLOADS[name](ROOT, work, seed)

    def execute(command, out):
        _, code = run_command(cli_main, command, out)
        if code != 0:
            raise SetupFailed(f"{command.key}: exit code {code}")
        digest = tree_digest(out)
        if digests.setdefault(command.key, digest) != digest:
            raise SetupFailed(f"{command.key}: files differ from the first set-up")

    workload.setup(execute)
    return workload


def import_cli() -> None:
    """Import the CLI in a fresh interpreter, as every command started from
    a shell does; this process has imported it already."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-c", "import pseirs.cli"], env=env,
                   check=True, timeout=60)


def measure(name, seed, seconds, cli_main, work):
    """End-to-end metrics of untraced rounds."""
    checker = OutputChecker()
    imports, setup_times, digests = [], [], {}
    start = time.perf_counter()
    while len(setup_times) < SETUP_REPEATS or time.perf_counter() - start < SETUP_MIN_S:
        imports.append(scaled_wall(import_cli)[1])
        workload, wall = scaled_wall(lambda: set_up(
            name, seed, work / f"setup{len(setup_times)}", cli_main, digests))
        setup_times.append(wall)

    tally = Tally()
    start = time.perf_counter()
    while True:
        run_round(cli_main, workload.round(), work, checker, tally)
        if time.perf_counter() - start >= seconds:
            break

    walls = tally.walls
    metrics = {
        "setup_s": statistics.median(imports) + statistics.median(setup_times),
        "samples_per_s": tally.samples / sum(walls),
        # A round mixes commands that differ several-fold in cost, so the
        # plain median would fall in the gap between them and jump with
        # noise; each distinct command counts once, at its median.
        "cmd_s_p50": statistics.median(statistics.median(w) for w in tally.by_key.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if len(walls) >= P90_MIN_COMMANDS:
        p90 = f"{statistics.quantiles(walls, n=10)[-1]:.6g} s"
    else:
        p90 = f"not reported (needs >= {P90_MIN_COMMANDS} commands)"
    raw = tally.raw_walls
    notes = [f"cmd_s_p90 {p90}; {len(walls)} commands",
             f"failed_frac {tally.failed / len(walls):.6g} "
             f"({tally.failed}/{len(walls)})",
             f"unscaled: samples_per_s {tally.samples / sum(raw):.6g} 1/s, "
             f"command wall median {statistics.median(raw):.6g} s, "
             f"min {min(raw):.6g} s, max {max(raw):.6g} s",
             f"speed scale median {statistics.median(tally.scales):.4f} "
             f"(min {min(tally.scales):.4f}, max {max(tally.scales):.4f})",
             f"inputs {json.dumps(workload.inputs())}",
             f"set-up ran {len(setup_times)} times"]
    notes += residual_note(checker)
    return metrics, END_TO_END, notes, checker.failures, len(walls), tally.failed


def residual_note(checker: OutputChecker) -> list:
    """The integral-equivalence residuals at p != 1, which no bound applies
    to: the stated dR/dt and the integral form of R differ there."""
    seen = checker.unbounded_residuals
    if not seen:
        return []
    return [f"integral_equivalence.max_residual at p != 1 (not bounded, "
            f"{len(seen)} checks): {min(seen):.4g} to {max(seen):.4g}"]


def measure_traced(name, seed, seconds, cli_main, work):
    """Per-layer metrics of traced rounds, each paired with an untraced run
    of the same commands for the overhead."""
    checker = OutputChecker()
    workload = set_up(name, seed, work / "setup0", cli_main, {})
    tracer = Tracer()
    plain, traced = Tally(), Tally()
    # an untimed round first: the first commands in a process run cold,
    # which would count against whichever side ran first
    warm_up = Tally()
    run_round(cli_main, workload.round(), work, checker, warm_up)
    per_round, round_scales = [], []
    span_counts = None
    start = time.perf_counter()
    for pair in itertools.count():
        commands = workload.round()
        for with_trace in ((False, True) if pair % 2 == 0 else (True, False)):
            if not with_trace:
                run_round(cli_main, commands, work, checker, plain)
                continue
            first = len(tracer.spans)
            tracer.counts.clear()
            with tracer.installed():
                scale = run_round(cli_main, commands, work, checker, traced, tracer)
            per_round.append(tracer.metrics(first, scale))
            round_scales.append(scale)
            span_counts = tracer.span_counts(first)
        if time.perf_counter() - start >= seconds:
            break

    metrics = {}
    failures = list(checker.failures)
    for metric, unit in PER_LAYER.items():
        if metric == "trace.overhead_frac":
            continue
        values = [r[metric] for r in per_round]
        if unit in ("s", "us"):
            metrics[metric] = statistics.median(values)
        else:
            # derived from counts, which every round must repeat exactly
            metrics[metric] = values[0]
            if len(set(values)) > 1:
                failures.append(f"{metric} differs between rounds: {values}")
    metrics["trace.overhead_frac"] = (sum(traced.walls) - sum(plain.walls)) / sum(plain.walls)

    spans_file = WORK_ROOT / f"spans-{name}-seed{seed}.jsonl"
    with open(spans_file, "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    notes = [f"{len(per_round)} traced and {len(per_round)} untraced rounds "
             "after one warm-up round; "
             f"{len(tracer.spans)} spans in {spans_file.relative_to(ROOT)}",
             f"speed scale of the traced rounds {statistics.median(round_scales):.4f}",
             *residual_note(checker),
             "layer        self_s      spans"]
    notes += [f"  {layer:<10} {metrics[layer + '.self_s']:10.4f} {span_counts[layer]:10d}"
              for layer in span_counts]
    tallies = (warm_up, plain, traced)
    return (metrics, PER_LAYER, notes, failures, sum(len(t.walls) for t in tallies),
            sum(t.failed for t in tallies))


def machine_facts(numpy_version: str) -> dict:
    cpu = platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy_version, "blas_threads": BLAS_THREADS}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # before numpy is imported, or the cap has no effect
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    package = ROOT / "src" / "pseirs"
    if not (package / "cli.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: no pseirs source tree (src/pseirs, configs) in {ROOT}",
              file=sys.stderr)
        return 2

    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import pseirs.cli
    if Path(pseirs.cli.__file__).resolve().parent != package:
        print(f"error: imported pseirs from {pseirs.cli.__file__}, not {package}",
              file=sys.stderr)
        return 2

    work = WORK_ROOT / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            result = measure_traced(args.workload, args.seed, args.seconds,
                                    pseirs.cli.main, work)
        else:
            result = measure(args.workload, args.seed, args.seconds,
                             pseirs.cli.main, work)
    except SetupFailed as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics, units, notes, failures, attempted, failed = result

    for failure in failures[:10]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(f"machine {json.dumps(machine_facts(numpy.__version__))}")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name:<28} {value:>16.6f} {units[name]}")
    for note in notes:
        print(f"  {note}")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
