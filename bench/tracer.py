"""Span tracing for the benchmark's traced run.

``Tracer.installed()`` wraps public functions of ``pseirs`` at the names
where its modules look them up, so the real command path is traced without
editing the package, and puts the originals back on exit. Each span records
its name, start, end, parent span and command id; the prefix of a span name
is its layer (a module of ``src/pseirs``). Spans stay in memory until the
run writes them out.

Per-row calls (``sir_derivatives``) and quadrature calls are counted but get
no span: most of a quadrature call's time is its caller's integrand, so it
stays in the caller's self time (``integro``, ``dde``).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter, defaultdict
from pathlib import Path

# layers with spans; quadrature is counted only
LAYERS = ("cli", "scenario", "dde", "sir", "threshold", "integro", "stats",
          "netgen")

# "module:attribute" (or "module:Class.method") -> span name
SPANNED = {
    "pseirs.cli:run_scenario": "scenario.run",
    "pseirs.cli:analyze_stored": "scenario.analyze",
    "pseirs.cli:sweep_scenario": "scenario.sweep",
    "pseirs.scenario:ScenarioConfig.from_dict": "scenario.parse",
    "pseirs.scenario:run_scenario": "scenario.run",
    "pseirs.scenario:write_trajectory_csv": "scenario.write_csv",
    "pseirs.scenario:read_trajectory_csv": "scenario.read_csv",
    "pseirs.scenario:_json_text": "scenario.json",
    "pseirs.scenario:simulate_pseirs": "dde.simulate",
    "pseirs.scenario:reconstruct_trajectory": "dde.reconstruct",
    "pseirs.dde:consistent_initial_exposed": "dde.consistent_init",
    "pseirs.dde:consistent_initial_recovered": "dde.consistent_init",
    "pseirs.scenario:simulate_sir": "sir.simulate",
    "pseirs.scenario:stability_probe": "threshold.probe",
    "pseirs.scenario:classify_equilibrium": "threshold.classify",
    "pseirs.scenario:verify_integral_equivalence": "integro.verify",
    "pseirs.scenario:compartment_stats": "stats.summary",
    "pseirs.scenario:phase_plane": "stats.phase_plane",
    "pseirs.stats:PhasePlaneSeries.to_csv_text": "stats.phase_csv",
    "pseirs.scenario:generate_ba": "netgen.generate",
    "pseirs.scenario:edge_list_text": "netgen.serialize",
    "pseirs.scenario:graph_to_dict": "netgen.serialize",
}
# counted, no span; integro imports adaptive_simpson into its own namespace
COUNTED = {
    "pseirs.scenario:sir_derivatives": "sir.derivatives",
    "pseirs.dde:adaptive_simpson": "quadrature.adaptive",
    "pseirs.integro:adaptive_simpson": "quadrature.adaptive",
    "pseirs.quadrature:composite_simpson": "quadrature.composite",
}

# spans reported as "<name>_s", their total duration including children
TIMED = ("scenario.parse", "scenario.write_csv", "scenario.read_csv",
         "scenario.json", "dde.simulate", "dde.reconstruct",
         "dde.consistent_init", "sir.simulate", "threshold.probe",
         "threshold.classify", "integro.verify", "stats.summary",
         "stats.phase_plane", "stats.phase_csv", "netgen.generate",
         "netgen.serialize")
COUNTS = ("scenario.write_csv_bytes", "dde.steps", "dde.reconstruct_rows",
          "sir.steps", "sir.derivatives_calls", "integro.checkpoints",
          "quadrature.adaptive_calls", "quadrature.integrand_evals",
          "quadrature.unconverged", "stats.phase_csv_bytes", "netgen.edges")

# every per-layer metric of a traced run, with its unit
PER_LAYER = {
    **{f"{name}_s": "s" for name in TIMED},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{name: ("bytes" if name.endswith("_bytes") else "count") for name in COUNTS},
    "dde.us_per_step": "us",
    "quadrature.accepted_frac": "frac",
    "scenario.sweep_error_frac": "frac",
    "trace.overhead_frac": "frac",
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _after_composite(tracer, result, args, kwargs):
    a, b = _arg(args, kwargs, 1, "a"), _arg(args, kwargs, 2, "b")
    panels = _arg(args, kwargs, 3, "panels")
    evals = 0 if a == b else panels + 1
    tracer.counts["quadrature.integrand_evals"] += evals
    tracer.last_composite = (panels, evals)


def _after_adaptive(tracer, result, args, kwargs):
    # adaptive_simpson returns the estimate of its last composite_simpson
    # call; composite_simpson runs nowhere else in the package.
    tracer.counts["quadrature.adaptive_calls"] += 1
    if tracer.last_composite is not None:
        panels, evals = tracer.last_composite
        tracer.counts["quadrature.accepted_evals"] += evals
        max_panels = importlib.import_module("pseirs.quadrature").MAX_PANELS
        if panels >= max_panels:
            tracer.counts["quadrature.unconverged"] += 1
    tracer.last_composite = None


def _after_sweep(tracer, result, args, kwargs):
    tracer.counts["scenario.sweep_entries"] += len(result)
    tracer.counts["scenario.sweep_errors"] += sum(e["status"] != "ok" for e in result)


def _counter(key, measure):
    def after(tracer, result, args, kwargs):
        tracer.counts[key] += measure(result, args)
    return after


AFTER = {
    "quadrature.composite": _after_composite,
    "quadrature.adaptive": _after_adaptive,
    "scenario.sweep": _after_sweep,
    "sir.derivatives": _counter("sir.derivatives_calls", lambda r, a: 1),
    "scenario.write_csv": _counter("scenario.write_csv_bytes",
                                   lambda r, a: Path(a[1]).stat().st_size),
    "stats.phase_csv": _counter("stats.phase_csv_bytes", lambda r, a: len(r)),
    "dde.simulate": _counter("dde.steps", lambda r, a: len(r.times) - 1),
    "dde.reconstruct": _counter("dde.reconstruct_rows", lambda r, a: len(r.times)),
    "sir.simulate": _counter("sir.steps", lambda r, a: len(r.times) - 1),
    "integro.verify": _counter("integro.checkpoints", lambda r, a: len(r.times)),
    "netgen.generate": _counter("netgen.edges", lambda r, a: len(r.edges)),
}


def _layer(span_name):
    return span_name.partition(".")[0]


def _resolve(target):
    module, _, path = target.partition(":")
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index or None, command]
        self.counts = Counter()
        self.command = None    # id stamped on every span opened
        self.last_composite = None
        self._stack = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(index)
        self.spans.append([name, 0.0, None, parent, self.command])
        self.spans[index][1] = time.perf_counter()
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, spanned):
        after = AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name) if spanned else None
            try:
                result = fn(*args, **kwargs)
            finally:
                if spanned:
                    self.close(index)
            if after is not None:
                after(self, result, args, kwargs)
            return result
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for targets, spanned in ((SPANNED, True), (COUNTED, False)):
                for target, name in targets.items():
                    owner, attr = _resolve(target)
                    raw = owner.__dict__[attr]
                    saved.append((owner, attr, raw))
                    if isinstance(raw, staticmethod):
                        wrapped = staticmethod(self._wrap(raw.__func__, name, spanned))
                    else:
                        wrapped = self._wrap(raw, name, spanned)
                    setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def metrics(self, first_span: int = 0, scale: float = 1.0) -> dict:
        """Per-layer metrics over ``spans[first_span:]`` and ``counts``
        (everything but trace.overhead_frac); times are multiplied by
        ``scale``."""
        total = defaultdict(float)
        self_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans[first_span:]:
            duration = (end - start) * scale
            total[name] += duration
            self_time[_layer(name)] += duration
            if parent is not None:  # the parent's layer did not work meanwhile
                self_time[_layer(self.spans[parent][0])] -= duration

        c = self.counts
        out = {f"{name}_s": total[name] for name in TIMED}
        out.update({f"{layer}.self_s": self_time[layer] for layer in LAYERS})
        out.update({name: c[name] for name in COUNTS})
        steps, evals, entries = c["dde.steps"], c["quadrature.integrand_evals"], \
            c["scenario.sweep_entries"]
        out["dde.us_per_step"] = 1e6 * total["dde.simulate"] / steps if steps else 0.0
        out["quadrature.accepted_frac"] = (c["quadrature.accepted_evals"] / evals
                                           if evals else 0.0)
        out["scenario.sweep_error_frac"] = (c["scenario.sweep_errors"] / entries
                                            if entries else 0.0)
        return out

    def span_counts(self, first_span: int = 0) -> Counter:
        """Spans per layer over ``spans[first_span:]``."""
        return Counter(_layer(s[0]) for s in self.spans[first_span:])
