"""SHA-256 of every file the ``pseirs`` CLI writes for the shipped configs.

Runs 22 commands against the package and configs of one checkout:
``simulate`` on each of the six configs, ``analyze`` of each stored
trajectory with its own config, a 2-value ``params.p`` sweep of
``seirs_low_immunity``, a 3-value ``params.gamma`` sweep of
``seirs_baseline`` whose threshold probe gives ``decaying``, ``marginal``
and ``growing`` (the shipped configs all give ``growing``), and three
``simulate`` runs at non-default steps, each followed by ``analyze`` of its
trajectory. Two sit at the edges of the solver's lag caches:
``seirs_baseline`` at the smallest legal step (omega/4, so 4-step lags,
each entry read 3 steps after it is made) and ``seirs_long_latency`` at a
step that puts both lags off the grid (fixed Hermite weights), so the
solver and reconstruction are covered at 4-step lags and at lags off the
grid too. The third is ``sir_high_infectivity`` at step 0.07, which does
not divide the horizon (the last sample is at t = 200.06), so the SIR
solve, its trajectory CSV and ``analyze`` of it are covered on a second
grid. Two ``generate-network`` runs cover the CLI's network files: 300
nodes with m0 = m = 1, whose second node attaches to the sole seed node
with an empty endpoint pool, and 2,000 nodes with m0 = m = 5. Writes one
JSON object mapping each output file (relative to the
run directory) to its digest, so two checkouts that must produce the same
bytes can be compared with ``diff``:

    python tools/output_digests.py --src <checkout> --out digests.json

Each command runs in a fresh interpreter with ``<checkout>/src`` first on
``PYTHONPATH``; any failing command stops the run with exit status 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CONFIGS = ("scale_free_5000", "seirs_baseline", "seirs_long_latency",
           "seirs_low_immunity", "sir_high_infectivity", "sir_low_infectivity")
SWEEPS = (("seirs_low_immunity", "params.p", "0.5,1"),
          ("seirs_baseline", "params.gamma", "0.02,0.1061,0.308"))
EDGE_STEPS = (("seirs_baseline", "0.0375"), ("seirs_long_latency", "0.0071"),
              ("sir_high_infectivity", "0.07"))
# (nodes, m0, m, seed) of each generate-network command
NETWORKS = ((300, 1, 1, 3), (2000, 5, 5, 0))


def commands(configs: Path, out: Path) -> list:
    """(output directory, CLI argv) for each of the 22 commands, in order."""
    cmds = []
    for name in CONFIGS:
        config = str(configs / f"{name}.json")
        sim = out / "simulate" / name
        cmds.append((sim, ["simulate", "--config", config]))
        cmds.append((out / "analyze" / name,
                     ["analyze", "--config", config,
                      "--trajectory", str(sim / "trajectory.csv")]))
    for name, param, values in SWEEPS:
        cmds.append((out / "sweep" / name,
                     ["sweep", "--config", str(configs / f"{name}.json"),
                      "--param", param, "--values", values]))
    for name, step in EDGE_STEPS:
        config = str(configs / f"{name}.json")
        sim = out / "simulate-step" / f"{name}-{step}"
        cmds.append((sim, ["simulate", "--config", config, "--step", step]))
        cmds.append((out / "analyze-step" / f"{name}-{step}",
                     ["analyze", "--config", config,
                      "--trajectory", str(sim / "trajectory.csv")]))
    for nodes, m0, m, seed in NETWORKS:
        cmds.append((out / "generate-network" / f"{nodes}-{m0}-{m}-{seed}",
                     ["generate-network", "--nodes", str(nodes), "--m0",
                      str(m0), "--m", str(m), "--seed", str(seed)]))
    return cmds


def digests(root: Path) -> dict:
    return {path.relative_to(root).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--src", required=True, type=Path,
                        help="checkout holding src/pseirs and configs/")
    parser.add_argument("--out", required=True, type=Path,
                        help="JSON file to write the digests to")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src / "src"), env.get("PYTHONPATH")) if p)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for out, argv_ in commands(src / "configs", root):
            proc = subprocess.run(
                [sys.executable, "-m", "pseirs.cli", *argv_, "--out", str(out)],
                env=env, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"failed: pseirs {' '.join(argv_)}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
        result = digests(root)
    args.out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(result)} digests to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
