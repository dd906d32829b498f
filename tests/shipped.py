"""The shipped configs in ``configs/``, the one source of the paper's
scenario values for the tests: the readers below state no value of
their own."""

import dataclasses
import json
from pathlib import Path

from pseirs.scenario import ScenarioConfig

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def shipped(name) -> ScenarioConfig:
    """The parsed config ``configs/<name>.json``; ``name`` may carry the
    ``.json``.  Each call reads the file again, so ``.raw`` is a fresh
    dict the caller may change."""
    path = (CONFIG_DIR / name).with_suffix(".json")
    return ScenarioConfig.from_dict(json.loads(path.read_text()))


def baseline_pseirs(**changes):
    """The PseirsParams of ``seirs_baseline``, with ``changes`` applied."""
    return dataclasses.replace(shipped("seirs_baseline").params, **changes)


def baseline_history():
    return shipped("seirs_baseline").init


def sir_low_infectivity():
    return shipped("sir_low_infectivity").params


def sir_high_infectivity():
    return shipped("sir_high_infectivity").params


def sir_twelve_node_init():
    return shipped("sir_low_infectivity").init
