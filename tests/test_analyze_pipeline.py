"""``pseirs analyze`` of each shipped pSEIRS config's stored trajectory
gives the same output bytes at two usable CPUs as at one, and leaves no
process behind."""

import pytest

from pseirs import _fork

from test_scenario_cli import (PSEIRS_CONFIGS, analyze, children_left,
                               stored)  # noqa: F401 (a fixture)


@pytest.mark.parametrize("name", PSEIRS_CONFIGS)
def test_shipped_configs_analyze_to_the_serial_bytes(tmp_path, monkeypatch,
                                                     stored, name):
    # two CPUs may split a phase plane's CSV; the stored file is parsed
    # in this process either way
    config, trajectory = stored[name]
    results = []
    for cpus in (2, 1):
        monkeypatch.setattr(_fork, "usable_cpus", lambda n=cpus: n)
        results.append(analyze(config, trajectory, tmp_path / f"cpus{cpus}"))
    code, err, tree = results[0]
    assert code == 0 and err == "" and "summary.json" in tree
    assert results[1] == results[0]
    assert not children_left()
