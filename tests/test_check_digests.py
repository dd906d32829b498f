import importlib.util
import json
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
_spec = importlib.util.spec_from_file_location("check_digests",
                                               TOOLS / "check_digests.py")
check_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_digests)

BASE = {"a/summary.json": "1", "a/trajectory.csv": "2", "b/summary.json": "3"}


@pytest.mark.parametrize("head, declared, problems", [
    (BASE, [], []),
    ({**BASE, "a/summary.json": "9"}, ["a/summary.json"], []),
    ({**BASE, "a/summary.json": "9"}, [],
     ["changed but not declared: a/summary.json"]),
    (BASE, ["a/summary.json"], ["declared but unchanged: a/summary.json"]),
    # a file on one side only is a change
    ({**BASE, "c/new.csv": "4"}, [], ["changed but not declared: c/new.csv"]),
    ({k: v for k, v in BASE.items() if k != "b/summary.json"},
     ["b/summary.json"], []),
    ({**BASE, "a/trajectory.csv": "9"}, ["a/summary.json"],
     ["changed but not declared: a/trajectory.csv",
      "declared but unchanged: a/summary.json"]),
], ids=["identical", "declared_change", "undeclared_change",
        "declared_but_unchanged", "new_file", "removed_file", "both"])
def test_check(head, declared, problems):
    assert check_digests.check(BASE, head, declared) == problems


def test_shipped_list_is_a_list_of_names():
    declared = json.loads((TOOLS / "digest_changes.json").read_text())
    assert isinstance(declared, list)
    assert all(isinstance(name, str) for name in declared)


def test_exit_status(tmp_path, capsys):
    paths = []
    for name, doc in (("base", BASE), ("head", {**BASE, "a/summary.json": "9"}),
                      ("none", []), ("one", ["a/summary.json"]),
                      ("bad", {"a/summary.json": True})):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(doc))
    base, head, none, one, bad = map(str, paths)
    assert check_digests.main([base, head, one]) == 0
    assert check_digests.main([base, head, none]) == 1
    assert "changed but not declared: a/summary.json" in capsys.readouterr().out
    assert check_digests.main([base, head, bad]) == 2
    assert check_digests.main([base, head]) == 2
