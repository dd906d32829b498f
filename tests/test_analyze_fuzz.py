"""Fuzz ``pseirs analyze`` with damaged trajectory CSVs: every one must end
as a typed error record on stderr, exit status 1 and no output files, but
a huge finite value, which may also give a clean run."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from pseirs import errors
from pseirs.cli import main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _short_configs():
    """Short pSEIRS and SIR scenarios, 534 and 501 rows.  The SIR phase plane
    takes proportions, so a zero-population row is an error for it too."""
    pseirs = json.loads((CONFIG_DIR / "seirs_baseline.json").read_text())
    pseirs["params"]["tau"] = 3
    pseirs["horizon"] = 4
    sir = json.loads((CONFIG_DIR / "sir_low_infectivity.json").read_text())
    sir["horizon"] = 5
    sir["analyses"] = {"stats": {"window": [0, 5]},
                       "phase_plane": [{"axes": ["S", "I"],
                                        "proportions": True}]}
    return {"pseirs": pseirs, "sir": sir}


@pytest.fixture(scope="module")
def stored(tmp_path_factory):
    """model -> (config path, lines of its stored trajectory CSV)"""
    root = tmp_path_factory.mktemp("stored")
    runs = {}
    for model, raw in _short_configs().items():
        config = root / f"{model}.json"
        config.write_text(json.dumps(raw))
        out = root / model
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["simulate", "--config", str(config),
                         "--out", str(out)]) == 0
            # the undamaged file analyzes cleanly
            assert main(["analyze", "--config", str(config), "--trajectory",
                         str(out / "trajectory.csv"),
                         "--out", str(root / f"{model}-re")]) == 0
        runs[model] = (config, (out / "trajectory.csv").read_text().splitlines())
    return runs


@st.composite
def damage(draw, lines):
    """(name, damaged CSV lines) of one mutation of a stored trajectory."""
    header, rows = lines[0], [line.split(",") for line in lines[1:]]
    kind = draw(st.sampled_from(["ragged_row", "non_numeric_field",
                                 "non_finite_field", "header_only",
                                 "dropped_last_column", "zero_population_row",
                                 "huge_field", "non_uniform_time"]))
    k = draw(st.integers(0, len(rows) - 1))
    col = draw(st.integers(0, len(rows[0]) - 1))
    if kind == "ragged_row":
        rows[k] = draw(st.sampled_from([rows[k][:-1], rows[k] + ["1.0"]]))
    elif kind == "non_numeric_field":
        rows[k][col] = draw(st.sampled_from(["x", "", "1.0.0", "0x10", "--1",
                                             "1,0"]))
    elif kind == "non_finite_field":
        rows[k][col] = draw(st.sampled_from(["nan", "inf", "-inf", "NaN",
                                             "1e999"]))
    elif kind == "header_only":
        rows = []
    elif kind == "dropped_last_column":
        # pSEIRS: the N column; from the rows or from the header alone
        if draw(st.booleans()):
            rows = [row[:-1] for row in rows]
        else:
            header = header.rpartition(",")[0]
    elif kind == "zero_population_row":
        rows[k] = [rows[k][0]] + ["0.0"] * (len(rows[k]) - 1)
    elif kind == "huge_field":
        # finite, but a population or a mean of it passes float64's range
        rows[k][col] = draw(st.sampled_from(
            ["1e308", "1.7976931348623157e308"]))
    else:
        step = float(rows[1][0])
        shift = draw(st.floats(0.01, 0.5)) * draw(st.sampled_from([-1, 1]))
        rows[k][0] = repr(float(rows[k][0]) + shift * step)
    return kind, [header] + [",".join(row) for row in rows]


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), model=st.sampled_from(["pseirs", "sir"]))
def test_damaged_trajectory_is_an_error_record(stored, data, model):
    config, lines = stored[model]
    kind, damaged = data.draw(damage(lines), label="damage")
    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / "trajectory.csv"
        csv.write_text("\n".join(damaged) + "\n")
        out = Path(tmp) / "re"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main(["analyze", "--config", str(config),
                         "--trajectory", str(csv), "--out", str(out)])
        lines_err = err.getvalue().splitlines()
        if kind == "huge_field" and code == 0:
            # every value and every sum stayed finite: a clean run
            assert lines_err == []
            return
        assert code == 1, kind
        assert len(lines_err) == 1, lines_err
        record = json.loads(lines_err[0])
        assert list(record) == ["error"]
        assert issubclass(getattr(errors, record["error"]["type"]),
                          errors.PseirsError)
        assert not out.exists()


def test_an_infinite_integral_names_its_checkpoint_and_the_stored_i(stored, tmp_path):
    # I = 1e308 at t = 0.0075 makes the integral form of R infinite at the
    # first checkpoint, t = kappa = 3: the record names R, that t and the
    # stored I, not only the Simpson window [0, 3]
    config, lines = stored["pseirs"]
    row = lines[2].split(",")
    assert row[0] == "0.0075"
    row[3] = "1e308"
    csv = tmp_path / "trajectory.csv"
    csv.write_text("\n".join([*lines[:2], ",".join(row), *lines[3:]]) + "\n")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["analyze", "--config", str(config), "--trajectory", str(csv),
                     "--out", str(tmp_path / "re")])
    assert code == 1
    assert json.loads(err.getvalue())["error"] == {
        "type": "Overflow",
        "message": "the integral form of R at t=3.0 exceeded float64's range; the "
                   "largest stored I in its window is 1e+308 at t=0.0075"}
    assert not (tmp_path / "re").exists()
