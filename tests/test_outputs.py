"""Every subcommand's stdout in every format it supports, byte for byte.

Each subcommand runs on its default job and on one other; the expected bytes
live in ``tests/golden``, next to the measurement files the cases read
(``input-*``). After a deliberate change to an output, record the goldens
again with ``PYTHONPATH=src python tests/test_outputs.py`` and review the diff.
"""

import contextlib
import csv
import io
import json
import os
from pathlib import Path

import pytest

import vidcost
from vidcost.calibration import CalibrationResult
from vidcost.cli import main
from vidcost.output import _shown, calibration

GOLDEN = Path(__file__).with_name("golden")

FORMATS = {
    "estimate": ("table", "csv", "json"),
    "roofline": ("table", "csv", "json"),
    "calibrate": ("table", "csv", "json"),
    "sweep": ("table", "csv", "json", "svg"),
    "compare": ("table", "csv", "json", "svg"),
}

# Case name -> argv. Calibrate has no default measurements, so its default
# case passes only --measurements.
CASES = {
    "estimate-default": ["estimate"],
    "estimate-custom": ["estimate", "--height", "480", "--width", "832", "--frames", "33", "--steps", "20",
                        "--cfg-passes", "1", "--hardware", "a100", "--mu", "0.5"],
    "roofline-default": ["roofline"],
    "roofline-custom": ["roofline", "--hardware", "l4"],
    "calibrate-default": ["calibrate", "--measurements", str(GOLDEN / "input-calibrate.csv")],
    "calibrate-custom": ["calibrate", "--measurements", str(GOLDEN / "input-calibrate.json"),
                         "--hardware", "a100", "--cfg-passes", "1"],
    "sweep-default": ["sweep", "--axis", "steps", "--from", "10", "--to", "50", "--step", "10"],
    "sweep-custom": ["sweep", "--axis", "resolution", "--values", "480x832,720x1280", "--frames", "33",
                     "--hardware", "a100", "--mu", "0.5"],
    "compare-default": ["compare"],
    "compare-custom": ["compare", "--measurements", str(GOLDEN / "input-compare.json")],
}

RUNS = [(case, fmt) for case in CASES for fmt in FORMATS[case.split("-")[0]]]


def golden_path(case: str, fmt: str) -> Path:
    return GOLDEN / f"{case}.{'txt' if fmt == 'table' else fmt}"


def stdout_of(case: str, fmt: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(CASES[case] + ["--format", fmt])
    assert code == 0, (case, fmt)
    return out.getvalue()


@pytest.mark.parametrize("case, fmt", RUNS)
def test_output_matches_golden(case, fmt, monkeypatch):
    monkeypatch.delenv("VIDCOST_DATA_DIR", raising=False)
    assert stdout_of(case, fmt) == golden_path(case, fmt).read_text(encoding="utf-8")


@pytest.mark.parametrize("command", ["estimate", "roofline", "calibrate"])
def test_svg_is_a_usage_error_where_unsupported(command, capsys):
    argv = CASES[f"{command}-default"] + ["--format", "svg"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "invalid choice: 'svg'" in captured.err


def test_roofline_csv_quotes_a_hardware_name(tmp_path, capsys):
    entry = json.loads((Path(vidcost.__file__).with_name("data") / "hardware.json").read_text())[0]
    entry["name"] = 'h100,"sxm"'
    del entry["reference_balance"]
    path = tmp_path / "hw.json"
    path.write_text(json.dumps(entry))
    assert main(["roofline", "--hardware", str(path), "--format", "csv"]) == 0
    header, row = csv.reader(io.StringIO(capsys.readouterr().out))
    assert len(row) == len(header)
    cells = dict(zip(header, row))
    assert (cells["name"], cells["reference_balance"]) == ('h100,"sxm"', "")


@pytest.mark.parametrize("value, shown", [(0.0, "0.000000"), (-0.25, "-0.250000"), (1e-6, "0.000001"),
                                          (9.9e-7, "9.9000e-07"), (999999999.5, "999999999.500000"),
                                          (1e9, "1.0000e+09"), (-3e12, "-3.0000e+12")])
def test_a_calibrate_table_value_is_fixed_point_only_where_that_shows_it(value, shown):
    table = calibration(CalibrationResult(value, value, value), 3, "table")
    assert table == f"mu           {shown}\nintercept_s  {shown}\nr_squared    {shown}\nrecords      3\n"



@pytest.mark.parametrize("decimals, value, shown", [
    (0, 0.0, "0"), (0, 1.0, "1"), (0, 989.4, "989"), (0, 0.5, "5.0000e-01"), (0, 1e-3, "1.0000e-03"),
    (0, 1e12, "1.0000e+12"), (2, 0.01, "0.01"), (2, 13.82, "13.82"), (2, 9.9e-3, "9.9000e-03"),
    (2, 1.3253e-05, "1.3253e-05"), (3, 0.001, "0.001"), (3, -0.25, "-0.250"), (3, 8.5141e-07, "8.5141e-07"),
    (3, 1e9, "1.0000e+09"),
])
def test_a_table_number_is_fixed_point_only_where_that_shows_it(decimals, value, shown):
    # The least magnitude fixed point shows is 10**-decimals, exactly the float the literal 1e-<decimals> reads as.
    assert 10.0 ** -decimals == float(f"1e-{decimals}")
    assert _shown(value, decimals) == shown

if __name__ == "__main__":
    os.environ.pop("VIDCOST_DATA_DIR", None)  # the goldens hold the bundled data's output only
    for case, fmt in RUNS:
        golden_path(case, fmt).write_text(stdout_of(case, fmt), encoding="utf-8")
