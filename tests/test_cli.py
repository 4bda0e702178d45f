"""End-to-end CLI behavior through main()."""

import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vidcost

from input_rules import ANIMATEDIFF, DEFAULTS_ENTRY, HW_ENTRY, RULES, SPEC, subcommands
from vidcost import VideoJob, total_flops
from vidcost.cli import main
from vidcost.specs import HardwareSpec, to_dict

BUNDLED_SPEC = Path(vidcost.__file__).with_name("data") / "wan2.1-t2v-1.3b.json"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- the input rules: every row of tests/input_rules.py, each section one test ---

def run_row(row, capsys, tmp_path, monkeypatch) -> None:
    """Run ``row`` in an empty working directory holding its files: exactly its exit code and stderr, no stdout."""
    monkeypatch.chdir(tmp_path)
    for name, value in row.env.items():
        monkeypatch.setenv(name, value)
    for name, content in row.files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_bytes(content if isinstance(content, bytes) else content.encode())
    argv = row.argv.split()
    try:
        code = main(argv)
    except SystemExit as exc:  # a usage error argparse reports itself
        code = exc.code
    usage = subcommands()[argv[0]].format_usage()
    assert (code, *capsys.readouterr()) == (row.code, "", row.stderr.replace("{usage}", usage) + "\n")


def rule_test(name: str, rows: list):
    """The test of one section: a case per row, or one plain test for a section of one row without a case."""
    cases = [row.case for row in rows]
    assert cases == [None] or None not in cases and len(set(cases)) == len(cases), f"{name}: {cases}"
    if rows[0].case is None:
        def test(capsys, tmp_path, monkeypatch, row=rows[0]):
            run_row(row, capsys, tmp_path, monkeypatch)
    else:
        @pytest.mark.parametrize("row", rows, ids=[row.case for row in rows])
        def test(capsys, tmp_path, monkeypatch, row):
            run_row(row, capsys, tmp_path, monkeypatch)
    test.__name__ = test.__qualname__ = name
    return test


for _section, _rows in RULES.items():
    globals()[f"test_{_section}"] = rule_test(f"test_{_section}", _rows)


NEAR_THE_LIMIT = """
import contextlib, io, sys
from pathlib import Path
from vidcost.cli import main
name, *argv = sys.argv[1:]
doc = Path("doc.json").read_text()
for depth in range(sys.getrecursionlimit() - 50, sys.getrecursionlimit()):
    Path(name).write_text(doc.replace('"@"', "[" * depth + "1" + "]" * depth))
    with contextlib.redirect_stderr(io.StringIO()) as err, contextlib.redirect_stdout(io.StringIO()) as out:
        code = main([*argv, name])
    lines = err.getvalue().splitlines()
    if (code, out.getvalue(), len(lines)) != (1, "", 1) or not lines[0].startswith(f"error: {name}: "):
        print(depth, code, lines[:1])
"""


@pytest.mark.parametrize("name, argv, doc", [  # each kind of data file, a field of it holding "@"
    ("spec.json", "estimate --model", {**SPEC, "model_id": "@"}),
    ("hw.json", "roofline --hardware", [{**HW_ENTRY, "theta_peak": "@"}]),
    ("d.json", "compare --defaults", [{**DEFAULTS_ENTRY, "model_id": "@"}]),
    ("m.json", "calibrate --measurements", [ANIMATEDIFF, {**ANIMATEDIFF, "model_id": "@"}]),
], ids=["model", "hardware", "defaults", "measurements"])
def test_a_value_nested_near_the_parsers_limit_is_one_error_line(tmp_path, name, argv, doc):
    # Nested just under the limit, a value parses, and the repr of the check that rejects it may meet the limit.
    # Where depends on the stack, so a fresh interpreter walks the depths as a command run from a shell meets them.
    (tmp_path / "doc.json").write_text(json.dumps(doc))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(Path(vidcost.__path__[0]).parent),
                                                                    os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", NEAR_THE_LIMIT, name, *argv.split()], cwd=tmp_path, env=env,
                            capture_output=True, text=True)
    assert (result.returncode, result.stdout, result.stderr) == (0, "", "")


def test_estimate_zero_config(capsys):
    code, out, err = run_cli(capsys, "estimate")
    assert code == 0
    assert "wan2.1-t2v-1.3b" in out
    assert "397.81" in out
    assert err == ""


def test_estimate_explicit_flags(capsys):
    code, out, _ = run_cli(capsys, "estimate", "--height", "720", "--width", "1280",
                           "--frames", "81", "--steps", "50")
    assert code == 0
    assert "tokens    75600" in out
    assert "397.81" in out
    assert "77.35" in out


def test_estimate_json_document(capsys, wan):
    code, out, _ = run_cli(capsys, "estimate", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    expected = total_flops(VideoJob(720, 1280, 81, 50, 2),
                           wan.dit, wan.text_encoder, wan.vae)
    assert doc["flops"] == expected.as_dict()
    assert doc["tokens"] == 75_600
    assert doc["mu"] == 0.456
    assert doc["latency_s"] == pytest.approx(397.813, abs=0.001)
    assert doc["energy_wh"] == pytest.approx(77.353, abs=0.001)


def test_estimate_csv(capsys):
    code, out, _ = run_cli(capsys, "estimate", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["operator", "flops", "latency_s", "energy_wh"]
    assert rows[-1][0] == "total"


def test_estimate_svg_unsupported(capsys):
    with pytest.raises(SystemExit) as info:
        main(["estimate", "--format", "svg"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "svg" in captured.err


def test_sweep_steps_row_count(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--axis", "steps", "--from", "1", "--to", "200")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 201
    assert lines[0].startswith("axis_value,")
    assert lines[1].split(",")[0] == "1"
    assert lines[-1].split(",")[0] == "200"


def test_sweep_frames_with_step(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--axis", "frames",
                           "--from", "4", "--to", "100", "--step", "4")
    assert code == 0
    assert len(out.strip().splitlines()) == 26


def test_sweep_resolution_values(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--axis", "resolution",
                           "--values", "256x256,512x512,720x1280")
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 4
    assert rows[1].startswith("256x256,")


def test_sweep_unknown_axis(capsys):
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--axis", "bogus", "--from", "1", "--to", "2"])
    assert info.value.code == 2
    assert "--axis" in capsys.readouterr().err


def test_sweep_deterministic(capsys):
    _, first, _ = run_cli(capsys, "sweep", "--axis", "steps", "--from", "1", "--to", "10")
    _, second, _ = run_cli(capsys, "sweep", "--axis", "steps", "--from", "1", "--to", "10")
    assert first == second


def test_sweep_out_file(capsys, tmp_path):
    out_path = tmp_path / "sweep.json"
    code, out, _ = run_cli(capsys, "sweep", "--axis", "steps", "--from", "1", "--to", "3",
                           "--format", "json", "--out", str(out_path))
    assert code == 0
    assert out == ""
    doc = json.loads(out_path.read_text())
    assert len(doc["points"]) == 3


def test_sweep_svg(capsys, tmp_path):
    out_path = tmp_path / "sweep.svg"
    code, _, _ = run_cli(capsys, "sweep", "--axis", "steps", "--from", "1", "--to", "5",
                         "--format", "svg", "--out", str(out_path))
    assert code == 0
    assert out_path.read_text().startswith("<svg")


@pytest.mark.parametrize("sweep, flags", [
    (["--axis", "frames", "--values", "33,81"], {"--frames": "17"}),
    (["--axis", "steps", "--from", "1", "--to", "3"], {"--steps": "9"}),
    (["--axis", "resolution", "--values", "256x256,512x512"], {"--height": "8"}),  # below the least height
    (["--axis", "resolution", "--values", "256x256,512x512"], {"--height": "8", "--width": "9"}),
], ids=["frames", "steps", "resolution-height", "resolution-height-width"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_overrides_the_flags_of_its_axis_with_a_warning_each(capsys, sweep, flags, fmt):
    code, plain, err = run_cli(capsys, "sweep", *sweep, "--format", fmt)
    assert (code, err) == (0, "")
    code, out, err = run_cli(capsys, "sweep", *sweep, "--format", fmt, *[a for flag in flags.items() for a in flag])
    assert (code, out) == (0, plain)
    assert err.splitlines() == [f"warning: {flag} {value} is overridden by the {sweep[1]} sweep"
                                for flag, value in flags.items()]


def _int_fields():
    """(dotted path, keys to it) of every int field of the bundled spec file."""
    doc = json.loads(BUNDLED_SPEC.read_text())
    found = [("cfg_passes", ("cfg_passes",))]
    found += [(f"{part}.{key}", (part, key)) for part in ("dit", "text_encoder") for key in doc[part]
              if key != "mlp_expansion"]
    found += [(f"vae.layers[{i}].{key}", ("vae", "layers", i, key)) for i in range(len(doc["vae"]["layers"]))
              for key in ("c_in", "c_out", "h_div", "w_div", "repeat")]
    return found


@pytest.mark.parametrize("path, keys", _int_fields(), ids=[path for path, _ in _int_fields()])
def test_spec_int_field_rejects_non_int(capsys, tmp_path, path, keys):
    # A float or bool in an int field would make every FLOP count it feeds a float.
    spec = tmp_path / "spec.json"
    want = "one of [1, 2]" if path == "cfg_passes" else "a positive int"
    for bad, shown in ((2.0, "2.0"), (True, "True"), (16.5, "16.5")):
        doc = json.loads(BUNDLED_SPEC.read_text())
        target = doc
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = bad
        spec.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "estimate", "--model", str(spec), "--format", "json")
        assert (code, out) == (1, "")
        assert err == f"error: {spec}: {path} must be {want}, got {shown}\n"


@pytest.mark.parametrize("argv", [
    ["estimate", "--height", str(10**100)],
    ["sweep", "--axis", "frames", "--from", "1", "--to", "3", "--steps", str(10**150)],
], ids=["estimate", "sweep"])
def test_table_rows_of_a_huge_job_stay_narrow(capsys, argv):
    # Latencies near 1e196 and 1e165 s: fixed point would print them with about that many digits.
    code, out, err = run_cli(capsys, *argv, "--format", "table")
    assert (code, err) == (0, "")
    rows = out.split("-  -")[-1].splitlines()[1:]  # the lines under the dashed rule
    assert len(rows) == (8 if argv[0] == "estimate" else 3)
    assert max(map(len, rows)) <= 80
    assert all(re.fullmatch(r"\d\.\d{4}e\+\d{3}", cell) for cell in rows[-1].split()[-2:])


def test_estimate_table_shows_no_nonzero_amount_as_zero(capsys):
    # A 16x16, 1-frame, 1-step job: every operator has FLOPs, and six of seven take far below 0.01 s and 0.001 Wh;
    # three have a share far below 0.01%.
    code, out, err = run_cli(capsys, "estimate", "--height", "16", "--width", "16", "--frames", "1", "--steps", "1")
    assert (code, err) == (0, "")
    rows = [row.split() for row in out.split("-  -")[-1].splitlines()[1:]]
    assert len(rows) == 8
    assert all(float(flops) > 0 and float(share.removesuffix("%")) > 0 and float(lat) > 0 and float(wh) > 0
               for _, flops, share, lat, wh in rows), out


def test_huge_job_prints_finite_operator_shares(capsys):
    # latency_s * flops overflows here although each share is finite.
    code, out, err = run_cli(capsys, "estimate", "--height", str(10**80), "--format", "json")
    assert (code, err) == (0, "")
    doc = json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in the JSON output"))
    for key in ("operator_latency_s", "operator_energy_wh"):
        shares = doc[key]
        assert all(math.isfinite(v) and v > 0 for v in shares.values())
        total = doc["latency_s"] if key == "operator_latency_s" else doc["energy_wh"]
        assert math.fsum(shares.values()) == pytest.approx(total, rel=1e-12)
    code, out, _ = run_cli(capsys, "estimate", "--height", str(10**80))
    assert code == 0 and "inf" not in out


def test_roofline_single_row(capsys):
    code, out, _ = run_cli(capsys, "roofline", "--hardware", "h100")
    assert code == 0
    assert "295" in out
    assert "590" in out
    assert "l4" not in out


def test_roofline_full_table_flags_l4(capsys):
    code, out, _ = run_cli(capsys, "roofline")
    assert code == 0
    assert "l4" in out
    assert "inconsistent" in out
    assert "gaudi3" in out


def test_roofline_json(capsys):
    code, out, _ = run_cli(capsys, "roofline", "--format", "json")
    assert code == 0
    rows = {r["name"]: r for r in json.loads(out)}
    assert rows["h100"]["attn_threshold"] == 295
    assert rows["h100"]["mlp_threshold"] == 590
    assert rows["l4"]["consistent"] is False


def test_roofline_thresholds_of_a_balance_near_the_float_limit(capsys, tmp_path):
    # The largest balance, 1e24, is beyond the floats that hold every integer (2**53): the thresholds are exact.
    path = tmp_path / "hw.json"
    path.write_text('[{"name": "toy", "theta_peak": 1e24, "bandwidth": 1, "p_max": 700, "scalar_bytes": 4}]')
    code, out, err = run_cli(capsys, "roofline", "--hardware", str(path), "--format", "json")
    assert (code, err) == (0, "")
    [row] = json.loads(out)
    assert (row["attn_threshold"], row["mlp_threshold"]) == (2 * int(1e24), 4 * int(1e24))


def test_roofline_table_shows_a_rate_below_one_in_exponent_form(capsys, tmp_path):
    # Fixed point with no decimals would print a tflops and a balance of 1e-3 as 0.
    path = tmp_path / "hw.json"
    path.write_text('[{"name": "tiny", "theta_peak": 1e9, "bandwidth": 1e12, "p_max": 700}]')
    code, out, err = run_cli(capsys, "roofline", "--hardware", str(path))
    assert (code, err) == (0, "")
    assert out.splitlines()[-1].split() == ["tiny", "1.0000e-03", "1.00", "1.0000e-03", "0", "0"]


def test_calibrate_synthetic(capsys, tmp_path, wan, h100):
    rows = ["model_id,height,width,frames,steps,latency_s"]
    for steps in (10, 20, 40, 80):
        job = VideoJob(720, 1280, 81, steps, 2)
        flops = total_flops(job, wan.dit, wan.text_encoder, wan.vae).total
        rows.append(f"synthetic,720,1280,81,{steps},{flops / (0.5 * h100.theta_peak)}")
    path = tmp_path / "synthetic.csv"
    path.write_text("\n".join(rows) + "\n")

    code, out, _ = run_cli(capsys, "calibrate", "--measurements", str(path))
    assert code == 0
    assert "mu           0.500000" in out

    code, out, _ = run_cli(capsys, "calibrate", "--measurements", str(path),
                           "--format", "json")
    doc = json.loads(out)
    assert doc["mu"] == pytest.approx(0.5, rel=1e-9)
    assert doc["r_squared"] == pytest.approx(1.0, abs=1e-12)


def test_calibrate_table_shows_values_beyond_fixed_point_in_exponent_form(capsys, tmp_path):
    # A valid file whose fit has mu far below 1e-6 and an intercept far above 1e9: fixed point
    # would print mu as 0.000000, outside (0, 1], and the intercept with about 300 digits.
    rows = [f"wan2.1-t2v-1.3b,720,1280,81,{steps},{latency}" for steps, latency in
            ((10, "1e300"), (50, "3e300"), (20, "1.6e300"))]
    path = tmp_path / "huge.csv"
    path.write_text("model_id,height,width,frames,steps,latency_s\n" + "\n".join(rows) + "\n")
    code, out, err = run_cli(capsys, "calibrate", "--measurements", str(path))
    assert (code, err) == (0, "")
    assert out == "mu           7.3642e-299\nintercept_s  5.5207e+299\nr_squared    1.000000\nrecords      3\n"


def test_calibrate_warns_about_other_models(capsys, tmp_path, wan, h100):
    rows = ["model_id,height,width,frames,steps,latency_s"]
    for steps, model_id in zip((10, 20, 40, 80), ("wan2.1-t2v-1.3b", "b", "a", "b")):
        flops = total_flops(VideoJob(720, 1280, 81, steps, 2), wan.dit, wan.text_encoder, wan.vae).total
        rows.append(f"{model_id},720,1280,81,{steps},{flops / (0.5 * h100.theta_peak)}")
    path = tmp_path / "mixed.csv"
    path.write_text("\n".join(rows) + "\n")
    code, out, err = run_cli(capsys, "calibrate", "--measurements", str(path))
    assert code == 0
    assert "mu           0.500000" in out
    assert err == "warning: 3 of 4 records name a model other than wan2.1-t2v-1.3b: a, b\n"

    # Records that all name --model draw no warning.
    path.write_text("\n".join(rows[:2]) + "\n" + rows[1] + "\n")
    code, _, err = run_cli(capsys, "calibrate", "--measurements", str(path))
    assert (code, err) == (1, f"error: {path}: degenerate fit: all records predict the same FLOP total\n")


def test_runtime_imports_stdlib_only():
    # Every module, listed from the package: `import vidcost` alone loads none of them.
    src = str(Path(vidcost.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import importlib, json, pkgutil, sys, vidcost\n"
            "names = [m.name for m in pkgutil.iter_modules(vidcost.__path__, 'vidcost.')]\n"
            "for name in names: importlib.import_module(name)\n"
            "print(json.dumps([names, sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy'))]))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    names, third_party = json.loads(out.stdout)
    assert {"vidcost.calibration", "vidcost.charts", "vidcost.cli", "vidcost.report"} <= set(names)
    assert third_party == []


def test_compare_bundled(capsys):
    code, out, _ = run_cli(capsys, "compare")
    assert code == 0
    assert "wan2.1-t2v-14b" in out
    assert "415.1" in out
    assert "≈ 2986×" in out


def test_compare_table_shows_a_huge_ratio_in_exponent_form(capsys, tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("model_id,height,width,frames,steps,latency_s,gpu_wh\n"
                    "animatediff,512,512,16,4,1,1e12\nltx-video,512,704,121,40,1,1\n")
    code, out, err = run_cli(capsys, "compare", "--measurements", str(path))
    assert (code, err) == (0, "")
    assert out.endswith("\ntotal energy ratio animatediff / ltx-video ≈ 1.0000e+12×\n")


def test_compare_table_shows_no_nonzero_gpu_share_as_zero(capsys, tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("model_id,height,width,frames,steps,latency_s,gpu_wh,cpu_wh\n"
                    "animatediff,512,512,16,4,1,1e-4,1\nltx-video,512,704,121,40,1,1,0\n")
    code, out, err = run_cli(capsys, "compare", "--measurements", str(path))
    assert (code, err) == (0, "")
    assert out.splitlines()[2].split()[-1] == "9.9990e-03%"


def test_compare_csv_rows(capsys):
    code, out, _ = run_cli(capsys, "compare", "--format", "csv")
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 8


def test_compare_explicit_measurements(capsys, tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(
        "model_id,height,width,frames,steps,latency_s,gpu_wh,cpu_wh,ram_wh\n"
        "animatediff,512,512,16,4,0.68,0.115,0.016,0.008\n"
        "ltx-video,512,704,121,40,9.7,3.16,0.32,0.19\n"
    )
    code, out, _ = run_cli(capsys, "compare", "--measurements", str(path))
    assert code == 0
    assert "ltx-video" in out
    assert "×" in out


def test_compare_svg_escapes_model_ids(capsys, tmp_path):
    from xml.dom import minidom

    ids = ["a<b&c", 'x>"y"']
    defaults, measurements = tmp_path / "d.json", tmp_path / "m.json"
    defaults.write_text(json.dumps([{"model_id": i, "steps": 4, "height": 512, "width": 512, "frames": 16}
                                    for i in ids]))
    measurements.write_text(json.dumps([{"model_id": i, "height": 512, "width": 512, "frames": 16, "steps": 4,
                                         "latency_s": 1.0, "gpu_wh": wh} for i, wh in zip(ids, (0.5, 5.0))]))
    code, out, err = run_cli(capsys, "compare", "--defaults", str(defaults), "--measurements", str(measurements),
                             "--format", "svg")
    assert (code, err) == (0, "")
    texts = [node.firstChild.data for node in minidom.parseString(out).getElementsByTagName("text")]
    assert [t for t in texts if t in ids] == ids[::-1]  # largest total energy first


# Ids through every site that reads text from a data file, with whether it is accepted: the escaped ones
# must reach each output intact, and each unprintable one be one error line naming the file and the field.
TEXT_IDS = {"a<b&c": True, 'x>"y"': True, "é✓ 1.3B": True, "a\x01b": False, "a\ud800b": False,
            "w\x1b[31m": False}
# Each site: the file it writes, the commands that read it with their formats, and where an error puts the field.
TEXT_SITES = {
    "spec": ("spec.json", {"estimate": ("table", "csv", "json")}, "model_id"),
    "hardware": ("hw.json", {"roofline": ("table", "csv", "json")}, "hardware[0].name"),
    "defaults": ("d.json", {"compare": ("table", "csv", "json", "svg")}, "model defaults[0].model_id"),
    "csv": ("m.csv", {"compare": ("table", "csv", "json", "svg"), "calibrate": ("table", "csv", "json")},
            "row 2: model_id"),
    "json": ("m.json", {"compare": ("table", "csv", "json", "svg"), "calibrate": ("table", "csv", "json")},
             "record 0: model_id"),
}


def json_strings(value) -> list[str]:
    """Every string value in a JSON document."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [s for v in value for s in json_strings(v)]
    return [value] if isinstance(value, str) else []


def output_texts(out: str, fmt: str):
    """The texts of an output, parsed by its format: JSON strings, SVG text nodes or CSV cells; a table as it is."""
    from xml.dom import minidom

    if fmt == "json":
        return json_strings(json.loads(out))
    if fmt == "svg":
        return [node.firstChild.data for node in minidom.parseString(out).getElementsByTagName("text")]
    return [cell for row in csv.reader(io.StringIO(out)) for cell in row] if fmt == "csv" else out


@pytest.mark.parametrize("site", list(TEXT_SITES))
@pytest.mark.parametrize("ident", list(TEXT_IDS), ids=["amp-lt", "gt-quote", "non-ascii", "control", "surrogate",
                                                        "escape"])
def test_text_from_data_files_reaches_each_output_intact_or_is_one_error_line(capsys, tmp_path, wan, h100, site,
                                                                            ident):
    name, commands, field = TEXT_SITES[site]
    path = tmp_path / name
    records = []
    for height, width in ((480, 832), (720, 1280)):  # measured at an efficiency of 0.5, so that calibrate fits
        flops = total_flops(VideoJob(height, width, 81, 50), wan.dit, wan.text_encoder, wan.vae).total
        records.append({"model_id": ident, "height": height, "width": width, "frames": 81, "steps": 50,
                        "latency_s": flops / (0.5 * h100.theta_peak), "gpu_wh": height / 100})
    # A measurement site's defaults name the id only when it is accepted, so that the measurements are read.
    defaults = [{**DEFAULTS_ENTRY, "model_id": ident if site not in ("csv", "json") or TEXT_IDS[ident] else "other"}]
    table = io.StringIO()
    csv.writer(table, lineterminator="\n").writerows([records[0].keys(), *(r.values() for r in records)])
    files = {"d.json": json.dumps(defaults), "m.json": json.dumps(records), "m.csv": table.getvalue()}
    if site == "spec":
        files[name] = json.dumps({**to_dict(wan), "model_id": ident})
    elif site == "hardware":
        files[name] = json.dumps([{**HW_ENTRY, "name": ident}])
    for file, text in files.items():  # a lone surrogate, which UTF-8 cannot hold, is written as its bytes anyway
        (tmp_path / file).write_bytes(text.encode("utf-8", "surrogatepass"))
    argv = {"estimate": ["--model", str(path)], "roofline": ["--hardware", str(path)],
            "compare": ["--defaults", str(tmp_path / "d.json"), "--measurements",
                        str(path if site in ("csv", "json") else tmp_path / "m.json")],
            "calibrate": ["--measurements", str(path)]}
    for command, formats in commands.items():
        for fmt in formats:
            code, out, err = run_cli(capsys, command, *argv[command], "--format", fmt)
            if not TEXT_IDS[ident]:
                assert (code, out) == (1, "") and err.count("\n") == 1
                shown = ident  # in a CSV, as the bytes of a lone surrogate read: not UTF-8, each a surrogate escape
                if site == "csv":
                    shown = ident.encode("utf-8", "surrogatepass").decode("utf-8", "surrogateescape")
                assert err == f"error: {path}: {field} must be printable text, got {shown!r}\n"
            elif command == "calibrate":  # the fit prints no id; its warning names the records' model
                assert (code, err) == (0, f"warning: 2 of 2 records name a model other than {wan.model_id}: "
                                          f"{ident}\n")
                output_texts(out, fmt)  # parses
                assert "0.5" in out  # the efficiency the records were made at
            else:
                assert (code, err) == (0, "")
                texts = output_texts(out, fmt)
                assert ident in texts or (command, fmt) == ("estimate", "csv")  # that CSV is the operator rows alone


def test_output_the_terminal_cannot_encode_is_one_error_line(capsys):
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
    with contextlib.redirect_stdout(stdout):
        code = main(["compare"])  # the table's ratio line holds "≈" and "×"
    err = capsys.readouterr().err
    assert code == 1 and err.count("\n") == 1
    assert err.startswith("error: 'ascii' codec can't encode character ")


# Each subcommand's options: it takes only the flags it reads.
JOB_OPTIONS = {"--model", "--hardware", "--cfg-passes", "--mu", "--height", "--width", "--frames", "--steps",
               "--format", "--out"}
OPTIONS = {
    "estimate": JOB_OPTIONS,
    "sweep": JOB_OPTIONS | {"--axis", "--from", "--to", "--step", "--values"},
    "roofline": {"--hardware", "--format", "--out"},
    "calibrate": {"--model", "--hardware", "--cfg-passes", "--measurements", "--format", "--out"},
    "compare": {"--measurements", "--defaults", "--format", "--out"},
}


def test_each_subcommand_has_its_own_options():
    options = {name: {o for a in cmd._actions for o in a.option_strings} - {"-h", "--help"}
               for name, cmd in subcommands().items()}
    assert options == OPTIONS
    assert sum(map(len, options.values())) == 38


def test_data_dir_shadows_model_defaults(capsys, tmp_path, monkeypatch):
    doc = json.loads(BUNDLED_SPEC.read_text())
    doc["model_id"] = "custom"
    (tmp_path / "custom.json").write_text(json.dumps(doc))
    defaults = {"model_id": "custom", "steps": 20, "height": 480, "width": 832, "frames": 33}
    (tmp_path / "model_defaults.json").write_text(json.dumps([defaults]))
    monkeypatch.setenv("VIDCOST_DATA_DIR", str(tmp_path))
    code, out, _ = run_cli(capsys, "estimate", "--model", "custom", "--format", "json")
    assert code == 0
    assert json.loads(out)["job"] == {"height_px": 480, "width_px": 832, "frames": 33, "steps": 20,
                                      "cfg_passes": 2}

    (tmp_path / "model_defaults.json").write_text("[{}]")
    code, out, err = run_cli(capsys, "estimate", "--model", "custom")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {tmp_path / 'model_defaults.json'}: model defaults[0]: missing keys")


def test_data_dir_shadows_benchmark_measurements(capsys, tmp_path, monkeypatch):
    path = tmp_path / "benchmark_measurements.csv"
    path.write_text("model_id,height,width,frames,steps,latency_s,gpu_wh\n"
                    "animatediff,512,512,16,4,0.68,0.115\n"
                    "ltx-video,512,704,121,40,9.7,3.16\n")
    monkeypatch.setenv("VIDCOST_DATA_DIR", str(tmp_path))
    code, out, _ = run_cli(capsys, "compare", "--format", "json")
    assert code == 0
    assert [row["model_id"] for row in json.loads(out)["rows"]] == ["ltx-video", "animatediff"]

    path.write_text("model_id,height,width,frames,steps,latency_s\nanimatediff,512,512,16,4,-1\n")
    code, out, err = run_cli(capsys, "compare")
    assert (code, out) == (1, "")
    assert err == f"error: {path}: row 2: latency_s must be a positive finite number, got -1.0\n"


@pytest.mark.parametrize("shape", ["object", "list"])
def test_one_entry_file_may_be_a_bare_object_through_every_door(capsys, tmp_path, monkeypatch, shape):
    wrap = (lambda entry: entry) if shape == "object" else (lambda entry: [entry])
    hw_path = tmp_path / "hw.json"
    hw_path.write_text(json.dumps(wrap(HW_ENTRY)))
    for argv in (["roofline", "--hardware", str(hw_path)], ["estimate", "--hardware", str(hw_path)]):
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        assert "toy" in out

    defaults_path = tmp_path / "d.json"
    defaults_path.write_text(json.dumps(wrap(DEFAULTS_ENTRY)))
    measurements = tmp_path / "m.csv"
    measurements.write_text("model_id,height,width,frames,steps,latency_s,gpu_wh\n"
                            "animatediff,512,512,16,4,0.68,0.115\n")
    code, out, _ = run_cli(capsys, "compare", "--defaults", str(defaults_path), "--measurements",
                           str(measurements), "--format", "json")
    assert (code, [row["model_id"] for row in json.loads(out)["rows"]]) == (0, ["animatediff"])

    monkeypatch.setenv("VIDCOST_DATA_DIR", str(tmp_path))
    hw_path.rename(tmp_path / "hardware.json")
    defaults_path.rename(tmp_path / "model_defaults.json")
    code, out, _ = run_cli(capsys, "roofline", "--format", "json")
    assert (code, [row["name"] for row in json.loads(out)]) == (0, ["toy"])
    code, out, _ = run_cli(capsys, "estimate", "--hardware", "toy", "--format", "json")
    assert (code, json.loads(out)["hardware"]) == (0, "toy")


def test_roofline_lists_every_entry_of_a_hardware_file(capsys, tmp_path):
    path = tmp_path / "hw.json"
    path.write_text(json.dumps([HW_ENTRY, {**HW_ENTRY, "name": "toy2"}]))
    code, out, _ = run_cli(capsys, "roofline", "--hardware", str(path), "--format", "json")
    assert (code, [row["name"] for row in json.loads(out)]) == (0, ["toy", "toy2"])

    message = f"error: {path} holds 2 hardware entries ['toy', 'toy2']; a single accelerator needs a file of one\n"
    for argv in (["estimate"], ["sweep", "--axis", "steps", "--from", "1", "--to", "2"],
                 ["calibrate", "--measurements", str(Path(__file__).with_name("golden") / "input-calibrate.csv")]):
        code, out, err = run_cli(capsys, *argv, "--hardware", str(path))
        assert (code, out, err) == (1, "", message)


HUGE_ENERGY_CSV = "model_id,height,width,frames,steps,gpu_wh\nm,480,832,81,50,1e308\nm,720,1280,81,50,78.8\n"
# Inputs at the edges of the float range, each with (values over HW_ENTRY, measurement CSV text or None for the
# bundled one, argv, exit code, text the error or output holds); "{hw}" and "{m}" in argv are those files.
EDGE_CASES = {
    "estimate-mu-5e-324": ({}, None, "estimate --mu 5e-324 --format json", 1, "hardware 'h100' at mu 5e-324: "),
    "sweep-mu-1e-310": ({}, None, "sweep --axis steps --from 1 --to 3 --mu 1e-310 --format csv", 1,
                        "hardware 'h100' at mu 1e-310: "),
    # A theta_peak outside [1, 1e24] is rejected on load, before any arithmetic could under- or overflow.
    "estimate-theta-5e-324": ({"theta_peak": 5e-324}, None, "estimate --hardware {hw} --format json", 1,
                              "hw.json: hardware[0].theta_peak must be between 1 and 1e24, got 5e-324"),
    "sweep-theta-5e-324": ({"theta_peak": 5e-324}, None, "sweep --axis steps --from 1 --to 3 --hardware {hw}", 1,
                           "hw.json: hardware[0].theta_peak must be between 1 and 1e24, got 5e-324"),
    "estimate-theta-1e-308": ({"theta_peak": 1e-308}, None, "estimate --hardware {hw} --format json", 1,
                              "hw.json: hardware[0].theta_peak must be between 1 and 1e24, got 1e-308"),
    "calibrate-theta-1.7e308": ({"theta_peak": 1.7e308, "bandwidth": 1e300}, None,
                                "calibrate --measurements {m} --hardware {hw} --format json", 1,
                                "hw.json: hardware[0].theta_peak must be between 1 and 1e24, got 1.7e+308"),
    "calibrate-theta-5e-324": ({"theta_peak": 5e-324}, None,
                               "calibrate --measurements {m} --hardware {hw} --format json", 1,
                               "hw.json: hardware[0].theta_peak must be between 1 and 1e24, got 5e-324"),
    # The domain's ends: latencies of about 3.9e17 s and 3.9e-7 s, and thresholds of 25 digits.
    "estimate-theta-1": ({"theta_peak": 1}, None, "estimate --hardware {hw} --format json", 0, '"latency_s": 3.93'),
    "estimate-theta-1e24": ({"theta_peak": 1e24, "bandwidth": 1, "p_max": 1e24}, None,
                            "estimate --hardware {hw} --format json", 0, '"latency_s": 3.93'),
    "roofline-theta-1e24": ({"theta_peak": 1e24, "bandwidth": 1, "scalar_bytes": 4}, None,
                            "roofline --hardware {hw} --format json", 0, '"mlp_threshold": 3999999999999999932891136'),
    # In the domain, a latency or its energy still overflows on a huge FLOP total: 2.9e307 at a height of 10**148.
    "estimate-height-10**148": ({"theta_peak": 1}, None, f"estimate --height {10**148} --hardware {{hw}}", 1,
                                "hardware 'toy' at mu 0.456: "),
    "calibrate-gpu-wh-1e308": ({}, HUGE_ENERGY_CSV, "calibrate --measurements {m} --hardware {hw} --format json", 1,
                               ": fitted efficiency nan outside (0, 1]"),
    "roofline-reference-balance-10**400": ({"reference_balance": 10**400}, None,
                                           "roofline --hardware {hw} --format json", 0, '"consistent": false'),
}


@pytest.mark.parametrize("case", list(EDGE_CASES))
def test_float_range_edges_give_an_error_line_or_finite_output(capsys, tmp_path, case):
    hardware, measurements, argv, want_code, want_text = EDGE_CASES[case]
    files = {"{hw}": tmp_path / "hw.json", "{m}": tmp_path / "m.csv"}
    files["{hw}"].write_text(json.dumps([{**HW_ENTRY, **hardware}]))
    files["{m}"].write_text(measurements or BUNDLED_SPEC.with_name("benchmark_measurements.csv").read_text())
    code, out, err = run_cli(capsys, *(str(files.get(arg, arg)) for arg in argv.split()))
    assert code in (0, 1, 2) and "Traceback" not in err
    if code:
        assert err.splitlines()[-1].startswith("error:")
    else:
        assert not re.search(r"\b(?:nan|inf|infinity)\b", out, re.IGNORECASE)
    assert (code, want_text in (err if code else out)) == (want_code, True)


# The hardware domain's edges, inside and out, as a one-entry file holds them; None stands for a NaN.
HARDWARE_NUMBERS = [5e-324, 1e-308, 0.5, 1, 989e12, 1e24, math.nextafter(1e24, math.inf), 1.7e308, 10**400, 0, -1,
                    None, True, "1"]
SCALAR_BYTES = [0, 1, 2, 3, 4, True, 2.0]
CALIBRATION_CSV = Path(__file__).with_name("golden") / "input-calibrate.csv"
GATE_COMMANDS = {"roofline": ["roofline"], "estimate": ["estimate"],
                 "calibrate": ["calibrate", "--measurements", str(CALIBRATION_CSV)]}


def in_domain(field, value) -> bool:
    if field == "scalar_bytes":
        return type(value) is int and value in (1, 2, 4)
    return type(value) in (int, float) and 1 <= value <= 10**24


def json_numbers(value):
    """Every number in a JSON document, bools aside."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [n for v in value for n in json_numbers(v)]
    return [value] if type(value) in (int, float) else []


@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(list(GATE_COMMANDS)), entry=st.fixed_dictionaries({
    "theta_peak": st.sampled_from(HARDWARE_NUMBERS), "bandwidth": st.sampled_from(HARDWARE_NUMBERS),
    "p_max": st.sampled_from(HARDWARE_NUMBERS), "scalar_bytes": st.sampled_from(SCALAR_BYTES)}))
@example(command="roofline", entry={"theta_peak": 1e24, "bandwidth": 1, "p_max": 1e24, "scalar_bytes": 4})
@example(command="estimate", entry={"theta_peak": 1, "bandwidth": 1e24, "p_max": 1e24, "scalar_bytes": 1})
@example(command="calibrate", entry={"theta_peak": 989e12, "bandwidth": 1, "p_max": 1, "scalar_bytes": 2})
@example(command="roofline", entry={"theta_peak": 5e-324, "bandwidth": 989e12, "p_max": 1, "scalar_bytes": 2})
@example(command="roofline", entry={"theta_peak": 1.7e308, "bandwidth": 1e300, "p_max": 1, "scalar_bytes": 2})
def test_hardware_file_gives_an_error_line_naming_its_field_or_finite_output(tmp_path_factory, command, entry):
    path = tmp_path_factory.mktemp("hw") / "hw.json"
    path.write_text(json.dumps([{"name": "toy", **{k: math.nan if v is None else v for k, v in entry.items()}}]))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*GATE_COMMANDS[command], "--hardware", str(path), "--format", "json"])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    bad = [field for field in HardwareSpec._fields if field in entry and not in_domain(field, entry[field])]
    if bad:  # rejected on load, naming the file and the first field out of the domain
        assert (code, out) == (1, "") and err.count("\n") == 1
        assert err.startswith(f"error: {path}: hardware[0].{bad[0]} must be ")
    elif code:  # only a fit can fail on hardware inside the domain: its efficiency leaves (0, 1]
        assert (command, out) == ("calibrate", "")
        assert err.splitlines()[-1].startswith(f"error: {CALIBRATION_CSV}: fitted efficiency ")
    else:
        doc = json.loads(out, parse_constant=lambda constant: pytest.fail(f"{constant} in the output"))
        if command == "roofline":  # no threshold of 300 digits: the balance is at most 1e24
            assert max(len(repr(abs(n)).split("e")[0].replace(".", "")) for n in json_numbers(doc)) <= 25


# --- every data file a path names is read one way ---

def measurement_rows(path) -> list[dict]:
    """The rows of a measurement CSV as JSON records: an empty cell is None, a number cell its number."""
    with open(path, newline="") as fh:
        return [{column: None if not cell else cell if column == "model_id" else json.loads(cell)
                 for column, cell in row.items()} for row in csv.DictReader(fh)]


CALIBRATION_ROWS = measurement_rows(CALIBRATION_CSV)
BUNDLED_MEASUREMENTS = BUNDLED_SPEC.with_name("benchmark_measurements.csv")
BUNDLED_DEFAULTS = BUNDLED_SPEC.with_name("model_defaults.json")

# Each kind of data file a path names: its name, the command that reads it (with {path} for it), its bytes,
# and the first text field in it, as a rejection names it, with its value.
DATA_FILES = {
    "spec": ("spec.json", "estimate --model {path}", BUNDLED_SPEC.read_bytes(), "model_id", "wan2.1-t2v-1.3b"),
    "hardware": ("hw.json", "roofline --hardware {path}", json.dumps([HW_ENTRY]).encode(), "hardware[0].name", "toy"),
    "defaults": ("d.json", "compare --defaults {path}", BUNDLED_DEFAULTS.read_bytes(), "model defaults[0].model_id",
                 "animatediff"),
    "csv": ("m.csv", "calibrate --measurements {path}", CALIBRATION_CSV.read_bytes(), "row 2: model_id",
            "wan2.1-t2v-1.3b"),
    "json": ("m.json", "calibrate --measurements {path}", json.dumps(CALIBRATION_ROWS).encode(), "record 0: model_id",
             "wan2.1-t2v-1.3b"),
}


@pytest.mark.parametrize("kind", list(DATA_FILES))
def test_every_data_file_may_start_with_a_byte_order_mark_and_names_a_byte_that_is_not_utf8(capsys, tmp_path, kind):
    name, command, text, field, ident = DATA_FILES[kind]
    path = tmp_path / name
    argv = command.format(path=path).split()
    path.write_bytes(text)
    plain = run_cli(capsys, *argv)
    assert plain[0] == 0
    path.write_bytes(b"\xef\xbb\xbf" + text)  # as a spreadsheet's "CSV UTF-8" export starts
    assert run_cli(capsys, *argv) == plain
    # A byte that is not UTF-8 stays in the text as a lone surrogate, which the field's check rejects.
    path.write_bytes(text.replace(ident.encode(), ident.encode() + b"\xff", 1))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {path}: {field} must be printable text, got {ident + chr(0xdcff)!r}\n")


# --- the data-file gate: each command on a mutated copy of a file it reads ---

class Pairs(list):
    """A JSON object as its [key, value] pairs, so that a key may repeat."""


def as_pairs(value):
    if isinstance(value, dict):
        return Pairs([key, as_pairs(v)] for key, v in value.items())
    return [as_pairs(v) for v in value] if isinstance(value, list) else value


def objects(value) -> list:
    """Every object in a JSON value, outermost first."""
    if isinstance(value, Pairs):
        return [value, *(o for _, v in value for o in objects(v))]
    return [o for v in value for o in objects(v)] if isinstance(value, list) else []


def json_text(value) -> str:
    if isinstance(value, Pairs):
        return "{" + ", ".join(f"{json.dumps(key)}: {json_text(v)}" for key, v in value) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(json_text, value)) + "]"
    return json.dumps(value)


def csv_text(rows: list) -> str:
    """Records of pairs as a CSV whose header is the first one's keys: None is an empty cell, a non-string its JSON."""
    table = io.StringIO()
    csv.writer(table, lineterminator="\n").writerows([[key for key, _ in rows[0]], *(
        [v if isinstance(v, str) else "" if v is None else json.dumps(v) for _, v in row] for row in rows)])
    return table.getvalue()


# Each gated command: the file it reads that is mutated, that file's document, and the command (with {path} for the
# file and {fmt} for a format compare draws). Every other file it reads is bundled.
SPEC_DOCUMENT = json.loads(BUNDLED_SPEC.read_text())
FILE_GATE = {
    "estimate": ("spec.json", SPEC_DOCUMENT, "estimate --model {path} --format json"),
    "sweep": ("spec.json", SPEC_DOCUMENT, "sweep --axis frames --from 1 --to 3 --model {path} --format json"),
    "compare-defaults": ("d.json", json.loads(BUNDLED_DEFAULTS.read_text()), "compare --defaults {path} --format {fmt}"),
    "calibrate-csv": ("m.csv", CALIBRATION_ROWS, "calibrate --measurements {path} --format json"),
    "calibrate-json": ("m.json", CALIBRATION_ROWS, "calibrate --measurements {path} --format json"),
    "compare-csv": ("m.csv", measurement_rows(BUNDLED_MEASUREMENTS), "compare --measurements {path} --format {fmt}"),
    "compare-json": ("m.json", measurement_rows(BUNDLED_MEASUREMENTS), "compare --measurements {path} --format {fmt}"),
}
GATE_VALUES = [0, -1, 2.5, "x", None, True, 10**400, sys.float_info.max, [], {}]
# A mutation: (kind, an object's index or an offset's percentile, a key's index, a value); an index is taken modulo
# the count.
MUTATIONS = st.tuples(st.sampled_from(["drop", "repeat", "unknown", "value", "bom", "byte-in-string", "byte-outside"]),
                      st.integers(0, 99), st.integers(0, 99), st.sampled_from(GATE_VALUES))


def mutated(document, csv_file: bool, mutation) -> bytes:
    """The bytes of a file holding ``document`` (records of one CSV, or a JSON value) with one ``mutation``."""
    kind, at, key, value = mutation
    document = as_pairs(document)
    every = objects(document)
    chosen = every[at % len(every)]
    # A CSV's columns are dropped, repeated or added in every record, so that its rows keep the header's width.
    for obj in (document if csv_file and kind != "value" else [chosen]):
        i = key % len(obj)
        if kind == "drop":
            del obj[i]
        elif kind == "repeat":
            obj.insert(i + 1, list(obj[i]))
        elif kind == "unknown":
            obj.append(["unknown_key", 1])
        elif kind == "value":
            obj[i] = [obj[i][0], value]
    text = (csv_text(document) if csv_file else json_text(document)).encode()
    if kind == "bom":
        return b"\xef\xbb\xbf" + text
    if kind.startswith("byte"):  # at the at-th percentile of the offsets inside quoted strings, or outside them
        offsets = [[], []]
        quoted = False
        for i, byte in enumerate(text):
            offsets[quoted].append(i)
            quoted ^= byte == ord('"')
        choices = offsets[kind == "byte-in-string"] or offsets[0]  # a CSV here quotes no cell
        i = choices[at * len(choices) // 100]
        return text[:i] + b"\xff" + text[i:]
    return text


@settings(max_examples=120, deadline=None)
@given(command=st.sampled_from(list(FILE_GATE)), fmt=st.sampled_from(["json", "svg"]), mutation=MUTATIONS)
@example(command="estimate", fmt="json", mutation=("byte-in-string", 1, 0, 0))
@example(command="compare-json", fmt="svg", mutation=("byte-outside", 5, 0, 0))
@example(command="calibrate-csv", fmt="json", mutation=("value", 3, 5, 10**400))
@example(command="sweep", fmt="json", mutation=("value", 1, 1, 10**400))
@example(command="compare-defaults", fmt="svg", mutation=("repeat", 2, 0, 0))
@example(command="compare-csv", fmt="json", mutation=("value", 0, 7, sys.float_info.max))
def test_data_file_gives_an_error_line_naming_it_or_finite_output(tmp_path_factory, command, fmt, mutation):
    name, document, argv = FILE_GATE[command]
    path = tmp_path_factory.mktemp("gate") / name
    path.write_bytes(mutated(document, name.endswith(".csv"), mutation))
    # Written as a terminal would take them, strict UTF-8: a lone surrogate in any output line fails here.
    out, err = (io.TextIOWrapper(io.BytesIO(), encoding="utf-8") for _ in range(2))
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv.format(path=path, fmt=fmt).split())
    out.flush(), err.flush()
    out, err = out.buffer.getvalue().decode(), err.buffer.getvalue().decode()
    assert code in (0, 1, 2)
    if code:
        # The file named: the mutated one, or the measurements a mutated defaults file leaves unmatched.
        named = (path, BUNDLED_MEASUREMENTS) if command == "compare-defaults" else (path,)
        line = err.splitlines()[-1]
        assert out == "" and line.startswith(tuple(f"error: {p}: " for p in named)), line
    elif "{fmt}" in argv and fmt == "svg":
        from xml.dom import minidom

        minidom.parseString(out)
    else:
        json.loads(out, parse_constant=lambda constant: pytest.fail(f"{constant} in the output"))
