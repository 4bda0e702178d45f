"""End-to-end CLI behavior through main()."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vidcost

from vidcost import VideoJob, total_flops
from vidcost.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_estimate_rejects_zero_steps(capsys):
    with pytest.raises(SystemExit) as info:
        main(["estimate", "--steps", "0"])
    assert info.value.code == 2
    assert "--steps" in capsys.readouterr().err


def test_estimate_rejects_bad_mu(capsys):
    with pytest.raises(SystemExit) as info:
        main(["estimate", "--mu", "1.5"])
    assert info.value.code == 2
    assert "--mu" in capsys.readouterr().err


def test_estimate_svg_unsupported(capsys):
    code, _, err = run_cli(capsys, "estimate", "--format", "svg")
    assert code == 2
    assert "svg" in err


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


def test_sweep_resolution_needs_values(capsys):
    code, _, err = run_cli(capsys, "sweep", "--axis", "resolution", "--from", "1", "--to", "2")
    assert code == 1
    assert "resolution" in err


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


def test_roofline_unknown_hardware(capsys):
    code, _, err = run_cli(capsys, "roofline", "--hardware", "cray-1")
    assert code == 1
    assert "cray-1" in err


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


def test_calibrate_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "calibrate", "--measurements", str(tmp_path / "nope.csv"))
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("suffix, text", [
    (".csv", "model_id,height,width,frames,steps,latency_s\n"
             "a,720,1280,81,50,410\n"
             "a,720,1280,81,25,nan\n"),
    (".json", json.dumps([
        {"model_id": "a", "height": 720, "width": 1280, "frames": 81, "steps": 50, "latency_s": 410.0},
        {"model_id": "a", "height": 720, "width": 1280, "frames": 81, "steps": 25, "gpu_wh": float("inf")},
    ])),
], ids=["csv", "json"])
def test_calibrate_rejects_non_finite(capsys, tmp_path, suffix, text):
    path = tmp_path / f"m{suffix}"
    path.write_text(text)
    code, out, err = run_cli(capsys, "calibrate", "--measurements", str(path))
    assert code == 1
    assert out == ""
    row = "row 3" if suffix == ".csv" else "record 1"
    assert err.startswith(f"error: {row}: ")
    assert "must be finite" in err
    assert err.count("\n") == 1


def test_runtime_imports_stdlib_only():
    src = str(Path(vidcost.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, vidcost, vidcost.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_compare_bundled(capsys):
    code, out, _ = run_cli(capsys, "compare")
    assert code == 0
    assert "wan2.1-t2v-14b" in out
    assert "415.1" in out
    assert "≈ 2986×" in out


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
