"""Sweeps, cross-model comparisons, and deterministic serialization."""

import csv
import io
import json
import re

import numpy as np
import pytest

from vidcost import (
    MeasurementRecord,
    ModelDefaults,
    SweepResult,
    SweepSpec,
    VideoJob,
    compare_models,
    emit,
    estimate_cost,
    load_bundled_measurements,
    load_model_defaults,
    run_sweep,
)
from vidcost.specs import SWEEP_AXES

FIXED = VideoJob(720, 1280, 81, 50, 2)


def steps_sweep(h100, values=(1, 2, 3), mu=0.456):
    return SweepSpec(axis="steps", values=values, fixed=FIXED, mu=mu, hardware=h100)


def test_sweep_spec_validation(h100):
    with pytest.raises(ValueError):
        SweepSpec(axis="bogus", values=(1, 2), fixed=FIXED, mu=0.5, hardware=h100)
    with pytest.raises(ValueError):
        SweepSpec(axis="steps", values=(), fixed=FIXED, mu=0.5, hardware=h100)
    with pytest.raises(ValueError):
        SweepSpec(axis="steps", values=(2, 2), fixed=FIXED, mu=0.5, hardware=h100)
    with pytest.raises(ValueError):
        SweepSpec(axis="resolution", values=((512, 512), (256, 256)),
                  fixed=FIXED, mu=0.5, hardware=h100)


def test_each_sweep_axis_sets_the_job_fields_of_its_table_entry(h100):
    values = {"resolution": ((480, 832), (720, 1280)), "frames": (5, 9), "steps": (3, 4)}
    assert values.keys() == SWEEP_AXES.keys()
    for axis, fields in SWEEP_AXES.items():
        spec = SweepSpec(axis=axis, values=values[axis], fixed=FIXED, mu=0.5, hardware=h100)
        for value in spec.values:
            job = spec.job_for(value)
            assert tuple(getattr(job, f) for f in fields) == (value if axis == "resolution" else (value,))
            assert all(getattr(job, f) == getattr(FIXED, f) for f in VideoJob._fields if f not in fields)
    # A value of another shape is rejected, not truncated or applied to one field of the pair.
    resolution = SweepSpec(axis="resolution", values=values["resolution"], fixed=FIXED, mu=0.5, hardware=h100)
    for value in (720, (480, 832, 7)):
        with pytest.raises(ValueError, match=rf"^resolution values must be \(height, width\) pairs, got "):
            resolution.job_for(value)


@pytest.mark.parametrize("mu", [0.0, -0.5, 1.5, float("nan")])
def test_sweep_with_a_bad_mu_fails_in_run_sweep(wan, h100, mu):
    # mu is checked once, where the latency uses it.
    spec = SweepSpec(axis="steps", values=(1, 2), fixed=FIXED, mu=mu, hardware=h100)
    with pytest.raises(ValueError, match=rf"^mu must be in \(0, 1\], got {mu}$"):
        run_sweep(spec, wan)


@pytest.mark.parametrize("axis, values, message", [
    ("frames", (80.7, 81.2), "frames must be an int, got 80.7"),
    ("steps", (True, 2), "steps must be an int, got True"),
    ("resolution", ((720.5, 1280), (1080, 1920)), "height_px must be an int, got 720.5"),
    ("resolution", (5,), "resolution values must be (height, width) pairs, got 5"),
    ("resolution", ((1, 2, 3),), "resolution values must be (height, width) pairs, got (1, 2, 3)"),
    ("resolution", ((720, 1280), (16,)), "resolution values must be (height, width) pairs, got (16,)"),
    ("frames", ((5, 6),), "frames must be an int, got (5, 6)"),
    ("frames", (0, 1), "frames must be at least 1"),
], ids=["float", "bool", "fractional-resolution", "bare-int", "triple", "single", "pair-on-frames", "zero-frames"])
def test_sweep_spec_rejects_non_int_values(h100, axis, values, message):
    # Truncating would cost a job other than the one asked for. Each value is checked, when the spec is built,
    # by the job it sets, and worded by VideoJob.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SweepSpec(axis=axis, values=values, fixed=FIXED, mu=0.5, hardware=h100)


def test_sweep_spec_builds_its_jobs_once_outside_its_fields(wan, h100):
    spec = SweepSpec(axis="resolution", values=[[480, 832], (720, 1280)], fixed=FIXED, mu=0.456, hardware=h100)
    assert spec.values == ((480, 832), (720, 1280))
    assert spec.jobs == tuple(map(spec.job_for, spec.values)) == (FIXED.replace(height_px=480, width_px=832), FIXED)
    assert "jobs" not in spec._fields and spec == spec.replace()
    assert [p.cost for p in run_sweep(spec, wan)] == [estimate_cost(job, wan, h100, 0.456) for job in spec.jobs]


def test_steps_sweep_arithmetic_progression(wan, h100):
    result = run_sweep(steps_sweep(h100), wan)
    lat = [p.cost.latency_s for p in result]
    assert lat[2] - lat[1] == pytest.approx(lat[1] - lat[0], rel=1e-12)
    assert len(result) == 3
    assert result[0].tokens == 75_600


def test_steps_sweep_linearity_r_squared(wan, h100):
    values = tuple(range(1, 101))
    result = run_sweep(steps_sweep(h100, values=values), wan)
    x = np.array(values, dtype=float)
    y = np.array([p.cost.latency_s for p in result])
    slope, intercept = np.polyfit(x, y, 1)
    residuals = y - (slope * x + intercept)
    r_squared = 1.0 - residuals.var() / y.var()
    assert abs(r_squared - 1.0) < 1e-12


def test_frames_sweep_second_differences(wan, h100):
    values = tuple(range(4, 101, 4))
    spec = SweepSpec(axis="frames", values=values, fixed=FIXED, mu=0.456, hardware=h100)
    result = run_sweep(spec, wan)
    totals = [p.breakdown.total for p in result]
    second = [totals[i + 2] - 2 * totals[i + 1] + totals[i] for i in range(len(totals) - 2)]
    assert all(d > 0 for d in second)
    assert len(set(second)) == 1
    delta_tokens = result[1].tokens - result[0].tokens
    g_s = FIXED.cfg_passes * FIXED.steps
    assert second[0] == g_s * 8 * wan.dit.layers * wan.dit.hidden * delta_tokens**2
    # Energy tracks FLOPs, so its second differences are positive and settle
    # on the same constant scaled to watt-hours.
    energies = [p.cost.energy_wh for p in result]
    energy_second = np.diff(np.array(energies), n=2)
    assert (energy_second > 0).all()
    assert energy_second.max() == pytest.approx(energy_second.min(), rel=1e-9)


def test_resolution_sweep_monotone(wan, h100):
    spec = SweepSpec(axis="resolution",
                     values=((256, 256), (480, 720), (720, 1280), (1080, 1920)),
                     fixed=FIXED, mu=0.456, hardware=h100)
    result = run_sweep(spec, wan)
    totals = [p.breakdown.total for p in result]
    assert all(b > a for a, b in zip(totals, totals[1:]))
    assert result[0].axis_value == (256, 256)


def test_sweep_prorating_conservation(wan, h100):
    result = run_sweep(steps_sweep(h100, values=(5, 10, 20)), wan)
    for point in result:
        assert sum(point.cost.operator_latency_s.values()) \
            == pytest.approx(point.cost.latency_s, rel=1e-9)
        assert sum(point.cost.operator_energy_wh.values()) \
            == pytest.approx(point.cost.energy_wh, rel=1e-9)


def test_model_defaults_bundled():
    defaults = {d.model_id: d for d in load_model_defaults()}
    assert len(defaults) == 7
    assert defaults["wan2.1-t2v-1.3b"] == ModelDefaults(
        model_id="wan2.1-t2v-1.3b", steps=50, height=720, width=1280, frames=81)
    assert defaults["animatediff"] == ModelDefaults(
        model_id="animatediff", steps=4, height=512, width=512, frames=16)
    assert defaults["mochi-1-preview"].steps == 64
    assert defaults["ltx-video"].frames == 121
    assert defaults["cogvideox-5b"].height == 480


def test_compare_models_bundled():
    report = compare_models(load_model_defaults(), load_bundled_measurements())
    assert [r.model_id for r in report.rows][:2] == ["wan2.1-t2v-14b", "wan2.1-t2v-1.3b"]
    assert report.rows[-1].model_id == "animatediff"
    assert report.rows[0].total_wh == pytest.approx(415.1, abs=1e-9)
    assert report.rows[-1].total_wh == pytest.approx(0.139, abs=1e-9)
    ratio = report.ratios[("wan2.1-t2v-14b", "animatediff")]
    assert ratio == pytest.approx(2986.33, abs=0.01)
    for row in report.rows:
        assert row.gpu_share + row.cpu_share + row.ram_share == pytest.approx(1.0, abs=1e-9)
        assert row.gpu_share > 0.80


def test_compare_models_single_row():
    defaults = load_model_defaults()
    records = [r for r in load_bundled_measurements() if r.model_id == "animatediff"]
    report = compare_models(defaults, records)
    assert len(report.rows) == 1
    assert report.ratios == {}


def test_compare_models_unmatched_id():
    record = MeasurementRecord(model_id="mystery", height_px=512, width_px=512,
                               frames=16, steps=4, latency_s=1.0, gpu_wh=0.1)
    with pytest.raises(ValueError, match="mystery"):
        compare_models(load_model_defaults(), [record])


@pytest.mark.parametrize("field", ["latency_std_s", "gpu_wh_std", "cpu_wh", "ram_wh"])
def test_compare_models_gets_no_none_energy(field):
    # Rejected when the record is built, not as a TypeError when compare_models sums the energies.
    with pytest.raises(ValueError, match=f"^{field} must be a non-negative finite number, got None$"):
        compare_models(load_model_defaults(), [MeasurementRecord("wan2.1-t2v-1.3b", 720, 1280, 81, 50, latency_s=1.0,
                                                                 gpu_wh=1.0, **{field: None})])


@pytest.mark.parametrize("energies, message", [
    ([(1e308, 1e308)], "record 0: gpu_wh + cpu_wh + ram_wh is too large for a float"),
    ([(1.7e308, 0.0), (1e-10, 0.0)], "the total energy ratio wan2.1-t2v-1.3b / animatediff is too large for a float"),
], ids=["total", "ratio"])
def test_compare_models_rejects_a_total_or_ratio_no_float_holds(energies, message):
    records = [MeasurementRecord(model_id, 512, 512, 16, 4, latency_s=1.0, gpu_wh=gpu, cpu_wh=cpu)
               for model_id, (gpu, cpu) in zip(("wan2.1-t2v-1.3b", "animatediff"), energies)]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        compare_models(load_model_defaults(), records)


def test_emit_sweep_csv_columns(wan, h100):
    result = run_sweep(steps_sweep(h100), wan)
    payload = emit(result, "csv").decode("utf-8")
    rows = list(csv.reader(io.StringIO(payload)))
    assert rows[0] == ["axis_value", "tokens", "flops_text", "flops_vae_conv", "flops_vae_mid_attn",
                       "flops_self_attn", "flops_cross_attn", "flops_mlp", "flops_timestep", "flops_total",
                       "latency_s", "energy_wh"]
    assert len(rows) == 4
    assert rows[1][0] == "1"
    assert int(rows[1][9]) == sum(int(v) for v in rows[1][2:9])


def test_emit_empty_sweep_header_only(wan, h100):
    empty = SweepResult(spec=steps_sweep(h100), points=())
    payload = emit(empty, "csv").decode("utf-8")
    assert payload.splitlines() == [
        "axis_value,tokens,flops_text,flops_vae_conv,flops_vae_mid_attn,flops_self_attn,"
        "flops_cross_attn,flops_mlp,flops_timestep,flops_total,latency_s,energy_wh"
    ]


def test_emit_empty_sweep_svg_is_the_chart_frame(h100):
    from xml.dom import minidom

    doc = minidom.parseString(emit(SweepResult(spec=steps_sweep(h100), points=()), "svg"))
    assert [node.firstChild.data for node in doc.getElementsByTagName("text")] == ["energy by operator vs steps"]
    assert len(doc.getElementsByTagName("line")) == 2  # the two axes


def test_emit_deterministic(wan, h100):
    result = run_sweep(steps_sweep(h100, values=(1, 5, 9)), wan)
    report = compare_models(load_model_defaults(), load_bundled_measurements())
    for obj in (result, report):
        for fmt in ("table", "csv", "json", "svg"):
            assert emit(obj, fmt) == emit(obj, fmt)


def test_emit_sweep_json_schema(wan, h100):
    result = run_sweep(steps_sweep(h100), wan)
    doc = json.loads(emit(result, "json"))
    assert doc["axis"] == "steps"
    assert len(doc["points"]) == 3
    point = doc["points"][0]
    assert set(point["flops"]) == {"text", "vae_conv", "vae_mid_attn", "self_attn",
                                   "cross_attn", "mlp", "timestep", "total"}
    assert point["latency_s"] > 0


def test_emit_comparison_csv(wan):
    report = compare_models(load_model_defaults(), load_bundled_measurements())
    rows = list(csv.reader(io.StringIO(emit(report, "csv").decode("utf-8"))))
    assert rows[0][0] == "model_id"
    assert len(rows) == 8
    assert rows[1][0] == "wan2.1-t2v-14b"


def test_emit_comparison_json_ratio():
    report = compare_models(load_model_defaults(), load_bundled_measurements())
    doc = json.loads(emit(report, "json"))
    assert doc["ratios"][0]["numerator"] == "wan2.1-t2v-14b"
    assert doc["ratios"][0]["ratio"] == pytest.approx(2986.33, abs=0.01)


def test_emit_svg_smoke(wan, h100):
    result = run_sweep(steps_sweep(h100), wan)
    svg = emit(result, "svg").decode("utf-8")
    assert svg.startswith("<svg")
    assert "polygon" in svg
    report = compare_models(load_model_defaults(), load_bundled_measurements())
    bar = emit(report, "svg").decode("utf-8")
    assert bar.startswith("<svg")
    assert "rect" in bar


def test_emit_unsupported_pairing(wan, h100):
    result = run_sweep(steps_sweep(h100), wan)
    with pytest.raises(ValueError, match="unsupported"):
        emit(result, "xml")
    with pytest.raises(ValueError, match="unsupported"):
        emit("not a report", "csv")
