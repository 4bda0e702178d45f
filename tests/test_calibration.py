"""Efficiency fitting, error metrics, and measurement ingestion."""

import json
import math
import random
import statistics

import numpy as np
import pytest

from vidcost import (
    CalibrationRangeError,
    MeasurementRecord,
    VideoJob,
    fit_mu,
    load_bundled_measurements,
    load_measurements,
    mean_percentage_error,
    total_flops,
    validate,
)


def synthetic_records(wan, h100, mu, steps_values=(10, 25, 50, 100, 150), intercept=0.0, noise=None):
    """Records whose latencies follow the compute-bound model at a known mu."""
    records = []
    for i, steps in enumerate(steps_values):
        job = VideoJob(720, 1280, 81, steps, 2)
        flops = total_flops(job, wan.dit, wan.text_encoder, wan.vae).total
        lat = flops / (mu * h100.theta_peak) + intercept
        if noise is not None:
            lat *= 1.0 + noise[i]
        records.append(MeasurementRecord(
            model_id="synthetic", height_px=720, width_px=1280, frames=81,
            steps=steps, latency_s=lat,
        ))
    return records


def test_record_validation():
    with pytest.raises(ValueError):
        MeasurementRecord(model_id="x", height_px=720, width_px=1280, frames=81, steps=50)
    with pytest.raises(ValueError):
        MeasurementRecord(model_id="x", height_px=720, width_px=1280, frames=81,
                          steps=50, latency_s=-1.0)
    with pytest.raises(ValueError):
        MeasurementRecord(model_id="x", height_px=720, width_px=1280, frames=81,
                          steps=50, latency_s=1.0, cpu_wh=-0.1)
    valid = dict(model_id="x", height_px=720, width_px=1280, frames=81, steps=50,
                 latency_s=1.0, latency_std_s=0.0, gpu_wh=1.0, gpu_wh_std=0.0, cpu_wh=0.0, ram_wh=0.0)
    for name in valid.keys() - {"model_id"}:
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                MeasurementRecord(**{**valid, name: bad})


def test_mpe_examples():
    assert mean_percentage_error([110.0], [100.0]) == pytest.approx(10.0)
    assert mean_percentage_error([5.0, 7.0], [5.0, 7.0]) == 0.0
    assert mean_percentage_error([90.0, 120.0], [100.0, 100.0]) == pytest.approx(15.0)


def test_mpe_errors():
    with pytest.raises(ValueError):
        mean_percentage_error([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        mean_percentage_error([], [])
    with pytest.raises(ValueError):
        mean_percentage_error([1.0], [0.0])


def test_mpe_invariances():
    rng = np.random.default_rng(7)
    pred = list(rng.uniform(50, 150, size=12))
    meas = list(rng.uniform(50, 150, size=12))
    base = mean_percentage_error(pred, meas)
    order = rng.permutation(12)
    assert mean_percentage_error([pred[i] for i in order], [meas[i] for i in order]) \
        == pytest.approx(base, rel=1e-12)
    assert mean_percentage_error([3.5 * p for p in pred], [3.5 * m for m in meas]) \
        == pytest.approx(base, rel=1e-12)


@pytest.mark.parametrize("mu", [0.3, 0.456, 0.9])
def test_fit_mu_noiseless(wan, h100, mu):
    records = synthetic_records(wan, h100, mu)
    result = fit_mu(records, wan.dit, wan.text_encoder, wan.vae, h100)
    assert result.mu == pytest.approx(mu, rel=1e-9)
    assert result.r_squared == pytest.approx(1.0, abs=1e-12)
    assert result.intercept_s == pytest.approx(0.0, abs=1e-6)


def test_fit_mu_with_noise(wan, h100):
    rng = np.random.default_rng(1234)
    noise = rng.normal(0.0, 0.01, size=20)
    steps = tuple(range(10, 210, 10))
    records = synthetic_records(wan, h100, 0.456, steps_values=steps, noise=noise)
    result = fit_mu(records, wan.dit, wan.text_encoder, wan.vae, h100)
    assert result.mu == pytest.approx(0.456, rel=0.02)
    assert result.r_squared > 0.99


def test_fit_mu_recovers_intercept(wan, h100):
    records = synthetic_records(wan, h100, 0.5, intercept=3.0)
    result = fit_mu(records, wan.dit, wan.text_encoder, wan.vae, h100)
    assert result.mu == pytest.approx(0.5, rel=1e-9)
    assert result.intercept_s == pytest.approx(3.0, rel=1e-6)


def test_fit_mu_preconditions(wan, h100):
    records = synthetic_records(wan, h100, 0.5)
    with pytest.raises(ValueError):
        fit_mu(records[:1], wan.dit, wan.text_encoder, wan.vae, h100)
    same = [records[0], records[0]]
    with pytest.raises(ValueError, match="degenerate"):
        fit_mu(same, wan.dit, wan.text_encoder, wan.vae, h100)


def test_fit_mu_out_of_range(wan, h100):
    # Latencies half the peak-rate prediction imply mu = 2.
    fast = synthetic_records(wan, h100, 0.5)
    fast = [MeasurementRecord(model_id=r.model_id, height_px=r.height_px, width_px=r.width_px,
                              frames=r.frames, steps=r.steps, latency_s=r.latency_s / 4)
            for r in fast]
    with pytest.raises(CalibrationRangeError) as info:
        fit_mu(fast, wan.dit, wan.text_encoder, wan.vae, h100)
    assert info.value.mu == pytest.approx(2.0, rel=1e-9)
    assert type(info.value.mu) is float
    assert "np.float64(" not in str(info.value)


def test_fit_mu_matches_stdlib_reference(wan, h100):
    rng = random.Random(2024)
    records, x, y = [], [], []
    for i in range(40):
        job = VideoJob(rng.choice((480, 720)), rng.choice((832, 1280)), rng.randrange(1, 122, 4),
                       rng.randrange(5, 101), 2)
        flops = total_flops(job, wan.dit, wan.text_encoder, wan.vae).total
        lat = (flops / (0.456 * h100.theta_peak) + 4.0) * (1.0 + rng.gauss(0.0, 0.03))
        energy_only = i % 3 == 0
        record = MeasurementRecord(model_id="seeded", height_px=job.height_px, width_px=job.width_px,
                                   frames=job.frames, steps=job.steps,
                                   latency_s=None if energy_only else lat,
                                   gpu_wh=h100.p_max * lat / 3600.0 if energy_only else None)
        records.append(record)
        x.append(flops / h100.theta_peak)
        y.append(record.resolved_latency(h100))
    slope, intercept = statistics.linear_regression(x, y)
    result = fit_mu(records, wan.dit, wan.text_encoder, wan.vae, h100)
    assert 1.0 / result.mu == pytest.approx(slope, rel=1e-12)
    assert result.intercept_s == pytest.approx(intercept, rel=1e-12)
    assert result.r_squared == pytest.approx(statistics.correlation(x, y) ** 2, rel=1e-12)
    assert [type(v) for v in (result.mu, result.intercept_s, result.r_squared)] == [float] * 3


def test_fit_mu_scale_equivariance(wan, h100):
    records = synthetic_records(wan, h100, 0.8)
    base = fit_mu(records, wan.dit, wan.text_encoder, wan.vae, h100)
    scaled = [MeasurementRecord(model_id=r.model_id, height_px=r.height_px, width_px=r.width_px,
                                frames=r.frames, steps=r.steps, latency_s=2.5 * r.latency_s)
              for r in records]
    result = fit_mu(scaled, wan.dit, wan.text_encoder, wan.vae, h100)
    assert result.mu == pytest.approx(base.mu / 2.5, rel=1e-12)


def test_fit_mu_idempotent(wan, h100):
    rng = np.random.default_rng(99)
    noisy = synthetic_records(wan, h100, 0.456, noise=rng.normal(0, 0.02, size=5))
    first = fit_mu(noisy, wan.dit, wan.text_encoder, wan.vae, h100)
    refit_records = synthetic_records(wan, h100, first.mu)
    second = fit_mu(refit_records, wan.dit, wan.text_encoder, wan.vae, h100)
    assert second.mu == pytest.approx(first.mu, rel=1e-9)


def test_fit_mu_from_energy_only_records(wan, h100):
    records = synthetic_records(wan, h100, 0.456)
    energy_only = [MeasurementRecord(
        model_id=r.model_id, height_px=r.height_px, width_px=r.width_px,
        frames=r.frames, steps=r.steps,
        gpu_wh=h100.p_max * r.latency_s / 3600.0,
    ) for r in records]
    result = fit_mu(energy_only, wan.dit, wan.text_encoder, wan.vae, h100)
    assert result.mu == pytest.approx(0.456, rel=1e-9)


def test_validate_exact_predictions(wan, h100):
    records = synthetic_records(wan, h100, 0.456)
    report = validate(records, 0.456, wan.dit, wan.text_encoder, wan.vae, h100, axis="steps")
    assert report.axis == "steps"
    assert report.mpe_latency_pct == pytest.approx(0.0, abs=1e-9)
    assert report.mpe_energy_pct == pytest.approx(0.0, abs=1e-9)
    assert len(report.per_point_errors) == len(records)


def test_validate_constant_bias(wan, h100):
    records = synthetic_records(wan, h100, 0.456)
    biased = [MeasurementRecord(model_id=r.model_id, height_px=r.height_px, width_px=r.width_px,
                                frames=r.frames, steps=r.steps, latency_s=r.latency_s / 1.019)
              for r in records]
    report = validate(biased, 0.456, wan.dit, wan.text_encoder, wan.vae, h100)
    assert report.mpe_latency_pct == pytest.approx(1.9, abs=0.01)
    assert report.mpe_energy_pct == pytest.approx(1.9, abs=0.01)


def test_validate_empty_errors(wan, h100):
    with pytest.raises(ValueError):
        validate([], 0.456, wan.dit, wan.text_encoder, wan.vae, h100)


def test_csv_round_trip(tmp_path, wan, h100):
    path = tmp_path / "m.csv"
    path.write_text(
        "model_id,height,width,frames,steps,latency_s,latency_std_s,gpu_wh,gpu_wh_std,cpu_wh,ram_wh\n"
        "demo,720,1280,81,50,410,0.5,78.8,0.1,7.4,4.3\n"
        "demo,720,1280,81,25,205,,,,,\n"
    )
    records = load_measurements(path)
    assert len(records) == 2
    assert records[0].gpu_wh == 78.8
    assert records[1].gpu_wh is None
    assert records[1].latency_std_s == 0.0


def test_csv_missing_optional_columns(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(
        "model_id,height,width,frames,steps,latency_s\n"
        "demo,720,1280,81,50,410\n"
    )
    records = load_measurements(path)
    assert records[0].latency_s == 410
    assert records[0].cpu_wh == 0.0


def test_csv_unknown_column_rejected(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("model_id,height,width,frames,steps,latency_s,wattage\ndemo,1,1,1,1,1,5\n")
    with pytest.raises(ValueError, match="unknown columns"):
        load_measurements(path)


def test_csv_missing_required_rejected(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("model_id,height,width,frames,latency_s\ndemo,720,1280,81,410\n")
    with pytest.raises(ValueError, match="missing required"):
        load_measurements(path)


def test_json_records(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps([
        {"model_id": "demo", "height": 720, "width": 1280, "frames": 81,
         "steps": 50, "latency_s": 410.0, "gpu_wh": 78.8},
    ]))
    records = load_measurements(path)
    assert records[0].latency_s == 410.0
    assert records[0].gpu_wh == 78.8


def test_unsupported_extension(tmp_path):
    path = tmp_path / "m.yaml"
    path.write_text("")
    with pytest.raises(ValueError):
        load_measurements(path)


def test_bundled_measurements():
    records = load_bundled_measurements()
    assert len(records) == 7
    by_id = {r.model_id: r for r in records}
    assert by_id["wan2.1-t2v-1.3b"].latency_s == 410
    assert by_id["wan2.1-t2v-1.3b"].gpu_wh == 78.8
    assert by_id["animatediff"].gpu_wh == 0.115
