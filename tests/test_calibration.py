"""Efficiency fitting, error metrics, and measurement ingestion."""

import csv
import dataclasses
import io
import json
import math
import pickle
import random
import re
import statistics
import sys
import warnings
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import mape_oracle
from vidcost import calibration, cost
from vidcost import (
    CalibrationRangeError,
    DiTSpec,
    MeasurementRecord,
    PointError,
    TextEncoderSpec,
    ValidationReport,
    VideoJob,
    fit_mu,
    load_bundled_measurements,
    load_model_spec,
    load_measurements,
    read_measurements_csv,
    read_measurements_json,
    total_flops,
    validate,
)
from vidcost.calibration import MEASUREMENTS_FILE
from vidcost.specs import Record, data_path


class Cell(str):
    """A CSV cell's text, where a bare test value is a JSON value."""


def write_rows(tmp_path, rows):
    """Write measurement rows as CSV when a value is a ``Cell``, else as JSON;
    return the path and the name errors give the second row."""
    if any(isinstance(v, Cell) for row in rows for v in row.values()):
        path = tmp_path / "m.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, dict.fromkeys(k for row in rows for k in row), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        return path, "row 3"
    path = tmp_path / "m.json"
    path.write_text(json.dumps(rows))
    return path, "record 1"


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
    for latency_s in (None, 1.0):
        with pytest.raises(ValueError, match="^gpu_wh must be a positive finite number, got 0.0$"):
            MeasurementRecord(**{**valid, "latency_s": latency_s, "gpu_wh": 0.0})
    for name in valid.keys() - {"model_id"}:
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"^{name} must be (an int|a (positive|non-negative) finite number), "
                                                 f"got {bad}$"):
                MeasurementRecord(**{**valid, name: bad})
    # A string in a number field and text that is not printable are each worded by the field's rule.
    for args, message in ((("m", "16", 16, 1, 1), "height_px must be an int, got '16'"),
                          (("m", 16, 16, 1, "1"), "steps must be an int, got '1'"),
                          ((5, 720, 1280, 81, 50), "model_id must be a string, got 5"),
                          (("a\x1bb", 720, 1280, 81, 50), "model_id must be printable text, got 'a\\x1bb'")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            MeasurementRecord(*args, latency_s=1.0)
    with pytest.raises(ValueError, match="^cpu_wh must be a non-negative finite number, got '1'$"):
        MeasurementRecord("m", 16, 16, 1, 1, latency_s=1.0, cpu_wh="1")


MISSING = object()
ODD_VALUES = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "-1": -1, "0": 0, "10**400": 10**400,
              "True": True, "missing": MISSING, "None": None, "'1'": "1", "max+1": int(sys.float_info.max) + 1}
AT_LEAST_16 = "height and width must be at least 16"


def record_outcome(field, name):
    """What MeasurementRecord does with ``field`` set to ODD_VALUES[name] in a record of latency 410 s, by that
    field's one rule: the ValueError's message, TypeError for a required argument left out, or None for a record."""
    value = ODD_VALUES[name]
    required = field not in MeasurementRecord._defaults
    if name == "missing" and required:
        return TypeError
    if field == "model_id":  # printable text, as every text field of a spec
        return None if name == "'1'" else f"model_id must be a string, got {value!r}"
    if name in ("10**400", "max+1"):  # an int beyond the float range, whose digits are not printed
        return f"{field} is too large for a float"
    if required:  # the geometry: a job VideoJob accepts, worded by VideoJob
        if type(value) is not int:
            return f"{field} must be an int, got {value!r}"
        return AT_LEAST_16 if field in ("height_px", "width_px") else f"{field} must be at least 1"
    if field in ("latency_s", "gpu_wh"):  # a measure: None or a positive finite number, and one of them given
        if name in ("None", "missing"):
            return "record needs latency_s or gpu_wh" if field == "latency_s" else None
        return None if name == "True" else f"{field} must be a positive finite number, got {value!r}"
    # Any other number: a finite number at least 0, left out as 0.0.
    return None if name in ("0", "True", "missing") else f"{field} must be a non-negative finite number, got {value!r}"


@pytest.mark.parametrize("name", list(ODD_VALUES))
@pytest.mark.parametrize("field", list(MeasurementRecord._fields))
def test_record_constructor_outcomes(field, name):
    values = dict(model_id="m", height_px=720, width_px=1280, frames=81, steps=50, latency_s=410.0)
    if ODD_VALUES[name] is MISSING:
        values.pop(field, None)
    else:
        values[field] = ODD_VALUES[name]
    want = record_outcome(field, name)
    if want is None:
        record = MeasurementRecord(**values)
        job = VideoJob(record.height_px, record.width_px, record.frames, record.steps)
        assert vars(record) == {**MeasurementRecord._defaults, **values, "_job": job}
    elif want is TypeError:  # worded by Python, as for the other hand-written constructors
        with pytest.raises(TypeError, match=f"missing 1 required positional argument: '{field}'$"):
            MeasurementRecord(**values)
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            MeasurementRecord(**values)


# Values for any field of a record: numbers at and beyond each bound, and text.
# Numbers of other types, which compare as numbers: the record's rule rejects each, so its one pass must too.
OTHER_NUMBERS = [Fraction(1, 2), Decimal("0.5"), np.float32(0.5)]
RECORD_POOL = [None, True, 0, -0.0, -1, 5e-324, math.nan, math.inf, -math.inf, sys.float_info.max,
               int(sys.float_info.max) + 1, 10**400, "1", "", "a\x01b", MISSING, *OTHER_NUMBERS]


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.sampled_from(list(MeasurementRecord._fields)), st.sampled_from(RECORD_POOL), max_size=3))
@example({"height_px": "16"})
@example({"latency_s": Fraction(1, 2)})
@example({"latency_s": Decimal("0.5")})
@example({"latency_s": np.float32(0.5)})
def test_the_one_pass_check_and_the_worded_rules_agree(changes):
    values = {**dict(model_id="m", height_px=16, width_px=16, frames=1, steps=1, latency_s=1.0), **changes}
    values = {name: value for name, value in values.items() if value is not MISSING}
    # The same values, stored without the one-pass check, for _check alone.
    unchecked = MeasurementRecord.__new__(MeasurementRecord)
    unchecked.__dict__.update(MeasurementRecord._defaults, **values)
    try:
        record = MeasurementRecord(**values)
    except TypeError as exc:  # the one TypeError: a required argument left out
        required = MeasurementRecord._fields.keys() - MeasurementRecord._defaults.keys()
        assert not required <= values.keys() and "required positional argument" in str(exc)
        return
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            unchecked._check()
        return
    record._check()


@pytest.mark.parametrize("value, shown", zip(OTHER_NUMBERS, ["Fraction(1, 2)", "Decimal('0.5')",
                                                              repr(np.float32(0.5))]),
                         ids=["fraction", "decimal", "float32"])
def test_a_number_of_another_type_is_worded_by_the_rule_and_warns_of_nothing(value, shown):
    # Accepted, a Decimal would fail later in fit_mu's float arithmetic; a float32 compared with the largest
    # float makes NumPy warn of an overflow.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^latency_s must be a positive finite number, got {re.escape(shown)}$"):
            MeasurementRecord("m", 720, 1280, 81, 50, latency_s=value)


@pytest.mark.parametrize("args, kwargs", [
    (("m", 720, 1280, 81, 50), {"latency_s": 1.0, "latency": 2.0}),  # unknown
    (("m", 720, 1280, 81, 50, 1.0), {"latency_s": 2.0}),  # repeated
    (("m", 720, 1280, 81), {"latency_s": 1.0}),  # missing
    (("m", 720, 1280, 81, 50, 1.0, 0.0, None, 0.0, 0.0, 0.0, 0.0), {}),  # surplus
], ids=["unknown", "repeated", "missing", "surplus"])
def test_record_constructor_argument_errors(args, kwargs):
    with pytest.raises(TypeError):
        MeasurementRecord(*args, **kwargs)


def test_a_record_keeps_its_job_outside_its_fields():
    record = MeasurementRecord("m", 720, 1280, 81, 50, latency_s=410.0)
    job = vars(record)["_job"]
    assert job == record.job() == VideoJob(720, 1280, 81, 50)
    # Equality, hash and repr see the fields only, whatever job a record keeps.
    other = MeasurementRecord("m", 720, 1280, 81, 50, latency_s=410.0)
    other.__dict__["_job"] = VideoJob(16, 16, 1, 1)
    assert other == record and hash(other) == hash(record) and repr(other) == repr(record)
    # A copy built by replace() gets a job of its own, for its own fields; a pickled copy an equal one.
    for copy in (record.replace(), dataclasses.replace(record), other.replace(), dataclasses.replace(other)):
        assert copy == record and vars(copy)["_job"] == job and vars(copy)["_job"] is not job
    for copy in (record.replace(steps=25), dataclasses.replace(record, steps=25)):
        assert vars(copy)["_job"] == VideoJob(720, 1280, 81, 25)
    copy = pickle.loads(pickle.dumps(record))
    assert copy == record and hash(copy) == hash(record) and vars(copy)["_job"] == job


def entered(fn) -> Counter:
    """How often ``fn()`` enters each Python function, keyed by code object as in
    test_call_contract.calls; an entry to the generic ``Record.__init__`` is keyed
    by the class it builds instead."""
    counts, generic = Counter(), Record.__init__.__code__

    def profile(frame, event, arg):
        if event == "call":
            counts[type(frame.f_locals["self"]) if frame.f_code is generic else frame.f_code] += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return counts


def test_read_fit_validate_build_one_job_and_one_flop_total_per_row(wan, h100):
    model = (wan.dit, wan.text_encoder, wan.vae, h100)
    rows = ["model_id,height,width,frames,steps,latency_s,gpu_wh"]
    for i, steps in enumerate((10, 20, 40, 80, 160, 320)):
        latency_s = total_flops(VideoJob(720, 1280, 81, steps), *model[:3]).total / (0.5 * h100.theta_peak) + 3.0
        rows.append(f"m,720,1280,81,{steps}," + (f",{h100.p_max * latency_s / 3600}" if i % 3 else f"{latency_s},"))
    text = "\n".join(rows) + "\n"

    def run():
        records = read_measurements_csv(io.StringIO(text))
        validate(records, fit_mu(records, *model).mu, *model)

    counts = entered(run)
    assert counts[VideoJob.__init__.__code__] == counts[total_flops.__code__] == 6
    assert counts[MeasurementRecord] == counts[PointError] == 0
    assert counts[ValidationReport] == 1  # built by the generic constructor, as entered() sees


@pytest.mark.parametrize("value", [10**400, 10**5000], ids=["10**400", "10**5000"])
@pytest.mark.parametrize("name", ["height_px", "steps", "latency_s", "cpu_wh"])
def test_record_rejects_an_int_too_large_for_a_float(name, value):
    valid = dict(model_id="m", height_px=16, width_px=16, frames=1, steps=1, latency_s=1.0)
    with pytest.raises(ValueError, match=f"^{name} is too large for a float$"):
        MeasurementRecord(**{**valid, name: value})


@pytest.mark.parametrize("call", ["fit", "validate"])
def test_a_flop_total_too_large_for_a_float_names_the_record(wan, h100, call):
    # Geometry that fits a float, but a FLOP total that does not.
    records = [MeasurementRecord("m", 720, 1280, 81, 10, latency_s=40.0),
               MeasurementRecord("m", 10**160, 1280, 81, 50, latency_s=200.0)]
    message = (f"^record 1: job {10**160}x1280, 81 frames, 50 steps: "
               "its FLOP total is too large for a float latency$")
    with pytest.raises(ValueError, match=message):
        if call == "fit":
            fit_mu(records, wan.dit, wan.text_encoder, wan.vae, h100)
        else:
            validate(records, 0.5, wan.dit, wan.text_encoder, wan.vae, h100)


@pytest.mark.parametrize("call", ["fit", "validate"])
@pytest.mark.parametrize("suffix, name", [(".csv", "row 3"), (".json", "record 1")])
def test_a_record_read_from_a_file_is_named_as_its_reader_named_it(tmp_path, wan, h100, call, suffix, name):
    # The first record is filtered out, so the one at fault is at index 0 of the list fitted.
    path = tmp_path / f"m{suffix}"
    rows = [{"model_id": "m", "height": h, "width": 1280, "frames": 81, "steps": s, "latency_s": s * 4}
            for h, s in ((720, 10), (10**160, 50), (720, 25))]
    if suffix == ".csv":
        path.write_text("".join(",".join(map(str, row)) + "\n" for row in [rows[0], *(r.values() for r in rows)]))
    else:
        path.write_text(json.dumps(rows))
    records = load_measurements(path)[1:]
    message = f"^{name}: job {10**160}x1280, 81 frames, 50 steps: its FLOP total is too large for a float latency$"
    with pytest.raises(ValueError, match=message):
        if call == "fit":
            fit_mu(records, wan.dit, wan.text_encoder, wan.vae, h100)
        else:
            validate(records, 0.5, wan.dit, wan.text_encoder, wan.vae, h100)


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
    # Distinct totals of about 2**84.6, differing by 44 FLOPs a pass, round to one float: the squared spread is 0.
    dit = DiTSpec(layers=1, hidden=1, mlp_expansion=1, text_tokens=1, timestep_hidden=1)
    text = TextEncoderSpec(layers=1, hidden=2**40, mlp_expansion=1, tokens=1)
    close = [MeasurementRecord("m", 16, 16, 1, steps, latency_s=float(steps)) for steps in (1, 2, 3)]
    assert len(set(calibration._predicted_flops(close, dit, text, wan.vae, 2))) == 3
    with pytest.raises(ValueError, match="^degenerate fit: the squared spread of flops / theta_peak is 0.0, "):
        fit_mu(close, dit, text, wan.vae, h100)
    # Totals of about 1e155 apart at a theta_peak of 1: the squared spread overflows.
    far = [MeasurementRecord("m", 16, 16, 1, steps, latency_s=float(steps)) for steps in (1, 2)]
    with pytest.raises(ValueError, match="^degenerate fit: the squared spread of flops / theta_peak is inf, "):
        fit_mu(far, dit.replace(hidden=10**77), text, wan.vae, h100.replace(theta_peak=1.0))


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


def test_fit_mu_negative_slope(wan, h100):
    # Latency falling as FLOPs rise: the reciprocal slope is a negative efficiency.
    records = synthetic_records(wan, h100, 0.5)
    flipped = [r.replace(latency_s=s.latency_s) for r, s in zip(records, reversed(records))]
    with pytest.raises(CalibrationRangeError, match="outside") as info:
        fit_mu(flipped, wan.dit, wan.text_encoder, wan.vae, h100)
    assert info.value.mu < 0


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
    report = validate(records, 0.456, wan.dit, wan.text_encoder, wan.vae, h100)
    assert [p.record_id for p in report.per_point_errors] == [f"{r.model_id}#{i}" for i, r in enumerate(records)]
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


@pytest.mark.parametrize("mu", [0.0, -0.5, 1.5, math.nan])
def test_validate_rejects_mu_outside_unit_interval(wan, h100, mu):
    records = synthetic_records(wan, h100, 0.456)
    with pytest.raises(ValueError, match=r"^mu must be in \(0, 1\], got"):
        validate(records, mu, wan.dit, wan.text_encoder, wan.vae, h100)


def seeded_records(wan, h100, seed, count=40):
    """Records of random geometry whose latencies follow the model at mu 0.4
    with noise; every fifth record is energy-only."""
    rng = random.Random(seed)
    records = []
    for i in range(count):
        job = VideoJob(rng.choice((240, 480, 720)), rng.choice((416, 832, 1280)),
                       rng.choice((17, 33, 81)), rng.randint(5, 60))
        lat = total_flops(job, wan.dit, wan.text_encoder, wan.vae).total / (0.4 * h100.theta_peak)
        lat *= 1.0 + rng.uniform(-0.1, 0.1)
        measured = {"gpu_wh": h100.p_max * lat / 3600.0} if i % 5 == 4 else {"latency_s": lat}
        records.append(MeasurementRecord("seeded", job.height_px, job.width_px, job.frames, job.steps, **measured))
    return records


def assert_same_report(got, want):
    assert got == want
    assert repr(got) == repr(want)  # bit for bit: repr round-trips every float, -0.0 included


@pytest.mark.parametrize("source", ["bundled", "seed-1", "seed-2", "seed-3"])
@pytest.mark.parametrize("cfg_passes", [2, 1])
def test_validate_after_fit_equals_validate_on_fresh_records(wan, h100, source, cfg_passes):
    # A record keeps the FLOP totals fit_mu computed; validating with them is
    # validating without them, bit for bit.
    def read():
        if source == "bundled":
            return load_bundled_measurements()
        return seeded_records(wan, h100, int(source.split("-")[1]))

    model = (wan.dit, wan.text_encoder, wan.vae, h100)
    records = read()
    mu = fit_mu(records, *model, cfg_passes=cfg_passes).mu
    assert_same_report(validate(records, mu, *model, cfg_passes=cfg_passes),
                       validate(read(), mu, *model, cfg_passes=cfg_passes))


@pytest.mark.parametrize("other", ["dit", "text_encoder", "vae", "cfg_passes"])
def test_a_fit_under_one_model_does_not_leak_into_another(wan, h100, other):
    layers = wan.vae.layers
    dit, tspec, vae, cfg_passes = {
        "dit": (wan.dit.replace(layers=16), wan.text_encoder, wan.vae, 2),
        "text_encoder": (wan.dit, wan.text_encoder.replace(layers=12), wan.vae, 2),
        "vae": (wan.dit, wan.text_encoder, wan.vae.replace(layers=layers[:-1] + (layers[-1].replace(repeat=2),)), 2),
        "cfg_passes": (wan.dit, wan.text_encoder, wan.vae, 1),
    }[other]
    records = seeded_records(wan, h100, 4)
    fit_mu(records, wan.dit, wan.text_encoder, wan.vae, h100)
    assert_same_report(validate(records, 0.4, dit, tspec, vae, h100, cfg_passes),
                       validate(seeded_records(wan, h100, 4), 0.4, dit, tspec, vae, h100, cfg_passes))


def test_a_float_cfg_passes_is_rejected_after_a_fit(wan, h100):
    # 2.0 == 2, but VideoJob rejects it, and so does validate on fitted records.
    records = seeded_records(wan, h100, 4)
    fit_mu(records, wan.dit, wan.text_encoder, wan.vae, h100)
    with pytest.raises(ValueError, match="^cfg_passes must be an int, got 2.0$"):
        validate(records, 0.4, wan.dit, wan.text_encoder, wan.vae, h100, 2.0)


def test_equal_model_specs_share_the_kept_totals(wan, h100, monkeypatch):
    # Two loads of one spec are equal but distinct objects: validating under the
    # second after fitting under the first recomputes nothing and reports the same.
    first, second = load_model_spec(), load_model_spec()
    assert first == second and first.dit is not second.dit
    records = seeded_records(wan, h100, 5)
    mu = fit_mu(records, first.dit, first.text_encoder, first.vae, h100).mu
    seen = []
    monkeypatch.setattr(cost, "total_flops", lambda *args: seen.append(args) or total_flops(*args))
    report = validate(records, mu, second.dit, second.text_encoder, second.vae, h100)
    assert seen == []
    assert_same_report(report, validate(records, mu, first.dit, first.text_encoder, first.vae, h100))
    assert_same_report(report, validate(seeded_records(wan, h100, 5), mu, second.dit, second.text_encoder,
                                        second.vae, h100))


def test_records_after_a_fit_equal_fresh_ones(wan, h100):
    records, fresh = seeded_records(wan, h100, 6), seeded_records(wan, h100, 6)
    fit_mu(records, wan.dit, wan.text_encoder, wan.vae, h100)
    assert records == fresh
    assert [hash(r) for r in records] == [hash(r) for r in fresh]
    assert [repr(r) for r in records] == [repr(r) for r in fresh]
    assert [dataclasses.asdict(r) for r in records] == [dataclasses.asdict(r) for r in fresh]
    # The kept total is no field: replace() drops it, and a pickled copy carries it.
    assert "_flops" not in vars(dataclasses.replace(records[0]))
    copies = pickle.loads(pickle.dumps(records))
    assert copies == fresh and vars(copies[0]) == vars(records[0])


def test_the_file_format_is_the_readme_column_table():
    # COLUMNS is read from MeasurementRecord's constructor; a change there that changes the file format fails here.
    assert list(calibration.COLUMNS.items()) == [
        ("model_id", ("model_id", str)),
        ("height", ("height_px", int)), ("width", ("width_px", int)),
        ("frames", ("frames", int)), ("steps", ("steps", int)),
        ("latency_s", ("latency_s", float)), ("latency_std_s", ("latency_std_s", float)),
        ("gpu_wh", ("gpu_wh", float)), ("gpu_wh_std", ("gpu_wh_std", float)),
        ("cpu_wh", ("cpu_wh", float)), ("ram_wh", ("ram_wh", float)),
    ]
    assert calibration._REQUIRED == ("model_id", "height", "width", "frames", "steps")


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


@pytest.mark.parametrize("rows", ["", "demo,1,1,1,1,1,5\n"], ids=["header-only", "with-rows"])
def test_csv_unknown_header_column_named(tmp_path, rows):
    path = tmp_path / "m.csv"
    path.write_text("model_id,height,width,frames,steps,latency_s,wattage\n" + rows)
    with pytest.raises(ValueError, match=r"^row 1: unknown columns \['wattage'\]$"):
        load_measurements(path)


@pytest.mark.parametrize("rows", ["", "demo,720,1280,81,50,410,411\n"], ids=["header-only", "with-rows"])
def test_csv_repeated_header_column_rejected(tmp_path, rows):
    path = tmp_path / "m.csv"
    path.write_text("model_id,height,width,frames,steps,latency_s,latency_s\n" + rows)
    with pytest.raises(ValueError, match=r"^row 1: repeated columns \['latency_s'\]$"):
        load_measurements(path)
    # A header the check before it rejects keeps that rejection.
    path.write_text("model_id,height,height,frames,steps,latency_s\n" + rows)
    with pytest.raises(ValueError, match=r"^row 1: missing required columns \['width'\]$"):
        load_measurements(path)


@pytest.mark.parametrize("suffix", [".csv", ".json"])
def test_measurement_files_may_start_with_a_byte_order_mark(tmp_path, suffix):
    # As a spreadsheet's "CSV UTF-8" export writes them.
    path = tmp_path / f"m{suffix}"
    if suffix == ".csv":
        path.write_text("model_id,height,width,frames,steps,latency_s\ndemo,720,1280,81,50,410\n", encoding="utf-8-sig")
    else:
        path.write_text(json.dumps([{"model_id": "demo", "height": 720, "width": 1280, "frames": 81, "steps": 50,
                                     "latency_s": 410}]), encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load_measurements(path) == [MeasurementRecord("demo", 720, 1280, 81, 50, latency_s=410.0)]


def test_csv_long_row_rejected(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("model_id,height,width,frames,steps,latency_s\n"
                    "demo,720,1280,81,50,410\n"
                    "demo,720,1280,81,25,205,7\n")
    with pytest.raises(ValueError, match="^row 3: 7 cells, header has 6$"):
        load_measurements(path)


def test_csv_blank_lines_skipped(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("model_id,height,width,frames,steps,latency_s\n\n"
                    "demo,720,1280,81,50,410\n\n"
                    "demo,720,1280,81,25\n")
    with pytest.raises(ValueError, match="^row 3: record needs latency_s or gpu_wh$"):
        load_measurements(path)
    path.write_text("model_id,height,width,frames,steps,latency_s\n\n"
                    "demo,720,1280,81,50,410\n\n"
                    "demo,720,1280,81,25,205\n\n")
    assert [r.steps for r in load_measurements(path)] == [50, 25]


def test_csv_missing_required_rejected(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("model_id,height,width,frames,latency_s\ndemo,720,1280,81,410\n")
    with pytest.raises(ValueError, match="missing required"):
        load_measurements(path)


def test_csv_empty_required_cell_is_missing(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("model_id,height,width,frames,steps,latency_s\ndemo,,1280,81,50,410\n")
    with pytest.raises(ValueError, match=r"^row 2: missing required columns \['height'\]$"):
        load_measurements(path)


def test_csv_empty_file_has_no_records(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("")
    assert load_measurements(path) == []


def test_json_records(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps([
        {"model_id": "demo", "height": 720, "width": 1280, "frames": 81,
         "steps": 50, "latency_s": 410.0, "gpu_wh": 78.8},
    ]))
    records = load_measurements(path)
    assert records[0].latency_s == 410.0
    assert records[0].gpu_wh == 78.8
    # An integral float is an integer.
    path.write_text(json.dumps([{"model_id": "demo", "height": 720.0, "width": 1280, "frames": 81,
                                 "steps": 50, "latency_s": 410.0}]))
    assert load_measurements(path)[0].height_px == 720


@pytest.mark.parametrize("field", ["height", "width", "frames", "steps"])
@pytest.mark.parametrize("bad", [
    720.9, True, "720",
    # A CSV cell that does not parse as an integer names its column, as JSON does.
    pytest.param(Cell("720.5"), id="csv-720.5"),
    pytest.param(Cell("720.0"), id="csv-720.0"),
    pytest.param(Cell("abc"), id="csv-abc"),
    # Text int() reads but a cell may not hold: a digit-group underscore, surrounding whitespace, non-ASCII digits.
    pytest.param(Cell("7_20"), id="csv-underscore"),
    pytest.param(Cell(" 720"), id="csv-leading-space"),
    pytest.param(Cell("720\t"), id="csv-trailing-tab"),
    pytest.param(Cell("\u0667\u0662\u0660"), id="csv-arabic-indic-digits"),
    pytest.param(Cell("\uff17\uff12\uff10"), id="csv-fullwidth-digits"),
])
def test_json_records_reject_non_integers(tmp_path, field, bad):
    row = {"model_id": "demo", "height": 720, "width": 1280, "frames": 81, "steps": 50, "latency_s": 410.0}
    path, where = write_rows(tmp_path, [row, {**row, field: bad}])
    with pytest.raises(ValueError, match=f"^{where}: {field} must be an integer$"):
        load_measurements(path)


@pytest.mark.parametrize("field, bad, what", [
    ("latency_s", True, "a number"),
    ("latency_s", "200", "a number"),
    ("gpu_wh", "", "a number"),
    ("cpu_wh", False, "a number"),
    ("model_id", 5, "a string"),
    ("model_id", ["demo"], "a string"),
    pytest.param("latency_s", Cell("abc"), "a number", id="csv-latency_s-abc"),
    pytest.param("gpu_wh", Cell("0x10"), "a number", id="csv-gpu_wh-0x10"),
    pytest.param("cpu_wh", Cell("false"), "a number", id="csv-cpu_wh-false"),
    pytest.param("latency_s", Cell("1_0.5"), "a number", id="csv-latency_s-underscore"),
    pytest.param("latency_s", Cell("410.5 "), "a number", id="csv-latency_s-trailing-space"),
    pytest.param("gpu_wh", Cell("\u0664\u0661.\u0665"), "a number", id="csv-gpu_wh-arabic-indic-digits"),
])
def test_json_records_reject_wrong_types(tmp_path, field, bad, what):
    # JSON values are not coerced: a bool or string is no number, a number no model_id.
    row = {"model_id": "demo", "height": 720, "width": 1280, "frames": 81, "steps": 50, "latency_s": 410.0}
    path, where = write_rows(tmp_path, [row, {**row, field: bad}])
    with pytest.raises(ValueError, match=f"^{where}: {field} must be {what}$"):
        load_measurements(path)
    # Null still means a missing value, and the same text in a CSV cell is parsed.
    json_path = tmp_path / "m.json"
    json_path.write_text(json.dumps([{**row, "gpu_wh": None}]))
    assert load_measurements(json_path)[0].gpu_wh is None
    csv_path = tmp_path / "m.csv"
    csv_path.write_text("model_id,height,width,frames,steps,latency_s\n5,720,1280,81,50,200\n")
    assert (load_measurements(csv_path)[0].model_id, load_measurements(csv_path)[0].latency_s) == ("5", 200.0)


def test_csv_number_cells_in_other_forms_still_parse():
    text = "model_id,height,width,frames,steps,latency_s,gpu_wh\nm_1 x,+720,01280,81,50,4.1e2,.5\n"
    expected = MeasurementRecord("m_1 x", 720, 1280, 81, 50, 410.0, gpu_wh=0.5)  # a model_id cell is any text
    assert read_measurements_csv(io.StringIO(text)) == [expected]


@pytest.mark.parametrize("keys, message", [
    (', "latency_s": 40, "latency_s": 4000', "repeated columns ['latency_s']"),
    (', "steps": 60, "latency_s": 40', "repeated columns ['steps']"),
    (', "latency_s": 40, "watts": 1, "watts": 2', "unknown columns ['watts']"),  # as a CSV header is checked
], ids=["latency_s-twice", "steps-twice", "unknown-key-twice"])
def test_json_record_repeating_a_key_is_rejected(tmp_path, keys, message):
    path = tmp_path / "m.json"
    common = '"model_id": "demo", "height": 720, "width": 1280, "frames": 81, "steps": 50'
    path.write_text(f'[{{{common}, "latency_s": 410}}, {{{common}{keys}}}]')
    with pytest.raises(ValueError, match=f"^record 1: {re.escape(message)}$"):
        load_measurements(path)


def test_json_nested_beyond_the_parsers_recursion_limit_is_a_value_error():
    with pytest.raises(ValueError, match=r"^JSON nested too deeply$"):
        read_measurements_json(io.StringIO("[" * 100_000))


def test_validate_mpe_is_the_mean_of_the_point_errors(wan, h100):
    noise = [0.03, -0.02, 0.05, -0.04, 0.01]
    sets = [synthetic_records(wan, h100, 0.4, noise=noise),
            synthetic_records(wan, h100, 0.3, intercept=12.5, noise=noise)]
    sets.append([MeasurementRecord(model_id=r.model_id, height_px=r.height_px, width_px=r.width_px,
                                   frames=r.frames, steps=r.steps, gpu_wh=h100.p_max * r.latency_s / 3600.0)
                 for r in sets[0]])
    for records in sets:
        report = validate(records, 0.456, wan.dit, wan.text_encoder, wan.vae, h100)
        pred = [total_flops(r.job(), wan.dit, wan.text_encoder, wan.vae).total / (0.456 * h100.theta_peak)
                for r in records]
        meas = [r.resolved_latency(h100) for r in records]
        assert report.mpe_latency_pct == pytest.approx(mape_oracle(pred, meas), rel=1e-12, abs=0)
        pred_wh = [h100.p_max * p / 3600.0 for p in pred]
        meas_wh = [r.resolved_gpu_wh(h100) for r in records]
        assert report.mpe_energy_pct == pytest.approx(mape_oracle(pred_wh, meas_wh), rel=1e-12, abs=0)


def test_csv_and_json_read_the_same_records(tmp_path):
    # The bundled CSV, each number cell written as its JSON literal, reads back equal.
    with open(data_path(MEASUREMENTS_FILE), newline="") as fh:
        rows = [{k: v if k == "model_id" else json.loads(v) for k, v in row.items()} for row in csv.DictReader(fh)]
    path = tmp_path / "m.json"
    path.write_text(json.dumps(rows))
    from_json, from_csv = load_measurements(path), load_bundled_measurements()
    assert from_json == from_csv
    assert [[type(v) for v in vars(r).values()] for r in from_json] == [
        [type(v) for v in vars(r).values()] for r in from_csv]
    # Edge cells: an empty cell against a null, an omitted optional column, -0.
    text = ("model_id,height,width,frames,steps,latency_s,gpu_wh,cpu_wh,ram_wh\n"
            "a,720,1280,81,50,410,,-0,0\n"
            "a,720,1280,81,25,,78.8,,\n")
    row = {"model_id": "a", "height": 720, "width": 1280, "frames": 81, "steps": 50, "latency_s": 410}
    path.write_text(json.dumps([{**row, "gpu_wh": None, "cpu_wh": -0.0, "ram_wh": 0},
                                {**row, "steps": 25, "latency_s": None, "gpu_wh": 78.8, "ram_wh": None}]))
    records = load_measurements(path)
    assert records == read_measurements_csv(io.StringIO(text))
    assert [(r.latency_s, r.gpu_wh, r.cpu_wh, r.latency_std_s) for r in records] == [
        (410.0, None, 0.0, 0.0), (None, 78.8, 0.0, 0.0)]
    # A -0 reads as 0, in both formats.
    assert math.copysign(1.0, records[0].cpu_wh) == 1.0
    assert math.copysign(1.0, read_measurements_csv(io.StringIO(text))[0].cpu_wh) == 1.0
    # An integral float is an integer in JSON only.
    path.write_text(json.dumps([{**row, "height": 720.0}]))
    assert load_measurements(path)[0].height_px == 720
    with pytest.raises(ValueError, match="^row 2: height must be an integer$"):
        read_measurements_csv(io.StringIO("model_id,height,width,frames,steps,latency_s\na,720.0,1280,81,50,410\n"))


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
