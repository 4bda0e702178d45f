"""The ``specs.Record`` contract on every spec and result type: immutable values compared, hashed and printed by
their declared fields, copied and pickled whole, built from checked arguments, and read by dataclasses and pprint."""

import copy
import dataclasses
import inspect
import pickle
import pprint
from fractions import Fraction

import pytest

from oracles import declared_fields
from vidcost import (
    ComparisonReport,
    ComparisonRow,
    DiTSpec,
    HardwareSpec,
    SweepSpec,
    TextEncoderSpec,
    ValidationReport,
    VAEDecoderLayer,
    VAEDecoderSchedule,
    VideoJob,
    classify,
    compare_models,
    estimate_cost,
    fit_mu,
    load_bundled_measurements,
    load_hardware,
    load_model_defaults,
    load_model_spec,
    run_sweep,
    token_length,
    total_flops,
    validate,
)
from vidcost.calibration import CalibrationResult, MeasurementRecord, PointError
from vidcost.cost import CostEstimate, FlopBreakdown
from vidcost.report import SweepPoint
from vidcost.roofline import BoundClassification, thresholds
from vidcost.specs import Record, Spec, to_dict


def one_of_each_record() -> dict:
    """A fresh instance of every record class by test id, results then specs: no thresholds or cost shares kept yet."""
    wan, h100 = load_model_spec(), load_hardware()
    job = VideoJob(720, 1280, 81, 50)
    cost = estimate_cost(job, wan, h100, 0.456)
    records = [MeasurementRecord("m", 720, 1280, 81, steps, latency_s=steps * 4.0) for steps in (10, 50)]
    fit = fit_mu(records, wan.dit, wan.text_encoder, wan.vae, h100)
    report = validate(records, fit.mu, wan.dit, wan.text_encoder, wan.vae, h100)
    sweep = run_sweep(SweepSpec(axis="frames", values=[1, 5], fixed=job, mu=0.456, hardware=h100), wan)
    comparison = compare_models(load_model_defaults(), load_bundled_measurements())
    return {"breakdown": cost.breakdown, "cost": cost, "bound": classify(token_length(job, wan.dit), h100, wan.dit)[0],
            "measurement": records[0], "calibration": fit, "point-error": report.per_point_errors[0],
            "validation": report, "sweep-spec": sweep.spec, "sweep-point": sweep.points[0], "sweep": sweep,
            "comparison-row": comparison.rows[0], "comparison": comparison,
            "job": VideoJob(720, 1280, 81, 50), "dit": wan.dit, "text-encoder": wan.text_encoder,
            "attn-row": wan.vae.layers[2], "conv-row": wan.vae.layers[0], "schedule": wan.vae,
            "hardware": load_hardware(), "model": wan, "defaults": load_model_defaults()[0]}


RECORD_IDS = list(one_of_each_record())

# Each record class that derives values from its fields -> their names, none of them a field: a spec's are kept in
# ``__dict__`` from construction, a result's computed when read (a cost's share dicts then kept there).
DERIVED = {
    FlopBreakdown: ("total",), CostEstimate: ("operator_latency_s", "operator_energy_wh"),
    BoundClassification: ("regime",), ValidationReport: ("mpe_latency_pct", "mpe_energy_pct"), SweepSpec: ("jobs",),
    SweepPoint: ("breakdown",), ComparisonRow: ("total_wh", "gpu_share", "cpu_share", "ram_share"),
    ComparisonReport: ("ratios",),
    DiTSpec: ("mlp_ratio", "mlp_coefficient", "self_attn_coefficients", "cross_attn_coefficients", "timestep_flops",
              "latent_strides", "least_flops"),
    TextEncoderSpec: ("flops_per_pass",), VAEDecoderLayer: ("flop_terms",),
    VAEDecoderSchedule: ("conv_layers", "conv_grids", "attn_layers"),
}

# The records that write their own constructor, as one is built per job or per measurement.
CONSTRUCTED = [VideoJob, MeasurementRecord, FlopBreakdown, CostEstimate, PointError, BoundClassification]


def vidcost_record_classes(cls=Record) -> set:
    """Every class that derives from ``cls`` and that a ``vidcost`` module defines."""
    subclasses = {sub for direct in cls.__subclasses__() for sub in (direct, *vidcost_record_classes(direct))}
    return {sub for sub in subclasses if sub.__module__.startswith("vidcost.")}


def scramble(record) -> None:
    """Fill what ``record`` keeps on first use (a hardware entry's thresholds, its derived values), then overwrite
    each value it keeps in ``__dict__`` outside its fields and add one: a check that saw past the fields fails."""
    if isinstance(record, HardwareSpec):
        thresholds(record)
    for name in DERIVED.get(type(record), ()):
        getattr(record, name)
    kept = vars(record).keys() - record._fields.keys()
    vars(record).update(dict.fromkeys(kept, "scrambled"), _kept="scrambled")


def test_every_record_class_is_covered():
    mine = vidcost_record_classes()
    assert {type(record) for record in one_of_each_record().values()} == mine - {Spec}
    assert {cls for cls in mine if "__init__" in vars(cls)} == set(CONSTRUCTED)
    for cls in CONSTRUCTED:  # it declares its defaults in its constructor and no field in its body; fields: below
        parameters = inspect.signature(cls).parameters.values()
        assert not vars(cls).get("__annotations__")
        assert cls._defaults == {p.name: p.default for p in parameters if p.default is not p.empty}


@pytest.mark.parametrize("name", RECORD_IDS)
def test_fields_cannot_be_assigned_or_deleted(name):
    record = one_of_each_record()[name]
    before = repr(record)
    for field in (*record._fields, "new_attribute"):
        with pytest.raises(AttributeError):
            setattr(record, field, 1)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert repr(record) == before


@pytest.mark.parametrize("name", RECORD_IDS)
def test_equality_hash_and_repr_see_the_declared_fields_only(name):
    record, fresh = one_of_each_record()[name], one_of_each_record()[name]
    declared = declared_fields(type(record))
    fields = tuple(getattr(record, field) for field in declared)
    before = (hash(record), repr(record))
    scramble(record)  # each derived value read first: none is a field, nor in asdict, so none in == or repr
    assert not {*DERIVED.get(type(record), ())} & {*record._fields, *dataclasses.asdict(record)}
    assert record is not fresh and vars(record) != vars(fresh)
    assert record == fresh and fresh == record and not record != fresh
    assert record.__eq__(fields) is NotImplemented and record.__eq__(dict(zip(declared, fields))) is NotImplemented
    assert hash(record) == hash(fresh) == hash(fields)
    assert list(record._fields.items()) == list(declared.items())  # names, annotations and order
    text = ", ".join(f"{field}={value!r}" for field, value in zip(declared, fields))
    assert repr(record) == repr(fresh) == f"{type(record).__name__}({text})"
    assert (hash(record), repr(record)) == before


def test_video_job_repr():
    expected = "VideoJob(height_px=720, width_px=1280, frames=81, steps=50, cfg_passes=2)"
    assert repr(VideoJob(720, 1280, 81, 50)) == expected


@pytest.mark.parametrize("name", RECORD_IDS)
@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda record: pickle.loads(pickle.dumps(record))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_and_pickles_equal_and_keep_the_same_values(name, clone):
    record = one_of_each_record()[name]
    for _ in range(2):  # as built, then with every kept value overwritten
        again = clone(record)
        assert type(again) is type(record) and vars(again) == vars(record)  # kept values are carried over
        assert again == record and hash(again) == hash(record) and repr(again) == repr(record)
        with pytest.raises(AttributeError):
            setattr(again, next(iter(record._fields)), 1)
        scramble(record)


@pytest.mark.parametrize("name", RECORD_IDS)
def test_constructor_rejects_bad_arguments(name):
    record = one_of_each_record()[name]
    cls, values = type(record), {field: getattr(record, field) for field in record._fields}
    assert cls(**values) == record and cls(*values.values()) == record
    first = next(iter(values))
    # unknown, repeated and surplus arguments
    bad_calls = [lambda: cls(**values, bogus=1), lambda: cls(values[first], **values), lambda: cls(*values.values(), 1)]
    required = [field for field in values if field not in cls._defaults]
    if required:  # missing
        bad_calls.append(lambda: cls(**{k: v for k, v in values.items() if k != required[-1]}))
    for call in bad_calls:
        with pytest.raises(TypeError, match=cls.__name__):
            call()


@pytest.mark.parametrize("name", RECORD_IDS)
def test_dataclass_functions_see_the_declared_fields(name):
    record = one_of_each_record()[name]
    declared = list(declared_fields(type(record)))
    assert dataclasses.is_dataclass(record) and dataclasses.is_dataclass(type(record))
    assert [field.name for field in dataclasses.fields(record)] == declared
    assert list(dataclasses.asdict(record)) == declared
    for copied in (record.replace(), dataclasses.replace(record)):
        assert copied == record and copied is not record
    assert type(record).__match_args__ == tuple(declared)


@pytest.mark.parametrize("name", RECORD_IDS)
def test_pprint_prints_a_record_by_its_repr(name):
    record = one_of_each_record()[name]
    # Too wide for the line, so pprint first asks whether the record is a dataclass with a layout of its own.
    assert pprint.pformat(record, width=1) == repr(record)
    assert pprint.pformat([record], width=1) == f"[{record!r}]"


def test_a_record_constructor_declares_each_field_once_and_annotated():
    with pytest.raises(TypeError, match=r"Half declares .* unannotated: \['width'\], in its body: \[\]"):
        class Half(Record):
            def __init__(self, height: int, width, frames: int = 1) -> None:
                pass
    with pytest.raises(TypeError, match=r"Twice declares .* unannotated: \[\], in its body: \['height'\]"):
        class Twice(Record):
            height: int

            def __init__(self, height: int) -> None:
                pass


def test_a_subclass_keeps_the_fields_and_checks_and_may_add_a_field():
    class Named(DiTSpec):
        pass

    assert Named._fields == DiTSpec._fields and Named(hidden=4096).hidden == 4096 and Named() != DiTSpec()
    with pytest.raises(ValueError, match="^hidden must be a positive int, got 0$"):
        Named(hidden=0)

    class Annotated(CalibrationResult):
        note: str = ""

    assert [field.name for field in dataclasses.fields(CalibrationResult)] == ["mu", "intercept_s", "r_squared"]
    extended = Annotated(0.5, 0.0, 1.0, note="x")
    assert [field.name for field in dataclasses.fields(extended)] == ["mu", "intercept_s", "r_squared", "note"]
    assert dataclasses.replace(extended, note="y") == Annotated(0.5, 0.0, 1.0, "y")


@pytest.mark.parametrize("replace", [lambda record, **changes: record.replace(**changes), dataclasses.replace],
                         ids=["method", "dataclasses"])
def test_replace_changes_only_the_named_fields_and_runs_the_constructor_checks(replace, wan):
    wide = replace(wan.dit, hidden=3072, mlp_expansion="8/3")
    assert (wide.hidden, wide.mlp_expansion) == (3072, Fraction(8, 3))
    assert to_dict(wide) == {**to_dict(wan.dit), "hidden": 3072, "mlp_expansion": "8/3"}
    assert wan.dit == DiTSpec() and replace(wan.dit) == wan.dit
    assert replace(VideoJob(720, 1280, 81, 50), steps=10) == VideoJob(720, 1280, 81, 10)
    with pytest.raises(ValueError) as constructed:
        DiTSpec(hidden=0)
    with pytest.raises(ValueError) as replaced:
        replace(wan.dit, hidden=0)
    assert str(replaced.value) == str(constructed.value) == "hidden must be a positive int, got 0"
    with pytest.raises(ValueError, match="^kernel must be given for a conv3d row$"):
        replace(wan.vae.layers[0], kernel=None)
    with pytest.raises(ValueError, match="^frames must be at least 1$"):
        replace(VideoJob(720, 1280, 81, 50), frames=0)
    with pytest.raises(TypeError, match="DiTSpec"):
        replace(wan.dit, bogus=1)
    records = one_of_each_record()
    cost, measurement, sweep_spec = records["cost"], records["measurement"], records["sweep-spec"]
    with pytest.raises(ValueError, match="^latency_s must be a positive finite number, got -1.0$"):
        replace(measurement, latency_s=-1.0)
    # A SweepSpec leaves mu to the cost layer: the replaced spec builds, and its run rejects the mu.
    with pytest.raises(ValueError, match=r"^mu must be in \(0, 1\], got 2.0$"):
        run_sweep(replace(sweep_spec, mu=2.0), load_model_spec())
    changed = replace(cost, latency_s=1.0)
    assert (changed.latency_s, changed.breakdown) == (1.0, cost.breakdown)
    assert replace(sweep_spec, values=[3, 4]).values == (3, 4)


@pytest.mark.parametrize("replace", [lambda record, **changes: record.replace(**changes), dataclasses.replace],
                         ids=["method", "dataclasses"])
def test_replace_recomputes_every_derived_value(replace):
    records = one_of_each_record()
    breakdown, cost, bound, point = records["breakdown"], records["cost"], records["bound"], records["sweep-point"]
    other = one_of_each_record()["cost"].replace(latency_s=2.0)
    assert sum(cost.operator_latency_s.values()) == pytest.approx(cost.latency_s, rel=1e-12)  # cached first
    changed = replace(cost, latency_s=1.0, energy_wh=3.0)
    for op, flops in breakdown.per_operator().items():
        assert changed.operator_latency_s[op] == 1.0 * flops / breakdown.total
        assert changed.operator_energy_wh[op] == 3.0 * flops / breakdown.total
    assert sum(changed.operator_latency_s.values()) == pytest.approx(1.0, rel=1e-12)
    assert sum(changed.operator_energy_wh.values()) == pytest.approx(3.0, rel=1e-12)
    more = replace(breakdown, text=breakdown.text + 10**30)
    assert more.total == breakdown.total + 10**30 == sum(more.per_operator().values())
    assert replace(bound, tokens=bound.threshold).regime == "memory_bound"
    assert replace(bound, tokens=bound.threshold + 1).regime == "compute_bound"
    assert replace(bound, threshold=bound.tokens).regime == "memory_bound"
    moved = replace(point, cost=other)
    assert moved.breakdown is moved.cost.breakdown is other.breakdown
    report, row, comparison = records["validation"], records["comparison-row"], records["comparison"]
    doubled = replace(row, gpu_wh=2 * row.gpu_wh)  # the total and shares follow the new GPU energy
    assert doubled.total_wh == doubled.gpu_wh + doubled.cpu_wh + doubled.ram_wh > row.total_wh
    assert [doubled.gpu_share, doubled.cpu_share, doubled.ram_share] == [
        part / doubled.total_wh for part in (doubled.gpu_wh, doubled.cpu_wh, doubled.ram_wh)]
    first, *_, last = comparison.rows
    ratio = last.total_wh / first.total_wh  # of the first row to the last, whatever their order
    assert replace(comparison, rows=(last, first)).ratios == {(last.model_id, first.model_id): ratio}
    assert replace(comparison, rows=(first,)).ratios == {}
    one = replace(report, per_point_errors=report.per_point_errors[1:])
    assert (one.mpe_latency_pct, one.mpe_energy_pct) == (one.per_point_errors[0].latency_pct,
                                                         one.per_point_errors[0].energy_pct)


def test_cached_coefficients_leave_spec_unchanged():
    """Each derived constant is there right after construction, outside the fields: ==, hash, repr and
    to_dict do not see it, costing adds none, and replace() derives it again."""
    spec = load_model_spec()
    parts = (spec.dit, spec.text_encoder, *spec.vae.layers, spec.vae)
    for part in parts:
        assert vars(part).keys() - part._fields.keys() == set(DERIVED[type(part)])
    before = [vars(part).copy() for part in parts]
    total_flops(VideoJob(720, 1280, 81, 50, 2), spec.dit, spec.text_encoder, spec.vae)
    classify(1, load_hardware(), spec.dit)
    assert [vars(part) for part in parts] == before
    for part in parts:
        other = copy.copy(part)
        vars(other).update(dict.fromkeys(DERIVED[type(part)], "other"))
        assert (other, hash(other), repr(other), to_dict(other)) == (part, hash(part), repr(part), to_dict(part))
        assert vars(other.replace()) == vars(part)  # derived again, not copied
    wider = spec.dit.replace(hidden=1024)
    assert vars(wider) == vars(DiTSpec(hidden=1024))
    for name in ("mlp_coefficient", "self_attn_coefficients", "cross_attn_coefficients", "timestep_flops"):
        assert getattr(wider, name) != getattr(spec.dit, name)
    assert spec.text_encoder.replace(hidden=1024).flops_per_pass == TextEncoderSpec(hidden=1024).flops_per_pass
    assert spec == load_model_spec()


def test_report_records_store_only_their_inputs():
    assert tuple(ComparisonRow._fields) == ("model_id", "latency_s", "gpu_wh", "cpu_wh", "ram_wh")
    assert tuple(ComparisonReport._fields) == ("rows",)
    assert tuple(ValidationReport._fields) == ("per_point_errors",)
