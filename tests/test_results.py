"""The result types share the spec types' base, ``specs.Record``: immutable
values compared, hashed and printed by their fields, that ``dataclasses``'
functions still take."""

import copy
import dataclasses
import inspect
import pickle

import pytest

from oracles import declared_fields
from vidcost import (
    ComparisonReport,
    ComparisonRow,
    SweepSpec,
    ValidationReport,
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
    validate,
)
from vidcost.calibration import CalibrationResult, MeasurementRecord, PointError
from vidcost.cost import CostEstimate, FlopBreakdown
from vidcost.roofline import BoundClassification
from vidcost.specs import Record, Spec


def one_of_each_result():
    """A fresh instance of every result type."""
    wan, h100 = load_model_spec(), load_hardware()
    job = VideoJob(720, 1280, 81, 50)
    cost = estimate_cost(job, wan, h100, 0.456)
    records = [MeasurementRecord("m", 720, 1280, 81, steps, latency_s=steps * 4.0) for steps in (10, 50)]
    fit = fit_mu(records, wan.dit, wan.text_encoder, wan.vae, h100)
    report = validate(records, fit.mu, wan.dit, wan.text_encoder, wan.vae, h100)
    sweep = run_sweep(SweepSpec(axis="frames", values=[1, 5], fixed=job, mu=0.456, hardware=h100), wan)
    comparison = compare_models(load_model_defaults(), load_bundled_measurements())
    return [cost.breakdown, cost, classify(token_length(job, wan.dit), h100, wan.dit)[0], records[0], fit,
            report.per_point_errors[0], report, sweep.spec, sweep.points[0], sweep, comparison.rows[0], comparison]


RESULT_IDS = ["breakdown", "cost", "bound", "measurement", "calibration", "point-error", "validation",
              "sweep-spec", "sweep-point", "sweep", "comparison-row", "comparison"]


def hash_or_error(value):
    try:
        return hash(value)
    except TypeError as exc:  # a field holding a dict
        return str(exc)


def test_every_result_class_is_covered():
    assert {type(result) for result in one_of_each_result()} == set(Record.__subclasses__()) - {Spec}


@pytest.mark.parametrize("index", range(len(RESULT_IDS)), ids=RESULT_IDS)
def test_result_fields_cannot_be_assigned_or_deleted(index):
    result = one_of_each_result()[index]
    before = repr(result)
    for name in (*result._fields, "new_attribute"):
        with pytest.raises(AttributeError):
            setattr(result, name, 1)
        with pytest.raises(AttributeError):
            delattr(result, name)
    assert repr(result) == before


@pytest.mark.parametrize("index", range(len(RESULT_IDS)), ids=RESULT_IDS)
def test_result_equality_hash_and_repr_see_fields_only(index):
    result, fresh = one_of_each_result()[index], one_of_each_result()[index]
    vars(result)["_kept"] = object()  # as a cached value or calibration's FLOP memo is kept
    fields = [getattr(result, name) for name in declared_fields(type(result))]
    assert result == fresh and not result != fresh and result.__eq__(tuple(fields)) is NotImplemented
    assert hash_or_error(result) == hash_or_error(fresh) == hash_or_error(tuple(fields))
    text = ", ".join(f"{name}={value!r}" for name, value in zip(declared_fields(type(result)), fields))
    assert repr(result) == repr(fresh) == f"{type(result).__name__}({text})"


@pytest.mark.parametrize("index", range(len(RESULT_IDS)), ids=RESULT_IDS)
@pytest.mark.parametrize("clone", [copy.deepcopy, lambda result: pickle.loads(pickle.dumps(result))],
                         ids=["deepcopy", "pickle"])
def test_result_copies_and_pickles_equal(index, clone):
    result = one_of_each_result()[index]
    again = clone(result)
    assert type(again) is type(result) and again == result and repr(again) == repr(result)
    with pytest.raises(AttributeError):
        setattr(again, next(iter(result._fields)), 1)


@pytest.mark.parametrize("index", range(len(RESULT_IDS)), ids=RESULT_IDS)
def test_result_dataclass_functions_see_the_declared_fields(index):
    result = one_of_each_result()[index]
    declared = list(declared_fields(type(result)))
    assert dataclasses.is_dataclass(result) and dataclasses.is_dataclass(type(result))
    assert [field.name for field in dataclasses.fields(result)] == declared
    assert list(dataclasses.asdict(result)) == declared
    for copied in (result.replace(), dataclasses.replace(result)):
        assert copied == result and copied is not result
    assert type(result).__match_args__ == tuple(declared)


# The records that write their own constructor, as one is built per job or per measurement.
CONSTRUCTED = [VideoJob, MeasurementRecord, FlopBreakdown, CostEstimate, PointError, BoundClassification]


@pytest.mark.parametrize("cls", CONSTRUCTED, ids=lambda cls: cls.__name__)
def test_a_record_that_writes_its_constructor_takes_its_fields_from_it(cls):
    parameters = inspect.signature(cls).parameters.values()
    assert "__init__" in vars(cls) and not vars(cls).get("__annotations__")
    assert cls._fields == {p.name: p.annotation for p in parameters}
    assert cls._defaults == {p.name: p.default for p in parameters if p.default is not p.empty}
    assert cls.__match_args__ == tuple(cls._fields)


def test_every_record_that_writes_its_constructor_is_covered():
    def subclasses(cls):
        return [sub for direct in cls.__subclasses__() for sub in (direct, *subclasses(direct))]
    mine = [cls for cls in subclasses(Record) if cls.__module__.startswith("vidcost.") and "__init__" in vars(cls)]
    assert set(mine) == set(CONSTRUCTED)


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


@pytest.mark.parametrize("replace", [lambda result, **changes: result.replace(**changes), dataclasses.replace],
                         ids=["method", "dataclasses"])
def test_result_replace_runs_the_constructor_checks(replace):
    _, cost, _, measurement, _, _, _, sweep_spec = one_of_each_result()[:8]
    with pytest.raises(ValueError, match="^latency_s must be a positive finite number, got -1.0$"):
        replace(measurement, latency_s=-1.0)
    # A SweepSpec leaves mu to the cost layer: the replaced spec builds, and its run rejects the mu.
    with pytest.raises(ValueError, match=r"^mu must be in \(0, 1\], got 2.0$"):
        run_sweep(replace(sweep_spec, mu=2.0), load_model_spec())
    changed = replace(cost, latency_s=1.0)
    assert (changed.latency_s, changed.breakdown) == (1.0, cost.breakdown)
    assert replace(sweep_spec, values=[3, 4]).values == (3, 4)


@pytest.mark.parametrize("replace", [lambda result, **changes: result.replace(**changes), dataclasses.replace],
                         ids=["method", "dataclasses"])
def test_result_replace_recomputes_every_derived_value(replace):
    breakdown, cost, bound, *_ = one_of_each_result()
    point, other = one_of_each_result()[8], one_of_each_result()[1].replace(latency_s=2.0)
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
    report, *_, row, comparison = one_of_each_result()[6:]
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


# Index in one_of_each_result -> the values that type derives from its fields.
DERIVED = {0: ("total",), 1: ("operator_latency_s", "operator_energy_wh"), 2: ("regime",),
           6: ("mpe_latency_pct", "mpe_energy_pct"), 7: ("jobs",), 8: ("breakdown",),
           10: ("total_wh", "gpu_share", "cpu_share", "ram_share"), 11: ("ratios",)}


@pytest.mark.parametrize("index", list(DERIVED), ids=[RESULT_IDS[i] for i in DERIVED])
def test_derived_values_are_not_fields(index):
    result = one_of_each_result()[index]
    for name in DERIVED[index]:
        getattr(result, name)  # computed, and for the share dicts cached in __dict__
        assert name not in result._fields and name not in dataclasses.asdict(result)  # so not in repr or ==
    assert hash(result) == hash(one_of_each_result()[index])


def test_report_records_store_only_their_inputs():
    assert tuple(ComparisonRow._fields) == ("model_id", "latency_s", "gpu_wh", "cpu_wh", "ram_wh")
    assert tuple(ComparisonReport._fields) == ("rows",)
    assert tuple(ValidationReport._fields) == ("per_point_errors",)


def test_a_subclass_adding_a_field_has_its_own_dataclass_fields():
    class Annotated(CalibrationResult):
        note: str = ""

    assert [field.name for field in dataclasses.fields(CalibrationResult)] == ["mu", "intercept_s", "r_squared"]
    extended = Annotated(0.5, 0.0, 1.0, note="x")
    assert [field.name for field in dataclasses.fields(extended)] == ["mu", "intercept_s", "r_squared", "note"]
    assert dataclasses.replace(extended, note="y") == Annotated(0.5, 0.0, 1.0, "y")
