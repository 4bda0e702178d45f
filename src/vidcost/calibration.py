"""Efficiency calibration from measured runs, and the errors of its predictions.

The sustained-over-peak efficiency ``mu`` comes from an ordinary least squares
fit of measured latency against FLOPs-at-peak (flops / theta_peak), with an
intercept absorbing fixed overhead; mu is the reciprocal of the slope.
"""

from __future__ import annotations

import csv
import io
import math
from operator import mul
from pathlib import Path

from .cost import SECONDS_PER_HOUR, energy, float_flops, latency
from .specs import (_MAX, DiTSpec, HardwareSpec, Record, TextEncoderSpec, VAEDecoderSchedule, VideoJob, _json_value,
                    _printable, _read_text, _require, data_path)

MEASUREMENTS_FILE = "benchmark_measurements.csv"


class MeasurementRecord(Record):
    """One benchmarked configuration with mean latency and per-component energy.

    ``latency_s`` may be None for energy-only records; it is then derived as
    gpu_wh * 3600 / p_max when a hardware spec is available.
    """

    def __init__(self, model_id: str, height_px: int, width_px: int, frames: int, steps: int,
                 latency_s: float | None = None, latency_std_s: float = 0.0, gpu_wh: float | None = None,
                 gpu_wh_std: float = 0.0, cpu_wh: float = 0.0, ram_wh: float = 0.0) -> None:  # as VideoJob's
        values = self.__dict__  # filled a field at a time, so that records share one key table: half the memory
        values["model_id"], values["height_px"], values["width_px"] = model_id, height_px, width_px
        values["frames"], values["steps"], values["latency_s"] = frames, steps, latency_s
        values["latency_std_s"], values["gpu_wh"], values["gpu_wh_std"] = latency_std_s, gpu_wh, gpu_wh_std
        values["cpu_wh"], values["ram_wh"] = cpu_wh, ram_wh
        # One pass accepts a plain record, each value of the type _check accepts; _check words every other record.
        if not (type(model_id) is str and model_id.isprintable()
                and type(height_px) is type(width_px) is type(frames) is type(steps) is int
                and 0 <= height_px <= _MAX and 0 <= width_px <= _MAX and 0 <= frames <= _MAX and 0 <= steps <= _MAX
                and type(latency_std_s) is type(gpu_wh_std) is type(cpu_wh) is type(ram_wh) is float
                and 0.0 <= latency_std_s <= _MAX and 0.0 <= gpu_wh_std <= _MAX and 0.0 <= cpu_wh <= _MAX
                and 0.0 <= ram_wh <= _MAX and (latency_s is not None or gpu_wh is not None)
                and (0.0 < latency_s <= _MAX if type(latency_s) is float else latency_s is None)
                and (0.0 < gpu_wh <= _MAX if type(gpu_wh) is float else gpu_wh is None)):
            self._check()
        values["_job"] = VideoJob(height_px, width_px, frames, steps)  # kept, not a field, as the FLOP total is

    def _check(self) -> None:
        """Raise a ValueError worded by the first rule, one per field, that the record breaks."""
        _printable("model_id", self.model_id)
        self.job()
        for name in [name for name, kind in self._fields.items() if kind != "str"]:  # the numbers
            value, measure = vars(self)[name], self._defaults.get(name, 0.0) is None  # a measure's default is None
            if isinstance(value, int) and not -_MAX <= value <= _MAX:  # not printed: it may have too many digits
                raise ValueError(f"{name} is too large for a float")
            _require(value is None and measure or isinstance(value, (int, float)) and 0 <= value <= _MAX
                     and (value > 0 or not measure), name, value,
                     "a positive finite number" if measure else "a non-negative finite number")
        if self.latency_s is None and self.gpu_wh is None:
            raise ValueError("record needs latency_s or gpu_wh")

    def resolved_latency(self, hw: HardwareSpec) -> float:
        return self.latency_s if self.latency_s is not None else self.gpu_wh * SECONDS_PER_HOUR / hw.p_max

    def resolved_gpu_wh(self, hw: HardwareSpec) -> float:
        return self.gpu_wh if self.gpu_wh is not None else energy(self.latency_s, hw)[1]

    def job(self, cfg_passes: int = 2) -> VideoJob:
        return VideoJob(self.height_px, self.width_px, self.frames, self.steps, cfg_passes)

    def place(self, index: int) -> str:
        """How errors name the record: as its reader named it, else by ``index``, its place in the list given."""
        return _record_name(*self.__dict__.get("_place", (index, False)))


# The measurement file format, read from MeasurementRecord's constructor: column -> (record field, value type), in
# file order. A column is named as its field but for height and width; a str or int annotation is its type, any other
# a number. A column whose field has no default is required; a missing value in another (an empty CSV cell, a JSON
# null, an omitted column) takes the record's default.
COLUMNS = {{"height_px": "height", "width_px": "width"}.get(field, field):
           (field, {"str": str, "int": int}.get(kind, float)) for field, kind in MeasurementRecord._fields.items()}
_REQUIRED = tuple(column for column, (field, _) in COLUMNS.items() if field not in MeasurementRecord._defaults)
_TYPE_NAMES = {str: "a string", int: "an integer", float: "a number"}


class CalibrationResult(Record):
    mu: float
    intercept_s: float
    r_squared: float


class CalibrationRangeError(ValueError):
    """Fit produced an efficiency outside (0, 1]; carries the fitted value."""

    def __init__(self, mu: float):
        super().__init__(f"fitted efficiency {mu!r} outside (0, 1]; model and data disagree")
        self.mu = mu


def _record_name(index: int, in_csv: bool) -> str:
    """How errors name the record at ``index`` of a file: its CSV row (the header, -1, is row 1) or its JSON index."""
    return f"row {index + 2}" if in_csv else f"record {index}"


class PointError(Record):
    def __init__(self, record_id: str, latency_pct: float, energy_pct: float) -> None:  # one per record, as VideoJob's
        self.__dict__.update(record_id=record_id, latency_pct=latency_pct, energy_pct=energy_pct)


class ValidationReport(Record):
    """Per-record absolute percentage errors of predictions; their means are derived."""

    per_point_errors: tuple[PointError, ...]

    @property
    def mpe_latency_pct(self) -> float:
        return math.fsum(p.latency_pct for p in self.per_point_errors) / len(self.per_point_errors)

    @property
    def mpe_energy_pct(self) -> float:
        return math.fsum(p.energy_pct for p in self.per_point_errors) / len(self.per_point_errors)


def _predicted_flops(records: list[MeasurementRecord], spec: DiTSpec, tspec: TextEncoderSpec, vae: VAEDecoderSchedule,
                     cfg_passes: int) -> list[int]:
    # A record keeps its FLOP total under the last model it was predicted under in its
    # __dict__, not as a field. The key holds cfg_passes' type, as VideoJob rejects 2.0.
    key = (spec, tspec, vae, cfg_passes, type(cfg_passes))
    for i, r in enumerate(records):
        if r.__dict__.get("_flops", (None,))[0] != key:
            job = r._job if cfg_passes == 2 and type(cfg_passes) is int else r.job(cfg_passes)  # the record's own
            try:
                r.__dict__["_flops"] = key, float_flops(job, spec, tspec, vae).total
            except ValueError as exc:
                raise ValueError(f"{r.place(i)}: {exc}") from None
    return [r.__dict__["_flops"][1] for r in records]


def fit_mu(
    records: list[MeasurementRecord],
    spec: DiTSpec,
    tspec: TextEncoderSpec,
    vae: VAEDecoderSchedule,
    hw: HardwareSpec,
    cfg_passes: int = 2,
) -> CalibrationResult:
    """Fit efficiency by regressing measured latency on flops / theta_peak.

    Needs at least two records with distinct predicted FLOP totals. Raises
    CalibrationRangeError when the reciprocal slope leaves (0, 1].
    """
    if len(records) < 2:
        raise ValueError("need at least two measurement records to fit")
    flops = _predicted_flops(records, spec, tspec, vae, cfg_passes)
    if len(set(flops)) < 2:
        raise ValueError("degenerate fit: all records predict the same FLOP total")
    x = [f / hw.theta_peak for f in flops]
    y = [r.resolved_latency(hw) for r in records]
    try:  # fsum raises where finite terms sum beyond the float range
        x_mean, y_mean = math.fsum(x) / len(x), math.fsum(y) / len(y)
        dx, dy = [v - x_mean for v in x], [v - y_mean for v in y]
        sxx, sxy, syy = math.fsum(map(mul, dx, dx)), math.fsum(map(mul, dx, dy)), math.fsum(map(mul, dy, dy))
    except OverflowError:
        raise ValueError("degenerate fit: a sum over the records is too large for a float") from None
    if not 0.0 < sxx < math.inf:  # distinct totals whose spread at theta_peak under- or overflows
        raise ValueError(f"degenerate fit: the squared spread of flops / theta_peak is {sxx}, not positive and finite")
    slope = sxy / sxx
    mu = 1.0 / slope if slope else math.inf
    if not 0.0 < mu <= 1.0:  # also a nan or infinite slope
        raise CalibrationRangeError(mu)
    # slope > 0 implies sxy > 0, hence syy > 0. Exactly collinear points can
    # round to 1 + 2**-52; the clamp keeps r^2 within [0, 1].
    r_squared = min(1.0, sxy * sxy / (sxx * syy))
    return CalibrationResult(mu=mu, intercept_s=y_mean - slope * x_mean, r_squared=r_squared)


def validate(
    records: list[MeasurementRecord],
    mu: float,
    spec: DiTSpec,
    tspec: TextEncoderSpec,
    vae: VAEDecoderSchedule,
    hw: HardwareSpec,
    cfg_passes: int = 2,
) -> ValidationReport:
    """Predict each record at efficiency mu in (0, 1] and report percentage errors."""
    if not records:
        raise ValueError("need at least one measurement record")
    flops = _predicted_flops(records, spec, tspec, vae, cfg_passes)
    points = []
    for i, (record, f) in enumerate(zip(records, flops)):
        p_lat = latency(f, hw, mu)
        p_wh = energy(p_lat, hw)[1]
        m_lat = record.resolved_latency(hw)
        m_wh = record.resolved_gpu_wh(hw)
        points.append(PointError(f"{record.model_id}#{i}", 100.0 * abs(p_lat - m_lat) / m_lat,
                                 100.0 * abs(p_wh - m_wh) / m_wh))
    return ValidationReport(tuple(points))


# --- ingestion ---

def _is_of_type(value, kind: type) -> bool:
    """Whether a JSON value has the column's type: an integral float counts as
    an integer and an int as a number, a bool or a string as neither."""
    if kind is str:
        return type(value) is str
    return type(value) is int or type(value) is float and (kind is float or value.is_integer())


def _resolve(columns, index: int, in_csv: bool) -> list[tuple[str, str, type]]:
    """Each column as (column, record field, value type); an unknown, repeated or missing required one rejects all."""
    columns = list(columns)  # a CSV header's cells, or a JSON object's keys
    for problem, names in (("unknown", sorted(set(columns) - COLUMNS.keys())),
                           ("missing required", [c for c in _REQUIRED if c not in columns]),
                           ("repeated", sorted({c for c in columns if columns.count(c) > 1}))):
        if names:
            raise ValueError(f"{_record_name(index, in_csv)}: {problem} columns {names}")
    return [(column, *COLUMNS[column]) for column in columns]


def _record(columns, cells, index: int, in_csv: bool) -> MeasurementRecord:
    """The record of one row's ``cells`` under its resolved ``columns``: CSV text is parsed by the column's type,
    a JSON value checked, not coerced. An empty cell or a null is a missing value."""
    values = {}
    try:
        for (column, field, kind), value in zip(columns, cells):
            if value is None or in_csv and not value:
                continue
            try:
                # int() and float() also read digit-group underscores, surrounding whitespace and non-ASCII digits.
                if not ((kind is str or value.isascii() and "_" not in value and value.strip() == value) if in_csv
                        else _is_of_type(value, kind)):
                    raise ValueError
                value = kind(value)
                # Adding 0.0 reads a -0 as 0, so a -0 energy cell prints as 0; it overflows on an int no float holds.
                number = value if kind is str else value + 0.0
            except ValueError:
                raise ValueError(f"{column} must be {_TYPE_NAMES[kind]}") from None
            except OverflowError:
                raise ValueError(f"{column} is too large for a float") from None
            values[field] = number if kind is float else value
        record = MeasurementRecord(**values)
    except TypeError:  # a required value left out: of checked values, the one a record rejects with a TypeError
        missing = [c for c in _REQUIRED if COLUMNS[c][0] not in values]
        raise ValueError(f"{_record_name(index, in_csv)}: missing required columns {missing}") from None
    except ValueError as exc:
        raise ValueError(f"{_record_name(index, in_csv)}: {exc}") from exc
    record.__dict__["_place"] = index, in_csv  # kept, not a field, as its job is: how fit_mu and validate name it
    return record


def read_measurements_csv(source) -> list[MeasurementRecord]:
    """Read measurement records from a CSV path or file-like object.

    The header (row 1) is checked once, whether or not records follow. Blank
    lines are skipped and not counted as rows; a row with more cells than the
    header is rejected, and missing trailing cells read as empty. Text the
    ``csv`` module rejects, such as a cell over its field size limit, is a
    ValueError naming the row. A path is read as ``specs._read_text`` reads every
    data file; a file object, as it is given.
    """
    rows = csv.reader(source if hasattr(source, "read") else io.StringIO(_read_text(source), newline=""))
    try:
        header = next(rows, None)
    except csv.Error as exc:
        raise ValueError(f"row 1: {exc}") from None
    if header is None:
        return []
    columns, width = _resolve(header, -1, True), len(header)
    records = []
    try:
        for row in rows:
            if not row:
                continue
            if len(row) > width:
                raise ValueError(f"{_record_name(len(records), True)}: {len(row)} cells, header has {width}")
            records.append(_record(columns, row, len(records), True))
    except csv.Error as exc:
        raise ValueError(f"{_record_name(len(records), True)}: {exc}") from None
    return records


def read_measurements_json(source) -> list[MeasurementRecord]:
    """Read measurement records from a JSON path or file-like object holding a list of
    objects; a value of another shape is a ValueError. A path is read as ``specs._read_text`` reads every data file."""
    rows = _json_value(source.read() if hasattr(source, "read") else _read_text(source))
    if not isinstance(rows, list):
        raise ValueError(f"measurements must be a JSON list of objects, got {type(rows).__name__}")
    records = []
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            raise ValueError(f"{_record_name(i, False)} must be a JSON object, got {type(row).__name__}")
        records.append(_record(_resolve(row.pop(None, row), i, False), row.values(), i, False))
    return records


def load_measurements(path: str | Path) -> list[MeasurementRecord]:
    """Load records from .csv or .json, by extension. Rejected content is a
    ValueError that names the row or record, not the file."""
    path = Path(path)
    if path.suffix == ".json":
        return read_measurements_json(path)
    if path.suffix == ".csv":
        return read_measurements_csv(path)
    raise ValueError(f"unsupported measurements format {path.suffix!r} (use .csv or .json)")


def load_bundled_measurements() -> list[MeasurementRecord]:
    """The cross-model benchmark dataset, found by ``specs.data_path``."""
    return read_measurements_csv(data_path(MEASUREMENTS_FILE))
