"""Efficiency calibration from measured runs, and the errors of its predictions.

The sustained-over-peak efficiency ``mu`` comes from an ordinary least squares
fit of measured latency against FLOPs-at-peak (flops / theta_peak), with an
intercept absorbing fixed overhead; mu is the reciprocal of the slope.
"""

from __future__ import annotations

import csv
import json
import math
from operator import attrgetter
from pathlib import Path

from .cost import SECONDS_PER_HOUR, energy, latency, too_large, total_flops
from .specs import DiTSpec, HardwareSpec, Record, TextEncoderSpec, VAEDecoderSchedule, VideoJob, data_path

MEASUREMENTS_FILE = "benchmark_measurements.csv"

# The measurement file format: column -> (record field, value type), in file order.
# The first five columns are required; a missing value in another (an empty CSV
# cell, a JSON null, an omitted column) takes the record's default.
COLUMNS = {
    "model_id": ("model_id", str),
    "height": ("height_px", int), "width": ("width_px", int),
    "frames": ("frames", int), "steps": ("steps", int),
    "latency_s": ("latency_s", float), "latency_std_s": ("latency_std_s", float),
    "gpu_wh": ("gpu_wh", float), "gpu_wh_std": ("gpu_wh_std", float),
    "cpu_wh": ("cpu_wh", float), "ram_wh": ("ram_wh", float),
}
_REQUIRED = tuple(COLUMNS)[:5]
_REQUIRED_FIELDS = frozenset(COLUMNS[c][0] for c in _REQUIRED)
_TYPE_NAMES = {str: "a string", int: "an integer", float: "a number"}
# A record's number fields, and their values as a tuple in one C call.
_NUMBERS = tuple(field for field, kind in COLUMNS.values() if kind is not str)
_number_values = attrgetter(*_NUMBERS)


class MeasurementRecord(Record):
    """One benchmarked configuration with mean latency and per-component energy.

    ``latency_s`` may be None for energy-only records; it is then derived as
    gpu_wh * 3600 / p_max when a hardware spec is available.
    """

    model_id: str
    height_px: int
    width_px: int
    frames: int
    steps: int
    latency_s: float | None = None
    latency_std_s: float = 0.0
    gpu_wh: float | None = None
    gpu_wh_std: float = 0.0
    cpu_wh: float = 0.0
    ram_wh: float = 0.0

    def _check(self) -> None:
        numbers = _number_values(self)
        for name, value in zip(_NUMBERS, numbers):
            try:
                if value is not None and not math.isfinite(value):
                    raise ValueError(f"{name} must be finite, got {value}")
            except OverflowError:  # an int beyond the float range
                raise ValueError(f"{name} is too large for a float") from None
        self.job()  # rejects the geometry VideoJob rejects, with its message
        if self.latency_s is None and self.gpu_wh is None:
            raise ValueError("record needs latency_s or gpu_wh")
        if self.latency_s is not None and self.latency_s <= 0:
            raise ValueError("latency_s must be positive")
        if self.gpu_wh is not None and self.gpu_wh <= 0:
            raise ValueError("gpu_wh must be positive")
        for name, value in zip(_NUMBERS, numbers):
            if value is not None and value < 0:
                raise ValueError(f"{name} must be non-negative")

    def resolved_latency(self, hw: HardwareSpec) -> float:
        return self.latency_s if self.latency_s is not None else self.gpu_wh * SECONDS_PER_HOUR / hw.p_max

    def resolved_gpu_wh(self, hw: HardwareSpec) -> float:
        return self.gpu_wh if self.gpu_wh is not None else energy(self.latency_s, hw)[1]

    def job(self, cfg_passes: int = 2) -> VideoJob:
        return VideoJob(self.height_px, self.width_px, self.frames, self.steps, cfg_passes)


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
    """How errors name the record at ``index`` of a file: its CSV row (the header is row 1) or its JSON index."""
    return f"row {index + 2}" if in_csv else f"record {index}"


class RecordError(ValueError):
    """A measurement record that ``fit_mu`` or ``validate`` cannot predict, at ``index`` in the list."""

    def __init__(self, index: int, reason: str):
        super().__init__(f"{_record_name(index, False)}: {reason}")
        self.index, self.reason = index, reason


class PointError(Record):
    record_id: str
    latency_pct: float
    energy_pct: float


class ValidationReport(Record):
    """Per-record absolute percentage errors of predictions; their means are derived."""

    per_point_errors: tuple[PointError, ...]

    @property
    def mpe_latency_pct(self) -> float:
        return math.fsum(p.latency_pct for p in self.per_point_errors) / len(self.per_point_errors)

    @property
    def mpe_energy_pct(self) -> float:
        return math.fsum(p.energy_pct for p in self.per_point_errors) / len(self.per_point_errors)


def _predicted_flops(
    records: list[MeasurementRecord],
    spec: DiTSpec,
    tspec: TextEncoderSpec,
    vae: VAEDecoderSchedule,
    cfg_passes: int,
) -> list[int]:
    # A record keeps its FLOP total under the last model it was predicted under in its
    # __dict__, not as a field. The key holds cfg_passes' type, as VideoJob rejects 2.0.
    key = (spec, tspec, vae, cfg_passes, type(cfg_passes))
    for i, r in enumerate(records):
        if r.__dict__.get("_flops", (None,))[0] != key:
            job = r.job(cfg_passes)
            flops = total_flops(job, spec, tspec, vae).total
            try:
                float(flops)  # as fit_mu and validate divide it by a float
            except OverflowError:
                raise RecordError(i, too_large(job)) from None
            r.__dict__["_flops"] = key, flops
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
    x_mean = math.fsum(x) / len(x)
    y_mean = math.fsum(y) / len(y)
    dx = [v - x_mean for v in x]
    dy = [v - y_mean for v in y]
    sxx = math.fsum(d * d for d in dx)
    if not 0.0 < sxx < math.inf:  # distinct totals whose spread at theta_peak under- or overflows
        raise ValueError(f"degenerate fit: the squared spread of flops / theta_peak is {sxx}, not positive and finite")
    sxy = math.fsum(a * b for a, b in zip(dx, dy))
    slope = sxy / sxx
    mu = 1.0 / slope if slope else math.inf
    if not 0.0 < mu <= 1.0:  # also a nan or infinite slope
        raise CalibrationRangeError(mu)
    # slope > 0 implies sxy > 0, hence syy > 0. Exactly collinear points can
    # round to 1 + 2**-52; the clamp keeps r^2 within [0, 1].
    r_squared = min(1.0, sxy * sxy / (sxx * math.fsum(d * d for d in dy)))
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
        points.append(PointError(
            record_id=f"{record.model_id}#{i}",
            latency_pct=100.0 * abs(p_lat - m_lat) / m_lat,
            energy_pct=100.0 * abs(p_wh - m_wh) / m_wh,
        ))
    return ValidationReport(tuple(points))


# --- ingestion ---

def _is_of_type(value, kind: type) -> bool:
    """Whether a JSON value has the column's type: an integral float counts as
    an integer and an int as a number, a bool or a string as neither."""
    if kind is str:
        return type(value) is str
    return type(value) is int or type(value) is float and (kind is float or value.is_integer())


def _check_columns(columns, context: str) -> None:
    """Reject a column set with a column not in COLUMNS or without a required one."""
    unknown = set(columns).difference(COLUMNS)
    if unknown:
        raise ValueError(f"{context}: unknown columns {sorted(unknown)}")
    missing = [c for c in _REQUIRED if c not in columns]
    if missing:
        raise ValueError(f"{context}: missing required columns {missing}")


def _record(pairs, context: str, text: bool) -> MeasurementRecord:
    """The record of one row's (column, value) pairs, each column in COLUMNS. CSV
    ``text`` is parsed by the column's type; a JSON value is checked, not coerced.
    An empty cell or a null is a missing value."""
    values = {}
    try:
        for column, value in pairs:
            if value is None or text and not value:
                continue
            field, kind = COLUMNS[column]
            try:
                if not (text or _is_of_type(value, kind)):
                    raise ValueError
                value = kind(value)
                # Adding 0.0 reads a -0 as 0, so a -0 energy cell prints as 0; it overflows on an int no float holds.
                number = value if kind is str else value + 0.0
            except ValueError:
                raise ValueError(f"{column} must be {_TYPE_NAMES[kind]}") from None
            except OverflowError:
                raise ValueError(f"{column} is too large for a float") from None
            values[field] = number if kind is float else value
        if not values.keys() >= _REQUIRED_FIELDS:
            missing = [c for c in _REQUIRED if COLUMNS[c][0] not in values]
            raise ValueError(f"missing required columns {missing}")
        return MeasurementRecord(**values)
    except (ValueError, OverflowError) as exc:  # named by the file's columns, not the record's height_px and width_px
        raise ValueError(f"{context}: {str(exc).replace('_px', '')}") from exc


def read_measurements_csv(source) -> list[MeasurementRecord]:
    """Read measurement records from a CSV path or file-like object.

    The header (row 1) is checked once, whether or not records follow. Blank
    lines are skipped and not counted as rows; a row with more cells than the
    header is rejected, and missing trailing cells read as empty. Text the
    ``csv`` module rejects, such as a cell over its field size limit, is a
    ValueError naming the row.
    """
    if not hasattr(source, "read"):
        with open(source, newline="", encoding="utf-8") as fh:
            return read_measurements_csv(fh)
    rows = csv.reader(source)
    try:
        header = next(rows, None)
    except csv.Error as exc:
        raise ValueError(f"row 1: {exc}") from None
    if header is None:
        return []
    _check_columns(header, "row 1")
    width = len(header)
    records = []
    try:
        for row in rows:
            if not row:
                continue
            context = _record_name(len(records), True)
            if len(row) > width:
                raise ValueError(f"{context}: {len(row)} cells, header has {width}")
            records.append(_record(zip(header, row), context, True))
    except csv.Error as exc:
        raise ValueError(f"{_record_name(len(records), True)}: {exc}") from None
    return records


def read_measurements_json(source) -> list[MeasurementRecord]:
    """Read measurement records from a JSON path or file-like object holding a
    list of objects; a value of another shape is a ValueError."""
    if not hasattr(source, "read"):
        with open(source, encoding="utf-8") as fh:
            return read_measurements_json(fh)
    rows = json.load(source)
    if not isinstance(rows, list):
        raise ValueError(f"measurements must be a JSON list of objects, got {type(rows).__name__}")
    records = []
    for i, row in enumerate(rows):
        context = _record_name(i, False)
        if not isinstance(row, dict):
            raise ValueError(f"{context} must be a JSON object, got {type(row).__name__}")
        _check_columns(row, context)
        records.append(_record(row.items(), context, False))
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
