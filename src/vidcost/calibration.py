"""Efficiency calibration from measured runs, plus prediction-error metrics.

The sustained-over-peak efficiency ``mu`` comes from an ordinary least squares
fit of measured latency against FLOPs-at-peak (flops / theta_peak), with an
intercept absorbing fixed overhead; mu is the reciprocal of the slope.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path

from .cost import SECONDS_PER_HOUR, total_flops
from .specs import (
    DiTSpec,
    HardwareSpec,
    TextEncoderSpec,
    VAEDecoderSchedule,
    VideoJob,
    data_path,
)

MEASUREMENT_COLUMNS = (
    "model_id", "height", "width", "frames", "steps",
    "latency_s", "latency_std_s", "gpu_wh", "gpu_wh_std", "cpu_wh", "ram_wh",
)
_COLUMN_SET = frozenset(MEASUREMENT_COLUMNS)
_REQUIRED_COLUMNS = ("model_id", "height", "width", "frames", "steps")
_INT_COLUMNS = ("height", "width", "frames", "steps")

MEASUREMENTS_FILE = "benchmark_measurements.csv"

_NUMERIC_FIELDS = (
    "height_px", "width_px", "frames", "steps",
    "latency_s", "latency_std_s", "gpu_wh", "gpu_wh_std", "cpu_wh", "ram_wh",
)
_NON_NEGATIVE_FIELDS = ("latency_std_s", "gpu_wh_std", "cpu_wh", "ram_wh")
# A record's field values as tuples in the orders above, in one C call each.
_numeric_values = attrgetter(*_NUMERIC_FIELDS)
_non_negative_values = attrgetter(*_NON_NEGATIVE_FIELDS)


@dataclass(frozen=True)
class MeasurementRecord:
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

    def __post_init__(self) -> None:
        for name, value in zip(_NUMERIC_FIELDS, _numeric_values(self)):
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.latency_s is None and self.gpu_wh is None:
            raise ValueError("record needs latency_s or gpu_wh")
        if self.latency_s is not None and self.latency_s <= 0:
            raise ValueError("latency_s must be positive")
        for name, value in zip(_NON_NEGATIVE_FIELDS, _non_negative_values(self)):
            if value < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.gpu_wh is not None and self.gpu_wh <= 0:
            raise ValueError("gpu_wh must be positive")

    def resolved_latency(self, hw: HardwareSpec) -> float:
        if self.latency_s is not None:
            return self.latency_s
        return self.gpu_wh * SECONDS_PER_HOUR / hw.p_max

    def resolved_gpu_wh(self, hw: HardwareSpec) -> float:
        if self.gpu_wh is not None:
            return self.gpu_wh
        return hw.p_max * self.latency_s / SECONDS_PER_HOUR

    def job(self, cfg_passes: int = 2) -> VideoJob:
        return VideoJob(self.height_px, self.width_px, self.frames, self.steps, cfg_passes)


@dataclass(frozen=True)
class CalibrationResult:
    mu: float
    intercept_s: float
    r_squared: float


class CalibrationRangeError(ValueError):
    """Fit produced an efficiency outside (0, 1]; carries the fitted value."""

    def __init__(self, mu: float):
        super().__init__(f"fitted efficiency {mu!r} outside (0, 1]; model and data disagree")
        self.mu = mu


@dataclass(frozen=True)
class PointError:
    record_id: str
    latency_pct: float
    energy_pct: float


@dataclass(frozen=True)
class ValidationReport:
    """Per-record and mean absolute percentage errors of predictions."""

    mpe_latency_pct: float
    mpe_energy_pct: float
    per_point_errors: tuple[PointError, ...]


def _predicted_flops(
    records: list[MeasurementRecord],
    spec: DiTSpec,
    tspec: TextEncoderSpec,
    vae: VAEDecoderSchedule,
    cfg_passes: int,
) -> list[int]:
    return [total_flops(r.job(cfg_passes), spec, tspec, vae).total for r in records]


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
    sxy = math.fsum(a * b for a, b in zip(dx, dy))
    slope = sxy / sxx
    if slope <= 0:
        raise CalibrationRangeError(math.inf if slope == 0 else 1.0 / slope)
    mu = 1.0 / slope
    if mu > 1.0:
        raise CalibrationRangeError(mu)
    # slope > 0 implies sxy > 0, hence syy > 0. Exactly collinear points can
    # round to 1 + 2**-52; the clamp keeps r^2 within [0, 1].
    r_squared = min(1.0, sxy * sxy / (sxx * math.fsum(d * d for d in dy)))
    return CalibrationResult(mu=mu, intercept_s=y_mean - slope * x_mean, r_squared=r_squared)


def mean_percentage_error(predicted: list[float], measured: list[float]) -> float:
    """Mean absolute percentage error, in percent, of predicted vs measured."""
    if len(predicted) != len(measured):
        raise ValueError("predicted and measured must have equal lengths")
    if not measured:
        raise ValueError("need at least one point")
    if any(m <= 0 for m in measured):
        raise ValueError("measured values must be positive")
    return 100.0 / len(measured) * sum(abs(p - m) / m for p, m in zip(predicted, measured))


def validate(
    records: list[MeasurementRecord],
    mu: float,
    spec: DiTSpec,
    tspec: TextEncoderSpec,
    vae: VAEDecoderSchedule,
    hw: HardwareSpec,
    cfg_passes: int = 2,
) -> ValidationReport:
    """Predict each record at efficiency mu and report percentage errors."""
    if not records:
        raise ValueError("need at least one measurement record")
    flops = _predicted_flops(records, spec, tspec, vae, cfg_passes)
    points = []
    for i, (record, f) in enumerate(zip(records, flops)):
        p_lat = f / (mu * hw.theta_peak)
        p_wh = hw.p_max * p_lat / SECONDS_PER_HOUR
        m_lat = record.resolved_latency(hw)
        m_wh = record.resolved_gpu_wh(hw)
        points.append(PointError(
            record_id=f"{record.model_id}#{i}",
            latency_pct=100.0 * abs(p_lat - m_lat) / m_lat,
            energy_pct=100.0 * abs(p_wh - m_wh) / m_wh,
        ))
    return ValidationReport(
        mpe_latency_pct=math.fsum(p.latency_pct for p in points) / len(points),
        mpe_energy_pct=math.fsum(p.energy_pct for p in points) / len(points),
        per_point_errors=tuple(points),
    )


# --- ingestion ---

def _parse_optional(value: str | None) -> float | None:
    if value is None or value == "":
        return None
    return float(value)


def _record_from_row(row: dict, context: str) -> MeasurementRecord:
    if not _COLUMN_SET.issuperset(row):
        raise ValueError(f"{context}: unknown columns {sorted(row.keys() - _COLUMN_SET)}")
    missing = [c for c in _REQUIRED_COLUMNS if row.get(c) in (None, "")]
    if missing:
        raise ValueError(f"{context}: missing required columns {missing}")
    try:
        return MeasurementRecord(
            model_id=row["model_id"],
            height_px=int(row["height"]),
            width_px=int(row["width"]),
            frames=int(row["frames"]),
            steps=int(row["steps"]),
            latency_s=_parse_optional(row.get("latency_s")),
            latency_std_s=_parse_optional(row.get("latency_std_s")) or 0.0,
            gpu_wh=_parse_optional(row.get("gpu_wh")),
            gpu_wh_std=_parse_optional(row.get("gpu_wh_std")) or 0.0,
            cpu_wh=_parse_optional(row.get("cpu_wh")) or 0.0,
            ram_wh=_parse_optional(row.get("ram_wh")) or 0.0,
        )
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"{context}: {exc}") from exc


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
    unknown = set(header) - _COLUMN_SET
    if unknown:
        raise ValueError(f"row 1: unknown columns {sorted(unknown)}")
    missing = [c for c in _REQUIRED_COLUMNS if c not in header]
    if missing:
        raise ValueError(f"row 1: missing required columns {missing}")
    width = len(header)
    records = []
    try:
        for row in rows:
            if not row:
                continue
            context = f"row {len(records) + 2}"
            if len(row) > width:
                raise ValueError(f"{context}: {len(row)} cells, header has {width}")
            records.append(_record_from_row(dict(zip(header, row)), context))
    except csv.Error as exc:
        raise ValueError(f"row {len(records) + 2}: {exc}") from None
    return records


def _check_json_types(row: dict, context: str) -> None:
    """Reject a JSON value that ``_record_from_row``, written for CSV text, would
    coerce: a bool or string in a number column, a fraction in an integer column,
    a model_id that is not a string. Nulls and unknown columns are left to it."""
    for column, value in row.items():
        if value is None or column not in _COLUMN_SET:
            continue
        if column == "model_id":
            ok, what = type(value) is str, "a string"
        elif column in _INT_COLUMNS:
            ok, what = type(value) is int or type(value) is float and value.is_integer(), "an integer"
        else:
            ok, what = type(value) in (int, float), "a number"
        if not ok:
            raise ValueError(f"{context}: {column} must be {what}")


def read_measurements_json(source) -> list[MeasurementRecord]:
    """Read measurement records from a JSON path or file-like object holding a
    list of objects; a value of another shape is a ValueError."""
    if hasattr(source, "read"):
        rows = json.load(source)
    else:
        with open(source, encoding="utf-8") as fh:
            rows = json.load(fh)
    if not isinstance(rows, list):
        raise ValueError(f"measurements must be a JSON list of objects, got {type(rows).__name__}")
    records = []
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            raise ValueError(f"record {i} must be a JSON object, got {type(row).__name__}")
        _check_json_types(row, f"record {i}")
        records.append(_record_from_row(row, f"record {i}"))
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
