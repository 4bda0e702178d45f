"""Efficiency calibration from measured runs, plus prediction-error metrics.

The sustained-over-peak efficiency ``mu`` comes from an ordinary least squares
fit of measured latency against FLOPs-at-peak (flops / theta_peak), with an
intercept absorbing fixed overhead; mu is the reciprocal of the slope.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .cost import SECONDS_PER_HOUR, total_flops
from .specs import (
    DiTSpec,
    HardwareSpec,
    TextEncoderSpec,
    VAEDecoderSchedule,
    VideoJob,
    bundled_data_path,
)

MEASUREMENT_COLUMNS = (
    "model_id", "height", "width", "frames", "steps",
    "latency_s", "latency_std_s", "gpu_wh", "gpu_wh_std", "cpu_wh", "ram_wh",
)
_REQUIRED_COLUMNS = ("model_id", "height", "width", "frames", "steps")

BUNDLED_MEASUREMENTS = "benchmark_measurements.csv"

_NUMERIC_FIELDS = (
    "height_px", "width_px", "frames", "steps",
    "latency_s", "latency_std_s", "gpu_wh", "gpu_wh_std", "cpu_wh", "ram_wh",
)


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
        for name in _NUMERIC_FIELDS:
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.latency_s is None and self.gpu_wh is None:
            raise ValueError("record needs latency_s or gpu_wh")
        if self.latency_s is not None and self.latency_s <= 0:
            raise ValueError("latency_s must be positive")
        for name in ("latency_std_s", "gpu_wh_std", "cpu_wh", "ram_wh"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.gpu_wh is not None and self.gpu_wh < 0:
            raise ValueError("gpu_wh must be non-negative")

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


VALIDATION_AXES = ("resolution", "frames", "steps", "custom")


@dataclass(frozen=True)
class ValidationReport:
    """Per-record and mean absolute percentage errors of predictions."""

    axis: str
    mpe_latency_pct: float
    mpe_energy_pct: float
    per_point_errors: tuple[PointError, ...]

    def __post_init__(self) -> None:
        if self.axis not in VALIDATION_AXES:
            raise ValueError(f"axis must be one of {VALIDATION_AXES}")


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
    axis: str = "custom",
    cfg_passes: int = 2,
) -> ValidationReport:
    """Predict each record at efficiency mu and report percentage errors."""
    if not records:
        raise ValueError("need at least one measurement record")
    flops = _predicted_flops(records, spec, tspec, vae, cfg_passes)
    points = []
    pred_lat, meas_lat, pred_wh, meas_wh = [], [], [], []
    for i, (record, f) in enumerate(zip(records, flops)):
        p_lat = f / (mu * hw.theta_peak)
        p_wh = hw.p_max * p_lat / SECONDS_PER_HOUR
        m_lat = record.resolved_latency(hw)
        m_wh = record.resolved_gpu_wh(hw)
        pred_lat.append(p_lat)
        meas_lat.append(m_lat)
        pred_wh.append(p_wh)
        meas_wh.append(m_wh)
        points.append(PointError(
            record_id=f"{record.model_id}#{i}",
            latency_pct=100.0 * abs(p_lat - m_lat) / m_lat,
            energy_pct=100.0 * abs(p_wh - m_wh) / m_wh,
        ))
    return ValidationReport(
        axis=axis,
        mpe_latency_pct=mean_percentage_error(pred_lat, meas_lat),
        mpe_energy_pct=mean_percentage_error(pred_wh, meas_wh),
        per_point_errors=tuple(points),
    )


# --- ingestion ---

def _parse_optional(value: str | None) -> float | None:
    if value is None or value == "":
        return None
    return float(value)


def _record_from_row(row: dict, context: str) -> MeasurementRecord:
    unknown = set(row) - set(MEASUREMENT_COLUMNS)
    if unknown:
        raise ValueError(f"{context}: unknown columns {sorted(unknown)}")
    missing = [c for c in _REQUIRED_COLUMNS if row.get(c) in (None, "")]
    if missing:
        raise ValueError(f"{context}: missing required columns {missing}")
    try:
        return MeasurementRecord(
            model_id=str(row["model_id"]),
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
    """Read measurement records from a CSV path or file-like object."""
    if hasattr(source, "read"):
        reader = csv.DictReader(source)
        return [_record_from_row(row, f"row {i + 2}") for i, row in enumerate(reader)]
    with open(source, newline="", encoding="utf-8") as fh:
        return read_measurements_csv(fh)


def read_measurements_json(source) -> list[MeasurementRecord]:
    """Read measurement records from a JSON path holding a list of objects."""
    if hasattr(source, "read"):
        rows = json.load(source)
    else:
        with open(source, encoding="utf-8") as fh:
            rows = json.load(fh)
    return [_record_from_row({k: row.get(k) for k in row}, f"record {i}") for i, row in enumerate(rows)]


def load_measurements(path: str | Path) -> list[MeasurementRecord]:
    """Load records from .csv or .json, by extension."""
    path = Path(path)
    if path.suffix == ".json":
        return read_measurements_json(path)
    if path.suffix == ".csv":
        return read_measurements_csv(path)
    raise ValueError(f"unsupported measurements format {path.suffix!r} (use .csv or .json)")


def load_bundled_measurements() -> list[MeasurementRecord]:
    """The packaged cross-model benchmark dataset."""
    text = bundled_data_path(BUNDLED_MEASUREMENTS).read_text(encoding="utf-8")
    return read_measurements_csv(io.StringIO(text))
