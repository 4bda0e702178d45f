"""Scaling-law sweeps and cross-model comparison reports.

Sweep points carry the full FLOP breakdown plus latency/energy with
per-operator shares prorated by FLOP fraction. ``emit`` serializes a report
through ``output`` (table, CSV, JSON) or ``charts`` (SVG); every format is
byte-deterministic.
"""

from __future__ import annotations

from .cost import CostEstimate, FlopBreakdown, estimate_cost, token_length
from .specs import _MAX, SWEEP_AXES, HardwareSpec, ModelDefaults, ModelSpec, Record, VideoJob, increasing_along


class SweepSpec(Record):
    """One swept axis with values, the fixed job dims, and the cost context; ``run_sweep`` checks ``mu``.
    ``jobs``, each value's job by ``job_for``, is built on construction and kept outside the fields."""

    axis: str
    values: tuple
    fixed: VideoJob
    mu: float
    hardware: HardwareSpec

    def _check(self) -> None:
        if self.axis not in SWEEP_AXES:
            raise ValueError(f"axis must be one of {tuple(SWEEP_AXES)}, got {self.axis!r}")
        values = tuple(self.values)
        if not values:
            raise ValueError("values must be nonempty")
        jobs = tuple(map(self.job_for, values))  # so VideoJob words a bad value: frames must be an int, got 80.7
        self.__dict__.update(values=increasing_along(self.axis, values), jobs=jobs)  # a pair may be a list

    def job_for(self, value) -> VideoJob:
        if self.axis != "resolution":
            value = (value,)
        elif type(value) not in (tuple, list) or len(value) != 2:
            raise ValueError(f"resolution values must be (height, width) pairs, got {value!r}")
        return self.fixed.replace(**dict(zip(SWEEP_AXES[self.axis], value)))


class SweepPoint(Record):
    axis_value: object
    tokens: int
    cost: CostEstimate

    @property
    def breakdown(self) -> FlopBreakdown:
        return self.cost.breakdown


class SweepResult(Record):
    """Sweep output; iterates as the ordered list of points."""

    spec: SweepSpec
    points: tuple[SweepPoint, ...]

    def __iter__(self):
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, idx):
        return self.points[idx]


class ComparisonRow(Record):
    """One model's measured latency and energy; the total and each part's share of it are derived."""

    model_id: str
    latency_s: float
    gpu_wh: float
    cpu_wh: float
    ram_wh: float

    total_wh = property(lambda self: self.gpu_wh + self.cpu_wh + self.ram_wh)
    gpu_share = property(lambda self: self.gpu_wh / self.total_wh)
    cpu_share = property(lambda self: self.cpu_wh / self.total_wh)
    ram_share = property(lambda self: self.ram_wh / self.total_wh)


class ComparisonReport(Record):
    """Cross-model energy/latency table, sorted by total energy, descending."""

    rows: tuple[ComparisonRow, ...]

    @property
    def ratios(self) -> dict[tuple[str, str], float]:
        """The first row's total energy over the last row's, keyed by their model ids; empty for fewer than two rows."""
        if len(self.rows) < 2:
            return {}
        top, bottom = self.rows[0], self.rows[-1]
        return {(top.model_id, bottom.model_id): top.total_wh / bottom.total_wh}


def run_sweep(spec: SweepSpec, model: ModelSpec) -> SweepResult:
    """Evaluate the cost model at every swept value."""
    points = []
    for value, job in zip(spec.values, spec.jobs):
        cost = estimate_cost(job, model, spec.hardware, spec.mu)
        points.append(SweepPoint(value, token_length(job, model.dit), cost))
    return SweepResult(spec=spec, points=tuple(points))


def compare_models(
    defaults: list[ModelDefaults],
    measurements: list[MeasurementRecord],
) -> ComparisonReport:
    """Build the cross-model comparison from measured energy records, each of
    which must match a defaults entry by model_id."""
    ids = {d.model_id for d in defaults}
    rows = []
    for i, record in enumerate(measurements):
        if record.model_id not in ids:
            raise ValueError(f"{record.place(i)}: measurement for unknown model_id {record.model_id!r}")
        if record.latency_s is None or record.gpu_wh is None:
            raise ValueError(f"{record.place(i)}: comparison needs latency_s and gpu_wh for {record.model_id!r}")
        rows.append(ComparisonRow(record.model_id, record.latency_s, record.gpu_wh, record.cpu_wh, record.ram_wh))
        if rows[-1].total_wh > _MAX:
            raise ValueError(f"{record.place(i)}: gpu_wh + cpu_wh + ram_wh is too large for a float")
    report = ComparisonReport(tuple(sorted(rows, key=lambda r: (-r.total_wh, r.model_id))))
    for (a, b), ratio in report.ratios.items():
        if ratio > _MAX:
            raise ValueError(f"the total energy ratio {a} / {b} is too large for a float")
    return report


def emit(report: SweepResult | ComparisonReport, format: str) -> bytes:
    """Serialize a report as a table, CSV or JSON (laid out by ``output``) or as an SVG chart."""
    if isinstance(report, (SweepResult, ComparisonReport)):
        is_sweep = isinstance(report, SweepResult)
        if format == "svg":
            from . import charts

            return (charts.stacked_area_svg if is_sweep else charts.log_bar_svg)(report).encode("utf-8")
        from . import output

        if format in output.FORMATS:
            return (output.sweep if is_sweep else output.comparison)(report, format).encode("utf-8")
    raise ValueError(f"unsupported report/format pairing: {type(report).__name__} as {format!r}")
