"""Spans and counts recorded around vidcost's public calls, from outside the package.

``instrument`` swaps each traced function for a wrapper in every ``vidcost``
module namespace that holds it, so calls the package makes internally (for
example ``total_flops`` calling ``mlp_flops``) are traced too. Spans stay in
memory in flat arrays and are written out when the run ends. A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
from array import array
from collections import defaultdict
from time import perf_counter_ns

# Module -> functions traced in it. A name vidcost no longer has stops the run.
TRACED = {
    "specs": ("load_model_spec", "load_hardware", "load_hardware_db"),
    "cost": ("estimate_cost", "total_flops", "token_length", "self_attention_flops",
             "cross_attention_flops", "mlp_flops", "timestep_flops_per_pass",
             "text_encoder_flops", "cost_from_breakdown"),
    "vae": ("decoder_flops", "conv3d_flops", "mid_attention_flops"),
    "roofline": ("classify", "thresholds"),
    "calibration": ("read_measurements_csv", "fit_mu", "validate"),
    "report": ("run_sweep",),
}

# Traced function -> counter that adds up the length of its result.
COUNTED = {"read_measurements_csv": "calibration.records", "run_sweep": "report.points"}

EMIT_SPANS = {"csv": "report.emit_csv", "json": "report.emit_json", "svg": "charts.emit_svg"}
CLI_SUBCOMMANDS = ("estimate", "roofline", "compare", "sweep", "calibrate")

# (metric, span, statistic, unit): the median per-call duration ("total") or
# self time ("self") of a span, in the metric's unit.
SPAN_METRICS = [
    ("specs.VideoJob_us", "specs.VideoJob", "total", "us"),
    ("cost.estimate_cost_us", "cost.estimate_cost", "total", "us"),
    ("cost.estimate_cost_self_us", "cost.estimate_cost", "self", "us"),
    ("cost.total_flops_us", "cost.total_flops", "total", "us"),
    ("cost.total_flops_self_us", "cost.total_flops", "self", "us"),
    ("cost.token_length_us", "cost.token_length", "total", "us"),
    ("cost.self_attention_flops_us", "cost.self_attention_flops", "total", "us"),
    ("cost.cross_attention_flops_us", "cost.cross_attention_flops", "total", "us"),
    ("cost.mlp_flops_us", "cost.mlp_flops", "total", "us"),
    ("cost.timestep_flops_per_pass_us", "cost.timestep_flops_per_pass", "total", "us"),
    ("cost.text_encoder_flops_us", "cost.text_encoder_flops", "total", "us"),
    ("cost.cost_from_breakdown_us", "cost.cost_from_breakdown", "total", "us"),
    ("vae.decoder_flops_us", "vae.decoder_flops", "total", "us"),
    ("vae.decoder_flops_self_us", "vae.decoder_flops", "self", "us"),
    ("vae.conv3d_flops_us", "vae.conv3d_flops", "total", "us"),
    ("vae.mid_attention_flops_us", "vae.mid_attention_flops", "total", "us"),
    ("roofline.classify_us", "roofline.classify", "total", "us"),
    ("roofline.thresholds_us", "roofline.thresholds", "total", "us"),
    ("calibration.read_measurements_csv_ms", "calibration.read_measurements_csv", "total", "ms"),
    ("calibration.fit_mu_ms", "calibration.fit_mu", "total", "ms"),
    ("calibration.fit_mu_self_ms", "calibration.fit_mu", "self", "ms"),
    ("calibration.validate_ms", "calibration.validate", "total", "ms"),
    ("calibration.validate_self_ms", "calibration.validate", "self", "ms"),
    ("report.run_sweep_ms", "report.run_sweep", "total", "ms"),
    ("report.run_sweep_self_ms", "report.run_sweep", "self", "ms"),
    ("report.emit_csv_ms", "report.emit_csv", "total", "ms"),
    ("report.emit_json_ms", "report.emit_json", "total", "ms"),
    ("charts.emit_svg_ms", "charts.emit_svg", "total", "ms"),
    *[(f"cli.{sub}_ms", f"cli.{sub}", "total", "ms") for sub in CLI_SUBCOMMANDS],
]

# Per workload, prefixes of the per-layer metrics whose layers it does not
# reach by design; those read 0 there. Every other layer metric must be
# reached, or the traced run fails: a 0 must never stand for a lost span.
NOT_REACHED = {
    "cli-oneshot": ("roofline.classify_", "calibration.validate_"),
    "estimate-mix": ("calibration.", "report.", "charts.", "cli."),
    "calibrate-fit": ("cost.estimate_cost_", "cost.cost_from_breakdown_", "roofline.", "report.", "charts.",
                      "cli."),
}

UNIT_NS = {"us": 1e3, "ms": 1e6, "s": 1e9}

# Spans one traced phase may hold, to bound the memory they take. A phase
# stops at the first op that reaches it, so a traced estimate-mix phase runs
# about 50-60 queries (5-6k spans each), however long --seconds is.
SPAN_LIMIT = 300_000


class LayerNotReached(Exception):
    """A layer that a workload is built to exercise recorded no spans or counts."""


class Tracer:
    """In-memory spans (name, start, end, parent, op id) and counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.counters: dict[str, float] = defaultdict(float)
        self.active = False
        self.op_id = -1
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def wrap(self, name, fn, counter: str | None = None):
        """``fn``, recording a span when the tracer is active. ``name`` is a span
        name or a function of the call's arguments; ``counter`` adds up len(result)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self.open(name(*args, **kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if counter is not None:
                self.counters[counter] += len(result)
            return result

        return traced

    def dump(self) -> dict:
        return {"names": self.names, "start": self.start.tolist(), "end": self.end.tolist(),
                "parent": self.parent.tolist(), "op": self.op.tolist(), "counters": dict(self.counters)}

    def merge(self, dump: dict, op_id: int) -> None:
        """Append spans recorded in another process, all under one op id."""
        base = len(self.names)
        self.names.extend(dump["names"])
        self.start.extend(dump["start"])
        self.end.extend(dump["end"])
        self.parent.extend(p + base if p >= 0 else -1 for p in dump["parent"])
        self.op.extend(op_id for _ in dump["names"])
        for counter, amount in dump["counters"].items():
            self.counters[counter] += amount

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.dump(), fh)

    def durations(self) -> tuple[dict[str, list[int]], dict[str, list[int]]]:
        """Per span name, the list of total and of self durations in ns."""
        child_ns = [0] * len(self.names)
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                child_ns[parent] += self.end[idx] - self.start[idx]
        total, own = defaultdict(list), defaultdict(list)
        for idx, name in enumerate(self.names):
            duration = self.end[idx] - self.start[idx]
            total[name].append(duration)
            own[name].append(duration - child_ns[idx])
        return total, own

    def layer_metrics(self, ops: int) -> dict[str, dict]:
        """Every span and count metric; a layer the ops never reached reads 0."""
        total, own = self.durations()
        out = {}
        for metric, span, stat, unit in SPAN_METRICS:
            samples = (total if stat == "total" else own).get(span)
            value = statistics.median(samples) / UNIT_NS[unit] if samples else 0.0
            out[metric] = {"value": value, "unit": unit}
        counts = {
            "cost.calls": sum(len(v) for k, v in total.items() if k.startswith("cost.")),
            "vae.rows": len(total.get("vae.conv3d_flops", ())),
            "calibration.records": self.counters.get("calibration.records", 0),
            "report.points": self.counters.get("report.points", 0),
        }
        for metric, count in counts.items():
            out[metric] = {"value": count / max(ops, 1), "unit": "count"}
        emits = sum(len(total.get(span, ())) for span in EMIT_SPANS.values())
        out["report.emit_bytes"] = {"value": self.counters.get("report.emit_bytes", 0) / max(emits, 1),
                                    "unit": "bytes"}
        return out


def require_reached(metrics: dict[str, dict], workload: str) -> None:
    """Raise LayerNotReached if a layer metric the workload should move reads 0."""
    missing = [name for name, m in metrics.items()
               if m["value"] <= 0 and not name.startswith(NOT_REACHED[workload])]
    if missing:
        raise LayerNotReached(f"traced {workload} ops reached no {', '.join(missing)}")


def _replace_everywhere(original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "vidcost" or name.startswith("vidcost.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def instrument(tracer: Tracer) -> None:
    """Route vidcost's traced public functions through ``tracer``."""
    for module_name, attrs in TRACED.items():
        module = importlib.import_module(f"vidcost.{module_name}")
        for attr in attrs:
            original = getattr(module, attr)
            _replace_everywhere(original, tracer.wrap(f"{module_name}.{attr}", original, COUNTED.get(attr)))

    report = importlib.import_module("vidcost.report")
    emit = report.emit

    def emit_span(result, format=None, *rest, **kwargs):
        fmt = format if format is not None else kwargs.get("format")
        return EMIT_SPANS.get(fmt, "report.emit")

    _replace_everywhere(emit, tracer.wrap(emit_span, emit, "report.emit_bytes"))

    video_job = importlib.import_module("vidcost.specs").VideoJob
    video_job.__init__ = tracer.wrap("specs.VideoJob", video_job.__init__)
