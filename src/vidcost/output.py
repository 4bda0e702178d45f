"""Every byte format of the CLI and of ``report.emit`` except SVG: aligned
tables, CSV and JSON.

Each result is laid out once, as rows under a tuple of columns. CSV writes
every column of those rows and the table a selection of them, each number shown
by ``_shown``. The roofline, calibration and comparison JSON are built from the
same rows; the estimate and sweep JSON are nested documents. Each layout imports
the layer it reads when it runs, so the roofline output never loads the cost code.
"""

from __future__ import annotations

import io
import json
from operator import attrgetter

from .specs import to_dict

FORMATS = ("table", "csv", "json")

ROOFLINE_COLUMNS = ("name", "theta_peak_tflops", "bandwidth_tbps", "balance", "attn_threshold",
                    "mlp_threshold", "consistent", "reference_balance")
CALIBRATION_COLUMNS = ("mu", "intercept_s", "r_squared", "records")
COMPARISON_COLUMNS = ("model_id", "latency_s", "gpu_wh", "cpu_wh", "ram_wh",
                      "total_wh", "gpu_share", "cpu_share", "ram_share")


def _table(headers, rows) -> str:
    """Left-aligned columns two spaces apart, with a dashed rule under the header."""
    widths = [max(len(str(r[i])) for r in [headers, *rows]) for i in range(len(headers))]
    lines = ["  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip() for row in [headers, *rows]]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def _fields(pairs) -> str:
    """One ``name  value`` line per pair, the values aligned."""
    width = max(len(name) for name, _ in pairs) + 2
    return "".join(f"{name.ljust(width)}{value}\n" for name, value in pairs)


def _shown(value: float, decimals: int) -> str:
    """A table's number: fixed point where that shows it (0, or a magnitude in [10**-decimals, 1e9)), else ``.4e``."""
    return f"{value:.{decimals}f}" if value == 0 or 10.0 ** -decimals <= abs(value) < 1e9 else f"{value:.4e}"


def _csv(columns, rows) -> str:
    import csv  # only CSV output pays for the module

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue()


def _json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _cost_doc(cost) -> dict:
    """The JSON fields of a cost estimate: FLOPs, latency and energy, in total and by operator."""
    return {"flops": cost.breakdown.as_dict(), "latency_s": cost.latency_s, "energy_j": cost.energy_j,
            "energy_wh": cost.energy_wh, "operator_latency_s": cost.operator_latency_s,
            "operator_energy_wh": cost.operator_energy_wh}


def _serialize(fmt: str, columns, rows, doc=None) -> str:
    """CSV of ``rows``, or JSON of ``doc`` (by default the rows as objects keyed by column)."""
    if fmt == "csv":
        return _csv(columns, rows)
    return _json([dict(zip(columns, row)) for row in rows] if doc is None else doc)


def estimate(model, hw, job, mu: float, cost, fmt: str) -> str:
    """One job's per-operator FLOPs, latency and energy, then the total."""
    from .cost import token_length

    bd = cost.breakdown
    tokens = token_length(job, model.dit)
    rows = [(op, flops, cost.operator_latency_s[op], cost.operator_energy_wh[op])
            for op, flops in bd.per_operator().items()]
    rows.append(("total", bd.total, cost.latency_s, cost.energy_wh))
    if fmt == "table":
        head = _fields([
            ("model", model.model_id),
            ("hardware", f"{hw.name} (mu={mu})"),
            ("job", f"{job.height_px}x{job.width_px}, {job.frames} frames, "
                    f"{job.steps} steps, {job.cfg_passes} cfg passes"),
            ("tokens", tokens),
        ])
        return head + "\n" + _table(
            ("operator", "flops", "share", "latency_s", "energy_wh"),
            [(op, f"{flops:.4e}", _shown(flops / bd.total * 100, 2) + "%", _shown(lat, 2), _shown(wh, 3))
             for op, flops, lat, wh in rows])
    doc = {"model_id": model.model_id, "hardware": hw.name, "mu": mu, "job": to_dict(job), "tokens": tokens,
           **_cost_doc(cost)}
    return _serialize(fmt, ("operator", "flops", "latency_s", "energy_wh"), rows, doc)


def roofline(entries, fmt: str) -> str:
    """Balance and compute-bound thresholds of each accelerator entry."""
    from .roofline import balance, balance_consistent, thresholds

    rows = [(hw.name, hw.theta_peak / 1e12, hw.bandwidth / 1e12, balance(hw), *thresholds(hw),
             balance_consistent(hw), hw.reference_balance) for hw in entries]
    if fmt == "table":
        return _table(
            ("name", "tflops", "tb_per_s", "balance", "attn_thr", "mlp_thr", "note"),
            [(name, _shown(tflops, 0), _shown(tbps, 2), _shown(beta, 0), attn, mlp,
              "" if consistent else f"published balance {reference} inconsistent with computed")
             for name, tflops, tbps, beta, attn, mlp, consistent, reference in rows])
    return _serialize(fmt, ROOFLINE_COLUMNS, rows)


def calibration(result, records: int, fmt: str) -> str:
    """A fitted efficiency and the number of records it was fitted on."""
    row = (result.mu, result.intercept_s, result.r_squared, records)
    if fmt == "table":
        *fitted, count = row
        return _fields(list(zip(CALIBRATION_COLUMNS, [*(_shown(value, 6) for value in fitted), count])))
    return _serialize(fmt, CALIBRATION_COLUMNS, [row], dict(zip(CALIBRATION_COLUMNS, row)))


def _axis_value(value) -> str:
    return f"{value[0]}x{value[1]}" if isinstance(value, tuple) else str(value)


def sweep(result, fmt: str) -> str:
    """One row per swept value: tokens, FLOPs by operator, latency and energy."""
    from .cost import OPERATORS

    if fmt == "json":
        return _json({
            "axis": result.spec.axis,
            "mu": result.spec.mu,
            "hardware": result.spec.hardware.name,
            "points": [{"axis_value": _axis_value(p.axis_value), "tokens": p.tokens, **_cost_doc(p.cost)}
                       for p in result.points],
        })
    columns = ("axis_value", "tokens", *(f"flops_{op}" for op in OPERATORS), "flops_total",
               "latency_s", "energy_wh")
    rows = [(_axis_value(p.axis_value), p.tokens, *p.breakdown.per_operator().values(), p.breakdown.total,
             p.cost.latency_s, p.cost.energy_wh) for p in result.points]
    if fmt == "table":
        return _table((result.spec.axis, "tokens", "flops_total", "latency_s", "energy_wh"),
                      [(value, tokens, f"{total:.4e}", _shown(lat, 2), _shown(wh, 3))
                       for value, tokens, *_, total, lat, wh in rows])
    return _serialize(fmt, columns, rows)


def comparison(report, fmt: str) -> str:
    """The cross-model rows, largest total energy first, and the energy ratio of the extremes."""
    rows = [attrgetter(*COMPARISON_COLUMNS)(r) for r in report.rows]
    ratios = sorted(report.ratios.items())
    if fmt == "table":
        return _table(
            ("model", "latency_s", "gpu_wh", "cpu_wh", "ram_wh", "total_wh", "gpu_share"),
            [(model_id, f"{lat:g}", f"{gpu:g}", f"{cpu:g}", f"{ram:g}", f"{total:.4g}", _shown(share * 100, 1) + "%")
             for model_id, lat, gpu, cpu, ram, total, share, _, _ in rows],
        ) + "".join(f"\ntotal energy ratio {a} / {b} ≈ {_shown(ratio, 0)}×\n" for (a, b), ratio in ratios)
    doc = {
        "rows": [dict(zip(COMPARISON_COLUMNS, row)) for row in rows],
        "ratios": [{"numerator": a, "denominator": b, "ratio": v} for (a, b), v in ratios],
    }
    return _serialize(fmt, COMPARISON_COLUMNS, rows, doc)
