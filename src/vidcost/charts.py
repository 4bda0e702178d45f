"""Minimal deterministic SVG charts: stacked operator areas for sweeps and
log-scale energy bars for model comparisons. Hand-rolled so identical inputs
always produce identical bytes."""

from __future__ import annotations

import math

from .cost import OPERATORS
from .output import _axis_value

WIDTH = 900
HEIGHT = 480
MARGIN = 60

PALETTE = {
    "text": "#8dd3c7",
    "vae_conv": "#bebada",
    "vae_mid_attn": "#80b1d3",
    "self_attn": "#fb8072",
    "cross_attn": "#fdb462",
    "mlp": "#b3de69",
    "timestep": "#fccde5",
}


# The XML escapes of & < > ", applied to every text a chart takes from data.
_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;"})


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _header(title: str) -> list[str]:
    """The opening lines of a chart: canvas, title and the two axes."""
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.0f}" y="24" text-anchor="middle" font-family="sans-serif" '
        f'font-size="16">{title.translate(_ESCAPES)}</text>',
        f'<line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black"/>',
        f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" y2="{HEIGHT - MARGIN}" stroke="black"/>',
    ]


def stacked_area_svg(result) -> str:
    """Stacked per-operator energy (Wh) across the swept values."""
    points = result.points
    n = len(points)
    parts = _header(f"energy by operator vs {result.spec.axis}")
    if n == 0:
        parts.append("</svg>")
        return "\n".join(parts) + "\n"

    top = max(p.cost.energy_wh for p in points)
    top = top if top > 0 else 1.0
    span_x = WIDTH - 2 * MARGIN
    span_y = HEIGHT - 2 * MARGIN

    def x_at(i: int) -> float:
        return MARGIN + (span_x * i / (n - 1) if n > 1 else span_x / 2)

    def y_at(value: float) -> float:
        return HEIGHT - MARGIN - span_y * value / top

    cumulative = [0.0] * n
    for op in OPERATORS:
        base = list(cumulative)
        cumulative = [c + p.cost.operator_energy_wh[op] for c, p in zip(cumulative, points)]
        coords = [f"{_fmt(x_at(i))},{_fmt(y_at(cumulative[i]))}" for i in range(n)]
        coords += [f"{_fmt(x_at(i))},{_fmt(y_at(base[i]))}" for i in reversed(range(n))]
        parts.append(f'<polygon points="{" ".join(coords)}" fill="{PALETTE[op]}" stroke="none"/>')

    for anchor, point, x in (("start", points[0], x_at(0)), ("end", points[-1], x_at(n - 1))):
        parts.append(
            f'<text x="{_fmt(x)}" y="{HEIGHT - MARGIN + 20}" text-anchor="{anchor}" '
            f'font-family="sans-serif" font-size="12">{_axis_value(point.axis_value)}</text>'
        )
    parts.append(
        f'<text x="{MARGIN - 8}" y="{MARGIN}" text-anchor="end" font-family="sans-serif" '
        f'font-size="12">{top:.3g} Wh</text>'
    )
    for i, op in enumerate(OPERATORS):
        y = MARGIN + 16 * i
        parts.append(f'<rect x="{WIDTH - MARGIN - 130}" y="{y - 10}" width="12" height="12" fill="{PALETTE[op]}"/>')
        parts.append(
            f'<text x="{WIDTH - MARGIN - 112}" y="{y}" font-family="sans-serif" font-size="12">{op}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def log_bar_svg(report) -> str:
    """Total energy per model on a log scale, one bar per comparison row."""
    rows = report.rows
    parts = _header("total energy per video (log scale)")
    if rows:
        values = [r.total_wh for r in rows]
        lo = math.floor(math.log10(min(values)))
        hi = math.ceil(math.log10(max(values)))
        hi = hi if hi > lo else lo + 1
        span_x = WIDTH - 2 * MARGIN
        span_y = HEIGHT - 2 * MARGIN
        bar_w = span_x / len(rows) * 0.6
        for i, row in enumerate(rows):
            frac = (math.log10(row.total_wh) - lo) / (hi - lo)
            x = MARGIN + span_x * (i + 0.5) / len(rows)
            h = span_y * frac
            parts.append(
                f'<rect x="{_fmt(x - bar_w / 2)}" y="{_fmt(HEIGHT - MARGIN - h)}" '
                f'width="{_fmt(bar_w)}" height="{_fmt(h)}" fill="#80b1d3"/>'
            )
            parts.append(
                f'<text x="{_fmt(x)}" y="{_fmt(HEIGHT - MARGIN - h - 6)}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="11">{row.total_wh:.3g}</text>'
            )
            parts.append(
                f'<text x="{_fmt(x)}" y="{HEIGHT - MARGIN + 16}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="10">{row.model_id.translate(_ESCAPES)}</text>'
            )
        parts.append(
            f'<text x="{MARGIN - 8}" y="{MARGIN}" text-anchor="end" font-family="sans-serif" '
            f'font-size="12">1e{hi} Wh</text>'
        )
        parts.append(
            f'<text x="{MARGIN - 8}" y="{HEIGHT - MARGIN}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">1e{lo} Wh</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
