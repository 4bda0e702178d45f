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
SPAN_X = WIDTH - 2 * MARGIN  # the plot area inside the margins
SPAN_Y = HEIGHT - 2 * MARGIN

# Each operator's fill, in OPERATORS order.
PALETTE = dict(zip(OPERATORS, ("#8dd3c7", "#bebada", "#80b1d3", "#fb8072", "#fdb462", "#b3de69", "#fccde5"),
                   strict=True))


# The XML escapes of & < > ", applied by ``_text`` to every text a chart writes.
_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;"})


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _text(x, y, body: str, size: int, anchor: str | None = None) -> str:
    """A ``<text>`` element holding ``body``, escaped; without ``text-anchor`` when ``anchor`` is None."""
    attributes = f'x="{x}" y="{y}"' + ("" if anchor is None else f' text-anchor="{anchor}"')
    return f'<text {attributes} font-family="sans-serif" font-size="{size}">{body.translate(_ESCAPES)}</text>'


def _svg(title: str, body: list[str]) -> str:
    """The chart document: canvas, title and the two axes, then the ``body`` elements."""
    return "\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        _text(WIDTH // 2, 24, title, 16, "middle"),
        f'<line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black"/>',
        f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" y2="{HEIGHT - MARGIN}" stroke="black"/>',
        *body,
        "</svg>",
    ]) + "\n"


def stacked_area_svg(result) -> str:
    """Stacked per-operator energy (Wh) across the swept values."""
    points = result.points
    n = len(points)
    title = f"energy by operator vs {result.spec.axis}"
    if n == 0:
        return _svg(title, [])

    top = max(p.cost.energy_wh for p in points) or 1.0  # 1.0 for an all-zero sweep, as no energy is negative

    def y_at(value: float) -> str:
        return _fmt(HEIGHT - MARGIN - SPAN_Y * value / top)

    xs = [_fmt(MARGIN + (SPAN_X * i / (n - 1) if n > 1 else SPAN_X / 2)) for i in range(n)]
    body = []
    cumulative = [0.0] * n
    for op in OPERATORS:
        base = cumulative
        cumulative = [c + p.cost.operator_energy_wh[op] for c, p in zip(cumulative, points)]
        coords = [f"{x},{y_at(c)}" for x, c in zip(xs, cumulative)]
        coords += [f"{x},{y_at(b)}" for x, b in zip(reversed(xs), reversed(base))]
        body.append(f'<polygon points="{" ".join(coords)}" fill="{PALETTE[op]}" stroke="none"/>')

    for anchor, point, x in (("start", points[0], xs[0]), ("end", points[-1], xs[-1])):
        body.append(_text(x, HEIGHT - MARGIN + 20, _axis_value(point.axis_value), 12, anchor))
    body.append(_text(MARGIN - 8, MARGIN, f"{top:.3g} Wh", 12, "end"))
    for i, op in enumerate(OPERATORS):
        y = MARGIN + 16 * i
        body.append(f'<rect x="{WIDTH - MARGIN - 130}" y="{y - 10}" width="12" height="12" fill="{PALETTE[op]}"/>')
        body.append(_text(WIDTH - MARGIN - 112, y, op, 12))
    return _svg(title, body)


def log_bar_svg(report) -> str:
    """Total energy per model on a log scale, one bar per comparison row."""
    rows = report.rows
    body = []
    if rows:
        values = [r.total_wh for r in rows]
        lo = math.floor(math.log10(min(values)))
        hi = math.ceil(math.log10(max(values)))
        hi = hi if hi > lo else lo + 1
        bar_w = SPAN_X / len(rows) * 0.6
        for i, row in enumerate(rows):
            frac = (math.log10(row.total_wh) - lo) / (hi - lo)
            x = MARGIN + SPAN_X * (i + 0.5) / len(rows)
            h = SPAN_Y * frac
            body.append(f'<rect x="{_fmt(x - bar_w / 2)}" y="{_fmt(HEIGHT - MARGIN - h)}" '
                        f'width="{_fmt(bar_w)}" height="{_fmt(h)}" fill="#80b1d3"/>')
            body.append(_text(_fmt(x), _fmt(HEIGHT - MARGIN - h - 6), f"{row.total_wh:.3g}", 11, "middle"))
            body.append(_text(_fmt(x), HEIGHT - MARGIN + 16, row.model_id, 10, "middle"))
        body.append(_text(MARGIN - 8, MARGIN, f"1e{hi} Wh", 12, "end"))
        body.append(_text(MARGIN - 8, HEIGHT - MARGIN, f"1e{lo} Wh", 12, "end"))
    return _svg("total energy per video (log scale)", body)
