"""ASCII chart rendering for recommended visualizations.

Offline substitute for the paper's plotly front-end: renders the
:class:`ChartSpec` kinds as monospace text so examples and tests can show
the full interaction loop end-to-end without a browser.
"""

from __future__ import annotations

from ..database import ResultSet
from .recommend import BAR, BIG_NUMBER, HISTOGRAM, SCATTER, ChartSpec


def render_chart(spec: ChartSpec, result: ResultSet, width: int = 60) -> str:
    """Render ``result`` under ``spec`` as multi-line ASCII art."""
    if spec.kind == BIG_NUMBER:
        return _render_big_number(spec, result)
    if spec.kind == BAR:
        return _render_bar(spec, result, width)
    if spec.kind == HISTOGRAM:
        return _render_histogram(spec, result, width)
    if spec.kind == SCATTER:
        return _render_scatter(spec, result, width)
    return _render_table(result, width)


def _render_big_number(spec: ChartSpec, result: ResultSet) -> str:
    value = result.rows[0][0] if result.rows else "-"
    label = spec.y or (result.columns[0] if result.columns else "")
    body = f"  {value}  "
    border = "+" + "-" * len(body) + "+"
    return "\n".join([spec.title, border, f"|{body}|", border, f" {label}"]).strip()

def _render_bar(spec: ChartSpec, result: ResultSet, width: int) -> str:
    labels = [str(v) for v in result.column(spec.x)] if spec.x else []
    values = [float(v or 0) for v in result.column(spec.y)] if spec.y else []
    if not values:
        return _render_table(result, width)
    label_w = max((len(s) for s in labels), default=1)
    max_value = max(values) or 1.0
    bar_w = max(4, width - label_w - 12)
    lines = [spec.title] if spec.title else []
    for label, value in zip(labels, values):
        bar = "#" * max(1, int(round(bar_w * value / max_value)))
        lines.append(f"{label:>{label_w}} | {bar} {value:g}")
    return "\n".join(lines)


def _render_histogram(spec: ChartSpec, result: ResultSet, width: int, bins: int = 8) -> str:
    values = [float(v) for v in result.column(spec.x) if v is not None]
    if not values:
        return "(no data)"
    lo, hi = min(values), max(values)
    if hi == lo:
        hi = lo + 1.0
    counts = [0] * bins
    for value in values:
        index = min(bins - 1, int((value - lo) / (hi - lo) * bins))
        counts[index] += 1
    max_count = max(counts) or 1
    bar_w = max(4, width - 22)
    lines = [spec.title] if spec.title else []
    for i, count in enumerate(counts):
        left = lo + (hi - lo) * i / bins
        right = lo + (hi - lo) * (i + 1) / bins
        bar = "#" * max(0, int(round(bar_w * count / max_count)))
        lines.append(f"[{left:7.2f},{right:7.2f}) | {bar} {count}")
    return "\n".join(lines)


def _render_scatter(
    spec: ChartSpec, result: ResultSet, width: int, height: int = 16
) -> str:
    xs = [float(v) for v in result.column(spec.x) if v is not None]
    ys = [float(v) for v in result.column(spec.y) if v is not None]
    if not xs or not ys:
        return "(no data)"
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    grid = [[" "] * width for _ in range(height)]
    for x, y in zip(xs, ys):
        col = min(width - 1, int((x - x_lo) / (x_hi - x_lo) * (width - 1)))
        row = min(height - 1, int((y - y_lo) / (y_hi - y_lo) * (height - 1)))
        grid[height - 1 - row][col] = "*"
    lines = [spec.title] if spec.title else []
    lines.append(f"{spec.y} ^")
    lines.extend("  |" + "".join(row) for row in grid)
    lines.append("  +" + "-" * width + f"> {spec.x}")
    return "\n".join(lines)


def _render_table(result: ResultSet, width: int, max_rows: int = 12) -> str:
    if not result.columns:
        return "(empty)"
    columns = result.columns
    rows = [tuple(str(v) for v in row) for row in result.rows[:max_rows]]
    widths = [len(c) for c in columns]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    header = " | ".join(c.ljust(w) for c, w in zip(columns, widths))
    sep = "-+-".join("-" * w for w in widths)
    lines = [header, sep]
    lines.extend(
        " | ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in rows
    )
    if result.num_rows > max_rows:
        lines.append(f"... ({result.num_rows - max_rows} more rows)")
    return "\n".join(lines)
