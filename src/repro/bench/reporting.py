"""Plain-text / JSON emitters for experiment series.

The paper presents line charts; a reproduction without a display renders
the same series as fixed-width tables (one row per x value, one column
per algorithm).  ``render_table`` is deliberately dependency-free so the
output lands verbatim in terminal logs and the saved ``<figure>.txt``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

__all__ = ["render_table", "save_json", "format_value"]


def format_value(value: float | str) -> str:
    """Human-friendly rendering of one cell."""
    if isinstance(value, str):
        return value
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "-"
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1000:
            return f"{value:.0f}"
        if magnitude >= 10:
            return f"{value:.1f}"
        if magnitude >= 0.01:
            return f"{value:.3f}"
        return f"{value:.2e}"
    return str(value)


def render_table(
    title: str,
    x_name: str,
    xs: list,
    series: dict[str, list[float]],
    y_name: str = "value",
    notes: str = "",
) -> str:
    """Fixed-width text table: one row per x, one column per series."""
    headers = [x_name] + list(series)
    columns = [[format_value(x) for x in xs]] + [
        [format_value(v) for v in values] for values in series.values()
    ]
    widths = [
        max(len(header), *(len(cell) for cell in column)) if column else len(header)
        for header, column in zip(headers, columns)
    ]
    lines = [title, f"({y_name})"]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in range(len(xs)):
        lines.append("  ".join(column[row].ljust(w) for column, w in zip(columns, widths)))
    if notes:
        lines.append(f"note: {notes}")
    return "\n".join(lines) + "\n"


def save_json(path: str | Path, payload: dict) -> None:
    """Write *payload* as indented JSON (NaN encoded as null)."""
    def _clean(value):
        if isinstance(value, float) and math.isnan(value):
            return None
        if isinstance(value, dict):
            return {k: _clean(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [_clean(v) for v in value]
        return value

    Path(path).write_text(json.dumps(_clean(payload), indent=2) + "\n")
