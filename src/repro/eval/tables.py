"""Plain-text table rendering for experiment output.

Benchmarks print paper-style tables; these helpers keep the formatting in
one place (aligned columns, floats to ``PRECISION`` decimals).
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

#: Decimal places of every float cell.
PRECISION = 3


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.{PRECISION}f}"
    if isinstance(value, tuple):
        return "x".join(str(v) for v in value)
    return str(value)


def format_table(rows: Sequence[Mapping[str, Any]],
                 columns: Sequence[str] | None = None,
                 title: str | None = None) -> str:
    """Render a list of dict rows as an aligned text table."""
    if not rows:
        return (title + "\n" if title else "") + "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    cells = [[_format_value(row.get(col, "")) for col in columns]
             for row in rows]
    widths = [
        max(len(col), *(len(row[i]) for row in cells))
        for i, col in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)
