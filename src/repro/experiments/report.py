"""Plain-text rendering of tables.

The benchmark harness prints the same rows the paper reports; these
helpers keep the formatting consistent across experiments.
"""

from __future__ import annotations

from collections.abc import Sequence


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Fixed-width text table."""
    columns = [
        [str(header)] + [str(row[i]) for row in rows]
        for i, header in enumerate(headers)
    ]
    widths = [max(len(cell) for cell in column) for column in columns]
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(
        str(header).rjust(width) for header, width in zip(headers, widths)
    )
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in rows:
        lines.append(
            "  ".join(
                str(cell).rjust(width) for cell, width in zip(row, widths)
            )
        )
    return "\n".join(lines)


def fmt(value: float, digits: int = 1) -> str:
    """Format a float with fixed digits."""
    return f"{value:.{digits}f}"


def fmt_signed_pct(value: float, digits: int = 1) -> str:
    """Format a signed percentage (speedups)."""
    return f"{value:+.{digits}f}%"
