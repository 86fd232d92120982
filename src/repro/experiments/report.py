"""Small text-reporting helpers shared by benchmarks and examples."""

from __future__ import annotations

from typing import Iterable, List, Mapping, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                 title: str = "") -> str:
    """Render a list of rows as an aligned text table."""
    rows = [list(map(str, row)) for row in rows]
    widths = [len(header) for header in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(" | ".join(header.ljust(width)
                            for header, width in zip(headers, widths)))
    lines.append("-+-".join("-" * width for width in widths))
    for row in rows:
        lines.append(" | ".join(cell.ljust(width)
                                for cell, width in zip(row, widths)))
    return "\n".join(lines)


def format_mapping(mapping: Mapping[object, object], title: str = "") -> str:
    """Render a mapping as an aligned two-column text table."""
    rows = [(key, value) for key, value in mapping.items()]
    return format_table(("parameter", "value"), rows, title=title)
