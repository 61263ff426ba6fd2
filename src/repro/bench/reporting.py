"""Plain-text reporting helpers for benchmark output.

The original figures are bar charts; the harness prints the same series as
aligned text tables so they can be compared against the paper's shapes and
captured into ``EXPERIMENTS.md``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence


def normalize(values: Mapping[str, float], baseline: str) -> Dict[str, float]:
    """Divide every value by the baseline entry (baseline becomes 1.0)."""
    base = values.get(baseline, 0.0)
    if base == 0.0:
        base = 1.0
    return {key: value / base for key, value in values.items()}


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str = "",
) -> str:
    """Render rows as a fixed-width text table."""
    materialized: List[List[str]] = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def render_row(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[index]) for index, cell in enumerate(cells))

    lines = []
    if title:
        lines.append(title)
    lines.append(render_row(list(headers)))
    lines.append("  ".join("-" * width for width in widths))
    lines.extend(render_row(row) for row in materialized)
    return "\n".join(lines)
