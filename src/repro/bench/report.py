"""ASCII tables and heatmaps for the benches.

The paper shows line charts (Fig. 3, Fig. 5) and heatmaps (Fig. 4); the
benches print the same data as text: one table per sub-figure with the
sweep variable down the rows and the workloads across the columns, and
core x core heatmap grids for Fig. 4.
"""

from __future__ import annotations

import io
from typing import Dict, List, Optional, Sequence

__all__ = ["Table", "format_heatmap", "format_rate"]


def format_rate(value: float, unit: str) -> str:
    """Render one measurement in the paper's units."""
    if unit == "GiB/s":
        return f"{value / 2**30:7.2f}"
    if unit == "KIOPS":
        return f"{value / 1e3:7.1f}"
    if unit == "MIOPS":
        return f"{value / 1e6:7.3f}"
    return f"{value:9.3g}"


class Table:
    """A titled ASCII table with left header column."""

    def __init__(self, title: str, columns: Sequence[str], row_header: str = "") -> None:
        self.title = title
        self.columns = list(columns)
        self.row_header = row_header
        self.rows: List[List[str]] = []

    def add_row(self, header: str, values: Sequence[str]) -> None:
        """Append one row (values must match the column count)."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append([header, *values])

    def render(self) -> str:
        """The full table as a string."""
        headers = [self.row_header, *self.columns]
        widths = [
            max(len(str(headers[i])), *(len(r[i]) for r in self.rows), 6)
            if self.rows else max(len(str(headers[i])), 6)
            for i in range(len(headers))
        ]
        sep = "-+-".join("-" * w for w in widths)
        lines = [self.title, "=" * max(len(self.title), len(sep))]
        lines.append(" | ".join(str(h).rjust(w) for h, w in zip(headers, widths)))
        lines.append(sep)
        for row in self.rows:
            lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def format_heatmap(
    title: str,
    row_label: str,
    col_label: str,
    rows: Sequence[int],
    cols: Sequence[int],
    values: Dict[tuple, float],
    unit: str,
) -> str:
    """Render a Fig.-4-style heatmap grid (rows x cols of one metric)."""
    table = Table(f"{title}  [{unit}]  (rows: {row_label}, cols: {col_label})",
                  [str(c) for c in cols], row_header=f"{row_label}\\{col_label}")
    for r in rows:
        table.add_row(str(r), [format_rate(values[(r, c)], unit).strip() for c in cols])
    return table.render()


def render_series(
    title: str,
    x_name: str,
    xs: Sequence,
    series: Dict[str, List[float]],
    unit: str,
) -> str:
    """Render a Fig.-3/5-style line chart as a table: x down, series across."""
    table = Table(f"{title}  [{unit}]", list(series.keys()), row_header=x_name)
    for i, x in enumerate(xs):
        table.add_row(str(x), [format_rate(series[s][i], unit).strip() for s in series])
    return table.render()
