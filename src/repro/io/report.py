"""Report emitters: markdown / CSV tables used by the benchmark harness.

Every experiment prints its table/figure series through these helpers so
EXPERIMENTS.md and the bench stdout share one formatting path.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Union

from ..errors import BenchmarkError

Cell = Union[str, int, float, None]


def format_float(value: float, digits: int = 2) -> str:
    """Fixed-point formatting with graceful handling of ints."""
    if value is None:
        return "-"
    if isinstance(value, int):
        return str(value)
    return f"{value:.{digits}f}"


def _render_cell(cell: Cell, digits: int) -> str:
    if cell is None:
        return "-"
    if isinstance(cell, float):
        return format_float(cell, digits)
    return str(cell)


def markdown_table(headers: Sequence[str],
                   rows: Iterable[Sequence[Cell]],
                   digits: int = 2) -> str:
    """Render a GitHub-flavoured markdown table with aligned columns."""
    headers = [str(h) for h in headers]
    rendered: List[List[str]] = [
        [_render_cell(c, digits) for c in row] for row in rows]
    for i, row in enumerate(rendered):
        if len(row) != len(headers):
            raise BenchmarkError(
                f"row {i} has {len(row)} cells for {len(headers)} headers")
    widths = [len(h) for h in headers]
    for row in rendered:
        for j, cell in enumerate(row):
            widths[j] = max(widths[j], len(cell))
    def fmt_row(cells: Sequence[str]) -> str:
        return "| " + " | ".join(
            c.ljust(widths[j]) for j, c in enumerate(cells)) + " |"
    lines = [fmt_row(headers),
             "|" + "|".join("-" * (w + 2) for w in widths) + "|"]
    lines.extend(fmt_row(row) for row in rendered)
    return "\n".join(lines)


def csv_table(headers: Sequence[str],
              rows: Iterable[Sequence[Cell]],
              digits: int = 4) -> str:
    """Render a CSV (no quoting needed for our numeric tables)."""
    def esc(cell: str) -> str:
        if "," in cell or '"' in cell or "\n" in cell:
            return '"' + cell.replace('"', '""') + '"'
        return cell
    lines = [",".join(esc(str(h)) for h in headers)]
    for row in rows:
        lines.append(",".join(esc(_render_cell(c, digits)) for c in row))
    return "\n".join(lines)


def series_block(title: str, labels: Sequence[str],
                 values: Sequence[float], unit: str = "",
                 digits: int = 2) -> str:
    """A labelled series printed as a small aligned block.

    Used for figure reproductions: each figure is a set of (label, value)
    series rather than a table.
    """
    if len(labels) != len(values):
        raise BenchmarkError(
            f"{len(labels)} labels for {len(values)} values")
    width = max((len(str(lab)) for lab in labels), default=0)
    lines = [title]
    for lab, val in zip(labels, values):
        lines.append(f"  {str(lab).ljust(width)} : "
                     f"{format_float(float(val), digits)}{unit}")
    return "\n".join(lines)
