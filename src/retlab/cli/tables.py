"""Aligned text tables and their CSV twins.

Text tables print every float with exactly 3 fractional digits so diffs
line up; the CSV twin keeps full precision (see `io.write_csv`).
Missing values render as '.' in text and as an empty cell in CSV.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .io import write_csv


def _is_missing(value) -> bool:
    if value is None:
        return True
    return isinstance(value, (float, np.floating)) and math.isnan(value)


def text_cell(value) -> str:
    if _is_missing(value):
        return "."
    if isinstance(value, (bool, np.bool_)):
        return "yes" if value else "no"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.3f}"
    return str(value)


def render_table(title: str, header: list[str], rows: list[list]) -> str:
    """One aligned table: title, header, dashed rule, rows.

    Numeric columns are right-aligned, everything else left-aligned.
    """
    cells = [[text_cell(v) for v in row] for row in rows]
    numeric = [
        all(
            _is_missing(row[j]) or isinstance(row[j], (int, float, np.number, bool))
            for row in rows
        )
        for j in range(len(header))
    ]
    widths = [
        max(len(header[j]), max((len(r[j]) for r in cells), default=0))
        for j in range(len(header))
    ]

    def fmt(parts: list[str]) -> str:
        out = []
        for j, part in enumerate(parts):
            out.append(part.rjust(widths[j]) if numeric[j] else part.ljust(widths[j]))
        return "  ".join(out).rstrip()

    lines = [title, fmt(header), fmt(["-" * w for w in widths])]
    lines.extend(fmt(r) for r in cells)
    return "\n".join(lines) + "\n"


def write_table(
    out_dir: Path, name: str, title: str, header: list[str], rows: list[list]
) -> list[str]:
    """Write `<name>.txt` (aligned) and `<name>.csv` (full precision).

    Returns the artifact file names.
    """
    text_path = out_dir / f"{name}.txt"
    with open(text_path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(render_table(title, header, rows))
    csv_name = f"{name}.csv"
    write_csv(
        out_dir / csv_name, header,
        ([None if _is_missing(v) else v for v in row] for row in rows),
    )
    return [f"{name}.txt", csv_name]
