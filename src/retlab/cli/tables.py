"""Aligned text tables and their CSV twins, each column formatted in one pass.

Text tables print every float with exactly 3 fractional digits so diffs
line up; the CSV twin keeps full precision: a cell is the `str` that
`csv.writer` writes, for a float (numpy's included) the shortest decimal
that round-trips it. Missing values render as '.' in text and as an
empty cell in CSV.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .io import csv_cell, csv_line_blocks, write_csv


def _column(values) -> tuple[list[str], list[str], bool]:
    """The text cells, the CSV cells and the kind of one column: numeric
    (right-aligned) when every cell is missing or an int, float, bool or
    numpy number, which a `np.bool_` is not. Each distinct string is
    quoted once."""
    texts, cells = [], []
    numeric = True
    quoted: dict[str, str] = {}
    for value in values:
        if isinstance(value, (float, np.floating)):
            if math.isnan(value):
                text, cell = ".", ""
            else:
                text, cell = f"{float(value):.3f}", str(value)
        elif isinstance(value, (bool, np.bool_)):
            text, cell = "yes" if value else "no", str(value)
            numeric = numeric and isinstance(value, bool)
        elif isinstance(value, (int, np.integer)):
            text = cell = str(value)
        elif value is None:
            text, cell = ".", ""
        else:
            text = str(value)
            cell = quoted.get(text)
            if cell is None:
                cell = quoted[text] = csv_cell(text)
            numeric = numeric and isinstance(value, np.number)
        texts.append(text)
        cells.append(cell)
    return texts, cells, numeric


def write_table(
    out_dir: Path, name: str, title: str, header: list[str], rows: list[list]
) -> list[str]:
    """Write `<name>.txt` (aligned) and `<name>.csv` (full precision).

    The text table is the title, the header, a dashed rule and the rows;
    numeric columns are right-aligned, everything else left-aligned.
    Returns the artifact file names.
    """
    columns = [_column([row[j] for row in rows]) for j in range(len(header))]
    aligned = []  # each column's header, rule and text cells, padded
    for head, (texts, _, numeric) in zip(header, columns):
        width = max([len(head), *map(len, texts)])
        pad = str.rjust if numeric else str.ljust
        aligned.append([pad(text, width) for text in [head, "-" * width, *texts]])
    lines = [title, *("  ".join(parts).rstrip() for parts in zip(*aligned))]
    with open(out_dir / f"{name}.txt", "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")
    csv_name = f"{name}.csv"
    write_csv(
        out_dir / csv_name, header, csv_line_blocks(cells for _, cells, _ in columns)
    )
    return [f"{name}.txt", csv_name]
