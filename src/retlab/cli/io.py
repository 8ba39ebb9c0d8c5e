"""CSV ingestion and emission.

Three layouts, all UTF-8 / comma / `.` decimal / LF, dates as ISO year-month:

* wide: header ``date,<series...>``, one row per month.
* long: header ``date,series,value``, any row order; each series must cover
  a contiguous month span once sorted.
* constituents: header ``date,id,return,market_cap``.

Both return layouts go through one streamed reader, so neither row order
nor layout changes the panel. A rejection names the 1-based line its
record starts on, also after a quoted cell that spans lines, except a
gap, which names the series and the missing month.
"""

from __future__ import annotations

import csv
import math
from array import array
from collections.abc import Iterable
from contextlib import contextmanager
from io import StringIO
from itertools import islice
from pathlib import Path

import numpy as np

from ..errors import GapError, ParseError, ValidationError
from ..series import (
    ConstituentRecord,
    Month,
    Panel,
    ReturnSeries,
    TimeGrid,
    align,
)

LAYOUTS = ("wide", "long", "constituents")

# the most lines in one block that `csv_line_blocks` yields
_BLOCK_ROWS = 1024
# month ordinals run from 0001-01 (0) to 9999-12
_MONTHS = Month(9999, 12).ordinal + 1


def _records(reader):
    """(line number, stripped cells) of each non-blank record. The line is
    the physical one the record starts on: after a quoted cell that spans
    lines it runs ahead of the count of records."""
    line_no = 1
    for row in reader:
        if row:
            yield line_no, [cell.strip() for cell in row]
        line_no = reader.line_num + 1


@contextmanager
def _reading(path: Path):
    """Yield the header line number, the header and an iterator over the
    other non-blank records as (line number, stripped cells), read as it
    is iterated. The file closes when the with-block ends, also when it
    raises; a bare generator would stay open while the traceback lives."""
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            rows = _records(csv.reader(handle))
            first = next(rows, None)
            if first is None:
                raise ParseError(f"{path}: empty file")
            yield first[0], first[1], rows
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8: {exc}") from exc


def _parse_month(text: str, line_no: int) -> Month:
    try:
        return Month.parse(text)
    except (ValidationError, ValueError) as exc:
        raise ParseError(f"line {line_no}: malformed date {text!r}") from exc


def _parse_value(text: str, line_no: int, column: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise ParseError(
            f"line {line_no}: non-numeric value {text!r} in column {column!r}"
        ) from exc
    if not math.isfinite(value):
        raise ParseError(
            f"line {line_no}: non-finite value {text!r} in column {column!r}"
        )
    return value


class _Column:
    """One series' cells as they are read: values and month ordinals in
    file order, in typed arrays. While the months only rise, `top` is the
    latest, and a repeat is impossible; from the first row that does not
    rise, `seen` marks each month read, one byte per possible month."""

    __slots__ = ("values", "ordinals", "top", "seen")

    def __init__(self):
        self.values = array("d")
        self.ordinals = array("i")
        self.top = -1
        self.seen = None

    def mark(self, ordinal: int) -> bool:
        """Record that `ordinal` was read; False when it was already."""
        seen = self.seen
        if seen is None:
            if ordinal > self.top:
                self.top = ordinal
                return True
            seen = self.seen = bytearray(_MONTHS)
            for read in self.ordinals:
                seen[read] = 1
        if seen[ordinal]:
            return False
        seen[ordinal] = 1
        return True


def _series_of(label: str, column: _Column) -> ReturnSeries:
    """`column`'s series in month order; GapError names its first missing
    month."""
    ordinals = np.frombuffer(column.ordinals, dtype=np.intc)
    values = np.frombuffer(column.values)
    if column.seen is not None:
        order = np.argsort(ordinals)
        ordinals, values = ordinals[order], values[order]
    steps = np.flatnonzero(np.diff(ordinals) != 1)
    if steps.size:
        prev, cur = ordinals[steps[0] : steps[0] + 2].tolist()
        raise GapError(
            f"series {label!r}: missing month {Month.from_ordinal(prev + 1)} "
            f"between {Month.from_ordinal(prev)} and {Month.from_ordinal(cur)}"
        )
    grid = TimeGrid(Month.from_ordinal(int(ordinals[0])), len(ordinals))
    return ReturnSeries(label, grid, values)


def _panel_of(cells, path: Path, noun: str) -> Panel:
    """Panel on the common month span of (line, month ordinal, series,
    value text) cells; `noun` names a series in the blank-value message."""
    columns: dict[str, _Column] = {}
    for line_no, ordinal, label, text in cells:
        column = columns.get(label)
        if column is None:
            column = columns[label] = _Column()
        if not column.mark(ordinal):
            raise ParseError(
                f"line {line_no}: duplicate row for series {label!r} "
                f"at {Month.from_ordinal(ordinal)}"
            )
        if text == "":
            raise GapError(
                f"line {line_no}: missing value for {noun} {label!r} "
                f"at {Month.from_ordinal(ordinal)}"
            )
        column.values.append(_parse_value(text, line_no, label))
        column.ordinals.append(ordinal)
    if not columns:
        raise ParseError(f"{path}: no data rows")
    # each column is freed once its series holds the values
    return align([_series_of(label, columns.pop(label)) for label in list(columns)])


def _wide_cells(rows, header: list[str]):
    labels = header[1:]
    for line_no, row in rows:
        if len(row) != len(header):
            raise ParseError(
                f"line {line_no}: expected {len(header)} cells, got {len(row)}"
            )
        ordinal = _parse_month(row[0], line_no).ordinal
        for label, text in zip(labels, row[1:]):
            yield line_no, ordinal, label, text


def _long_cells(rows):
    # each distinct date text is parsed once
    ordinals: dict[str, int] = {}
    for line_no, row in rows:
        if len(row) != 3:
            raise ParseError(f"line {line_no}: expected 3 cells, got {len(row)}")
        ordinal = ordinals.get(row[0])
        if ordinal is None:
            ordinal = ordinals[row[0]] = _parse_month(row[0], line_no).ordinal
        if not row[1]:
            raise ParseError(f"line {line_no}: empty series name")
        yield line_no, ordinal, row[1], row[2]


def ingest_wide(path: Path) -> Panel:
    """Read a wide-layout CSV into a Panel.

    Rows may arrive in any month order; they are sorted. Gaps (a missing
    month or a blank cell) and duplicate months are rejected.
    """
    with _reading(path) as (header_line, header, rows):
        if len(header) < 2 or header[0] != "date":
            raise ParseError(
                f"line {header_line}: wide header must be 'date,<series...>', "
                f"got {','.join(header)!r}"
            )
        labels = header[1:]
        if "" in labels:
            raise ParseError(f"line {header_line}: empty series name in header")
        if len(set(labels)) != len(labels):
            raise ParseError(f"line {header_line}: duplicate series column in header")
        return _panel_of(_wide_cells(rows, header), path, "column")


def ingest_long(path: Path) -> Panel:
    """Read a long-layout CSV into a Panel on the common month span.

    Row order is irrelevant. Each series must cover a contiguous span;
    the panel is the intersection of the per-series spans.
    """
    with _reading(path) as (header_line, header, rows):
        if header != ["date", "series", "value"]:
            raise ParseError(
                f"line {header_line}: long header must be 'date,series,value', "
                f"got {','.join(header)!r}"
            )
        return _panel_of(_long_cells(rows), path, "series")


def ingest_constituents(path: Path) -> list[ConstituentRecord]:
    """Read a constituents-layout CSV into validated records."""
    with _reading(path) as (header_line, header, rows):
        if header != ["date", "id", "return", "market_cap"]:
            raise ParseError(
                f"line {header_line}: constituents header must be "
                f"'date,id,return,market_cap', got {','.join(header)!r}"
            )
        records: list[ConstituentRecord] = []
        seen: set[tuple[str, Month]] = set()
        for line_no, cells in rows:
            if len(cells) != 4:
                raise ParseError(f"line {line_no}: expected 4 cells, got {len(cells)}")
            month = _parse_month(cells[0], line_no)
            asset_id = cells[1]
            if not asset_id:
                raise ParseError(f"line {line_no}: empty constituent id")
            if (asset_id, month) in seen:
                raise ParseError(
                    f"line {line_no}: duplicate row for constituent {asset_id!r} "
                    f"at {month}"
                )
            seen.add((asset_id, month))
            ret = _parse_value(cells[2], line_no, "return")
            cap = _parse_value(cells[3], line_no, "market_cap")
            try:
                records.append(ConstituentRecord(asset_id, month, ret, cap))
            except ValidationError as exc:
                raise ParseError(f"line {line_no}: {exc}") from exc
    if not records:
        raise ParseError(f"{path}: no data rows")
    return records


def ingest(path: Path, layout: str):
    """Dispatch on layout: wide/long -> Panel, constituents -> records."""
    if layout == "wide":
        return ingest_wide(path)
    if layout == "long":
        return ingest_long(path)
    if layout == "constituents":
        return ingest_constituents(path)
    raise ValidationError(f"layout must be one of {LAYOUTS}, got {layout!r}")


def csv_cell(text: str) -> str:
    """`text` as one cell of a `write_csv` line: quoted and its quotes
    doubled where `csv.writer` would, by `csv.writer` itself."""
    buffer = StringIO()
    csv.writer(buffer, lineterminator="\n").writerow([text, None])
    return buffer.getvalue()[:-2]  # less the empty cell's "," and the "\n"


def csv_line_blocks(columns):
    """Blocks of whole `write_csv` lines, at most _BLOCK_ROWS each, whose
    cells are read side by side from `columns`, iterables of cell text
    (a label as `csv_cell` gives it, a number as its `str`). Two or more
    columns: `csv.writer` would write a lone empty cell as `""`."""
    lines = map(",".join, zip(*columns))
    while block := list(islice(lines, _BLOCK_ROWS)):
        yield "\n".join(block) + "\n"


def write_csv(path: Path, header: list[str], blocks: Iterable[str]) -> list[str]:
    """Emit a full-precision CSV with LF line endings: the `header` line,
    each name quoted by `csv_cell`, then `blocks`, each a block of whole
    lines as `csv_line_blocks` makes them, written as it comes, so a
    generator's blocks are made as they are written.

    Returns the artifact file names.
    """
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(map(csv_cell, header)) + "\n")
        handle.writelines(blocks)
    return [path.name]


def write_panel(path: Path, panel: Panel) -> list[str]:
    """Emit a panel as a wide-layout CSV; `ingest_wide` inverts it exactly.

    Returns the artifact file names.
    """
    return write_csv(path, ["date", *panel.labels], csv_line_blocks((
        panel.grid.labels(), *(map(repr, s.values.tolist()) for s in panel.series)
    )))
