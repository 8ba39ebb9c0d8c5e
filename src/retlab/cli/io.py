"""CSV ingestion and emission.

Three layouts, all UTF-8 / comma / `.` decimal / LF, dates as ISO year-month:

* wide: header ``date,<series...>``, one row per month.
* long: header ``date,series,value``, any row order; each series must cover
  a contiguous month span once sorted.
* constituents: header ``date,id,return,market_cap``.

Every rejection message carries the offending 1-based line number.
"""

from __future__ import annotations

import csv
import math
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


def _rows_of(path: Path) -> list[tuple[int, list[str]]]:
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            return [
                (line_no, [cell.strip() for cell in row])
                for line_no, row in enumerate(csv.reader(handle), start=1)
                if row
            ]
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


def _header(rows: list[tuple[int, list[str]]], path: Path) -> list[str]:
    if not rows:
        raise ParseError(f"{path}: empty file")
    return rows[0][1]


def ingest_wide(path: Path) -> Panel:
    """Read a wide-layout CSV into a Panel.

    Rows may arrive in any month order; they are sorted. Gaps (a missing
    month or a blank cell) and duplicate months are rejected.
    """
    rows = _rows_of(path)
    header = _header(rows, path)
    if len(header) < 2 or header[0] != "date":
        raise ParseError(
            f"line {rows[0][0]}: wide header must be 'date,<series...>', "
            f"got {','.join(header)!r}"
        )
    labels = header[1:]
    if len(set(labels)) != len(labels):
        raise ParseError(f"line {rows[0][0]}: duplicate series column in header")

    parsed: dict[Month, tuple[int, list[float]]] = {}
    for line_no, cells in rows[1:]:
        if len(cells) != len(header):
            raise ParseError(
                f"line {line_no}: expected {len(header)} cells, got {len(cells)}"
            )
        month = _parse_month(cells[0], line_no)
        if month in parsed:
            raise ParseError(f"line {line_no}: duplicate month {month}")
        values = []
        for label, cell in zip(labels, cells[1:]):
            if cell == "":
                raise GapError(
                    f"line {line_no}: missing value for column {label!r} at {month}"
                )
            values.append(_parse_value(cell, line_no, label))
        parsed[month] = (line_no, values)
    if not parsed:
        raise ParseError(f"{path}: no data rows")

    months = sorted(parsed)
    for prev, cur in zip(months, months[1:]):
        if cur - prev != 1:
            line_no = parsed[cur][0]
            raise GapError(
                f"line {line_no}: missing month {prev + 1} between {prev} and {cur}"
            )
    grid = TimeGrid(months[0], len(months))
    data = np.array([parsed[m][1] for m in months])
    return Panel(
        tuple(
            ReturnSeries(label, grid, data[:, j]) for j, label in enumerate(labels)
        )
    )


def ingest_long(path: Path) -> Panel:
    """Read a long-layout CSV into a Panel on the common month span.

    Row order is irrelevant. Each series must cover a contiguous span;
    the panel is the intersection of the per-series spans.
    """
    rows = _rows_of(path)
    header = _header(rows, path)
    if header != ["date", "series", "value"]:
        raise ParseError(
            f"line {rows[0][0]}: long header must be 'date,series,value', "
            f"got {','.join(header)!r}"
        )
    # each distinct date text is parsed once; rows bucket by month ordinal
    ordinals: dict[str, int] = {}
    by_series: dict[str, dict[int, float]] = {}
    for line_no, cells in rows[1:]:
        if len(cells) != 3:
            raise ParseError(f"line {line_no}: expected 3 cells, got {len(cells)}")
        ordinal = ordinals.get(cells[0])
        if ordinal is None:
            ordinal = ordinals[cells[0]] = _parse_month(cells[0], line_no).ordinal
        label = cells[1]
        if not label:
            raise ParseError(f"line {line_no}: empty series name")
        bucket = by_series.setdefault(label, {})
        if ordinal in bucket:
            raise ParseError(
                f"line {line_no}: duplicate row for series {label!r} "
                f"at {Month.from_ordinal(ordinal)}"
            )
        if cells[2] == "":
            raise GapError(
                f"line {line_no}: missing value for series {label!r} "
                f"at {Month.from_ordinal(ordinal)}"
            )
        bucket[ordinal] = _parse_value(cells[2], line_no, label)
    if not by_series:
        raise ParseError(f"{path}: no data rows")

    series = []
    for label, bucket in by_series.items():
        months = sorted(bucket)
        for prev, cur in zip(months, months[1:]):
            if cur - prev != 1:
                raise GapError(
                    f"series {label!r}: missing month {Month.from_ordinal(prev + 1)} "
                    f"between {Month.from_ordinal(prev)} and {Month.from_ordinal(cur)}"
                )
        grid = TimeGrid(Month.from_ordinal(months[0]), len(months))
        series.append(ReturnSeries(label, grid, [bucket[m] for m in months]))
    return align(series)


def ingest_constituents(path: Path) -> list[ConstituentRecord]:
    """Read a constituents-layout CSV into validated records."""
    rows = _rows_of(path)
    header = _header(rows, path)
    if header != ["date", "id", "return", "market_cap"]:
        raise ParseError(
            f"line {rows[0][0]}: constituents header must be "
            f"'date,id,return,market_cap', got {','.join(header)!r}"
        )
    records: list[ConstituentRecord] = []
    seen: set[tuple[str, Month]] = set()
    for line_no, cells in rows[1:]:
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


class _CellFormats(dict):
    """CSV cell formatters keyed by the cell's exact type. A type not in
    the table takes the formatter of its nearest base class that is, and
    is entered under its own type for the next cell."""

    def __missing__(self, kind: type):
        fmt = next(self[base] for base in kind.__mro__[1:] if base in self)
        self[kind] = fmt
        return fmt


_CELL_FORMATS = _CellFormats({
    object: str,
    type(None): lambda value: "",
    bool: str,
    np.bool_: lambda value: str(bool(value)),
    int: int.__repr__,
    np.integer: lambda value: str(int(value)),
    float: float.__repr__,
    np.floating: lambda value: repr(float(value)),
})


def full_precision(value) -> str:
    """Shortest decimal string that round-trips the float exactly."""
    return _CELL_FORMATS[type(value)](value)


def write_csv(path: Path, header: list[str], rows: list[list]) -> list[str]:
    """Emit a full-precision CSV with LF line endings.

    Returns the artifact file names.
    """
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([full_precision(cell) for cell in row] for row in rows)
    return [path.name]


def write_panel(path: Path, panel: Panel) -> list[str]:
    """Emit a panel as a wide-layout CSV; `ingest_wide` inverts it exactly.

    Returns the artifact file names.
    """
    header = ["date"] + list(panel.labels)
    rows = [
        [month] + values
        for month, values in zip(panel.grid.labels(), panel.values.tolist())
    ]
    return write_csv(path, header, rows)
