"""CSV ingestion and emission.

Three layouts, all UTF-8 / comma / `.` decimal / LF, dates as ISO year-month:

* wide: header ``date,<series...>``, one row per month.
* long: header ``date,series,value``, any row order; each series must cover
  a contiguous month span once sorted.
* constituents: header ``date,id,return,market_cap``.

Both return layouts first try a bulk reader, then, if it cannot vouch
for the file, one streamed checked reader, so neither row order nor
layout changes the panel. The bulk reader takes the file in blocks of
whole lines, about `_CHUNK_BYTES` each, and proves each block plainly
well-formed with array operations: every byte printable ASCII with no
quote or space (a line ends in a bare LF), every line the layout's count
of commas, every date seven bytes ``YYYY-MM``, every value finite and
read by `float` without a ``_``. It appends each series' values and
month ordinals to the same typed arrays the checked reader fills, and
hands them on only if each series holds every month of its span once.
On anything else (a quoted cell, CRLF, a blank line or cell, a bad date
or value, a duplicate or a gap) it gives up, and the checked reader
reads the file again from the top, so every rejection and which fault
is named first are the checked reader's. A rejection names the 1-based
line its record starts on, also after a quoted cell that spans lines,
except a gap, which names the series and the missing month. On a 2-core
Linux machine (Python 3.11, numpy 2.4) the bulk reader took a 4.0 MB
long file of 120,000 rows in 0.081 s against the checked reader's
0.241 s, and a 600 x 30 wide file in 7.7 against 17.1 ms.
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
# bytes the bulk reader reads at once, cut back to whole lines
_CHUNK_BYTES = 1 << 15
# the bytes a plainly well-formed file holds: printable ASCII less the
# quote and the space, and the LF that ends each line; `bytes.translate`
# deletes them in one table lookup a byte
_PLAIN = bytes(sorted({*range(0x21, 0x7F), ord("\n")} - {ord('"')}))
# a plain date's bytes, less b"0": four digits, "-", two digits
_DATE_LOW = np.array([0, 0, 0, 0, ord("-") - ord("0"), 0, 0], dtype=np.intc)
_DATE_HIGH = np.array([9, 9, 9, 9, ord("-") - ord("0"), 9, 9], dtype=np.intc)
# a plain date's digits to its month ordinal, less 13: year * 12 + month
_DATE_WEIGHTS = np.array([12000, 1200, 120, 12, 0, 10, 1], dtype=np.intc)


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
def _opened(path: Path):
    """Yield `path` open as UTF-8 text with newlines untranslated; the
    bulk reader reads its binary `buffer`. The file closes when the
    with-block ends, also when it raises; a bare generator would stay
    open while the traceback lives."""
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            yield handle
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8: {exc}") from exc


def _checked_records(path: Path, handle):
    """The checked reader over `handle` from its top: the header line
    number, the header and an iterator over the other non-blank records
    as (line number, stripped cells), read as it is iterated."""
    handle.seek(0)
    rows = _records(csv.reader(handle))
    first = next(rows, None)
    if first is None:
        raise ParseError(f"{path}: empty file")
    return first[0], first[1], rows


def _parse_month(text: str, line_no: int) -> Month:
    try:
        return Month.parse(text)
    except (ValidationError, ValueError) as exc:
        raise ParseError(f"line {line_no}: malformed date {text!r}") from exc


def _parse_value(text: str, line_no: int, column: str) -> float:
    try:
        # float() also reads non-ASCII digits and "_" between digits
        if not text.isascii() or "_" in text:
            raise ValueError(text)
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

    def extend(self, values: np.ndarray, ordinals: np.ndarray) -> None:
        """Append contiguous float64 `values` and their np.intc month
        `ordinals`, as the bulk reader reads them; it marks nothing."""
        self.values.frombytes(memoryview(values).cast("B"))
        self.ordinals.frombytes(memoryview(ordinals).cast("B"))

    def holds_its_span_once(self) -> bool:
        """Whether the months read are each month of their span, once."""
        ordinals = np.frombuffer(self.ordinals, dtype=np.intc)
        if not ordinals.size:
            return False
        low = int(ordinals.min())
        return (
            int(ordinals.max()) - low + 1 == ordinals.size
            and bool(np.bincount(ordinals - low).all())
        )

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
    steps = np.diff(ordinals)
    if (steps <= 0).any():  # read out of month order
        order = np.argsort(ordinals)
        ordinals, values = ordinals[order], values[order]
        steps = np.diff(ordinals)
    gaps = np.flatnonzero(steps != 1)
    if gaps.size:
        prev, cur = ordinals[gaps[0] : gaps[0] + 2].tolist()
        raise GapError(
            f"series {label!r}: missing month {Month.from_ordinal(prev + 1)} "
            f"between {Month.from_ordinal(prev)} and {Month.from_ordinal(cur)}"
        )
    grid = TimeGrid(Month.from_ordinal(int(ordinals[0])), len(ordinals))
    return ReturnSeries(label, grid, values)


def _panel_of(columns: dict[str, _Column]) -> Panel:
    """Panel of `columns`' series on their common month span."""
    # each column is freed once its series holds the values
    return align([_series_of(label, columns.pop(label)) for label in list(columns)])


def _columns_of(cells, path: Path, noun: str) -> dict[str, _Column]:
    """Each series' column of (line, month ordinal, series, value text)
    cells, checked cell by cell in file order; `noun` names a series in
    the blank-value message."""
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
    return columns


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


class _Irregular(Exception):
    """The bulk reader cannot vouch for the file; the checked reader
    reads it."""


def _plain_blocks(handle):
    """The rest of `handle` in blocks of whole lines, read `_CHUNK_BYTES`
    at a time, each block ending in LF: one is added to a last line
    without it."""
    carry = b""
    while data := handle.read(_CHUNK_BYTES):
        data = carry + data
        cut = data.rfind(b"\n") + 1
        carry = data[cut:]
        if cut:
            yield data[:cut]
    if carry:
        yield carry + b"\n"


def _plain_rows(block: bytes, width: int) -> tuple[np.ndarray, list[str]]:
    """The month ordinals of `block`'s lines, as np.intc, and their other
    cells, row by row in one flat list of str; _Irregular unless every
    line is `width` plain cells, the first a date."""
    if block.translate(None, _PLAIN):
        raise _Irregular
    codes = np.frombuffer(block, dtype=np.uint8)
    ends = np.flatnonzero(codes == ord("\n"))
    starts = np.concatenate(([0], ends[:-1] + 1))
    commas = np.flatnonzero(codes == ord(","))
    # `width` - 1 commas a line, every `width` - 1'th right after a line's
    # first seven bytes, which the date check finds free of commas: so
    # each line holds its own
    if (
        commas.size != ends.size * (width - 1)
        or (commas[:: width - 1] != starts + 7).any()
        # the checked reader's csv module fails on a longer cell
        or (ends - starts).max() > csv.field_size_limit()
    ):
        raise _Irregular
    digits = codes[starts[:, None] + np.arange(7)].astype(np.intc) - ord("0")
    months = digits[:, 5] * 10 + digits[:, 6]
    ordinals = digits @ _DATE_WEIGHTS - 13
    if not (
        ((digits >= _DATE_LOW) & (digits <= _DATE_HIGH)).all()
        and ((months >= 1) & (months <= 12)).all()
        and (ordinals >= 0).all()  # the year is 0001 or later
    ):
        raise _Irregular
    cells = block.decode("ascii").replace("\n", ",").split(",")
    cells.pop()  # after the last LF
    del cells[::width]  # the dates
    return ordinals, cells


def _plain_values(texts: list[str]) -> np.ndarray:
    """`texts` read by float(), as `_parse_value` reads each; _Irregular
    unless `_parse_value` would take every one."""
    if "_" in "".join(texts):
        raise _Irregular
    try:
        values = np.fromiter(map(float, texts), dtype=np.float64, count=len(texts))
    except ValueError:
        raise _Irregular from None
    if not np.isfinite(values).all():
        raise _Irregular
    return values


def _bulk_wide(handle) -> dict[str, _Column]:
    """Each series' column of the plainly well-formed wide file `handle`
    reads in binary; _Irregular for any other file."""
    header = handle.readline()
    if (
        not header.endswith(b"\n")
        or header.translate(None, _PLAIN)
        or len(header) > csv.field_size_limit()
    ):
        raise _Irregular
    names = header[:-1].decode("ascii").split(",")
    labels = names[1:]
    if names[0] != "date" or not labels or "" in labels or len(set(labels)) != len(labels):
        raise _Irregular
    columns = {label: _Column() for label in labels}
    for block in _plain_blocks(handle):
        ordinals, cells = _plain_rows(block, len(names))
        # one contiguous row of values per series
        values = _plain_values(cells).reshape(-1, len(labels)).T.copy()
        for column, row in zip(columns.values(), values):
            column.extend(row, ordinals)
    return columns


def _bulk_long(handle) -> dict[str, _Column]:
    """Each series' column of the plainly well-formed long file `handle`
    reads in binary, in the order of its first row; _Irregular for any
    other file."""
    if handle.readline() != b"date,series,value\n":
        raise _Irregular
    columns: dict[str, _Column] = {}
    for block in _plain_blocks(handle):
        ordinals, cells = _plain_rows(block, 3)
        labels = cells[::2]
        values = _plain_values(cells[1::2])
        if "" in labels:
            raise _Irregular
        # the block's series in the order of their first rows
        index = {label: i for i, label in enumerate(dict.fromkeys(labels))}
        for label in index:
            if label not in columns:
                columns[label] = _Column()
        codes = np.fromiter(map(index.__getitem__, labels), dtype=np.intp, count=len(labels))
        order = np.argsort(codes, kind="stable")
        ends = np.cumsum(np.bincount(codes)).tolist()
        for label, start, end in zip(index, [0, *ends], ends):
            rows = order[start:end]
            columns[label].extend(values[rows], ordinals[rows])
    return columns


def _bulk_columns(read, handle) -> dict[str, _Column] | None:
    """The columns `read` reads from `handle` in bulk when it can vouch
    for the file and each series holds every month of its span once;
    None when it cannot."""
    try:
        columns = read(handle)
    except _Irregular:
        return None
    if columns and all(column.holds_its_span_once() for column in columns.values()):
        return columns
    return None


def ingest_wide(path: Path) -> Panel:
    """Read a wide-layout CSV into a Panel.

    Rows may arrive in any month order; they are sorted. Gaps (a missing
    month or a blank cell) and duplicate months are rejected.
    """
    with _opened(path) as handle:
        columns = _bulk_columns(_bulk_wide, handle.buffer)
        if columns is None:
            header_line, header, rows = _checked_records(path, handle)
            if len(header) < 2 or header[0] != "date":
                raise ParseError(
                    f"line {header_line}: wide header must be 'date,<series...>', "
                    f"got {','.join(header)!r}"
                )
            labels = header[1:]
            if "" in labels:
                raise ParseError(f"line {header_line}: empty series name in header")
            if len(set(labels)) != len(labels):
                raise ParseError(
                    f"line {header_line}: duplicate series column in header"
                )
            columns = _columns_of(_wide_cells(rows, header), path, "column")
    return _panel_of(columns)


def ingest_long(path: Path) -> Panel:
    """Read a long-layout CSV into a Panel on the common month span.

    Row order is irrelevant. Each series must cover a contiguous span;
    the panel is the intersection of the per-series spans.
    """
    with _opened(path) as handle:
        columns = _bulk_columns(_bulk_long, handle.buffer)
        if columns is None:
            header_line, header, rows = _checked_records(path, handle)
            if header != ["date", "series", "value"]:
                raise ParseError(
                    f"line {header_line}: long header must be 'date,series,value', "
                    f"got {','.join(header)!r}"
                )
            columns = _columns_of(_long_cells(rows), path, "series")
    return _panel_of(columns)


def ingest_constituents(path: Path) -> list[ConstituentRecord]:
    """Read a constituents-layout CSV into validated records."""
    with _opened(path) as handle:
        header_line, header, rows = _checked_records(path, handle)
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
