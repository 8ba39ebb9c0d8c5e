"""The figure line blocks and the table files hold the bytes that
`csv.writer` and the one-cell-at-a-time table renderer write for the same
rows."""

import csv
import io
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from retlab.cli import io as cli_io
from retlab.cli import pipeline, tables
from retlab.series import Month, TimeGrid

LABELS = st.one_of(
    st.sampled_from(["", " A ", "a,b", 'q"q', "a\nb", "a\rb", '"', "é€猫"]),
    # the text a label can hold: ingest rejects a file that is not UTF-8,
    # so no lone surrogate (category Cs) reaches a writer
    st.text(
        alphabet=st.characters(exclude_characters="\x00", exclude_categories=("Cs",)),
        max_size=6,
    ),
)
FLOATS = st.one_of(
    st.sampled_from([-0.0, 5e-324, 1e16, 1e-5, math.inf, -math.inf, 0.1]),
    st.floats(),
)
START = st.integers(Month.parse("1600-01").ordinal, Month.parse("2400-12").ordinal)
BLOCK_ROWS = st.integers(1, 5)


def written(rows) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def blocks_of(lines, block_rows):
    with mock.patch.object(cli_io, "_BLOCK_ROWS", block_rows):
        return list(lines())


@st.composite
def series_triples(draw):
    values = draw(st.lists(FLOATS, min_size=1, max_size=9))
    grid = TimeGrid(Month.from_ordinal(draw(START)), len(values))
    return draw(LABELS), grid, np.array(values)


@settings(max_examples=400, deadline=None)
@given(st.lists(series_triples(), min_size=1, max_size=4), BLOCK_ROWS)
def test_series_lines_match_csv_writer(series, block_rows):
    blocks = blocks_of(lambda: pipeline._series_lines(series), block_rows)
    assert "".join(blocks) == written(
        [month, label, value]
        for label, grid, values in series
        for month, value in zip(grid.labels(), values.tolist())
    )
    # a block holds whole lines of one series, at most block_rows of them,
    # so with more rows a block boundary falls inside the series
    assert len(blocks) == sum(-(-len(values) // block_rows) for _, _, values in series)


@settings(max_examples=300, deadline=None)
@given(st.data(), BLOCK_ROWS, st.booleans(), st.booleans())
def test_horizon_lines_match_csv_writer(data, block_rows, irf, bands):
    k = data.draw(st.integers(1, 4))
    horizons = data.draw(st.integers(1, 3))
    labels = data.draw(st.lists(LABELS, min_size=k, max_size=k))
    cube = st.lists(FLOATS, min_size=horizons * k * k, max_size=horizons * k * k).map(
        lambda cells: np.array(cells).reshape(horizons, k, k)
    )
    # an irf gives three cubes, whose bands are None without bootstrap
    # draws; a fevd gives one
    if irf:
        cubes = [data.draw(cube)] + [data.draw(cube) if bands else None for _ in range(2)]
    else:
        cubes = [data.draw(cube)]
    blocks = blocks_of(lambda: pipeline._horizon_lines(labels, *cubes), block_rows)
    assert "".join(blocks) == written(
        [h, labels[i], labels[j],
         *(None if c is None else c[h, i, j].item() for c in cubes)]
        for h in range(horizons) for i in range(k) for j in range(k)
    )
    assert len(blocks) == horizons * -(-k * k // block_rows)


# the table renderer one cell at a time: the reference the text tables
# must match
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


# every kind of cell a table holds; a np.bool_ makes its column
# left-aligned, a bool does not
CELLS = [
    st.none(), st.just(math.nan), FLOATS, FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32), st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(-(2**31), 2**31 - 1).map(np.int32),
    st.booleans(), st.booleans().map(np.bool_), LABELS,
]


@st.composite
def table_rows(draw):
    """(header, rows) of 2 to 4 columns, each drawing its cells from one to
    three kinds, so that both numeric and mixed columns occur. Every table
    the program writes has two or more columns: `csv.writer` would quote a
    lone empty cell, and `csv_line_blocks` makes no such line."""
    width = draw(st.integers(2, 4))
    n = draw(st.integers(0, 6))
    columns = []
    for _ in range(width):
        kinds = draw(st.lists(st.sampled_from(CELLS), min_size=1, max_size=3))
        columns.append(draw(st.lists(st.one_of(kinds), min_size=n, max_size=n)))
    header = draw(st.lists(LABELS, min_size=width, max_size=width))
    return header, [list(row) for row in zip(*columns)]


@settings(max_examples=300, deadline=None)
@given(LABELS, table_rows())
def test_table_files_match_one_cell_at_a_time_reference(title, table):
    header, rows = table
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        assert tables.write_table(out, "t", title, header, rows) == ["t.txt", "t.csv"]
        text = (out / "t.txt").read_bytes().decode("utf-8")
        twin = (out / "t.csv").read_bytes().decode("utf-8")
    assert text == render_table(title, header, rows)
    assert twin == written(
        [header, *([None if _is_missing(v) else v for v in row] for row in rows)]
    )
