"""The figure line blocks hold the bytes `csv.writer` writes for the same rows."""

import csv
import io
import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from retlab.cli import io as cli_io
from retlab.cli import pipeline
from retlab.series import Month, TimeGrid

LABELS = st.one_of(
    st.sampled_from(["", " A ", "a,b", 'q"q', "a\nb", "a\rb", '"', "é€猫"]),
    st.text(alphabet=st.characters(blacklist_characters="\x00"), max_size=6),
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
