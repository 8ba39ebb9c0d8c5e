"""CSV ingestion, config loading, and the command-line pipeline."""

import csv
import dataclasses
import importlib.resources
import inspect
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import retlab
from retlab import risk
from retlab.cli import ingest, ingest_constituents, ingest_long, ingest_wide, pipeline
from retlab.cli import io as cli_io
from retlab.cli.config import KEYS, RunConfig, load_config
from retlab.cli.io import write_csv, write_panel
from retlab.cli.main import main
from retlab.descstats import describe
from retlab.errors import GapError, ParseError, ValidationError
from retlab.series import Month, Panel, ReturnSeries, TimeGrid
from retlab.synth import GeneratorSpec, generate


def panel_fixture(seed=5, n=160, labels=("A", "B", "M")):
    return generate(
        GeneratorSpec(
            kind="var",
            n=n,
            seed=seed,
            parameters={
                "labels": list(labels),
                "intercept": [0.4, 0.2, 0.5],
                "coefficients": [[[0.2, 0.1, 0.1], [0.05, 0.3, 0.0], [0.0, 0.0, 0.05]]],
                "residual_cov": [[9.0, 1.0, 3.0], [1.0, 4.0, 0.5], [3.0, 0.5, 8.0]],
            },
        )
    )


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestIngestWide:
    def test_round_trip_is_exact(self, tmp_path):
        panel = panel_fixture()
        path = tmp_path / "p.csv"
        write_panel(path, panel)
        back = ingest_wide(path)
        assert back.labels == panel.labels
        assert back.grid == panel.grid
        assert np.max(np.abs(back.values - panel.values)) <= 1e-12

    def test_rows_in_any_order(self, tmp_path):
        path = tmp_path / "p.csv"
        write_lines(path, [
            "date,x", "2001-03,3.0", "2001-01,1.0", "2001-02,2.0",
        ])
        panel = ingest_wide(path)
        assert str(panel.grid.start) == "2001-01"
        np.testing.assert_array_equal(panel.values[:, 0], [1.0, 2.0, 3.0])

    def test_blank_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "p.csv"
        write_lines(path, [
            "date,x,y", "2001-01,1.0,2.0", "2001-02,1.5,", "2001-03,2.0,3.0",
        ])
        with pytest.raises(GapError, match=r"line 3.*'y'"):
            ingest_wide(path)

    def test_malformed_date(self, tmp_path):
        path = tmp_path / "p.csv"
        write_lines(path, ["date,x", "2001-01,1.0", "January 2001,2.0"])
        with pytest.raises(ParseError, match="line 3"):
            ingest_wide(path)

    def test_non_numeric_value(self, tmp_path):
        path = tmp_path / "p.csv"
        write_lines(path, ["date,x", "2001-01,1.0", "2001-02,oops"])
        with pytest.raises(ParseError, match=r"line 3.*'x'"):
            ingest_wide(path)

    @pytest.mark.parametrize("row, message", [
        ("２０００-０１,1.0", "line 2: malformed date '２０００-０１'"),
        ("2000-01,1_0", "line 2: non-numeric value '1_0' in column 'x'"),
        ("2000-01,１", "line 2: non-numeric value '１' in column 'x'"),
    ])
    def test_non_ascii_digits_and_underscores_are_rejected(self, tmp_path, row, message):
        # float() and a bare \d read both
        path = tmp_path / "p.csv"
        write_lines(path, ["date,x", row])
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            ingest_wide(path)

    def test_error_after_a_cell_spanning_lines_names_its_physical_line(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text('date,"A\nB",C\n2000-01,1.0,2.0\n2000-02,x,2.0\n', encoding="utf-8")
        with pytest.raises(
            ParseError, match=r"^line 4: non-numeric value 'x' in column 'A\\nB'$"
        ):
            ingest_wide(path)

    def test_missing_month_row(self, tmp_path):
        path = tmp_path / "p.csv"
        write_lines(path, ["date,x", "2001-01,1.0", "2001-03,2.0"])
        with pytest.raises(GapError, match="2001-02"):
            ingest_wide(path)

    def test_duplicate_month(self, tmp_path):
        path = tmp_path / "p.csv"
        write_lines(path, ["date,x", "2001-01,1.0", "2001-01,2.0"])
        with pytest.raises(ParseError, match="line 3.*duplicate"):
            ingest_wide(path)

    @pytest.mark.parametrize("rows, error, message", [
        (["2001-01,1.0", "2001-01,2.0", "2001-02,oops"],
         ParseError, "line 3: duplicate row for series 'x' at 2001-01"),
        (["2001-01,1.0", "2001-02,oops", "2001-01,2.0"],
         ParseError, "line 3: non-numeric value 'oops' in column 'x'"),
        (["2001-01,1.0", "2001-03,"],
         GapError, "line 3: missing value for column 'x' at 2001-03"),
        (["2001-02,1.0", "2001-01,2.0", "2001-03,3.0", "2001-03,4.0"],
         ParseError, "line 5: duplicate row for series 'x' at 2001-03"),
        (["2001-04,1.0", "2001-01,2.0", "2001-02,3.0"],
         GapError, "series 'x': missing month 2001-03 between 2001-02 and 2001-04"),
    ])
    def test_first_fault_in_file_order_is_named(self, tmp_path, rows, error, message):
        path = tmp_path / "p.csv"
        write_lines(path, ["date,x", *rows])
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            ingest_wide(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "p.csv"
        write_lines(path, ["month,x", "2001-01,1.0"])
        with pytest.raises(ParseError, match="header"):
            ingest_wide(path)

    @pytest.mark.parametrize("lines, header_line", [
        (["date,,REIT"], 1), (["date,REIT, "], 1), (["", "date,,REIT"], 2),
    ])
    def test_empty_series_name_names_the_header_line(self, tmp_path, lines, header_line):
        path = tmp_path / "p.csv"
        write_lines(path, [*lines, "2001-01,1.0,2.0"])
        with pytest.raises(
            ParseError, match=f"^line {header_line}: empty series name in header$"
        ):
            ingest_wide(path)

    def test_file_closes_before_a_mid_file_error_propagates(self, tmp_path, monkeypatch):
        path = tmp_path / "p.csv"
        write_lines(path, ["date,x", "2001-01,1.0", "2001-02,oops", "2001-03,3.0"])
        handles = []

        def recording_open(*args, **kwargs):
            handles.append(open(*args, **kwargs))
            return handles[-1]

        monkeypatch.setattr(cli_io, "open", recording_open, raising=False)
        try:
            ingest_wide(path)
        except ParseError:
            # the traceback, which holds the reader's frames, is alive here
            assert len(handles) == 1 and handles[0].closed
        else:
            pytest.fail("the malformed row was accepted")


class TestIngestLong:
    def test_out_of_order_equals_sorted(self, tmp_path):
        rng = np.random.default_rng(8)
        months = [str(Month.parse("2003-01") + t) for t in range(24)]
        rows = [(m, label, rng.standard_normal())
                for label in ("a", "b") for m in months]
        sorted_path = tmp_path / "sorted.csv"
        write_lines(sorted_path, ["date,series,value"] +
                    [f"{m},{s},{v!r}" for m, s, v in rows])
        shuffled = list(rows)
        rng.shuffle(shuffled)
        shuffled_path = tmp_path / "shuffled.csv"
        write_lines(shuffled_path, ["date,series,value"] +
                    [f"{m},{s},{v!r}" for m, s, v in shuffled])
        a = ingest_long(sorted_path)
        b = ingest_long(shuffled_path)
        assert a.grid == b.grid
        assert sorted(a.labels) == sorted(b.labels)
        for label in a.labels:
            np.testing.assert_array_equal(
                a.select(label).values, b.select(label).values
            )

    def test_malformed_date_names_its_line(self, tmp_path):
        path = tmp_path / "l.csv"
        write_lines(path, [
            "date,series,value", "2003-01,a,1.0", "2003-01,b,1.0",
            "2003-02,a,2.0", "2003-02,b,2.0", "2003-13,a,3.0", "2003-13,b,3.0",
        ])
        with pytest.raises(ParseError, match=r"^line 6: malformed date '2003-13'$"):
            ingest_long(path)

    def test_duplicate_row_rejected(self, tmp_path):
        path = tmp_path / "l.csv"
        write_lines(path, [
            "date,series,value", "2003-01,a,1.0", "2003-02,a,2.0",
            "2003-01,a,3.0",
        ])
        with pytest.raises(ParseError, match="line 4.*duplicate"):
            ingest_long(path)

    def test_error_after_a_cell_spanning_lines_names_its_physical_line(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text(
            'date,series,value\n2003-01,"a\nb",1.0\n2003-02,"a\nb",oops\n',
            encoding="utf-8",
        )
        with pytest.raises(
            ParseError, match=r"^line 4: non-numeric value 'oops' in column 'a\\nb'$"
        ):
            ingest_long(path)

    @pytest.mark.parametrize("row, message", [
        ("２０００-０１,a,1.0", "line 2: malformed date '２０００-０１'"),
        ("2000-01,a_1,1_0", "line 2: non-numeric value '1_0' in column 'a_1'"),
        ("2000-01,a,٣", "line 2: non-numeric value '٣' in column 'a'"),
    ])
    def test_non_ascii_digits_and_underscores_are_rejected(self, tmp_path, row, message):
        path = tmp_path / "l.csv"
        write_lines(path, ["date,series,value", row])
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            ingest_long(path)

    def test_gap_names_series(self, tmp_path):
        path = tmp_path / "l.csv"
        write_lines(path, [
            "date,series,value", "2003-01,a,1.0", "2003-03,a,2.0",
        ])
        with pytest.raises(GapError, match="'a'.*2003-02"):
            ingest_long(path)

    def test_overlapping_spans_intersect(self, tmp_path):
        path = tmp_path / "l.csv"
        lines = ["date,series,value"]
        for t in range(12):
            lines.append(f"{Month.parse('2003-01') + t},a,{float(t)}")
        for t in range(6, 18):
            lines.append(f"{Month.parse('2003-01') + t},b,{float(t)}")
        write_lines(path, lines)
        panel = ingest_long(path)
        assert panel.grid.span() == "2003-07..2003-12"

    def test_blank_value(self, tmp_path):
        path = tmp_path / "l.csv"
        write_lines(path, ["date,series,value", "2003-01,a,"])
        with pytest.raises(GapError, match="line 2"):
            ingest_long(path)

    @pytest.mark.parametrize("rows, error, message", [
        (["2003-01,a,1.0", "2003-01,a,2.0", "2003-02,a,oops"],
         ParseError, "line 3: duplicate row for series 'a' at 2003-01"),
        (["2003-01,a,1.0", "2003-02,a,oops", "2003-01,a,2.0"],
         ParseError, "line 3: non-numeric value 'oops' in column 'a'"),
        (["2003-01,a,1.0", "2003-03,a,"],
         GapError, "line 3: missing value for series 'a' at 2003-03"),
        (["2003-02,a,1.0", "2003-01,b,1.0", "2003-01,a,2.0", "2003-03,a,3.0",
          "2003-03,a,4.0"],
         ParseError, "line 6: duplicate row for series 'a' at 2003-03"),
        (["2003-04,a,1.0", "2003-01,a,2.0", "2003-02,a,3.0"],
         GapError, "series 'a': missing month 2003-03 between 2003-02 and 2003-04"),
    ])
    def test_first_fault_in_file_order_is_named(self, tmp_path, rows, error, message):
        path = tmp_path / "l.csv"
        write_lines(path, ["date,series,value", *rows])
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            ingest_long(path)

    @staticmethod
    def traced_ingest(tmp_path):
        """The 5,000 x 6 panel read from a long file in month order, the
        traced peak of reading it and the file's size."""
        rng = np.random.default_rng(3)
        path = tmp_path / "l.csv"
        start = Month.parse("1600-01")
        write_lines(path, ["date,series,value"] + [
            f"{start + t},S{j},{value!r}"
            for t in range(5000)
            for j, value in enumerate(rng.standard_normal(6).tolist())
        ])
        size = path.stat().st_size
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            panel = ingest_long(path)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert panel.values.shape == (5000, 6)
        return peak, size

    def test_peak_memory_stays_near_the_file_size(self, tmp_path):
        # the rows are parsed as they are read: no copy of the whole file
        # as text cells is held next to the parsed values
        peak, size = self.traced_ingest(tmp_path)
        assert peak <= 5 * size, f"peak {peak / size:.2f}x the file size"

    def test_peak_memory_holds_no_boxed_cells(self, tmp_path):
        # each series is parsed into typed arrays, 12 bytes a cell, then
        # copied once into its float64 array; holding each cell as a Python
        # float in a per-series dict peaks at 2.5 times this file's size
        peak, size = self.traced_ingest(tmp_path)
        assert peak <= 1.5 * size, f"peak {peak / size:.2f}x the file size"


# cells a return file may hold, by column, each to be read as the
# checked reader reads it
ODD_DATES = [
    "", "x", "２０００-０１", "2000-13", "2000-00", "0000-01", "2000-1", "200-01",
    "2000-011", "2000-01-01", "12000-01", "2000/01", "2000-0a",
]
ODD_LABELS = ["", "Ä", "a,b", "date"]
ODD_VALUES = [
    "", "x", "nan", "inf", "-inf", "1e400", "1e-400", "-0.0", "+.5", "5.", "1e5",
    "0x10", "1_0", "1__0", "１", "٣", "a,b", "2000-01", "-100", "-100.5",
]
# three months in a row, whose odd date a laxer reading would take for
# the month it stands for
ODD_DATE_RUNS = [
    ("0000-12", "0001-01", "0001-02"), ("1999-11", "2000-00", "2000-01"),
    ("2000-01", "1999-14", "2000-03"), ("2000-01", "2000/02", "2000-03"),
    ("2000-01", "199:-02", "2000-03"), ("2000-01", "2000-021", "2000-03"),
    ("2000-01", "2000-02-01", "2000-03"), ("2000-01", "２０００-０２", "2000-03"),
    ("2000-01", " 2000-02", "2000-03"), ("2000-01", "", "2000-03"),
]
BULK_LABELS = ["A", "B_1", "c.d", "REIT", "x y"]
FAULTS = ["cell", "duplicate", "drop", "quote", "space", "blank", "comma", "header"]


@st.composite
def return_files(draw):
    """A wide or long returns file as bytes, rows in or out of month
    order, with up to two drawn faults."""
    layout = draw(st.sampled_from(["wide", "long"]))
    labels = draw(st.lists(st.sampled_from(BULK_LABELS), min_size=1, max_size=3, unique=True))
    start = draw(st.one_of(st.just(0), st.integers(0, Month.parse("9999-01").ordinal)))
    value = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    if layout == "wide":
        header = ["date", *labels]
        n = draw(st.integers(1, 8))
        rows = [
            [str(Month.from_ordinal(start + t)),
             *draw(st.lists(value, min_size=len(labels), max_size=len(labels)))]
            for t in range(n)
        ]
    else:
        header = ["date", "series", "value"]
        rows = []
        for label in labels:
            first, n = draw(st.integers(0, 2)), draw(st.integers(1, 8))
            rows += [[str(Month.from_ordinal(start + first + t)), label, draw(value)]
                     for t in range(n)]
    if draw(st.booleans()):
        rows = draw(st.permutations(rows))
    for fault in draw(st.lists(st.sampled_from(FAULTS), max_size=2)):
        i = draw(st.integers(0, len(rows) - 1))
        row = rows[i]
        j = draw(st.integers(0, len(row) - 1)) if row else 0
        if fault == "cell" and row:
            odd = ODD_DATES if j == 0 else ODD_LABELS if layout == "long" and j == 1 else ODD_VALUES
            row[j] = draw(st.sampled_from(odd))
        elif fault == "duplicate":
            rows.insert(draw(st.integers(0, len(rows))), list(row))
        elif fault == "drop" and len(rows) > 1:
            del rows[i]
        elif fault == "quote" and row:
            row[j] = f'"{row[j]}"'
        elif fault == "space" and row:
            row[j] = draw(st.sampled_from([f" {row[j]}", f"{row[j]} ", f"{row[j]}\t"]))
        elif fault == "blank":
            rows.insert(i, [])
        elif fault == "comma":
            row.append("")
        elif fault == "header":
            header[draw(st.integers(0, len(header) - 1))] = draw(
                st.sampled_from(["", " date", '"date"', "value", *labels])
            )
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(",".join(row) for row in [header, *rows])
    if draw(st.booleans()):
        text += newline
    return layout, text.encode("utf-8")


def ingest_outcome(path, layout):
    """The panel's labels, grid and value bits, or the error's type and
    message."""
    try:
        panel = ingest(path, layout)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)
    return panel.labels, panel.grid, [s.values.tobytes() for s in panel.series]


def checked_outcome(path, layout):
    """`ingest_outcome` of the checked reader on its own."""
    with mock.patch.object(cli_io, "_bulk_columns", lambda read, handle: None):
        return ingest_outcome(path, layout)


class TestBulkIngest:
    @settings(max_examples=600, deadline=None)
    @given(return_files(), st.sampled_from([8, 64, 1 << 15]))
    def test_bulk_reader_gives_the_checked_readers_panel_or_error(self, file, chunk_bytes):
        # small blocks put block edges inside a line, between a duplicate
        # and its first row, and across a gap
        layout, data = file
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "returns.csv"
            path.write_bytes(data)
            with mock.patch.object(cli_io, "_CHUNK_BYTES", chunk_bytes):
                got = ingest_outcome(path, layout)
            assert got == checked_outcome(path, layout)

    @pytest.mark.parametrize("layout, dates, column, cell", [
        *((layout, dates, None, None) for layout in ("wide", "long") for dates in ODD_DATE_RUNS),
        *(("wide", None, 1, cell) for cell in ODD_VALUES),
        *(("long", None, 1, cell) for cell in ODD_LABELS),
        *(("long", None, 2, cell) for cell in ODD_VALUES),
    ])
    def test_each_odd_cell_is_read_as_the_checked_reader_reads_it(
        self, tmp_path, layout, dates, column, cell
    ):
        rows = [[date, value] for date, value in zip(
            dates or ("2000-01", "2000-02", "2000-03"), ("1.0", "2.0", "3.0")
        )]
        if layout == "long":
            rows = [[date, "A", value] for date, value in rows]
        if layout == "long" and column == 1:
            # a series of its own, one month long: no gap shows it
            rows.append(["2000-02", cell, "4.0"])
        elif column is not None:
            rows[1][column] = cell
        header = "date,A" if layout == "wide" else "date,series,value"
        path = tmp_path / "r.csv"
        write_lines(path, [header, *map(",".join, rows)])
        assert ingest_outcome(path, layout) == checked_outcome(path, layout)

    @pytest.mark.parametrize("layout, header", [
        ("wide", "date,A,A"), ("wide", "date,,A"), ("wide", "date,A,"), ("wide", "date"),
        ("wide", "Date,A,B"), ("wide", "date,A B,C"), ("wide", '"date",A,B'),
        ("wide", "date,Ä,B"), ("long", "date,series"), ("long", "date,series,value,"),
        ("long", " date,series,value"), ("long", "date,series,Value"),
    ])
    def test_each_odd_header_is_read_as_the_checked_reader_reads_it(
        self, tmp_path, layout, header
    ):
        row = "2000-01,1.0,2.0" if layout == "wide" else "2000-01,A,1.0"
        path = tmp_path / "r.csv"
        write_lines(path, [header, row])
        assert ingest_outcome(path, layout) == checked_outcome(path, layout)

    @pytest.mark.parametrize("layout", ["wide", "long"])
    @pytest.mark.parametrize("last_newline", [True, False])
    def test_plain_file_is_read_in_bulk(self, tmp_path, monkeypatch, layout, last_newline):
        rng = np.random.default_rng(4)
        values = rng.standard_normal((40, 3))
        months = TimeGrid(Month.parse("1999-11"), 40).labels()
        if layout == "wide":
            lines = ["date,A,B_1,c.d"] + [
                ",".join([m, *map(repr, row.tolist())]) for m, row in zip(months, values)
            ]
        else:
            lines = ["date,series,value"] + [
                f"{m},{label},{value!r}"
                for m, row in zip(months, values.tolist())
                for label, value in zip(["A", "B_1", "c.d"], row)
            ]
        body = lines[1:]
        rng.shuffle(body)
        path = tmp_path / "r.csv"
        path.write_text("\n".join([lines[0], *body]) + "\n" * last_newline, encoding="utf-8")

        def unasked(*args):
            raise AssertionError("the checked reader read a plain file")

        monkeypatch.setattr(cli_io, "_CHUNK_BYTES", 64)
        monkeypatch.setattr(cli_io, "_checked_records", unasked)
        panel = ingest(path, layout)
        # a long file's series come in the order of their first rows
        first_rows = [line.split(",")[1] for line in body] if layout == "long" else []
        assert panel.labels == list(dict.fromkeys([*first_rows, "A", "B_1", "c.d"]))
        assert panel.grid == TimeGrid(Month.parse("1999-11"), 40)
        for j, label in enumerate(["A", "B_1", "c.d"]):
            np.testing.assert_array_equal(panel.select(label).values, values[:, j])


class TestIngestConstituents:
    def test_parses_records(self, tmp_path):
        path = tmp_path / "c.csv"
        write_lines(path, [
            "date,id,return,market_cap",
            "2003-01,ACME,1.5,120.0",
            "2003-02,ACME,-0.5,121.4",
            "2003-01,BOLT,2.0,80.0",
        ])
        records = ingest_constituents(path)
        assert len(records) == 3
        assert records[0].asset_id == "ACME"
        assert records[0].return_pct == 1.5
        assert records[2].market_cap == 80.0

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "c.csv"
        write_lines(path, [
            "date,id,return,market_cap",
            "2003-01,ACME,1.5,120.0",
            "2003-01,ACME,1.5,120.0",
        ])
        with pytest.raises(ParseError, match="line 3"):
            ingest_constituents(path)

    def test_negative_cap_rejected_with_line(self, tmp_path):
        path = tmp_path / "c.csv"
        write_lines(path, [
            "date,id,return,market_cap", "2003-01,ACME,1.5,-3.0",
        ])
        with pytest.raises(ParseError, match="line 2"):
            ingest_constituents(path)

    def test_error_after_a_cell_spanning_lines_names_its_physical_line(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(
            'date,id,return,market_cap\n2003-01,"AC\nME",1.5,120.0\n'
            "2003-02,ACME,oops,121.4\n",
            encoding="utf-8",
        )
        with pytest.raises(
            ParseError, match=r"^line 4: non-numeric value 'oops' in column 'return'$"
        ):
            ingest_constituents(path)

    def test_dispatch(self, tmp_path):
        path = tmp_path / "c.csv"
        write_lines(path, [
            "date,id,return,market_cap", "2003-01,ACME,1.5,3.0",
        ])
        assert len(ingest(path, "constituents")) == 1
        with pytest.raises(ValidationError, match="layout"):
            ingest(path, "tall")


# each layout's header and a well-formed row of it
LAYOUT_LINES = {
    "wide": ("date,x", "2000-02,1.0"),
    "long": ("date,series,value", "2000-02,x,1.0"),
    "constituents": ("date,id,return,market_cap", "2000-02,A,1.0,2.0"),
}


class TestIngestBoundaries:
    @pytest.mark.parametrize("layout, row", [
        ("wide", "2000-01,{cell}"),
        ("long", "2000-01,x,{cell}"),
        ("constituents", "2000-01,{cell},1.0,2.0"),
    ])
    def test_a_cell_over_the_csv_field_limit_names_its_line(self, tmp_path, layout, row):
        path = tmp_path / "r.csv"
        cell = "1" * (csv.field_size_limit() + 1)
        write_lines(path, [*LAYOUT_LINES[layout], row.format(cell=cell)])
        with pytest.raises(ParseError, match=r"^line 3: field larger than field limit"):
            ingest(path, layout)

    @pytest.mark.parametrize("layout, line", [
        ("wide", b"date,x\xed\xa0\x80"),
        ("long", b"2000-01,x\xed\xa0\x80,1.0"),
        ("constituents", b"2000-01,A\xed\xa0\x80,1.0,2.0"),
    ])
    def test_a_lone_surrogate_is_not_utf8(self, tmp_path, layout, line):
        # the bytes would encode U+D800, which UTF-8 forbids: no label or
        # id that reaches a writer can hold a lone surrogate
        header, row = (text.encode() for text in LAYOUT_LINES[layout])
        path = tmp_path / "r.csv"
        lines = [line, row] if layout == "wide" else [header, line, row]
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(ParseError, match=r"r\.csv is not UTF-8"):
            ingest(path, layout)


DEMO_DIR = importlib.resources.files("retlab") / "data"


class TestConfig:
    def test_bundled_demo_config_loads(self):
        config = load_config(DEMO_DIR / "demo.cfg")
        assert config.market == "MKT"
        assert config.panel_members == ("REIT", "HOUSE", "PORT")
        assert config.risk.fractiles == (0.95, 0.99, 0.999)
        assert config.layout == "wide"
        assert config.n_factors == 2
        assert config.returns_path.is_file()
        assert dict(config.synth_specs)["garch_demo"].kind == "garch"

    def test_missing_input_file(self, tmp_path):
        cfg = tmp_path / "r.cfg"
        cfg.write_text("[inputs]\nreturns = nope.csv\n", encoding="utf-8")
        with pytest.raises(ParseError, match="does not exist"):
            load_config(cfg)

    def test_fractile_range_enforced(self, tmp_path):
        cfg = tmp_path / "r.cfg"
        cfg.write_text("[risk]\nfractiles = 0.4, 0.99\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="0.4"):
            load_config(cfg)

    def test_missing_risk_keys_keep_risk_config_defaults(self, tmp_path):
        cfg = tmp_path / "r.cfg"
        cfg.write_text("[run]\nseed = 11\n", encoding="utf-8")
        assert load_config(cfg).risk == risk.RiskConfig()
        cfg.write_text("[risk]\nmixture_k_max = 2\n", encoding="utf-8")
        assert load_config(cfg).risk == dataclasses.replace(risk.RiskConfig(), mixture_k_max=2)

    def test_seed_env_override(self, tmp_path, monkeypatch):
        cfg = tmp_path / "r.cfg"
        cfg.write_text("[run]\nseed = 11\n", encoding="utf-8")
        assert load_config(cfg).seed == 11
        monkeypatch.setenv("RETLAB_SEED", "99")
        config = load_config(cfg)
        assert config.seed == 99 and config.seed_source == "env"

    @pytest.mark.parametrize("text, message", [
        # a misspelt key would leave the default of 500 draws in force
        ("[var]\nbootstraps = 10\n", r"^\[var\] bootstraps: unknown key; known: "),
        ("[risks]\nfractiles = 0.9\n", r"^\[risks\]: unknown section; known: "),
        ("[DEFAULT]\nseed = 3\n", r"^\[DEFAULT\]: unknown section"),
        ("[synth.x]\nkind = garch\nsed = 3\n", r"^\[synth.x\] sed: unknown key"),
    ])
    def test_unknown_section_or_key(self, tmp_path, text, message):
        cfg = tmp_path / "r.cfg"
        cfg.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match=message):
            load_config(cfg)

    @pytest.mark.parametrize("params", [
        '{"label": "", "omega": 0.1, "alpha": 0.1, "beta": 0.8}',
        '{"labels": ["A", ""]}',
    ])
    def test_synth_empty_label_names_its_section(self, tmp_path, params):
        cfg = tmp_path / "r.cfg"
        cfg.write_text(
            f"[synth.x]\nkind = factor-panel\nn = 100\nparams = {params}\n",
            encoding="utf-8",
        )
        with pytest.raises(ValidationError, match=r"^\[synth\.x\]: empty series label$"):
            load_config(cfg)

    def test_bad_synth_json(self, tmp_path):
        cfg = tmp_path / "r.cfg"
        cfg.write_text(
            "[synth.x]\nkind = garch\nn = 100\nparams = {oops\n",
            encoding="utf-8",
        )
        with pytest.raises(ParseError, match="JSON"):
            load_config(cfg)

    @pytest.mark.parametrize("text, message", [
        ("[factors]\ncount = 0\n", "factor count must be >= 1"),
        ("[var]\nlag = -1\n", "fixed VAR lag must be >= 0"),
        ("[var]\nmax_lag = 0\n", "VAR max_lag must be >= 1"),
        ("[var]\ncriterion = HQ\n", "VAR criterion must be one of ('AIC', 'BIC')"),
        ("[var]\nforecast_horizon = 0\n", "horizons and correlogram lags must be >= 1"),
        ("[var]\nirf_horizon = 0\n", "horizons and correlogram lags must be >= 1"),
        ("[describe]\ncorrelogram_lags = 0\n", "horizons and correlogram lags must be >= 1"),
        ("[var]\nbootstrap = -1\n", "bootstrap replication count must be >= 0"),
        ("[inputs]\nlayout = tall\n", "layout must be wide or long, got 'tall'"),
    ])
    def test_each_run_config_check_exits_2_with_its_message(
        self, tmp_path, capsys, monkeypatch, text, message
    ):
        monkeypatch.delenv("RETLAB_SEED", raising=False)
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "r.cfg"
        cfg.write_text(text, encoding="utf-8")
        assert main(["describe", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, message", [
        ("[factors]\ncount = two\n", "[factors] count: expected an integer, got 'two'"),
        ("[risk]\ngpd_threshold_quantile = high\n",
         "[risk] gpd_threshold_quantile: expected a number, got 'high'"),
        ("[risk]\nfractiles = 0.95, x\n", "[risk] fractiles: expected numbers, got '0.95, x'"),
        ("[risk]\nfractiles =\n", "[risk] fractiles: empty list"),
        ("[risk]\nfractiles = , ,\n", "[risk] fractiles: empty list"),
    ])
    def test_bad_value_text_names_its_key(self, tmp_path, monkeypatch, text, message):
        monkeypatch.delenv("RETLAB_SEED", raising=False)
        cfg = tmp_path / "r.cfg"
        cfg.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as info:
            load_config(cfg)
        assert str(info.value) == message

    def test_empty_optional_values_read_as_none(self, tmp_path):
        cfg = tmp_path / "r.cfg"
        cfg.write_text("[var]\nlag =\ncriterion = aic\n[series]\nmarket =\n", encoding="utf-8")
        config = load_config(cfg)
        assert config.var_lag is None
        assert config.market is None
        assert config.var_criterion == "AIC"

    def test_env_seed_leaves_the_config_seed_unread(self, tmp_path, monkeypatch):
        cfg = tmp_path / "r.cfg"
        cfg.write_text("[run]\nseed = abc\n", encoding="utf-8")
        monkeypatch.setenv("RETLAB_SEED", "5")
        config = load_config(cfg)
        assert (config.seed, config.seed_source) == (5, "env")

    def test_a_config_naming_only_its_returns_takes_every_default(self, tmp_path, monkeypatch):
        monkeypatch.delenv("RETLAB_SEED", raising=False)
        (tmp_path / "returns.csv").write_text("date,x\n2000-01,1.0\n", encoding="utf-8")
        cfg = tmp_path / "r.cfg"
        cfg.write_text("[inputs]\nreturns = returns.csv\n", encoding="utf-8")
        config = load_config(cfg)
        assert config.returns_path == tmp_path.resolve() / "returns.csv"
        assert config.layout == "wide"
        assert config.constituents_path is None
        assert config.constituents_label == "PORT"
        assert config.market is None
        assert config.panel_members is None
        assert config.n_factors == 1
        assert config.risk == risk.RiskConfig()
        assert config.var_max_lag == 6
        assert config.var_criterion == "BIC"
        assert config.var_lag is None
        assert (config.forecast_horizon, config.irf_horizon) == (12, 24)
        assert config.n_boot == 500
        assert config.correlogram_lags == 12
        assert config.output_dir == Path("out")
        assert (config.seed, config.seed_source) == (0, "config")
        assert config.synth_specs == ()

    def test_a_config_naming_nothing_is_the_default_run_config(self, tmp_path, monkeypatch):
        monkeypatch.delenv("RETLAB_SEED", raising=False)
        cfg = tmp_path / "r.cfg"
        cfg.write_text("; nothing set\n", encoding="utf-8")
        assert load_config(cfg) == RunConfig()

    @pytest.mark.parametrize("text, env, message", [
        ("[run]\nseed = -1\n", None, "[run] seed: root seed must be >= 0, got -1"),
        ("[run]\nseed = 3\n", "-1", "RETLAB_SEED: root seed must be >= 0, got -1"),
        # the root seed is named, not the synth section that would draw from it
        ("[run]\nseed = -2\n[synth.x]\nkind = garch\nn = 50\n", None,
         "[run] seed: root seed must be >= 0, got -2"),
    ])
    def test_a_negative_root_seed_exits_2_naming_its_source(
        self, tmp_path, capsys, monkeypatch, text, env, message
    ):
        if env is None:
            monkeypatch.delenv("RETLAB_SEED", raising=False)
        else:
            monkeypatch.setenv("RETLAB_SEED", env)
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "r.cfg"
        cfg.write_text(text, encoding="utf-8")
        assert main(["describe", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("text, message", [
        ("[risk]\nmixture_k_max = 5\n", "k_max must be 1, 2, or 3, got 5"),
        ("[risk]\ngpd_threshold_quantile = 1.5\n", "threshold quantile must lie in (0,1), got 1.5"),
    ])
    def test_risk_settings_the_fitters_reject_fail_at_load(
        self, tmp_path, capsys, monkeypatch, text, message
    ):
        monkeypatch.delenv("RETLAB_SEED", raising=False)
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "r.cfg"
        cfg.write_text(text, encoding="utf-8")
        assert main(["risk", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def documented_keys(lines):
    """{section: keys} of INI lines; a commented-out `; key = value` names its key."""
    keys, section = {}, None
    for line in lines:
        line = line.strip()
        header = re.fullmatch(r"\[(.+)\]", line)
        if header:
            section = header.group(1)
            if section.startswith("synth."):
                section = "synth.<name>"
            keys.setdefault(section, set())
            continue
        key = re.match(r";?\s*([a-z_]+)\s*=", line)
        if key and section is not None:
            keys[section].add(key.group(1))
    return keys


class TestConfigDocs:
    """README's config block and the bundled demo.cfg name only keys of the
    config table, and the README block names every one of them."""

    table = {section: set(keys) for section, keys in KEYS.items()}

    def readme_block(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"^```ini\n(.*?)^```", readme, flags=re.M | re.S)
        assert len(blocks) == 1
        return blocks[0].splitlines()

    def test_readme_block_names_every_key_of_the_table(self):
        assert documented_keys(self.readme_block()) == self.table

    def test_demo_config_names_only_keys_of_the_table(self):
        lines = (DEMO_DIR / "demo.cfg").read_text(encoding="utf-8").splitlines()
        keys = documented_keys(lines)
        assert keys.keys() <= self.table.keys()
        for section, names in keys.items():
            assert names <= self.table[section], section


def declared_console_script(name):
    """The ``module:attr`` target that pyproject.toml declares for a console script."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10 has no tomllib
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


def write_run_config(tmp_path, *, panel=None, extra="", name="run.cfg",
                     members="A, B", market="M", out="out"):
    """Drop a returns CSV plus a config file into tmp_path."""
    if panel is None:
        panel = panel_fixture()
    write_panel(tmp_path / "returns.csv", panel)
    cfg = tmp_path / name
    cfg.write_text(
        f"""
[run]
output = {tmp_path / out}
seed = 314

[inputs]
returns = returns.csv
layout = wide

[series]
market = {market}
panel = {members}

[factors]
count = 1

[var]
max_lag = 4
forecast_horizon = 6
irf_horizon = 8
bootstrap = 50

[describe]
correlogram_lags = 6
{extra}
""",
        encoding="utf-8",
    )
    return cfg


def write_constituents(path, start, months):
    """Two assets' constituent rows for `months` months from `start`."""
    rng = np.random.default_rng(9)
    first = Month.parse(start).ordinal
    lines = ["date,id,return,market_cap"]
    for i in range(months):
        month = Month.from_ordinal(first + i)
        for asset, cap in (("ACME", 120.0), ("BOLT", 80.0)):
            lines.append(f"{month},{asset},{rng.normal():.4f},{cap}")
    write_lines(path, lines)


def write_correlogram_config(tmp_path, *, market, members):
    """A returns file of A, B and M on 160 months from 2000-01, the
    constituents file beside it, and the default 12 correlogram lags."""
    write_panel(tmp_path / "returns.csv", panel_fixture())
    cfg = tmp_path / "describe.cfg"
    cfg.write_text(
        f"[run]\noutput = {tmp_path / 'out'}\n"
        "[inputs]\nreturns = returns.csv\nlayout = wide\n"
        "constituents = constituents.csv\n"
        f"[series]\nmarket = {market}\npanel = {members}\n",
        encoding="utf-8",
    )
    return cfg


def correlogram_curves(out_dir):
    """The (kind, series) pairs fig_correlogram.csv has rows for."""
    lines = (out_dir / "fig_correlogram.csv").read_text().splitlines()[1:]
    return {tuple(line.split(",")[:2]) for line in lines}


class TestCommands:
    def test_describe_table_shape(self, tmp_path):
        cfg = write_run_config(tmp_path)
        assert main(["describe", str(cfg)]) == 0
        text = (tmp_path / "out" / "describe.txt").read_text(encoding="utf-8")
        header = text.splitlines()[1].split()
        assert header == ["series", "mean", "sd", "skewness", "excess_kurtosis",
                          "jarque_bera", "autocorr1", "n"]
        assert len(header) == 8  # label plus 7 statistic columns
        # every float in the text table carries exactly 3 fractional digits
        for token in text.splitlines()[3].split()[1:-1]:
            assert re.fullmatch(r"-?\d+\.\d{3}", token), f"bad cell {token!r}"

    def test_describe_csv_full_precision(self, tmp_path):
        panel = panel_fixture()
        cfg = write_run_config(tmp_path, panel=panel)
        assert main(["describe", str(cfg)]) == 0
        lines = (tmp_path / "out" / "describe.csv").read_text().splitlines()
        row_a = lines[1].split(",")
        stats = describe(panel.select("A"))
        assert float(row_a[1]) == stats.mean
        assert float(row_a[2]) == stats.sd
        assert float(row_a[5]) == stats.jarque_bera

    def test_describe_names_a_series_too_short_for_its_correlogram(self, tmp_path):
        # PORT, from 20 months of constituents, is too short for the
        # default 12 correlogram lags; A, B and M span 160 months
        write_constituents(tmp_path / "constituents.csv", "2005-01", 20)
        cfg = write_correlogram_config(tmp_path, market="M", members="A, B, PORT")
        assert main(["describe", str(cfg)]) == 1
        stage = json.loads((tmp_path / "out" / "summary.json").read_text())["stages"][1]
        assert stage["error"] == "PORT: max_lag must lie in [0, n/2), got 12 for n=20"
        assert stage["artifacts"] == [
            "describe.txt", "describe.csv", "cross_section.txt", "cross_section.csv",
            "fig_returns.csv", "fig_log_prices.csv", "fig_correlogram.csv",
        ]
        assert correlogram_curves(tmp_path / "out") == {
            ("auto", "A"), ("auto", "B"), ("auto", "M"),
            ("cross-vs-market", "A"), ("cross-vs-market", "B"),
        }
        returns = (tmp_path / "out" / "fig_returns.csv").read_text().splitlines()
        assert sum(line.split(",")[1] == "PORT" for line in returns) == 20

    def test_describe_skips_a_cross_correlogram_its_span_rejects(self, tmp_path):
        # the market PORT spans 30 months, its first 20 the last 20 of A's
        # and B's 160: 12 lags fit PORT's span but not the common one
        write_constituents(tmp_path / "constituents.csv", "2011-09", 30)
        cfg = write_correlogram_config(tmp_path, market="PORT", members="A, B")
        assert main(["describe", str(cfg)]) == 0
        assert correlogram_curves(tmp_path / "out") == {
            ("auto", "A"), ("auto", "B"), ("auto", "PORT"),
        }

    def test_write_csv_cells_of_every_emitted_type(self, tmp_path):
        # each cell as the writers make it: a label quoted by csv_cell, a
        # missing cell empty and any other value its str, which for a float
        # (numpy's included) is the shortest round-trip decimal
        row = [
            "REIT", "a,b", 12, 0.1, 1e16, 1e-5, 5e-324, -0.0, float("nan"),
            True, None, np.float64(1 / 3), np.float64("-inf"), np.int64(-7),
            np.bool_(False),
        ]
        cells = [
            "" if v is None else cli_io.csv_cell(v) if isinstance(v, str) else str(v)
            for v in row
        ]
        write_csv(
            tmp_path / "cells.csv", [f"c{i}" for i in range(len(row))],
            cli_io.csv_line_blocks([cell] for cell in cells),
        )
        lines = (tmp_path / "cells.csv").read_text().splitlines()
        assert lines[1] == (
            'REIT,"a,b",12,0.1,1e+16,1e-05,5e-324,-0.0,nan,'
            "True,,0.3333333333333333,-inf,-7,False"
        )

    def test_report_is_deterministic(self, tmp_path):
        cfg1 = write_run_config(tmp_path, name="one.cfg", out="out1")
        cfg2 = write_run_config(tmp_path, name="two.cfg", out="out2")
        assert main(["report", str(cfg1)]) == 0
        assert main(["report", str(cfg2)]) == 0
        csvs = sorted(p.name for p in (tmp_path / "out1").glob("*.csv"))
        assert csvs, "report produced no CSV artifacts"
        for name in csvs:
            a = (tmp_path / "out1" / name).read_bytes()
            b = (tmp_path / "out2" / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"

    def test_report_artifacts_and_summary_schema(self, tmp_path):
        cfg = write_run_config(tmp_path)
        assert main(["report", str(cfg)]) == 0
        out = tmp_path / "out"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["command"] == "report"
        assert summary["seed"] == 314
        names = [s["name"] for s in summary["stages"]]
        assert names == ["ingest", "describe", "pca", "unitroot", "risk", "predict"]
        assert all(s["status"] == "ok" for s in summary["stages"])
        for stage in summary["stages"]:
            for artifact in stage["artifacts"]:
                assert (out / artifact).is_file(), f"missing artifact {artifact}"
        # fitted parameters and seeds all present
        assert "mixture" in summary["parameters"]["risk"]["A/raw-returns"]
        assert summary["parameters"]["predict"]["irf"]["seed"] == 314
        # every table has both a text and a csv artifact
        tables = [a for s in summary["stages"] for a in s["artifacts"]
                  if a.endswith(".txt")]
        assert tables
        for table in tables:
            assert (out / table.replace(".txt", ".csv")).is_file()

    def test_summary_records_fixed_fields(self, tmp_path):
        """summary.json records these fields of each result, in this
        order; a new or reordered result field must not change it."""
        cfg = write_run_config(tmp_path)
        assert main(["report", str(cfg)]) == 0
        params = json.loads((tmp_path / "out" / "summary.json").read_text())["parameters"]
        risk = params["risk"]["A/raw-returns"]
        assert list(risk) == ["fit_errors", "mixture", "gpd", "garch"]
        assert list(risk["mixture"]) == [
            "k", "weights", "means", "sds", "log_likelihood", "bic", "converged",
            "sd_floor_hit", "candidates",
        ]
        assert [list(c) for c in risk["mixture"]["candidates"]] == [
            ["k", "log_likelihood", "bic", "converged", "n_iter"]
        ] * 3
        assert list(risk["gpd"]) == [
            "threshold_u", "shape_xi", "scale_beta", "n_exceedances",
            "exceedance_rate", "infinite_mean",
        ]
        assert list(risk["garch"]) == [
            "mu", "omega", "alpha", "beta", "log_likelihood",
            "one_step_variance", "integrated_warning", "n_evals",
        ]
        assert list(params["unitroot"]["A/log-price"]) == [
            "adf_stat", "adf_p_value", "adf_lags", "pp_stat", "pp_p_value",
            "kpss_stat", "bandwidth",
        ]
        assert list(params["describe"]["moments"]["A"]) == [
            "mean", "sd", "skewness", "excess_kurtosis", "jarque_bera",
            "autocorr1", "n",
        ]

    def test_summary_records_stage_fields_in_order(self, tmp_path):
        """Each stage of summary.json records its outcome's fields in
        this order, with the error null where the stage succeeded."""
        cfg = write_run_config(tmp_path)
        assert main(["describe", str(cfg)]) == 0
        stages = json.loads((tmp_path / "out" / "summary.json").read_text())["stages"]
        assert [s["name"] for s in stages] == ["ingest", "describe"]
        for stage in stages:
            assert list(stage) == ["name", "status", "error", "warnings", "artifacts"]
            assert stage["status"] == "ok" and stage["error"] is None
            assert isinstance(stage["warnings"], list)
        assert "describe.csv" in stages[1]["artifacts"]

    def test_risk_models_agree_on_gaussian_data(self, tmp_path):
        gaussian = generate(GeneratorSpec(
            kind="mixture", n=6000, seed=99,
            parameters={"weights": [1.0], "means": [0.0], "sds": [1.0],
                        "label": "G"},
        ))
        cfg = write_run_config(
            tmp_path, panel=Panel((gaussian,)), members="G", market="",
        )
        assert main(["risk", str(cfg)]) == 0
        rows = (tmp_path / "out" / "risk.csv").read_text().splitlines()[1:]
        losses = {}
        for row in rows:
            cells = row.split(",")
            if cells[3] == "0.95" and cells[1] == "raw-returns":
                losses[cells[2]] = float(cells[4])
                assert float(cells[5]) >= float(cells[4])  # ES >= VaR
        assert set(losses) == {"EM", "GPD", "GARCH"}
        spread = max(losses.values()) - min(losses.values())
        assert spread < 0.15, f"cross-model 0.95 losses spread {spread:.3f}"

    def test_constant_series_fails_only_its_fits(self, tmp_path):
        panel = panel_fixture()
        constant = ReturnSeries("K", panel.grid, np.full(len(panel), 1.0))
        cfg = write_run_config(
            tmp_path, panel=Panel((*panel.series, constant)), market="K",
        )
        assert main(["risk", str(cfg)]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        fit_errors = summary["parameters"]["risk"]["K/raw-returns"]["fit_errors"]
        assert fit_errors["EM"] == "series 'K' is constant"
        assert summary["parameters"]["risk"]["A/raw-returns"]["fit_errors"] == {}

    def test_stage_error_sets_exit_and_manifest(self, tmp_path):
        cfg = write_run_config(tmp_path, members="A, NOPE")
        assert main(["report", str(cfg)]) == 1
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        ingest_stage = summary["stages"][0]
        assert ingest_stage["status"] == "error"
        assert "NOPE" in ingest_stage["error"]

    def test_per_series_error_names_series(self, tmp_path):
        short = generate(GeneratorSpec(
            kind="var", n=29, seed=4,
            parameters={"labels": ["A", "B"],
                        "intercept": [0.0, 0.0],
                        "coefficients": [],
                        "residual_cov": [[1.0, 0.1], [0.1, 1.0]]},
        ))
        cfg = write_run_config(tmp_path, panel=short, members="A, B", market="")
        assert main(["unitroot", str(cfg)]) == 1
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        stage = summary["stages"][1]
        assert stage["status"] == "error"
        assert "A" in stage["error"] and "return" in stage["error"]

    def test_unreadable_config_exits_2(self, tmp_path):
        assert main(["describe", str(tmp_path / "absent.cfg")]) == 2

    def test_config_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"[risk]\nfractiles = 0.9\n[synth.x\xed\xa0\x80]\nkind = garch\n")
        assert main(["risk", str(cfg)]) == 2
        assert re.match(r"error: config .*bad\.cfg is not UTF-8", capsys.readouterr().err)

    def test_synth_command(self, tmp_path):
        extra = (
            "[synth.mix]\nkind = mixture\nn = 50\n"
            'params = {"weights": [0.8, 0.2], "means": [0.0, 0.0], "sds": [1.0, 4.0]}\n'
        )
        cfg = write_run_config(tmp_path, extra=extra)
        assert main(["synth", str(cfg)]) == 0
        first = (tmp_path / "out" / "synth_mix.csv").read_bytes()
        assert main(["synth", str(cfg)]) == 0
        assert (tmp_path / "out" / "synth_mix.csv").read_bytes() == first
        panel = ingest_wide(tmp_path / "out" / "synth_mix.csv")
        assert len(panel) == 50

    def test_synth_without_sections_fails(self, tmp_path):
        cfg = write_run_config(tmp_path)
        assert main(["synth", str(cfg)]) == 1

    def test_console_script_smoke(self, tmp_path):
        """The declared ``retlab`` entry point runs in a fresh interpreter.

        The target comes from ``[project.scripts]`` and is called exactly as
        the installed wrapper calls it, so a renamed or broken target fails
        here without the package having to be installed.
        """
        module, _, attr = declared_console_script("retlab").partition(":")
        cfg = write_run_config(tmp_path)
        # The directory that holds the retlab package this suite imported.
        package_root = str(Path(retlab.__file__).resolve().parents[1])
        pythonpath = [package_root, os.environ.get("PYTHONPATH", "")]
        proc = subprocess.run(
            [
                sys.executable, "-c",
                f"import sys; from {module} import {attr}; sys.exit({attr}())",
                "describe", str(cfg),
            ],
            capture_output=True, text=True, timeout=120, cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))},
        )
        assert proc.returncode == 0, proc.stderr
        assert "describe: ok" in proc.stdout

    @pytest.mark.parametrize("module", ["retlab", "retlab.cli.main"])
    def test_python_m_retlab_runs_without_warning(self, tmp_path, module):
        """``python -m retlab`` and ``python -m retlab.cli.main`` are the
        no-install ways to run the command line; neither may trip runpy's
        double-import RuntimeWarning."""
        package_root = str(Path(retlab.__file__).resolve().parents[1])
        pythonpath = [package_root, os.environ.get("PYTHONPATH", "")]
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", module, "--help"],
            capture_output=True, text=True, timeout=120, cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: retlab")

    def test_import_of_the_main_module_gives_the_module(self):
        """``retlab.cli`` does not re-export ``main``, so the submodule
        is not shadowed by its own entry point."""
        import retlab.cli.main as cli_main

        assert inspect.ismodule(cli_main)
        assert cli_main.main is main

    @pytest.mark.skipif(shutil.which("retlab") is None, reason="retlab console script not on PATH")
    def test_installed_console_script_smoke(self, tmp_path):
        cfg = write_run_config(tmp_path)
        proc = subprocess.run(
            ["retlab", "describe", str(cfg)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "describe: ok" in proc.stdout


def wide_panel_config(tmp_path, n=600, k=30):
    """A wide file of k independent normal series over n months, and a
    config for it with the demo's VAR settings and no bootstrap."""
    rng = np.random.default_rng(21)
    grid = TimeGrid(Month.parse("1970-01"), n)
    values = 4.0 * rng.standard_normal((n, k)) + 0.5
    write_panel(tmp_path / "returns.csv", Panel(tuple(
        ReturnSeries(f"S{j:02d}", grid, values[:, j]) for j in range(k)
    )))
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(
        f"[run]\noutput = {tmp_path / 'out'}\n"
        "[inputs]\nreturns = returns.csv\nlayout = wide\n"
        "[var]\nmax_lag = 6\nforecast_horizon = 12\nirf_horizon = 24\n"
        "bootstrap = 0\n",
        encoding="utf-8",
    )
    return cfg


def read_rows(path):
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


class TestFigureFiles:
    """Figure files are written as their rows are made, one series or one
    horizon of the result arrays at a time."""

    @pytest.mark.parametrize("n_boot", [0, 50])
    def test_irf_and_fevd_rows_read_the_result_arrays(self, tmp_path, monkeypatch, n_boot):
        cfg = write_run_config(tmp_path)
        cfg.write_text(cfg.read_text().replace("bootstrap = 50", f"bootstrap = {n_boot}"))
        results = {}

        def keeping(name):
            real = getattr(pipeline, name)

            def call(*args, **kwargs):
                results[name] = real(*args, **kwargs)
                return results[name]
            return call

        for name in ("irf", "fevd"):
            monkeypatch.setattr(pipeline, name, keeping(name))
        assert main(["predict", str(cfg)]) == 0
        impulse, shares = results["irf"], results["fevd"]
        labels = list(impulse.labels)
        cells = [
            (h, i, j) for h in range(impulse.horizon + 1)
            for i in range(len(labels)) for j in range(len(labels))
        ]
        rows = read_rows(tmp_path / "out" / "fig_irf.csv")
        assert len(rows) == len(cells)
        for (h, i, j), row in zip(cells, rows):
            assert row[:3] == [str(h), labels[i], labels[j]]
            assert float(row[3]) == impulse.responses[h, i, j]
            if n_boot == 0:
                assert row[4:] == ["", ""]
            else:
                assert float(row[4]) == impulse.lower[h, i, j]
                assert float(row[5]) == impulse.upper[h, i, j]
        rows = read_rows(tmp_path / "out" / "fig_fevd.csv")
        assert len(rows) == shares.shares.size
        for (h, i, j), row in zip(cells, rows):
            assert row[:3] == [str(h), labels[i], labels[j]]
            assert float(row[3]) == shares.shares[h, i, j]

    def test_labels_that_need_quoting_read_back(self, tmp_path):
        labels = ["A,1", 'B"q', "M"]
        panel = panel_fixture(labels=labels)
        cfg = write_run_config(tmp_path, panel=panel, market="", members="")
        header = (tmp_path / "returns.csv").read_text().splitlines()[0]
        assert header == 'date,"A,1","B""q",M'
        assert main(["describe", str(cfg)]) == 0
        assert main(["predict", str(cfg)]) == 0
        with open(tmp_path / "out" / "fig_returns.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [row[1] for row in rows] == [l for l in labels for _ in range(len(panel))]
        with open(tmp_path / "out" / "fig_irf.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [row[1:3] for row in rows[:9]] == [[r, c] for r in labels for c in labels]
        assert {row[0] for row in rows} == {str(h) for h in range(9)}

    # holding every row of fig_returns.csv and fig_log_prices.csv took
    # 6.6 MB on this panel, and fig_irf.csv's and fig_fevd.csv's 7.4 MB;
    # streamed they take 1.4 and 3.2 MB
    @pytest.mark.parametrize("command, bound_mb", [("describe", 3.0), ("predict", 5.0)])
    def test_peak_memory_of_a_wide_panel(self, tmp_path, command, bound_mb):
        cfg = wide_panel_config(tmp_path)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            status = main([command, str(cfg)])
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert status == 0
        assert peak <= bound_mb * 1e6, f"peak {peak / 1e6:.2f} MB"


class TestBundledDataset:
    def test_demo_report_runs_clean(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = load_config(DEMO_DIR / "demo.cfg")
        assert config.output_dir == tmp_path / "out" or not config.output_dir.is_absolute()
        from retlab.cli.pipeline import run

        assert run("report", config) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert all(s["status"] == "ok" for s in summary["stages"])
        assert summary["panel"] == ["REIT", "HOUSE", "PORT"]

    def test_report_ignores_row_order_and_layout(self, tmp_path, monkeypatch):
        lines = (DEMO_DIR / "demo_returns.csv").read_text(encoding="utf-8").splitlines()
        header, rows = lines[0].split(","), lines[1:]
        long_rows = [
            f"{cells[0]},{label},{cell}"
            for cells in (row.split(",") for row in rows)
            for label, cell in zip(header[1:], cells[1:])
        ]
        rng = np.random.default_rng(12)
        inputs = {
            "wide": ("wide", lines),
            "shuffled": ("wide", [lines[0]] + list(rng.permutation(rows))),
            "long": ("long", ["date,series,value"] + list(rng.permutation(long_rows))),
        }
        config = (DEMO_DIR / "demo.cfg").read_text(encoding="utf-8")
        outputs = {}
        for name, (layout, text) in inputs.items():
            run_dir = tmp_path / name
            run_dir.mkdir()
            shutil.copy(DEMO_DIR / "demo_constituents.csv", run_dir)
            write_lines(run_dir / "demo_returns.csv", text)
            (run_dir / "demo.cfg").write_text(
                config.replace("layout = wide", f"layout = {layout}"), encoding="utf-8"
            )
            monkeypatch.chdir(run_dir)
            assert main(["report", "demo.cfg"]) == 0
            outputs[name] = {p.name: p.read_bytes() for p in (run_dir / "out").iterdir()}
        assert "summary.json" in outputs["wide"]
        assert outputs["shuffled"] == outputs["wide"]
        assert outputs["long"] == outputs["wide"]


def count_forks(monkeypatch, warn=False):
    """Record each ``os.fork`` call; with `warn`, first issue the
    DeprecationWarning that Python 3.12 gives when a process with threads
    forks."""
    made = []
    real_fork = os.fork

    def fork():
        made.append(os.getpid())
        if warn:
            warnings.warn(
                f"This process (pid={os.getpid()}) is multi-threaded, use of "
                "fork() may lead to deadlocks in the child.",
                DeprecationWarning, stacklevel=2,
            )
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return made


def run_with_workers(monkeypatch, command, config_path, out_dir, workers):
    """Run `command` with `workers` usable CPUs, so at most that many
    worker processes; its exit status and every output file's bytes."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)))
    map_phases = retlab.workers.map_phases

    def map_phases_then_check(*phases):
        results = map_phases(*phases)
        with pytest.raises(ChildProcessError):  # no child left, reaped or not
            os.waitpid(-1, os.WNOHANG)
        return results

    monkeypatch.setattr(retlab.workers, "map_phases", map_phases_then_check)
    config = dataclasses.replace(load_config(config_path), output_dir=out_dir)
    status = pipeline.run(command, config)
    return status, {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def write_failing_risk_config(tmp_path):
    """The demo returns plus BIG, a copy of REIT with one +150 % month,
    whose loss of -150 the models fit like any other; MKT's and the
    residual GARCH fits warn. `fail_big_raw_returns` makes BIG's
    raw-return job raise."""
    lines = (DEMO_DIR / "demo_returns.csv").read_text(encoding="utf-8").splitlines()
    rows = [lines[0] + ",BIG"]
    for i, line in enumerate(lines[1:]):
        big = "150.0" if i == 100 else line.split(",")[1]
        rows.append(f"{line},{big}")
    write_lines(tmp_path / "returns.csv", rows)
    cfg = tmp_path / "risk.cfg"
    cfg.write_text(
        "[inputs]\nreturns = returns.csv\nlayout = wide\n"
        "[series]\nmarket = MKT\npanel = REIT, HOUSE, BIG\n"
        "[factors]\ncount = 1\n",
        encoding="utf-8",
    )
    return cfg


def fail_big_raw_returns(monkeypatch):
    """Make `risk_report` raise on BIG's raw returns, the only series with
    a month above +100 %: no input makes it raise by itself, since fitter
    and query errors land in the report. `_risk_job` looks it up on each
    call, and forked workers inherit the patch."""
    report = pipeline.risk_report

    def failing_report(s, config):
        if s.label == "BIG" and s.values.max() > 100:
            raise ValidationError(f"series {s.label!r} refused by the test double")
        return report(s, config)

    monkeypatch.setattr(pipeline, "risk_report", failing_report)


class TestRiskWorkers:
    """The risk stage fits its jobs, and the IRF bootstrap its replicate
    blocks, in forked workers when more than one CPU is usable; no output
    byte may depend on it."""

    def test_demo_report_identical_with_one_and_two_workers(self, tmp_path, monkeypatch):
        forks = count_forks(monkeypatch)
        cfg = DEMO_DIR / "demo.cfg"
        serial = run_with_workers(monkeypatch, "report", cfg, tmp_path / "one", 1)
        assert forks == []
        pooled = run_with_workers(monkeypatch, "report", cfg, tmp_path / "two", 2)
        # two for the risk jobs, two for the IRF bootstrap
        assert len(forks) == 4
        assert serial[0] == pooled[0] == 0
        assert "summary.json" in serial[1]
        assert serial[1].keys() == pooled[1].keys()
        for name in serial[1]:
            assert serial[1][name] == pooled[1][name], f"{name} differs"

    def test_job_errors_and_warnings_keep_job_order(self, tmp_path, monkeypatch):
        cfg = write_failing_risk_config(tmp_path)
        fail_big_raw_returns(monkeypatch)
        serial = run_with_workers(monkeypatch, "risk", cfg, tmp_path / "one", 1)
        pooled = run_with_workers(monkeypatch, "risk", cfg, tmp_path / "two", 2)
        assert serial[0] == pooled[0] == 1
        stage = json.loads(serial[1]["summary.json"])["stages"][1]
        assert stage["error"].startswith(
            "BIG (raw-returns): series 'BIG' refused by the test double"
        )
        assert len(set(stage["warnings"])) >= 2, stage["warnings"]
        assert serial[1] == pooled[1]

    def test_risk_warnings_name_their_job(self, tmp_path, monkeypatch):
        cfg = write_failing_risk_config(tmp_path)
        fail_big_raw_returns(monkeypatch)
        status, files = run_with_workers(monkeypatch, "risk", cfg, tmp_path / "out", 1)
        assert status == 1
        stage = json.loads(files["summary.json"])["stages"][1]
        jobs = [w.split(": ")[1] for w in stage["warnings"]]
        assert jobs == ["MKT (raw-returns)", "REIT (residuals)", "BIG (residuals)"]
        for warning in stage["warnings"]:
            assert warning.startswith("RuntimeWarning: ")
            assert "alpha + beta" in warning and "near 1" in warning

    def test_month_above_plus_100_pct_fits_both_bases(self, tmp_path, monkeypatch):
        cfg = write_failing_risk_config(tmp_path)
        status, files = run_with_workers(monkeypatch, "risk", cfg, tmp_path / "out", 1)
        assert status == 0
        rows = [row.split(",") for row in files["risk.csv"].decode().splitlines()[1:]]
        big = [row for row in rows if row[0] == "BIG"]
        assert [row[1] for row in big] == ["raw-returns"] * 9 + ["residuals"] * 9

    def test_residuals_are_swept_once_per_stage(self, tmp_path, monkeypatch):
        sweeps = []
        sweep = risk.residual_panel

        def counted_sweep(*args):
            sweeps.append(args)
            return sweep(*args)

        monkeypatch.setattr(risk, "residual_panel", counted_sweep)
        cfg = DEMO_DIR / "demo.cfg"
        status, _ = run_with_workers(monkeypatch, "report", cfg, tmp_path / "out", 1)
        assert status == 0
        assert len(sweeps) == 1

    def test_failed_sweep_fails_every_residual_job(self, tmp_path, monkeypatch):
        # two factors of three identical series: the sweep's regressions
        # on the component scores are collinear
        a = panel_fixture().select("A")
        write_panel(
            tmp_path / "returns.csv",
            Panel(tuple(ReturnSeries(label, a.grid, a.values) for label in "ABC")),
        )
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "[inputs]\nreturns = returns.csv\nlayout = wide\n"
            "[series]\npanel = A, B, C\n[factors]\ncount = 2\n",
            encoding="utf-8",
        )
        status, files = run_with_workers(monkeypatch, "risk", cfg, tmp_path / "out", 1)
        assert status == 1
        stage = json.loads(files["summary.json"])["stages"][1]
        assert stage["error"] == "; ".join(
            f"{label} (residuals): collinear regressors: PC2"
            for label in "ABC"
        )
        rows = files["risk.csv"].decode().splitlines()[1:]
        assert {row.split(",")[1] for row in rows} == {"raw-returns"}

    @pytest.mark.parametrize("level", ["1.0", "0.4"])
    def test_constant_member_fails_only_its_residual_job(self, tmp_path, monkeypatch, level):
        # 160 months of 0.4 do not round-trip through the mean; of 1.0 they do
        a, b = panel_fixture().series[:2]
        k = ReturnSeries("K", a.grid, np.full(len(a), float(level)))
        write_panel(tmp_path / "returns.csv", Panel((a, b, k)))
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "[inputs]\nreturns = returns.csv\nlayout = wide\n"
            "[series]\npanel = A, B, K\n[factors]\ncount = 1\n",
            encoding="utf-8",
        )
        status, files = run_with_workers(monkeypatch, "risk", cfg, tmp_path / "out", 1)
        assert status == 1
        stage = json.loads(files["summary.json"])["stages"][1]
        assert stage["error"] == "K (residuals): series 'K' is constant; R^2 undefined"
        rows = files["risk.csv"].decode().splitlines()[1:]
        residual_jobs = {row.split(",")[0] for row in rows if row.split(",")[1] == "residuals"}
        assert residual_jobs == {"A", "B"}

        status, files = run_with_workers(monkeypatch, "pca", cfg, tmp_path / "pca", 1)
        assert status == 1
        summary = json.loads(files["summary.json"])
        assert summary["stages"][1]["error"] == "K: series 'K' is constant; R^2 undefined"
        assert list(summary["parameters"]["pca"]["regressions"]) == ["A", "B"]
        rows = files["factor_regressions.csv"].decode().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["A", "B"]

    def test_fork_warning_stays_out_of_the_manifest(self, tmp_path, monkeypatch):
        cfg = DEMO_DIR / "demo.cfg"
        serial = run_with_workers(monkeypatch, "risk", cfg, tmp_path / "one", 1)
        forks = count_forks(monkeypatch, warn=True)
        pooled = run_with_workers(monkeypatch, "risk", cfg, tmp_path / "two", 2)
        assert len(forks) == 2
        assert pooled[1]["summary.json"] == serial[1]["summary.json"]
