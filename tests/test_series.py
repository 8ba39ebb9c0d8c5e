"""Container invariants, index construction, smoothing, and log-price math."""

import math

import numpy as np
import pytest

from retlab.errors import (
    AlignmentError,
    GapError,
    LengthError,
    ValidationError,
)
from retlab.series import (
    ConstituentRecord,
    LogPriceSeries,
    Month,
    Panel,
    ReturnSeries,
    Series,
    TimeGrid,
    align,
    build_value_weighted_index,
    cumulate_log_price,
    moving_average,
)


def series_of(values, start="2000-01", label="x"):
    values = np.asarray(values, dtype=float)
    return ReturnSeries(label, TimeGrid(Month.parse(start), len(values)), values)


class TestMonth:
    def test_parse_and_format_round_trip(self):
        m = Month.parse("2009-05")
        assert (m.year, m.month) == (2009, 5)
        assert str(m) == "2009-05"

    def test_arithmetic_crosses_year_boundaries(self):
        assert Month(1999, 12) + 1 == Month(2000, 1)
        assert Month(2000, 1) - Month(1999, 12) == 1
        assert Month(1987, 2) + 24 == Month(1989, 2)

    def test_rejects_malformed_text(self):
        for bad in ["2009-13", "2009/05", "200905", "09-05", "2009-00"]:
            with pytest.raises(ValidationError):
                Month.parse(bad)

    def test_ordering(self):
        assert Month(1980, 1) < Month(1987, 2) < Month(2009, 5)


class TestTimeGrid:
    def test_contains_and_index(self):
        grid = TimeGrid(Month(2000, 11), 4)
        months = list(grid)
        assert [str(m) for m in months] == ["2000-11", "2000-12", "2001-01", "2001-02"]
        for i, m in enumerate(months):
            assert grid.index(m) == i
            assert m in grid
        assert Month(2001, 3) not in grid

    def test_zero_length_rejected(self):
        with pytest.raises(ValidationError):
            TimeGrid(Month(2000, 1), 0)

    def test_intersect_overlapping(self):
        a = TimeGrid(Month(1980, 1), 360)   # 1980-01 .. 2009-12
        b = TimeGrid(Month(1987, 2), 275)   # 1987-02 .. 2009-12
        common = a.intersect(b)
        assert common is not None
        assert common.start == Month(1987, 2)
        assert common.end == Month(2009, 12)

    @pytest.mark.parametrize("start, length", [
        (Month(1998, 11), 30), (Month(1, 1), 13), (Month(9999, 1), 12),
    ])
    def test_labels_are_the_months_as_text(self, start, length):
        grid = TimeGrid(start, length)
        assert grid.labels() == [str(month) for month in grid]

    def test_intersect_disjoint_is_none(self):
        a = TimeGrid(Month(1980, 1), 12)
        b = TimeGrid(Month(1990, 1), 12)
        assert a.intersect(b) is None


class TestReturnSeries:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            ReturnSeries("x", TimeGrid(Month(2000, 1), 3), np.zeros(4))

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            series_of([1.0, np.nan, 2.0])
        with pytest.raises(ValidationError):
            series_of([1.0, np.inf, 2.0])

    def test_total_loss_rejected(self):
        with pytest.raises(ValidationError):
            series_of([1.0, -100.0])
        s = series_of([1.0, -99.9])  # survivable loss is fine
        assert len(s) == 2

    def test_values_are_immutable(self):
        s = series_of([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            s.values[0] = 9.0

    def test_construction_copies_input(self):
        raw = np.array([1.0, 2.0])
        s = series_of(raw)
        raw[0] = 50.0
        assert s.values[0] == 1.0


class TestSeries:
    """The checks every kind of series shares, once in `Series`, and the
    ones each kind adds."""

    GRID = TimeGrid(Month(2000, 1), 3)

    @pytest.mark.parametrize("kind", [Series, ReturnSeries, LogPriceSeries])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, kind, bad):
        with pytest.raises(ValidationError, match="series 'x' contains non-finite"):
            kind("x", self.GRID, [0.0, bad, 1.0])

    @pytest.mark.parametrize("kind", [Series, ReturnSeries, LogPriceSeries])
    @pytest.mark.parametrize("n", [2, 4])
    def test_length_off_the_grid_rejected(self, kind, n):
        with pytest.raises(ValidationError, match=f"{n} values on a 3-month grid"):
            kind("x", self.GRID, np.zeros(n))

    @pytest.mark.parametrize("kind", [Series, ReturnSeries, LogPriceSeries])
    def test_read_only_copy(self, kind):
        raw = np.array([0.0, 1.0, 2.0])
        s = kind("x", self.GRID, raw)
        raw[1] = 5.0
        assert s.values[1] == 1.0 and len(s) == 3
        with pytest.raises(ValueError):
            s.values[0] = 9.0

    def test_plain_series_has_no_floor(self):
        s = Series("losses", self.GRID, [-150.0, -100.0, 120.0])
        assert s.values.min() == -150.0

    def test_restrict_and_relabel_keep_the_kind(self):
        tail = TimeGrid(Month(2000, 2), 2)
        for s in (Series("x", self.GRID, [-150.0, 1.0, 2.0]), series_of([1.0, 2.0, 3.0])):
            cut = s.restrict(tail)
            assert type(cut) is type(s) and cut.grid == tail
            np.testing.assert_array_equal(cut.values, s.values[1:])
            renamed = s.relabel("y")
            assert type(renamed) is type(s) and renamed.label == "y"

    @pytest.mark.parametrize("base", [0.0, -1.0])
    def test_log_price_non_positive_base_rejected(self, base):
        with pytest.raises(ValidationError, match="base level must be positive"):
            LogPriceSeries("x", self.GRID, [0.0, 0.1, 0.2], base_level=base)

    def test_log_price_first_value_must_be_log_base(self):
        start = math.log(100.0)
        LogPriceSeries("x", self.GRID, [start, 4.7, 4.8], base_level=100.0)
        with pytest.raises(ValidationError, match="does not equal log\\(base level\\)"):
            LogPriceSeries("x", self.GRID, [start + 1e-9, 4.7, 4.8], base_level=100.0)


class TestPanel:
    def test_mismatched_grids_rejected(self):
        a = series_of([1.0, 2.0], label="a")
        b = series_of([1.0, 2.0], start="2000-02", label="b")
        with pytest.raises(AlignmentError):
            Panel((a, b))

    def test_duplicate_labels_rejected(self):
        a = series_of([1.0, 2.0], label="a")
        with pytest.raises(ValidationError):
            Panel((a, a))

    def test_values_matrix_stacks_columns(self):
        a = series_of([1.0, 2.0], label="a")
        b = series_of([3.0, 4.0], label="b")
        panel = Panel((a, b))
        assert panel.values.shape == (2, 2)
        assert panel.values[0, 1] == 3.0
        assert panel.labels == ["a", "b"]


class TestValueWeightedIndex:
    def test_single_constituent_identity(self):
        records = [
            ConstituentRecord("A", Month(2000, 1), 1.0, 500.0),
            ConstituentRecord("A", Month(2000, 2), 2.0, 505.0),
        ]
        idx = build_value_weighted_index(records, "idx")
        assert np.allclose(idx.values, [1.0, 2.0])
        assert idx.grid.start == Month(2000, 1)

    def test_two_constituents_hand_arithmetic(self):
        # caps 100 and 300 at t-1, returns 4.0 and 0.0 -> 0.25*4 + 0.75*0 = 1.0
        records = [
            ConstituentRecord("A", Month(2000, 1), 4.0, 100.0),
            ConstituentRecord("B", Month(2000, 1), 0.0, 300.0),
        ]
        idx = build_value_weighted_index(records, "idx")
        assert idx.values[0] == pytest.approx(1.0, abs=1e-12)

    def test_equal_caps_give_arithmetic_mean(self):
        rng = np.random.default_rng(7)
        rets = rng.normal(size=10)
        records = [
            ConstituentRecord(f"C{i}", Month(2000, 1), r, 42.0)
            for i, r in enumerate(rets)
        ]
        idx = build_value_weighted_index(records, "idx")
        assert idx.values[0] == pytest.approx(rets.mean(), abs=1e-12)

    def test_convex_combination_bounds(self):
        rng = np.random.default_rng(11)
        records = []
        months = [Month(2000, 1) + i for i in range(24)]
        for month in months:
            for i in range(5):
                records.append(
                    ConstituentRecord(
                        f"C{i}", month, rng.normal(scale=5.0), rng.uniform(1.0, 9.0)
                    )
                )
        idx = build_value_weighted_index(records, "idx")
        for month in months:
            rets = [r.return_pct for r in records if r.month == month]
            t = idx.grid.index(month)
            assert min(rets) - 1e-12 <= idx.values[t] <= max(rets) + 1e-12

    def test_zero_cap_constituent_is_ignored(self):
        # entering constituent with no prior-month cap must get weight 0
        records = [
            ConstituentRecord("A", Month(2000, 1), 2.0, 100.0),
            ConstituentRecord("B", Month(2000, 1), 99.0, 0.0),
        ]
        idx = build_value_weighted_index(records, "idx")
        assert idx.values[0] == pytest.approx(2.0, abs=1e-12)

    def test_empty_month_names_the_gap(self):
        records = [
            ConstituentRecord("A", Month(2000, 1), 1.0, 10.0),
            ConstituentRecord("A", Month(2000, 3), 1.0, 10.0),
        ]
        with pytest.raises(GapError, match="2000-02"):
            build_value_weighted_index(records, "idx")

    def test_negative_cap_rejected(self):
        with pytest.raises(ValidationError):
            ConstituentRecord("A", Month(2000, 1), 1.0, -5.0)

    def test_duplicate_record_rejected(self):
        records = [
            ConstituentRecord("A", Month(2000, 1), 1.0, 10.0),
            ConstituentRecord("A", Month(2000, 1), 2.0, 10.0),
        ]
        with pytest.raises(ValidationError, match="duplicate"):
            build_value_weighted_index(records, "idx")


class TestMovingAverage:
    def test_constant_series_unchanged(self):
        s = series_of(np.full(10, 3.25))
        out = moving_average(s, 3)
        assert np.allclose(out.values, 3.25, atol=1e-14)

    def test_exact_arithmetic(self):
        s = series_of([3.0, 6.0, 9.0, 12.0])
        out = moving_average(s, 3)
        assert np.allclose(out.values, [6.0, 9.0])
        assert out.grid.start == Month(2000, 3)
        assert out.label == "x MA3"

    def test_noise_sd_shrinks_by_sqrt_window(self):
        rng = np.random.default_rng(314)
        s = series_of(rng.standard_normal(100000))
        out = moving_average(s, 3)
        ratio = np.std(out.values, ddof=1) / np.std(s.values, ddof=1)
        assert abs(ratio - 1 / math.sqrt(3)) < 0.01, f"sd ratio {ratio:.4f}"

    def test_linearity(self):
        rng = np.random.default_rng(9)
        x = series_of(rng.standard_normal(50), label="x")
        y = series_of(rng.standard_normal(50), label="y")
        combo = series_of(2.0 * x.values + 0.5 * y.values, label="combo")
        lhs = moving_average(combo, 4).values
        rhs = 2.0 * moving_average(x, 4).values + 0.5 * moving_average(y, 4).values
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_window_longer_than_series(self):
        with pytest.raises(LengthError):
            moving_average(series_of([1.0, 2.0]), 3)

    def test_window_below_one(self):
        with pytest.raises(ValidationError):
            moving_average(series_of([1.0, 2.0]), 0)


class TestCumulateLogPrice:
    def test_zero_returns_constant_log_base(self):
        s = series_of(np.zeros(12))
        p = cumulate_log_price(s, base=100.0)
        assert np.allclose(p.values, math.log(100.0), atol=1e-14)

    def test_single_step_definition(self):
        s = series_of([10.0])
        p = cumulate_log_price(s, base=1.0)
        assert p.values[0] == 0.0
        assert p.values[1] == pytest.approx(math.log(1.1), abs=1e-15)
        # the base point sits one month before the first return
        assert p.grid.start == Month(1999, 12)
        assert len(p) == 2

    def test_round_trip_recovers_returns(self):
        rng = np.random.default_rng(21)
        s = series_of(rng.normal(scale=4.0, size=500))
        p = cumulate_log_price(s, base=100.0)
        recovered = (np.exp(np.diff(p.values)) - 1.0) * 100.0
        assert np.max(np.abs(recovered - s.values)) < 1e-10

    def test_first_difference_is_log_growth_exactly(self):
        s = series_of([5.0, -2.0, 0.5])
        p = cumulate_log_price(s, base=50.0)
        assert np.allclose(np.diff(p.values), np.log1p(s.values / 100.0), atol=0.0)

    def test_non_positive_base_rejected(self):
        with pytest.raises(ValidationError):
            cumulate_log_price(series_of([1.0]), base=0.0)


class TestAlign:
    def test_identical_grids_pass_through(self):
        a = series_of([1.0, 2.0], label="a")
        b = series_of([3.0, 4.0], label="b")
        panel = align([a, b])
        assert panel.grid == a.grid
        assert np.allclose(panel.values, [[1.0, 3.0], [2.0, 4.0]])

    def test_overlapping_spans_truncate(self):
        long_grid = TimeGrid(Month(1980, 1), 360)
        short_grid = TimeGrid(Month(1987, 2), 275)
        a = ReturnSeries("a", long_grid, np.arange(360, dtype=float) / 100.0)
        b = ReturnSeries("b", short_grid, np.zeros(275))
        panel = align([a, b])
        assert panel.grid.start == Month(1987, 2)
        assert panel.grid.end == Month(2009, 12)
        offset = long_grid.index(Month(1987, 2))
        assert panel.series[0].values[0] == a.values[offset]

    def test_disjoint_spans_raise_with_spans_listed(self):
        a = series_of([1.0], start="1980-01", label="early")
        b = series_of([1.0], start="1990-01", label="late")
        with pytest.raises(AlignmentError, match="early.*1980-01.*late.*1990-01"):
            align([a, b])

    def test_idempotent(self):
        a = series_of([1.0, 2.0, 3.0], label="a")
        b = series_of([4.0, 5.0, 6.0], label="b")
        once = align([a, b])
        twice = align(once.series)
        assert twice.grid == once.grid
        assert np.array_equal(twice.values, once.values)
