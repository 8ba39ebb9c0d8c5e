"""Monthly time grids, series, panels, and value-weighted index construction.

Conventions used throughout the package:

* Time is a contiguous monthly grid. Missing interior months are rejected at
  ingestion; no container ever holds a gap.
* A `Series` holds finite values on a grid. Losses and factor residuals are
  plain `Series`; a `ReturnSeries` adds the -100 % floor, and every return
  from outside (ingest, synth, the value-weighted index) is one.
* Returns are simple returns in percent per month. A value of 1.0 means +1%.
* All containers are immutable after construction and every operation here is
  a pure function, so concurrent use on distinct inputs is safe.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from typing import Iterable, Iterator

import numpy as np

from .errors import (
    AlignmentError,
    GapError,
    LengthError,
    ValidationError,
)

_MONTH_PATTERN = re.compile(r"^(\d{4})-(\d{2})$", re.ASCII)


@dataclass(frozen=True, order=True)
class Month:
    """A calendar month, totally ordered and hashable.

    Attributes:
        year: four-digit calendar year.
        month: 1..12.
    """

    year: int
    month: int

    def __post_init__(self) -> None:
        if not (1 <= self.year <= 9999):
            raise ValidationError(f"year {self.year} outside 1..9999")
        if not (1 <= self.month <= 12):
            raise ValidationError(f"month {self.month} outside 1..12")

    @classmethod
    def parse(cls, text: str) -> "Month":
        """Parse an ISO year-month string like '2009-05'."""
        m = _MONTH_PATTERN.match(text.strip())
        if m is None:
            raise ValidationError(f"malformed year-month {text!r}, expected YYYY-MM")
        return cls(int(m.group(1)), int(m.group(2)))

    @property
    def ordinal(self) -> int:
        """Months since 0001-01; consecutive months differ by exactly 1."""
        return self.year * 12 + self.month - 13

    @classmethod
    def from_ordinal(cls, ordinal: int) -> "Month":
        year, month0 = divmod(ordinal + 12, 12)
        return cls(year, month0 + 1)

    def __add__(self, months: int) -> "Month":
        if not isinstance(months, int):
            return NotImplemented
        return Month.from_ordinal(self.ordinal + months)

    def __sub__(self, other: "Month | int"):
        if isinstance(other, Month):
            return self.ordinal - other.ordinal
        if isinstance(other, int):
            return Month.from_ordinal(self.ordinal - other)
        return NotImplemented

    def __str__(self) -> str:
        return f"{self.year:04d}-{self.month:02d}"


@dataclass(frozen=True)
class TimeGrid:
    """A contiguous span of calendar months.

    Attributes:
        start: first month of the span.
        length: number of consecutive months, at least 1.

    Representation invariant: the grid covers start, start+1, ..,
    start+length-1 with no holes. Gaps cannot be represented.
    """

    start: Month
    length: int

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValidationError(f"grid length must be >= 1, got {self.length}")

    @property
    def end(self) -> Month:
        """Last month of the span (inclusive)."""
        return self.start + (self.length - 1)

    def __len__(self) -> int:
        return self.length

    def __iter__(self) -> Iterator[Month]:
        for i in range(self.length):
            yield self.start + i

    def __contains__(self, month: Month) -> bool:
        return 0 <= month - self.start < self.length

    def index(self, month: Month) -> int:
        """Position of `month` within the grid; KeyError if outside."""
        offset = month - self.start
        if not 0 <= offset < self.length:
            raise KeyError(f"{month} not in grid {self.span()}")
        return offset

    def span(self) -> str:
        return f"{self.start}..{self.end}"

    def labels(self) -> list[str]:
        """ISO year-month text of every month in the grid, in order: the
        ``str`` of each month, without building the months."""
        first = self.start.ordinal + 12
        return [
            f"{o // 12:04d}-{o % 12 + 1:02d}"
            for o in range(first, first + self.length)
        ]

    def intersect(self, other: "TimeGrid") -> "TimeGrid | None":
        """Maximal common sub-grid, or None when the spans are disjoint."""
        lo = max(self.start.ordinal, other.start.ordinal)
        hi = min(self.end.ordinal, other.end.ordinal)
        if lo > hi:
            return None
        return TimeGrid(Month.from_ordinal(lo), hi - lo + 1)


@dataclass(frozen=True)
class Series:
    """A labelled series of finite monthly values: returns, losses, factor
    residuals or log prices.

    Attributes:
        label: display name, also the join key in panels.
        grid: the contiguous monthly grid the values sit on.
        values: one finite value per grid month, held as a read-only copy.
    """

    label: str
    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.values, dtype=np.float64, copy=True)
        if arr.ndim != 1:
            raise ValidationError(
                f"values of {self.label!r} must be one-dimensional, "
                f"got shape {arr.shape}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        if len(arr) != self.grid.length:
            raise ValidationError(
                f"series {self.label!r}: {len(arr)} values on a "
                f"{self.grid.length}-month grid"
            )
        if not np.all(np.isfinite(arr)):
            raise ValidationError(f"series {self.label!r} contains non-finite values")

    def __len__(self) -> int:
        return self.grid.length

    def restrict(self, grid: TimeGrid) -> "Series":
        """Same-type copy truncated to `grid`, which must lie within; the
        series itself when `grid` is its own."""
        if grid == self.grid:
            return self
        lo = self.grid.index(grid.start)
        return replace(self, grid=grid, values=self.values[lo : lo + grid.length])

    def relabel(self, label: str) -> "Series":
        return replace(self, label=label)


@dataclass(frozen=True)
class ReturnSeries(Series):
    """A series of monthly simple returns in percent, each > -100."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if np.any(self.values <= -100.0):
            raise ValidationError(
                f"series {self.label!r} contains a simple return <= -100%"
            )


@dataclass(frozen=True)
class LogPriceSeries(Series):
    """Natural log of an index level, one value per month.

    The first value always equals log(base_level); later values accumulate
    log growth. Produced by `cumulate_log_price`.
    """

    base_level: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.base_level <= 0:
            raise ValidationError(f"base level must be positive, got {self.base_level}")
        if abs(self.values[0] - math.log(self.base_level)) > 1e-12:
            raise ValidationError(
                f"log-price series {self.label!r}: first value {self.values[0]} "
                f"does not equal log(base level) = {math.log(self.base_level)}"
            )


@dataclass(frozen=True)
class Panel:
    """An ordered collection of series sharing one grid: returns, or the
    factor residuals of returns.

    Attributes:
        series: at least one Series, all on the identical grid, labels
            unique.
    """

    series: tuple[Series, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "series", tuple(self.series))
        if not self.series:
            raise ValidationError("panel needs at least one series")
        grid = self.series[0].grid
        for s in self.series[1:]:
            if s.grid != grid:
                raise AlignmentError(
                    f"panel series {s.label!r} on grid {s.grid.span()} does not "
                    f"match {self.series[0].label!r} on {grid.span()}"
                )
        labels = [s.label for s in self.series]
        if len(set(labels)) != len(labels):
            dupes = sorted({x for x in labels if labels.count(x) > 1})
            raise ValidationError(f"duplicate series labels in panel: {dupes}")

    @property
    def grid(self) -> TimeGrid:
        return self.series[0].grid

    @property
    def labels(self) -> list[str]:
        return [s.label for s in self.series]

    @property
    def width(self) -> int:
        return len(self.series)

    @property
    def values(self) -> np.ndarray:
        """Time-by-series matrix of values (rows are months)."""
        mat = np.column_stack([s.values for s in self.series])
        mat.flags.writeable = False
        return mat

    def __len__(self) -> int:
        return self.grid.length

    def select(self, label: str) -> Series:
        for s in self.series:
            if s.label == label:
                return s
        raise KeyError(f"no series labelled {label!r} in panel")


@dataclass(frozen=True)
class ConstituentRecord:
    """One constituent's month: its return and its weight basis.

    Attributes:
        asset_id: constituent identifier.
        month: the month the return was realized.
        return_pct: simple return over `month`, percent units.
        market_cap: capitalization at the end of the prior month, in currency
            units; 0 marks a constituent with no prior-month cap (it then gets
            weight 0 for this month).
    """

    asset_id: str
    month: Month
    return_pct: float
    market_cap: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.return_pct):
            raise ValidationError(
                f"constituent {self.asset_id!r} @ {self.month}: non-finite return"
            )
        if self.return_pct <= -100.0:
            raise ValidationError(
                f"constituent {self.asset_id!r} @ {self.month}: return <= -100%"
            )
        if not math.isfinite(self.market_cap) or self.market_cap < 0:
            raise ValidationError(
                f"constituent {self.asset_id!r} @ {self.month}: market_cap must be "
                f"finite and >= 0, got {self.market_cap}"
            )


def build_value_weighted_index(
    records: Iterable[ConstituentRecord], label: str
) -> ReturnSeries:
    """Cap-weighted index return series from constituent records.

    Month-t index return is the prior-month-cap weighted mean of the returns
    of the constituents present at t with positive cap. Weights renormalize
    over whatever is present each month.

    Raises:
        GapError: some month inside the record span has no eligible
            constituent (a positive-cap record).
        ValidationError: duplicate (asset, month) records, or no records.
    """
    by_month: dict[Month, list[ConstituentRecord]] = {}
    seen: set[tuple[str, Month]] = set()
    for rec in records:
        key = (rec.asset_id, rec.month)
        if key in seen:
            raise ValidationError(
                f"duplicate constituent record for {rec.asset_id!r} @ {rec.month}"
            )
        seen.add(key)
        by_month.setdefault(rec.month, []).append(rec)
    if not by_month:
        raise ValidationError("no constituent records supplied")

    first = min(by_month)
    last = max(by_month)
    grid = TimeGrid(first, last - first + 1)
    out = np.empty(grid.length)
    for i, month in enumerate(grid):
        eligible = [r for r in by_month.get(month, []) if r.market_cap > 0]
        if not eligible:
            raise GapError(f"no eligible constituents for {month}")
        total_cap = sum(r.market_cap for r in eligible)
        out[i] = sum(r.market_cap * r.return_pct for r in eligible) / total_cap
    return ReturnSeries(label, grid, out)


def moving_average(s: ReturnSeries, window: int) -> ReturnSeries:
    """Trailing moving average: output at t is the mean of s[t-window+1 .. t].

    The output grid starts window-1 months later than the input and is
    window-1 months shorter. The label is suffixed with the window.

    Raises:
        ValidationError: window < 1.
        LengthError: series shorter than the window.
    """
    if window < 1:
        raise ValidationError(f"window must be >= 1, got {window}")
    if len(s) < window:
        raise LengthError(
            f"series {s.label!r} has {len(s)} months, shorter than window {window}"
        )
    kernel = np.full(window, 1.0 / window)
    smoothed = np.convolve(s.values, kernel, mode="valid")
    grid = TimeGrid(s.grid.start + (window - 1), len(s) - window + 1)
    return ReturnSeries(f"{s.label} MA{window}", grid, smoothed)


def cumulate_log_price(s: ReturnSeries, base: float = 100.0) -> LogPriceSeries:
    """Accumulate simple percent returns into a log price path.

    p_0 = log(base) sits one month before the first return; thereafter
    p_t = p_{t-1} + log(1 + r_t/100). Output has n+1 months.

    Raises:
        ValidationError: non-positive base.
    """
    if base <= 0:
        raise ValidationError(f"base level must be positive, got {base}")
    steps = np.log1p(s.values / 100.0)
    path = np.empty(len(s) + 1)
    path[0] = math.log(base)
    np.cumsum(steps, out=path[1:])
    path[1:] += path[0]
    grid = TimeGrid(s.grid.start - 1, len(s) + 1)
    return LogPriceSeries(s.label, grid, path, base_level=base)


def align(series: Iterable[Series]) -> Panel:
    """Panel over the maximal common grid of the given series.

    Raises:
        AlignmentError: the grids share no month; the message lists every
            series' span.
    """
    all_series = list(series)
    if not all_series:
        raise ValidationError("align needs at least one series")
    common: TimeGrid | None = all_series[0].grid
    for s in all_series[1:]:
        if common is None:
            break
        common = common.intersect(s.grid)
    if common is None:
        spans = ", ".join(f"{s.label!r}: {s.grid.span()}" for s in all_series)
        raise AlignmentError(f"series share no common months ({spans})")
    return Panel(tuple(s.restrict(common) for s in all_series))
