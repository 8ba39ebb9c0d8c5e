"""Univariate moments, normality statistics, correlograms, market betas, and
annual cross-sectional summaries.

Moment conventions: the reported sd uses the n-1 denominator; the
standardized third and fourth moments feeding the Jarque-Bera statistic use
n denominators, which keeps JB consistent with its chi-square(2) reference
(5% critical value 5.99). Autocorrelations use the n-denominator estimator,
so every correlation lands in [-1, 1] by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import (
    AlignmentError,
    DegenerateVarianceError,
    InsufficientDataError,
    SingularDenominatorError,
    ValidationError,
)
from .series import Month, ReturnSeries, TimeGrid

JB_CRITICAL_5PCT = 5.99  # chi-square(2) upper 5% point, rounded as conventionally quoted


@dataclass(frozen=True)
class StatSummary:
    """Moment summary of one return series.

    Attributes:
        mean, sd: percent per month (sd with n-1 denominator).
        skewness, excess_kurtosis: standardized central moments, n denominator.
        jarque_bera: (n/6) * (S^2 + K^2/4), asymptotically chi-square(2).
        autocorr1: lag-1 sample autocorrelation.
        n: observation count.
    """

    mean: float
    sd: float
    skewness: float
    excess_kurtosis: float
    jarque_bera: float
    autocorr1: float
    n: int

    def __post_init__(self) -> None:
        if self.sd < 0:
            raise ValidationError(f"sd must be >= 0, got {self.sd}")
        if self.jarque_bera < 0:
            raise ValidationError(f"jarque_bera must be >= 0, got {self.jarque_bera}")
        if abs(self.autocorr1) > 1 + 1e-12:
            raise ValidationError(f"autocorr1 {self.autocorr1} outside [-1, 1]")


@dataclass(frozen=True)
class CorrelogramEntry:
    """One lag of an auto- or cross-correlogram.

    `band` is the +/-1.96/sqrt(n) half-width appropriate for testing a zero
    correlation under independence.
    """

    lag: int
    value: float
    band: float


@dataclass(frozen=True)
class CrossSectionRow:
    """One calendar year of cross-sectional summary statistics.

    mean_of_sds averages the per-asset standard deviations for that year
    (not the sd of the means).
    """

    year: int
    n_assets: int
    mean_of_means: float
    mean_of_sds: float
    mean_beta: float
    sd_beta: float

    def __post_init__(self) -> None:
        if self.n_assets < 1:
            raise ValidationError("cross-section row needs at least one asset")
        if self.mean_of_sds < 0:
            raise ValidationError("mean_of_sds must be >= 0")


def sorted_quantile(values: np.ndarray, q: float) -> np.ndarray:
    """The q-quantile along axis 0 of values sorted along it, without NaN:
    `np.quantile(values, q, axis=0)` by its default linear method, bit for
    bit. The two order statistics either side of (n - 1) q are
    interpolated as numpy's `_lerp` does; numpy's own route partitions
    the data, and on numpy 2 imports `numpy.ma` to do so."""
    position = (values.shape[0] - 1) * q
    below = int(position)
    above = min(below + 1, values.shape[0] - 1)
    gamma = position - below
    low, high = values[below], values[above]
    if gamma >= 0.5:
        return high - (high - low) * (1 - gamma)
    return low + (high - low) * gamma


def _autocorr(x: np.ndarray, lag: int) -> float:
    """Sample autocorrelation with full-sample mean and n denominator."""
    centered = x - x.mean()
    denom = float(np.dot(centered, centered))
    if denom == 0.0:
        raise DegenerateVarianceError("autocorrelation of a constant series")
    if lag == 0:
        return 1.0
    return float(np.dot(centered[lag:], centered[:-lag]) / denom)


def describe(s: ReturnSeries) -> StatSummary:
    """Moment summary with Jarque-Bera normality statistic.

    Raises:
        InsufficientDataError: fewer than 4 observations.
        DegenerateVarianceError: constant series (standardized moments
            undefined).
    """
    x = s.values
    n = len(x)
    if n < 4:
        raise InsufficientDataError(
            f"describe needs n >= 4, series {s.label!r} has {n}"
        )
    centered = x - x.mean()
    m2 = float(np.mean(centered**2))
    if m2 == 0.0:
        raise DegenerateVarianceError(
            f"series {s.label!r} is constant; skewness and kurtosis undefined"
        )
    skew = float(np.mean(centered**3) / m2**1.5)
    exc_kurt = float(np.mean(centered**4) / m2**2 - 3.0)
    jb = n / 6.0 * (skew**2 + exc_kurt**2 / 4.0)
    return StatSummary(
        mean=float(x.mean()),
        sd=float(np.std(x, ddof=1)),
        skewness=skew,
        excess_kurtosis=exc_kurt,
        jarque_bera=jb,
        autocorr1=_autocorr(x, 1),
        n=n,
    )


def _require_same_grid(a: ReturnSeries, b: ReturnSeries) -> None:
    if a.grid != b.grid:
        raise AlignmentError(
            f"series {a.label!r} ({a.grid.span()}) and {b.label!r} "
            f"({b.grid.span()}) are not on a common grid; align them first"
        )


def correlogram(
    x: ReturnSeries, y: ReturnSeries, max_lag: int
) -> list[CorrelogramEntry]:
    """Correlations of x against lags of y, with confidence bands.

    Entry at lag L is the correlation of x_t with y_{t-L}, computed with
    full-sample means and sds and an n denominator (so |value| <= 1 always).
    When x and y are the same series the result covers lags 0..max_lag;
    otherwise lags -max_lag..max_lag.

    Raises:
        AlignmentError: grids differ.
        ValidationError: max_lag not in [0, n/2).
    """
    _require_same_grid(x, y)
    n = len(x)
    if not 0 <= max_lag < n / 2:
        raise ValidationError(f"max_lag must lie in [0, n/2), got {max_lag} for n={n}")
    xc = x.values - x.values.mean()
    yc = y.values - y.values.mean()
    sx = float(np.sqrt(np.dot(xc, xc)))
    sy = float(np.sqrt(np.dot(yc, yc)))
    if sx == 0.0 or sy == 0.0:
        raise DegenerateVarianceError("correlogram of a constant series")
    band = 1.96 / np.sqrt(n)
    is_auto = x.label == y.label and np.array_equal(x.values, y.values)
    lags = range(0, max_lag + 1) if is_auto else range(-max_lag, max_lag + 1)

    entries = []
    for lag in lags:
        if is_auto and lag == 0:
            entries.append(CorrelogramEntry(lag=0, value=1.0, band=band))
            continue
        if lag >= 0:
            num = float(np.dot(xc[lag:], yc[: n - lag]))
        else:
            num = float(np.dot(xc[: n + lag], yc[-lag:]))
        entries.append(CorrelogramEntry(lag=lag, value=num / (sx * sy), band=band))
    return entries


def ols_beta(s: ReturnSeries, market: ReturnSeries) -> float:
    """Slope of s on the market: cov(s, market)/var(market), n-1 conventions.

    Raises:
        AlignmentError: grids differ.
        DegenerateVarianceError: market variance is zero.
    """
    _require_same_grid(s, market)
    return _slope(s.values, market.values)


def _slope(y: np.ndarray, x: np.ndarray) -> float:
    # cov/var as a ratio of centered dot products; the n-1 factors cancel
    xc = x - x.mean()
    yc = y - y.mean()
    denom = float(np.dot(xc, xc))
    if denom == 0.0:
        raise DegenerateVarianceError("regressor variance is zero")
    return float(np.dot(yc, xc) / denom)


def scholes_williams_beta(s: ReturnSeries, market: ReturnSeries) -> float:
    """Nonsynchronous-trading-corrected beta.

    (b_minus + b_zero + b_plus) / (1 + 2*rho_m), where the three slopes
    regress s on the lagged, contemporaneous, and led market and rho_m is
    the market's lag-1 autocorrelation.

    Raises:
        InsufficientDataError: n < 3.
        SingularDenominatorError: |1 + 2*rho_m| below 1e-8.
        AlignmentError, DegenerateVarianceError: as for ols_beta.
    """
    _require_same_grid(s, market)
    n = len(s)
    if n < 3:
        raise InsufficientDataError(f"Scholes-Williams beta needs n >= 3, got {n}")
    sv, mv = s.values, market.values
    b_minus = _slope(sv[1:], mv[:-1])
    b_zero = _slope(sv, mv)
    b_plus = _slope(sv[:-1], mv[1:])
    rho_m = _autocorr(mv, 1)
    denom = 1.0 + 2.0 * rho_m
    if abs(denom) < 1e-8:
        raise SingularDenominatorError(
            f"1 + 2*rho_market = {denom:.2e} is numerically zero"
        )
    return (b_minus + b_zero + b_plus) / denom


def cross_sectional_summary(
    assets: Iterable[ReturnSeries], market: ReturnSeries
) -> list[CrossSectionRow]:
    """Annual cross-section of per-asset means, sds, and betas.

    An asset contributes to a calendar year only when it has all 12 months
    of that year; the market must cover the year too. Years with no
    qualifying asset are omitted. sd_beta is 0 when a single asset
    qualifies.
    """
    asset_list = list(assets)
    if not asset_list:
        return []
    years = range(
        min(a.grid.start.year for a in asset_list),
        max(a.grid.end.year for a in asset_list) + 1,
    )
    rows: list[CrossSectionRow] = []
    for year in years:
        year_grid = TimeGrid(Month(year, 1), 12)
        if not (year_grid.start in market.grid and year_grid.end in market.grid):
            continue
        m_slice = market.restrict(year_grid).values
        means, sds, betas = [], [], []
        for asset in asset_list:
            if year_grid.start in asset.grid and year_grid.end in asset.grid:
                a_slice = asset.restrict(year_grid).values
                means.append(float(a_slice.mean()))
                sds.append(float(np.std(a_slice, ddof=1)))
                betas.append(_slope(a_slice, m_slice))
        if not means:
            continue
        rows.append(
            CrossSectionRow(
                year=year,
                n_assets=len(means),
                mean_of_means=float(np.mean(means)),
                mean_of_sds=float(np.mean(sds)),
                mean_beta=float(np.mean(betas)),
                sd_beta=float(np.std(betas, ddof=1)) if len(betas) > 1 else 0.0,
            )
        )
    return rows
