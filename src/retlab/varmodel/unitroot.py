"""Unit-root and stationarity tests: augmented Dickey-Fuller, the
Phillips-Perron correction, and the KPSS level-stationarity statistic.

All regressions include a constant and no trend, and are fit by
`retlab.regression.ols`. ADF and PP p-values are interpolated from an
embedded critical-value table for the constant-only case (levels
0.01..0.99), first in 1/n across tabulated sample sizes and then across
levels; interpolated p-values are therefore bounded by the table's
coverage, [0.01, 0.99].
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np

from ..errors import DegenerateVarianceError, InsufficientDataError, ValidationError
from ..regression import ols
from ..series import Series


@dataclass(frozen=True)
class UnitRootReport:
    """Three unit-root perspectives on one series.

    ADF and PP test the unit-root null (small p rejects the unit root);
    KPSS tests the stationarity null, so its rejection flags point the
    other way. `bandwidth` is the Bartlett lag window shared by the PP
    correction and the KPSS denominator.
    """

    label: str
    n: int
    adf_stat: float
    adf_p_value: float
    adf_lags: int
    pp_stat: float
    pp_p_value: float
    kpss_stat: float
    kpss_reject_5pct: bool
    kpss_reject_1pct: bool
    bandwidth: int

    def __post_init__(self) -> None:
        for name, p in (("adf", self.adf_p_value), ("pp", self.pp_p_value)):
            if not 0.0 <= p <= 1.0:
                raise ValidationError(f"{name} p-value {p} outside [0,1]")
        if self.kpss_stat < 0:
            raise ValidationError(f"KPSS statistic must be >= 0, got {self.kpss_stat}")
        if self.kpss_reject_1pct and not self.kpss_reject_5pct:
            raise ValidationError("rejection at 1% implies rejection at 5%")


@lru_cache(maxsize=None)
def _load_table(name: str):
    """Parse a (sample_size, level, critical_value) CSV shipped with the
    package. sample_size 0 marks the asymptotic row."""
    path = resources.files("retlab.varmodel") / "tables" / name
    rows = []
    with path.open("r", encoding="utf-8") as handle:
        for record in csv.DictReader(handle):
            rows.append(
                (
                    int(record["sample_size"]),
                    float(record["level"]),
                    float(record["critical_value"]),
                )
            )
    sizes = sorted({r[0] for r in rows})
    levels = sorted({r[1] for r in rows})
    grid = np.full((len(sizes), len(levels)), np.nan)
    for size, level, crit in rows:
        grid[sizes.index(size), levels.index(level)] = crit
    if np.any(np.isnan(grid)):
        raise ValidationError(f"table {name} does not cover its full grid")
    return np.array(sizes), np.array(levels), grid


def _dickey_fuller_p_value(stat: float, n_eff: int) -> float:
    """Interpolate the tau statistic's p-value: linear in 1/n between
    tabulated sample sizes, then linear across tabulated levels."""
    sizes, levels, grid = _load_table("dickey_fuller_t.csv")
    inverses = np.where(sizes == 0, 0.0, 1.0 / np.maximum(sizes, 1))
    order = np.argsort(inverses)
    inverses = inverses[order]
    grid = grid[order]
    target = min(1.0 / n_eff, inverses[-1])
    crits = np.array(
        [np.interp(target, inverses, grid[:, j]) for j in range(len(levels))]
    )
    return float(np.interp(stat, crits, levels))


def _kpss_critical(level: float) -> float:
    _, levels, grid = _load_table("kpss_level.csv")
    matches = np.nonzero(np.isclose(levels, level))[0]
    if len(matches) != 1:
        raise ValidationError(f"KPSS table has no level {level}")
    return float(grid[0, matches[0]])


def _bartlett_long_run_variance(u: np.ndarray, bandwidth: int) -> float:
    """Newey-West estimate with Bartlett weights, n denominator."""
    n = len(u)
    total = float(u @ u) / n
    for j in range(1, bandwidth + 1):
        gamma = float(u[j:] @ u[:-j]) / n
        total += 2.0 * (1.0 - j / (bandwidth + 1)) * gamma
    return total


def _adf(y: np.ndarray):
    """Constant-only ADF with BIC lag selection up to 12*(n/100)^(1/4).

    Lag orders are compared on a common sample (the longest the maximum
    lag allows), then the chosen order is refit on its own full sample.
    Lag L's design on the common sample is the first L + 2 columns of the
    maximum lag's, so that design is built once.
    """
    n = len(y)
    dy = np.diff(y)
    max_lag = int(12.0 * (n / 100.0) ** 0.25)
    max_lag = min(max_lag, len(dy) - 10)  # keep enough rows to regress on
    max_lag = max(max_lag, 0)

    def build(lag: int, start: int):
        rows = np.arange(start, len(dy))
        cols = [np.ones(len(rows)), y[rows]]
        for j in range(1, lag + 1):
            cols.append(dy[rows - j])
        return np.column_stack(cols), dy[rows]

    widest, target = build(max_lag, max_lag)
    n_sel = len(target)
    best_lag = 0
    best_bic = math.inf
    for lag in range(max_lag + 1):
        resid = ols(widest[:, : lag + 2], target[:, None])[2][:, 0]
        ssr = float(resid @ resid)
        bic = n_sel * math.log(ssr / n_sel) + (lag + 2) * math.log(n_sel)
        if bic < best_bic:
            best_bic = bic
            best_lag = lag
    design, target = build(best_lag, best_lag)
    xtx_inv, coef, _, cov = ols(design, target[:, None])
    stat = float(coef[1, 0] / np.sqrt(cov[0, 0] * xtx_inv[1, 1]))
    return stat, best_lag, len(target)


def _phillips_perron(y: np.ndarray, bandwidth: int):
    """Z-tau statistic: the AR(1) t-ratio with the Newey-West serial
    correlation correction."""
    design = np.column_stack([np.ones(len(y) - 1), y[:-1]])
    target = y[1:]
    xtx_inv, coef, resid, cov = ols(design, target[:, None])
    resid, s2 = resid[:, 0], float(cov[0, 0])
    se = math.sqrt(s2 * xtx_inv[1, 1])
    n_eff = len(target)
    t_rho = float((coef[1, 0] - 1.0) / se)
    gamma0 = float(resid @ resid) / n_eff
    lam2 = _bartlett_long_run_variance(resid, bandwidth)
    correction = 0.5 * ((lam2 - gamma0) / math.sqrt(lam2)) * (
        n_eff * se / math.sqrt(s2)
    )
    stat = math.sqrt(gamma0 / lam2) * t_rho - correction
    return stat, n_eff


def _kpss(y: np.ndarray, bandwidth: int) -> float:
    u = y - y.mean()
    partial = np.cumsum(u)
    lam2 = _bartlett_long_run_variance(u, bandwidth)
    if lam2 <= 0:
        raise DegenerateVarianceError("series has no usable variation")
    n = len(y)
    return float(np.sum(partial**2) / (n**2 * lam2))


def unit_root_tests(s: Series) -> UnitRootReport:
    """Run ADF, PP, and KPSS on one series (returns or log prices, say).

    Raises:
        InsufficientDataError: n < 30.
        DegenerateVarianceError: constant input, or an ADF or PP design
            whose cross-product matrix is exactly singular.
    """
    y = np.asarray(s.values, dtype=np.float64)
    n = len(y)
    if n < 30:
        raise InsufficientDataError(f"unit-root tests need n >= 30, got {n}")
    if np.ptp(y) == 0:
        raise DegenerateVarianceError(f"series {s.label!r} is constant")
    bandwidth = int(4.0 * (n / 100.0) ** (2.0 / 9.0))
    try:
        adf_stat, adf_lags, adf_n = _adf(y)
        pp_stat, pp_n = _phillips_perron(y, bandwidth)
    except np.linalg.LinAlgError:
        raise DegenerateVarianceError(
            "regressors are collinear; the series has no usable variation"
        ) from None
    kpss_stat = _kpss(y, bandwidth)
    return UnitRootReport(
        label=s.label,
        n=n,
        adf_stat=adf_stat,
        adf_p_value=_dickey_fuller_p_value(adf_stat, adf_n),
        adf_lags=adf_lags,
        pp_stat=pp_stat,
        pp_p_value=_dickey_fuller_p_value(pp_stat, pp_n),
        kpss_stat=kpss_stat,
        kpss_reject_5pct=kpss_stat > _kpss_critical(0.05),
        kpss_reject_1pct=kpss_stat > _kpss_critical(0.01),
        bandwidth=bandwidth,
    )
