"""Principal components of a panel's covariance matrix, scree tables, factor
regressions, and residual panels.

The decomposition always works on the sample covariance matrix (n-1
denominator) of the demeaned panel, never the correlation matrix, so more
volatile series dominate the early components. Loadings columns are unit
norm with a fixed sign convention (the largest-magnitude entry of each
column is positive), which makes output deterministic across eigensolvers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateVarianceError,
    InsufficientDataError,
    RetlabError,
    ValidationError,
)
from .regression import check_full_rank, ols
from .series import Panel, Series


@dataclass(frozen=True)
class PcaResult:
    """Eigenstructure of one panel.

    Attributes:
        eigenvalues: descending, in squared-percent units; tiny negative
            values (> -1e-10) may appear from floating point and are kept.
        loadings: series-by-component matrix, unit-norm columns.
        scores: time-by-component matrix of demeaned data projected onto
            the loadings; score variances equal the eigenvalues.
        cumulative_share: running fraction of total variance, ends at 1.
        labels: panel series labels, ordered as the loading rows.
        rank_deficient: True when the covariance has (numerically) zero
            eigenvalues; they are retained, not dropped.
    """

    eigenvalues: np.ndarray
    loadings: np.ndarray
    scores: np.ndarray
    cumulative_share: np.ndarray
    labels: list[str]
    rank_deficient: bool

    def __post_init__(self) -> None:
        eig = self.eigenvalues
        if np.any(eig < -1e-10):
            raise ValidationError(f"eigenvalue below tolerance: {eig.min()}")
        if np.any(np.diff(eig) > 1e-12):
            raise ValidationError("eigenvalues must be sorted descending")
        share = self.cumulative_share
        if np.any(share < -1e-12) or np.any(share > 1 + 1e-12):
            raise ValidationError("cumulative_share must lie in [0, 1]")
        if np.any(np.diff(share) < -1e-12):
            raise ValidationError("cumulative_share must be nondecreasing")


@dataclass(frozen=True)
class ScreeRow:
    """One component's contribution: share and running total, in percent."""

    component: int
    eigenvalue: float
    share_pct: float
    cumulative_pct: float


@dataclass(frozen=True)
class FactorRegression:
    """OLS of one series on an intercept plus the first k component scores.

    loadings_on_pc1/pc2 are the slope coefficients on the first two scores
    (None when k is too small to include them). Residuals keep the original
    label and have mean zero by construction, and obey no return floor.
    """

    k: int
    loadings_on_pc1: float | None
    loadings_on_pc2: float | None
    r_square: float
    adj_r_square: float
    residuals: Series
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        if self.adj_r_square > 1 + 1e-12:
            raise ValidationError(f"adjusted R^2 {self.adj_r_square} exceeds 1")


def pca(p: Panel) -> PcaResult:
    """Eigendecomposition of the panel's sample covariance.

    Raises:
        ValidationError: fewer than 2 series.
        InsufficientDataError: not more time points than series.
        DegenerateVarianceError: all series constant (zero total variance).
    """
    if p.width < 2:
        raise ValidationError(f"pca needs at least 2 series, got {p.width}")
    n, k = len(p), p.width
    if n <= k:
        raise InsufficientDataError(
            f"pca needs more time points than series, got n={n} with k={k}"
        )
    x = p.values - p.values.mean(axis=0)
    cov = x.T @ x / (n - 1)
    eigenvalues, vectors = np.linalg.eigh(cov)
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = eigenvalues[order]
    vectors = vectors[:, order]
    # sign convention: largest-magnitude entry of each column positive
    for j in range(k):
        pivot = np.argmax(np.abs(vectors[:, j]))
        if vectors[pivot, j] < 0:
            vectors[:, j] = -vectors[:, j]
    total = float(eigenvalues.sum())
    if total <= 0:
        raise DegenerateVarianceError("panel has zero total variance")
    running = np.cumsum(eigenvalues)
    return PcaResult(
        eigenvalues=eigenvalues,
        loadings=vectors,
        scores=x @ vectors,
        cumulative_share=running / running[-1],
        labels=p.labels,
        rank_deficient=bool(eigenvalues.min() <= 1e-12 * max(eigenvalues.max(), 1.0)),
    )


def scree(r: PcaResult) -> list[ScreeRow]:
    """Variance-explained table, one row per component, shares in percent.

    The cumulative column reaches exactly 100 at the last component.
    """
    running = np.cumsum(r.eigenvalues)
    total = running[-1]
    return [
        ScreeRow(
            component=j + 1,
            eigenvalue=float(r.eigenvalues[j]),
            share_pct=float(100.0 * (r.eigenvalues[j] / total)),
            # divide first: running[-1]/total is exactly 1, so the last
            # cumulative entry is exactly 100
            cumulative_pct=float(100.0 * (running[j] / total)),
        )
        for j in range(len(r.eigenvalues))
    ]


def factor_regression(s: Series, scores: np.ndarray, k: int) -> FactorRegression:
    """Regress a series on an intercept plus the first k score columns.

    Raises:
        ValidationError: k negative or exceeding the available components,
            or score rows not matching the series length.
        InsufficientDataError: n <= k + 1.
        SingularDesignError: collinear score columns, named (PC2, ...);
            the scores of a panel of rank below k have them.
        DegenerateVarianceError: constant dependent series (R^2 undefined).
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ValidationError("scores must be a 2-d matrix (time x components)")
    if len(s) != scores.shape[0]:
        raise ValidationError(
            f"series {s.label!r} has {len(s)} months but scores have "
            f"{scores.shape[0]} rows"
        )
    if not 0 <= k <= scores.shape[1]:
        raise ValidationError(
            f"k must lie in 0..{scores.shape[1]}, got {k}"
        )
    n = len(s)
    if n <= k + 1:
        raise InsufficientDataError(f"need n > k+1, got n={n}, k={k}")
    y = s.values
    design = np.column_stack([np.ones(n), scores[:, :k]])
    check_full_rank(design, ["intercept"] + [f"PC{j}" for j in range(1, k + 1)])
    _, coef, resid, _ = ols(design, y[:, None])
    coef, resid = coef[:, 0], resid[:, 0]
    # np.ptp, not the sum of squares: a constant whose mean does not
    # round-trip leaves a float-noise sum of squares above zero
    if np.ptp(y) == 0:
        raise DegenerateVarianceError(
            f"series {s.label!r} is constant; R^2 undefined"
        )
    sst = float(np.sum((y - y.mean()) ** 2))
    ssr = float(np.sum(resid**2))
    r2 = 1.0 - ssr / sst
    adj = 1.0 - (1.0 - r2) * (n - 1) / (n - k - 1)
    return FactorRegression(
        k=k,
        loadings_on_pc1=float(coef[1]) if k >= 1 else None,
        loadings_on_pc2=float(coef[2]) if k >= 2 else None,
        r_square=r2,
        adj_r_square=adj,
        residuals=Series(s.label, s.grid, resid),
        coefficients=coef,
    )


def residual_panel(p: Panel, k: int) -> tuple[Panel | None, dict[str, str]]:
    """Factor-regression residuals of the panel's members, and the error
    text of each member whose regression fails.

    Returns the panel of residuals, one per member whose regression
    succeeds (None if none does), and a label -> `RetlabError` text dict
    of the others, in panel order. Each residual series keeps its label
    and grid and has mean zero; with k=0 this is just the demeaned panel.
    Errors of the decomposition itself (see `pca`) are raised.
    """
    scores = pca(p).scores
    members = []
    failed = {}
    for s in p.series:
        try:
            members.append(factor_regression(s, scores, k).residuals)
        except RetlabError as exc:
            failed[s.label] = str(exc)
    return (Panel(tuple(members)) if members else None), failed
