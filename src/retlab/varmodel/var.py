"""Vector autoregression: OLS estimation, information-criterion lag
selection, Granger causality, iterated forecasts with standard errors,
orthogonalized impulse responses, and forecast-error variance
decomposition. Every regression here, from lag selection to the
bootstrap refits, is `retlab.regression.ols`.

Shock orthogonalization uses the Cholesky factor of the residual
covariance, with the variables in the fitted panel's column order; to
try another variable order, reorder the panel before `fit_var`. Impulse-response
bands come from a seeded residual bootstrap with symmetric percentile
intervals (point plus/minus a quantile of the absolute bootstrap
deviations), so the bands contain the point response by construction.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .. import workers
from ..descstats import sorted_quantile
from ..errors import (
    AlignmentError,
    DecompositionError,
    InsufficientDataError,
    SingularDesignError,
    ValidationError,
)
from ..regression import check_full_rank, ols
from ..series import Panel
from ..special import fdtrc
from ..synth import _companion_spectral_radius, _simulate

_CRITERIA = ("AIC", "BIC")
# the coverage of irf's bootstrap bands
_COVERAGE = 0.95
# bootstrap replicates irf runs together: at k=30, n=600 and h=24 a
# block's working set (panels, MA and response arrays) stays under 50 MB
_BOOT_BLOCK = 64


@dataclass(frozen=True)
class VarFit:
    """A fitted VAR(p) with intercept.

    coeff[l-1][i, j] is the effect of series j at lag l on series i.
    residual_cov uses the n_eff - k*p - 1 denominator. `stable` reports
    whether all companion-matrix eigenvalues lie inside the unit circle.
    """

    labels: tuple[str, ...]
    p: int
    intercept: np.ndarray
    coeff: np.ndarray
    intercept_t: np.ndarray
    t_stats: np.ndarray
    residual_cov: np.ndarray
    residuals: np.ndarray
    r_square: np.ndarray
    adj_r_square: np.ndarray
    stable: bool
    n_eff: int
    panel: Panel

    def __post_init__(self) -> None:
        k = len(self.labels)
        if self.intercept.shape != (k,) or self.coeff.shape != (self.p, k, k):
            raise ValidationError("coefficient shapes do not match the label count")
        cov = self.residual_cov
        if cov.shape != (k, k) or not np.allclose(cov, cov.T, atol=1e-10):
            raise ValidationError("residual covariance must be symmetric k x k")
        eigs = np.linalg.eigvalsh(cov)
        if eigs.min() < -1e-8 * max(1.0, eigs.max()):
            raise ValidationError("residual covariance must be positive semidefinite")
        if not (np.all(np.isfinite(self.intercept_t)) and np.all(np.isfinite(self.t_stats))):
            raise ValidationError("t-statistics must be finite")
        if np.any(self.r_square > 1 + 1e-12):
            raise ValidationError("R-square cannot exceed 1")
        if self.residuals.shape != (self.n_eff, k):
            raise ValidationError("residual matrix shape is inconsistent")

    @property
    def width(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class GrangerResult:
    """Pairwise Granger F-tests. Entry [i, j] tests whether series j's
    lags jointly enter series i's equation; diagonals are NaN."""

    labels: tuple[str, ...]
    lag_order: int
    dof_denominator: int
    f_stats: np.ndarray
    p_values: np.ndarray

    def __post_init__(self) -> None:
        k = len(self.labels)
        if self.f_stats.shape != (k, k) or self.p_values.shape != (k, k):
            raise ValidationError("statistic matrices must be k x k")
        off = ~np.eye(k, dtype=bool)
        if np.any(self.p_values[off] < 0) or np.any(self.p_values[off] > 1):
            raise ValidationError("p-values must lie in [0,1]")


@dataclass(frozen=True)
class ForecastPath:
    """Iterated point forecasts with forecast-error standard deviations.

    std_err[0] equals the square roots of residual_cov's diagonal; later
    steps accumulate moving-average terms, so they never decrease.
    """

    labels: tuple[str, ...]
    horizon: int
    point: np.ndarray
    std_err: np.ndarray
    stable: bool

    def __post_init__(self) -> None:
        k = len(self.labels)
        if self.point.shape != (self.horizon, k) or self.std_err.shape != (
            self.horizon,
            k,
        ):
            raise ValidationError("forecast arrays must be horizon x k")
        if np.any(self.std_err < 0):
            raise ValidationError("standard errors must be nonnegative")
        if np.any(np.diff(self.std_err, axis=0) < -1e-9 * self.std_err[:-1]):
            raise ValidationError("standard errors must be nondecreasing in horizon")


@dataclass(frozen=True)
class IrfResult:
    """Orthogonalized impulse responses, Cholesky-ordered as the panel.

    responses[s][i, j] is variable i's reaction, s months after a one-sd
    orthogonal shock to variable j, both in the fitted panel's column
    order. Bands are symmetric bootstrap percentile intervals and
    contain the point response by construction.
    """

    labels: tuple[str, ...]
    horizon: int
    responses: np.ndarray
    lower: np.ndarray | None
    upper: np.ndarray | None
    n_boot: int
    seed: int

    def __post_init__(self) -> None:
        k = len(self.labels)
        if self.responses.shape != (self.horizon + 1, k, k):
            raise ValidationError("responses must be (horizon+1) x k x k")
        if (self.lower is None) != (self.upper is None):
            raise ValidationError("bands must be provided together")
        if self.lower is not None:
            inside = (self.lower <= self.responses + 1e-12) & (
                self.responses - 1e-12 <= self.upper
            )
            if not np.all(inside):
                raise ValidationError("bands must contain the point responses")


@dataclass(frozen=True)
class FevdResult:
    """Forecast-error variance shares. shares[s-1][i, j] is the fraction
    of variable i's s-step forecast-error variance owed to shock j."""

    labels: tuple[str, ...]
    horizon: int
    shares: np.ndarray

    def __post_init__(self) -> None:
        k = len(self.labels)
        if self.shares.shape != (self.horizon, k, k):
            raise ValidationError("shares must be horizon x k x k")
        if np.any(self.shares < -1e-12) or np.any(self.shares > 1 + 1e-12):
            raise ValidationError("shares must lie in [0,1]")
        sums = self.shares.sum(axis=2)
        if np.any(np.abs(sums - 1.0) > 1e-10):
            raise ValidationError("each share vector must sum to 1")


def _design(values: np.ndarray, p: int):
    """Stacked regression for VAR(p): Y rows t = p..n-1, X columns
    [1, y_{t-1} (all series), ..., y_{t-p} (all series)]. Leading axes
    of values (..., n, k) stack independent panels."""
    *stack, n, k = values.shape
    design = np.empty((*stack, n - p, k * p + 1))
    design[..., 0] = 1.0
    for lag in range(1, p + 1):
        design[..., 1 + (lag - 1) * k : 1 + lag * k] = values[..., p - lag : n - lag, :]
    return values[..., p:, :], design


def _lag_names(labels, p: int) -> list[str]:
    """Names of `_design`'s columns, in its order."""
    return ["intercept"] + [
        f"{label} lag {lag}" for lag in range(1, p + 1) for label in labels
    ]


def select_lag(panel: Panel, p_max: int, criterion: str = "BIC") -> int:
    """Pick the VAR order in 1..p_max by information criterion.

    All candidate orders are scored on the common sample that excludes
    the first p_max observations, so their criteria are comparable; ties
    go to the smallest order. Order p's design is the first k*p + 1
    columns of order p_max's, so one rank check covers every candidate.

    Raises:
        ValidationError: bad p_max or criterion.
        InsufficientDataError: panel shorter than k*p_max + 2.
        SingularDesignError: collinear regressors in the widest design,
            named by series and lag.
    """
    crit_name = criterion.upper()
    if crit_name not in _CRITERIA:
        raise ValidationError(f"criterion must be one of {_CRITERIA}, got {criterion!r}")
    if p_max < 1:
        raise ValidationError(f"p_max must be >= 1, got {p_max}")
    values = panel.values
    n, k = values.shape
    # the common sample must identify the widest candidate design
    if n - p_max <= k * p_max + 1:
        raise InsufficientDataError(
            f"lag selection up to {p_max} needs n > {k * p_max + 1 + p_max}, got {n}"
        )
    t_common = n - p_max
    # every candidate is fitted to the same target rows p_max..n-1
    target, widest = _design(values, p_max)
    check_full_rank(widest, _lag_names(panel.labels, p_max))
    penalty = 2.0 if crit_name == "AIC" else math.log(t_common)
    scores = []
    for p in range(1, p_max + 1):
        _, _, resid, _ = ols(widest[:, : k * p + 1], target)
        sign, logdet = np.linalg.slogdet(resid.T @ resid / t_common)
        m_params = k * (k * p + 1)
        scores.append(logdet + penalty * m_params / t_common if sign > 0 else math.inf)
    return int(np.argmin(scores)) + 1


def fit_var(panel: Panel, p: int) -> VarFit:
    """Equation-by-equation OLS VAR(p) with intercept.

    p=0 fits the mean-only model (intercept = sample means exactly).

    Raises:
        ValidationError: negative p.
        InsufficientDataError: n <= k*p + 1.
        SingularDesignError: collinear regressors, named by series and lag.
    """
    if p < 0:
        raise ValidationError(f"lag order must be >= 0, got {p}")
    values = panel.values
    n, k = values.shape
    m = k * p + 1
    # the covariance denominator (n - p) - m needs at least one degree
    # of freedom, which is slightly stronger than invertibility alone
    if n - p <= m:
        raise InsufficientDataError(
            f"VAR({p}) on {k} series needs n > {m + p}, got {n}"
        )
    target, design = _design(values, p)
    check_full_rank(design, _lag_names(panel.labels, p))
    xtx_inv, beta, resid, residual_cov = ols(design, target)
    rows = target.shape[0]
    dof = rows - m
    se_scale = np.sqrt(np.diag(xtx_inv))
    sigma_eq = np.sqrt(np.diag(residual_cov))
    se = np.outer(se_scale, sigma_eq)
    t_all = beta / se
    sst = np.sum((target - target.mean(axis=0)) ** 2, axis=0)
    ssr = np.sum(resid**2, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        r_square = np.where(sst > 0, 1.0 - ssr / sst, 0.0)
    adj = 1.0 - (1.0 - r_square) * (rows - 1) / dof
    coeff = beta[1:].reshape(p, k, k).transpose(0, 2, 1) if p > 0 else np.zeros((0, k, k))
    t_coeff = t_all[1:].reshape(p, k, k).transpose(0, 2, 1) if p > 0 else np.zeros((0, k, k))
    stable = _companion_spectral_radius(coeff) < 1.0
    for arr in (beta, resid, residual_cov, coeff, t_coeff):
        arr.flags.writeable = False
    return VarFit(
        labels=tuple(panel.labels),
        p=p,
        intercept=beta[0],
        coeff=coeff,
        intercept_t=t_all[0],
        t_stats=t_coeff,
        residual_cov=residual_cov,
        residuals=resid,
        r_square=r_square,
        adj_r_square=adj,
        stable=stable,
        n_eff=rows,
        panel=panel,
    )


def granger_causality(fit: VarFit) -> GrangerResult:
    """F-tests of lag exclusion for every ordered series pair.

    For the pair (j -> i), all p lags of series j are dropped from
    series i's equation and the restricted/unrestricted SSRs form an
    F(p, n_eff - k*p - 1) statistic. The unrestricted SSRs are the fit's
    own; each restricted design is refit by `fit_var`'s OLS.

    Raises:
        ValidationError: fit has no lags (p = 0).
    """
    if fit.p == 0:
        raise ValidationError("Granger tests need at least one lag")
    k = fit.width
    p = fit.p
    target, design = _design(fit.panel.values, p)
    dof = fit.n_eff - (k * p + 1)
    ssr_full = np.sum(fit.residuals**2, axis=0)[:, None]
    # ssr_restricted[i, j]: series i's equation without series j's lags
    ssr_restricted = np.empty((k, k))
    for j in range(k):
        # series j's lag columns are 1 + j, 1 + j + k, ..., one per lag
        _, _, resid, _ = ols(np.delete(design, slice(1 + j, None, k), axis=1), target)
        ssr_restricted[:, j] = np.sum(resid**2, axis=0)
    f_stats = np.maximum(((ssr_restricted - ssr_full) / p) / (ssr_full / dof), 0.0)
    np.fill_diagonal(f_stats, np.nan)
    off = ~np.eye(k, dtype=bool)
    p_values = np.full((k, k), np.nan)
    p_values[off] = fdtrc(p, dof, f_stats[off])
    for arr in (f_stats, p_values):
        arr.flags.writeable = False
    return GrangerResult(
        labels=fit.labels,
        lag_order=p,
        dof_denominator=dof,
        f_stats=f_stats,
        p_values=p_values,
    )


def _ma_coefficients(coeff: np.ndarray, count: int) -> np.ndarray:
    """Psi_0..Psi_{count-1} from the VAR recursion (Psi_0 = I). Leading
    axes of coeff (..., p, k, k) stack independent models."""
    *stack, p, k, _ = coeff.shape
    psis = np.zeros((*stack, count, k, k))
    psis[..., 0, :, :] = np.eye(k)
    for s in range(1, count):
        acc = np.zeros((*stack, k, k))
        for lag in range(1, min(s, p) + 1):
            acc += coeff[..., lag - 1, :, :] @ psis[..., s - lag, :, :]
        psis[..., s, :, :] = acc
    return psis


def forecast(fit: VarFit, h: int, history: Panel | None = None) -> ForecastPath:
    """Iterate the fitted VAR h steps past the end of `history` (the
    fitting panel when omitted): the recursion of `retlab.synth`'s VAR
    generator with zero shocks, from history's last p rows.

    Raises:
        ValidationError: h < 1.
        AlignmentError: history labels differ from the fit's.
        InsufficientDataError: history shorter than p observations.
    """
    if h < 1:
        raise ValidationError(f"horizon must be >= 1, got {h}")
    source = fit.panel if history is None else history
    if tuple(source.labels) != tuple(fit.labels):
        raise AlignmentError(
            f"history labels {source.labels} do not match fit labels {fit.labels}"
        )
    values = source.values
    if values.shape[0] < fit.p:
        raise InsufficientDataError(
            f"history must supply at least {fit.p} observations"
        )
    if not fit.stable:
        warnings.warn(
            "forecasting from an unstable VAR: point forecasts may diverge",
            RuntimeWarning,
            stacklevel=2,
        )
    k = fit.width
    path = np.empty((fit.p + h, k))
    path[: fit.p] = values[len(values) - fit.p :]
    point = _simulate(fit.coeff, fit.intercept, path, np.zeros((h, k)))[fit.p :]
    psis = _ma_coefficients(fit.coeff, h)
    mse = np.zeros((k, k))
    std_err = np.empty((h, k))
    for s in range(h):
        mse = mse + psis[s] @ fit.residual_cov @ psis[s].T
        std_err[s] = np.sqrt(np.diag(mse))
    for arr in (point, std_err):
        arr.flags.writeable = False
    return ForecastPath(
        labels=fit.labels, horizon=h, point=point, std_err=std_err, stable=fit.stable
    )


def _orthogonal_responses(coeff, sigma, h):
    """Theta_0..Theta_h. Leading axes of coeff (..., p, k, k) and sigma
    (..., k, k) stack independent models; any one that is not positive
    definite raises."""
    try:
        chol = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        raise DecompositionError("residual covariance is not positive definite") from None
    return _ma_coefficients(coeff, h + 1) @ chol[..., None, :, :]


def _bootstrap_panels(fit: VarFit, children) -> np.ndarray:
    """One rebuilt panel per bootstrap replicate, (replicates, n, k).

    Replicate r resamples fit's residuals with the generator seeded by
    children[r]. All replicates' draws then run through the fitted VAR
    together, from the observed first p rows, by the recursion of
    `retlab.synth`'s VAR generator, which gives each replicate the bits
    of running it alone.
    """
    values = fit.panel.values
    n, k = values.shape
    p = fit.p
    rows = fit.n_eff
    draws = np.empty((len(children), rows, k))
    for r, child in enumerate(children):
        rng = np.random.default_rng(child)
        draws[r] = fit.residuals[rng.integers(0, rows, size=rows)]
    y_star = np.empty((len(children), n, k))
    y_star[:, :p] = values[:p]
    return _simulate(fit.coeff, fit.intercept, y_star, draws)


def _bootstrap_fits(fit: VarFit, children, first: int):
    """OLS refits of the bootstrap panels, all in one `ols` call:
    coefficients (replicates, p, k, k) and residual covariances
    (replicates, k, k). `first` is the number of the block's first
    replicate, for error messages. The panels are freed on return,
    before the block's responses are built.

    Raises:
        SingularDesignError: a replicate's design is rank deficient.
    """
    y_star = _bootstrap_panels(fit, children)
    size, _, k = y_star.shape
    p = fit.p
    target, design = _design(y_star, p)
    try:
        _, betas, _, sigmas = ols(design, target)
    except np.linalg.LinAlgError:
        # each stacked inverse is its replicate's own: refit one by one
        # to find the first that fails
        for r in range(size):
            try:
                ols(design[r], target[r])
            except np.linalg.LinAlgError:
                raise SingularDesignError(
                    f"bootstrap replicate {first + r} (counted from 0): "
                    "collinear regressors in its refit"
                ) from None
        raise
    return betas[:, 1:].reshape(size, p, k, k).transpose(0, 1, 3, 2), sigmas


def irf(fit: VarFit, h: int, n_boot: int = 1000, seed: int = 0) -> IrfResult:
    """Orthogonalized impulse responses out to horizon h, with seeded
    residual-bootstrap bands of coverage ``_COVERAGE`` (n_boot=0 skips
    the bands). The Cholesky order is the fitted panel's column order.

    Replicate r draws from its own generator, seeded by child r of
    ``SeedSequence(seed).spawn(n_boot)``, and is refit with `fit_var`'s
    OLS (normal equations). Replicates run in blocks of ``_BOOT_BLOCK``,
    which bounds the working set beside the (n_boot, h+1, k, k)
    deviation array; a block's replicates are refit in one stacked
    call. With more than one block and more than one
    usable CPU, forked workers (`retlab.workers`) share the blocks,
    writing their deviations into that array in shared memory, then the
    same workers take the band's quantile over shares of its cells. The
    bands equal, bit for bit, those of running the replicates one at a
    time, each refit as `fit_var` fits its panel, whatever the number of
    workers.

    Warns (RuntimeWarning) when the fit is unstable, as `forecast` does.

    Raises:
        ValidationError: h < 0 or n_boot < 0.
        DecompositionError: residual covariance not positive definite.
        SingularDesignError: a replicate's refit design is singular; the
            message names the replicate, counted from 0.
    """
    if h < 0:
        raise ValidationError(f"horizon must be >= 0, got {h}")
    if n_boot < 0:
        raise ValidationError(f"n_boot must be >= 0, got {n_boot}")
    if not fit.stable:
        warnings.warn(
            "impulse responses of an unstable VAR: they may grow with the horizon",
            RuntimeWarning,
            stacklevel=2,
        )
    point = _orthogonal_responses(fit.coeff, fit.residual_cov, h)
    lower = upper = None
    if n_boot > 0:
        # numpy 2 imports numpy.random on this first use, in the command's
        # own process before the workers fork, so a command that never
        # draws does not load it
        children = np.random.SeedSequence(seed).spawn(n_boot)
        blocks = range(0, n_boot, _BOOT_BLOCK)
        shards = workers.count(len(blocks))
        # forked workers write into shared memory; one process needs none
        empty = workers.shared_empty if shards > 1 else np.empty
        deviations = empty((n_boot, *point.shape))
        band = empty(point.shape)

        def deviate(lo):
            block = slice(lo, lo + _BOOT_BLOCK)
            coeff, sigma = _bootstrap_fits(fit, children[block], lo)
            thetas = _orthogonal_responses(coeff, sigma, h)
            out = deviations[block]
            np.abs(np.subtract(thetas, point, out=out), out=out)

        def take_quantile(cells):
            # each cell reads only its own deviations: sort them in place
            share = deviations.reshape(n_boot, -1)[:, cells]
            share.sort(axis=0)
            band.reshape(-1)[cells] = sorted_quantile(share, _COVERAGE)

        edges = np.linspace(0, band.size, shards + 1).astype(int).tolist()
        workers.map_phases(
            (deviate, blocks), (take_quantile, map(slice, edges[:-1], edges[1:]))
        )
        lower = point - band
        upper = point + band
        for arr in (lower, upper):
            arr.flags.writeable = False
    point.flags.writeable = False
    return IrfResult(
        labels=fit.labels,
        horizon=h,
        responses=point,
        lower=lower,
        upper=upper,
        n_boot=n_boot,
        seed=seed,
    )


def fevd(fit: VarFit, h: int) -> FevdResult:
    """Forecast-error variance decomposition for horizons 1..h, with the
    shocks Cholesky-ordered as the fitted panel's columns. Warns
    (RuntimeWarning) when the fit is unstable, as `forecast` does.

    Raises:
        ValidationError: h < 1.
        DecompositionError: residual covariance not positive definite.
    """
    if h < 1:
        raise ValidationError(f"horizon must be >= 1, got {h}")
    if not fit.stable:
        warnings.warn(
            "variance decomposition of an unstable VAR: the forecast-error "
            "variances may diverge",
            RuntimeWarning,
            stacklevel=2,
        )
    thetas = _orthogonal_responses(fit.coeff, fit.residual_cov, h - 1)
    squared = np.cumsum(thetas**2, axis=0)
    shares = squared / squared.sum(axis=2, keepdims=True)
    shares.flags.writeable = False
    return FevdResult(labels=fit.labels, horizon=h, shares=shares)
