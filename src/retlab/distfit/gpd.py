"""Generalized Pareto fitting of threshold exceedances (peaks over
threshold).

The threshold is an empirical quantile of the loss sample (default 0.90).
Shape and scale are maximum likelihood, found by quasi-Newton descent in
(shape, log scale) and polished with Newton steps in the same coordinates.
The score there, per exceedance, does not depend on the data's units: the
polish stops once its norm is at most 1e-10, and a fit whose norm cannot
get below 1e-8 is rejected rather than returned silently.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ..errors import (
    ConvergenceError,
    DegenerateVarianceError,
    InsufficientTailError,
    ValidationError,
)
from ..optimize import minimize_lbfgsb
from ..series import Series

_XI_SMALL = 1e-5  # below this, use series expansions around xi = 0
# per-exceedance score norm in (shape, log scale): the polish's goal, and
# the most a returned fit may carry
_SCORE_STOP = 1e-10
_SCORE_TOL = 1e-8


@dataclass(frozen=True)
class GpdFit:
    """Fitted generalized Pareto tail above an empirical threshold.

    Attributes:
        threshold_u: loss level whose exceedances were modeled.
        shape_xi: tail index; >= 1 means the tail mean is infinite
            (flagged, and average-loss queries fail downstream).
        scale_beta: GPD scale, positive.
        n_exceedances: observations above the threshold (at least 10).
        exceedance_rate: fraction of the full sample above the threshold.
        score_norm: norm of the log-likelihood gradient in (shape, log
            scale) per exceedance at the optimum.
    """

    threshold_u: float
    shape_xi: float
    scale_beta: float
    n_exceedances: int
    exceedance_rate: float
    log_likelihood: float
    score_norm: float
    infinite_mean: bool

    def __post_init__(self) -> None:
        if self.scale_beta <= 0:
            raise ValidationError(f"scale must be positive, got {self.scale_beta}")
        if self.n_exceedances < 10:
            raise ValidationError(
                f"a GPD fit needs >= 10 exceedances, got {self.n_exceedances}"
            )
        if not 0 < self.exceedance_rate < 1:
            raise ValidationError(
                f"exceedance rate must lie in (0,1), got {self.exceedance_rate}"
            )
        if not math.isfinite(self.threshold_u):
            raise ValidationError("threshold must be finite")


def gpd_loglike(xi: float, beta: float, exceedances: np.ndarray):
    """Log-likelihood and its gradient for GPD exceedances.

    Returns (ll, array([dll/dxi, dll/dbeta])). Outside the support
    (beta <= 0, or 1 + xi*y/beta <= 0 for some y) returns (-inf, zeros).
    The xi -> 0 limit and its gradient use series expansions, so the
    function is smooth through zero.
    """
    y = np.asarray(exceedances, dtype=np.float64)
    n = len(y)
    if beta <= 0:
        return -np.inf, np.zeros(2)
    z = y / beta
    if abs(xi) < _XI_SMALL:
        if xi < 0 and 1.0 + xi * float(z.max()) <= 0:
            return -np.inf, np.zeros(2)
        sz = float(z.sum())
        sz2 = float((z**2).sum())
        sz3 = float((z**3).sum())
        ll = (
            -n * math.log(beta)
            - sz
            + xi * (sz2 / 2.0 - sz)
            + xi**2 * (sz2 / 2.0 - sz3 / 3.0)
        )
        # expansion of the score through O(xi)
        g_xi = (sz2 / 2.0 - sz) + xi * (sz2 - 2.0 * sz3 / 3.0)
        g_beta = (-n + sz) / beta + xi * (sz - sz2) / beta
        return ll, np.array([g_xi, g_beta])
    t = 1.0 + xi * z
    if np.any(t <= 0):
        return -np.inf, np.zeros(2)
    log_t = np.log1p(xi * z)
    sum_log_t = float(log_t.sum())
    sum_z_over_t = float((z / t).sum())
    ll = -n * math.log(beta) - (1.0 + 1.0 / xi) * sum_log_t
    g_xi = sum_log_t / xi**2 - (1.0 + 1.0 / xi) * sum_z_over_t
    g_beta = -n / beta + (1.0 + xi) / beta * sum_z_over_t
    return ll, np.array([g_xi, g_beta])


def _moment_start(y: np.ndarray):
    m = float(y.mean())
    v = float(y.var(ddof=1))
    if v <= 0:
        raise DegenerateVarianceError("exceedances have zero variance")
    ratio = m * m / v
    xi0 = 0.5 * (1.0 - ratio)
    beta0 = 0.5 * m * (1.0 + ratio)
    return float(np.clip(xi0, -0.4, 0.7)), max(beta0, 1e-8 * m)


def _score(xi: float, log_beta: float, y: np.ndarray):
    """Log-likelihood and its gradient in (shape, log scale) per
    exceedance, which is free of the data's units."""
    beta = math.exp(log_beta)
    ll, grad = gpd_loglike(xi, beta, y)
    return ll, np.array([grad[0], beta * grad[1]]) / len(y)


def _newton_polish(xi, t, y, max_steps=40):
    """Newton iterations in (shape, log scale t) with backtracking; the
    Hessian comes from central differences of the score. Returns shape,
    scale, log-likelihood and score."""
    ll, score = _score(xi, t, y)
    for _ in range(max_steps):
        if np.linalg.norm(score) <= _SCORE_STOP:
            break
        h = np.empty((2, 2))
        steps = (max(1e-7, 1e-7 * abs(xi)), 1e-7)
        for j, dj in enumerate(steps):
            bump = np.zeros(2)
            bump[j] = dj
            _, g_hi = _score(xi + bump[0], t + bump[1], y)
            _, g_lo = _score(xi - bump[0], t - bump[1], y)
            h[:, j] = (g_hi - g_lo) / (2.0 * dj)
        h = 0.5 * (h + h.T)
        try:
            direction = np.linalg.solve(h, -score)
        except np.linalg.LinAlgError:
            direction = score  # fall back to steepest ascent
        scale = 1.0
        improved = False
        for _ in range(30):
            xi_new = xi + scale * direction[0]
            t_new = t + scale * direction[1]
            ll_new, score_new = _score(xi_new, t_new, y)
            if math.isfinite(ll_new) and ll_new >= ll - 1e-12 * abs(ll):
                xi, t, ll, score = xi_new, t_new, ll_new, score_new
                improved = True
                break
            scale *= 0.5
        if not improved:
            break
    return xi, math.exp(t), ll, score


def fit_gpd_pot(losses: Series, threshold_quantile: float = 0.90) -> GpdFit:
    """Fit a GPD to the exceedances of a loss series over an empirical
    threshold quantile.

    Raises:
        ValidationError: threshold_quantile outside (0, 1).
        InsufficientTailError: fewer than 10 exceedances.
        DegenerateVarianceError: exceedances carry no spread.
        ConvergenceError: the score norm cannot be pushed below 1e-8.
    """
    if not 0.0 < threshold_quantile < 1.0:
        raise ValidationError(
            f"threshold quantile must lie in (0,1), got {threshold_quantile}"
        )
    x = losses.values
    n = len(x)
    u = float(np.quantile(x, threshold_quantile))
    y = x[x > u] - u
    if len(y) < 10:
        raise InsufficientTailError(
            f"only {len(y)} exceedances above u={u:.4f} "
            f"(quantile {threshold_quantile}); need at least 10"
        )
    xi0, beta0 = _moment_start(y)

    def negloglike(theta):
        ll, score = _score(theta[0], theta[1], y)
        if not math.isfinite(ll):
            return 1e12, np.zeros(2)
        return -ll, -len(y) * score

    result = minimize_lbfgsb(
        negloglike, np.array([xi0, math.log(beta0)]),
        maxiter=200, ftol=1e-14, gtol=1e-10,
    )
    xi, beta, ll, score = _newton_polish(
        float(result.x[0]), float(result.x[1]), y
    )
    score_norm = float(np.linalg.norm(score))
    if score_norm >= _SCORE_TOL:
        raise ConvergenceError(
            f"GPD score norm {score_norm:.2e} per exceedance at the optimum "
            f"exceeds {_SCORE_TOL:.0e}"
        )
    infinite_mean = xi >= 1.0
    if infinite_mean:
        warnings.warn(
            f"fitted tail index {xi:.3f} >= 1: tail mean is infinite",
            RuntimeWarning,
            stacklevel=2,
        )
    return GpdFit(
        threshold_u=u,
        shape_xi=xi,
        scale_beta=beta,
        n_exceedances=len(y),
        exceedance_rate=len(y) / n,
        log_likelihood=ll,
        score_norm=score_norm,
        infinite_mean=infinite_mean,
    )
