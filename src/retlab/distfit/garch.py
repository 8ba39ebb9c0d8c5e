"""GARCH(1,1) Gaussian quasi-maximum-likelihood fitting and the ARCH-LM
heteroskedasticity test.

The variance recursion h_t = omega + alpha*eps_{t-1}^2 + beta*h_{t-1} is
seeded with h_1 equal to the sample variance (n denominator) of the input,
held fixed during optimization. The path is one forward linear filter.
The analytic gradient is the adjoint of that recursion: one backward
filter of d ll / d h_t yields all four parameter derivatives. A fit
builds one workspace of preallocated length-n buffers and reuses it for
every evaluation of every start, so an evaluation allocates almost
nothing.
Constraints (omega > 0, alpha, beta >= 0, alpha + beta < 1) are enforced by
an unconstrained reparameterization, never by clipping.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ..errors import (
    DegenerateVarianceError,
    InsufficientDataError,
    ValidationError,
)
from ..optimize import load_scipy_function, minimize_lbfgsb
from ..series import Series
from ..special import chdtrc

_LOG_2PI = math.log(2.0 * math.pi)
_PERSISTENCE_CAP = 1.0 - 1e-6  # alpha + beta stays strictly below 1
_INTEGRATED_WARN = 0.999


# for len(a) > 1, _linear_filter(b, a, x, axis[, zi]) is
# lfilter(b, a, x, axis[, zi]) without lfilter's argument checks; loaded
# from its file, since importing `scipy.signal` would run its package init,
# which imports `scipy.stats`, `interpolate`, `ndimage` and more
_linear_filter = load_scipy_function("signal", "_sigtools", "_linear_filter")
_ONE = np.ones(1)


@dataclass(frozen=True)
class GarchFit:
    """Fitted GARCH(1,1) with Gaussian innovations.

    Attributes:
        mu: conditional mean, percent per month.
        omega, alpha, beta: variance recursion parameters; alpha + beta < 1.
        conditional_variance_path: h_1..h_n in squared-percent units.
        one_step_variance: h_{n+1}, the forecast variance after sample end.
        integrated_warning: alpha + beta exceeded 0.999 (near-integrated).
        converged: optimizer reported success for the winning start.
        n_evals: likelihood evaluations over all starts.
    """

    mu: float
    omega: float
    alpha: float
    beta: float
    conditional_variance_path: np.ndarray
    log_likelihood: float
    one_step_variance: float
    n: int
    h1: float
    converged: bool
    integrated_warning: bool
    n_evals: int

    def __post_init__(self) -> None:
        if self.omega <= 0:
            raise ValidationError(f"omega must be positive, got {self.omega}")
        if self.alpha < 0 or self.beta < 0:
            raise ValidationError("alpha and beta must be nonnegative")
        if self.alpha + self.beta >= 1:
            raise ValidationError(
                f"alpha + beta = {self.alpha + self.beta} violates stationarity"
            )
        path = self.conditional_variance_path
        if len(path) != self.n or np.any(path <= 0):
            raise ValidationError("conditional variance path must be positive")

    @property
    def unconditional_variance(self) -> float:
        return self.omega / (1.0 - self.alpha - self.beta)


class _Workspace:
    """Preallocated length-n buffers for GARCH likelihood evaluations at
    one series and one h1, reused by every evaluation of a fit.

    Each evaluation fills the buffers with `out=` ufuncs; only the two
    filter calls allocate. The gradient is the adjoint of the variance
    recursion: with c_t = d ll / d h_t, the backward filter
    lambda_t = c_t + beta * lambda_{t+1} gives d ll / d theta as
    sum_t lambda_t * (the direct derivative of h_t in theta), that is
    lambda against 1, eps_{t-1}^2, h_{t-1} and -2 alpha eps_{t-1}.
    """

    def __init__(self, x: np.ndarray, h1: float):
        n = len(x)
        self.x = x
        self.h1 = h1
        self.eps = np.empty(n)
        self.eps_sq = np.empty(n)
        self.h = np.empty(n)
        self.inv_h = np.empty(n)
        self.ratio = np.empty(n)
        self.scratch = np.empty(n)

    def variance_path(self, mu, omega, alpha, beta) -> np.ndarray:
        """Fill eps, eps_sq and h for (mu, omega, alpha, beta); returns h."""
        eps, eps_sq, h = self.eps, self.eps_sq, self.h
        np.subtract(self.x, mu, out=eps)
        np.multiply(eps, eps, out=eps_sq)
        h[0] = self.h1
        drive = self.scratch[1:]
        np.multiply(eps_sq[:-1], alpha, out=drive)
        drive += omega
        h[1:] = _linear_filter(
            _ONE, np.array([1.0, -beta]), drive, -1, np.array([beta * self.h1])
        )[0]
        return h

    def loglike(self, params):
        """Gaussian log-likelihood and its gradient in (mu, omega, alpha,
        beta), or (-inf, zeros) where the parameters or the path are
        infeasible."""
        mu, omega, alpha, beta = (float(v) for v in params)
        if omega <= 0 or alpha < 0 or beta < 0:
            return -np.inf, np.zeros(4)
        eps, eps_sq, inv_h, ratio, scratch = (
            self.eps, self.eps_sq, self.inv_h, self.ratio, self.scratch
        )
        h = self.variance_path(mu, omega, alpha, beta)
        # NaN fails the first test, +inf the second
        if not (h.min() > 0 and math.isfinite(h.max())):
            return -np.inf, np.zeros(4)
        np.divide(1.0, h, out=inv_h)
        np.multiply(eps_sq, inv_h, out=ratio)
        np.log(h, out=scratch)
        scratch += _LOG_2PI
        scratch += ratio
        ll = -0.5 * float(scratch.sum())
        # c_t = d ll / d h_t, then lambda_t = c_t + beta * lambda_{t+1}
        # over t >= 2 (h_1 does not depend on the parameters)
        c = np.subtract(ratio, 1.0, out=scratch)
        c *= inv_h
        c *= 0.5
        lam = _linear_filter(_ONE, np.array([1.0, -beta]), c[:0:-1], -1)[::-1]
        g_mu = float(eps @ inv_h) - 2.0 * alpha * float(lam @ eps[:-1])
        g_omega = float(lam.sum())
        g_alpha = float(lam @ eps_sq[:-1])
        g_beta = float(lam @ h[:-1])
        return ll, np.array([g_mu, g_omega, g_alpha, g_beta])


def garch11_variance_path(params, values, h1: float | None = None) -> np.ndarray:
    """Conditional variance path h_1..h_n for (mu, omega, alpha, beta)."""
    x = np.asarray(values, dtype=np.float64)
    if h1 is None:
        h1 = float(np.var(x))
    mu, omega, alpha, beta = (float(v) for v in params)
    return _Workspace(x, h1).variance_path(mu, omega, alpha, beta)


def garch11_loglike(params, values, h1: float | None = None):
    """Gaussian log-likelihood and analytic gradient at natural parameters
    (mu, omega, alpha, beta). h1 defaults to the sample variance
    (n denominator) of `values` and is treated as a constant.

    Returns (ll, gradient array of length 4). Infeasible parameters
    (omega <= 0, negative alpha/beta, or a nonpositive variance on the
    path) give (-inf, zeros).
    """
    x = np.asarray(values, dtype=np.float64)
    if h1 is None:
        h1 = float(np.var(x))
    return _Workspace(x, h1).loglike(params)


def _to_natural(raw):
    """Map unconstrained (mu, w, a, b) to (mu, omega, alpha, beta)."""
    mu, w, a, b = raw
    omega = math.exp(w)
    ea, eb = math.exp(a), math.exp(b)
    denom = 1.0 + ea + eb
    alpha = _PERSISTENCE_CAP * ea / denom
    beta = _PERSISTENCE_CAP * eb / denom
    return np.array([mu, omega, alpha, beta])


def _from_natural(mu, omega, alpha, beta):
    p_a = alpha / _PERSISTENCE_CAP
    p_b = beta / _PERSISTENCE_CAP
    p_0 = 1.0 - p_a - p_b
    return np.array([mu, math.log(omega), math.log(p_a / p_0), math.log(p_b / p_0)])


def _raw_gradient(raw, natural, natural_grad):
    """Chain rule from natural-parameter gradient to raw coordinates;
    `natural` is `_to_natural(raw)`."""
    _, _, a, b = raw
    omega = natural[1]
    g_mu, g_omega, g_alpha, g_beta = natural_grad
    ea, eb = math.exp(a), math.exp(b)
    denom = 1.0 + ea + eb
    s = _PERSISTENCE_CAP
    d_alpha_da = s * ea * (1.0 + eb) / denom**2
    d_beta_da = -s * ea * eb / denom**2
    d_beta_db = s * eb * (1.0 + ea) / denom**2
    d_alpha_db = d_beta_da
    return np.array([
        g_mu,
        g_omega * omega,
        g_alpha * d_alpha_da + g_beta * d_beta_da,
        g_alpha * d_alpha_db + g_beta * d_beta_db,
    ])


_STARTS = ((0.05, 0.90), (0.10, 0.80), (0.02, 0.40), (1e-3, 1e-3))


def fit_garch11(s: Series) -> GarchFit:
    """Quasi-MLE GARCH(1,1) fit from several deterministic starts.

    Raises:
        InsufficientDataError: n < 100.
        DegenerateVarianceError: constant input.
    """
    n = len(s)
    if n < 100:
        raise InsufficientDataError(f"GARCH fit needs n >= 100, got {n}")
    x = s.values
    if np.ptp(x) == 0:
        raise DegenerateVarianceError(f"series {s.label!r} is constant")
    h1 = float(np.var(x))
    sd = math.sqrt(h1)
    mu0 = float(x.mean())
    workspace = _Workspace(x, h1)

    def objective(raw):
        natural = _to_natural(raw)
        ll, grad = workspace.loglike(natural)
        if not math.isfinite(ll):
            return 1e12, np.zeros(4)
        return -ll, -_raw_gradient(raw, natural, grad)

    log_h1 = math.log(h1)
    bounds = (
        np.array([mu0 - 10 * sd, log_h1 - 35.0, -40.0, -40.0]),
        np.array([mu0 + 10 * sd, log_h1 + 35.0, 40.0, 40.0]),
    )
    best_res = None
    n_evals = 0
    for alpha0, beta0 in _STARTS:
        omega0 = h1 * (1.0 - alpha0 - beta0)
        raw0 = _from_natural(mu0, omega0, alpha0, beta0)
        res = minimize_lbfgsb(
            objective, raw0, bounds, maxiter=400, ftol=1e-13, gtol=1e-9
        )
        n_evals += res.nfev
        if best_res is None or res.fun < best_res.fun:
            best_res = res
    mu, omega, alpha, beta = (float(v) for v in _to_natural(best_res.x))
    ll, _ = workspace.loglike((mu, omega, alpha, beta))
    h = workspace.h.copy()
    integrated = alpha + beta > _INTEGRATED_WARN
    if integrated:
        warnings.warn(
            f"alpha + beta = {alpha + beta:.5f} is near 1: variance is "
            f"close to integrated",
            RuntimeWarning,
            stacklevel=2,
        )
    if not best_res.success:
        warnings.warn(
            f"GARCH optimizer stopped without a clean success flag "
            f"({best_res.message}); returning its best iterate",
            RuntimeWarning,
            stacklevel=2,
        )
    eps_last = x[-1] - mu
    return GarchFit(
        mu=mu,
        omega=omega,
        alpha=alpha,
        beta=beta,
        conditional_variance_path=h,
        one_step_variance=float(omega + alpha * eps_last**2 + beta * h[-1]),
        log_likelihood=float(ll),
        n=n,
        h1=h1,
        converged=bool(best_res.success),
        integrated_warning=integrated,
        n_evals=n_evals,
    )


@dataclass(frozen=True)
class ArchLmResult:
    """Engle's LM test for autoregressive conditional heteroskedasticity.

    statistic is m * R^2 from regressing squared demeaned returns on their
    own first `lags` lags (m auxiliary observations); p_value comes from
    chi-square(lags).
    """

    lags: int
    statistic: float
    p_value: float
    n_obs: int

    def __post_init__(self) -> None:
        if self.statistic < 0:
            raise ValidationError(f"statistic must be >= 0, got {self.statistic}")
        if not 0.0 <= self.p_value <= 1.0:
            raise ValidationError(f"p-value {self.p_value} outside [0,1]")


def arch_lm_test(s: Series, lags: int = 12) -> ArchLmResult:
    """LM test of no ARCH effects up to the given lag order.

    Raises:
        ValidationError: lags < 1.
        InsufficientDataError: n <= lags + 10.
        DegenerateVarianceError: squared deviations carry no variance.
    """
    if lags < 1:
        raise ValidationError(f"lags must be >= 1, got {lags}")
    n = len(s)
    if n <= lags + 10:
        raise InsufficientDataError(
            f"ARCH-LM with {lags} lags needs n > {lags + 10}, got {n}"
        )
    e = (s.values - s.values.mean()) ** 2
    y = e[lags:]
    m = len(y)
    design = np.column_stack(
        [np.ones(m)] + [e[lags - j : n - j] for j in range(1, lags + 1)]
    )
    sst = float(np.sum((y - y.mean()) ** 2))
    if sst == 0.0:
        raise DegenerateVarianceError("squared deviations are constant")
    coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    ssr = float(np.sum((y - design @ coef) ** 2))
    r2 = max(0.0, 1.0 - ssr / sst)
    statistic = m * r2
    return ArchLmResult(
        lags=lags,
        statistic=statistic,
        p_value=float(chdtrc(lags, statistic)),
        n_obs=m,
    )
