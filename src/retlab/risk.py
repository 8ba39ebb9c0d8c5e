"""Loss fractiles (Value-at-Risk) and conditional average losses (expected
shortfall) under the three fitted loss models: normal mixture, generalized
Pareto tail, and GARCH(1,1).

All quantities are on the loss scale: losses are negated returns, so a
reported fractile is a positive magnitude in percent per month when the
tail is on the downside. Models passed to `loss_fractile` and
`average_loss` must have been fitted on a loss series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distfit import (
    GarchFit,
    GpdFit,
    MixtureFit,
    fit_garch11,
    fit_gpd_pot,
    fit_mixture_em,
    mixture_cdf,
)
from .distfit.gpd import check_threshold_quantile
from .distfit.mixture import check_k_max
from .errors import (
    InfiniteMeanError,
    OutOfTailError,
    RetlabError,
    ValidationError,
)
from .factors import residual_panel
from .optimize import brentq
from .series import Panel, Series
from .special import ndtr, ndtri

MODELS = ("EM", "GPD", "GARCH")
GARCH_CONDITIONINGS = ("one-step", "unconditional")

# the mixture fractile's root tolerance, relative to the fractile and to
# the widest component's sd
_ROOT_RTOL = 1e-12


def _check_fractile(p: float) -> None:
    if not 0.5 < p < 1.0:
        raise ValidationError(f"fractile must lie in (0.5, 1), got {p}")


@dataclass(frozen=True)
class RiskConfig:
    """Settings for `risk_report`.

    garch_conditioning picks the variance behind GARCH quantiles:
    "one-step" uses the forecast variance at sample end, "unconditional"
    the stationary variance.
    """

    fractiles: tuple[float, ...] = (0.95, 0.99, 0.999)
    garch_conditioning: str = "one-step"
    mixture_k_max: int = 3
    gpd_threshold_quantile: float = 0.90

    def __post_init__(self) -> None:
        if len(self.fractiles) == 0:
            raise ValidationError("at least one fractile is required")
        for p in self.fractiles:
            _check_fractile(p)
        if self.garch_conditioning not in GARCH_CONDITIONINGS:
            raise ValidationError(
                f"garch_conditioning must be one of {GARCH_CONDITIONINGS}, "
                f"got {self.garch_conditioning!r}"
            )
        check_k_max(self.mixture_k_max)
        check_threshold_quantile(self.gpd_threshold_quantile)


@dataclass(frozen=True)
class RiskCell:
    """One (model, fractile) entry of a risk report. `error` carries the
    failure message when either quantity could not be computed."""

    model: str
    fractile: float
    loss: float | None
    average_loss: float | None
    error: str | None = None

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise ValidationError(f"unknown model {self.model!r}")
        if self.loss is not None and self.average_loss is not None:
            if self.average_loss < self.loss - 1e-9:
                raise ValidationError(
                    f"average loss {self.average_loss} below fractile "
                    f"{self.loss} for {self.model} at {self.fractile}"
                )


@dataclass(frozen=True)
class RiskReport:
    """Loss fractiles and average losses per model per fractile.

    Cells cover the full model-by-fractile grid; fitter failures are
    recorded in fit_errors and in every affected cell rather than
    aborting the report.
    """

    label: str
    fractiles: tuple[float, ...]
    cells: tuple[RiskCell, ...]
    mixture: MixtureFit | None
    gpd: GpdFit | None
    garch: GarchFit | None
    fit_errors: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.cells) != len(MODELS) * len(self.fractiles):
            raise ValidationError("cells must cover every model and fractile")
        for model in MODELS:
            losses = [c.loss for c in self.cells
                      if c.model == model and c.loss is not None]
            if any(b < a - 1e-9 for a, b in zip(losses, losses[1:])):
                raise ValidationError(
                    f"{model} losses must be nondecreasing in the fractile"
                )

    def cell(self, model: str, fractile: float) -> RiskCell:
        for c in self.cells:
            if c.model == model and c.fractile == fractile:
                return c
        raise KeyError(f"no cell for {model!r} at {fractile}")


def _norm_pdf(z) -> np.ndarray:
    """Standard normal density by `scipy.stats.norm.pdf`'s own expression,
    on an array as there: numpy squares a scalar through `pow`, which can
    differ from an array's square in the last bit."""
    z = np.atleast_1d(z)
    return np.exp(-z**2 / 2.0) / np.sqrt(2 * np.pi)


def _mixture_fractile(fit: MixtureFit, p: float) -> float:
    lo = float(np.min(fit.means - 40.0 * fit.sds))
    hi = float(np.max(fit.means + 40.0 * fit.sds))
    # the mixture CDF is continuous and strictly increasing on the bracket
    return brentq(
        lambda v: float(mixture_cdf(fit, v)[0]) - p, lo, hi,
        xtol=_ROOT_RTOL * float(np.max(fit.sds)), rtol=_ROOT_RTOL,
    )


def _mixture_average_loss(fit: MixtureFit, p: float) -> float:
    v = _mixture_fractile(fit, p)
    z = (v - fit.means) / fit.sds
    upper = ndtr(-z)
    # E[X 1{X>v}] per component, then normalize by the actual tail mass
    partial = float(np.sum(fit.weights * (fit.means * upper + fit.sds * _norm_pdf(z))))
    tail = float(np.sum(fit.weights * upper))
    return partial / tail


def _gpd_fractile(fit: GpdFit, p: float) -> float:
    rate = fit.exceedance_rate
    if p <= 1.0 - rate:
        raise OutOfTailError(
            f"fractile {p} lies at or below the threshold's coverage "
            f"{1.0 - rate:.4f}; raise the fractile or lower the threshold"
        )
    t = math.log((1.0 - p) / rate)
    xi, beta = fit.shape_xi, fit.scale_beta
    if abs(xi) < 1e-12:
        return fit.threshold_u - beta * t
    return fit.threshold_u + beta / xi * math.expm1(-xi * t)


def _gpd_average_loss(fit: GpdFit, p: float) -> float:
    if fit.shape_xi >= 1.0:
        raise InfiniteMeanError(
            f"tail index {fit.shape_xi:.3f} >= 1: the average loss diverges"
        )
    v = _gpd_fractile(fit, p)
    xi, beta, u = fit.shape_xi, fit.scale_beta, fit.threshold_u
    return v / (1.0 - xi) + (beta - xi * u) / (1.0 - xi)


def _garch_sigma(fit: GarchFit, conditioning: str) -> float:
    if conditioning == "one-step":
        return math.sqrt(fit.one_step_variance)
    return math.sqrt(fit.unconditional_variance)


def _garch_fractile(fit: GarchFit, p: float, conditioning: str) -> float:
    return fit.mu + _garch_sigma(fit, conditioning) * ndtri(p)


def _garch_average_loss(fit: GarchFit, p: float, conditioning: str) -> float:
    pdf = _norm_pdf(ndtri(p))[0]
    return fit.mu + _garch_sigma(fit, conditioning) * pdf / (1.0 - p)


# model type -> (loss fractile, average loss)
_QUERIES = {
    MixtureFit: (_mixture_fractile, _mixture_average_loss),
    GpdFit: (_gpd_fractile, _gpd_average_loss),
    GarchFit: (_garch_fractile, _garch_average_loss),
}


def _query(which: int, model, p: float, garch_conditioning: str) -> float:
    """Risk query `which` (0: loss fractile, 1: average loss) of `model` at
    p, after the checks both queries share."""
    _check_fractile(p)
    funcs = _QUERIES.get(type(model))
    if funcs is None:
        raise ValidationError(f"unsupported model type {type(model).__name__}")
    if not isinstance(model, GarchFit):
        return funcs[which](model, p)
    if garch_conditioning not in GARCH_CONDITIONINGS:
        raise ValidationError(
            f"garch_conditioning must be one of {GARCH_CONDITIONINGS}"
        )
    return funcs[which](model, p, garch_conditioning)


def loss_fractile(
    model: MixtureFit | GpdFit | GarchFit,
    p: float,
    *,
    garch_conditioning: str = "one-step",
) -> float:
    """Loss magnitude met or exceeded with probability 1-p, in %/month.

    Raises:
        ValidationError: p outside (0.5, 1) or unsupported model type.
        OutOfTailError: GPD query at or below the threshold's coverage.
    """
    return _query(0, model, p, garch_conditioning)


def average_loss(
    model: MixtureFit | GpdFit | GarchFit,
    p: float,
    *,
    garch_conditioning: str = "one-step",
) -> float:
    """Expected loss given that the p-fractile loss is breached, %/month.

    Raises:
        ValidationError: p outside (0.5, 1) or unsupported model type.
        OutOfTailError: GPD query at or below the threshold's coverage.
        InfiniteMeanError: GPD tail index >= 1.
    """
    return _query(1, model, p, garch_conditioning)


def _fit_all(losses: Series, config: RiskConfig):
    fits: dict = dict.fromkeys(MODELS)
    errors: dict = {}
    # built per call, so that each fitter is looked up as a module global
    for model, fitter, kwargs in (
        ("EM", fit_mixture_em, {"k_max": config.mixture_k_max}),
        ("GPD", fit_gpd_pot, {"threshold_quantile": config.gpd_threshold_quantile}),
        ("GARCH", fit_garch11, {}),
    ):
        try:
            fits[model] = fitter(losses, **kwargs)
        except RetlabError as exc:
            errors[model] = str(exc)
    return fits, errors


def risk_jobs(
    targets: list[Series], panel: Panel, n_factors: int
) -> tuple[list[tuple[Series, str]], dict[str, str]]:
    """The (series, basis) pairs of a risk stage, and the residual
    sweep's error text by panel member; residuals are plain `Series`.

    Every target is a "raw-returns" job. When the panel is wider than
    n_factors, each member's residual after its first n_factors
    principal components follows as a "residuals" job; the residual
    panel is computed once, here. A member whose residual cannot be
    computed gets no job and its `RetlabError` text instead; if the
    decomposition itself fails, every member gets its text.
    """
    jobs = [(s, "raw-returns") for s in targets]
    if panel.width <= n_factors:
        return jobs, {}
    try:
        resid, failed = residual_panel(panel, n_factors)
    except RetlabError as exc:
        return jobs, {label: str(exc) for label in panel.labels}
    if resid is not None:
        jobs += [(s, "residuals") for s in resid.series]
    return jobs, failed


def risk_report(s: Series, config: RiskConfig | None = None) -> RiskReport:
    """Fit all three loss models to a series and tabulate loss fractiles
    and average losses at every configured fractile.

    The series is negated internally into a plain `Series` of losses.
    """
    if config is None:
        config = RiskConfig()
    losses = Series(s.label, s.grid, -s.values)
    fits, fit_errors = _fit_all(losses, config)
    cells = []
    for model in MODELS:
        fit = fits[model]
        for p in config.fractiles:
            if fit is None:
                cells.append(RiskCell(model, p, None, None, fit_errors[model]))
                continue
            loss_val = None
            avg_val = None
            err = None
            try:
                loss_val = loss_fractile(
                    fit, p, garch_conditioning=config.garch_conditioning
                )
                avg_val = average_loss(
                    fit, p, garch_conditioning=config.garch_conditioning
                )
            except RetlabError as exc:
                err = str(exc)
            cells.append(RiskCell(model, p, loss_val, avg_val, err))
    return RiskReport(
        label=s.label,
        fractiles=tuple(config.fractiles),
        cells=tuple(cells),
        mixture=fits["EM"],
        gpd=fits["GPD"],
        garch=fits["GARCH"],
        fit_errors=fit_errors,
    )
