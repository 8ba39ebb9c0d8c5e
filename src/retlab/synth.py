"""Seeded synthetic data: mixtures, tail-plus-body losses, GARCH paths,
stable VAR processes, and factor-structured panels.

Every generator draws from one `numpy.random.default_rng(seed)` stream
(PCG64). The stream algorithm and the order of draws are part of the
contract: the same spec yields bit-identical output on every run and at any
worker count. The VAR generator's recursion and stability check are the
ones `retlab.varmodel` forecasts and bootstraps with (they live here, as
this module imports no scipy); the other generators follow their fitters'
model equations exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from .errors import ValidationError
from .series import Month, Panel, ReturnSeries, TimeGrid, moving_average

_KINDS = ("mixture", "gpd-tail", "garch", "var", "factor-panel")

_DEFAULT_START = Month(2000, 1)


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for one synthetic dataset.

    Attributes:
        kind: one of mixture, gpd-tail, garch, var, factor-panel.
        n: output length in months (after any smoothing window shrink).
        seed: 64-bit seed for the PCG64 stream.
        parameters: per-kind settings; see the module docstring of each
            private builder. Common optional keys: `start` (ISO year-month,
            default 2000-01), `label`/`labels`, and `smooth_window` (apply a
            trailing moving average of that window to every output series).
    """

    kind: str
    n: int
    seed: int
    parameters: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValidationError(
                f"unknown generator kind {self.kind!r}, expected one of {_KINDS}"
            )
        if self.n < 1:
            raise ValidationError(f"n must be >= 1, got {self.n}")
        if not (0 <= int(self.seed) < 2**64):
            raise ValidationError(f"seed must fit in 64 bits, got {self.seed}")
        # a label names a column of the CSV `synth` writes; none is empty
        labels = self.parameters.get("labels")
        if self.parameters.get("label") == "" or (
            isinstance(labels, (list, tuple)) and "" in labels
        ):
            raise ValidationError("empty series label")


def _param(params: Mapping[str, Any], key: str, default: Any = None) -> Any:
    return params[key] if key in params else default


def _require(params: Mapping[str, Any], key: str, kind: str) -> Any:
    if key not in params:
        raise ValidationError(f"{kind} generator requires parameter {key!r}")
    return params[key]


def _as_vector(value: Any, key: str) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim != 1 or not np.all(np.isfinite(arr)):
        raise ValidationError(f"parameter {key!r} must be a finite vector")
    return arr


def _start_month(params: Mapping[str, Any]) -> Month:
    raw = _param(params, "start")
    return Month.parse(raw) if raw is not None else _DEFAULT_START


def generate(spec: GeneratorSpec):
    """Produce a ReturnSeries (mixture, gpd-tail, garch) or Panel (var,
    factor-panel) according to the spec. Deterministic in `spec.seed`."""
    rng = np.random.default_rng(spec.seed)
    params = spec.parameters
    smooth = int(_param(params, "smooth_window", 1))
    if smooth < 1:
        raise ValidationError(f"smooth_window must be >= 1, got {smooth}")
    # raw length leaves room for the moving-average shrink
    n_raw = spec.n + smooth - 1

    if spec.kind == "mixture":
        out = _gen_mixture(params, n_raw, rng)
    elif spec.kind == "gpd-tail":
        out = _gen_gpd_tail(params, n_raw, rng)
    elif spec.kind == "garch":
        out = _gen_garch(params, n_raw, rng)
    elif spec.kind == "var":
        out = _gen_var(params, n_raw, rng)
    else:
        out = _gen_factor_panel(params, n_raw, rng)

    start = _start_month(params)
    if isinstance(out, np.ndarray) and out.ndim == 1:
        label = str(_param(params, "label", spec.kind))
        result: ReturnSeries | Panel = ReturnSeries(
            label, TimeGrid(start, n_raw), out
        )
        if smooth > 1:
            result = moving_average(result, smooth)
        return result

    labels = _param(params, "labels")
    k = out.shape[1]
    if labels is None:
        labels = [f"S{i + 1}" for i in range(k)]
    if len(labels) != k:
        raise ValidationError(f"expected {k} labels, got {len(labels)}")
    grid = TimeGrid(start, n_raw)
    members = [ReturnSeries(str(lab), grid, out[:, j]) for j, lab in enumerate(labels)]
    if smooth > 1:
        members = [moving_average(m, smooth).relabel(m.label) for m in members]
    return Panel(tuple(members))


def _gen_mixture(params: Mapping[str, Any], n: int, rng: np.random.Generator) -> np.ndarray:
    """Gaussian mixture draws. Parameters: weights, means, sds."""
    weights = _as_vector(_require(params, "weights", "mixture"), "weights")
    means = _as_vector(_require(params, "means", "mixture"), "means")
    sds = _as_vector(_require(params, "sds", "mixture"), "sds")
    k = len(weights)
    if not (len(means) == len(sds) == k) or k < 1:
        raise ValidationError("weights, means, sds must share a length >= 1")
    if np.any(weights <= 0) or abs(weights.sum() - 1.0) > 1e-9:
        raise ValidationError("weights must be positive and sum to 1")
    if np.any(sds <= 0):
        raise ValidationError("mixture sds must be positive")
    component = rng.choice(k, size=n, p=weights / weights.sum())
    return means[component] + sds[component] * rng.standard_normal(n)


def _gen_gpd_tail(params: Mapping[str, Any], n: int, rng: np.random.Generator) -> np.ndarray:
    """Positive losses: uniform body below `threshold`, generalized Pareto
    exceedances above it, tail probability `rate`.

    The unconditional quantile of this law at p > 1-rate is exactly
    u + (scale/shape)*(((1-p)/rate)^(-shape) - 1), the closed form the tail
    fitter inverts.
    """
    u = float(_require(params, "threshold", "gpd-tail"))
    xi = float(_require(params, "shape", "gpd-tail"))
    beta = float(_require(params, "scale", "gpd-tail"))
    rate = float(_param(params, "rate", 0.1))
    if u <= 0 or beta <= 0:
        raise ValidationError("threshold and scale must be positive")
    if not 0 < rate < 1:
        raise ValidationError(f"rate must lie in (0,1), got {rate}")
    p = rng.random(n)
    x = np.empty(n)
    body = p <= 1.0 - rate
    x[body] = u * p[body] / (1.0 - rate)
    q = (p[~body] - (1.0 - rate)) / rate  # conditional tail uniform
    if xi == 0.0:
        y = -beta * np.log1p(-q)
    else:
        y = (beta / xi) * ((1.0 - q) ** (-xi) - 1.0)
    x[~body] = u + y
    return x


def _gen_garch(params: Mapping[str, Any], n: int, rng: np.random.Generator) -> np.ndarray:
    """GARCH(1,1) path with Gaussian innovations.

    Parameters: mu (default 0), omega, alpha, beta, burn (default 500).
    Recursion: h_t = omega + alpha*eps_{t-1}^2 + beta*h_{t-1}, seeded at the
    unconditional variance; the first `burn` draws are discarded.
    """
    mu = float(_param(params, "mu", 0.0))
    omega = float(_require(params, "omega", "garch"))
    alpha = float(_require(params, "alpha", "garch"))
    beta = float(_require(params, "beta", "garch"))
    burn = int(_param(params, "burn", 500))
    if omega <= 0:
        raise ValidationError(f"omega must be positive, got {omega}")
    if alpha < 0 or beta < 0 or alpha + beta >= 1:
        raise ValidationError(
            f"need alpha, beta >= 0 with alpha + beta < 1, got {alpha}, {beta}"
        )
    if burn < 0:
        raise ValidationError(f"burn must be >= 0, got {burn}")
    total = n + burn
    z = rng.standard_normal(total)
    eps = np.empty(total)
    h = omega / (1.0 - alpha - beta)
    for t in range(total):
        if t > 0:
            h = omega + alpha * eps[t - 1] ** 2 + beta * h
        eps[t] = math.sqrt(h) * z[t]
    return mu + eps[burn:]


def _gen_var(params: Mapping[str, Any], n: int, rng: np.random.Generator) -> np.ndarray:
    """Stable VAR(p) path. Parameters: intercept (k-vector), coefficients
    (p x k x k, may be empty for iid noise), residual_cov (k x k), burn
    (default 200)."""
    intercept = _as_vector(_require(params, "intercept", "var"), "intercept")
    k = len(intercept)
    coeffs = np.asarray(_param(params, "coefficients", []), dtype=np.float64)
    if coeffs.size == 0:
        coeffs = np.zeros((0, k, k))
    if coeffs.ndim != 3 or coeffs.shape[1:] != (k, k):
        raise ValidationError(
            f"coefficients must be p x {k} x {k}, got shape {coeffs.shape}"
        )
    p = coeffs.shape[0]
    cov = np.asarray(_require(params, "residual_cov", "var"), dtype=np.float64)
    if cov.shape != (k, k) or not np.allclose(cov, cov.T, atol=1e-12):
        raise ValidationError(f"residual_cov must be symmetric {k} x {k}")
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise ValidationError("residual_cov is not positive definite") from exc
    burn = int(_param(params, "burn", 200))
    radius = _companion_spectral_radius(coeffs)
    if radius >= 1.0 - 1e-10:
        raise ValidationError(
            f"coefficient matrices are not stable (spectral radius {radius:.6f})"
        )
    # start at the unconditional mean; burn-in washes this out
    y = np.empty((n + burn + p, k))
    y[:p] = np.linalg.solve(np.eye(k) - coeffs.sum(axis=0), intercept)
    shocks = rng.standard_normal((n + burn, k)) @ chol.T
    return _simulate(coeffs, intercept, y, shocks)[p + burn :]


def _companion_spectral_radius(coeff: np.ndarray) -> float:
    """Largest |eigenvalue| of coeff (p, k, k)'s companion matrix; 0 at p = 0."""
    p, k, _ = coeff.shape
    if p == 0:
        return 0.0
    companion = np.zeros((k * p, k * p))
    companion[:k] = np.hstack([coeff[l] for l in range(p)])
    if p > 1:
        companion[k:, :-k] = np.eye(k * (p - 1))
    return float(np.max(np.abs(np.linalg.eigvals(companion))))


def _simulate(coeff, intercept, y, shocks):
    """Fill rows p.. of y (..., n, k) in place from its first p rows by
    the VAR(p) recursion, and return y: row t is intercept + shocks[...,
    t - p, :], plus coeff[l - 1] @ y_{t-l} for l = 1..p in that order.
    Leading axes stack independent paths. Each product is a stacked
    (k,k) @ (k,1) matmul, one gemv per path, so a path gets the same bits
    however many are stacked with it; one gemm would sum in another order.
    """
    p = coeff.shape[0]
    for t in range(p, y.shape[-2]):
        row = intercept + shocks[..., t - p, :]
        for lag in range(1, p + 1):
            row = row + np.matmul(coeff[lag - 1], y[..., t - lag, :, None])[..., 0]
        y[..., t, :] = row
    return y


def _gen_factor_panel(params: Mapping[str, Any], n: int, rng: np.random.Generator) -> np.ndarray:
    """Linear factor panel: y = means + factors @ loadings' + idio noise.

    Parameters: loadings (k_series x k_factors), factor_sds (k_factors),
    idio_sds (k_series), means (k_series, default 0).
    """
    loadings = np.asarray(_require(params, "loadings", "factor-panel"), dtype=np.float64)
    if loadings.ndim != 2:
        raise ValidationError("loadings must be a 2-d matrix (series x factors)")
    k_series, k_factors = loadings.shape
    factor_sds = _as_vector(_require(params, "factor_sds", "factor-panel"), "factor_sds")
    idio_sds = _as_vector(_require(params, "idio_sds", "factor-panel"), "idio_sds")
    means = _param(params, "means")
    means = np.zeros(k_series) if means is None else _as_vector(means, "means")
    if len(factor_sds) != k_factors or len(idio_sds) != k_series or len(means) != k_series:
        raise ValidationError("factor_sds, idio_sds, means have inconsistent lengths")
    if np.any(factor_sds < 0) or np.any(idio_sds < 0):
        raise ValidationError("factor_sds and idio_sds must be >= 0")
    factors = rng.standard_normal((n, k_factors)) * factor_sds
    idio = rng.standard_normal((n, k_series)) * idio_sds
    return means + factors @ loadings.T + idio
