"""Gaussian mixture fitting with BIC order selection.

Each component count k >= 2 is fitted on the standardized data
z = (x - mean) / sd (MLE sd) and mapped back to the input scale, so the
fit does not depend on the data's units. Restarts are deterministic: ten
quantile-split initializations, each burned in for a few EM iterations.
The best burn-in is then polished by L-BFGS-B on the log-likelihood (the
EM/quasi-Newton hybrid of Jamshidian and Jennrich, 1997), which converges
where EM crawls because components overlap. No randomness enters the fit,
so repeated runs are bit identical. A component-sd floor of 1e-4 sample
sds prevents likelihood blowup from a component collapsing onto a single
point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ..errors import (
    ConvergenceError,
    DegenerateVarianceError,
    InsufficientDataError,
    ValidationError,
)
from ..optimize import minimize_lbfgsb
from ..series import Series
from ..special import ndtr

_LOG_2PI = math.log(2.0 * math.pi)

# fit controls: ten deterministic restarts each run at most _BURN_ITERS EM
# iterations (stopping early on a log-likelihood change below _TOL); the
# best is polished until the projected gradient per observation is at most
# _TOL, in at most _MAX_EVALS likelihood evaluations
_TOL = 1e-8
_MAX_EVALS = 1000
_N_RESTARTS = 10
_BURN_ITERS = 15
_SD_FLOOR_FACTOR = 1e-4


@dataclass(frozen=True)
class MixtureCandidate:
    """One component count tried in the BIC order pick."""

    k: int
    log_likelihood: float
    bic: float
    converged: bool
    n_iter: int


@dataclass(frozen=True)
class MixtureFit:
    """A fitted k-component Gaussian mixture on the input scale.

    Components are sorted by ascending sd. `bic` is
    -2*log_likelihood + (3k-1)*ln(n): k means, k sds, k-1 free weights.

    Attributes:
        converged: the projected log-likelihood gradient per observation, in
            the polish's standardized coordinates, is at most 1e-8 at the
            returned parameters (k = 1 is exact).
        n_iter: EM burn-in iterations of the best start plus the polish's
            likelihood evaluations.
        sd_floor_hit: the component-sd floor clamped a burn-in update (log-
            likelihood monotonicity is not guaranteed on such steps) or
            binds at the optimum.
        log_likelihood_path: per-iteration log-likelihood of the best
            start's EM burn-in, then the polished log-likelihood.
        candidates: every component count tried, in order, when this fit
            is the BIC pick of `fit_mixture_em`; empty otherwise.
    """

    k: int
    weights: np.ndarray
    means: np.ndarray
    sds: np.ndarray
    log_likelihood: float
    bic: float
    n: int
    converged: bool
    n_iter: int
    sd_floor_hit: bool
    log_likelihood_path: np.ndarray
    candidates: tuple[MixtureCandidate, ...] = ()

    def __post_init__(self) -> None:
        w, m, s = self.weights, self.means, self.sds
        if not (len(w) == len(m) == len(s) == self.k >= 1):
            raise ValidationError("component arrays must all have length k")
        if np.any(w <= 0) or np.any(w > 1 + 1e-12) or abs(w.sum() - 1) > 1e-8:
            raise ValidationError(f"weights must lie in (0,1] and sum to 1: {w}")
        if np.any(s <= 0):
            raise ValidationError(f"component sds must be positive: {s}")
        if np.any(np.diff(s) < -1e-12):
            raise ValidationError("components must be sorted by ascending sd")
        expected_bic = -2.0 * self.log_likelihood + (3 * self.k - 1) * math.log(self.n)
        if abs(self.bic - expected_bic) > 1e-6:
            raise ValidationError(
                f"stored bic {self.bic} disagrees with definition {expected_bic}"
            )


def mixture_logpdf(x: np.ndarray, weights, means, sds) -> np.ndarray:
    """Pointwise log density of a Gaussian mixture."""
    z = (x[:, None] - np.asarray(means)[None, :]) / np.asarray(sds)[None, :]
    comp = -0.5 * (z**2 + _LOG_2PI) - np.log(sds)[None, :] + np.log(weights)[None, :]
    # shift by each point's largest component; a point where every
    # component is -inf shifts by 0 and stays -inf
    mx = comp.max(axis=1)
    mx[~np.isfinite(mx)] = 0.0
    with np.errstate(divide="ignore"):
        return np.log(np.exp(comp - mx[:, None]).sum(axis=1)) + mx


def mixture_pdf(fit: MixtureFit, x) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    return np.exp(mixture_logpdf(x, fit.weights, fit.means, fit.sds))


def mixture_cdf(fit: MixtureFit, x) -> np.ndarray:
    """Mixture CDF: the weight-averaged component normal CDFs."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    z = (x[:, None] - fit.means[None, :]) / fit.sds[None, :]
    return ndtr(z) @ fit.weights


def _quantile_split_init(x_sorted: np.ndarray, k: int, exponent: float):
    """Split sorted data at k quantile cuts shaped by `exponent` and take
    each slice's weight, mean, and sd as one component's start."""
    n = len(x_sorted)
    cuts = [0] + [int(round(n * (m / k) ** exponent)) for m in range(1, k)] + [n]
    # guarantee nonempty slices even for extreme exponents
    for i in range(1, len(cuts)):
        cuts[i] = min(max(cuts[i], cuts[i - 1] + 1), n - (k - i))
    w = np.empty(k)
    mu = np.empty(k)
    sd = np.empty(k)
    for m in range(k):
        piece = x_sorted[cuts[m] : cuts[m + 1]]
        w[m] = len(piece) / n
        mu[m] = piece.mean()
        sd[m] = max(float(piece.std()), _SD_FLOOR_FACTOR)
    return w, mu, sd


class _Workspace:
    """Preallocated per-iteration buffers, reused across restarts.

    The E-step runs in (k, n) layout so every heavy pass is over a
    contiguous row. Each component's log density is the quadratic
    a*x^2 + b*x + c, so the whole (k, n) table is one small matrix
    product against a fixed (3, n) design of rows x^2, x, 1. The
    densities divided by their mixture sum are the responsibilities r,
    each at most 1, so the M-step sufficient statistics (sum r*x^2,
    sum r*x, sum r) are one product of r with that same design and
    cannot overflow.

    The usual logsumexp max-shift is skipped on the fast path: densities
    are exponentiated directly, and only if some point underflows in
    every component at once (mixture sum exactly 0) does the shifted
    recomputation run. The shift changes nothing when no sum underflows,
    because exp underflow to 0 happens componentwise either way.
    """

    def __init__(self, x: np.ndarray, k: int):
        n = len(x)
        self.x = x
        self.design = np.empty((3, n))
        self.design[0] = x * x
        self.design[1] = x
        self.design[2] = 1.0
        self.quad = np.empty((k, 3))
        self.buf = np.empty((k, n))
        self.mx = np.empty(n)
        self.s = np.empty(n)
        self.stats = np.empty((k, 3))

    def _log_densities(self, w, mu, sd):
        """Fill buf with per-component log densities via one matmul."""
        quad = self.quad
        # Python floats: the same IEEE arithmetic as numpy scalars, faster
        for m, (wm, mm, sm) in enumerate(zip(w.tolist(), mu.tolist(), sd.tolist())):
            inv_var = 1.0 / (sm * sm)
            quad[m, 0] = -0.5 * inv_var
            quad[m, 1] = mm * inv_var
            quad[m, 2] = (
                -0.5 * (mm * mm * inv_var + _LOG_2PI)
                - math.log(sm)
                + math.log(wm)
            )
        np.matmul(quad, self.design, out=self.buf)

    def log_likelihood_and_moments(self, w, mu, sd):
        """One E-step: mixture log-likelihood and the responsibility-
        weighted sums (sum r, sum r*x, sum r*x^2) per component."""
        buf, s = self.buf, self.s
        k = buf.shape[0]
        self._log_densities(w, mu, sd)
        np.exp(buf, out=buf)  # underflow expected: see _em_run
        np.copyto(s, buf[0])
        for m in range(1, k):
            s += buf[m]
        shift = 0.0
        if not s.min() > 0.0:
            # some point underflowed in every component at once: redo
            # with the classic max-shift (s >= 1 then holds pointwise)
            self._log_densities(w, mu, sd)
            mx = self.mx
            np.copyto(mx, buf[0])
            for m in range(1, k):
                np.maximum(mx, buf[m], out=mx)
            buf -= mx[None, :]
            np.exp(buf, out=buf)
            np.copyto(s, buf[0])
            for m in range(1, k):
                s += buf[m]
            shift = float(mx.sum())
        buf /= s  # responsibilities, each at most 1
        stats = self.stats
        np.matmul(buf, self.design.T, out=stats)
        np.log(s, out=s)
        ll = float(s.sum()) + shift
        return ll, stats[:, 2], stats[:, 1], stats[:, 0]


# densities far from a component underflow to 0 by design; the state is
# entered once per run, not per E-step, as entering it costs about 2 us
@np.errstate(under="ignore")
def _em_run(w, mu, sd, work: _Workspace):
    """EM iterations from one start. Returns updated parameters, the
    log-likelihood path, and whether the sd floor clamped any update.
    The data are standardized, so the floor is _SD_FLOOR_FACTOR itself."""
    path = []
    floor_hit = False
    prev_ll = -np.inf
    for _ in range(_BURN_ITERS):
        ll, bulk, sum_x, sum_x2 = work.log_likelihood_and_moments(w, mu, sd)
        path.append(ll)
        if ll - prev_ll < _TOL and len(path) > 1:
            if ll - prev_ll < -1e-7 * max(1.0, abs(ll)) and not floor_hit:
                raise RuntimeError(
                    f"EM log-likelihood decreased {prev_ll} -> {ll} without "
                    f"a floored sd; this is a bug"
                )
            return w, mu, sd, path, floor_hit
        prev_ll = ll
        bulk = np.maximum(bulk, 1e-12)
        w = bulk / bulk.sum()
        mu = sum_x / bulk
        # sum r*(x - mu)^2 expanded around the freshly updated mean
        var = sum_x2 / bulk - mu * mu
        new_sd = np.sqrt(np.maximum(var, 0.0))
        if (new_sd < _SD_FLOOR_FACTOR).any():
            floor_hit = True
            new_sd = np.maximum(new_sd, _SD_FLOOR_FACTOR)
        sd = new_sd
    # budget exhausted right after an M-step: record the final
    # parameters' likelihood so the returned pair is consistent
    final_ll, _, _, _ = work.log_likelihood_and_moments(w, mu, sd)
    path.append(final_ll)
    return w, mu, sd, path, floor_hit


def _unpack(theta: np.ndarray, k: int):
    """(weights, means, sds) from polish coordinates: k-1 weight logits
    against component 0, k means, k log sds."""
    logits = np.concatenate(([0.0], theta[: k - 1]))
    w = np.exp(logits - logits.max())
    return w / w.sum(), theta[k - 1 : 2 * k - 1], np.exp(theta[2 * k - 1 :])


def _score(theta: np.ndarray, k: int, work: _Workspace):
    """Log-likelihood and its gradient in polish coordinates, from the
    responsibility moments of one E-step; -inf where a weight underflows
    or an sd overflows."""
    w, mu, sd = _unpack(theta, k)
    if not (w.min() > 0.0 and np.isfinite(sd).all()):
        return -np.inf, np.zeros_like(theta)
    ll, bulk, sum_z, sum_z2 = work.log_likelihood_and_moments(w, mu, sd)
    var = sd * sd
    grad = np.concatenate((
        bulk[1:] - bulk.sum() * w[1:],
        (sum_z - mu * bulk) / var,
        (sum_z2 - 2.0 * mu * sum_z + mu * mu * bulk) / var - bulk,
    ))
    return ll, grad


@np.errstate(under="ignore", over="ignore")
def _polish(w, mu, sd, work: _Workspace):
    """Maximize the standardized log-likelihood by L-BFGS-B from a burn-in
    result. Returns the parameters, their log-likelihood, the likelihood
    evaluations used, whether the stopping rule holds at the returned
    point, and whether an sd sits on its floor there."""
    k, n = len(w), len(work.x)
    theta0 = np.concatenate((np.log(w[1:] / w[0]), mu, np.log(sd)))
    lower = np.full(3 * k - 1, -np.inf)
    lower[2 * k - 1 :] = math.log(_SD_FLOOR_FACTOR)

    def objective(theta):
        ll, grad = _score(theta, k, work)
        # where a trial point lies so far out that its arithmetic
        # overflows (a mean whose square is inf), the gradient is not
        # finite and a step along it would be NaN: report the point as
        # infeasible, so that the line search backs away from it
        if not np.isfinite(grad).all():
            return np.inf, np.zeros_like(theta)
        return -ll / n, -grad / n

    start_ll, _ = _score(theta0, k, work)
    result = minimize_lbfgsb(
        objective, theta0, (lower, np.inf),
        maxfun=_MAX_EVALS, gtol=_TOL, ftol=0.0,
    )
    theta = result.x
    ll, grad = _score(theta, k, work)
    if not ll >= start_ll:
        raise RuntimeError(
            f"mixture polish ended at log-likelihood {ll} below its start "
            f"{start_ll}; this is a bug"
        )
    # L-BFGS-B's own stopping measure, recomputed: the largest entry of the
    # projected gradient of -ll/n, where a positive entry counts at most
    # the distance to its lower bound
    g = -grad / n
    projected = np.where(g > 0, np.minimum(theta - lower, g), g)
    converged = float(np.abs(projected).max()) <= _TOL
    floor_hit = bool(np.any(theta[2 * k - 1 :] <= lower[2 * k - 1 :]))
    return (*_unpack(theta, k), ll, result.nfev, converged, floor_hit)


def _fit_k(x: np.ndarray, k: int) -> MixtureFit:
    n = len(x)
    if k == 1:
        # the one-component MLE is the sample mean and MLE sd
        mu = float(x.mean())
        sd = float(x.std())
        ll = float(
            np.sum(-0.5 * (((x - mu) / sd) ** 2 + _LOG_2PI) - math.log(sd))
        )
        return MixtureFit(
            k=1,
            weights=np.array([1.0]),
            means=np.array([mu]),
            sds=np.array([sd]),
            log_likelihood=ll,
            bic=-2.0 * ll + 2.0 * math.log(n),
            n=n,
            converged=True,
            n_iter=1,
            sd_floor_hit=False,
            log_likelihood_path=np.array([ll]),
        )

    center, scale = float(x.mean()), float(x.std())
    z = (x - center) / scale
    z_sorted = np.sort(z)
    work = _Workspace(z, k)
    best = None
    for j in range(_N_RESTARTS):
        exponent = 0.5 + j / (_N_RESTARTS - 1)  # 0.5 .. 1.5, j=4/5 near equal split
        start = _quantile_split_init(z_sorted, k, exponent)
        w, mu, sd, path, floor_hit = _em_run(*start, work)
        # only a finite final log-likelihood can win: a NaN `best` would
        # never be replaced, since no value is > NaN
        if math.isfinite(path[-1]) and (best is None or path[-1] > best[3][-1]):
            best = (w, mu, sd, path, floor_hit)
    if best is None:
        raise ConvergenceError(
            f"every EM restart of the {k}-component mixture ended at a "
            f"log-likelihood that is not finite"
        )

    w, mu, sd, burn_path, burn_floor = best
    w, mu, sd, ll, n_evals, converged, floor_hit = _polish(w, mu, sd, work)
    order = np.argsort(sd, kind="stable")
    # back to the input scale: the density picks up 1/scale per observation
    shift = n * math.log(scale)
    ll -= shift
    return MixtureFit(
        k=k,
        weights=w[order],
        means=center + scale * mu[order],
        sds=scale * sd[order],
        log_likelihood=ll,
        bic=-2.0 * ll + (3 * k - 1) * math.log(n),
        n=n,
        converged=converged,
        n_iter=len(burn_path) + n_evals,
        sd_floor_hit=burn_floor or floor_hit,
        log_likelihood_path=np.append(np.asarray(burn_path) - shift, ll),
    )


def check_k_max(k_max: int) -> None:
    if k_max not in (1, 2, 3):
        raise ValidationError(f"k_max must be 1, 2, or 3, got {k_max}")


def fit_mixture_em(s: Series, k_max: int = 3) -> MixtureFit:
    """Fit mixtures with 1..k_max components and return the BIC minimizer.

    Raises:
        InsufficientDataError: n < 30.
        ValidationError: k_max not in {1, 2, 3}.
        DegenerateVarianceError: constant input.
        ConvergenceError: every EM restart for some k ends at a
            log-likelihood that is not finite.
    """
    check_k_max(k_max)
    n = len(s)
    if n < 30:
        raise InsufficientDataError(f"mixture fit needs n >= 30, got {n}")
    x = s.values
    if np.ptp(x) == 0:
        raise DegenerateVarianceError(f"series {s.label!r} is constant")
    fits = [_fit_k(x, k) for k in range(1, k_max + 1)]
    best = min(fits, key=lambda f: f.bic)  # ties go to the smaller k
    candidates = tuple(
        MixtureCandidate(f.k, f.log_likelihood, f.bic, f.converged, f.n_iter)
        for f in fits
    )
    return replace(best, candidates=candidates)
