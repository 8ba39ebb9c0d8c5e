"""Gaussian mixture fitting by EM with BIC order selection.

Restarts are deterministic: ten quantile-split initializations per component
count, each burned in for a few EM iterations, then the best is run to full
convergence. No randomness enters the fit, so repeated runs are bit
identical. A component-sd floor of 1e-4 times the sample sd prevents
likelihood blowup from a component collapsing onto a single point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp, ndtr

from ..errors import DegenerateVarianceError, InsufficientDataError, ValidationError
from ..series import ReturnSeries

_LOG_2PI = math.log(2.0 * math.pi)

# EM controls: convergence is a log-likelihood change below _TOL; ten
# deterministic restarts each run _BURN_ITERS before the best continues
_TOL = 1e-8
_MAX_ITERS = 2000
_N_RESTARTS = 10
_BURN_ITERS = 15
_SD_FLOOR_FACTOR = 1e-4


@dataclass(frozen=True)
class MixtureFit:
    """A fitted k-component Gaussian mixture on the input scale.

    Components are sorted by ascending sd. `bic` is
    -2*log_likelihood + (3k-1)*ln(n): k means, k sds, k-1 free weights.

    Attributes:
        converged: full EM run met the tolerance within its iteration budget.
        sd_floor_hit: the component-sd floor clamped at least one update
            (log-likelihood monotonicity is not guaranteed on such steps).
        log_likelihood_path: per-iteration log-likelihood of the final
            (post-burn-in) EM run, for monotonicity audits.
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
    comp = -0.5 * (z**2 + _LOG_2PI) - np.log(sds)[None, :]
    return logsumexp(comp + np.log(weights)[None, :], axis=1)


def mixture_pdf(fit: MixtureFit, x) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    return np.exp(mixture_logpdf(x, fit.weights, fit.means, fit.sds))


def mixture_cdf(fit: MixtureFit, x) -> np.ndarray:
    """Mixture CDF: the weight-averaged component normal CDFs."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    z = (x[:, None] - fit.means[None, :]) / fit.sds[None, :]
    return ndtr(z) @ fit.weights


def _quantile_split_init(
    x_sorted: np.ndarray, k: int, exponent: float, sd_floor: float
):
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
        sd[m] = max(float(piece.std()), sd_floor)
    return w, mu, sd


class _Workspace:
    """Preallocated per-iteration buffers, reused across restarts.

    The E-step runs in (k, n) layout so every heavy pass is over a
    contiguous row. Each component's log density is the quadratic
    a*x^2 + b*x + c, so the whole (k, n) table is one small matrix
    product against a fixed (3, n) design, and the M-step sufficient
    statistics (sum r, sum r*x, sum r*x^2) come from one (k, n) @ (n, 3)
    product on the other side.

    The usual logsumexp max-shift is skipped on the fast path: densities
    are exponentiated directly, and only if some point underflows in
    every component at once (mixture sum exactly 0) does the shifted
    recomputation run. The shift changes nothing when no sum underflows,
    because exp underflow to 0 happens componentwise either way.
    """

    def __init__(self, x: np.ndarray, k: int):
        n = len(x)
        self.x = x
        self.x2 = x * x
        self.design = np.empty((3, n))
        self.design[0] = self.x2
        self.design[1] = x
        self.design[2] = 1.0
        self.quad = np.empty((k, 3))
        self.buf = np.empty((k, n))
        self.mx = np.empty(n)
        self.s = np.empty(n)
        self.scratch = np.empty(n)
        self.targets = np.empty((3, n))
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
        np.log(s, out=self.scratch)
        ll = float(self.scratch.sum()) + shift

        np.reciprocal(s, out=self.scratch)
        targets = self.targets
        np.copyto(targets[0], self.scratch)
        np.multiply(self.x, self.scratch, out=targets[1])
        np.multiply(self.x2, self.scratch, out=targets[2])
        stats = self.stats
        np.matmul(buf, targets.T, out=stats)
        return ll, stats[:, 0], stats[:, 1], stats[:, 2]


# densities far from a component underflow to 0 by design; the state is
# entered once per run, not per E-step, as entering it costs about 2 us
@np.errstate(under="ignore")
def _em_run(x, w, mu, sd, max_iter, sd_floor, work: _Workspace):
    """EM iterations from one start. Returns updated parameters, the
    log-likelihood path, whether tolerance was met, and whether the sd
    floor clamped any update."""
    path = []
    floor_hit = False
    converged = False
    prev_ll = -np.inf
    for _ in range(max_iter):
        ll, bulk, sum_x, sum_x2 = work.log_likelihood_and_moments(w, mu, sd)
        path.append(ll)
        if ll - prev_ll < _TOL and len(path) > 1:
            if ll - prev_ll < -1e-7 * max(1.0, abs(ll)) and not floor_hit:
                raise RuntimeError(
                    f"EM log-likelihood decreased {prev_ll} -> {ll} without "
                    f"a floored sd; this is a bug"
                )
            converged = True
            break
        prev_ll = ll
        bulk = np.maximum(bulk, 1e-12)
        w = bulk / bulk.sum()
        mu = sum_x / bulk
        # sum r*(x - mu)^2 expanded around the freshly updated mean
        var = sum_x2 / bulk - mu * mu
        new_sd = np.sqrt(np.maximum(var, 0.0))
        if (new_sd < sd_floor).any():
            floor_hit = True
            new_sd = np.maximum(new_sd, sd_floor)
        sd = new_sd
    if not converged:
        # budget exhausted right after an M-step: record the final
        # parameters' likelihood so the returned pair is consistent
        final_ll, _, _, _ = work.log_likelihood_and_moments(w, mu, sd)
        path.append(final_ll)
    return w, mu, sd, path, converged, floor_hit


def _fit_k(x: np.ndarray, k: int, n: int) -> MixtureFit:
    sample_sd_mle = float(x.std())
    sd_floor = _SD_FLOOR_FACTOR * sample_sd_mle
    if k == 1:
        # EM's fixed point for one component is the plain Gaussian MLE
        mu = float(x.mean())
        sd = max(sample_sd_mle, sd_floor)
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

    x_sorted = np.sort(x)
    work = _Workspace(x, k)
    best = None
    for j in range(_N_RESTARTS):
        exponent = 0.5 + j / (_N_RESTARTS - 1)  # 0.5 .. 1.5, j=4/5 near equal split
        w0, mu0, sd0 = _quantile_split_init(x_sorted, k, exponent, sd_floor)
        w1, mu1, sd1, path, _, fl = _em_run(
            x, w0, mu0, sd0, _BURN_ITERS, sd_floor, work
        )
        if best is None or path[-1] > best[0]:
            best = (path[-1], w1, mu1, sd1, len(path), fl)

    _, w, mu, sd, burn_iters, burn_floor = best
    w, mu, sd, path, converged, floor_hit = _em_run(
        x, w, mu, sd, _MAX_ITERS - _BURN_ITERS, sd_floor, work
    )
    order = np.argsort(sd, kind="stable")
    w, mu, sd = w[order], mu[order], sd[order]
    ll = path[-1]
    return MixtureFit(
        k=k,
        weights=w,
        means=mu,
        sds=sd,
        log_likelihood=ll,
        bic=-2.0 * ll + (3 * k - 1) * math.log(n),
        n=n,
        converged=converged,
        n_iter=burn_iters + len(path),
        sd_floor_hit=floor_hit or burn_floor,
        log_likelihood_path=np.asarray(path),
    )


def fit_mixture_em(s: ReturnSeries, k_max: int = 3) -> MixtureFit:
    """Fit mixtures with 1..k_max components and return the BIC minimizer.

    Raises:
        InsufficientDataError: n < 30.
        ValidationError: k_max not in {1, 2, 3}.
        DegenerateVarianceError: constant input.
    """
    if k_max not in (1, 2, 3):
        raise ValidationError(f"k_max must be 1, 2, or 3, got {k_max}")
    n = len(s)
    if n < 30:
        raise InsufficientDataError(f"mixture fit needs n >= 30, got {n}")
    x = s.values
    if float(np.var(x)) <= 0:
        raise DegenerateVarianceError(f"series {s.label!r} is constant")
    fits = [_fit_k(x, k, n) for k in range(1, k_max + 1)]
    best = min(fits, key=lambda f: f.bic)  # ties go to the smaller k
    return best
