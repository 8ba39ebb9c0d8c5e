"""L-BFGS-B and Brent's root finder, run from scipy's compiled extensions.

The fitters need two things from `scipy.optimize`: `minimize(...,
method="L-BFGS-B", jac=True)` and `brentq`. Importing `scipy.optimize`
also imports `scipy.sparse`, `spatial`, `fft` and `constants`, which every
command would pay for at start-up. So this module loads the two extensions
those functions end in, `optimize/_lbfgsb` and `optimize/_zeros`, from
their files, and drives them as scipy 1.17 does: the same evaluations, the
same iterates and the same counts, status and message.

The driver calls `setulb`'s C interface, and runs only when `setulb`'s
docstring is that exact signature. Where the extension is missing or has
another interface (an older scipy has a Fortran one), both functions call
`scipy.optimize` itself, imported on first use.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy


def load_scipy_function(subpackage: str, extension: str, name: str):
    """`name` from scipy's compiled `subpackage/extension` module, loaded
    from its file without running `scipy.<subpackage>`'s package init,
    which imports far more than the one extension.

    Raises:
        ImportError: the file or the name is missing.
    """
    where = f"scipy {scipy.__version__}'s {subpackage}/{extension}"
    directory = str(Path(scipy.__file__).parent / subpackage)
    spec = importlib.machinery.PathFinder.find_spec(extension, [directory])
    if spec is None:
        raise ImportError(f"{where} extension is missing")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    try:
        return getattr(module, name)
    except AttributeError:
        raise ImportError(f"{where} has no {name}") from None


_SETULB_SIGNATURE = (
    "setulb(m,x,l,u,nbd,f,g,factr,pgtol,wa,iwa,task,lsave,isave,dsave,"
    "maxls,ln_task)"
)
try:
    _setulb = load_scipy_function("optimize", "_lbfgsb", "setulb")
    _brentq = load_scipy_function("optimize", "_zeros", "_brentq")
except ImportError:
    _setulb = _brentq = None
# True when the functions below drive scipy's extensions, False when they
# call scipy.optimize
EXTENSIONS = _setulb is not None and _setulb.__doc__ == _SETULB_SIGNATURE

_EPS = np.finfo(float).eps
_MAXCOR = 10  # minimize's defaults for L-BFGS-B's memory and line search
_MAXLS = 20
# setulb's task codes, and scipy's texts for them in the result message
_NEW_X, _FG, _CONVERGENCE, _STOP = 1, 3, 4, 5
_STATUS_TEXT = ("START", "NEW_X", "RESTART", "FG", "CONVERGENCE", "STOP",
                "WARNING", "ERROR", "ABNORMAL")
_TASK_TEXT = {
    0: "", 301: "", 302: "",
    401: "NORM OF PROJECTED GRADIENT <= PGTOL",
    402: "RELATIVE REDUCTION OF F <= FACTR*EPSMCH",
    501: "CPU EXCEEDING THE TIME LIMIT",
    502: "TOTAL NO. OF F,G EVALUATIONS EXCEEDS LIMIT",
    503: "PROJECTED GRADIENT IS SUFFICIENTLY SMALL",
    504: "TOTAL NO. OF ITERATIONS REACHED LIMIT",
    505: "CALLBACK REQUESTED HALT",
    601: "ROUNDING ERRORS PREVENT PROGRESS",
    602: "STP = STPMAX",
    603: "STP = STPMIN",
    604: "XTOL TEST SATISFIED",
    701: "NO FEASIBLE SOLUTION",
    702: "FACTR < 0",
    703: "FTOL < 0",
    704: "GTOL < 0",
    705: "XTOL < 0",
    706: "STP < STPMIN",
    707: "STP > STPMAX",
    708: "STPMIN < 0",
    709: "STPMAX < STPMIN",
    710: "INITIAL G >= 0",
    711: "M <= 0",
    712: "N <= 0",
    713: "INVALID NBD",
}
# setulb's bound code, indexed by (has lower bound, has upper bound)
_NBD = np.array([[0, 3], [1, 2]], dtype=np.int32)


@dataclass(frozen=True)
class LbfgsbResult:
    """The fields of `scipy.optimize.OptimizeResult` that the fitters read."""

    x: np.ndarray
    fun: float
    nfev: int
    nit: int
    status: int
    success: bool
    message: str


def minimize_lbfgsb(fun, x0, bounds=None, *, maxiter: int = 15000,
                    maxfun: int = 15000, ftol: float = 2.2204460492503131e-09,
                    gtol: float = 1e-5) -> LbfgsbResult:
    """Minimize `fun`, which returns (value, gradient), by L-BFGS-B from x0.

    The result is `scipy.optimize.minimize(fun, x0, jac=True,
    method="L-BFGS-B", bounds=..., options=...)`'s with the same options,
    bit for bit. `bounds` is None or a pair (lower, upper), each broadcast
    to x0's length, with -inf or inf where a side is open; no lower bound
    may exceed its upper one, and at least one coordinate must be free.
    """
    x0 = np.asarray(x0, dtype=np.float64).ravel()
    if not EXTENSIONS:
        return _scipy_minimize(fun, x0, bounds, maxiter=maxiter,
                               maxfun=maxfun, ftol=ftol, gtol=gtol)
    n = len(x0)
    if bounds is None:
        nbd = np.zeros(n, np.int32)
        low_bnd, upper_bnd = np.zeros(n), np.zeros(n)
    else:
        lower, upper = (np.broadcast_to(np.asarray(b, dtype=np.float64), n)
                        for b in bounds)
        x0 = np.clip(x0, lower, upper)
        has_lower, has_upper = ~np.isinf(lower), ~np.isinf(upper)
        nbd = _NBD[has_lower.astype(int), has_upper.astype(int)]
        low_bnd = np.where(has_lower, lower, 0.0)
        upper_bnd = np.where(has_upper, upper, 0.0)

    # one evaluation at x0, then one more each time setulb asks at a new x;
    # fun gets a copy, so it cannot change the point the cache holds
    x_seen = x0.copy()
    f_seen, g_seen = fun(x_seen.copy())
    nfev, nit = 1, 0
    x = x0.copy()
    f = np.array(0.0)
    g = np.zeros(n)
    m = _MAXCOR
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, np.int32)
    task, ln_task = np.zeros(2, np.int32), np.zeros(2, np.int32)
    lsave, isave = np.zeros(4, np.int32), np.zeros(44, np.int32)
    dsave = np.zeros(29)
    factr = ftol / _EPS
    while True:
        g = g.astype(np.float64)
        _setulb(m, x, low_bnd, upper_bnd, nbd, f, g, factr, gtol, wa,
                iwa, task, lsave, isave, dsave, _MAXLS, ln_task)
        if task[0] == _FG:
            if not np.array_equal(x, x_seen):
                x_seen = x.copy()
                f_seen, g_seen = fun(x_seen.copy())
                nfev += 1
            f, g = f_seen, g_seen
        elif task[0] == _NEW_X:
            # a stop waits for the end of the iteration that passed it
            nit += 1
            if nit >= maxiter:
                task[:] = _STOP, 504
            elif nfev > maxfun:
                task[:] = _STOP, 502
        else:
            break
    if task[0] == _CONVERGENCE:
        status = 0
    elif nfev > maxfun or nit >= maxiter:
        status = 1
    else:
        status = 2
    return LbfgsbResult(
        x=x, fun=f, nfev=nfev, nit=nit, status=status, success=status == 0,
        message=f"{_STATUS_TEXT[task[0]]}: {_TASK_TEXT[task[1]]}",
    )


def _scipy_minimize(fun, x0, bounds, **options) -> LbfgsbResult:
    from scipy.optimize import Bounds, minimize

    res = minimize(
        fun, x0, jac=True, method="L-BFGS-B",
        bounds=None if bounds is None else Bounds(*bounds), options=options,
    )
    return LbfgsbResult(x=res.x, fun=res.fun, nfev=res.nfev, nit=res.nit,
                        status=res.status, success=bool(res.success),
                        message=res.message)


_BRENTQ_MAXITER = 100  # brentq's default


def brentq(f, a: float, b: float, *, xtol: float, rtol: float) -> float:
    """A root of f in [a, b], where f(a) and f(b) differ in sign:
    `scipy.optimize.brentq(f, a, b, xtol=xtol, rtol=rtol)`, bit for bit,
    for xtol > 0 and rtol >= 4 eps, which brentq requires.

    Raises:
        ValueError: f(a) and f(b) have the same sign, or f is NaN at a
            point it is evaluated.
    """
    if not EXTENSIONS:
        from scipy.optimize import brentq as scipy_brentq

        return scipy_brentq(f, a, b, xtol=xtol, rtol=rtol)

    def checked(x):
        fx = f(x)
        if np.isnan(fx):
            raise ValueError(
                f"The function value at x={x} is NaN; solver cannot continue."
            )
        return fx

    return _brentq(checked, a, b, xtol, rtol, _BRENTQ_MAXITER, (), False, True)
