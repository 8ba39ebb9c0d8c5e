"""Ordinary least squares for every regression the pipeline runs: the VAR,
the unit-root tests and the factor regressions. `check_full_rank` names
the columns a design cannot identify; `ols` solves the normal equations.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularDesignError
from .optimize import load_scipy_function

# LAPACK's pivoted QR, loaded from its file: importing `scipy.linalg` would
# run its package init, which imports `numpy.f2py` among others
_dgeqp3 = load_scipy_function("linalg", "_flapack", "dgeqp3")


def ols(design: np.ndarray, target: np.ndarray):
    """Normal-equation OLS of target (rows x equations) on design: inv(X'X),
    the coefficients, the residuals and the residual covariance over
    rows - columns degrees of freedom. Leading axes stack independent
    models, each with the same sums as its own 2-D call.

    Raises:
        numpy.linalg.LinAlgError: some X'X is exactly singular.
    """
    design_t = np.swapaxes(design, -1, -2)
    xtx_inv = np.linalg.inv(design_t @ design)
    beta = xtx_inv @ (design_t @ target)
    resid = design @ beta
    np.subtract(target, resid, out=resid)
    rows, m = design.shape[-2:]
    residual_cov = np.swapaxes(resid, -1, -2) @ resid / (rows - m)
    return xtx_inv, beta, resid, residual_cov


def check_full_rank(design: np.ndarray, names) -> None:
    """Raise SingularDesignError unless a 2-D design has full column rank,
    naming (names[i] for column i) the columns a pivoted QR leaves past
    the rank: the diagonal entries of R above max|R_ii| * max(rows,
    columns) * eps. Full rank holds in any subset of the columns too.
    """
    diag, pivots = _pivoted_r_diagonal(design)
    diag = np.abs(diag)
    tol = diag.max() * max(design.shape) * np.finfo(np.float64).eps
    rank = int(np.sum(diag > tol))
    if rank < design.shape[1]:
        offending = ", ".join(names[i] for i in sorted(pivots[rank:]))
        raise SingularDesignError(f"collinear regressors: {offending}")


def _pivoted_r_diagonal(design: np.ndarray):
    """The diagonal of R and the 0-based column pivots of the pivoted QR
    that `scipy.linalg.qr(design, mode="r", pivoting=True)` computes, with
    the same workspace query, without copying out the whole of R."""
    design = np.asarray_chkfinite(design)
    work = _dgeqp3(design, lwork=-1)[3]
    qr, jpvt, _, _, info = _dgeqp3(design, lwork=int(work[0]))
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK's dgeqp3")
    return np.diag(qr), jpvt - 1
