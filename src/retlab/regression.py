"""Ordinary least squares for every regression the pipeline runs: the VAR,
the unit-root tests and the factor regressions. `check_full_rank` names
the columns a design cannot identify; `ols` solves the normal equations.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import qr

from .errors import SingularDesignError


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
    r, pivots = qr(design, mode="r", pivoting=True)
    diag = np.abs(np.diag(r))
    tol = diag.max() * max(design.shape) * np.finfo(np.float64).eps
    rank = int(np.sum(diag > tol))
    if rank < design.shape[1]:
        offending = ", ".join(names[i] for i in sorted(pivots[rank:]))
        raise SingularDesignError(f"collinear regressors: {offending}")
