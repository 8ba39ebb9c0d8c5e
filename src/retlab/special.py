"""The special functions retlab calls, without importing `scipy.special`.

The package init of `scipy.special` (like that of `scipy.linalg`) imports
`scipy._lib._array_api`, which imports `numpy.f2py` among others; that
init was most of a command's start-up time and memory. So the kernels are
loaded from scipy's extension files, as `retlab.optimize` loads L-BFGS-B:

- `ndtr` is `special/_special_ufuncs.ndtr`, the ufunc `scipy.special`
  exports;
- `chdtrc(df, x)` is `_special_ufuncs.gammaincc(df / 2, x / 2)`, the
  expression scipy's `chdtrc` evaluates for x >= 0;
- `fdtrc` calls the C kernel behind scipy's `fdtrc` ufunc, which
  `special/_ufuncs_cxx` exports as `_export_f_sf_double`.

Where that file or kernel is missing (older scipy), the three come from
`scipy.special` itself, imported with this module, before any job forks.
`ndtri` is retlab's own on every scipy: Cephes' `ndtri` as scipy's xsf
has it, which gives scipy 1.17's bits.
"""

from __future__ import annotations

import ctypes
import math

import numpy as np

from .optimize import load_scipy_function

try:
    _ndtr = load_scipy_function("special", "_special_ufuncs", "ndtr")
    _gammaincc = load_scipy_function("special", "_special_ufuncs", "gammaincc")
    _capsule = load_scipy_function("special", "_ufuncs_cxx", "__pyx_capi__")[
        "_export_f_sf_double"
    ]
    # the capsule points at the variable that holds the kernel's address
    _capsule_pointer = ctypes.PYFUNCTYPE(
        ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p
    )(("PyCapsule_GetPointer", ctypes.pythonapi))
    _f_sf = ctypes.CFUNCTYPE(
        ctypes.c_double, ctypes.c_double, ctypes.c_double, ctypes.c_double
    )(ctypes.c_void_p.from_address(_capsule_pointer(_capsule, b"void *")).value)
except (ImportError, KeyError, ValueError):  # ValueError: another capsule name
    _f_sf = None
# True when ndtr, chdtrc and fdtrc run scipy's extension kernels, False
# when they call scipy.special. The kernel must be F's survival function
# with (dfn, dfd, x) in that order: F(2, 4) has survival (1 + x / 2)^-2.
EXTENSIONS = _f_sf is not None and math.isclose(
    _f_sf(2.0, 4.0, 1.0), 4.0 / 9.0, rel_tol=1e-12
)
if not EXTENSIONS:
    # imported before any fork, so that no forked job imports it
    import scipy.special  # noqa: F401


def ndtr(x):
    """The standard normal CDF: `scipy.special.ndtr`."""
    if not EXTENSIONS:
        from scipy.special import ndtr as _scipy_ndtr

        return _scipy_ndtr(x)
    return _ndtr(x)


def chdtrc(df, x):
    """The chi-square survival function at x >= 0 with df degrees of
    freedom: `scipy.special.chdtrc`."""
    if not EXTENSIONS:
        from scipy.special import chdtrc as _scipy_chdtrc

        return _scipy_chdtrc(df, x)
    return _gammaincc(df / 2.0, x / 2.0)


def fdtrc(dfn: float, dfd: float, x) -> np.ndarray:
    """The F(dfn, dfd) survival function at each entry of a 1-d array x:
    `scipy.special.fdtrc`."""
    if not EXTENSIONS:
        from scipy.special import fdtrc as _scipy_fdtrc

        return _scipy_fdtrc(dfn, dfd, x)
    return np.array([_f_sf(dfn, dfd, value) for value in np.asarray(x, np.float64).tolist()])


# Cephes' ndtri coefficients: P0/Q0 on the central branch, P1/Q1 and P2/Q2
# on the tails for sqrt(-2 log y) below and from 8
_S2PI = 2.50662827463100050242E0
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1,
       -5.66762857469070293439E1, 1.39312609387279679503E1,
       -1.23916583867381258016E0)
_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0,
       8.63602421390890590575E1, -2.25462687854119370527E2,
       2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1,
       5.71628192246421288162E1, 4.40805073893200834700E1,
       1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2,
       -8.57456785154685413611E-4)
_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1,
       4.13172038254672030440E1, 1.50425385692907503408E1,
       2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0,
       3.93881025292474443415E0, 1.33303460815807542389E0,
       2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6,
       6.23974539184983293730E-9)
_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0,
       1.37702099489081330271E0, 2.16236993594496635890E-1,
       1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)


def _polevl(x: float, coef) -> float:
    value = coef[0]
    for c in coef[1:]:
        value = value * x + c
    return value


def _p1evl(x: float, coef) -> float:
    # a leading coefficient of 1, not stored
    value = x + coef[0]
    for c in coef[1:]:
        value = value * x + c
    return value


def ndtri(y0: float) -> np.float64:
    """The standard normal quantile at y0: `scipy.special.ndtri`, bit for
    bit, computed as Cephes does; NaN outside [0, 1]."""
    y0 = float(y0)
    if y0 == 0.0:
        return np.float64(-np.inf)
    if y0 == 1.0:
        return np.float64(np.inf)
    if not 0.0 < y0 < 1.0:
        return np.float64(np.nan)
    negate = True
    y = y0
    if y > 1.0 - _EXP_M2:
        y = 1.0 - y
        negate = False
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))
        return np.float64(x * _S2PI)
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:  # y > exp(-32)
        x1 = z * _polevl(z, _P1) / _p1evl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _p1evl(z, _Q2)
    x = x0 - x1
    return np.float64(-x if negate else x)

