"""The L-BFGS-B and Brent drivers against `scipy.optimize` itself."""

import pickle
import warnings

import numpy as np
import pytest
import scipy
from scipy.optimize import Bounds, minimize
from scipy.optimize import brentq as scipy_brentq

from retlab import optimize
from retlab.distfit import fit_garch11, fit_gpd_pot, fit_mixture_em
from retlab.optimize import brentq, minimize_lbfgsb
from retlab.series import Month, Series, TimeGrid


def scipy_version():
    return tuple(int(part) for part in scipy.__version__.split(".")[:2])


@pytest.fixture(params=["extension", "fallback"])
def path(request, monkeypatch):
    """Run a test on the extension driver and on the scipy.optimize
    fallback; the extension leg skips where the driver is not active."""
    if request.param == "extension" and not optimize.EXTENSIONS:
        pytest.skip("this scipy's L-BFGS-B is not the interface the driver calls")
    if request.param == "fallback":
        monkeypatch.setattr(optimize, "EXTENSIONS", False)
    return request.param


def smooth_problem(seed, n):
    """A seeded smooth objective with its minimum near c: a scaled
    quadratic plus a quartic and a softplus of mixed coordinates."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.5, 5.0, n)
    c = rng.normal(size=n)
    mix = rng.normal(size=(n, n)) / n

    def fun(x):
        r = x - c
        z = mix @ r
        value = float(np.sum(a * r * r) + 0.1 * np.sum(r**4) + np.sum(np.logaddexp(0.0, z)))
        grad = 2.0 * a * r + 0.4 * r**3 + mix.T @ (1.0 / (1.0 + np.exp(-z)))
        return value, grad

    return fun, c, rng


def rosenbrock(x):
    head, tail = x[:-1], x[1:]
    value = float(np.sum(100.0 * (tail - head**2) ** 2 + (1.0 - head) ** 2))
    grad = np.zeros_like(x)
    grad[:-1] = -400.0 * head * (tail - head**2) - 2.0 * (1.0 - head)
    grad[1:] += 200.0 * (tail - head**2)
    return value, grad


def cliff(x):
    # the fitters' answer at an infeasible point: a flat 1e12, which
    # ends the line search abnormally
    if np.abs(x).max() > 2.0:
        return 1e12, np.zeros_like(x)
    return float(np.sum((x - 3.0) ** 2)), 2.0 * (x - 3.0)


def assert_same(ours, theirs):
    assert ours.x.tobytes() == np.asarray(theirs.x, dtype=np.float64).tobytes()
    assert (ours.fun, ours.nfev, ours.nit, ours.status, ours.success, ours.message) == (
        theirs.fun, theirs.nfev, theirs.nit, theirs.status, theirs.success, theirs.message
    )


# option sets of the three fitters, and the stops
OPTIONS = [
    {"maxiter": 400, "ftol": 1e-13, "gtol": 1e-9},  # GARCH
    {"maxiter": 200, "ftol": 1e-14, "gtol": 1e-10},  # GPD
    {"maxfun": 400, "gtol": 1e-8, "ftol": 0.0},  # mixture
    {},
]


class TestMinimizeLbfgsb:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("options", OPTIONS)
    def test_no_bounds(self, path, seed, options):
        fun, c, rng = smooth_problem(seed, 2 + seed % 4)
        x0 = c + rng.normal(scale=3.0, size=len(c))
        ours = minimize_lbfgsb(fun, x0, **options)
        assert_same(ours, minimize(fun, x0, jac=True, method="L-BFGS-B", options=options))

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("options", OPTIONS)
    def test_two_sided_bounds(self, path, seed, options):
        # some boxes leave out c, so some bounds hold at the minimum
        fun, c, rng = smooth_problem(seed, 4)
        lower = c + rng.normal(scale=0.5, size=4) - 0.5
        upper = lower + rng.uniform(0.2, 2.0, size=4)
        x0 = (lower + upper) / 2.0
        ours = minimize_lbfgsb(fun, x0, (lower, upper), **options)
        theirs = minimize(fun, x0, jac=True, method="L-BFGS-B",
                          bounds=list(zip(lower, upper)), options=options)
        assert_same(ours, theirs)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("options", OPTIONS)
    def test_lower_bounds_only(self, path, seed, options):
        fun, c, rng = smooth_problem(seed, 5)
        lower = np.full(5, -np.inf)
        lower[2:] = c[2:] + rng.uniform(-1.0, 1.0, size=3)
        x0 = np.maximum(c + rng.normal(size=5), lower)
        ours = minimize_lbfgsb(fun, x0, (lower, np.inf), **options)
        theirs = minimize(fun, x0, jac=True, method="L-BFGS-B",
                          bounds=Bounds(lower, np.inf), options=options)
        assert_same(ours, theirs)

    @pytest.mark.parametrize("seed", range(4))
    def test_start_outside_the_bounds_is_clipped(self, path, seed):
        fun, c, rng = smooth_problem(seed, 3)
        lower, upper = c - 1.0, c + 1.0
        x0 = c + np.array([5.0, -5.0, 0.5])
        ours = minimize_lbfgsb(fun, x0, (lower, upper))
        theirs = minimize(fun, x0, jac=True, method="L-BFGS-B",
                          bounds=list(zip(lower, upper)))
        assert_same(ours, theirs)

    @pytest.mark.parametrize("fun, options, status", [
        (rosenbrock, {"maxiter": 3}, 1),
        (rosenbrock, {"maxfun": 5}, 1),
        (rosenbrock, {"ftol": 0.0, "gtol": 0.0}, 0),
        (rosenbrock, {"maxiter": 400, "ftol": 1e-13, "gtol": 1e-9}, 0),
        (cliff, {}, 2),
    ])
    def test_stops(self, path, fun, options, status):
        x0 = np.array([-1.2, 1.0, -0.5, 0.8])
        ours = minimize_lbfgsb(fun, x0, **options)
        assert_same(ours, minimize(fun, x0, jac=True, method="L-BFGS-B", options=options))
        assert ours.status == status

    def test_a_stop_holds_until_its_iteration_ends(self, path):
        ours = minimize_lbfgsb(rosenbrock, np.array([-1.2, 1.0]), maxfun=5)
        assert ours.nfev > 5
        assert "EVALUATIONS EXCEEDS LIMIT" in ours.message


def garch_mixture_series(seed, n=600):
    """GARCH(1,1) returns with fat-tailed normal-mixture innovations."""
    rng = np.random.default_rng(seed)
    shocks = np.where(rng.random(n) < 0.9, rng.normal(size=n), rng.normal(scale=3.0, size=n))
    values, h = np.empty(n), 2.0
    for t in range(n):
        values[t] = 0.5 + np.sqrt(h) * shocks[t]
        h = 0.2 + 0.1 * (values[t] - 0.5) ** 2 + 0.8 * h
    return Series("x", TimeGrid(Month(1970, 1), n), values)


class TestFitters:
    @pytest.mark.parametrize("seed", range(3))
    def test_fits_are_the_same_on_both_paths(self, monkeypatch, seed):
        if not optimize.EXTENSIONS:
            pytest.skip("only the fallback runs with this scipy")
        s = garch_mixture_series(seed)
        losses = Series("loss", s.grid, -s.values)

        def fits():
            # the warnings too: a GARCH warning quotes the optimizer's message
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                fitted = (fit_garch11(s), fit_gpd_pot(losses, 0.9), fit_mixture_em(s))
            return pickle.dumps(fitted), [str(w.message) for w in caught]

        driven = fits()
        monkeypatch.setattr(optimize, "EXTENSIONS", False)
        assert fits() == driven


TOLERANCES = {"xtol": 1e-12, "rtol": 1e-12}


class TestBrentq:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("tolerances", [
        {"xtol": 2e-12, "rtol": 4 * np.finfo(float).eps},  # brentq's defaults
        {"xtol": 1e-12, "rtol": 1e-12},
        {"xtol": 1e-4, "rtol": 1e-10},
    ])
    def test_root_is_bit_equal_to_scipy(self, path, seed, tolerances):
        rng = np.random.default_rng(seed)
        root, scale = rng.normal(scale=10.0), rng.uniform(0.1, 10.0)

        def f(v):
            return float(np.tanh((v - root) / scale) + 0.01 * (v - root) ** 3 - 0.3)

        a, b = root - 50.0, root + 50.0
        assert brentq(f, a, b, **tolerances) == scipy_brentq(f, a, b, **tolerances)

    def test_nan_function_value_raises(self, path):
        with pytest.raises(ValueError, match="NaN"):
            brentq(lambda v: np.nan if v > 0.5 else v - 0.75, 0.0, 1.0, **TOLERANCES)

    def test_same_signs_raise(self, path):
        with pytest.raises(ValueError):
            brentq(lambda v: v * v + 1.0, -1.0, 1.0, **TOLERANCES)


def test_extension_path_is_active_on_scipy_1_17_and_later():
    # a new scipy that changes setulb's interface falls back to
    # scipy.optimize, which every command would then import at start-up
    if scipy_version() < (1, 17):
        pytest.skip(f"scipy {scipy.__version__} predates the driven interface")
    assert optimize.EXTENSIONS
