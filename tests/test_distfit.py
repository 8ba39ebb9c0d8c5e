"""Mixture EM, GPD tail, GARCH(1,1), and ARCH-LM fitting tests."""

import math
import pickle
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.signal import lfilter
from scipy.stats import chi2

from retlab.distfit import (
    ArchLmResult,
    arch_lm_test,
    fit_garch11,
    fit_gpd_pot,
    fit_mixture_em,
    garch11_loglike,
    garch11_variance_path,
    gpd_loglike,
    mixture_cdf,
    mixture_pdf,
)
from retlab.errors import (
    ConvergenceError,
    DegenerateVarianceError,
    InsufficientDataError,
    InsufficientTailError,
    ValidationError,
)
from retlab.series import Month, ReturnSeries, TimeGrid
from retlab.synth import GeneratorSpec, generate


def series_of(values, start="2000-01", label="x"):
    values = np.asarray(values, dtype=float)
    return ReturnSeries(label, TimeGrid(Month.parse(start), len(values)), values)


def mixture_sample(seed, n=20_000, weights=(0.9, 0.1), means=(0.0, 0.0), sds=(1.0, 5.0)):
    spec = GeneratorSpec(
        kind="mixture",
        n=n,
        seed=seed,
        parameters={"weights": list(weights), "means": list(means), "sds": list(sds)},
    )
    return generate(spec)


class TestMixtureEm:
    def test_single_component_is_exact_sample_mle(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(500) * 2.0 + 0.3
        fit = fit_mixture_em(series_of(x), k_max=1)
        assert fit.k == 1
        assert fit.weights[0] == 1.0
        assert fit.means[0] == pytest.approx(x.mean(), abs=1e-12)
        # MLE sd uses the n denominator
        assert fit.sds[0] == pytest.approx(x.std(), abs=1e-12)
        expected_ll = float(
            np.sum(-0.5 * (np.log(2 * np.pi) + 2 * np.log(fit.sds[0]))
                   - 0.5 * ((x - fit.means[0]) / fit.sds[0]) ** 2)
        )
        assert fit.log_likelihood == pytest.approx(expected_ll, rel=1e-12)

    def test_two_component_recovery(self):
        s = mixture_sample(seed=20260401)
        fit = fit_mixture_em(s, k_max=2)
        assert fit.k == 2
        assert fit.converged
        # components come back sorted by sd, so index 0 is the narrow one
        assert abs(fit.weights[0] - 0.9) < 0.03
        assert abs(fit.sds[0] - 1.0) / 1.0 < 0.08
        assert abs(fit.sds[1] - 5.0) / 5.0 < 0.08
        assert abs(fit.means[0]) < 0.15
        assert abs(fit.means[1]) < 0.6

    def test_bic_prefers_two_components_for_mixture_data(self):
        hits = 0
        for seed in range(5):
            fit = fit_mixture_em(mixture_sample(seed=3000 + seed), k_max=3)
            hits += fit.k == 2
        assert hits >= 4, f"BIC picked k=2 for {hits}/5 mixture samples"

    def test_bic_prefers_one_component_for_gaussian_data(self):
        hits = 0
        for seed in range(5):
            rng = np.random.default_rng(4000 + seed)
            fit = fit_mixture_em(series_of(rng.standard_normal(5000)), k_max=3)
            hits += fit.k == 1
        assert hits >= 4, f"BIC picked k=1 for {hits}/5 Gaussian samples"

    def test_density_integrates_to_one(self):
        fit = fit_mixture_em(mixture_sample(seed=11, n=2000), k_max=2)
        lo = float(np.min(fit.means - 12 * fit.sds))
        hi = float(np.max(fit.means + 12 * fit.sds))
        total, _ = quad(lambda t: float(mixture_pdf(fit, t)[0]), lo, hi, limit=200)
        assert abs(total - 1.0) < 1e-6

    def test_cdf_monotone_and_normalized(self):
        fit = fit_mixture_em(mixture_sample(seed=12, n=2000), k_max=2)
        grid = np.linspace(-60.0, 60.0, 4001)
        c = mixture_cdf(fit, grid)
        assert np.all(np.diff(c) >= 0)
        assert c[0] < 1e-12 and c[-1] > 1 - 1e-12

    def test_loglikelihood_path_is_monotone(self):
        fit = fit_mixture_em(mixture_sample(seed=13, n=4000), k_max=2)
        if not fit.sd_floor_hit:
            path = fit.log_likelihood_path
            floor = -1e-7 * max(1.0, abs(path[-1]))
            assert np.all(np.diff(path) >= floor)
        assert fit.log_likelihood == pytest.approx(fit.log_likelihood_path[-1])

    def test_bic_matches_definition(self):
        fit = fit_mixture_em(mixture_sample(seed=14, n=1000), k_max=2)
        expected = -2.0 * fit.log_likelihood + (3 * fit.k - 1) * math.log(fit.n)
        assert fit.bic == pytest.approx(expected, abs=1e-9)

    def test_repeated_fit_is_bit_identical(self):
        s = mixture_sample(seed=15, n=3000)
        a = fit_mixture_em(s, k_max=3)
        b = fit_mixture_em(s, k_max=3)
        assert a.k == b.k
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.sds, b.sds)
        assert a.log_likelihood == b.log_likelihood

    def test_k_max_validation(self):
        s = mixture_sample(seed=16, n=100)
        with pytest.raises(ValidationError):
            fit_mixture_em(s, k_max=0)
        with pytest.raises(ValidationError):
            fit_mixture_em(s, k_max=4)

    def test_too_few_observations(self):
        with pytest.raises(InsufficientDataError):
            fit_mixture_em(series_of(np.linspace(-1, 1, 29)), k_max=2)

    def test_constant_series_rejected(self):
        with pytest.raises(DegenerateVarianceError, match="series 'x' is constant"):
            fit_mixture_em(series_of(np.full(200, 1.0)))

    def test_constant_series_without_exact_mean_rejected(self):
        # 2.7 does not survive mean-and-subtract: np.var gives about 2e-31
        with pytest.raises(DegenerateVarianceError, match="series 'x' is constant"):
            fit_mixture_em(series_of(np.full(360, 2.7)))

    @pytest.mark.parametrize("seed", [13, 17, 19])
    def test_polish_does_not_lose_to_the_burn_in(self, seed):
        from retlab.distfit.mixture import _fit_k

        x = mixture_sample(seed=seed, n=4000).values
        for k in (2, 3):
            fit = _fit_k(x, k)
            path = fit.log_likelihood_path
            # the path is the best start's burn-in, then the polished value
            assert path[-1] >= path[-2], f"k={k}: polish {path[-1]} < {path[-2]}"
            assert fit.log_likelihood == path[-1]

    def test_converged_means_small_projected_gradient(self):
        from scipy.special import logsumexp

        from retlab.distfit.mixture import _SD_FLOOR_FACTOR, _TOL, _fit_k

        checked = 0
        for seed in (13, 17, 19):
            x = mixture_sample(seed=seed, n=4000).values
            n = len(x)
            z = (x - x.mean()) / x.std()
            for k in (2, 3):
                fit = _fit_k(x, k)
                if not fit.converged:
                    continue
                # recompute the gradient of -ll/n in the polish coordinates
                # (weight logits, means, log sds) on the standardized data
                w = fit.weights
                mu = (fit.means - x.mean()) / x.std()
                sd = fit.sds / x.std()
                logp = -0.5 * (((z[:, None] - mu) / sd) ** 2 + math.log(2 * math.pi))
                logp += np.log(w) - np.log(sd)
                r = np.exp(logp - logsumexp(logp, axis=1)[:, None])
                bulk, sum_z, sum_z2 = r.sum(axis=0), r.T @ z, r.T @ (z * z)
                g_logit = -(bulk - n * w) / n
                g_mean = -(sum_z - mu * bulk) / sd**2 / n
                g_log_sd = -((sum_z2 - 2 * mu * sum_z + mu * mu * bulk) / sd**2 - bulk) / n
                # a log sd on its floor counts only if descent would lower it
                on_floor = np.log(sd) <= math.log(_SD_FLOOR_FACTOR) + 1e-12
                g_log_sd = np.where(on_floor & (g_log_sd > 0), 0.0, g_log_sd)
                rest = max(np.abs(g_mean).max(), np.abs(g_log_sd).max())
                # the component whose logit is pinned at 0 has no entry; it
                # is not known after the sort by sd, so let the rule hold
                # with one logit entry left out
                logit_norm = np.sort(np.abs(g_logit))[-2]
                assert max(rest, logit_norm) <= _TOL * (1 + 1e-6), (
                    f"seed {seed} k={k}: projected gradient {max(rest, logit_norm)}"
                )
                checked += 1
        assert checked >= 4, f"only {checked} of 6 fits converged"

    @pytest.mark.parametrize("c", [1e-3, 1.0, 1e3])
    def test_rescaled_data_rescale_the_fit(self, c):
        # sds 1e-3 and 5e-3 keep c*x above -100 % for every c here
        x = mixture_sample(seed=18, n=4000, sds=(1e-3, 5e-3)).values
        base = fit_mixture_em(series_of(x), k_max=3)
        fit = fit_mixture_em(series_of(c * x), k_max=3)
        assert fit.k == base.k == 2
        np.testing.assert_allclose(fit.weights, base.weights, rtol=1e-6)
        np.testing.assert_allclose(fit.means, c * base.means, rtol=1e-6)
        np.testing.assert_allclose(fit.sds, c * base.sds, rtol=1e-6)

    def test_candidates_list_every_k(self):
        fit = fit_mixture_em(mixture_sample(seed=13, n=4000), k_max=3)
        assert [c.k for c in fit.candidates] == [1, 2, 3]
        picked = fit.candidates[fit.k - 1]
        assert (picked.log_likelihood, picked.bic, picked.converged, picked.n_iter) == (
            fit.log_likelihood, fit.bic, fit.converged, fit.n_iter
        )
        assert min(fit.candidates, key=lambda c: c.bic) is picked

    @staticmethod
    def first_restarts_end_at(monkeypatch, final, count):
        """Make the first `count` EM restarts end at log-likelihood `final`
        with NaN parameters, as an E-step that overflowed would."""
        from retlab.distfit import mixture

        real, calls = mixture._em_run, []

        def em_run(*args):
            w, mu, sd, path, floor_hit = real(*args)
            calls.append(None)
            if len(calls) > count:
                return w, mu, sd, path, floor_hit
            nan = np.full_like(w, np.nan)
            return nan, nan, nan, path[:-1] + [final], floor_hit

        monkeypatch.setattr(mixture, "_em_run", em_run)

    def test_nan_first_restart_does_not_become_the_fit(self, monkeypatch):
        s = mixture_sample(seed=13, n=2000)
        # a first restart that loses to every other one: the fit is the
        # best of the later restarts
        with monkeypatch.context() as patch:
            self.first_restarts_end_at(patch, -1e300, 1)
            losing = fit_mixture_em(s, k_max=2)
        self.first_restarts_end_at(monkeypatch, np.nan, 1)
        fit = fit_mixture_em(s, k_max=2)
        assert fit.k == 2
        assert pickle.dumps(fit) == pickle.dumps(losing)

    def test_no_finite_restart_is_a_convergence_error(self, monkeypatch):
        self.first_restarts_end_at(monkeypatch, np.nan, 10**6)
        with pytest.raises(ConvergenceError, match="2-component"):
            fit_mixture_em(mixture_sample(seed=13, n=2000), k_max=2)

    # the E-step overflows on this series (RuntimeWarnings from numpy)
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_polish_backs_away_from_an_overflowing_e_step(self):
        # a generalized-Pareto tail whose first EM restart goes NaN for
        # k = 2 and 3, and whose k = 2 polish meets E-step moments that
        # overflow: every k must still end at a finite log-likelihood
        law = {"shape": 0.3, "scale": 0.1, "rate": 0.10, "threshold": 0.5}
        losses = generate(GeneratorSpec("gpd-tail", 20_000, 2925513652634083163, law))
        fit = fit_mixture_em(losses, k_max=3)
        assert all(math.isfinite(c.log_likelihood) for c in fit.candidates)
        assert fit.k == 3

    def test_estep_matches_logsumexp_reference(self):
        from scipy.special import logsumexp

        from retlab.distfit.mixture import _Workspace

        rng = np.random.default_rng(21)
        w = np.array([0.5, 0.3, 0.2])
        mu = np.array([-1.0, 0.0, 2.0])
        sd = np.array([0.7, 1.0, 3.0])
        for tag, x in [
            ("plain", rng.normal(0.0, 2.0, 500)),
            # the 1e6 outlier underflows every component's density at
            # once, forcing the shifted recomputation branch
            ("outlier", np.append(rng.normal(0.0, 2.0, 500), 1.0e6)),
        ]:
            work = _Workspace(x, 3)
            ll, bulk, sum_x, sum_x2 = work.log_likelihood_and_moments(w, mu, sd)
            z = (x[:, None] - mu[None, :]) / sd[None, :]
            logp = -0.5 * (z**2 + math.log(2 * math.pi)) - np.log(sd) + np.log(w)
            expected_ll = float(logsumexp(logp, axis=1).sum())
            assert math.isfinite(ll), f"{tag}: non-finite log-likelihood"
            assert ll == pytest.approx(expected_ll, rel=1e-12), f"{tag} ll"
            r = np.exp(logp - logsumexp(logp, axis=1)[:, None])
            assert np.allclose(bulk, r.sum(axis=0), rtol=1e-9), f"{tag} bulk"
            assert np.allclose(sum_x, r.T @ x, rtol=1e-9, atol=1e-12), f"{tag} sum_x"
            assert np.allclose(sum_x2, r.T @ (x * x), rtol=1e-9), f"{tag} sum_x2"


def gpd_tail_sample(seed, n=20_000, shape=0.3, scale=2.0, rate=0.10, threshold=5.0):
    spec = GeneratorSpec(
        kind="gpd-tail",
        n=n,
        seed=seed,
        parameters={
            "threshold": threshold,
            "shape": shape,
            "scale": scale,
            "rate": rate,
        },
    )
    return generate(spec)


class TestGpdFit:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        u = rng.uniform(size=400)
        y = (2.0 / 0.3) * ((1 - u) ** -0.3 - 1)  # GPD(xi=0.3, beta=2) draws
        xi0, beta0 = 0.25, 1.8
        _, grad = gpd_loglike(xi0, beta0, y)
        step = 1e-5
        for i, (dxi, dbeta) in enumerate(((step, 0.0), (0.0, step))):
            up, _ = gpd_loglike(xi0 + dxi, beta0 + dbeta, y)
            dn, _ = gpd_loglike(xi0 - dxi, beta0 - dbeta, y)
            fd = (up - dn) / (2 * step)
            assert abs(fd - grad[i]) <= 1e-4 * max(1.0, abs(grad[i])), (
                f"component {i}: fd={fd}, analytic={grad[i]}"
            )

    def test_loglike_continuous_across_small_shape_branch(self):
        rng = np.random.default_rng(22)
        y = rng.exponential(2.0, 300)
        below, _ = gpd_loglike(0.9999e-5, 2.0, y)
        above, _ = gpd_loglike(1.0001e-5, 2.0, y)
        assert abs(below - above) < 1e-6 * max(1.0, abs(below))

    def test_exponential_tail_gives_near_zero_shape(self):
        rng = np.random.default_rng(23)
        losses = series_of(rng.exponential(2.0, 20_000))
        fit = fit_gpd_pot(losses, threshold_quantile=0.90)
        assert fit.n_exceedances == pytest.approx(2000, abs=5)
        assert abs(fit.shape_xi) < 0.05
        assert abs(fit.scale_beta - 2.0) < 0.2
        assert fit.score_norm < 1e-5
        assert not fit.infinite_mean

    def test_heavy_tail_shape_recovery(self):
        fit = fit_gpd_pot(gpd_tail_sample(seed=24), threshold_quantile=0.90)
        assert abs(fit.shape_xi - 0.3) < 0.08
        assert abs(fit.scale_beta - 2.0) / 2.0 < 0.15
        assert fit.score_norm < 1e-5

    def test_shape_free_of_the_data_scale(self):
        # criterion 2's GPD-tail law; at 1e-9 an absolute score tolerance
        # used to reject this fit
        s = gpd_tail_sample(seed=43, scale=1.0)
        fits = {c: fit_gpd_pot(series_of(c * s.values)) for c in (1.0, 1e-3, 1e-9)}
        for c, fit in fits.items():
            assert fit.shape_xi == pytest.approx(fits[1.0].shape_xi, rel=1e-9), c
            assert fit.scale_beta == pytest.approx(c * fits[1.0].scale_beta, rel=1e-9), c

    def test_shape_stable_across_thresholds(self):
        s = gpd_tail_sample(seed=25, n=40_000)
        lo = fit_gpd_pot(s, threshold_quantile=0.90)
        hi = fit_gpd_pot(s, threshold_quantile=0.95)
        assert abs(lo.shape_xi - hi.shape_xi) < 0.10
        assert hi.threshold_u > lo.threshold_u

    def test_exceedance_rate_and_threshold(self):
        rng = np.random.default_rng(26)
        losses = series_of(rng.exponential(1.0, 5000))
        fit = fit_gpd_pot(losses, threshold_quantile=0.95)
        assert fit.threshold_u == pytest.approx(np.quantile(losses.values, 0.95))
        assert fit.exceedance_rate == pytest.approx(
            fit.n_exceedances / 5000, abs=1e-12
        )

    def test_infinite_mean_flagged_with_warning(self):
        rng = np.random.default_rng(27)
        u = rng.uniform(size=6000)
        y = (1.0 / 1.4) * ((1 - u) ** -1.4 - 1)  # tail index beyond 1
        with pytest.warns(RuntimeWarning, match="tail mean"):
            fit = fit_gpd_pot(series_of(y), threshold_quantile=0.90)
        assert fit.infinite_mean
        assert fit.shape_xi >= 1.0

    def test_too_few_exceedances(self):
        rng = np.random.default_rng(28)
        with pytest.raises(InsufficientTailError):
            fit_gpd_pot(series_of(rng.exponential(1.0, 50)), threshold_quantile=0.9)

    def test_quantile_validation(self):
        rng = np.random.default_rng(29)
        s = series_of(rng.exponential(1.0, 500))
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValidationError):
                fit_gpd_pot(s, threshold_quantile=bad)

    def test_fit_is_deterministic(self):
        s = gpd_tail_sample(seed=30, n=10_000)
        a = fit_gpd_pot(s)
        b = fit_gpd_pot(s)
        assert a.shape_xi == b.shape_xi
        assert a.scale_beta == b.scale_beta


def garch_sample(seed, n, mu=0.3, omega=0.2, alpha=0.10, beta=0.80):
    spec = GeneratorSpec(
        kind="garch",
        n=n,
        seed=seed,
        parameters={"mu": mu, "omega": omega, "alpha": alpha, "beta": beta},
    )
    return generate(spec)


class TestGarchLoglike:
    def test_gradient_matches_finite_differences_interior(self):
        s = garch_sample(seed=41, n=1000)
        x = s.values
        theta = np.array([0.25, 0.18, 0.08, 0.83])
        _, grad = garch11_loglike(theta, x)
        for i in range(4):
            step = 1e-6 * max(1.0, abs(theta[i]))
            up = theta.copy()
            dn = theta.copy()
            up[i] += step
            dn[i] -= step
            ll_up, _ = garch11_loglike(up, x)
            ll_dn, _ = garch11_loglike(dn, x)
            fd = (ll_up - ll_dn) / (2 * step)
            assert abs(fd - grad[i]) <= 1e-4 * max(1.0, abs(grad[i])), (
                f"parameter {i}: fd={fd}, analytic={grad[i]}"
            )

    def test_variance_path_matches_direct_recursion(self):
        s = garch_sample(seed=42, n=400)
        x = s.values
        mu, omega, alpha, beta = 0.3, 0.2, 0.1, 0.8
        h = garch11_variance_path((mu, omega, alpha, beta), x)
        h1 = float(np.var(x))
        expected = np.empty(len(x))
        expected[0] = h1
        for t in range(1, len(x)):
            expected[t] = omega + alpha * (x[t - 1] - mu) ** 2 + beta * expected[t - 1]
        np.testing.assert_allclose(h, expected, rtol=1e-12)
        assert np.all(h > 0)

    def test_adjoint_gradient_matches_forward_derivative_recursions(self):
        """The workspace takes the gradient from one backward (adjoint)
        filter; the oracle runs one forward derivative recursion per
        parameter and sums each against c_t = d ll / d h_t."""
        from retlab.distfit.garch import _Workspace

        for seed, n, params in [
            (44, 360, (0.3, 0.2, 0.1, 0.8)),
            (45, 2000, (-0.1, 1e-3, 1e-12, 0.999998)),
            (46, 2, (0.0, 0.5, 0.3, 0.5)),
            (47, 20_000, (0.25, 0.18, 0.08, 0.83)),
        ]:
            x = garch_sample(seed=seed, n=max(n, 100)).values[:n]
            mu, omega, alpha, beta = params
            h1 = float(np.var(x))
            _, grad = _Workspace(x, h1).loglike(params)
            eps = x - mu
            h = garch11_variance_path(params, x, h1)
            c = 0.5 * (eps**2 / h - 1.0) / h
            drives = [-2.0 * alpha * eps[:-1], np.ones(n - 1), eps[:-1] ** 2, h[:-1]]
            expected = np.empty(4)
            for i, drive in enumerate(drives):
                dh = lfilter([1.0], [1.0, -beta], drive, zi=np.array([0.0]))[0]
                expected[i] = np.sum(c[1:] * dh)
            expected[0] += np.sum(eps / h)
            np.testing.assert_array_less(
                np.abs(grad - expected), 1e-12 * np.maximum(1.0, np.abs(expected)),
                err_msg=f"seed {seed}, n {n}",
            )

    @pytest.mark.parametrize("n", [2, 360, 20_000])
    def test_filter_is_bit_equal_to_lfilter(self, n):
        """The workspace calls scipy's compiled filter without `lfilter`'s
        wrapper, forward with an initial state and backward on a reversed
        view without one; `lfilter` must give the same bits."""
        from retlab.distfit.garch import _ONE, _linear_filter

        rng = np.random.default_rng(n)
        for beta in [0.0, *rng.uniform(0.0, 0.999999, 20)]:
            x = rng.standard_normal(n)
            zi = np.array([beta * rng.uniform(0.1, 10.0)])
            a = np.array([1.0, -beta])
            forward = _linear_filter(_ONE, a, x, -1, zi)
            expected = lfilter([1.0], [1.0, -beta], x, zi=zi)
            assert np.array_equal(forward[0], expected[0])
            assert np.array_equal(forward[1], expected[1])
            backward = _linear_filter(_ONE, a, x[:0:-1], -1)[::-1]
            assert np.array_equal(backward, lfilter([1.0], [1.0, -beta], x[:0:-1])[::-1])

    def test_workspace_reuse_leaks_no_state(self):
        from retlab.distfit.garch import _Workspace

        x = garch_sample(seed=48, n=500).values
        ws = _Workspace(x, float(np.var(x)))
        a = (0.3, 0.2, 0.1, 0.8)
        ll_a, grad_a = ws.loglike(a)
        ll_b, grad_b = ws.loglike((0.3, -0.2, 0.1, 0.8))
        assert ll_b == -np.inf and np.all(grad_b == 0)
        # a path that overflows fills the buffers before it is rejected
        ll_b, _ = ws.loglike((0.3, 1e308, 0.9, 0.9))
        assert ll_b == -np.inf
        ll_again, grad_again = ws.loglike(a)
        assert ll_again == ll_a
        np.testing.assert_array_equal(grad_again, grad_a)

    def test_infeasible_parameters_rejected(self):
        s = garch_sample(seed=43, n=200)
        ll, grad = garch11_loglike((0.0, -0.1, 0.1, 0.8), s.values)
        assert ll == -np.inf
        assert np.all(grad == 0)


class TestGarchFit:
    def test_iid_gaussian_recovers_unconditional_variance(self):
        rng = np.random.default_rng(44)
        s = series_of(0.5 + 2.0 * rng.standard_normal(10_000))
        fit = fit_garch11(s)
        assert abs(fit.unconditional_variance - 4.0) / 4.0 < 0.05
        assert fit.alpha < 0.05
        assert abs(fit.mu - 0.5) < 0.1

    def test_parameter_recovery(self):
        fit = fit_garch11(garch_sample(seed=45, n=5000))
        assert fit.converged
        assert abs(fit.mu - 0.3) < 0.1
        assert abs(fit.alpha - 0.10) < 0.05
        assert abs(fit.beta - 0.80) < 0.10
        assert not fit.integrated_warning

    def test_gradient_near_zero_at_optimum(self):
        s = garch_sample(seed=46, n=5000)
        fit = fit_garch11(s)
        _, grad = garch11_loglike(
            (fit.mu, fit.omega, fit.alpha, fit.beta), s.values, fit.h1
        )
        assert np.max(np.abs(grad)) < 0.1, f"score at optimum: {grad}"

    def test_fit_path_and_one_step_variance_consistent(self):
        s = garch_sample(seed=47, n=800)
        fit = fit_garch11(s)
        replay = garch11_variance_path(
            (fit.mu, fit.omega, fit.alpha, fit.beta), s.values, fit.h1
        )
        np.testing.assert_allclose(fit.conditional_variance_path, replay, rtol=1e-12)
        eps_last = s.values[-1] - fit.mu
        expected = fit.omega + fit.alpha * eps_last**2 + fit.beta * replay[-1]
        assert fit.one_step_variance == pytest.approx(expected, rel=1e-12)
        assert fit.h1 == pytest.approx(np.var(s.values), rel=1e-12)

    def test_variance_regime_shift_warns_near_integrated(self):
        # an abrupt, permanent volatility jump pushes persistence toward 1
        rng = np.random.default_rng(48)
        x = np.concatenate(
            [rng.standard_normal(500), 10.0 * rng.standard_normal(500)]
        )
        with pytest.warns(RuntimeWarning, match="integrated"):
            fit = fit_garch11(series_of(x))
        assert fit.integrated_warning
        assert fit.alpha + fit.beta > 0.999

    def test_fit_is_deterministic(self):
        s = garch_sample(seed=49, n=1500)
        a = fit_garch11(s)
        b = fit_garch11(s)
        assert (a.mu, a.omega, a.alpha, a.beta) == (b.mu, b.omega, b.alpha, b.beta)

    def test_short_series_rejected(self):
        rng = np.random.default_rng(50)
        with pytest.raises(InsufficientDataError):
            fit_garch11(series_of(rng.standard_normal(99)))

    def test_constant_series_rejected(self):
        with pytest.raises(DegenerateVarianceError):
            fit_garch11(series_of(np.full(200, 1.0)))

    def test_constant_series_without_exact_mean_rejected(self):
        with pytest.raises(DegenerateVarianceError, match="series 'x' is constant"):
            fit_garch11(series_of(np.full(360, 2.7)))


class TestArchLm:
    def test_statistic_matches_direct_projection(self):
        values = [1.0, -2.0, 3.0, -1.0, 2.0, -3.0, 1.0, 4.0, -2.0, 0.0, 2.0, -1.0,
                  3.0, -4.0, 1.0, 2.0]
        lags = 2
        result = arch_lm_test(series_of(values), lags=lags)
        # independent oracle: QR projection of squared deviations on lags
        x = np.asarray(values)
        e = (x - x.mean()) ** 2
        y = e[lags:]
        design = np.column_stack(
            [np.ones(len(y))] + [e[lags - j : len(e) - j] for j in range(1, lags + 1)]
        )
        q, _ = np.linalg.qr(design)
        fitted = q @ (q.T @ y)
        r2 = 1.0 - np.sum((y - fitted) ** 2) / np.sum((y - y.mean()) ** 2)
        expected = len(y) * r2
        assert result.statistic == pytest.approx(expected, abs=1e-10)
        assert result.p_value == pytest.approx(chi2.sf(expected, lags), abs=1e-12)
        assert result.n_obs == len(values) - lags

    def test_size_under_homoskedastic_noise(self):
        rejections = 0
        n_seeds = 500
        for seed in range(n_seeds):
            rng = np.random.default_rng(60_000 + seed)
            result = arch_lm_test(series_of(rng.standard_normal(600)), lags=12)
            rejections += result.p_value < 0.05
        rate = rejections / n_seeds
        assert 0.025 <= rate <= 0.085, f"rejection rate {rate:.3f} under the null"

    def test_power_against_garch_alternative(self):
        strong = 0
        n_seeds = 30
        for seed in range(n_seeds):
            s = garch_sample(seed=70_000 + seed, n=2000)
            strong += arch_lm_test(s, lags=12).p_value < 0.01
        assert strong >= 28, f"detected ARCH in only {strong}/{n_seeds} samples"

    def test_lag_validation(self):
        rng = np.random.default_rng(61)
        s = series_of(rng.standard_normal(100))
        with pytest.raises(ValidationError):
            arch_lm_test(s, lags=0)

    def test_insufficient_observations(self):
        rng = np.random.default_rng(62)
        with pytest.raises(InsufficientDataError):
            arch_lm_test(series_of(rng.standard_normal(22)), lags=12)

    def test_constant_series_degenerate(self):
        with pytest.raises(DegenerateVarianceError):
            arch_lm_test(series_of(np.zeros(100)), lags=4)

    def test_result_validation(self):
        with pytest.raises(ValidationError):
            ArchLmResult(lags=2, statistic=-0.5, p_value=0.5, n_obs=50)
        with pytest.raises(ValidationError):
            ArchLmResult(lags=2, statistic=1.0, p_value=1.5, n_obs=50)
