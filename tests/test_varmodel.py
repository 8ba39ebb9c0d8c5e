"""Unit-root tests and VAR estimation, forecasting, IRF, and FEVD."""

import dataclasses
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.stats import f as f_dist
from scipy.stats import linregress

from retlab.errors import (
    AlignmentError,
    DecompositionError,
    DegenerateVarianceError,
    InsufficientDataError,
    SingularDesignError,
    ValidationError,
)
from retlab.series import Month, Panel, ReturnSeries, TimeGrid, cumulate_log_price
from retlab.synth import GeneratorSpec, generate
from retlab.varmodel import (
    VarFit,
    fevd,
    fit_var,
    forecast,
    granger_causality,
    irf,
    select_lag,
    unit_root_tests,
)
from retlab.regression import ols
from retlab.varmodel.unitroot import _adf, _dickey_fuller_p_value
from retlab.varmodel.var import _BOOT_BLOCK, _bootstrap_fits, _bootstrap_panels


def series_of(values, start="2000-01", label="x"):
    values = np.asarray(values, dtype=float)
    return ReturnSeries(label, TimeGrid(Month.parse(start), len(values)), values)


def panel_of(columns, labels, start="2000-01"):
    columns = np.asarray(columns, dtype=float)
    grid = TimeGrid(Month.parse(start), columns.shape[0])
    return Panel(
        tuple(
            ReturnSeries(label, grid, columns[:, j]) for j, label in enumerate(labels)
        )
    )


def ar1_values(rng, n, rho=0.5, scale=1.0):
    x = np.empty(n)
    x[0] = 0.0
    for t in range(1, n):
        x[t] = rho * x[t - 1] + scale * rng.standard_normal()
    return x


def var_sample(seed, n, coefficients, intercept, residual_cov, labels=None):
    params = {
        "intercept": intercept,
        "coefficients": coefficients,
        "residual_cov": residual_cov,
    }
    if labels is not None:
        params["labels"] = labels
    return generate(GeneratorSpec(kind="var", n=n, seed=seed, parameters=params))


def manual_var_fit(coeff, residual_cov, labels=("a", "b"), n_eff=50):
    """VarFit with prescribed matrices, for closed-form checks."""
    coeff = np.asarray(coeff, dtype=float)
    residual_cov = np.asarray(residual_cov, dtype=float)
    p = coeff.shape[0]
    k = len(labels)
    grid = TimeGrid(Month.parse("2000-01"), n_eff + p)
    panel = Panel(
        tuple(
            ReturnSeries(label, grid, np.linspace(0.1, 1.0, n_eff + p) + j)
            for j, label in enumerate(labels)
        )
    )
    return VarFit(
        labels=tuple(labels),
        p=p,
        intercept=np.zeros(k),
        coeff=coeff,
        intercept_t=np.zeros(k),
        t_stats=np.zeros((p, k, k)),
        residual_cov=residual_cov,
        residuals=np.zeros((n_eff, k)),
        r_square=np.zeros(k),
        adj_r_square=np.zeros(k),
        stable=bool(
            p == 0
            or np.max(np.abs(np.linalg.eigvals(_companion(coeff)))) < 1.0
        ),
        n_eff=n_eff,
        panel=panel,
    )


def _companion(coeff):
    p, k, _ = coeff.shape
    top = np.concatenate(list(coeff), axis=1)
    if p == 1:
        return top
    below = np.hstack([np.eye(k * (p - 1)), np.zeros((k * (p - 1), k))])
    return np.vstack([top, below])


def column_stack_adf(y):
    """`_adf` as it was written before its lag search shared one design:
    every candidate lag's design is built on its own by `column_stack`."""
    dy = np.diff(y)
    max_lag = max(min(int(12.0 * (len(y) / 100.0) ** 0.25), len(dy) - 10), 0)

    def build(lag, start):
        rows = np.arange(start, len(dy))
        cols = [np.ones(len(rows)), y[rows]]
        for j in range(1, lag + 1):
            cols.append(dy[rows - j])
        return np.column_stack(cols), dy[rows]

    best_lag, best_bic = 0, math.inf
    for lag in range(max_lag + 1):
        design, target = build(lag, max_lag)
        resid = ols(design, target[:, None])[2][:, 0]
        n_sel = len(target)
        bic = n_sel * math.log(float(resid @ resid) / n_sel) + (lag + 2) * math.log(n_sel)
        if bic < best_bic:
            best_bic, best_lag = bic, lag
    design, target = build(best_lag, best_lag)
    xtx_inv, coef, _, cov = ols(design, target[:, None])
    return float(coef[1, 0] / np.sqrt(cov[0, 0] * xtx_inv[1, 1])), best_lag, len(target)


class TestUnitRoot:
    def test_stationary_series_rejects_unit_root(self):
        rng = np.random.default_rng(101)
        report = unit_root_tests(series_of(ar1_values(rng, 400)))
        assert report.adf_stat < -3.5
        assert report.adf_p_value == pytest.approx(0.01)  # clamped at coverage
        assert report.pp_stat < -3.5
        assert report.pp_p_value == pytest.approx(0.01)
        assert not report.kpss_reject_5pct

    def test_random_walk_fails_to_reject(self):
        misses = 0
        n_seeds = 60
        for seed in range(n_seeds):
            rng = np.random.default_rng(110_000 + seed)
            walk = np.cumsum(rng.standard_normal(1000))
            report = unit_root_tests(series_of(walk))
            misses += report.adf_p_value > 0.05
        assert misses >= 0.9 * n_seeds, f"ADF rejected the unit root {n_seeds - misses} times"

    def test_kpss_size_under_stationarity(self):
        accepts = 0
        n_seeds = 100
        for seed in range(n_seeds):
            rng = np.random.default_rng(120_000 + seed)
            report = unit_root_tests(series_of(rng.standard_normal(500)))
            accepts += not report.kpss_reject_5pct
        assert 0.88 <= accepts / n_seeds <= 1.0, f"KPSS accepted {accepts}/{n_seeds}"

    def test_kpss_detects_random_walk(self):
        rejects = 0
        for seed in range(10):
            rng = np.random.default_rng(130_000 + seed)
            walk = np.cumsum(rng.standard_normal(1000))
            rejects += unit_root_tests(series_of(walk)).kpss_reject_5pct
        assert rejects >= 9

    def test_adf_statistic_replicates_direct_regression(self):
        rng = np.random.default_rng(102)
        y = ar1_values(rng, 60, rho=0.7)
        report = unit_root_tests(series_of(y))
        lag = report.adf_lags
        dy = np.diff(y)
        rows = np.arange(lag, len(dy))
        cols = [np.ones(len(rows)), y[rows]]
        for j in range(1, lag + 1):
            cols.append(dy[rows - j])
        design = np.column_stack(cols)
        coef, _, _, _ = np.linalg.lstsq(design, dy[rows], rcond=None)
        resid = dy[rows] - design @ coef
        s2 = (resid @ resid) / (len(rows) - design.shape[1])
        se = math.sqrt(s2 * np.linalg.inv(design.T @ design)[1, 1])
        assert report.adf_stat == pytest.approx(coef[1] / se, abs=1e-10)

    def test_adf_lag_search_is_bit_equal_to_separate_designs(self):
        # each candidate's design is a column block of the widest one; as
        # a strided view it must give the bits of its own contiguous copy
        rng = np.random.default_rng(107)
        for i in range(400):
            n = int(rng.integers(30, 801))
            shocks = rng.standard_normal(n)
            kind = i % 3
            if kind == 0:
                y = np.cumsum(shocks)
            elif kind == 1:
                y = shocks
            else:
                y = ar1_values(rng, n, rho=0.9)
            assert _adf(y) == column_stack_adf(y), (kind, n)

    def test_pp_statistic_replicates_direct_formula(self):
        rng = np.random.default_rng(103)
        y = ar1_values(rng, 80, rho=0.6)
        report = unit_root_tests(series_of(y))
        q = report.bandwidth
        design = np.column_stack([np.ones(len(y) - 1), y[:-1]])
        target = y[1:]
        xtx_inv = np.linalg.inv(design.T @ design)
        coef = xtx_inv @ design.T @ target
        resid = target - design @ coef
        n_eff = len(target)
        s2 = (resid @ resid) / (n_eff - 2)
        se_rho = math.sqrt(s2 * xtx_inv[1, 1])
        t_rho = (coef[1] - 1.0) / se_rho
        gamma0 = (resid @ resid) / n_eff
        lam2 = gamma0
        for j in range(1, q + 1):
            lam2 += 2 * (1 - j / (q + 1)) * (resid[j:] @ resid[:-j]) / n_eff
        expected = math.sqrt(gamma0 / lam2) * t_rho - 0.5 * (
            (lam2 - gamma0) / math.sqrt(lam2)
        ) * (n_eff * se_rho / math.sqrt(s2))
        assert report.pp_stat == pytest.approx(expected, abs=1e-10)

    def test_p_value_interpolation_points(self):
        # asymptotic row anchors: tau = -2.86 sits exactly at the 5% level
        assert _dickey_fuller_p_value(-2.86, 10_000_000) == pytest.approx(0.05, abs=1e-3)
        assert _dickey_fuller_p_value(-0.44, 10_000_000) == pytest.approx(0.90, abs=1e-3)
        # halfway between the 5% (-2.86) and 10% (-2.57) columns
        assert _dickey_fuller_p_value(-2.715, 10_000_000) == pytest.approx(0.075, abs=1e-3)
        # small-sample row
        assert _dickey_fuller_p_value(-3.00, 25) == pytest.approx(0.05, abs=1e-3)
        # clamped to table coverage on both sides
        assert _dickey_fuller_p_value(-9.0, 500) == 0.01
        assert _dickey_fuller_p_value(5.0, 500) == 0.99

    def test_bandwidth_formula(self):
        rng = np.random.default_rng(104)
        assert unit_root_tests(series_of(rng.standard_normal(100))).bandwidth == 4
        assert unit_root_tests(series_of(rng.standard_normal(500))).bandwidth == 5

    def test_accepts_log_price_series(self):
        rng = np.random.default_rng(105)
        prices = cumulate_log_price(series_of(rng.standard_normal(120)))
        report = unit_root_tests(prices)
        assert report.n == 121

    def test_input_validation(self):
        rng = np.random.default_rng(106)
        with pytest.raises(InsufficientDataError):
            unit_root_tests(series_of(rng.standard_normal(29)))
        with pytest.raises(DegenerateVarianceError):
            unit_root_tests(series_of(np.full(50, 2.0)))


A_TRUE = [[[0.5, 0.1], [0.0, 0.3]]]
C_TRUE = [0.2, -0.1]
COV_TRUE = [[1.0, 0.3], [0.3, 1.0]]


class TestFitVar:
    def test_mean_only_model(self):
        rng = np.random.default_rng(201)
        panel = panel_of(rng.standard_normal((100, 2)) + [1.5, -0.5], ("a", "b"))
        fit = fit_var(panel, 0)
        np.testing.assert_allclose(fit.intercept, panel.values.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(
            fit.residual_cov, np.cov(panel.values.T, ddof=1), atol=1e-12
        )
        assert fit.stable and fit.p == 0

    def test_var1_parameter_recovery(self):
        panel = var_sample(202, 2000, A_TRUE, C_TRUE, COV_TRUE)
        fit = fit_var(panel, 1)
        np.testing.assert_allclose(fit.coeff[0], A_TRUE[0], atol=0.05)
        np.testing.assert_allclose(fit.intercept, C_TRUE, atol=0.1)
        np.testing.assert_allclose(fit.residual_cov, COV_TRUE, atol=0.15)
        assert fit.stable

    def test_residuals_orthogonal_to_regressors(self):
        panel = var_sample(203, 500, A_TRUE, C_TRUE, COV_TRUE)
        fit = fit_var(panel, 2)
        values = panel.values
        cols = [np.ones(len(values) - 2)]
        for lag in (1, 2):
            cols.append(values[2 - lag : len(values) - lag])
        design = np.column_stack(cols)
        assert np.max(np.abs(design.T @ fit.residuals)) < 1e-8 * len(values)

    def test_univariate_fit_matches_independent_regression(self):
        rng = np.random.default_rng(204)
        x = ar1_values(rng, 300, rho=0.6)
        fit = fit_var(panel_of(x[:, None], ("a",)), 1)
        reg = linregress(x[:-1], x[1:])
        assert fit.coeff[0, 0, 0] == pytest.approx(reg.slope, abs=1e-10)
        assert fit.intercept[0] == pytest.approx(reg.intercept, abs=1e-10)
        assert fit.t_stats[0, 0, 0] == pytest.approx(reg.slope / reg.stderr, abs=1e-8)
        assert fit.intercept_t[0] == pytest.approx(
            reg.intercept / reg.intercept_stderr, abs=1e-8
        )
        assert fit.r_square[0] == pytest.approx(reg.rvalue**2, abs=1e-12)

    def test_adjusted_r_square_definition(self):
        panel = var_sample(205, 400, A_TRUE, C_TRUE, COV_TRUE)
        fit = fit_var(panel, 1)
        dof = fit.n_eff - 2 * 1 - 1
        expected = 1 - (1 - fit.r_square) * (fit.n_eff - 1) / dof
        np.testing.assert_allclose(fit.adj_r_square, expected, atol=1e-12)

    def test_collinear_panel_names_offenders(self):
        rng = np.random.default_rng(206)
        base = rng.standard_normal(200)
        panel = panel_of(np.column_stack([base, 2.0 * base]), ("a", "b"))
        with pytest.raises(SingularDesignError, match="lag 1"):
            fit_var(panel, 1)

    def test_insufficient_data(self):
        rng = np.random.default_rng(207)
        panel = panel_of(rng.standard_normal((4, 2)), ("a", "b"))
        with pytest.raises(InsufficientDataError):
            fit_var(panel, 1)
        with pytest.raises(ValidationError):
            fit_var(panel, -1)


class TestSelectLag:
    def test_recovers_var2_order(self):
        a2 = [
            [[0.4, 0.1], [0.0, 0.3]],
            [[0.3, 0.0], [0.1, 0.2]],
        ]
        hits = 0
        for seed in range(5):
            panel = var_sample(210 + seed, 2000, a2, [0.1, 0.1], COV_TRUE)
            hits += select_lag(panel, 5, "BIC") == 2
        assert hits >= 4

    def test_white_noise_prefers_smallest_order(self):
        ones = 0
        cross_hits = 0
        cross_total = 0
        n_seeds = 40
        for seed in range(n_seeds):
            rng = np.random.default_rng(220_000 + seed)
            panel = panel_of(rng.standard_normal((500, 2)), ("a", "b"))
            chosen = select_lag(panel, 4, "BIC")
            ones += chosen == 1
            fit = fit_var(panel, chosen)
            off = ~np.eye(2, dtype=bool)
            cross = np.abs(fit.t_stats[:, off])
            cross_hits += int(np.sum(cross > 1.96))
            cross_total += cross.size
        assert ones >= 0.9 * n_seeds, f"BIC picked 1 in only {ones}/{n_seeds} runs"
        rate = cross_hits / cross_total
        assert 0.0 <= rate <= 0.12, f"cross t-stat rejection rate {rate:.3f}"

    def test_aic_never_below_bic(self):
        datasets = [var_sample(230 + s, 600, A_TRUE, C_TRUE, COV_TRUE) for s in range(3)]
        rng = np.random.default_rng(231)
        datasets.append(panel_of(rng.standard_normal((600, 2)), ("a", "b")))
        for panel in datasets:
            assert select_lag(panel, 6, "AIC") >= select_lag(panel, 6, "BIC")

    def test_validation(self):
        panel = var_sample(232, 100, A_TRUE, C_TRUE, COV_TRUE)
        with pytest.raises(ValidationError):
            select_lag(panel, 0)
        with pytest.raises(ValidationError):
            select_lag(panel, 3, "HQ")
        small = var_sample(233, 12, A_TRUE, C_TRUE, COV_TRUE)
        with pytest.raises(InsufficientDataError):
            select_lag(small, 5)

    @pytest.mark.parametrize("criterion", ["AIC", "BIC"])
    def test_pick_matches_lstsq_reference(self, criterion):
        # 24 random VAR(q) panels, q in 1..3, k in 1..4: the absolute
        # row sums of the q lag matrices add up to at most 0.8, so the
        # VAR is stable
        for seed in range(24):
            rng = np.random.default_rng(234_000 + seed)
            k = int(rng.integers(1, 5))
            q = int(rng.integers(1, 4))
            coefficients = np.stack([
                np.diag(rng.uniform(-0.6, 0.6, k)) + rng.uniform(-0.05, 0.05, (k, k))
                for _ in range(q)
            ]) / q
            panel = var_sample(
                seed, int(rng.integers(80, 400)), coefficients.tolist(), [0.1] * k,
                (0.7 * np.eye(k) + 0.3).tolist(), labels=[f"s{j}" for j in range(k)],
            )
            for p_max in range(1, 7):
                expected = lstsq_lag_pick(panel, p_max, criterion)
                assert select_lag(panel, p_max, criterion) == expected, (seed, p_max)

    def test_collinear_member_names_offenders(self):
        rng = np.random.default_rng(235)
        a, b = rng.standard_normal((2, 200))
        panel = panel_of(np.column_stack([a, b, 2.0 * a]), ("a", "b", "c"))
        with pytest.raises(
            SingularDesignError, match="^collinear regressors: a lag 1, a lag 2, a lag 3$"
        ):
            select_lag(panel, 3)


def lstsq_lag_pick(panel, p_max, criterion):
    """The order select_lag should pick: each candidate fit by its own
    lstsq on the common sample, rows p_max..n-1."""
    values = panel.values
    n, k = values.shape
    t_common = n - p_max
    target = values[p_max:]
    penalty = 2.0 if criterion == "AIC" else math.log(t_common)
    scores = []
    for p in range(1, p_max + 1):
        lags = [values[p_max - lag : n - lag] for lag in range(1, p + 1)]
        design = np.column_stack([np.ones(t_common), *lags])
        beta, _, _, _ = np.linalg.lstsq(design, target, rcond=None)
        resid = target - design @ beta
        _, logdet = np.linalg.slogdet(resid.T @ resid / t_common)
        scores.append(logdet + penalty * k * (k * p + 1) / t_common)
    return int(np.argmin(scores)) + 1


class TestGranger:
    def test_size_under_independence(self):
        rejections = 0
        total = 0
        for seed in range(150):
            rng = np.random.default_rng(240_000 + seed)
            panel = panel_of(rng.standard_normal((500, 2)), ("a", "b"))
            result = granger_causality(fit_var(panel, 1))
            for i, j in ((0, 1), (1, 0)):
                rejections += result.p_values[i, j] < 0.05
                total += 1
        rate = rejections / total
        assert 0.02 <= rate <= 0.09, f"size {rate:.3f} under independence"

    def test_power_for_lagged_dependence(self):
        detected = 0
        n_seeds = 30
        for seed in range(n_seeds):
            rng = np.random.default_rng(250_000 + seed)
            x = rng.standard_normal(1000)
            y = np.empty(1000)
            y[0] = rng.standard_normal()
            y[1:] = 0.5 * x[:-1] + rng.standard_normal(999)
            panel = panel_of(np.column_stack([x, y]), ("x", "y"))
            result = granger_causality(fit_var(panel, 1))
            # x -> y is row "y", column "x"
            detected += result.p_values[1, 0] < 0.01
        assert detected >= n_seeds - 1

    def test_statistic_matches_explicit_f_form(self):
        panel = var_sample(251, 300, A_TRUE, C_TRUE, COV_TRUE)
        fit = fit_var(panel, 1)
        result = granger_causality(fit)
        values = panel.values
        target = values[1:, 0]
        full = np.column_stack([np.ones(299), values[:-1]])
        restricted = np.column_stack([np.ones(299), values[:-1, 0]])
        dof = 299 - 3
        ssr_full = _ssr(full, target)
        ssr_restricted = _ssr(restricted, target)
        expected = ((ssr_restricted - ssr_full) / 1) / (ssr_full / dof)
        assert result.f_stats[0, 1] == pytest.approx(expected, rel=1e-9)
        assert result.p_values[0, 1] == pytest.approx(
            f_dist.sf(expected, 1, dof), rel=1e-9
        )
        assert np.isnan(result.f_stats[0, 0])

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_every_pair_matches_explicit_f_form(self, p):
        # each restricted design drops series j's p lag columns, wherever
        # they sit among the k*p lag columns
        fit = fit_var(wide_var_sample(254, 160, 12), p)
        k = fit.width
        values = fit.panel.values
        target = values[p:]
        lags = [values[p - lag : len(values) - lag] for lag in range(1, p + 1)]
        ones = np.ones(fit.n_eff)
        full = np.column_stack([ones, *lags])
        dof = fit.n_eff - k * p - 1
        result = granger_causality(fit)
        for i in range(k):
            ssr_full = _ssr(full, target[:, i])
            for j in set(range(k)) - {i}:
                restricted = np.column_stack([ones] + [np.delete(x, j, axis=1) for x in lags])
                ssr_restricted = _ssr(restricted, target[:, i])
                expected = ((ssr_restricted - ssr_full) / p) / (ssr_full / dof)
                # near-zero statistics are differences of nearly equal SSRs
                assert result.f_stats[i, j] == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_invariant_to_positive_rescaling(self):
        panel = var_sample(252, 400, A_TRUE, C_TRUE, COV_TRUE)
        grid = panel.grid
        scaled = Panel(
            (
                ReturnSeries("a", grid, panel.values[:, 0] * 3.7),
                ReturnSeries("b", grid, panel.values[:, 1] * 0.4),
            )
        )
        base = granger_causality(fit_var(panel, 2))
        other = granger_causality(fit_var(scaled, 2))
        off = ~np.eye(2, dtype=bool)
        np.testing.assert_allclose(
            base.f_stats[off], other.f_stats[off], rtol=1e-9
        )

    def test_mean_only_fit_rejected(self):
        panel = var_sample(253, 100, A_TRUE, C_TRUE, COV_TRUE)
        with pytest.raises(ValidationError):
            granger_causality(fit_var(panel, 0))


def _ssr(design, target):
    beta, _, _, _ = np.linalg.lstsq(design, target, rcond=None)
    resid = target - design @ beta
    return float(resid @ resid)


class TestForecast:
    def test_one_step_replays_the_recursion(self):
        panel = var_sample(260, 500, A_TRUE, C_TRUE, COV_TRUE)
        fit = fit_var(panel, 1)
        path = forecast(fit, 1)
        expected = fit.intercept + fit.coeff[0] @ panel.values[-1]
        np.testing.assert_allclose(path.point[0], expected, atol=1e-12)
        np.testing.assert_allclose(
            path.std_err[0], np.sqrt(np.diag(fit.residual_cov)), atol=1e-12
        )

    def test_long_horizon_converges_to_unconditional_mean(self):
        panel = var_sample(261, 800, A_TRUE, C_TRUE, COV_TRUE)
        fit = fit_var(panel, 1)
        path = forecast(fit, 120)
        mean = np.linalg.solve(np.eye(2) - fit.coeff[0], fit.intercept)
        np.testing.assert_allclose(path.point[-1], mean, atol=1e-6)
        assert np.all(np.diff(path.std_err, axis=0) >= -1e-12)

    def test_explicit_history_argument(self):
        panel = var_sample(262, 400, A_TRUE, C_TRUE, COV_TRUE)
        fit = fit_var(panel, 2)
        tail = Panel(tuple(s.restrict(panel.grid) for s in panel.series))
        same = forecast(fit, 3, history=tail)
        np.testing.assert_allclose(same.point, forecast(fit, 3).point, atol=1e-12)

    @pytest.mark.parametrize("p", [0, 1, 2, 3])
    def test_point_path_is_bit_equal_to_a_per_step_loop(self, p):
        panel = var_sample(264, 300, A_TRUE, C_TRUE, COV_TRUE)
        fit = fit_var(panel, p)
        buffer = list(panel.values[len(panel.values) - p :])
        expected = []
        for _ in range(12):
            nxt = fit.intercept.copy()
            for lag in range(1, p + 1):
                nxt += fit.coeff[lag - 1] @ buffer[-lag]
            expected.append(nxt)
            buffer.append(nxt)
        assert np.array_equal(forecast(fit, 12).point, expected)

    def test_unstable_fit_warns_but_forecasts(self):
        fit = manual_var_fit([[[1.05]]], [[1.0]], labels=("a",))
        assert not fit.stable
        with pytest.warns(RuntimeWarning, match="unstable"):
            path = forecast(fit, 4)
        assert path.point.shape == (4, 1)

    def test_validation(self):
        panel = var_sample(263, 200, A_TRUE, C_TRUE, COV_TRUE)
        fit = fit_var(panel, 1)
        with pytest.raises(ValidationError):
            forecast(fit, 0)
        other = panel_of(np.zeros((50, 2)) + np.arange(2), ("p", "q"))
        with pytest.raises(AlignmentError):
            forecast(fit, 2, history=other)


class TestIrf:
    def test_horizon_zero_is_cholesky_factor(self):
        panel = var_sample(270, 600, A_TRUE, C_TRUE, COV_TRUE)
        fit = fit_var(panel, 1)
        result = irf(fit, 4, n_boot=0)
        np.testing.assert_allclose(
            result.responses[0], np.linalg.cholesky(fit.residual_cov), atol=1e-12
        )
        assert result.lower is None and result.upper is None

    def test_var1_closed_form_matrix_powers(self):
        panel = var_sample(271, 600, A_TRUE, C_TRUE, COV_TRUE)
        fit = fit_var(panel, 1)
        result = irf(fit, 6, n_boot=0)
        chol = np.linalg.cholesky(fit.residual_cov)
        a = fit.coeff[0]
        for s in range(7):
            np.testing.assert_allclose(
                result.responses[s], np.linalg.matrix_power(a, s) @ chol, atol=1e-10
            )

    def test_responses_decay_for_stable_fit(self):
        panel = var_sample(272, 600, A_TRUE, C_TRUE, COV_TRUE)
        fit = fit_var(panel, 1)
        result = irf(fit, 200, n_boot=0)
        assert np.max(np.abs(result.responses[200])) < 1e-6

    def test_bootstrap_bands_contain_point_and_are_seeded(self):
        panel = var_sample(273, 300, A_TRUE, C_TRUE, COV_TRUE)
        fit = fit_var(panel, 1)
        first = irf(fit, 5, n_boot=200, seed=7)
        again = irf(fit, 5, n_boot=200, seed=7)
        other = irf(fit, 5, n_boot=200, seed=8)
        assert np.all(first.lower <= first.responses + 1e-12)
        assert np.all(first.responses - 1e-12 <= first.upper)
        np.testing.assert_array_equal(first.lower, again.lower)
        assert not np.array_equal(first.lower, other.lower)
        width = first.upper - first.lower
        assert np.all(width >= 0)
        # the horizon-0 upper triangle is structurally zero, so its band
        # collapses; everywhere else the band must have positive width
        assert np.all(width[1:] > 0)
        assert np.all(width[0][np.tril_indices(2)] > 0)

    def test_panel_order_sets_labels_and_factor(self):
        panel = var_sample(274, 500, A_TRUE, C_TRUE, COV_TRUE, labels=["m", "r"])
        fit = fit_var(panel, 1)
        swapped = fit_var(Panel(panel.series[::-1]), 1)
        np.testing.assert_allclose(
            swapped.residual_cov, fit.residual_cov[::-1, ::-1], atol=1e-12
        )
        result = irf(swapped, 3, n_boot=0)
        assert result.labels == ("r", "m")
        np.testing.assert_allclose(
            result.responses[0], np.linalg.cholesky(swapped.residual_cov), atol=1e-12
        )

    def test_unstable_fit_warns_in_irf_and_fevd(self):
        # an explosive root of 1.05 on the first series
        fit = manual_var_fit([[[1.05, 0.0], [0.2, 0.5]]], [[1.0, 0.3], [0.3, 1.0]])
        assert not fit.stable
        with pytest.warns(RuntimeWarning, match="unstable VAR"):
            result = irf(fit, 40, n_boot=0)
        assert abs(result.responses[40, 0, 0]) > abs(result.responses[0, 0, 0])
        with pytest.warns(RuntimeWarning, match="unstable VAR"):
            shares = fevd(fit, 40)
        assert shares.shares.shape == (40, 2, 2)
        stable = manual_var_fit([[[0.5, 0.0], [0.2, 0.5]]], [[1.0, 0.3], [0.3, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            irf(stable, 40, n_boot=0)
            fevd(stable, 40)

    def test_validation_and_decomposition_errors(self):
        panel = var_sample(275, 300, A_TRUE, C_TRUE, COV_TRUE)
        fit = fit_var(panel, 1)
        with pytest.raises(ValidationError):
            irf(fit, -1)
        degenerate = manual_var_fit(
            [[[0.2, 0.0], [0.0, 0.2]]], [[1.0, 1.0], [1.0, 1.0]]
        )
        with pytest.raises(DecompositionError):
            irf(degenerate, 2, n_boot=0)


def use_cpus(monkeypatch, cpus):
    """Make `cpus` CPUs usable, so irf runs on at most that many workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def loop_bootstrap_bands(fit, h, n_boot, seed):
    """Reference bootstrap bands: one replicate at a time, each with its
    own SeedSequence child. irf's blocked replicates must match it bit
    for bit."""

    def ma_coefficients(coeff, count):
        p, k, _ = coeff.shape
        psis = np.zeros((count, k, k))
        psis[0] = np.eye(k)
        for s in range(1, count):
            acc = np.zeros((k, k))
            for lag in range(1, min(s, p) + 1):
                acc += coeff[lag - 1] @ psis[s - lag]
            psis[s] = acc
        return psis

    def orthogonal_responses(coeff, sigma):
        return ma_coefficients(coeff, h + 1) @ np.linalg.cholesky(sigma)

    def design_of(values, p):
        n = values.shape[0]
        cols = [np.ones(n - p)]
        for lag in range(1, p + 1):
            cols.append(values[p - lag : n - lag])
        return values[p:], np.column_stack(cols)

    k = fit.width
    point = orthogonal_responses(fit.coeff, fit.residual_cov)
    values = np.array(fit.panel.values)
    p = fit.p
    n = values.shape[0]
    rows = fit.n_eff
    m = k * p + 1
    deviations = np.empty((n_boot, h + 1, k, k))
    children = np.random.SeedSequence(seed).spawn(n_boot)
    for r, child in enumerate(children):
        rng = np.random.default_rng(child)
        draws = fit.residuals[rng.integers(0, rows, size=rows)]
        y_star = np.empty_like(values)
        y_star[:p] = values[:p]
        for t in range(p, n):
            acc = fit.intercept + draws[t - p]
            for lag in range(1, p + 1):
                acc = acc + fit.coeff[lag - 1] @ y_star[t - lag]
            y_star[t] = acc
        target, design = design_of(y_star, p)
        beta = np.linalg.inv(design.T @ design) @ (design.T @ target)
        resid = target - design @ beta
        sigma = resid.T @ resid / (rows - m)
        coeff = (
            beta[1:].reshape(p, k, k).transpose(0, 2, 1)
            if p > 0
            else np.zeros((0, k, k))
        )
        deviations[r] = np.abs(orthogonal_responses(coeff, sigma) - point)
    band = np.quantile(deviations, 0.95, axis=0)
    return point - band, point + band


def wide_var_sample(seed, n, k):
    """A stable VAR(1) panel of k series with correlated shocks."""
    rng = np.random.default_rng(seed)
    coefficients = 0.4 * np.eye(k) + rng.uniform(-0.03, 0.03, (k, k))
    residual_cov = 0.5 * np.eye(k) + 0.5
    return var_sample(
        seed, n, [coefficients.tolist()], [0.1] * k, residual_cov.tolist(),
        labels=[f"s{j}" for j in range(k)],
    )


def steady_var_fit(residuals):
    """A VAR(1) fit whose panel sits at its steady state (4, 4) in every
    month. Its numbers are exact in binary, so a replicate that draws
    only zero residuals stays at (4, 4) exactly."""
    residuals = np.asarray(residuals, dtype=float)
    n_eff = residuals.shape[0]
    fit = manual_var_fit([[[0.5, 0.25], [0.125, 0.25]]], np.eye(2), n_eff=n_eff)
    return dataclasses.replace(
        fit,
        intercept=np.array([1.0, 2.5]),
        residuals=residuals,
        panel=panel_of(np.full((n_eff + 1, 2), 4.0), fit.labels),
    )


class TestIrfBootstrapBatching:
    @pytest.mark.parametrize("p", [0, 1, 2, 3])
    def test_refits_equal_fit_var_on_each_replicate(self, p):
        panel = wide_var_sample(279, 160, 12)
        fit = fit_var(panel, p)
        children = np.random.SeedSequence(41).spawn(_BOOT_BLOCK)
        coeff, sigma = _bootstrap_fits(fit, children, 0)
        panels = _bootstrap_panels(fit, children)
        for r in range(len(children)):
            alone = fit_var(panel_of(panels[r], fit.labels), p)
            assert np.array_equal(coeff[r], alone.coeff), r
            assert np.array_equal(sigma[r], alone.residual_cov), r

    def test_singular_replicate_is_named(self, monkeypatch):
        # one nonzero residual, along no eigenvector of the coefficients:
        # a replicate's design has full rank only if its lags carry that
        # shock in two months or more, that is, if one of its draws but
        # the last two picks it
        rows = 8
        residuals = np.zeros((rows, 2))
        residuals[-1] = (0.5, 0.0)
        fit = steady_var_fit(residuals)
        children = np.random.SeedSequence(2).spawn(_BOOT_BLOCK + 1)
        singular = next(
            r for r, child in enumerate(children)
            if rows - 1 not in np.random.default_rng(child).integers(0, rows, rows)[:-2]
        )
        assert singular > 0
        # two blocks: on 2 CPUs the error comes back from a forked worker
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            with pytest.raises(
                SingularDesignError, match=rf"bootstrap replicate {singular} "
            ):
                irf(fit, 2, n_boot=_BOOT_BLOCK + 1, seed=2)

    @pytest.mark.parametrize("p", [0, 1, 2, 3])
    @pytest.mark.parametrize("panel_kind", ["k3", "k12"])
    def test_bands_match_one_replicate_at_a_time(self, panel_kind, p, monkeypatch):
        if panel_kind == "k3":
            panel = var_sample(
                276, 240, [[[0.4, 0.1, 0.0], [0.0, 0.3, 0.1], [0.1, 0.0, 0.2]]],
                [0.2, -0.1, 0.0], [[1.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.0]],
            )
        else:
            panel = wide_var_sample(277, 160, 12)
        # two Cholesky orders: the panel's and its reverse
        for ordered in (panel, Panel(panel.series[::-1])):
            fit = fit_var(ordered, p)
            # the last: blocks shared among workers, and a ragged tail
            for n_boot in (1, _BOOT_BLOCK, _BOOT_BLOCK + 1, 3 * _BOOT_BLOCK + 5):
                lower, upper = loop_bootstrap_bands(fit, 6, n_boot, 31)
                for cpus in (1, 2):
                    use_cpus(monkeypatch, cpus)
                    result = irf(fit, 6, n_boot=n_boot, seed=31)
                    where = (fit.labels[0], n_boot, cpus)
                    assert np.array_equal(result.lower, lower), where
                    assert np.array_equal(result.upper, upper), where

    def test_peak_memory_stays_near_the_deviation_array(self, monkeypatch):
        # the (n_boot, h+1, k, k) deviations are the one array the band
        # needs whole; the blocked replicates and the in-place quantile
        # keep everything else well under it. With workers the array is
        # in shared memory, which the parent does not allocate.
        fit = fit_var(wide_var_sample(278, 600, 30), 1)
        h, n_boot = 24, 400
        slab = n_boot * (h + 1) * fit.width**2 * 8
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            tracing = tracemalloc.is_tracing()
            if not tracing:
                tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                irf(fit, h, n_boot=n_boot, seed=5)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                if not tracing:
                    tracemalloc.stop()
            ratio = peak / slab
            assert ratio <= 1.75, f"{cpus} CPU(s): peak {ratio:.2f}x the deviation array"


def two_step_shares(a, sigma):
    """By hand, a bivariate VAR(1)'s FEVD at steps 1 and 2: the shares
    of the squared orthogonal responses chol(sigma) and a @ chol(sigma)."""
    chol = np.linalg.cholesky(sigma)
    first = chol**2
    second = first + (a @ chol) ** 2
    return np.stack([
        first / first.sum(axis=1, keepdims=True),
        second / second.sum(axis=1, keepdims=True),
    ])


class TestFevd:
    def test_shares_sum_to_one(self):
        panel = var_sample(280, 500, A_TRUE, C_TRUE, COV_TRUE)
        fit = fit_var(panel, 2)
        result = fevd(fit, 12)
        np.testing.assert_allclose(result.shares.sum(axis=2), 1.0, atol=1e-10)
        assert np.all(result.shares >= -1e-12)

    def test_decoupled_system_keeps_own_shares(self):
        fit = manual_var_fit(
            [[[0.5, 0.0], [0.0, 0.3]]], [[1.0, 0.0], [0.0, 2.0]]
        )
        result = fevd(fit, 8)
        for s in range(8):
            np.testing.assert_allclose(result.shares[s], np.eye(2), atol=1e-12)

    def test_bivariate_hand_oracle_at_two_steps(self):
        a = np.array([[0.5, 0.1], [0.2, 0.3]])
        sigma = np.array([[1.0, 0.3], [0.3, 2.0]])
        fit = manual_var_fit(a[None], sigma)
        result = fevd(fit, 2)
        np.testing.assert_allclose(result.shares, two_step_shares(a, sigma), atol=1e-10)

    def test_swapped_panel_matches_hand_oracle(self):
        panel = var_sample(281, 400, A_TRUE, C_TRUE, COV_TRUE, labels=["m", "r"])
        fit = fit_var(panel, 1)
        swapped = fevd(fit_var(Panel(panel.series[::-1]), 1), 2)
        assert swapped.labels == ("r", "m")
        # the unswapped fit's estimates, with both series' roles swapped
        a = fit.coeff[0][::-1, ::-1]
        sigma = fit.residual_cov[::-1, ::-1]
        np.testing.assert_allclose(swapped.shares, two_step_shares(a, sigma), atol=1e-10)

    def test_validation(self):
        panel = var_sample(282, 300, A_TRUE, C_TRUE, COV_TRUE)
        fit = fit_var(panel, 1)
        with pytest.raises(ValidationError):
            fevd(fit, 0)
