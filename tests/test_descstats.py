"""Moment summaries, correlograms, betas, and annual cross-sections."""

import math

import numpy as np
import pytest

from retlab.descstats import (
    JB_CRITICAL_5PCT,
    correlogram,
    cross_sectional_summary,
    describe,
    ols_beta,
    scholes_williams_beta,
    sorted_quantile,
)
from retlab.errors import (
    AlignmentError,
    DegenerateVarianceError,
    InsufficientDataError,
    SingularDenominatorError,
    ValidationError,
)
from retlab.series import Month, ReturnSeries, TimeGrid, moving_average


def series_of(values, start="2000-01", label="x"):
    values = np.asarray(values, dtype=float)
    return ReturnSeries(label, TimeGrid(Month.parse(start), len(values)), values)


class TestDescribe:
    def test_standard_normal_moments(self):
        rng = np.random.default_rng(1234)
        s = series_of(rng.standard_normal(100_000))
        stats = describe(s)
        assert abs(stats.mean) < 0.02
        assert abs(stats.sd - 1.0) < 0.01
        assert abs(stats.skewness) < 0.03
        assert abs(stats.excess_kurtosis) < 0.06
        assert stats.n == 100_000

    def test_jb_size_under_normality(self):
        # JB should stay below the 5.99 critical point about 95% of the time
        accepts = 0
        n_seeds = 200
        for seed in range(n_seeds):
            rng = np.random.default_rng(10_000 + seed)
            stats = describe(series_of(rng.standard_normal(5000)))
            accepts += stats.jarque_bera < JB_CRITICAL_5PCT
        rate = accepts / n_seeds
        assert 0.91 <= rate <= 0.99, f"JB acceptance rate {rate:.3f}"

    def test_constant_series_degenerate(self):
        with pytest.raises(DegenerateVarianceError):
            describe(series_of(np.full(20, 1.5)))

    def test_short_series_rejected(self):
        with pytest.raises(InsufficientDataError):
            describe(series_of([1.0, 2.0, 3.0]))

    def test_hand_computed_small_case(self):
        x = np.array([1.0, 2.0, 4.0, 8.0, 1.0])
        stats = describe(series_of(x))
        n = len(x)
        c = x - x.mean()
        m2 = np.mean(c**2)
        skew = np.mean(c**3) / m2**1.5
        kurt = np.mean(c**4) / m2**2 - 3.0
        assert stats.mean == pytest.approx(3.2, abs=1e-12)
        assert stats.sd == pytest.approx(np.std(x, ddof=1), abs=1e-12)
        assert stats.skewness == pytest.approx(skew, abs=1e-12)
        assert stats.excess_kurtosis == pytest.approx(kurt, abs=1e-12)
        assert stats.jarque_bera == pytest.approx(
            n / 6 * (skew**2 + kurt**2 / 4), abs=1e-12
        )

    def test_jb_affine_invariance(self):
        rng = np.random.default_rng(55)
        x = rng.standard_normal(500)
        a = describe(series_of(x))
        b = describe(series_of(2.5 * x + 7.0))
        assert b.jarque_bera == pytest.approx(a.jarque_bera, rel=1e-9)
        assert b.skewness == pytest.approx(a.skewness, rel=1e-9)

    def test_negation_flips_skew_only(self):
        rng = np.random.default_rng(56)
        x = rng.standard_normal(300) ** 3  # heavily skewed
        a = describe(series_of(x / 100))
        b = describe(series_of(-x / 100))
        assert b.skewness == -a.skewness
        assert b.sd == a.sd
        assert b.excess_kurtosis == a.excess_kurtosis
        assert b.jarque_bera == a.jarque_bera


class TestCorrelogram:
    def test_lag_zero_is_exactly_one(self):
        rng = np.random.default_rng(2)
        s = series_of(rng.standard_normal(100))
        entries = correlogram(s, s, 5)
        assert entries[0].lag == 0
        assert entries[0].value == 1.0

    def test_auto_case_covers_nonnegative_lags(self):
        rng = np.random.default_rng(3)
        s = series_of(rng.standard_normal(50))
        entries = correlogram(s, s, 4)
        assert [e.lag for e in entries] == [0, 1, 2, 3, 4]

    def test_cross_case_covers_signed_lags(self):
        rng = np.random.default_rng(4)
        x = series_of(rng.standard_normal(50), label="x")
        y = series_of(rng.standard_normal(50), label="y")
        entries = correlogram(x, y, 3)
        assert [e.lag for e in entries] == [-3, -2, -1, 0, 1, 2, 3]

    def test_ma3_lag1_autocorrelation_two_thirds(self):
        rng = np.random.default_rng(907)
        noise = series_of(rng.standard_normal(100_000))
        smoothed = moving_average(noise, 3)
        entries = correlogram(smoothed, smoothed, 2)
        assert abs(entries[1].value - 2.0 / 3.0) < 0.01, f"lag1 {entries[1].value:.4f}"

    def test_band_width(self):
        rng = np.random.default_rng(5)
        s = series_of(rng.standard_normal(400))
        entries = correlogram(s, s, 3)
        assert entries[0].band == pytest.approx(1.96 / 20.0, abs=1e-15)

    def test_independent_pair_stays_inside_bands(self):
        inside = total = 0
        for seed in range(40):
            rng = np.random.default_rng(600 + seed)
            x = series_of(rng.standard_normal(2000), label="x")
            y = series_of(rng.standard_normal(2000), label="y")
            for e in correlogram(x, y, 20):
                inside += abs(e.value) <= e.band
                total += 1
        rate = inside / total
        assert 0.93 <= rate <= 0.97, f"inside-band rate {rate:.3f}"

    def test_values_bounded_by_one(self):
        rng = np.random.default_rng(6)
        base = rng.standard_normal(60)
        x = series_of(base, label="x")
        y = series_of(base * 3.0 + rng.standard_normal(60) * 0.01, label="y")
        for e in correlogram(x, y, 10):
            assert abs(e.value) <= 1.0

    def test_misaligned_grids_rejected(self):
        x = series_of(np.zeros(30) + np.arange(30), label="x")
        y = series_of(np.arange(30), start="2000-02", label="y")
        with pytest.raises(AlignmentError):
            correlogram(x, y, 2)

    def test_max_lag_bound(self):
        s = series_of(np.arange(10, dtype=float))
        with pytest.raises(ValidationError):
            correlogram(s, s, 5)


class TestOlsBeta:
    def test_self_beta_is_one(self):
        rng = np.random.default_rng(7)
        m = series_of(rng.standard_normal(100), label="m")
        assert ols_beta(m, m) == 1.0

    def test_constant_series_beta_zero(self):
        rng = np.random.default_rng(8)
        m = series_of(rng.standard_normal(100), label="m")
        s = series_of(np.full(100, 2.0), label="s")
        assert ols_beta(s, m) == 0.0

    def test_scale_equivariance(self):
        rng = np.random.default_rng(9)
        m = series_of(rng.standard_normal(500), label="m")
        s = series_of(0.6 * m.values + rng.standard_normal(500), label="s")
        scaled = series_of(3.0 * s.values, label="s3")
        assert ols_beta(scaled, m) == pytest.approx(3.0 * ols_beta(s, m), rel=1e-12)

    def test_zero_market_variance_rejected(self):
        s = series_of(np.arange(10, dtype=float), label="s")
        m = series_of(np.full(10, 1.0), label="m")
        with pytest.raises(DegenerateVarianceError):
            ols_beta(s, m)


class TestScholesWilliamsBeta:
    def test_identity_on_ar1_market(self):
        # y equal to the market: the three slopes and rho_m cancel to ~1
        rng = np.random.default_rng(77)
        n = 20_000
        m = np.empty(n)
        m[0] = 0.0
        for t in range(1, n):
            m[t] = 0.4 * m[t - 1] + rng.standard_normal()
        market = series_of(m, label="m")
        y = series_of(m, label="y")
        assert scholes_williams_beta(y, market) == pytest.approx(1.0, abs=0.02)

    def test_reduces_to_ols_for_white_noise_market(self):
        rng = np.random.default_rng(78)
        n = 50_000
        m = rng.standard_normal(n)
        s = 0.7 * m + rng.standard_normal(n) * 0.5
        market = series_of(m, label="m")
        stock = series_of(s, label="s")
        sw = scholes_williams_beta(stock, market)
        ols = ols_beta(stock, market)
        assert abs(sw - ols) < 0.02

    def test_smoothing_raises_sw_above_ols(self):
        # a smoothed dependent series understates the OLS slope; the
        # lead/lag correction recovers part of it on every seed tried
        for seed in range(5):
            rng = np.random.default_rng(800 + seed)
            n = 30_000
            m = rng.standard_normal(n)
            market = series_of(m, label="m")
            smoothed = moving_average(series_of(m, label="y"), 3)
            market_cut = market.restrict(smoothed.grid)
            sw = scholes_williams_beta(smoothed, market_cut)
            ols = ols_beta(smoothed, market_cut)
            assert sw > ols, f"seed {seed}: sw {sw:.4f} <= ols {ols:.4f}"

    def test_singular_denominator(self):
        # (1, -1, 0, 0) has lag-1 autocorrelation exactly -1/2: the
        # centered values give num -1 over denom 2, so 1 + 2*rho == 0
        market = series_of([1.0, -1.0, 0.0, 0.0], label="m")
        rho = correlogram(market, market, 1)[1].value
        assert rho == pytest.approx(-0.5, abs=1e-15)
        with pytest.raises(SingularDenominatorError):
            scholes_williams_beta(market, market)

    def test_short_series_rejected(self):
        s = series_of([1.0, 2.0])
        with pytest.raises(InsufficientDataError):
            scholes_williams_beta(s, s)


class TestCrossSectionalSummary:
    @staticmethod
    def year_series(year, values, label):
        return ReturnSeries(label, TimeGrid(Month(year, 1), len(values)), np.asarray(values, dtype=float))

    def test_single_zero_asset(self):
        market = self.year_series(2001, np.random.default_rng(1).standard_normal(12), "m")
        asset = self.year_series(2001, np.zeros(12), "a")
        rows = cross_sectional_summary([asset], market)
        assert len(rows) == 1
        row = rows[0]
        assert (row.year, row.n_assets) == (2001, 1)
        assert row.mean_of_means == 0.0
        assert row.mean_of_sds == 0.0
        assert row.mean_beta == 0.0
        assert row.sd_beta == 0.0

    def test_mean_of_means_hand_arithmetic(self):
        rng = np.random.default_rng(13)
        market = self.year_series(2001, rng.standard_normal(12), "m")
        a = self.year_series(2001, np.full(12, 1.0) + 0.0, "a")
        b = self.year_series(2001, np.full(12, 3.0) + 0.0, "b")
        rows = cross_sectional_summary([a, b], market)
        assert rows[0].mean_of_means == pytest.approx(2.0, abs=1e-12)

    def test_partial_years_excluded(self):
        rng = np.random.default_rng(14)
        market = ReturnSeries(
            "m", TimeGrid(Month(2000, 1), 36), rng.standard_normal(36)
        )
        # asset starts in March 2000: 2000 must be dropped, 2001-2002 kept
        asset = ReturnSeries(
            "a", TimeGrid(Month(2000, 3), 34), rng.standard_normal(34)
        )
        rows = cross_sectional_summary([asset], market)
        assert [r.year for r in rows] == [2001, 2002]

    def test_mean_of_sds_definition(self):
        rng = np.random.default_rng(15)
        market = self.year_series(2001, rng.standard_normal(12), "m")
        a_vals = rng.standard_normal(12) * 2.0
        b_vals = rng.standard_normal(12) * 5.0
        a = self.year_series(2001, a_vals, "a")
        b = self.year_series(2001, b_vals, "b")
        rows = cross_sectional_summary([a, b], market)
        expected = (np.std(a_vals, ddof=1) + np.std(b_vals, ddof=1)) / 2
        assert rows[0].mean_of_sds == pytest.approx(expected, rel=1e-12)

    def test_betas_against_market(self):
        rng = np.random.default_rng(16)
        m_vals = rng.standard_normal(12)
        market = self.year_series(2001, m_vals, "m")
        a = self.year_series(2001, 2.0 * m_vals, "a")
        b = self.year_series(2001, -1.0 * m_vals, "b")
        rows = cross_sectional_summary([a, b], market)
        assert rows[0].mean_beta == pytest.approx(0.5, abs=1e-12)
        assert rows[0].sd_beta == pytest.approx(np.std([2.0, -1.0], ddof=1), rel=1e-12)


class TestSortedQuantile:
    @pytest.mark.parametrize("seed", range(20))
    def test_bit_equal_to_np_quantile(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 400))
        values = rng.standard_t(3, (n, 3)) * 10.0 ** rng.integers(-3, 4)
        values[rng.random((n, 3)) < 0.3] = 1.0  # ties
        ordered = np.sort(values, axis=0)
        for q in [0.0, 0.05, 0.5, 0.9, 0.95, 0.999, 1.0, rng.random()]:
            expected = np.quantile(values, q, axis=0)
            assert sorted_quantile(ordered, q).tobytes() == expected.tobytes()
            assert sorted_quantile(ordered[:, 0], q) == np.quantile(values[:, 0], q)
