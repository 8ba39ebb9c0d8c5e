"""Value-at-Risk and expected-shortfall tests against closed forms,
quadrature, an independent root finder, and Monte-Carlo simulation."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.stats import kurtosis, norm

from retlab import risk
from retlab.distfit import (
    GpdFit,
    MixtureFit,
    fit_garch11,
    fit_gpd_pot,
    fit_mixture_em,
    mixture_cdf,
    mixture_pdf,
)
from retlab.errors import (
    InfiniteMeanError,
    OutOfTailError,
    ValidationError,
)
from retlab.risk import (
    RiskConfig,
    average_loss,
    loss_fractile,
    risk_jobs,
    risk_report,
)
from retlab.series import Month, Panel, ReturnSeries, TimeGrid
from retlab.synth import GeneratorSpec, generate


def series_of(values, start="2000-01", label="x"):
    values = np.asarray(values, dtype=float)
    return ReturnSeries(label, TimeGrid(Month.parse(start), len(values)), values)


def mixture_fit_of(weights, means, sds, n=1000):
    """Hand-built mixture with self-consistent bookkeeping fields."""
    ll = -123.0
    k = len(weights)
    return MixtureFit(
        k=k,
        weights=np.asarray(weights, dtype=float),
        means=np.asarray(means, dtype=float),
        sds=np.asarray(sds, dtype=float),
        log_likelihood=ll,
        bic=-2.0 * ll + (3 * k - 1) * math.log(n),
        n=n,
        converged=True,
        n_iter=1,
        sd_floor_hit=False,
        log_likelihood_path=np.array([ll]),
    )


def gpd_fit_of(threshold=5.0, xi=0.3, beta=2.0, rate=0.1, n_exc=2000):
    return GpdFit(
        threshold_u=threshold,
        shape_xi=xi,
        scale_beta=beta,
        n_exceedances=n_exc,
        exceedance_rate=rate,
        log_likelihood=-1.0,
        score_norm=0.0,
        infinite_mean=xi >= 1.0,
    )


TWO_COMP = dict(weights=(0.8, 0.2), means=(0.5, 1.0), sds=(1.0, 4.0))


def draw_two_comp(rng, n):
    idx = (rng.random(n) >= TWO_COMP["weights"][0]).astype(int)
    means = np.asarray(TWO_COMP["means"])
    sds = np.asarray(TWO_COMP["sds"])
    return means[idx] + sds[idx] * rng.standard_normal(n)


class TestLossFractile:
    def test_standard_normal_quantile(self):
        fit = mixture_fit_of([1.0], [0.0], [1.0])
        assert loss_fractile(fit, 0.95) == pytest.approx(1.6449, abs=1e-4)
        # the 0.999 fractile sits 3.09 sds out under a Gaussian
        assert loss_fractile(fit, 0.999) == pytest.approx(3.0902, abs=1e-3)

    def test_location_scale_shift(self):
        fit = mixture_fit_of([1.0], [0.3], [2.0])
        expected = 0.3 + 2.0 * norm.ppf(0.95)
        assert loss_fractile(fit, 0.95) == pytest.approx(expected, abs=1e-8)

    def test_bisection_matches_independent_root_finder(self):
        fit = mixture_fit_of(**TWO_COMP)
        for p in (0.9, 0.95, 0.99, 0.999):
            direct = brentq(
                lambda v: float(mixture_cdf(fit, v)[0]) - p, -170.0, 170.0,
                xtol=1e-12,
            )
            assert loss_fractile(fit, p) == pytest.approx(direct, abs=1e-8)

    def test_mixture_fractile_strictly_increasing(self):
        fit = mixture_fit_of(**TWO_COMP)
        v = [loss_fractile(fit, p) for p in (0.95, 0.99, 0.999)]
        assert v[0] < v[1] < v[2]

    def test_mixture_quantile_against_monte_carlo(self):
        fit = mixture_fit_of(**TWO_COMP)
        rng = np.random.default_rng(81)
        draws = draw_two_comp(rng, 1_000_000)
        for p in (0.95, 0.99):
            assert loss_fractile(fit, p) == pytest.approx(
                np.quantile(draws, p), abs=0.05
            )

    def test_gpd_closed_form(self):
        fit = gpd_fit_of()
        expected = 5.0 + (2.0 / 0.3) * ((0.001 / 0.1) ** -0.3 - 1.0)
        assert loss_fractile(fit, 0.999) == pytest.approx(expected, rel=1e-12)

    def test_gpd_zero_shape_limit(self):
        fit = gpd_fit_of(xi=0.0)
        expected = 5.0 + 2.0 * math.log(0.1 / 0.01)
        assert loss_fractile(fit, 0.99) == pytest.approx(expected, rel=1e-12)
        # tiny nonzero shape stays continuous with the limit form
        near = loss_fractile(gpd_fit_of(xi=1e-9), 0.99)
        assert near == pytest.approx(expected, rel=1e-6)

    def test_gpd_below_threshold_coverage(self):
        fit = gpd_fit_of(rate=0.1)
        with pytest.raises(OutOfTailError):
            loss_fractile(fit, 0.85)
        with pytest.raises(OutOfTailError):
            loss_fractile(fit, 0.90)  # exactly at coverage is still outside

    def test_garch_quantile_uses_requested_conditioning(self):
        rng = np.random.default_rng(82)
        fit = fit_garch11(series_of(2.0 * rng.standard_normal(2000)))
        z = norm.ppf(0.99)
        one_step = fit.mu + math.sqrt(fit.one_step_variance) * z
        uncond = fit.mu + math.sqrt(fit.unconditional_variance) * z
        assert loss_fractile(fit, 0.99) == pytest.approx(one_step, rel=1e-12)
        assert loss_fractile(
            fit, 0.99, garch_conditioning="unconditional"
        ) == pytest.approx(uncond, rel=1e-12)

    def test_fractile_validation(self):
        fit = mixture_fit_of([1.0], [0.0], [1.0])
        for bad in (0.5, 1.0, 0.3, -0.1):
            with pytest.raises(ValidationError):
                loss_fractile(fit, bad)
        with pytest.raises(ValidationError):
            loss_fractile("not a fit", 0.95)


class TestAverageLoss:
    def test_standard_normal_expected_shortfall(self):
        fit = mixture_fit_of([1.0], [0.0], [1.0])
        # phi(1.6449)/0.05
        assert average_loss(fit, 0.95) == pytest.approx(2.0627, abs=1e-3)

    def test_mixture_tail_mean_against_quadrature(self):
        fit = mixture_fit_of(**TWO_COMP)
        for p in (0.95, 0.99):
            v = loss_fractile(fit, p)
            hi = float(np.max(fit.means + 60.0 * fit.sds))
            num, _ = quad(lambda t: t * float(mixture_pdf(fit, t)[0]), v, hi)
            den, _ = quad(lambda t: float(mixture_pdf(fit, t)[0]), v, hi)
            assert average_loss(fit, p) == pytest.approx(num / den, rel=1e-6)

    def test_mixture_tail_mean_against_monte_carlo(self):
        fit = mixture_fit_of(**TWO_COMP)
        rng = np.random.default_rng(83)
        draws = draw_two_comp(rng, 1_000_000)
        v = loss_fractile(fit, 0.99)
        assert average_loss(fit, 0.99) == pytest.approx(
            draws[draws > v].mean(), abs=0.1
        )

    def test_gpd_closed_form_and_simulation(self):
        fit = gpd_fit_of()
        p = 0.99
        v = loss_fractile(fit, p)
        expected = v / 0.7 + (2.0 - 0.3 * 5.0) / 0.7
        assert average_loss(fit, p) == pytest.approx(expected, rel=1e-12)
        rng = np.random.default_rng(84)
        u = rng.uniform(size=1_000_000)
        exceed = 5.0 + (2.0 / 0.3) * ((1.0 - u) ** -0.3 - 1.0)
        assert average_loss(fit, p) == pytest.approx(
            exceed[exceed > v].mean(), abs=0.1
        )

    def test_gpd_infinite_mean(self):
        fit = gpd_fit_of(xi=1.2)
        # the quantile stays finite, only the tail mean diverges
        assert loss_fractile(fit, 0.999) > fit.threshold_u
        with pytest.raises(InfiniteMeanError):
            average_loss(fit, 0.999)

    def test_garch_tail_mean_formula(self):
        rng = np.random.default_rng(85)
        fit = fit_garch11(series_of(1.5 * rng.standard_normal(1500)))
        p = 0.95
        sigma = math.sqrt(fit.one_step_variance)
        z = norm.ppf(p)
        expected = fit.mu + sigma * norm.pdf(z) / (1.0 - p)
        assert average_loss(fit, p) == pytest.approx(expected, rel=1e-12)
        assert average_loss(fit, p) > loss_fractile(fit, p)

    def test_tail_mean_dominates_fractile(self):
        mix = mixture_fit_of(**TWO_COMP)
        gpd = gpd_fit_of()
        for p in (0.95, 0.99, 0.999, 0.9995):
            assert average_loss(mix, p) >= loss_fractile(mix, p)
            assert average_loss(gpd, p) >= loss_fractile(gpd, p)


def gaussian_sample(seed, n=5000, mean=0.0, sd=1.0):
    spec = GeneratorSpec(
        kind="mixture",
        n=n,
        seed=seed,
        parameters={"weights": [1.0], "means": [mean], "sds": [sd]},
    )
    return generate(spec)


class TestRiskReport:
    def test_models_agree_on_gaussian_data(self):
        report = risk_report(gaussian_sample(seed=90))
        losses = [report.cell(m, 0.95).loss for m in ("EM", "GPD", "GARCH")]
        assert all(v is not None for v in losses)
        spread = max(losses) - min(losses)
        assert spread < 0.15, f"0.95 losses disagree: {losses}"

    def test_losses_monotone_and_tail_mean_dominates(self):
        report = risk_report(gaussian_sample(seed=91))
        for model in ("EM", "GPD", "GARCH"):
            cells = [report.cell(model, p) for p in (0.95, 0.99, 0.999)]
            values = [c.loss for c in cells]
            assert values[0] < values[1] < values[2]
            for c in cells:
                assert c.average_loss >= c.loss

    def test_cell_accessor(self):
        report = risk_report(gaussian_sample(seed=92, n=1000))
        assert report.cell("EM", 0.95).model == "EM"
        with pytest.raises(KeyError):
            report.cell("EM", 0.42)

    def test_fitter_failures_are_captured_per_cell(self):
        rng = np.random.default_rng(93)
        # 90 points: mixture fits, but the tail keeps only 9 exceedances
        # and the GARCH fitter wants 100 observations
        report = risk_report(series_of(rng.standard_normal(90)))
        assert set(report.fit_errors) == {"GPD", "GARCH"}
        assert report.mixture is not None
        assert report.gpd is None and report.garch is None
        for p in report.fractiles:
            assert report.cell("EM", p).loss is not None
            for model in ("GPD", "GARCH"):
                cell = report.cell(model, p)
                assert cell.loss is None and cell.error

    def test_month_above_plus_100_pct_fits_every_model(self):
        # its loss is below -100, which bounds returns but not losses
        values = np.random.default_rng(7).normal(0.9, 4.9, 360)
        values[100] = 120.0
        # the GARCH fit ends near-integrated
        with pytest.warns(RuntimeWarning, match="near 1"):
            report = risk_report(series_of(values))
        assert report.fit_errors == {}
        assert len(report.cells) == 9
        assert all(c.error is None and c.loss is not None for c in report.cells)

    def test_out_of_tail_query_fails_only_its_own_cell(self):
        config = RiskConfig(fractiles=(0.85, 0.99))
        # the GARCH fit ends near-integrated
        with pytest.warns(RuntimeWarning, match="near 1"):
            report = risk_report(gaussian_sample(seed=94, n=2000), config=config)
        shallow = report.cell("GPD", 0.85)
        assert shallow.loss is None and "coverage" in shallow.error
        assert report.cell("GPD", 0.99).loss is not None
        assert report.cell("EM", 0.85).loss is not None

    def test_residual_basis_reduces_risk(self):
        spec = GeneratorSpec(
            kind="factor-panel",
            n=400,
            seed=95,
            parameters={
                "loadings": [[1.5], [2.0], [2.5], [2.0]],
                "factor_sds": [3.0],
                "idio_sds": [1.0, 1.0, 1.0, 1.0],
                "means": [0.5, 0.5, 0.5, 0.5],
            },
        )
        panel = generate(spec)
        target = panel.series[0]
        # both GARCH fits, on raw returns and on residuals, end near-integrated
        with pytest.warns(RuntimeWarning, match="near 1"):
            raw = risk_report(target)
        jobs, sweep_errors = risk_jobs([target], panel, 1)
        assert sweep_errors == {}
        assert [basis for _, basis in jobs] == ["raw-returns"] + ["residuals"] * 4
        resid_target, _ = jobs[1]
        assert resid_target.label == target.label
        with pytest.warns(RuntimeWarning, match="near 1"):
            resid = risk_report(resid_target)
        assert resid.cell("EM", 0.95).loss < raw.cell("EM", 0.95).loss

    def test_thick_tails_beat_the_gaussian_baseline(self):
        spec = GeneratorSpec(
            kind="mixture",
            n=20_000,
            seed=98,
            parameters={"weights": [0.9, 0.1], "means": [0.0, 0.0], "sds": [1.0, 5.0]},
        )
        s = generate(spec)
        losses = series_of(-s.values)
        fit = fit_mixture_em(losses, k_max=2)
        # moment check: the fitted mixture really is thick-tailed
        assert kurtosis(s.values, fisher=True) > 1.0
        mean = float(np.sum(fit.weights * fit.means))
        var = float(np.sum(fit.weights * (fit.sds**2 + fit.means**2)) - mean**2)
        gaussian_999 = mean + math.sqrt(var) * norm.ppf(0.999)
        assert loss_fractile(fit, 0.999) > gaussian_999

    def test_report_is_deterministic(self):
        s = gaussian_sample(seed=99, n=1500)
        a = risk_report(s)
        b = risk_report(s)
        for cell_a, cell_b in zip(a.cells, b.cells):
            assert cell_a.loss == cell_b.loss
            assert cell_a.average_loss == cell_b.average_loss

    def test_query_and_config_validation(self, monkeypatch):
        with pytest.raises(ValidationError, match=r"fractile must lie in \(0.5, 1\), got 0.5"):
            RiskConfig(fractiles=(0.95, 0.5))
        with pytest.raises(ValidationError, match=r"got 1.0"):
            RiskConfig(fractiles=(1.0,))

        def no_fit(*args, **kwargs):
            raise AssertionError("fitted while making the jobs")

        # the stage's jobs carry one of the two bases and fit nothing
        monkeypatch.setattr(risk, "fit_mixture_em", no_fit)
        panel = Panel(tuple(
            series_of(gaussian_sample(seed=seed, n=200).values, label=label)
            for seed, label in ((1, "a"), (2, "b"))
        ))
        jobs, sweep_errors = risk_jobs(list(panel.series), panel, 1)
        assert sweep_errors == {}
        assert [(s.label, basis) for s, basis in jobs] == [
            ("a", "raw-returns"), ("b", "raw-returns"),
            ("a", "residuals"), ("b", "residuals"),
        ]
        # no residual basis once the factors span the panel
        assert risk_jobs(list(panel.series), panel, 2) == (
            [(s, "raw-returns") for s in panel.series], {}
        )
        with pytest.raises(ValidationError):
            RiskConfig(fractiles=())
        with pytest.raises(ValidationError):
            RiskConfig(garch_conditioning="two-step")

    @pytest.mark.parametrize("setting, fitter, argument, value, message", [
        ("mixture_k_max", fit_mixture_em, "k_max", 5, "k_max must be 1, 2, or 3, got 5"),
        ("mixture_k_max", fit_mixture_em, "k_max", 0, "k_max must be 1, 2, or 3, got 0"),
        ("gpd_threshold_quantile", fit_gpd_pot, "threshold_quantile", 1.5,
         r"threshold quantile must lie in \(0,1\), got 1.5"),
        ("gpd_threshold_quantile", fit_gpd_pot, "threshold_quantile", 0.0,
         r"threshold quantile must lie in \(0,1\), got 0.0"),
    ])
    def test_config_rejects_what_the_fitters_reject(self, setting, fitter, argument, value, message):
        # the fitter's own text, so a bad setting fails when the config is
        # made rather than filling every cell's note
        with pytest.raises(ValidationError, match=f"^{message}$"):
            RiskConfig(**{setting: value})
        with pytest.raises(ValidationError, match=f"^{message}$"):
            fitter(gaussian_sample(seed=3, n=200), **{argument: value})
