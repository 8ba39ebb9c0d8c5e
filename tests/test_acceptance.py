"""Acceptance gate: seven numbered criteria with fixed tolerances and budgets.

Each criterion runs as one test. Runtime ceilings are asserted inside the
test bodies, every random draw is seeded, and conftest prints a PASS/FAIL
summary line per criterion at the end of the session.
"""

import math
import time
from importlib import resources

import numpy as np
from scipy.signal import lfilter
from scipy.special import ndtri
from scipy.stats import chi2

from retlab.cli.main import main
from retlab.descstats import JB_CRITICAL_5PCT, describe, ols_beta
from retlab.distfit import (
    MixtureFit,
    arch_lm_test,
    fit_garch11,
    fit_gpd_pot,
    fit_mixture_em,
)
from retlab.risk import average_loss, loss_fractile
from retlab.series import (
    LogPriceSeries,
    Month,
    Panel,
    ReturnSeries,
    TimeGrid,
    moving_average,
)
from retlab.synth import GeneratorSpec, generate
from retlab.varmodel import (
    fevd,
    fit_var,
    forecast,
    granger_causality,
    irf,
    select_lag,
    unit_root_tests,
)


def series_of(values, start="1950-01", label="x"):
    values = np.asarray(values, dtype=float)
    return ReturnSeries(label, TimeGrid(Month.parse(start), len(values)), values)


def panel_of(columns, labels, start="1950-01"):
    columns = np.asarray(columns, dtype=float)
    grid = TimeGrid(Month.parse(start), columns.shape[0])
    return Panel(
        tuple(
            ReturnSeries(label, grid, columns[:, j]) for j, label in enumerate(labels)
        )
    )


def mixture_sample(seed, n=20_000, weights=(0.9, 0.1), means=(0.0, 0.0), sds=(1.0, 5.0)):
    spec = GeneratorSpec(
        kind="mixture",
        n=n,
        seed=seed,
        parameters={"weights": list(weights), "means": list(means), "sds": list(sds)},
    )
    return generate(spec)


GPD_TAIL_SPEC = GeneratorSpec(
    kind="gpd-tail",
    n=20_000,
    seed=43,
    parameters={"shape": 0.3, "scale": 1.0, "rate": 0.10, "threshold": 5.0},
)

A_VAR = np.array([[[0.5, 0.1], [0.0, 0.3]]])
C_VAR = np.array([0.2, -0.1])
COV_VAR = np.array([[1.0, 0.3], [0.3, 1.0]])


def var_panel(seed, n):
    spec = GeneratorSpec(
        kind="var",
        n=n,
        seed=seed,
        parameters={
            "intercept": C_VAR.tolist(),
            "coefficients": A_VAR.tolist(),
            "residual_cov": COV_VAR.tolist(),
        },
    )
    return generate(spec)


def plain_normal_fit(mean, sd, n=360):
    """Single-component MixtureFit with prescribed moments."""
    return MixtureFit(
        k=1,
        weights=np.array([1.0]),
        means=np.array([mean]),
        sds=np.array([sd]),
        log_likelihood=0.0,
        bic=2.0 * math.log(n),
        n=n,
        converged=True,
        n_iter=1,
        sd_floor_hit=False,
        log_likelihood_path=np.array([0.0]),
    )


def stratified_mixture_losses(fit, n, rng):
    """n draws from a fitted mixture, stratified for a tight oracle.

    Risk models treat the fitted law as the loss distribution, so draws
    are losses as-is. Proportional component allocation plus jittered
    stratified uniforms through the normal quantile function drive the
    empirical-tail error down to O(1/n), so the comparison tolerances
    sit far above whatever simulation noise remains.
    """
    counts = np.floor(fit.weights * n).astype(int)
    counts[0] += n - counts.sum()
    parts = []
    for m in range(fit.k):
        u = (np.arange(counts[m]) + rng.random(counts[m])) / counts[m]
        np.clip(u, 1e-12, 1.0 - 1e-12, out=u)
        parts.append(fit.means[m] + fit.sds[m] * ndtri(u))
    return np.concatenate(parts)


def stratified_gpd_exceedances(fit, n, rng):
    """n exceedances over the threshold from a fitted GPD tail."""
    u = (np.arange(n) + rng.random(n)) / n
    np.clip(u, 1e-12, 1.0 - 1e-12, out=u)
    return fit.scale_beta / fit.shape_xi * ((1.0 - u) ** (-fit.shape_xi) - 1.0)


def ar1(rng, n, rho):
    return lfilter([1.0], [1.0, -rho], rng.standard_normal(n))


def test_criterion_1_arithmetic_reproduction(criterion_note):
    """Documented arithmetic chains reproduce at printed precision."""
    started = time.perf_counter()

    # volatility ratio of a raw index to its smoothed counterpart
    assert abs(4.916 / 0.907 - 5.42) <= 1e-3

    # Gaussian 0.999 loss fractile sits 3.09 sds out, checked through
    # the analytic mixture machinery with a unit normal
    z = loss_fractile(plain_normal_fit(0.0, 1.0), 0.999)
    assert abs(z - 3.09) <= 1e-3, f"unit normal 0.999 fractile {z:.4f}"

    # the same fractile at monthly moments mean 0.884, sd 4.916 implies
    # a return near -14.3 pct; quoted to one decimal, so half-ulp 0.05.
    # Risk models live on the loss scale, so the mean enters negated.
    implied = -loss_fractile(plain_normal_fit(-0.884, 4.916), 0.999)
    assert abs(implied - (-14.3)) <= 0.05, f"implied return {implied:.4f}"

    # residual-sd chain: total sd 5.242 at R^2 0.903 leaves 1.63, the
    # 0.95 excess-loss point 3.462 is 2.12 of those, and the Gaussian
    # counterpart multiplies the printed values 1.65 and 1.63
    resid_sd = 5.242 * math.sqrt(1.0 - 0.903)
    assert abs(resid_sd - 1.63) <= 5e-3, f"residual sd {resid_sd:.4f}"
    assert abs(3.462 / resid_sd - 2.12) <= 5e-3
    assert abs(1.65 * 1.63 - 2.69) <= 1e-3

    # chi-square(2) 5 pct critical value used by the JB test
    assert abs(float(chi2.ppf(0.95, 2)) - 5.99) <= 5e-3
    assert abs(JB_CRITICAL_5PCT - 5.99) <= 5e-3

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s, budget 1s"
    criterion_note(1, f"all chains at printed precision, {elapsed:.2f}s")


def test_criterion_2_distribution_fitter_recovery(criterion_note):
    """GARCH, GPD, and mixture fitters recover seeded synthetic truths."""
    started = time.perf_counter()

    garch_spec = GeneratorSpec(
        kind="garch",
        n=5000,
        seed=42,
        parameters={"omega": 0.1, "alpha": 0.1, "beta": 0.8},
    )
    g = fit_garch11(generate(garch_spec))
    assert abs(g.alpha - 0.1) <= 0.05, f"alpha {g.alpha:.3f} vs 0.1"
    assert abs(g.beta - 0.8) <= 0.05, f"beta {g.beta:.3f} vs 0.8"

    p = fit_gpd_pot(generate(GPD_TAIL_SPEC), threshold_quantile=0.90)
    assert p.n_exceedances == 2000
    assert abs(p.shape_xi - 0.3) <= 0.08, f"xi {p.shape_xi:.3f} vs 0.3"

    selected_two = 0
    canonical = None
    for seed in range(200):
        fit = fit_mixture_em(mixture_sample(seed), k_max=3)
        selected_two += fit.k == 2
        if seed == 0:
            canonical = fit
    assert canonical.k == 2
    # components sort by ascending sd, so index 0 is the w=0.9 bulk
    assert abs(canonical.weights[0] - 0.9) <= 0.03, f"weights {canonical.weights}"
    assert abs(canonical.weights[1] - 0.1) <= 0.03, f"weights {canonical.weights}"
    assert selected_two >= 190, f"BIC chose k=2 in {selected_two}/200 seeds"

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"criterion 2 took {elapsed:.1f}s, budget 120s"
    criterion_note(2, f"k=2 in {selected_two}/200 seeds, {elapsed:.1f}s")


def test_criterion_3_risk_oracle_equivalence(criterion_note):
    """Analytic loss fractiles and average losses match 1e7-draw MC."""
    started = time.perf_counter()
    rng = np.random.default_rng(1234)
    draws = 10_000_000
    fractiles = (0.95, 0.99, 0.999)

    suite = [
        fit_mixture_em(mixture_sample(0), k_max=3),
        fit_mixture_em(mixture_sample(1, sds=(1.0, 2.5)), k_max=3),
        fit_mixture_em(
            mixture_sample(2, weights=(1.0,), means=(0.0,), sds=(1.5,)), k_max=3
        ),
        fit_mixture_em(
            mixture_sample(
                3, weights=(0.7, 0.2, 0.1), means=(0.0, 0.0, 0.0), sds=(0.8, 2.0, 6.0)
            ),
            k_max=3,
        ),
    ]
    checked = 0
    for fit in suite:
        losses = stratified_mixture_losses(fit, draws, rng)
        for p in fractiles:
            var_analytic = loss_fractile(fit, p)
            es_analytic = average_loss(fit, p)
            var_mc = float(np.quantile(losses, p))
            es_mc = float(losses[losses >= var_mc].mean())
            assert abs(var_analytic - var_mc) <= 0.02, (
                f"k={fit.k} p={p}: fractile {var_analytic:.4f} vs MC {var_mc:.4f}"
            )
            assert abs(es_analytic - es_mc) <= 0.05, (
                f"k={fit.k} p={p}: average loss {es_analytic:.4f} vs MC {es_mc:.4f}"
            )
            assert es_analytic >= var_analytic
            assert es_mc >= var_mc
            checked += 1
        del losses

    gpd = fit_gpd_pot(generate(GPD_TAIL_SPEC), threshold_quantile=0.90)
    exceedances = stratified_gpd_exceedances(gpd, draws, rng)
    for p in fractiles:
        var_analytic = loss_fractile(gpd, p)
        es_analytic = average_loss(gpd, p)
        # fractile p maps to the upper 1-(1-p)/rate fraction of exceedances
        tail_level = 1.0 - (1.0 - p) / gpd.exceedance_rate
        cut = float(np.quantile(exceedances, tail_level))
        es_mc = gpd.threshold_u + float(exceedances[exceedances >= cut].mean())
        assert abs(es_analytic - es_mc) <= 0.05, (
            f"GPD p={p}: average loss {es_analytic:.4f} vs MC {es_mc:.4f}"
        )
        assert es_analytic >= var_analytic
        checked += 1

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"criterion 3 took {elapsed:.1f}s, budget 120s"
    criterion_note(3, f"{checked} fractile/average-loss checks, {elapsed:.1f}s")


def test_criterion_4_var_suite(criterion_note):
    """VAR estimation, lag choice, IRF, FEVD, forecasting, causality."""
    started = time.perf_counter()

    fit = fit_var(var_panel(7, 2000), 1)
    worst = np.max(np.abs(fit.coeff[0] - A_VAR[0]))
    assert worst <= 0.05, f"coefficient error {worst:.4f}"

    picked = sum(select_lag(var_panel(100 + s, 400), 4) == 1 for s in range(40))
    assert picked >= 36, f"BIC picked the true lag in {picked}/40 seeds"

    decomposition = fevd(fit, 12)
    assert np.max(np.abs(decomposition.shares.sum(axis=-1) - 1.0)) <= 1e-10

    paths = irf(fit, 12, n_boot=0)
    chol = np.linalg.cholesky(fit.residual_cov)
    assert np.max(np.abs(paths.responses[0] - chol)) <= 1e-12
    power_of_a = np.eye(2)
    for h in range(13):
        assert np.max(np.abs(paths.responses[h] - power_of_a @ chol)) <= 1e-10
        power_of_a = fit.coeff[0] @ power_of_a

    one_step = forecast(fit, 1)
    residual_sd = np.sqrt(np.diag(fit.residual_cov))
    assert np.max(np.abs(one_step.std_err[0] - residual_sd)) <= 1e-12

    rng = np.random.default_rng(55)
    reps = 2000
    rejected = 0
    for _ in range(reps):
        data = np.column_stack([ar1(rng, 200, 0.3), ar1(rng, 200, 0.3)])
        result = granger_causality(fit_var(panel_of(data, ("x", "y")), 1))
        rejected += result.p_values[1, 0] < 0.05
    size = rejected / reps
    assert 0.035 <= size <= 0.065, f"Granger size {size:.4f}"

    power_reps = 300
    detected = 0
    for _ in range(power_reps):
        x = rng.standard_normal(400)
        y = np.empty(400)
        y[0] = rng.standard_normal()
        y[1:] = 0.5 * x[:-1] + rng.standard_normal(399)
        result = granger_causality(fit_var(panel_of(np.column_stack([x, y]), ("x", "y")), 1))
        detected += result.p_values[1, 0] < 0.05
    assert detected >= math.ceil(0.99 * power_reps), f"power {detected}/{power_reps}"

    elapsed = time.perf_counter() - started
    assert elapsed < 180.0, f"criterion 4 took {elapsed:.1f}s, budget 180s"
    criterion_note(
        4,
        f"lag pick {picked}/40, size {size:.3f}, power {detected}/{power_reps}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_5_statistical_size(criterion_note):
    """JB, ARCH-LM, KPSS, Granger sizes near 5 pct; ADF spares a walk."""
    started = time.perf_counter()
    reps = 2000
    low, high = 0.035, 0.065

    rng = np.random.default_rng(71)
    jb_rejected = 0
    for _ in range(reps):
        summary = describe(series_of(rng.normal(0.0, 1.0, 3000)))
        jb_rejected += summary.jarque_bera > JB_CRITICAL_5PCT
    jb_size = jb_rejected / reps
    assert low <= jb_size <= high, f"JB size {jb_size:.4f}"

    rng = np.random.default_rng(72)
    arch_rejected = 0
    for _ in range(reps):
        arch_rejected += arch_lm_test(series_of(rng.normal(0.0, 1.0, 600))).p_value < 0.05
    arch_size = arch_rejected / reps
    assert low <= arch_size <= high, f"ARCH-LM size {arch_size:.4f}"

    rng = np.random.default_rng(73)
    kpss_rejected = 0
    for _ in range(reps):
        kpss_rejected += unit_root_tests(series_of(rng.normal(0.0, 1.0, 500))).kpss_reject_5pct
    kpss_size = kpss_rejected / reps
    assert low <= kpss_size <= high, f"KPSS size {kpss_size:.4f}"

    rng = np.random.default_rng(74)
    granger_rejected = 0
    for _ in range(reps):
        data = np.column_stack([ar1(rng, 200, 0.3), ar1(rng, 200, 0.3)])
        result = granger_causality(fit_var(panel_of(data, ("x", "y")), 1))
        granger_rejected += result.p_values[1, 0] < 0.05
    granger_size = granger_rejected / reps
    assert low <= granger_size <= high, f"Granger size {granger_size:.4f}"

    spared = 0
    for seed in range(100):
        walk_rng = np.random.default_rng(9000 + seed)
        # log prices start at log(base level) = 0 and wander from there
        steps = walk_rng.normal(0.0, 4.0, 299)
        levels = np.concatenate([[0.0], np.cumsum(steps)])
        grid = TimeGrid(Month.parse("1950-01"), 300)
        report = unit_root_tests(LogPriceSeries("rw", grid, levels))
        spared += report.adf_p_value > 0.05
    assert spared >= 90, f"ADF spared the random walk in {spared}/100 seeds"

    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"criterion 5 took {elapsed:.1f}s, budget 300s"
    criterion_note(
        5,
        f"sizes JB {jb_size:.3f} ARCH {arch_size:.3f} KPSS {kpss_size:.3f} "
        f"Granger {granger_size:.3f}, ADF spared {spared}/100, {elapsed:.1f}s",
    )


def test_criterion_6_smoothing_properties(criterion_note):
    """Equal-weight 3-month smoothing: variance, autocorrelation, beta."""
    started = time.perf_counter()
    rng = np.random.default_rng(31)
    raw = series_of(rng.normal(0.0, 1.0, 100_000))
    smooth = moving_average(raw, 3)
    ratio = describe(smooth).sd / describe(raw).sd
    assert abs(ratio - 1.0 / math.sqrt(3.0)) <= 0.01, f"sd ratio {ratio:.4f}"
    lag_one = describe(smooth).autocorr1
    assert abs(lag_one - 2.0 / 3.0) <= 0.01, f"lag-1 autocorrelation {lag_one:.4f}"

    # smoothing the dependent series must shrink its market beta on
    # every fixture with an iid market
    for beta in (0.4, 0.8, 1.2, 1.6):
        market_values = rng.normal(0.0, 2.0, 1500)
        noise = rng.normal(0.0, 1.0, 1500)
        asset = series_of(0.3 + beta * market_values + noise, label="asset")
        market = series_of(market_values, label="mkt")
        raw_beta = ols_beta(asset, market)
        smoothed = moving_average(asset, 3)
        trimmed_market = ReturnSeries("mkt", smoothed.grid, market_values[2:])
        smoothed_beta = ols_beta(smoothed, trimmed_market)
        assert smoothed_beta < raw_beta, (
            f"beta {beta}: smoothed {smoothed_beta:.3f} not below raw {raw_beta:.3f}"
        )

    elapsed = time.perf_counter() - started
    criterion_note(6, f"sd ratio {ratio:.4f}, autocorr {lag_one:.4f}, {elapsed:.1f}s")


def test_criterion_7_end_to_end_determinism(tmp_path, monkeypatch, criterion_note):
    """Two report runs produce byte-identical CSVs inside the budget."""
    config_path = resources.files("retlab") / "data" / "demo.cfg"
    outputs = []
    first_elapsed = None
    for name in ("first", "second"):
        workdir = tmp_path / name
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        run_started = time.perf_counter()
        status = main(["report", str(config_path)])
        run_elapsed = time.perf_counter() - run_started
        assert status == 0, f"{name} report run exited {status}"
        if first_elapsed is None:
            first_elapsed = run_elapsed
        csv_paths = sorted((workdir / "out").rglob("*.csv"))
        outputs.append(
            {p.relative_to(workdir).as_posix(): p.read_bytes() for p in csv_paths}
        )
    first, second = outputs
    assert first, "report produced no CSV artifacts"
    assert first.keys() == second.keys()
    for rel_name, payload in first.items():
        assert payload == second[rel_name], f"{rel_name} differs between runs"
    assert first_elapsed < 60.0, f"pipeline took {first_elapsed:.1f}s, budget 60s"
    criterion_note(7, f"{len(first)} CSVs byte-identical, {first_elapsed:.1f}s")
