"""Stage orchestration: run analysis stages and emit artifacts.

Every command writes into the configured output directory:

* aligned text tables plus a full-precision CSV twin per table,
* tidy CSV plot data (``fig_*.csv``, one row per point),
* ``summary.json``: the run manifest (per-stage status, warnings,
  artifact list) and every fitted parameter and seed.

Exit status is 0 iff no stage recorded an error; warnings never change
the status but appear in the manifest.
"""

from __future__ import annotations

import json
import shutil
import warnings
from dataclasses import astuple, dataclass, field, fields, is_dataclass
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .. import workers
from ..descstats import correlogram, cross_sectional_summary, describe
from ..distfit import GarchFit, GpdFit, MixtureFit, mixture_pdf
from ..errors import RetlabError, ValidationError
from ..factors import factor_regression, pca, scree
from ..risk import risk_jobs, risk_report
from ..series import (
    ConstituentRecord,
    Month,
    Panel,
    ReturnSeries,
    TimeGrid,
    align,
    build_value_weighted_index,
    cumulate_log_price,
)
from ..synth import generate
from ..varmodel import (
    UnitRootReport,
    fevd,
    fit_var,
    forecast,
    granger_causality,
    irf,
    select_lag,
    unit_root_tests,
)
from .config import RunConfig
from .io import csv_cell, csv_line_blocks, ingest, write_csv, write_panel
from .tables import write_table

COMMANDS = ("describe", "pca", "risk", "predict", "unitroot", "synth", "report")


@dataclass
class StageOutcome:
    """Manifest entry for one stage."""

    name: str
    status: str = "ok"
    error: str | None = None
    warnings: list[str] = field(default_factory=list)
    artifacts: list[str] = field(default_factory=list)


@dataclass
class Workspace:
    """Resolved inputs shared by the analysis stages.

    `registry` holds the series of the returns file on the months they all
    share, since ingest aligns them, and the constituents' value-weighted
    index on its own span; `panel` is the configured grouping aligned to
    its common months. The market series, when configured, is kept out of
    `panel` unless listed there explicitly.
    """

    registry: dict[str, ReturnSeries]
    panel: Panel
    market: ReturnSeries | None
    records: list[ConstituentRecord] | None


def _load_workspace(config: RunConfig) -> Workspace:
    if config.returns_path is None:
        raise ValidationError("config has no [inputs] returns file")
    ingested = ingest(config.returns_path, config.layout)
    registry: dict[str, ReturnSeries] = {s.label: s for s in ingested.series}

    records = None
    if config.constituents_path is not None:
        records = ingest(config.constituents_path, "constituents")
        label = config.constituents_label
        if label in registry:
            raise ValidationError(
                f"constituents label {label!r} collides with an input series"
            )
        registry[label] = build_value_weighted_index(records, label)

    market = None
    if config.market is not None:
        if config.market not in registry:
            raise ValidationError(f"market series {config.market!r} not found")
        market = registry[config.market]

    members = config.panel_members
    if members is None:
        members = tuple(l for l in registry if l != config.market)
    missing = [l for l in members if l not in registry]
    if missing:
        raise ValidationError(f"panel members not found: {missing}")
    if not members:
        raise ValidationError("panel grouping is empty")
    panel = align([registry[l] for l in members])
    if config.n_factors > panel.width:
        raise ValidationError(
            f"factor count {config.n_factors} exceeds panel width {panel.width}"
        )
    return Workspace(registry=registry, panel=panel, market=market, records=records)


def _targets(ws: Workspace) -> list[ReturnSeries]:
    """Panel members on their registry spans, then the market when distinct."""
    out = [ws.registry[label] for label in ws.panel.labels]
    if ws.market is not None and ws.market.label not in ws.panel.labels:
        out.append(ws.market)
    return out


def _asset_series(records: list[ConstituentRecord]) -> list[ReturnSeries]:
    """Per-asset return series, split into contiguous runs."""
    by_asset: dict[str, list[ConstituentRecord]] = {}
    for rec in records:
        by_asset.setdefault(rec.asset_id, []).append(rec)
    out = []
    for asset_id, recs in by_asset.items():
        recs.sort(key=lambda r: r.month.ordinal)
        run_start = 0
        for i in range(1, len(recs) + 1):
            if i == len(recs) or recs[i].month - recs[i - 1].month != 1:
                chunk = recs[run_start:i]
                grid = TimeGrid(chunk[0].month, len(chunk))
                out.append(
                    ReturnSeries(asset_id, grid, [r.return_pct for r in chunk])
                )
                run_start = i
    return out


# ----------------------------------------------------------- figure rows
# A figure file that grows with the data is written as its lines are made:
# one block of its arrays (a series, a horizon) is converted by `.tolist()`
# at a time and yielded by `csv_line_blocks` as blocks of whole lines, so
# no stage holds a figure's lines, or a whole array as Python floats, in
# memory. A line joins labels quoted once by `csv_cell`, month text from
# `TimeGrid.labels()` and each float's `repr`, which is its `str`: the
# bytes `csv.writer` writes for the same row, without its per-row work.


def _series_lines(series):
    """Line blocks `month,label,value` of each (label, grid, values) in turn."""
    grid_of_months = months = None
    for label, grid, values in series:
        if grid != grid_of_months:  # the series mostly share one grid
            grid_of_months, months = grid, grid.labels()
        yield from csv_line_blocks(
            (months, repeat(csv_cell(label)), map(repr, values.tolist()))
        )


def _horizon_lines(labels, *cubes):
    """Line blocks `horizon,row label,column label,*cells` of (horizons, k, k)
    arrays read side by side, one horizon at a time; a cube that is None
    gives empty cells."""
    cells = [csv_cell(label) for label in labels]
    row_cells = [cell for cell in cells for _ in cells]
    column_cells = cells * len(cells)
    for h in range(len(cubes[0])):
        yield from csv_line_blocks((
            repeat(str(h)), row_cells, column_cells,
            *(repeat("") if cube is None else map(repr, cube[h].ravel().tolist())
              for cube in cubes),
        ))


# ---------------------------------------------------------------- stages


def _stage_describe(ws: Workspace, config: RunConfig, out_dir: Path):
    artifacts: list[str] = []
    params: dict = {"moments": {}}
    errors: list[str] = []

    header = [
        "series", "mean", "sd", "skewness", "excess_kurtosis",
        "jarque_bera", "autocorr1", "n",
    ]
    targets = _targets(ws)
    rows = []
    for s in targets:
        try:
            st = describe(s)
        except RetlabError as exc:
            errors.append(f"{s.label}: {exc}")
            continue
        rows.append([s.label, *astuple(st)])
        params["moments"][s.label] = st
    artifacts += write_table(
        out_dir, "describe", "Summary statistics (percent per month)", header, rows
    )

    if ws.records is not None:
        if ws.market is None:
            warnings.warn(
                "cross-section table skipped: no market series configured",
                RuntimeWarning,
            )
        else:
            cs_rows = [
                astuple(r)
                for r in cross_sectional_summary(_asset_series(ws.records), ws.market)
            ]
            artifacts += write_table(
                out_dir, "cross_section",
                "Annual cross-section of constituents",
                ["year", "n_assets", "mean_of_means", "mean_of_sds",
                 "mean_beta", "sd_beta"],
                cs_rows,
            )

    correlograms = []  # the columns of cell text of each curve
    for s in targets:
        pairs = [("auto", s, s)]
        if ws.market is not None and s.label != ws.market.label:
            common = s.grid.intersect(ws.market.grid)
            # correlogram rejects a span of 2 * lags months or fewer
            if common is not None and config.correlogram_lags < common.length / 2:
                pairs.append(
                    ("cross-vs-market", s.restrict(common), ws.market.restrict(common))
                )
        try:
            for kind, x, y in pairs:
                entries = correlogram(x, y, config.correlogram_lags)
                correlograms.append((
                    repeat(csv_cell(kind)), repeat(csv_cell(s.label)),
                    [str(e.lag) for e in entries],
                    [float.__repr__(e.value) for e in entries],
                    [float.__repr__(e.band) for e in entries],
                ))
        except RetlabError as exc:
            errors.append(f"{s.label}: {exc}")
    artifacts += write_csv(
        out_dir / "fig_returns.csv", ["month", "series", "value"],
        _series_lines((s.label, s.grid, s.values) for s in targets),
    )
    artifacts += write_csv(
        out_dir / "fig_log_prices.csv", ["month", "series", "log_price"],
        _series_lines(
            (p.label, p.grid, p.values) for p in map(cumulate_log_price, targets)
        ),
    )
    artifacts += write_csv(
        out_dir / "fig_correlogram.csv",
        ["kind", "series", "lag", "value", "band"],
        chain.from_iterable(map(csv_line_blocks, correlograms)),
    )
    return artifacts, params, errors


def _stage_pca(ws: Workspace, config: RunConfig, out_dir: Path):
    artifacts: list[str] = []
    result = pca(ws.panel)
    k = ws.panel.width

    header = ["series"] + [f"PC{j + 1}" for j in range(k)]
    rows = [
        [label] + list(result.loadings[i]) for i, label in enumerate(result.labels)
    ]
    artifacts += write_table(
        out_dir, "pca_loadings", "Principal-component loadings (unit norm)",
        header, rows,
    )

    scree_rows = [
        [r.component, r.eigenvalue, r.share_pct, r.cumulative_pct]
        for r in scree(result)
    ]
    scree_header = ["component", "eigenvalue", "share_pct", "cumulative_pct"]
    artifacts += write_table(
        out_dir, "scree", "Variance explained by component", scree_header, scree_rows
    )
    # the scree figure is the scree table's CSV twin, byte for byte
    shutil.copyfile(out_dir / "scree.csv", out_dir / "fig_scree.csv")
    artifacts.append("fig_scree.csv")

    reg_rows = []
    reg_params = {}
    errors: list[str] = []
    for label in ws.panel.labels:
        try:
            reg = factor_regression(ws.panel.select(label), result.scores, config.n_factors)
        except RetlabError as exc:
            errors.append(f"{label}: {exc}")
            continue
        reg_rows.append([
            label, reg.k, reg.coefficients[0], reg.loadings_on_pc1,
            reg.loadings_on_pc2, reg.r_square, reg.adj_r_square,
        ])
        reg_params[label] = {
            "coefficients": reg.coefficients, "r_square": reg.r_square,
            "adj_r_square": reg.adj_r_square,
        }
    artifacts += write_table(
        out_dir, "factor_regressions",
        f"Regressions on the first {config.n_factors} component(s)",
        ["series", "k", "alpha", "beta_pc1", "beta_pc2", "r_square", "adj_r_square"],
        reg_rows,
    )
    params = {
        "eigenvalues": result.eigenvalues,
        "cumulative_share": result.cumulative_share,
        "loadings": result.loadings,
        "labels": list(result.labels),
        "rank_deficient": result.rank_deficient,
        "regressions": reg_params,
    }
    return artifacts, params, errors


def _stage_unitroot(ws: Workspace, config: RunConfig, out_dir: Path):
    artifacts: list[str] = []
    params: dict = {}
    errors: list[str] = []
    rows = []
    for s in _targets(ws):
        for basis, subject in (("log-price", cumulate_log_price(s)), ("return", s)):
            try:
                rep = unit_root_tests(subject)
            except RetlabError as exc:
                errors.append(f"{s.label} ({basis}): {exc}")
                continue
            # the report's own label and n are not columns
            rows.append([s.label, basis, *astuple(rep)[2:]])
            params[f"{s.label}/{basis}"] = rep
    artifacts += write_table(
        out_dir, "unitroot",
        "Unit-root and stationarity tests (constant, no trend)",
        ["series", "basis", "adf_stat", "adf_p", "adf_lags", "pp_stat", "pp_p",
         "kpss_stat", "kpss_reject_5pct", "kpss_reject_1pct", "bandwidth"],
        rows,
    )
    return artifacts, params, errors


def _risk_params(report) -> dict:
    out: dict = {"fit_errors": dict(report.fit_errors)}
    for key in ("mixture", "gpd", "garch"):
        if getattr(report, key) is not None:
            out[key] = getattr(report, key)
    return out


def _captured(func, *args):
    """Call ``func(*args)``, recording every warning it raises.

    Returns ``(result, warnings, error)``: `warnings` is the list of
    ``(category, message)`` pairs raised, in order, and exactly one of
    `result` and `error` (the `RetlabError` text) is None.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result, error = func(*args), None
        except RetlabError as exc:
            result, error = None, str(exc)
    return result, [(w.category, str(w.message)) for w in caught], error


def _risk_job(job):
    """Fit one risk job, a (series, risk config) pair, by `_captured`.
    Runs in a forked worker (`retlab.workers`) or in the stage's own
    process."""
    return _captured(risk_report, *job)


def _stage_risk(ws: Workspace, config: RunConfig, out_dir: Path):
    artifacts: list[str] = []
    params: dict = {}
    errors: list[str] = []
    jobs, sweep_errors = risk_jobs(_targets(ws), ws.panel, config.n_factors)
    [results] = workers.map_phases((_risk_job, [(s, config.risk) for s, _ in jobs]))

    rows = []
    variances = []  # (label, grid, conditional variances) per raw-return GARCH fit
    densities = []  # the columns of cell text of each mixture fit's curves
    for (s, basis), (report, caught, error) in zip(jobs, results):
        for category, message in caught:
            warnings.warn(f"{s.label} ({basis}): {message}", category)
        if error is not None:
            errors.append(f"{s.label} ({basis}): {error}")
            continue
        params[f"{s.label}/{basis}"] = _risk_params(report)
        for cell in report.cells:
            rows.append([
                s.label, basis, cell.model, cell.fractile, cell.loss,
                cell.average_loss, cell.error or "",
            ])
        if basis != "raw-returns":
            continue
        if report.garch is not None:
            variances.append((s.label, s.grid, report.garch.conditional_variance_path))
        if report.mixture is not None:
            grid = np.linspace(s.values.min(), s.values.max(), 201)
            mix = mixture_pdf(report.mixture, -grid)  # fitted on losses
            mu, sd = s.values.mean(), s.values.std(ddof=1)
            normal = np.exp(-0.5 * ((grid - mu) / sd) ** 2) / (
                sd * np.sqrt(2 * np.pi)
            )
            densities.append((
                repeat(csv_cell(s.label)),
                *(map(repr, c.tolist()) for c in (grid, mix, normal)),
            ))
    errors += [f"{label} (residuals): {error}" for label, error in sweep_errors.items()]

    artifacts += write_table(
        out_dir, "risk", "Loss fractiles and average losses by model",
        ["series", "basis", "model", "fractile", "loss", "average_loss", "note"],
        rows,
    )
    artifacts += write_csv(
        out_dir / "fig_conditional_volatility.csv",
        ["month", "series", "sd"],
        # each path's root is taken as its lines are written
        _series_lines((label, grid, np.sqrt(h)) for label, grid, h in variances),
    )
    artifacts += write_csv(
        out_dir / "fig_fitted_density.csv",
        ["series", "x", "mixture_pdf", "normal_pdf"],
        chain.from_iterable(map(csv_line_blocks, densities)),
    )
    return artifacts, params, errors


def _stage_predict(ws: Workspace, config: RunConfig, out_dir: Path):
    artifacts: list[str] = []
    panel = ws.panel
    if config.var_lag is not None:
        lag = config.var_lag
        policy = f"fixed({lag})"
    else:
        lag = select_lag(panel, config.var_max_lag, config.var_criterion)
        policy = f"{config.var_criterion}(max={config.var_max_lag})"
    fit = fit_var(panel, lag)

    coeff_rows = []
    for i, equation in enumerate(fit.labels):
        coeff_rows.append([equation, "intercept", fit.intercept[i], fit.intercept_t[i]])
        for l in range(lag):
            for j, regressor in enumerate(fit.labels):
                coeff_rows.append([
                    equation, f"{regressor} lag {l + 1}",
                    fit.coeff[l, i, j], fit.t_stats[l, i, j],
                ])
    artifacts += write_table(
        out_dir, "var_coefficients", f"VAR({lag}) coefficient estimates",
        ["equation", "regressor", "coefficient", "t_stat"], coeff_rows,
    )
    artifacts += write_table(
        out_dir, "var_summary", f"VAR({lag}) equation fit",
        ["equation", "r_square", "adj_r_square", "n_eff", "stable"],
        [[label, fit.r_square[i], fit.adj_r_square[i], fit.n_eff, fit.stable]
         for i, label in enumerate(fit.labels)],
    )
    artifacts += write_table(
        out_dir, "var_residual_cov", "VAR residual covariance",
        ["series"] + list(fit.labels),
        [[label] + list(fit.residual_cov[i]) for i, label in enumerate(fit.labels)],
    )

    params: dict = {
        "lag": lag, "policy": policy, "intercept": fit.intercept,
        "coefficients": fit.coeff, "residual_cov": fit.residual_cov,
        "stable": fit.stable, "n_eff": fit.n_eff,
    }

    if lag >= 1:
        granger = granger_causality(fit)
        g_rows = []
        k = len(fit.labels)
        for i in range(k):
            for j in range(k):
                if i == j:
                    continue
                g_rows.append([
                    fit.labels[j], fit.labels[i], lag,
                    granger.f_stats[i, j], granger.p_values[i, j],
                ])
        artifacts += write_table(
            out_dir, "granger", "Granger causality (cause -> effect)",
            ["cause", "effect", "lags", "f_stat", "p_value"], g_rows,
        )
        params["granger_dof_denominator"] = granger.dof_denominator

    path = forecast(fit, config.forecast_horizon)
    f_rows = [
        [month, label, point, std_err]
        for month, points, std_errs in zip(
            TimeGrid(panel.grid.end + 1, path.horizon).labels(),
            path.point.tolist(), path.std_err.tolist(),
        )
        for label, point, std_err in zip(path.labels, points, std_errs)
    ]
    artifacts += write_table(
        out_dir, "forecast", f"{config.forecast_horizon}-month forecasts",
        ["month", "series", "point", "std_err"], f_rows,
    )

    impulse = irf(fit, config.irf_horizon, n_boot=config.n_boot, seed=config.seed)
    artifacts += write_csv(
        out_dir / "fig_irf.csv",
        ["horizon", "response", "shock", "value", "lower", "upper"],
        _horizon_lines(impulse.labels, impulse.responses, impulse.lower, impulse.upper),
    )
    params["irf"] = {"seed": config.seed, "n_boot": config.n_boot,
                     "ordering": list(range(fit.width))}

    shares = fevd(fit, config.irf_horizon)
    artifacts += write_csv(
        out_dir / "fig_fevd.csv",
        ["horizon", "series", "shock", "share"],
        _horizon_lines(shares.labels, shares.shares),
    )
    return artifacts, params, []


def _stage_synth(config: RunConfig, out_dir: Path):
    if not config.synth_specs:
        raise ValidationError("config has no [synth.<name>] sections")
    artifacts: list[str] = []
    params: dict = {}
    for name, spec in config.synth_specs:
        out = generate(spec)
        if isinstance(out, ReturnSeries):
            out = Panel((out,))
        artifacts += write_panel(out_dir / f"synth_{name}.csv", out)
        params[name] = spec
    return artifacts, params, []


# the analysis stages, in report order
_STAGES = {
    "describe": _stage_describe,
    "pca": _stage_pca,
    "unitroot": _stage_unitroot,
    "risk": _stage_risk,
    "predict": _stage_predict,
}


# ----------------------------------------------------------- orchestration


# result fields that summary.json leaves out; every other field of a
# result object is recorded, in declaration order
_UNRECORDED = {
    MixtureFit: {"n", "n_iter", "log_likelihood_path"},
    GpdFit: {"log_likelihood", "score_norm"},
    GarchFit: {"conditional_variance_path", "n", "h1", "converged"},
    UnitRootReport: {"label", "n", "kpss_reject_5pct", "kpss_reject_1pct"},
}


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return _jsonable(value.item())
    if isinstance(value, (Path, Month)):
        return str(value)
    if is_dataclass(value):
        skip = _UNRECORDED.get(type(value), ())
        return {
            f.name: _jsonable(getattr(value, f.name))
            for f in fields(value) if f.name not in skip
        }
    if isinstance(value, float) and not np.isfinite(value):
        return None
    return value


def _run_stage(outcome: StageOutcome, func, *args):
    """Run one stage, recording its warnings and any `RetlabError` in
    `outcome`; returns the stage's result, or None if it raised."""
    result, caught, error = _captured(func, *args)
    if error is not None:
        outcome.status = "error"
        outcome.error = error
    outcome.warnings = [f"{category.__name__}: {message}" for category, message in caught]
    return result


def run(command: str, config: RunConfig) -> int:
    """Execute one CLI command; returns the process exit status."""
    if command not in COMMANDS:
        raise ValidationError(f"unknown command {command!r}")
    out_dir = config.output_dir
    out_dir.mkdir(parents=True, exist_ok=True)

    stage_names = list(_STAGES) if command == "report" else [command]
    outcomes: list[StageOutcome] = []
    parameters: dict = {}

    ws = None
    if command != "synth":
        outcomes.append(StageOutcome(name="ingest"))
        ws = _run_stage(outcomes[-1], _load_workspace, config)

    for name in stage_names:
        outcome = StageOutcome(name=name)
        outcomes.append(outcome)
        if name == "synth":
            result = _run_stage(outcome, _stage_synth, config, out_dir)
        elif ws is None:
            outcome.status = "error"
            outcome.error = "skipped: input loading failed"
            continue
        else:
            result = _run_stage(outcome, _STAGES[name], ws, config, out_dir)
        outcome.artifacts, parameters[name], errors = result or ([], {}, [])
        if errors:
            outcome.status = "error"
            outcome.error = "; ".join(errors)

    summary = {
        "command": command,
        "seed": config.seed,
        "seed_source": config.seed_source,
        "fractiles": list(config.risk.fractiles),
        "panel": list(ws.panel.labels) if ws is not None else None,
        "market": config.market,
        "stages": _jsonable(outcomes),
        "parameters": _jsonable(parameters),
    }
    with open(out_dir / "summary.json", "w", encoding="utf-8", newline="\n") as handle:
        json.dump(summary, handle, indent=2, allow_nan=False)
        handle.write("\n")

    for outcome in outcomes:
        line = f"{outcome.name}: {outcome.status}"
        if outcome.error:
            line += f" ({outcome.error})"
        print(line)
    print(f"artifacts in {out_dir}")
    return 0 if all(o.status == "ok" for o in outcomes) else 1
