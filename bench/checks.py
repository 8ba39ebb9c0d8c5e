"""Output checks, computed apart from the program.

Every check reads the workload's input files and the files a round wrote
(``out/<command>/``) and returns a list of problems; an empty list means
the outputs are right. Nothing here calls retlab's analysis code:
moments, eigenvalues and VAR coefficients are recomputed with numpy, and
every risk cell from the fitted parameters in ``summary.json`` with this
module's own normal distribution and root finding.
"""

from __future__ import annotations

import configparser
import csv
import json
import math
from pathlib import Path

import numpy as np

# generator truths of the long-risk series: (law, model, field, truth,
# tolerance), with criterion 2's tolerances except for the GPD shape. Its
# 0.08 is 2.7 standard errors at 2,000 exceedances (the shape's sd over
# 400 seeds is 0.030) and would fail about one seed in 80, so the check
# allows 5 standard errors.
RECOVERY = (
    ("GARCH", "garch", "alpha", 0.1, 0.05),
    ("GARCH", "garch", "beta", 0.8, 0.05),
    ("GPD", "gpd", "shape_xi", 0.3, 0.15),
    ("GPD", "gpd", "n_exceedances", 2000, 0),
    ("MIX", "mixture", "k", 2, 0),
    ("MIX", "mixture", "weights", (0.9, 0.1), 0.03),
)


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _month(text: str) -> int:
    year, month = text.split("-")
    return int(year) * 12 + int(month) - 1


def _close(a, b, rtol: float, atol: float = 0.0) -> bool:
    return bool(np.all(np.abs(np.asarray(a, float) - np.asarray(b, float))
                       <= atol + rtol * np.abs(np.asarray(b, float))))


# ------------------------------------------------------------ input series


def read_inputs(inputs: Path) -> dict[str, tuple[int, np.ndarray]]:
    """Every input series as (first month, values), from the raw CSVs.

    A constituents file becomes a value-weighted index under the
    configured label: each month's returns weighted by the market caps
    recorded for that month, over the constituents with a positive cap.
    """
    config = _read_config(inputs)
    series: dict[str, tuple[int, np.ndarray]] = {}
    rows = _read_csv(inputs / config["returns"])
    if config["layout"] == "long":
        by_label: dict[str, dict[int, float]] = {}
        for row in rows:
            by_label.setdefault(row["series"], {})[_month(row["date"])] = float(row["value"])
        for label, points in by_label.items():
            months = sorted(points)
            series[label] = (months[0], np.array([points[m] for m in months]))
    else:
        months = [_month(r["date"]) for r in rows]
        order = np.argsort(months)
        for label in rows[0]:
            if label != "date":
                values = np.array([float(r[label]) for r in rows])[order]
                series[label] = (min(months), values)
    if config.get("constituents"):
        caps: dict[int, list[float]] = {}
        weighted: dict[int, list[float]] = {}
        for row in _read_csv(inputs / config["constituents"]):
            cap = float(row["market_cap"])
            if cap > 0:
                m = _month(row["date"])
                caps.setdefault(m, []).append(cap)
                weighted.setdefault(m, []).append(cap * float(row["return"]))
        months = sorted(caps)
        index = np.array([math.fsum(weighted[m]) / math.fsum(caps[m]) for m in months])
        series[config["constituents_label"]] = (months[0], index)
    return series


def _read_config(inputs: Path) -> dict:
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(next(iter(sorted(inputs.glob("*.cfg")))), encoding="utf-8")
    return {
        "returns": parser.get("inputs", "returns"),
        "layout": parser.get("inputs", "layout"),
        "constituents": parser.get("inputs", "constituents", fallback=None),
        "constituents_label": parser.get("series", "constituents_label", fallback="PORT"),
    }


def aligned(series: dict, labels: list[str]) -> np.ndarray:
    """Months-by-series matrix over the months every labelled series has."""
    start = max(series[l][0] for l in labels)
    end = min(series[l][0] + len(series[l][1]) for l in labels)
    return np.column_stack([
        series[l][1][start - series[l][0]: end - series[l][0]] for l in labels
    ])


# ---------------------------------------------------------- describe / pca


def check_describe(out: Path, series: dict, summary: dict) -> list[str]:
    problems = []
    rows = _read_csv(out / "describe.csv")
    expected = list(summary["panel"])
    if summary["market"] and summary["market"] not in expected:
        expected.append(summary["market"])
    if [r["series"] for r in rows] != expected:
        problems.append(f"describe rows {[r['series'] for r in rows]} != {expected}")
    for row in rows:
        x = series[row["series"]][1]
        n = len(x)
        c = x - x.mean()
        m2 = np.mean(c**2)
        skew = np.mean(c**3) / m2**1.5
        kurt = np.mean(c**4) / m2**2 - 3.0
        truth = {
            "mean": x.mean(),
            "sd": math.sqrt(np.sum(c**2) / (n - 1)),
            "skewness": skew,
            "excess_kurtosis": kurt,
            "jarque_bera": n / 6.0 * (skew**2 + kurt**2 / 4.0),
            "autocorr1": np.dot(c[1:], c[:-1]) / np.dot(c, c),
            "n": n,
        }
        for key, value in truth.items():
            if not _close(float(row[key]), value, 1e-9, 1e-12 * (1 + abs(x).max())):
                problems.append(f"describe {row['series']} {key}: {row[key]} != {value}")
    return problems


def check_scree(out: Path, panel: np.ndarray) -> list[str]:
    eig = np.sort(np.linalg.eigvalsh(np.cov(panel, rowvar=False, ddof=1)))[::-1]
    reported = np.array([float(r["eigenvalue"]) for r in _read_csv(out / "scree.csv")])
    if reported.shape != eig.shape or not _close(reported, eig, 0.0, 1e-9 * eig[0]):
        return [f"scree eigenvalues {reported.tolist()} != {eig.tolist()}"]
    return []


# ------------------------------------------------------------------- VAR


def check_var(out: Path, panel: np.ndarray, params: dict) -> list[str]:
    """Coefficients by least squares at the reported lag, and criterion
    4's identities on the IRF, FEVD and forecast outputs."""
    problems = []
    p = params["lag"]
    n, k = panel.shape
    design = np.column_stack(
        [np.ones(n - p)] + [panel[p - lag: n - lag] for lag in range(1, p + 1)]
    )
    beta, *_ = np.linalg.lstsq(design, panel[p:], rcond=None)
    resid = panel[p:] - design @ beta
    cov = resid.T @ resid / (n - p - design.shape[1])
    coeff = np.array([beta[1 + l * k: 1 + (l + 1) * k].T for l in range(p)])
    scale = max(1.0, float(np.abs(beta).max()))
    if not _close(params["intercept"], beta[0], 0.0, 1e-8 * scale):
        problems.append("VAR intercepts differ from least squares")
    if not _close(np.array(params["coefficients"]).reshape(coeff.shape), coeff, 0.0, 1e-8 * scale):
        problems.append("VAR coefficients differ from least squares")
    reported_cov = np.array(params["residual_cov"])
    if not _close(reported_cov, cov, 1e-8, 1e-12):
        problems.append("VAR residual covariance differs from least squares")

    tol = 1e-12 * max(1.0, float(np.abs(reported_cov).max()))
    chol = np.linalg.cholesky(reported_cov)
    labels = params["irf"]["ordering"]
    h0 = np.zeros((k, k))
    index = {}
    for row in _read_csv(out / "fig_irf.csv"):
        if row["horizon"] == "0":
            index.setdefault(row["response"], len(index))
    for row in _read_csv(out / "fig_irf.csv"):
        if row["horizon"] == "0":
            h0[index[row["response"]], index[row["shock"]]] = float(row["value"])
    if labels != list(range(k)) or not _close(h0, chol, 0.0, tol):
        problems.append("IRF at horizon 0 is not the Cholesky factor of the residual covariance")

    sums: dict[tuple[str, str], float] = {}
    for row in _read_csv(out / "fig_fevd.csv"):
        key = (row["horizon"], row["series"])
        sums[key] = sums.get(key, 0.0) + float(row["share"])
    bad = [key for key, total in sums.items() if abs(total - 1.0) > 1e-10]
    if not sums or bad:
        problems.append(f"FEVD rows do not sum to 1: {bad[:3]}")

    forecast = _read_csv(out / "forecast.csv")
    first = forecast[0]["month"]
    se = np.array([float(r["std_err"]) for r in forecast if r["month"] == first])
    if not _close(se, np.sqrt(np.diag(reported_cov)), 0.0, tol):
        problems.append("step-1 forecast standard error is not the residual sd")
    return problems


# ------------------------------------------------------------------ risk


def _upper_tail(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _density(z: float) -> float:
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _root(f, lo: float, hi: float) -> float:
    """Bisection on a bracket where f goes from negative to positive."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def normal_quantile(p: float) -> float:
    """z with upper-tail probability 1-p, found by bisection."""
    return _root(lambda z: (1.0 - p) - _upper_tail(z), -40.0, 40.0)


def model_risk(model: str, fit: dict, p: float) -> tuple[float, float]:
    """(fractile loss, average loss beyond it) at fractile p, from the
    fitted parameters alone."""
    if model == "EM":
        w, mu, sd = (np.array(fit[key]) for key in ("weights", "means", "sds"))
        tail = lambda v: float(np.dot(w, [_upper_tail(z) for z in (v - mu) / sd]))
        v = _root(lambda v: (1.0 - p) - tail(v), float(np.min(mu - 40 * sd)),
                  float(np.max(mu + 40 * sd)))
        z = (v - mu) / sd
        partial = sum(wi * (mi * _upper_tail(zi) + si * _density(zi))
                      for wi, mi, si, zi in zip(w, mu, sd, z))
        return v, partial / tail(v)
    if model == "GPD":
        xi, beta, u = fit["shape_xi"], fit["scale_beta"], fit["threshold_u"]
        ratio = (1.0 - p) / fit["exceedance_rate"]
        v = u - beta * math.log(ratio) if xi == 0 else u + beta / xi * (ratio ** -xi - 1.0)
        return v, (v + beta - xi * u) / (1.0 - xi)
    sigma = math.sqrt(fit["one_step_variance"])
    z = normal_quantile(p)
    return fit["mu"] + sigma * z, fit["mu"] + sigma * _density(z) / (1.0 - p)


def check_risk(out: Path, params: dict) -> list[str]:
    """Every risk cell against its recomputation; average loss at least
    the fractile loss; loss rising with the fractile."""
    keys = {"EM": "mixture", "GPD": "gpd", "GARCH": "garch"}
    problems = []
    by_model: dict[tuple, list[tuple[float, float]]] = {}
    rows = _read_csv(out / "risk.csv")
    for row in rows:
        where = f"{row['series']}/{row['basis']} {row['model']} {row['fractile']}"
        if row["note"] or not row["loss"]:
            problems.append(f"risk {where}: no value ({row['note']})")
            continue
        p, loss, avg = float(row["fractile"]), float(row["loss"]), float(row["average_loss"])
        fit = params[f"{row['series']}/{row['basis']}"][keys[row["model"]]]
        v, es = model_risk(row["model"], fit, p)
        if not (_close(loss, v, 1e-9, 1e-8) and _close(avg, es, 1e-9, 1e-8)):
            problems.append(f"risk {where}: ({loss}, {avg}) != ({v}, {es})")
        if avg < loss:
            problems.append(f"risk {where}: average loss {avg} below fractile loss {loss}")
        by_model.setdefault((row["series"], row["basis"], row["model"]), []).append((p, loss))
    for key, points in by_model.items():
        losses = [loss for _, loss in sorted(points)]
        if any(b <= a for a, b in zip(losses, losses[1:])):
            problems.append(f"risk {key}: loss does not rise with the fractile")
    if not rows:
        problems.append("risk.csv has no rows")
    return problems


def check_recovery(params: dict) -> list[str]:
    """The long-risk fits recover their generators' truths; a series is
    named after its law and a copy number."""
    problems = []
    for key, fits in params.items():
        law = key.split("/")[0].rstrip("0123456789")
        rules = [rule for rule in RECOVERY if rule[0] == law]
        if not rules:
            problems.append(f"{key}: no generator truth for this series")
        for _, model, field, truth, tol in rules:
            value = fits[model][field]
            if np.shape(value) != np.shape(truth) or np.any(np.abs(np.subtract(value, truth)) > tol):
                problems.append(f"{key} {model} {field} {value} not within {tol} of {truth}")
    return problems


# ----------------------------------------------------------- per workload


def check_deterministic(digests: list[dict]) -> list[str]:
    """Every round wrote byte-identical files."""
    return [
        f"round {i + 1} outputs differ from round 1"
        for i, d in enumerate(digests[1:], start=1)
        if d != digests[0]
    ]


def check_outputs(workdir: Path, commands: tuple[str, ...], recovery: bool) -> list[str]:
    """All output checks that apply to the commands of a round; with
    `recovery`, also the long-risk truths."""
    series = read_inputs(workdir / "inputs")
    problems = []
    for command in commands:
        out = workdir / "out" / command
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        params = summary["parameters"]
        panel = aligned(series, summary["panel"])
        stages = {s["name"] for s in summary["stages"]}
        if "describe" in stages:
            problems += check_describe(out, series, summary)
        if "pca" in stages:
            problems += check_scree(out, panel)
        if "predict" in stages:
            problems += check_var(out, panel, params["predict"])
        if "risk" in stages:
            problems += check_risk(out, params["risk"])
            if recovery:
                problems += check_recovery(params["risk"])
    return problems
