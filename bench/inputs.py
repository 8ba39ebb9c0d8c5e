"""Workload inputs: CSV and config files made from one seed.

Each workload writes its inputs under ``<workdir>/inputs`` and one config
per command, so every command writes its own output directory
(``<workdir>/out/<command>``) and its own ``summary.json``. The program
only ever sees these files; the seed never reaches it except as the
configured ``[run] seed`` (which seeds the IRF bootstrap).
"""

from __future__ import annotations

import configparser
import csv
import shutil
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable

import numpy as np

from retlab.series import Panel
from retlab.synth import GeneratorSpec, generate

# criterion 2's laws (tests/test_acceptance.py); the GPD tail is in units
# of 0.1 % so that no negated draw reaches the -100 % return floor
MIXTURE_LAW = {"weights": [0.9, 0.1], "means": [0.0, 0.0], "sds": [1.0, 5.0]}
GARCH_LAW = {"omega": 0.1, "alpha": 0.1, "beta": 0.8}
GPD_LAW = {"shape": 0.3, "scale": 0.1, "rate": 0.10, "threshold": 0.5}
LONG_N = 20_000
PANEL_N = 600
PANEL_FACTOR_SERIES = 24
PANEL_SMOOTH_SERIES = 6


def substream(seed: int, stream: int) -> int:
    """A 64-bit generator seed for one input stream of one run seed."""
    state = np.random.SeedSequence([seed, stream]).generate_state(1, np.uint64)
    return int(state[0])


def _write_rows(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_wide(path: Path, panel: Panel) -> None:
    values = panel.values
    _write_rows(
        path,
        ["date", *panel.labels],
        ([str(m), *map(repr, values[i].tolist())] for i, m in enumerate(panel.grid)),
    )


def _demo_inputs(seed: int, inputs: Path) -> configparser.ConfigParser:
    """The bundled demo dataset and config; the run seed replaces the
    configured root seed."""
    data = resources.files("retlab") / "data"
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string((data / "demo.cfg").read_text(encoding="utf-8"))
    for key in ("returns", "constituents"):
        name = parser.get("inputs", key)
        shutil.copyfile(data / name, inputs / name)
    parser.set("run", "seed", str(seed))
    return parser


def panel_members(seed: int) -> Panel:
    """About 30 series x 600 months: a three-factor block of REIT-like
    returns plus a block of smoothed, strongly autocorrelated regional
    house-price indexes (an AR(1) VAR with a common shock, then a 3-month
    moving average, as the S&P/Case-Shiller indexes are built)."""
    rng = np.random.default_rng(substream(seed, 0))
    k = PANEL_FACTOR_SERIES
    loadings = np.column_stack([
        rng.uniform(0.5, 1.5, k),
        rng.normal(0.0, 0.5, k),
        rng.normal(0.0, 0.3, k),
    ])
    factor_block = generate(GeneratorSpec(
        kind="factor-panel",
        n=PANEL_N,
        seed=substream(seed, 1),
        parameters={
            "loadings": loadings.tolist(),
            "factor_sds": [4.0, 2.0, 1.5],
            "idio_sds": rng.uniform(1.0, 3.0, k).tolist(),
            "means": rng.uniform(0.3, 1.0, k).tolist(),
            "labels": [f"REIT{i + 1:02d}" for i in range(k)],
        },
    ))
    h = PANEL_SMOOTH_SERIES
    house_block = generate(GeneratorSpec(
        kind="var",
        n=PANEL_N,
        seed=substream(seed, 2),
        parameters={
            "intercept": rng.uniform(0.05, 0.15, h).tolist(),
            "coefficients": [np.diag(rng.uniform(0.5, 0.8, h)).tolist()],
            "residual_cov": (0.2 * np.eye(h) + 0.3).tolist(),
            "smooth_window": 3,
            "start": "1999-11",  # the moving average drops two months
            "labels": [f"HOUSE{i + 1}" for i in range(h)],
        },
    ))
    return Panel(factor_block.series + house_block.series)


def _panel_inputs(seed: int, inputs: Path) -> configparser.ConfigParser:
    _write_wide(inputs / "panel.csv", panel_members(seed))
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict({
        "run": {"seed": str(seed)},
        "inputs": {"returns": "panel.csv", "layout": "wide"},
        "factors": {"count": "3"},
        "var": {  # the demo's settings
            "max_lag": "6",
            "criterion": "BIC",
            "forecast_horizon": "12",
            "irf_horizon": "24",
            "bootstrap": "400",
        },
        "describe": {"correlogram_lags": "12"},
    })
    return parser


def long_members(seed: int) -> dict:
    """Two 20,000-month series from each of criterion 2's laws, as
    returns. The GPD series are the negated tail law, so that their losses
    (negated returns) follow the law."""
    laws = (("MIX", "mixture", MIXTURE_LAW, 1.0),
            ("GARCH", "garch", GARCH_LAW, 1.0),
            ("GPD", "gpd-tail", GPD_LAW, -1.0))
    out = {}
    for stream, (name, kind, law, sign) in enumerate(laws):
        for copy in (1, 2):
            spec = GeneratorSpec(kind, LONG_N, substream(seed, 2 * stream + copy), law)
            out[f"{name}{copy}"] = sign * generate(spec).values
    return out


def _long_inputs(seed: int, inputs: Path) -> configparser.ConfigParser:
    members = long_members(seed)
    start = 1000 * 12  # months since 0001-01: January 1001
    rows = (
        [f"{(start + t) // 12:04d}-{(start + t) % 12 + 1:02d}", label, repr(float(v[t]))]
        for t in range(LONG_N)
        for label, v in members.items()
    )
    _write_rows(inputs / "long.csv", ["date", "series", "value"], rows)
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict({
        "run": {"seed": str(seed)},
        "inputs": {"returns": "long.csv", "layout": "long"},
        # as many factors as series: no residual basis, raw returns only
        "factors": {"count": str(len(members))},
        "risk": {
            "fractiles": "0.95, 0.99, 0.999",
            "garch_conditioning": "one-step",
            "mixture_k_max": "3",
            "gpd_threshold_quantile": "0.90",
        },
    })
    return parser


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: the commands of a round, and the function
    that writes its input files for a seed and returns their config."""

    name: str
    commands: tuple[str, ...]
    make: Callable[[int, Path], configparser.ConfigParser]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("demo-report", ("report",), _demo_inputs),
        Workload("panel-predict", ("describe", "pca", "unitroot", "predict"), _panel_inputs),
        Workload("long-risk", ("risk",), _long_inputs),
    )
}


def make_inputs(workload: Workload, seed: int, workdir: Path) -> dict[str, Path]:
    """Write the workload's inputs and one config per command under
    `workdir`; returns the config path of each command."""
    inputs = workdir / "inputs"
    inputs.mkdir(parents=True)
    parser = workload.make(seed, inputs)
    configs = {}
    for command in workload.commands:
        parser.set("run", "output", f"out/{command}")
        path = inputs / f"{command}.cfg"
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            parser.write(handle)
        configs[command] = path
    return configs
