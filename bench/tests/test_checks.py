"""The benchmark's own tests: every output check rejects a corrupted
output, the span accounting adds up, and one seed regenerates
byte-identical inputs.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import tracing  # noqa: E402
from inputs import WORKLOADS, make_inputs  # noqa: E402
from retlab.cli.main import main as retlab_main  # noqa: E402


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    """A demo-report round's inputs and outputs."""
    workdir = tmp_path_factory.mktemp("demo-report")
    configs = make_inputs(WORKLOADS["demo-report"], 3, workdir)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert retlab_main(["report", str(configs["report"])]) == 0
    finally:
        os.chdir(cwd)
    return workdir


@pytest.fixture
def copy(demo, tmp_path):
    target = tmp_path / "round"
    shutil.copytree(demo, target)
    return target


def _edit_csv(path: Path, index: int, column: str, change) -> None:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    rows[index][column] = repr(change(float(rows[index][column])))
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _nudge_coefficient(out: Path) -> None:
    path = out / "summary.json"
    summary = json.loads(path.read_text(encoding="utf-8"))
    summary["parameters"]["predict"]["coefficients"][0][1][2] += 1e-6
    path.write_text(json.dumps(summary), encoding="utf-8")


CORRUPTIONS = {
    "risk cell": lambda out: _edit_csv(out / "risk.csv", 4, "loss", lambda v: v * (1 + 1e-6)),
    "average loss": lambda out: _edit_csv(out / "risk.csv", 40, "average_loss", lambda v: v + 1e-6),
    "fevd share": lambda out: _edit_csv(out / "fig_fevd.csv", 7, "share", lambda v: v + 1e-6),
    "describe moment": lambda out: _edit_csv(out / "describe.csv", 2, "skewness", lambda v: v * (1 + 1e-6)),
    "scree eigenvalue": lambda out: _edit_csv(out / "scree.csv", 1, "eigenvalue", lambda v: v * (1 + 1e-6)),
    "irf at horizon 0": lambda out: _edit_csv(out / "fig_irf.csv", 1, "value", lambda v: v + 1e-9),
    "forecast std err": lambda out: _edit_csv(out / "forecast.csv", 0, "std_err", lambda v: v * (1 + 1e-9)),
    "var coefficient": _nudge_coefficient,
}


def test_untouched_outputs_pass(demo):
    assert checks.check_outputs(demo, ("report",), recovery=False) == []


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_check_rejects_corrupted_output(copy, name):
    CORRUPTIONS[name](copy / "out" / "report")
    assert checks.check_outputs(copy, ("report",), recovery=False)


def test_check_rejects_changed_input(copy):
    _edit_csv(copy / "inputs" / "demo_returns.csv", 10, "HOUSE", lambda v: v + 1e-6)
    assert checks.check_outputs(copy, ("report",), recovery=False)


def _truths() -> dict:
    return {
        "GARCH1/raw-returns": {"garch": {"alpha": 0.1, "beta": 0.8}},
        "GPD2/raw-returns": {"gpd": {"shape_xi": 0.3, "n_exceedances": 2000}},
        "MIX1/raw-returns": {"mixture": {"k": 2, "weights": [0.9, 0.1]}},
    }


@pytest.mark.parametrize("key, model, field, value", [
    ("GARCH1/raw-returns", "garch", "alpha", 0.16),
    ("GARCH1/raw-returns", "garch", "beta", 0.74),
    ("GPD2/raw-returns", "gpd", "shape_xi", 0.46),
    ("GPD2/raw-returns", "gpd", "n_exceedances", 1999),
    ("MIX1/raw-returns", "mixture", "k", 3),
    ("MIX1/raw-returns", "mixture", "weights", [0.86, 0.14]),
])
def test_recovery_rejects_a_missed_truth(key, model, field, value):
    params = _truths()
    assert checks.check_recovery(params) == []
    params[key][model][field] = value
    assert checks.check_recovery(params)


def test_determinism_check_rejects_a_changed_file():
    first = {"report": {"risk.csv": "a", "summary.json": "b"}}
    assert checks.check_deterministic([first, first]) == []
    assert checks.check_deterministic([first, {"report": {"risk.csv": "a", "summary.json": "c"}}])


def test_spans_and_pipeline_self_time_add_up_to_run_time():
    spans = [
        {"name": "io.ingest_s", "parent": None, "start": 0.0, "end": 1.0,
         "counts": {"io.ingest_rows": 10}},
        {"name": "risk.report", "parent": None, "start": 1.5, "end": 4.0, "counts": {}},
        {"name": "mixture.s", "parent": 1, "start": 1.6, "end": 3.0,
         "counts": {"mixture.fits": 1, "mixture.iters": 40, "mixture.unconverged": 0}},
        {"name": "io.write_s", "parent": None, "start": 4.0, "end": 4.5,
         "counts": {"io.write_bytes": 7}},
        {"name": "io.write_s", "parent": 3, "start": 4.1, "end": 4.2,
         "counts": {"io.write_bytes": 3}},
    ]
    metrics, problems = tracing.layer_metrics({"run_s": 5.0, "spans": spans})
    assert problems == []
    assert metrics["pipeline.self_s"] == pytest.approx(1.0)
    assert metrics["risk.self_s"] == pytest.approx(1.1)
    assert metrics["io.write_s"] == pytest.approx(0.5)
    assert metrics["io.write_bytes"] == 7
    assert metrics["mixture.iters"] == 40
    spans[1]["start"] = 0.5  # overlaps the ingest span
    assert tracing.layer_metrics({"run_s": 5.0, "spans": spans})[1]


def test_import_log_parsing():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy._lib",
        "import time:       200 |        300 |     scipy",
        "import time:        50 |        400 |   retlab.distfit",
        "import time:        10 |        410 | retlab.cli.main",
        "import time:        20 |         20 | json",
    ])
    assert tracing.import_metrics(log) == {
        "import.scipy_s": pytest.approx(300e-6),
        "import.retlab_s": pytest.approx(410e-6),
    }


def _files(directory: Path) -> dict:
    return {
        p.relative_to(directory).as_posix(): p.read_bytes()
        for p in sorted(directory.rglob("*")) if p.is_file()
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_seed_regenerates_identical_inputs(tmp_path, name):
    made = {}
    for run, seed in (("a", 5), ("b", 5), ("c", 6)):
        make_inputs(WORKLOADS[name], seed, tmp_path / run)
        made[run] = _files(tmp_path / run / "inputs")
    assert made["a"] == made["b"]
    assert made["a"] != made["c"]
