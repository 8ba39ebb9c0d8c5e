"""Spans around the calls into each retlab layer, kept in memory.

The tracer replaces module attributes with timing wrappers for the length
of a round, from outside the program: a call is traced where one layer
looks up another's function (``retlab.cli.pipeline`` calling
``risk_report``, ``retlab.risk`` calling ``fit_mixture_em``, ...), so a
layer's own internal calls stay inside its span. Each span records its
name, start, end, parent and the counts taken from its arguments and
result; `layer_metrics` turns the spans of a round into the per-layer
metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from pathlib import Path

# (module that makes the call, attribute it calls, span name)
BOUNDARIES = (
    ("retlab.cli.main", "load_config", "config.load_s"),
    ("retlab.cli.pipeline", "ingest", "io.ingest_s"),
    ("retlab.cli.pipeline", "write_csv", "io.write_s"),
    ("retlab.cli.pipeline", "write_table", "io.write_s"),
    ("retlab.cli.tables", "write_csv", "io.write_s"),
    ("retlab.cli.pipeline", "align", "series.s"),
    ("retlab.cli.pipeline", "build_value_weighted_index", "series.s"),
    ("retlab.cli.pipeline", "cumulate_log_price", "series.s"),
    ("retlab.cli.pipeline", "describe", "descstats.s"),
    ("retlab.cli.pipeline", "correlogram", "descstats.s"),
    ("retlab.cli.pipeline", "cross_sectional_summary", "descstats.s"),
    ("retlab.cli.pipeline", "pca", "factors.s"),
    ("retlab.cli.pipeline", "scree", "factors.s"),
    ("retlab.cli.pipeline", "factor_regression", "factors.s"),
    ("retlab.risk", "residual_panel", "factors.s"),
    ("retlab.cli.pipeline", "unit_root_tests", "unitroot.s"),
    ("retlab.cli.pipeline", "risk_report", "risk.report"),
    ("retlab.risk", "fit_mixture_em", "mixture.s"),
    ("retlab.risk", "fit_garch11", "garch.s"),
    ("retlab.risk", "fit_gpd_pot", "gpd.s"),
    ("retlab.risk", "loss_fractile", "risk.query_s"),
    ("retlab.risk", "average_loss", "risk.query_s"),
    ("retlab.cli.pipeline", "select_lag", "var.select_lag_s"),
    ("retlab.cli.pipeline", "fit_var", "var.fit_s"),
    ("retlab.cli.pipeline", "granger_causality", "var.granger_s"),
    ("retlab.cli.pipeline", "forecast", "var.forecast_s"),
    ("retlab.cli.pipeline", "irf", "var.irf_s"),
    ("retlab.cli.pipeline", "fevd", "var.fevd_s"),
)


def _ingest_rows(args, result) -> int:
    if args["layout"] == "constituents":
        return len(result)
    if args["layout"] == "long":  # one row per series and month
        return len(result) * result.width
    return len(result)


def _write_bytes(args, result) -> int:
    if "out_dir" in args:  # write_table: the text table and its CSV twin
        return sum(os.path.getsize(Path(args["out_dir"]) / name) for name in result)
    return os.path.getsize(args["path"])


COUNTERS = {
    "io.ingest_s": lambda a, r: {"io.ingest_rows": _ingest_rows(a, r)},
    "io.write_s": lambda a, r: {"io.write_bytes": _write_bytes(a, r)},
    "unitroot.s": lambda a, r: {"unitroot.tests": 1},
    "mixture.s": lambda a, r: {
        "mixture.fits": 1,
        "mixture.iters": r.n_iter,
        "mixture.unconverged": int(not r.converged),
    },
    "garch.s": lambda a, r: {
        "garch.fits": 1,
        "garch.unconverged": int(not r.converged),
    },
    "gpd.s": lambda a, r: {"gpd.fits": 1},
    "risk.query_s": lambda a, r: {"risk.queries": 1},
    "var.irf_s": lambda a, r: {"var.boot_reps": a["n_boot"]},
}

DERIVED_METRICS = ("risk.self_s", "pipeline.self_s")
TIME_METRICS = tuple(dict.fromkeys(
    name for _, _, name in BOUNDARIES if name != "risk.report"
))
COUNT_METRICS = (
    "io.ingest_rows", "io.write_bytes", "unitroot.tests", "mixture.fits",
    "mixture.iters", "mixture.unconverged", "garch.fits", "garch.unconverged",
    "gpd.fits", "risk.queries", "var.boot_reps",
)


class Tracer:
    """Collects the spans of one round; install before it, uninstall after."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for module_name, attr, name in BOUNDARIES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, func, name: str):
        counter = COUNTERS.get(name)
        signature = inspect.signature(func)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "parent": self._open[-1] if self._open else None,
                "counts": {},
            }
            self._open.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span["counts"] = counter(bound.arguments, result)
            return result

        return traced

    def export(self, start: float, end: float) -> dict:
        """The round's spans, with times relative to its start."""
        for span in self.spans:
            span["start"] -= start
            span["end"] -= start
        return {"run_s": end - start, "spans": self.spans}


def layer_metrics(trace: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced round, and any inconsistency found
    in its spans.

    A layer's time is the total duration of its spans, not counting a
    span nested in one of the same name (a CSV twin written inside
    ``write_table``). ``risk.self_s`` is the risk report's time outside
    the spans it contains; ``pipeline.self_s`` is the round's wall time
    outside every top-level span, so the top-level spans and it add up
    to the round's ``run_s``.
    """
    spans = trace["spans"]
    metrics = dict.fromkeys(TIME_METRICS + COUNT_METRICS + DERIVED_METRICS, 0.0)
    problems = []
    covered = 0.0
    last_end = 0.0
    for span in spans:
        duration = span["end"] - span["start"]
        parent = spans[span["parent"]] if span["parent"] is not None else None
        if parent is None:
            if span["start"] < last_end or span["end"] > trace["run_s"]:
                problems.append(f"top-level span {span['name']} overlaps another")
            covered += duration
            last_end = span["end"]
        elif parent["name"] == "risk.report":
            metrics["risk.self_s"] -= duration
        if span["name"] == "risk.report":
            metrics["risk.self_s"] += duration
        elif parent is None or parent["name"] != span["name"]:
            metrics[span["name"]] += duration
            for key, value in span["counts"].items():
                metrics[key] += value
    metrics["pipeline.self_s"] = trace["run_s"] - covered
    if metrics["pipeline.self_s"] < 0:
        problems.append("top-level spans cover more than the round")
    return metrics, problems


def import_metrics(importtime_log: str) -> dict:
    """``import.scipy_s``: cumulative time of every scipy import not made
    by another scipy module; ``import.retlab_s``: cumulative time of the
    top-level retlab imports; both from ``python -X importtime``."""
    entries = []
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        entries.append((depth, int(cumulative) / 1e6, name.strip()))
    scipy_s = retlab_s = 0.0
    stack: list[tuple[int, bool]] = []  # (depth, inside a scipy import)
    # the log lists a module after its imports; reversed, parents come first
    for depth, cumulative, name in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not inside:
            scipy_s += cumulative
        if depth == 0 and (name == "retlab" or name.startswith("retlab.")):
            retlab_s += cumulative
        stack.append((depth, inside or is_scipy))
    return {"import.scipy_s": scipy_s, "import.retlab_s": retlab_s}
