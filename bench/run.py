"""retlab benchmark: one workload, timed end to end or per layer.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout (it needs ``src/retlab``). The
run writes the workload's inputs, made from the seed, under
``.bench_work/<workload>/``, then runs rounds until ``--seconds`` have
passed, and at least two. A round is one fresh interpreter that imports
the ``retlab`` entry point, loads the config and runs the workload's
commands one after another (a closed loop from one process). In an
untraced run, two interpreters only set up before the rounds. Every
output check runs after the rounds, and the last line printed is the
result as JSON.

With ``--trace 0`` the metrics are the end-to-end ones: medians over the
run's interpreters of set-up time, and over its rounds of wall time, CPU
time and peak resident set. With ``--trace 1`` every other round is
traced (see ``tracing.py``) and the metrics are per layer, medians over
the traced rounds, plus the import times of one ``-X importtime`` start
and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

SETUP_PROBES = 2
MIN_ROUNDS = 2
ROUND_TIMEOUT_S = 150
BLAS_THREADS = "1"
UNITS = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _environment(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = BLAS_THREADS
    return env


def _spawn(env: dict, workdir: Path, pairs, trace: bool = False,
           setup_only: bool = False, importtime: bool = False) -> tuple[dict, str]:
    """Run one worker interpreter to its end, from a clean output
    directory; its result, and its stderr (the import log when
    `importtime`)."""
    shutil.rmtree(workdir / "out", ignore_errors=True)
    argv = [sys.executable]
    if importtime:
        argv += ["-X", "importtime"]
    argv += [str(Path(__file__).resolve().with_name("worker.py"))]
    if trace:
        argv.append("--trace")
    if setup_only:
        argv.append("--setup-only")
    for command, config in pairs:
        argv += [command, str(config)]
    argv += ["--spawned", repr(time.monotonic())]
    proc = subprocess.run(
        argv, cwd=workdir, env=env, capture_output=True, text=True,
        timeout=ROUND_TIMEOUT_S,
    )
    if proc.returncode != 0 or not importtime:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with status {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1]), proc.stderr


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "retlab" / "__init__.py").is_file():
        print(f"error: no retlab sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from inputs import WORKLOADS, make_inputs
    from checks import check_deterministic, check_outputs

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = root / ".bench_work" / workload.name
    shutil.rmtree(workdir, ignore_errors=True)
    configs = make_inputs(workload, args.seed, workdir)
    pairs = [(command, configs[command]) for command in workload.commands]
    env = _environment(src)

    setups = [_spawn(env, workdir, pairs, setup_only=True)[0]["setup_s"]
              for _ in range(SETUP_PROBES)] if not args.trace else []
    rounds = []
    started = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - started < args.seconds:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        result, _ = _spawn(env, workdir, pairs, trace=traced)
        result["traced"] = traced
        rounds.append(result)

    problems = check_deterministic([r["digests"] for r in rounds])
    try:
        problems += check_outputs(workdir, workload.commands,
                                  recovery=workload.name == "long-risk")
    except (OSError, KeyError, ValueError) as exc:  # an output is missing or malformed
        problems.append(f"outputs unreadable: {exc!r}")
    if args.trace:
        metrics, trace_problems = _layer_metrics(env, workdir, pairs, rounds)
        problems += trace_problems
    else:
        metrics = {
            "setup_s": statistics.median(setups + [r["setup_s"] for r in rounds]),
            "run_s": statistics.median(r["run_s"] for r in rounds),
            "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        }
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0


def _layer_metrics(env, workdir, pairs, rounds):
    from tracing import COUNT_METRICS, import_metrics, layer_metrics

    per_round = []
    problems = []
    for r in rounds:
        if r["traced"]:
            metrics, found = layer_metrics(r["trace"])
            per_round.append(metrics)
            problems += found
    metrics = {
        name: statistics.median(m[name] for m in per_round) for name in per_round[0]
    }
    _, log = _spawn(env, workdir, pairs, setup_only=True, importtime=True)
    metrics.update(import_metrics(log))
    metrics["trace.overhead_s"] = (
        statistics.median(r["run_s"] for r in rounds if r["traced"])
        - statistics.median(r["run_s"] for r in rounds if not r["traced"])
    )
    out = {}
    for name, value in metrics.items():
        if name in COUNT_METRICS:
            out[name] = {"value": int(value), "unit": "bytes" if name.endswith("bytes") else "count"}
        else:
            out[name] = {"value": value, "unit": "s"}
    return out, problems


if __name__ == "__main__":
    sys.exit(main())
