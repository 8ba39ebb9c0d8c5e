"""One round of a workload, in a fresh interpreter.

The round imports the ``retlab`` entry point and loads the first
command's config (its set-up), then runs every command of the round in
turn through ``retlab.cli.main.main``, as the installed ``retlab``
wrapper does. It prints one JSON object: the set-up time since the
parent spawned it, the wall and CPU time of the commands, its peak
resident set, how many commands failed, a digest of every output file
and, when traced, the spans of the round.

    python3 bench/worker.py --spawned <time.monotonic() of the parent>
        [--trace | --setup-only] <command> <config> [<command> <config> ...]

With ``--setup-only`` it stops after set-up.
"""

import time

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import traceback
from pathlib import Path


def _parse(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("pairs", nargs="+")
    args = parser.parse_args(argv)
    if len(args.pairs) % 2:
        parser.error("commands and configs must come in pairs")
    args.pairs = list(zip(args.pairs[::2], args.pairs[1::2]))
    return args


def _cpu_seconds() -> float:
    """User plus system CPU time of this process and its children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _run_command(retlab_main, command: str, config: str) -> int:
    """Exit status of one command; an uncaught exception counts as 1,
    as it would for the installed wrapper."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return retlab_main([command, config])
    except Exception:  # a crash is one failed operation, not the end of the round
        traceback.print_exc()
        return 1


def _outcome(out_dir: Path, status: int) -> tuple[bool, dict]:
    """Whether the command succeeded, and the digest of each output file."""
    digests = {
        p.relative_to(out_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file()
    }
    try:
        summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return False, digests
    ok = status == 0 and all(s["status"] == "ok" for s in summary["stages"])
    return ok, digests


def main(argv=None) -> int:
    args = _parse(argv)
    from retlab.cli.main import load_config, main as retlab_main

    load_config(Path(args.pairs[0][1]))
    result = {"setup_s": time.monotonic() - args.spawned}
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        cpu0 = _cpu_seconds()
        wall0 = time.perf_counter()
        statuses = [_run_command(retlab_main, c, cfg) for c, cfg in args.pairs]
        wall1 = time.perf_counter()
        result["cpu_s"] = _cpu_seconds() - cpu0
        result["run_s"] = wall1 - wall0
        if tracer is not None:
            tracer.uninstall()
            result["trace"] = tracer.export(wall0, wall1)
        failed = 0
        digests = {}
        for (command, config), status in zip(args.pairs, statuses):
            ok, digests[command] = _outcome(
                Path("out") / command, status
            )
            failed += not ok
        result.update(attempted=len(statuses), failed=failed, digests=digests)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
