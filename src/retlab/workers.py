"""Forked worker processes for the stages that split their work.

`map_phases` runs functions over lists of jobs, in forked workers when
more than one CPU is usable and in the caller's process otherwise;
`shared_empty` makes an array that forked workers write into and their
parent reads, without pickling it.

Each worker stands for one CPU, so the jobs run on one BLAS thread,
serial runs too: the OpenBLAS copies that numpy and scipy load are set
to one thread for the length of a call, then set back. Threads beyond
one per CPU would oversubscribe the CPUs, and OpenBLAS threads spin
while they wait, so they would take the CPUs from the workers. With one
thread in every run, no result depends on the number of workers.

The workers are forked, not spawned: a worker neither imports the
package again nor receives the functions and jobs through a pipe. It
finds them in its copy of the parent's memory, so a function may be a
closure over arrays; only job indices and results cross.
"""

from __future__ import annotations

import mmap
import os
import sys
import warnings
from contextlib import contextmanager

import numpy as np

# the phases of the call in progress, for its forked workers
_task = None

# (setter, getter) of the thread count in each OpenBLAS build: plain,
# 64-bit integer, and the ones the numpy and scipy wheels bundle
_BLAS_THREAD_CALLS = tuple(
    (f"{prefix}openblas_set_num_threads{suffix}",
     f"{prefix}openblas_get_num_threads{suffix}")
    for prefix in ("", "scipy_") for suffix in ("", "64_")
)


def count(n_jobs: int) -> int:
    """Worker processes for `n_jobs` jobs: one per usable CPU, at most
    one per job; 1 (the caller's own process) where fork is missing."""
    if not hasattr(os, "fork"):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(n_jobs, cpus))


def _loaded_openblas() -> list:
    """(setter, getter) of the thread count of each OpenBLAS copy this
    process has loaded; none where the loaded libraries cannot be listed
    (no ``/proc/self/maps``)."""
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as maps:
            paths = {line.split(None, 5)[-1].strip() for line in maps if "openblas" in line}
    except OSError:
        return []
    import ctypes

    calls = []
    for path in sorted(paths):
        if "openblas" not in os.path.basename(path):
            continue
        try:
            library = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for setter, getter in _BLAS_THREAD_CALLS:
            if hasattr(library, setter) and hasattr(library, getter):
                calls.append((getattr(library, setter), getattr(library, getter)))
                break
    return calls


@contextmanager
def _one_blas_thread():
    """Set every loaded OpenBLAS copy to one thread, and back on exit."""
    calls = _loaded_openblas()
    saved = [getter() for _, getter in calls]
    for setter, _ in calls:
        setter(1)
    try:
        yield
    finally:
        for (setter, _), threads in zip(calls, saved):
            setter(threads)


def _run(job: tuple[int, int]):
    phase, index = job
    func, jobs = _task[phase]
    return func(jobs[index])


def map_phases(*phases) -> list[list]:
    """``[func(job) for job in jobs]`` for each phase ``(func, jobs)``, in
    order, on `count` workers for the longest phase, each on one BLAS
    thread.

    The phases share one set of workers, forked once; a phase starts when
    the one before it has finished, so its jobs may read what the earlier
    ones wrote to `shared_empty` arrays. An exception raised by a `func`
    reaches the caller. Every worker is joined before this returns or
    raises, so their CPU time counts in the caller's ``RUSAGE_CHILDREN``
    and no process outlives the call.
    """
    phases = [(func, list(jobs)) for func, jobs in phases]
    workers = count(max(len(jobs) for _, jobs in phases))
    with _one_blas_thread():
        if workers == 1:
            return [[func(job) for job in jobs] for func, jobs in phases]
        return _fork_map(phases, workers)


def _fork_map(phases: list, workers: int) -> list[list]:
    global _task
    # imported here, so that runs that never start a pool do not pay for
    # them in start-up time and memory
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # a forked child flushes the std streams when it exits: empty them
    # first so the parent's buffered output is not written twice
    sys.stdout.flush()
    sys.stderr.flush()
    _task = phases
    try:
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(workers, mp_context=context) as pool:
            with warnings.catch_warnings():
                # Python >= 3.12 warns on forking a process that runs
                # threads (BLAS); the workers fork inside the first map,
                # and the warning is not the caller's
                warnings.simplefilter("ignore", DeprecationWarning)
                return [
                    list(pool.map(_run, [(phase, i) for i in range(len(jobs))]))
                    for phase, (_, jobs) in enumerate(phases)
                ]
    finally:
        _task = None


def shared_empty(shape) -> np.ndarray:
    """An uninitialised float64 array in anonymous shared memory: what a
    forked worker writes into it, its parent and later workers see."""
    size = int(np.prod(shape))
    buffer = mmap.mmap(-1, max(size, 1) * 8)
    return np.frombuffer(buffer, np.float64, count=size).reshape(shape)
