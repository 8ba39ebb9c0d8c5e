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

The workers are forked directly with ``os.fork``, not spawned and not
run by a process pool: a worker neither imports the package again nor
receives the functions and jobs through a pipe. It finds them in its
copy of the parent's memory, so a function may be a closure over arrays.
Only job indices cross, down one pipe per worker, and results come back
up another, each as a length-prefixed pickle of ``(ok, value)``. A worker
that dies with a job out ends its result pipe, and the call raises
RuntimeError naming the job.
"""

from __future__ import annotations

import mmap
import os
import pickle
import select
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


class _WorkerTraceback(Exception):
    """The traceback a job's exception had in its worker, as text."""


class _Worker:
    """A forked worker: its pid (0 once reaped), the pipe ends that carry
    job indices to it and results back, and the index of the job it was
    last handed."""

    def __init__(self, pid: int, jobs: int, results: int):
        self.pid, self.jobs, self.results = pid, jobs, results
        self.index = None


def map_phases(*phases) -> list[list]:
    """``[func(job) for job in jobs]`` for each phase ``(func, jobs)``, in
    order, on `count` workers for the longest phase, each on one BLAS
    thread.

    The phases share one set of workers, forked once; a phase starts when
    the one before it has returned every result, so its jobs may read what
    the earlier ones wrote to `shared_empty` arrays. Where jobs raise, the
    exception of the first failing job in job order reaches the caller once
    the jobs under way have finished, and no later phase runs; a worker
    that dies with a job out raises RuntimeError. Every worker is reaped
    before this returns or raises, so their CPU time counts in the
    caller's ``RUSAGE_CHILDREN`` and no process outlives the call.
    """
    phases = [(func, list(jobs)) for func, jobs in phases]
    workers = count(max(len(jobs) for _, jobs in phases))
    with _one_blas_thread():
        if workers == 1:
            return [[func(job) for job in jobs] for func, jobs in phases]
        return _fork_map(phases, workers)


def _fork_map(phases: list, workers: int) -> list[list]:
    global _task
    _task = phases
    forked: list[_Worker] = []
    # the parent's pipe ends, and each new pipe's both until its fork
    fds: list[int] = []
    try:
        with warnings.catch_warnings():
            # Python >= 3.12 warns on forking a process that runs threads
            # (BLAS); the warning is not the caller's
            warnings.simplefilter("ignore", DeprecationWarning)
            for _ in range(workers):
                jobs_read, jobs_write = os.pipe()
                fds += (jobs_read, jobs_write)
                results_read, results_write = os.pipe()
                fds += (results_read, results_write)
                pid = os.fork()
                if pid == 0:
                    _serve(jobs_read, results_write, fds)
                forked.append(_Worker(pid, jobs_write, results_read))
                for fd in (jobs_read, results_write):
                    fds.remove(fd)
                    os.close(fd)
        return [_map_phase(phase, len(jobs), forked) for phase, (_, jobs) in enumerate(phases)]
    finally:
        _task = None
        # a worker ends at the end of its job pipe, after its job under way
        for fd in fds:
            os.close(fd)
        for worker in forked:
            if worker.pid:
                os.waitpid(worker.pid, 0)


def _map_phase(phase: int, size: int, forked: list[_Worker]) -> list:
    """The results of `phase`'s `size` jobs, each handed in job order to
    whichever worker is free."""
    results = [None] * size
    errors = {}
    idle = list(reversed(forked))
    busy: dict[int, _Worker] = {}
    index = 0
    while busy or (index < size and not errors):
        while idle and index < size and not errors:
            worker = idle.pop()
            worker.index = index
            index += 1
            job = phase.to_bytes(4, "little") + worker.index.to_bytes(4, "little")
            try:
                os.write(worker.jobs, job)
            except BrokenPipeError:
                errors[worker.index] = _died(worker, phase)
                continue
            busy[worker.results] = worker
        if not busy:
            break
        for fd in select.select(list(busy), [], [])[0]:
            worker = busy.pop(fd)
            header = _read(fd, 8)
            message = header and _read(fd, int.from_bytes(header, "little"))
            if message is None:
                errors[worker.index] = _died(worker, phase)
                continue
            ok, value = pickle.loads(message)
            if ok:
                results[worker.index] = value
            else:
                error, text = value
                error.__cause__ = _WorkerTraceback(text)
                errors[worker.index] = error
            idle.append(worker)
    if errors:
        raise errors[min(errors)]
    return results


def _died(worker: _Worker, phase: int) -> RuntimeError:
    """Reap `worker`, dead with its job out, and name the job."""
    pid, worker.pid = worker.pid, 0
    _, status = os.waitpid(pid, 0)
    return RuntimeError(
        f"worker {pid} died (exit status {os.waitstatus_to_exitcode(status)}) "
        f"running job {worker.index} of phase {phase}"
    )


def _serve(jobs: int, results: int, fds: list[int]) -> None:
    """A worker's life: run each job whose phase and index come down
    `jobs`, and send its pickled ``(ok, value)`` back up `results`, until
    `jobs` ends. It ends by ``os._exit``, so it flushes none of the
    buffers it shares with its parent."""
    status = 1
    try:
        for fd in fds:
            if fd not in (jobs, results):
                os.close(fd)
        while (job := _read(jobs, 8)) is not None:
            phase, index = int.from_bytes(job[:4], "little"), int.from_bytes(job[4:], "little")
            try:
                message = (True, _run((phase, index)))
            except Exception as exc:
                import traceback

                text = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
                message = (False, (exc, text))
            try:
                payload = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
            except Exception as exc:
                error = RuntimeError(
                    f"job {index} of phase {phase}: its outcome cannot be pickled: {exc!r}"
                )
                payload = pickle.dumps((False, (error, "")), pickle.HIGHEST_PROTOCOL)
            _write(results, len(payload).to_bytes(8, "little"))
            _write(results, payload)
        status = 0
    finally:
        os._exit(status)


def _read(fd: int, size: int) -> bytearray | None:
    """`size` bytes from `fd`, or None where it ends first."""
    data = bytearray(size)
    view = memoryview(data)
    got = 0
    while got < size:
        read = os.readv(fd, [view[got:]])
        if not read:
            return None
        got += read
    return data


def _write(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def shared_empty(shape) -> np.ndarray:
    """An uninitialised float64 array in anonymous shared memory: what a
    forked worker writes into it, its parent and later workers see."""
    size = int(np.prod(shape))
    buffer = mmap.mmap(-1, max(size, 1) * 8)
    return np.frombuffer(buffer, np.float64, count=size).reshape(shape)
