import multiprocessing
import os
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from retlab import optimize, workers
from retlab.errors import ValidationError


def run_fresh(probe, cwd=None):
    """Stdout of `probe` run in a fresh interpreter that imports the
    retlab package this suite imported."""
    package_root = str(Path(workers.__file__).resolve().parents[1])
    pythonpath = [package_root, os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, cwd=cwd,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def use_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def slow_in_reverse(job):
    # the first jobs take longest, so they finish last in a pool
    time.sleep(0.02 * (5 - job))
    return job * job, os.getpid()


class TestCount:
    def test_one_per_cpu_at_most_one_per_job(self, monkeypatch):
        use_cpus(monkeypatch, 3)
        assert [workers.count(n) for n in (0, 1, 2, 3, 7)] == [1, 1, 2, 3, 3]

    def test_one_without_fork(self, monkeypatch):
        use_cpus(monkeypatch, 4)
        monkeypatch.delattr(os, "fork")
        assert workers.count(8) == 1


class TestMapPhases:
    def test_results_come_back_in_job_order(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        results = workers.map_phases((slow_in_reverse, range(5)))[0]
        assert [value for value, _ in results] == [0, 1, 4, 9, 16]
        assert os.getpid() not in {pid for _, pid in results}
        assert multiprocessing.active_children() == []

    def test_one_cpu_runs_in_the_caller_with_the_same_results(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        pooled = workers.map_phases((slow_in_reverse, range(5)))[0]
        use_cpus(monkeypatch, 1)
        serial = workers.map_phases((slow_in_reverse, range(5)))[0]
        assert [value for value, _ in serial] == [value for value, _ in pooled]
        assert {pid for _, pid in serial} == {os.getpid()}

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_worker_exception_reaches_the_caller(self, monkeypatch, cpus):
        use_cpus(monkeypatch, cpus)

        def fail_on_three(job):
            if job == 3:
                raise ValidationError(f"job {job} is bad")
            return job

        with pytest.raises(ValidationError, match="job 3 is bad"):
            workers.map_phases((fail_on_three, range(6)))
        assert multiprocessing.active_children() == []

    def test_later_phases_see_shared_writes_on_the_same_workers(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        forks = []
        real_fork = os.fork

        def fork():
            forks.append(os.getpid())
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)
        shared = workers.shared_empty((4, 3))

        def fill_row(row):  # closures: a pool that pickled them would fail
            shared[row] = row
            return os.getppid()

        def row_sum(row):
            return float(shared[row].sum())

        parents, sums = workers.map_phases((fill_row, range(4)), (row_sum, range(4)))
        assert set(parents) == {os.getpid()}
        assert sums == [0.0, 3.0, 6.0, 9.0]
        assert len(forks) == 2
        np.testing.assert_array_equal(shared, np.arange(4.0)[:, None] * np.ones(3))

    def test_no_pool_modules_at_start_up(self):
        probe = (
            "import sys, retlab.cli.main, retlab.varmodel; "
            "print('multiprocessing' in sys.modules)"
        )
        assert run_fresh(probe) == "False"

    def test_no_scipy_stats_or_signal_at_start_up_or_after_a_report(self, tmp_path):
        # a module that only a stage imports would show after the report;
        # where the optimizer driver falls back to scipy.optimize, the risk
        # stage imports it, so only start-up must be without it there
        for name in ("demo.cfg", "demo_returns.csv", "demo_constituents.csv"):
            (tmp_path / name).write_bytes((resources.files("retlab") / "data" / name).read_bytes())
        absent = {"scipy.stats", "scipy.signal", "scipy.optimize"}
        absent_after = absent if optimize.EXTENSIONS else absent - {"scipy.optimize"}
        probe = (
            "import sys\n"
            "from retlab.cli.main import main\n"
            "def loaded(names):\n"
            "    return sorted(names & set(sys.modules))\n"
            f"print(loaded({absent!r}))\n"
            "status = main(['report', 'demo.cfg'])\n"
            f"print(status, loaded({absent_after!r}))\n"
        )
        lines = run_fresh(probe, cwd=tmp_path).splitlines()
        # the first line is printed before the report's own lines
        assert (lines[0], lines[-1]) == ("[]", "0 []")

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_jobs_run_on_one_blas_thread(self, monkeypatch, cpus):
        threads = [getter() for _, getter in workers._loaded_openblas()]
        if not threads:
            pytest.skip("no OpenBLAS copy found in this process")
        use_cpus(monkeypatch, cpus)

        def blas_threads(job):
            return [getter() for _, getter in workers._loaded_openblas()]

        assert workers.map_phases((blas_threads, range(2))) == [[[1] * len(threads)] * 2]
        assert [getter() for _, getter in workers._loaded_openblas()] == threads
