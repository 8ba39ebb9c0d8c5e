"""The benchmark's tracer wraps retlab functions by (module, attribute)
name and reads some of their arguments by parameter name; a refactor that
renames either must show up here rather than in a broken benchmark run."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

# the call arguments each span's counter reads; ``_write_bytes`` reads
# ``out_dir`` where the call has it (``write_table``), else ``path``
COUNTER_ARGS = {
    "io.ingest_s": ("layout",),
    "io.write_s": ("out_dir", "path"),
    "var.irf_s": ("n_boot",),
}


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def boundary_functions(tracing):
    return [
        (module_name, attr, name, getattr(importlib.import_module(module_name), attr))
        for module_name, attr, name in tracing.BOUNDARIES
    ]


def test_every_boundary_resolves(tracing):
    for module_name, attr, _, func in boundary_functions(tracing):
        assert callable(func), f"{module_name}.{attr} is not callable"


def test_install_wraps_and_uninstall_restores(tracing):
    originals = boundary_functions(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module_name, attr, _, func in originals:
            wrapped = getattr(importlib.import_module(module_name), attr)
            assert wrapped is not func, f"{module_name}.{attr} was not wrapped"
    finally:
        tracer.uninstall()
    for module_name, attr, _, func in originals:
        restored = getattr(importlib.import_module(module_name), attr)
        assert restored is func, f"{module_name}.{attr} was not restored"


def test_counted_arguments_are_parameters(tracing):
    assert set(COUNTER_ARGS) <= set(tracing.COUNTERS)
    taken = set()
    for module_name, attr, name, func in boundary_functions(tracing):
        if name not in COUNTER_ARGS:
            continue
        params = set(inspect.signature(func).parameters) & set(COUNTER_ARGS[name])
        assert params, f"{module_name}.{attr} takes none of {COUNTER_ARGS[name]}"
        taken |= params
    assert taken == {"layout", "out_dir", "path", "n_boot"}
