"""The benchmark's traced run wraps netregime functions by module attribute.

`perfbench/run.py --trace 1` patches every `(module, attribute)` pair of
`perfbench/worker.py:trace_bindings` and counts each workload's per-unit
calls at `harness.<unit>`.  A rename or deletion of one of those names
breaks the traced run, so this test checks that each still resolves.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import netregime

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def worker():
    saved_path = list(sys.path)
    sys.path.insert(0, str(PERFBENCH))
    names = ("perfbench_worker", "checks", "tracer", "workloads")
    saved = {name: sys.modules.get(name) for name in names}
    try:
        spec = importlib.util.spec_from_file_location(names[0], PERFBENCH / "worker.py")
        module = importlib.util.module_from_spec(spec)
        # its dataclasses look their module up in sys.modules
        sys.modules[names[0]] = module
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.path[:] = saved_path
        for name, old in saved.items():
            if old is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = old


def test_trace_bindings_resolve(worker):
    bindings = worker.trace_bindings(netregime)
    assert len(bindings) == 23
    for module, attr in bindings:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_workload_units_resolve(worker):
    assert worker.WORKLOADS
    for workload in worker.WORKLOADS.values():
        assert callable(getattr(netregime.harness, workload.unit, None)), workload.unit
