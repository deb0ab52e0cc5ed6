"""The benchmark's traced run wraps netregime functions by module attribute.

`perfbench/run.py --trace 1` patches every `(module, attribute)` pair of
`perfbench/worker.py:trace_bindings` and counts each workload's per-unit
calls at `harness.<unit>`.  A rename or deletion of one of those names
breaks the traced run, so this test checks that each still resolves.
The counter hooks read fields of the wrapped functions' results, so each
hook is also fed the real result of its function on a tiny input, and
`UnitCounter`, which reads each unit's n off its first argument for
`ok_frac`, counts a tiny sweep of each workload.
"""

import importlib.util
import json
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

import netregime
from netregime import (build_cell_grid, build_occupancy_grid, channel_matrix,
                       extract_cut, find_open_crossing, generate_network,
                       mc_cutset_logdet, partition_nodes, route_sd_lines)
from netregime.cutset import identity_logdet
from netregime.harness import operating_point
from netregime.percolation import PercolationGrid, split_by_cut

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


# Tiny sweeps of each workload's config: n_list, trials and instances.
TINY = {"cutset_mc": ([64, 128], 1, 1), "hybrid_m1": ([64, 128], 2, 1),
        "percolation_sweep": ([64, 128], 2, 1)}


def test_workload_units_resolve(worker):
    assert worker.WORKLOADS
    harness = netregime.harness
    for workload in worker.WORKLOADS.values():
        assert callable(getattr(harness, workload.unit, None)), workload.unit
        # ok_frac counts a unit by the n UnitCounter reads off its first argument
        n_list, trials, instances = TINY[workload.name]
        config = harness.ExperimentConfig.from_json(json.dumps(dict(
            workload.config, n_list=n_list, trials=trials, instances=instances)))
        counter = worker.UnitCounter(harness, workload.unit)
        with worker.patched({counter.binding: counter.wrapper}):
            harness.run_scaling_experiment(config)
        per_point = trials if workload.name == "hybrid_m1" else 1
        assert counter.calls == [(n, False) for n in n_list for _ in range(per_point)]


def count_with(worker, attr, args, result):
    """The counters the traced run's hook for ``attr`` adds for one call."""
    hooks = {a: count for (_, a), (_, count) in worker.trace_bindings(netregime).items()
             if count is not None}
    counts = defaultdict(int)
    hooks[attr](counts, args, result)
    return counts


@pytest.fixture(scope="module")
def tiny():
    """A 32-pair instance at snr_s = 4, alpha = 4, and its idealized cut."""
    _, area = operating_point(32, 4.0, 0.4)   # snr_s = 4
    inst = generate_network(32, area, seed=1)
    return inst, partition_nodes(inst, w_hat=2.0)


def test_channel_and_logdet_hooks(worker, tiny):
    inst, part = tiny
    h = channel_matrix(inst, 4.0, part.left_S, part.right_D, phase_seed=3)
    counts = count_with(worker, "channel_matrix",
                        (inst, 4.0, part.left_S, part.right_D), h)
    assert counts["network.channel_matrix.mbytes_computed"] > 0
    counts = count_with(worker, "identity_logdet", (h.entries, 4.0),
                        identity_logdet(h.entries, 4.0))
    assert counts["cutset.identity_logdet.gflop_computed"] > 0


def test_mc_logdet_hook(worker, tiny):
    inst, part = tiny
    mc = mc_cutset_logdet(inst, part, 4.0, 4.0, 3, phase_seed=5)
    counts = count_with(worker, "mc_cutset_logdet", (inst, part, 4.0, 4.0, 3), mc)
    assert counts["cutset.mc_cutset_logdet.trials"] == 3
    assert counts["cutset.mc_cutset_logdet.discarded"] == 0


def test_crossing_and_split_hooks(worker):
    inst = generate_network(64, 64.0, seed=0)
    grid = build_occupancy_grid(inst, 0.25)
    crossing = find_open_crossing(grid)
    assert crossing is not None
    counts = count_with(worker, "find_open_crossing", (grid,), crossing)
    assert counts["percolation.find_open_crossing.misses"] == 0
    blocked = PercolationGrid(0.25, 0.25, 3, 4, 1.0, np.ones((4, 3), dtype=bool))
    counts = count_with(worker, "find_open_crossing", (blocked,),
                        find_open_crossing(blocked))
    assert counts["percolation.find_open_crossing.misses"] == 1
    cut = extract_cut(crossing, inst)
    parts = split_by_cut(cut, inst)
    counts = count_with(worker, "split_by_cut", (cut, inst), parts)
    assert counts["percolation.split_by_cut.b_nodes"] == len(parts[1])


def test_route_hook(worker):
    inst = generate_network(64, 64.0, seed=2)
    grid = build_cell_grid(inst, 1)
    plan = route_sd_lines(grid, inst, 2)
    counts = count_with(worker, "route_sd_lines", (grid, inst, 2), plan)
    lengths = [len(p) for p in plan.cell_paths]
    assert counts["schemes.route_sd_lines.path_cells"] == sum(lengths) > 0
    assert counts["schemes.route_sd_lines.interior_hops"] == sum(
        max(n - 2, 0) for n in lengths)
    assert counts["schemes.route_sd_lines.reroutes"] == plan.reroutes
    assert counts["schemes.route_sd_lines.max_cell_load"] == plan.max_cell_load
