"""Benchmark workloads, with metric names and units read from BENCHMARK.json.

Each workload is one `ExperimentConfig` swept through
`netregime.harness.emit_sweep`, the call behind `netregime sweep`.  The
config fields that select the regime are fixed; `trials` and `instances`
are scaled down from the sizes that first motivated each workload so
that one sweep takes a few seconds and a run holds several sweeps.

BENCHMARK.json at the repository root is the single source of the metric
lists and of each workload's one-line `why`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

# The default --seed.  references.json records seeds 0 to
# checks.REFERENCE_SEEDS - 1, this one among them.
REFERENCE_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict          # ExperimentConfig fields, without master_seed/out
    workers: int          # the `workers` argument of emit_sweep
    unit: str             # the per-unit call the harness makes
    loaded: tuple         # span names whose inclusive time this workload loads


WORKLOADS = {w.name: w for w in (
    Workload(
        name="cutset_mc",
        config=dict(kind="cutset", mode="percolation", alpha=4.0, beta=0.5,
                    n_list=[512, 1024, 2048], instances=2, trials=1),
        workers=1,
        unit="evaluate_cutset",
        loaded=("cutset.identity_logdet", "network.channel_matrix"),
    ),
    Workload(
        name="hybrid_m1",
        config=dict(kind="scheme", scheme="hybrid", alpha=4.0, beta=0.04,
                    n_list=[1024, 2048, 4096], trials=2),
        workers=2,
        unit="simulate_hybrid",
        loaded=("schemes.route_sd_lines",),
    ),
    Workload(
        name="percolation_sweep",
        config=dict(kind="percolation", constants={"c": 0.25},
                    n_list=[4096, 16384], trials=100),
        workers=1,
        unit="crossing_probability",
        loaded=("network.generate_network",),
    ),
)}

_BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                        .read_text(encoding="utf-8"))
WHY = {w["name"]: w["why"] for w in _BENCHMARK["workloads"]}
if set(WHY) != set(WORKLOADS):
    raise RuntimeError(f"BENCHMARK.json names workloads {sorted(WHY)}, "
                       f"perfbench defines {sorted(WORKLOADS)}")
# End-to-end metrics (`--trace 0`) and per-layer metrics (`--trace 1`): name -> unit.
END_TO_END = {m["name"]: m["unit"] for m in _BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _BENCHMARK["per_layer"]}
