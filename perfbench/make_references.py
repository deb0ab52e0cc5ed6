"""Record the reference outputs the benchmark's correctness check compares to.

    python3 perfbench/make_references.py

Sweeps every workload once per seed 0 .. checks.REFERENCE_SEEDS - 1 with
the current `src/`, records the fixed percolation slabs of
checks.slab_records, and writes perfbench/references.json.  Run it only
on a commit whose outputs are trusted; the check then holds later commits
to them.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

from checks import REFERENCE_SEEDS, SLAB_C, SLAB_N, slab_records
from worker import HERE, build_config
from workloads import WORKLOADS


def main() -> int:
    from netregime import harness, network, percolation

    refs = {"percolation_slabs": {"n": SLAB_N, "c": SLAB_C,
                                  "records": slab_records(network, percolation)}}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        out = os.path.join(tmp, "sweep.csv")
        for workload in WORKLOADS.values():
            csv = {}
            for seed in range(REFERENCE_SEEDS):
                # One worker: outputs do not depend on the worker count.
                harness.emit_sweep(build_config(harness, workload, seed, out), 1)
                with open(out, encoding="utf-8") as fh:
                    csv[str(seed)] = fh.read().splitlines()
                print(workload.name, seed, csv[str(seed)][1:], file=sys.stderr, flush=True)
            config = build_config(harness, workload, 0, out).to_dict()
            refs[workload.name] = {
                "config": {k: v for k, v in json.loads(json.dumps(config)).items()
                           if k not in ("master_seed", "out")},
                "csv": csv,
            }
    with open(HERE / "references.json", "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
