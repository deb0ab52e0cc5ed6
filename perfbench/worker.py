"""One benchmark run of one workload, in a fresh interpreter.

Imports `netregime` from the `src/` next to this directory, sweeps the
workload through `harness.emit_sweep` for about `--seconds`, checks every
sweep's output and prints a JSON summary as its last stdout line.  With
`--trace 1` a warm-up sweep is followed by alternating untraced and
traced sweeps; spans go to `<out-dir>/<workload>-seed<seed>.spans.json`.
Before the sweeps it checks the fixed percolation slabs of
checks.slab_records.

With `--setup-probes k` (k > 0) the k set-up probes are spread over the
gaps after the sweeps: in each gap the worker prints `probe <count>`,
waits for a line on stdin while run.py takes that many probes, and goes
on.  The probes thus see the same machine conditions as the sweeps, and
do not count in this process's CPU time or memory.

`--setup-only` imports numpy, scipy and netregime, builds the config and
prints the CLOCK_MONOTONIC time at which the config was built.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from checks import (SLABS, check_sweep, reference_at, slab_mismatches,  # noqa: E402
                    slab_records)
from tracer import Tracer, patched, self_times, union_length  # noqa: E402
from workloads import PER_LAYER, WORKLOADS  # noqa: E402


def build_config(harness, workload, seed: int, out: str):
    """The workload's ExperimentConfig, parsed the way `netregime sweep` parses one."""
    doc = dict(workload.config, master_seed=seed, out=out)
    return harness.ExperimentConfig.from_json(json.dumps(doc))


class UnitCounter:
    """Counts the harness's per-unit calls and the ones that raised.

    It wraps the unit function at the harness binding, outside the
    harness's own exception handling, so a swallowed error still counts.
    """

    def __init__(self, harness, unit: str):
        self.binding = (harness, unit)
        self.calls = []          # (n, raised) per unit
        inner = getattr(harness, unit)

        def counted(*args, **kwargs):
            first = args[0]
            n = first if isinstance(first, int) else first.n_pairs
            try:
                result = inner(*args, **kwargs)
            except BaseException:
                self.calls.append((n, True))
                raise
            self.calls.append((n, False))
            return result
        self.wrapper = counted


@dataclass
class Sweep:
    wall: float
    cpu: float
    attempted: int
    failed: int
    errors: int
    csv_sha256: str | None
    problems: list
    compared: bool


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_sweep(harness, config, workers, counter, reference) -> Sweep:
    counter.calls.clear()
    error = None
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    try:
        harness.emit_sweep(config, workers)
    except Exception as exc:   # a failed sweep is reported, not fatal
        error = exc
    wall = time.perf_counter() - t0
    cpu = _cpu_seconds() - cpu0
    calls = list(counter.calls)
    errors = sum(raised for _, raised in calls)
    if error is not None:
        attempted = max(1, len(calls))
        return Sweep(wall, cpu, attempted, attempted, errors, None,
                     [f"emit_sweep raised {type(error).__name__}: {error}"], False)
    check = check_sweep(config.out, json.loads(json.dumps(config.to_dict())), reference)
    failed = sum(1 for n, raised in calls if raised or n in check.failing_n)
    return Sweep(wall, cpu, len(calls), failed, errors, check.csv_sha256,
                 check.problems, check.compared_to_reference)


def repeat_for(budget: float, fn, after=None) -> list:
    """Call `fn` until about `budget` seconds are used, at least once.

    The call count is fixed after the first call, as round(budget / its
    time), so a slow or fast stretch later in the run does not change it.
    `after(i, calls)`, if given, runs untimed after the i-th call.
    """
    t0 = time.perf_counter()
    results = [fn()]
    calls = max(1, round(budget / max(time.perf_counter() - t0, 1e-9)))
    while True:
        if after is not None:
            after(len(results) - 1, calls)
        if len(results) == calls:
            return results
        results.append(fn())


def request_probes(total: int):
    """An `after` hook that spreads `total` set-up probes over the gaps after the calls."""
    def after(i, calls):
        count = (i + 1) * total // calls - i * total // calls
        if count:
            print(f"probe {count}", flush=True)
            sys.stdin.readline()
    return after


# ---- traced run ---------------------------------------------------------

def _count_channel(counts, args, result):
    # Bytes of the 2n x 2n float64 phase matrix, the |rx| x |tx| x 2
    # float64 distance temporary and the complex128 entries, computed
    # from array shapes (not measured).
    n_nodes = args[0].n_nodes
    m, k = result.entries.shape
    counts["network.channel_matrix.mbytes_computed"] += (
        8 * n_nodes * n_nodes + 16 * m * k + 16 * m * k) / 1e6


def _count_logdet(counts, args, result):
    # Real flops of the complex Gram product (8 a^2 b) and a Hermitian
    # eigenvalue solve of the a x a Gram (16/3 a^3 for the tridiagonal
    # reduction), a = min(m, k), b = max(m, k); computed, not measured.
    m, k = args[0].shape
    a, b = min(m, k), max(m, k)
    counts["cutset.identity_logdet.gflop_computed"] += (8 * a * a * b + 16 * a ** 3 / 3) / 1e9


def _count_mc(counts, args, result):
    counts["cutset.mc_cutset_logdet.trials"] += result.trials_used
    counts["cutset.mc_cutset_logdet.discarded"] += result.discarded


def _count_find(counts, args, result):
    counts["percolation.find_open_crossing.misses"] += result is None


def _count_split(counts, args, result):
    counts["percolation.split_by_cut.b_nodes"] += len(result[1])


def _count_route(counts, args, result):
    lengths = [len(p) for p in result.cell_paths]
    counts["schemes.route_sd_lines.path_cells"] += sum(lengths)
    counts["schemes.route_sd_lines.interior_hops"] += sum(max(n - 2, 0) for n in lengths)
    counts["schemes.route_sd_lines.reroutes"] += result.reroutes
    key = "schemes.route_sd_lines.max_cell_load"
    counts[key] = max(counts[key], result.max_cell_load)


def trace_bindings(nr) -> dict:
    """Every binding a sweep looks up, mapped to its span name and counter."""
    h, net, cs, pc, sc, rg = (nr.harness, nr.network, nr.cutset,
                              nr.percolation, nr.schemes, nr.rng)
    return {
        (h, "emit_sweep"): ("harness.emit_sweep", None),
        (h, "run_scaling_experiment"): ("harness.run_scaling_experiment", None),
        (h, "generate_network"): ("network.generate_network", None),
        (h, "evaluate_cutset"): ("cutset.evaluate_cutset", None),
        (h, "simulate_hybrid"): ("schemes.simulate_hybrid", None),
        (h, "crossing_probability"): ("percolation.crossing_probability", None),
        (net, "node_phases"): ("network.node_phases", None),
        (cs, "channel_matrix"): ("network.channel_matrix", _count_channel),
        (cs, "partition_nodes"): ("cutset.partition_nodes", None),
        (cs, "snr_total"): ("cutset.snr_total", None),
        (cs, "dof_term_realized"): ("cutset.dof_term_realized", None),
        (cs, "mc_cutset_logdet"): ("cutset.mc_cutset_logdet", _count_mc),
        (cs, "identity_logdet"): ("cutset.identity_logdet", _count_logdet),
        (pc, "generate_network"): ("network.generate_network", None),
        (pc, "build_occupancy_grid"): ("percolation.build_occupancy_grid", None),
        (pc, "has_open_crossing"): ("percolation.has_open_crossing", None),
        (pc, "find_open_crossing"): ("percolation.find_open_crossing", _count_find),
        (pc, "extract_cut"): ("percolation.extract_cut", None),
        (pc, "split_by_cut"): ("percolation.split_by_cut", _count_split),
        (sc, "build_cell_grid"): ("schemes.build_cell_grid", None),
        (sc, "route_sd_lines"): ("schemes.route_sd_lines", _count_route),
        (sc, "hybrid_throughput"): ("schemes.hybrid_throughput", None),
        (rg, "substream"): ("rng.substream", None),
    }


def layer_metrics(tracer, sweep: Sweep, loaded) -> dict:
    """Per-layer metrics of one traced sweep, named as in PER_LAYER."""
    spans = tracer.spans
    selfs, calls, counts = self_times(spans), Counter(s.name for s in spans), tracer.counts
    metrics = {}
    for name in PER_LAYER:
        layer, stat = name.rsplit(".", 1)
        if stat == "self_s":
            metrics[name] = selfs.get(layer, 0.0)
        elif stat == "calls":
            metrics[name] = calls.get(layer, 0)
        else:
            metrics[name] = counts.get(name, 0)
    hops = counts.get("schemes.route_sd_lines.interior_hops", 0)
    metrics["schemes.route_sd_lines.reroute_ratio"] = (
        counts.get("schemes.route_sd_lines.reroutes", 0) / hops if hops else 0.0)
    metrics["harness.units"] = sweep.attempted
    metrics["harness.unit_errors"] = sweep.errors
    total = union_length((s.start, s.end) for s in spans if s.name == "harness.emit_sweep")
    covered = union_length((s.start, s.end) for s in spans if s.name in loaded)
    metrics["trace.loaded_share"] = covered / total if total else 0.0
    return metrics


# ---- environment ----------------------------------------------------------

def _blas_threads(lib_dir: str | None):
    import numpy
    candidates = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                        "numpy.libs", "*openblas*"))
    if lib_dir:
        candidates += glob.glob(os.path.join(lib_dir, "*openblas*.so*"))
    for path in candidates:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(blas.get("lib directory")),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 1e6,
    }


# ---- entry point -----------------------------------------------------------

def load_reference(workload, seed: int, config_dict: dict):
    """(checks.Reference at `seed` or None, problem or None, recorded slabs).

    References recorded for a different workload config are a problem,
    so stale references cannot pass silently.
    """
    with open(HERE / "references.json", encoding="utf-8") as fh:
        all_refs = json.load(fh)
    refs, slabs = all_refs[workload.name], all_refs["percolation_slabs"]
    run_config = {k: v for k, v in config_dict.items() if k not in ("master_seed", "out")}
    if refs["config"] != run_config:
        return None, f"references.json was recorded for another {workload.name} config", slabs
    return reference_at(workload.name, refs["csv"], seed), None, slabs


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out-dir", default=str(ROOT / ".perfbench_out"))
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--setup-probes", type=int, default=0)
    args = p.parse_args(argv)
    workload = WORKLOADS[args.workload]
    out = os.path.join(args.out_dir, f"{workload.name}-seed{args.seed}.csv")

    import numpy  # noqa: F401
    import scipy  # noqa: F401
    import netregime
    from netregime import harness
    config = build_config(harness, workload, args.seed, out)
    if args.setup_only:
        print(json.dumps({"built_at": time.monotonic()}))
        return 0
    if not Path(netregime.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"netregime imported from {netregime.__file__}, not {ROOT / 'src'}")

    config_dict = json.loads(json.dumps(config.to_dict()))
    reference, ref_problem, slab_reference = load_reference(workload, args.seed, config_dict)
    slab_problems = slab_mismatches(slab_records(netregime.network, netregime.percolation),
                                    slab_reference)
    workers = min(workload.workers, len(os.sched_getaffinity(0)))
    counter = UnitCounter(harness, workload.unit)
    traced, per_layer, spans, layers = [], [], [], {}

    def sweep_once():
        return run_sweep(harness, config, workers, counter, reference)

    def traced_once():
        with Tracer(trace_bindings(netregime)) as tracer:
            sweep = sweep_once()
        spans.append([s.as_list() for s in tracer.spans])
        per_layer.append(layer_metrics(tracer, sweep, workload.loaded))
        return sweep

    with patched({counter.binding: counter.wrapper}):
        if not args.trace:
            untraced = repeat_for(args.seconds, sweep_once, request_probes(args.setup_probes))
        else:
            # The first sweep warms the process and is left out of the
            # overhead ratio; then untraced and traced sweeps alternate in
            # pairs, so both sides see the same machine conditions.
            t0 = time.perf_counter()
            warm = sweep_once()
            pairs = repeat_for(args.seconds - (time.perf_counter() - t0),
                               lambda: (sweep_once(), traced_once()))
            untraced = [warm] + [u for u, _ in pairs]
            traced = [t for _, t in pairs]
    if args.trace:
        layers = {name: statistics.median(m[name] for m in per_layer) for name in PER_LAYER}
        layers["trace.overhead_frac"] = statistics.median(
            t.wall / u.wall - 1.0 for u, t in pairs)
        spans_path = os.path.join(args.out_dir, f"{workload.name}-seed{args.seed}.spans.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "thread"],
                       "sweeps": spans}, fh, separators=(",", ":"))

    sweeps = untraced + traced
    problems = sorted({p for s in sweeps for p in s.problems} | ({ref_problem} - {None})
                      | set(slab_problems))
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps({
        "sweep_s": [s.wall for s in untraced],
        "cpu_s": [s.cpu for s in untraced],
        # ru_maxrss is in KiB; the largest child's high-water mark is added.
        "peak_rss_mb": (own + kids) * 1024 / 1e6,
        # Each fixed slab counts as one unit; a mismatching slab fails.
        "attempted": sum(s.attempted for s in sweeps) + SLABS,
        "failed": sum(s.failed for s in sweeps) + len(slab_problems),
        "unit_errors": sum(s.errors for s in sweeps),
        "csv_sha256": sorted({s.csv_sha256 for s in sweeps if s.csv_sha256}),
        "compared_to_reference": all(s.compared for s in sweeps),
        "problems": problems[:20],
        "workers": workers,
        "per_layer": layers,
        "env": environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
