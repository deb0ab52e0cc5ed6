"""Benchmark entry point: one run of one workload, end to end or traced.

    python3 perfbench/run.py --workload cutset_mc --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  It runs perfbench/worker.py in a fresh
interpreter, which imports `netregime` from this checkout's `src/` and
sweeps the workload for about `--seconds`.  With `--trace 0` it also
times `setup_s` over SETUP_PROBES more fresh interpreters, taken in the
gaps between the sweeps when the worker asks for them, so that set-up
and sweeps are measured under the same machine conditions.  The
second-to-last stdout line is a JSON record (environment, CSV sha256,
failed units, samples); the last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json,
with `--trace 1` the per-layer ones.  Both records are also written under
`.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import END_TO_END, PER_LAYER, REFERENCE_SEED, WHY, WORKLOADS  # noqa: E402

SETUP_PROBES = 15
PROBE_TIMEOUT_S = 60


def setup_probe(workload: str, seed: int) -> float:
    """Seconds from spawning an interpreter to a built config."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=PROBE_TIMEOUT_S)
    return json.loads(proc.stdout.splitlines()[-1])["built_at"] - t0


def run_worker(args, out_dir: Path):
    """(the worker's summary, set-up probe samples); killed after a timeout."""
    probes = 0 if args.trace else SETUP_PROBES
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--out-dir", str(out_dir),
         "--setup-probes", str(probes)],
        cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(3 * args.seconds + 120, proc.kill)
    watchdog.start()
    setup, last = [], None
    try:
        for line in proc.stdout:
            if line.startswith("probe "):
                setup += [setup_probe(args.workload, args.seed)
                          for _ in range(int(line.split()[1]))]
                proc.stdin.write("\n")
                proc.stdin.flush()
            else:
                last = line
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or last is None or len(setup) != probes:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(last), setup


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=REFERENCE_SEED,
                   help="master_seed of the workload (default: the reference seed)")
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "netregime" / "__init__.py").is_file():
        print(f"no netregime sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    try:
        run, setup = run_worker(args, out_dir)
    except (subprocess.SubprocessError, OSError, RuntimeError, ValueError) as exc:
        print(f"benchmark process failed: {exc}", file=sys.stderr)
        return 1

    attempted, failed = run["attempted"], run["failed"]
    correct = failed == 0 and not run["problems"]
    if args.trace:
        values = run["per_layer"]
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        values = {
            "sweep_s": statistics.median(run["sweep_s"]),
            "cpu_s": statistics.median(run["cpu_s"]),
            "peak_rss_mb": run["peak_rss_mb"],
            "setup_s": statistics.median(setup),
            "ok_frac": (attempted - failed) / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "why": WHY[args.workload],
        "csv_sha256": run["csv_sha256"],
        "compared_to_reference": run["compared_to_reference"],
        "failed_frac": failed / attempted, "unit_errors": run["unit_errors"],
        "problems": run["problems"], "workers": run["workers"],
        "sweeps": len(run["sweep_s"]), "sweep_s_samples": run["sweep_s"],
        "cpu_s_samples": run["cpu_s"], "setup_s_samples": setup,
        "env": run["env"],
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
