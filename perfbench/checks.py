"""Correctness check of one sweep's CSV and manifest.

Every run checks that the manifest hash matches the CSV bytes, that the
manifest records the config that was run, that every point is finite,
and the invariants of the workload's kind.  At a seed recorded in
references.json the points must also match the reference:

* hybrid_m1 and percolation_sweep byte for byte, since routing and
  instance generation are promised to stay byte-identical;
* cutset_mc within TOLERANCE_STDERR times the stderr at that n, pooled
  (root mean square) over the REFERENCE_SEEDS recorded seeds: 15, 23
  and 31 bits at n = 512, 1024 and 2048.  A point's own stderr is the
  spread of its two instances, which is sometimes near zero by chance,
  so the pooled value is used.  At seed 0, redrawing all phases from
  another stream moved the points by about 1 bit at most, while a Gram
  product without the conjugate, or a log-det without the snr factor,
  moved every point by more than its tolerance.

At c = 0.25 every percolation_sweep row is a crossing rate of 1, so its
rows cannot show a change in the grid build or the crossing search.
Every run therefore also checks SLABS fixed slabs at n = SLAB_N and
c = SLAB_C, near the crossing threshold, where about half the slabs are
blocked: for each, `has_open_crossing`, the closed-cell count, a digest
of the occupancy grid and a digest of the `find_open_crossing` path must
match references.json.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

# Workloads compared within a tolerance; all others must match byte for byte.
TOLERANCE_STDERR = {"cutset_mc": 1.0}
# Seeds 0 .. REFERENCE_SEEDS - 1 are recorded; the cutset_mc tolerance pools over all of them.
REFERENCE_SEEDS = 24
SLAB_N, SLAB_C, SLABS = 256, 0.52, 32
HEADER = "n,metric,stderr"


@dataclass(frozen=True)
class Reference:
    lines: list               # reference CSV lines, header first
    tolerance: list | None    # allowed |metric - reference| per point; None: exact


def reference_at(workload_name: str, recorded: dict, seed: int):
    """The Reference at `seed` from a workload's recorded CSVs, or None."""
    lines = recorded.get(str(seed))
    if lines is None:
        return None
    k = TOLERANCE_STDERR.get(workload_name)
    if k is None:
        return Reference(lines, None)
    stderrs = zip(*([float(row.split(",")[2]) for row in recorded[str(s)][1:]]
                    for s in range(REFERENCE_SEEDS)))
    return Reference(lines, [k * math.sqrt(math.fsum(s * s for s in col) / len(col))
                             for col in stderrs])


@dataclass
class CheckResult:
    csv_sha256: str
    failing_n: set = field(default_factory=set)
    problems: list = field(default_factory=list)
    compared_to_reference: bool = False

    @property
    def ok(self) -> bool:
        return not self.problems

    def fail(self, n_values, message):
        self.failing_n.update(n_values)
        self.problems.append(message)


def check_sweep(csv_path: str, config_dict: dict, reference) -> CheckResult:
    """Check a sweep output against its config and a Reference or None."""
    with open(csv_path, "rb") as fh:
        data = fh.read()
    result = CheckResult(hashlib.sha256(data).hexdigest())
    n_list = list(config_dict["n_list"])
    try:
        with open(csv_path + ".manifest.json", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        result.fail(n_list, f"manifest unreadable: {exc}")
        return result
    if manifest.get("content_sha256") != result.csv_sha256:
        result.fail(n_list, "manifest content_sha256 does not match the CSV bytes")
    if manifest.get("config") != config_dict:
        result.fail(n_list, "manifest config differs from the config that was run")

    lines = data.decode("utf-8", errors="replace").splitlines()
    if not lines or lines[0] != HEADER:
        result.fail(n_list, "CSV header missing or wrong")
        return result
    rows = lines[1:]
    if len(rows) != len(n_list):
        result.fail(n_list, f"expected {len(n_list)} rows, got {len(rows)}")
        return result

    kind = config_dict["kind"]
    trials = config_dict["trials"]
    for line, n in zip(rows, n_list):
        try:
            n_text, metric_text, stderr_text = line.split(",")
            row_n, metric, stderr = int(n_text), float(metric_text), float(stderr_text)
        except ValueError:
            result.fail([n], f"unparsable row {line!r}")
            continue
        if row_n != n:
            result.fail([n], f"row for n={row_n} where n={n} was expected")
        elif not (math.isfinite(metric) and math.isfinite(stderr)):
            result.fail([n], f"n={n}: non-finite point {line!r}")
        elif stderr < 0:
            result.fail([n], f"n={n}: negative stderr")
        elif kind == "percolation":
            hits = metric * trials
            if not 0.0 <= metric <= 1.0 or abs(hits - round(hits)) > 1e-9 * trials:
                result.fail([n], f"n={n}: {metric} is not a crossing rate over {trials} trials")
        elif metric <= 0:
            result.fail([n], f"n={n}: non-positive metric {metric}")

    if reference is not None:
        result.compared_to_reference = True
        for i, (line, ref, n) in enumerate(zip(rows, reference.lines[1:], n_list)):
            if reference.tolerance is None:
                if line != ref:
                    result.fail([n], f"n={n}: {line!r} differs from reference {ref!r}")
                continue
            try:
                metric = float(line.split(",")[1])
            except (IndexError, ValueError):
                continue  # already reported
            ref_metric = float(ref.split(",")[1])
            if not abs(metric - ref_metric) <= reference.tolerance[i]:
                result.fail([n], f"n={n}: {metric!r} is more than {reference.tolerance[i]:.6g} "
                                 f"from reference {ref_metric!r}")
    return result


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def slab_records(network, percolation) -> list:
    """One line per fixed slab: crossing exists, closed cells, grid digest, path digest."""
    records = []
    for seed in range(SLABS):
        try:
            grid = percolation.build_occupancy_grid(
                network.generate_network(SLAB_N, float(SLAB_N), seed), SLAB_C)
            path = percolation.find_open_crossing(grid)
            cells = "-" if path is None else _digest(
                repr([(int(r), int(c)) for r, c in path.cells]).encode())
            records.append(f"{int(percolation.has_open_crossing(grid))},"
                           f"{int(grid.closed.sum())},"
                           f"{_digest(repr(grid.closed.shape).encode() + grid.closed.tobytes())},"
                           f"{cells}")
        except Exception as exc:   # a raising slab is a mismatch, not a crash
            records.append(f"raised {type(exc).__name__}: {exc}")
    return records


def slab_mismatches(records: list, reference: dict) -> list:
    """Problems of slab_records against the recorded slabs, one per differing slab."""
    if (reference["n"], reference["c"], len(reference["records"])) != (SLAB_N, SLAB_C, SLABS):
        return ["references.json records other slabs than checks.py defines"] * SLABS
    return [f"slab {seed}: {got!r} differs from reference {want!r}"
            for seed, (got, want) in enumerate(zip(records, reference["records"]))
            if got != want]
