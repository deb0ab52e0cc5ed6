"""Self-tests of the benchmark's tracer, self-time arithmetic and checks.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import unittest

import worker
from checks import check_sweep, reference_at, slab_mismatches, slab_records
from tracer import Span, Tracer, self_times, union_length
from workloads import WORKLOADS

import netregime
from netregime import harness, network, percolation


def _temp_dir():
    out = os.path.join(worker.ROOT, ".perfbench_out")
    os.makedirs(out, exist_ok=True)
    return tempfile.TemporaryDirectory(dir=out)


def _write_sweep(directory, lines, config_dict, digest_of=None):
    path = os.path.join(directory, "sweep.csv")
    data = ("\n".join(lines) + "\n").encode()
    with open(path, "wb") as fh:
        fh.write(data)
    digest = hashlib.sha256(digest_of or data).hexdigest()
    with open(path + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump({"config": config_dict, "content_sha256": digest, "version": "x"}, fh)
    return path


def _config_dict(workload, seed=0):
    config = worker.build_config(harness, workload, seed, "unused.csv")
    return json.loads(json.dumps(config.to_dict()))


class TracerTest(unittest.TestCase):
    def test_restores_every_binding(self):
        bindings = worker.trace_bindings(netregime)
        before = {key: getattr(*key) for key in bindings}
        with self.assertRaises(KeyError):
            with Tracer(bindings):
                for key, fn in before.items():
                    self.assertIsNot(getattr(*key), fn, key)
                raise KeyError("leave the block by an exception")
        for key, fn in before.items():
            self.assertIs(getattr(*key), fn, key)

    def test_pool_spans_hang_under_the_sweep(self):
        config = harness.ExperimentConfig(kind="scheme", scheme="hybrid", alpha=4.0,
                                          beta=0.04, n_list=[64, 128, 256], trials=2)
        with Tracer(worker.trace_bindings(netregime)) as tracer:
            harness.run_scaling_experiment(config, 2)
        by_id = {s.id: s for s in tracer.spans}
        (sweep,) = [s for s in tracer.spans if s.name == "harness.run_scaling_experiment"]
        units = [s for s in tracer.spans if s.name == "schemes.simulate_hybrid"]
        self.assertEqual(len(units), 6)
        for unit in units:
            self.assertNotEqual(unit.thread, sweep.thread)
            self.assertEqual(unit.parent, sweep.id)
        for route in (s for s in tracer.spans if s.name == "schemes.route_sd_lines"):
            parent = by_id[route.parent]
            self.assertEqual((parent.name, parent.thread), ("schemes.simulate_hybrid", route.thread))


class SelfTimeTest(unittest.TestCase):
    def test_nested_and_overlapping_children(self):
        spans = [
            Span(0, "root", 0.0, 10.0, None, 1),
            Span(1, "a", 1.0, 4.0, 0, 1),
            Span(2, "leaf", 2.0, 3.0, 1, 1),
            Span(3, "b", 3.0, 6.0, 0, 2),     # other thread, overlaps a
            Span(4, "b", 9.5, 11.0, 0, 2),    # runs past its parent's end
        ]
        selfs = self_times(spans)
        self.assertAlmostEqual(selfs["root"], 10.0 - (5.0 + 0.5))
        self.assertAlmostEqual(selfs["a"], 3.0 - 1.0)
        self.assertAlmostEqual(selfs["leaf"], 1.0)
        self.assertAlmostEqual(selfs["b"], 3.0 + 1.5)
        self.assertAlmostEqual(union_length([(3.0, 6.0), (1.0, 4.0), (9.5, 11.0)]), 6.5)


class CheckTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(worker.HERE, "references.json"), encoding="utf-8") as fh:
            self.refs = json.load(fh)
        self.tmp = _temp_dir()

    def tearDown(self):
        self.tmp.cleanup()

    def _check(self, name, lines, **kw):
        workload = WORKLOADS[name]
        config = _config_dict(workload)
        path = _write_sweep(self.tmp.name, lines, config, **kw)
        return check_sweep(path, config, reference_at(name, self.refs[name]["csv"], 0))

    def test_reference_passes(self):
        for name in WORKLOADS:
            result = self._check(name, self.refs[name]["csv"]["0"])
            self.assertTrue(result.ok, result.problems)
            self.assertTrue(result.compared_to_reference)

    def test_one_perturbed_digit_fails(self):
        cases = {"hybrid_m1": (2, -3), "percolation_sweep": (1, 0), "cutset_mc": (3, 0)}
        for name, (row, pos) in cases.items():
            lines = list(self.refs[name]["csv"]["0"])
            n, metric, stderr = lines[row].split(",")
            i = [j for j, ch in enumerate(metric) if ch.isdigit()][pos]
            metric = metric[:i] + str((int(metric[i]) + 1) % 10) + metric[i + 1:]
            lines[row] = ",".join((n, metric, stderr))
            result = self._check(name, lines)
            self.assertFalse(result.ok, name)
            self.assertEqual(result.failing_n, {int(n)}, name)
            # The same bytes under the unperturbed manifest hash fail every point.
            stale = self._check(name, lines,
                                digest_of=("\n".join(self.refs[name]["csv"]["0"]) + "\n").encode())
            self.assertEqual(len(stale.failing_n), len(lines) - 1, name)

    def test_cutset_tolerance_admits_a_phase_stream_sized_change(self):
        lines = list(self.refs["cutset_mc"]["csv"]["0"])
        n, metric, stderr = lines[1].split(",")
        lines[1] = ",".join((n, repr(float(metric) + 2.0), stderr))
        self.assertTrue(self._check("cutset_mc", lines).ok)

    def test_non_finite_point_fails_at_any_seed(self):
        workload = WORKLOADS["hybrid_m1"]
        config = _config_dict(workload, seed=12345)
        lines = ["n,metric,stderr", "1024,nan,0", "2048,8.5,0.1", "4096,12.0,0.2"]
        path = _write_sweep(self.tmp.name, lines, config)
        result = check_sweep(path, config, None)
        self.assertEqual(result.failing_n, {1024})


class FailedUnitTest(unittest.TestCase):
    def _sweep(self, name, config_doc, raise_at):
        workload = WORKLOADS[name]
        with _temp_dir() as tmp:
            config = harness.ExperimentConfig.from_json(
                json.dumps(dict(config_doc, out=os.path.join(tmp, "s.csv"))))
            original = getattr(harness, workload.unit)

            def flaky(*args, **kwargs):
                n = args[0] if isinstance(args[0], int) else args[0].n_pairs
                if n == raise_at:
                    raise ArithmeticError("injected")
                return original(*args, **kwargs)

            with worker.patched({(harness, workload.unit): flaky}):
                counter = worker.UnitCounter(harness, workload.unit)
                with worker.patched({counter.binding: counter.wrapper}):
                    return worker.run_sweep(harness, config, 1, counter, None)

    def test_swallowed_unit_error_counts(self):
        sweep = self._sweep("hybrid_m1", dict(kind="scheme", scheme="hybrid", alpha=4.0,
                                              beta=0.04, n_list=[64, 128, 256], trials=2),
                            raise_at=128)
        self.assertEqual((sweep.attempted, sweep.failed, sweep.errors), (6, 2, 2))

    def test_unit_error_that_fails_the_sweep_counts(self):
        sweep = self._sweep("percolation_sweep", dict(kind="percolation", n_list=[64, 128],
                                                      trials=2), raise_at=128)
        self.assertEqual((sweep.attempted, sweep.failed, sweep.errors), (2, 2, 1))


class SlabTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(worker.HERE, "references.json"), encoding="utf-8") as fh:
            self.reference = json.load(fh)["percolation_slabs"]

    def test_reference_slabs_pass_and_both_outcomes_occur(self):
        records = slab_records(network, percolation)
        self.assertEqual(slab_mismatches(records, self.reference), [])
        self.assertEqual({r.split(",")[0] for r in records}, {"0", "1"})

    def test_crossing_that_always_exists_fails(self):
        with worker.patched({(percolation, "has_open_crossing"): lambda grid: True}):
            records = slab_records(network, percolation)
        self.assertTrue(slab_mismatches(records, self.reference))


if __name__ == "__main__":
    unittest.main()
