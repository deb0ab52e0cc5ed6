import ast
import hashlib
import json
import logging
import math
import re
from pathlib import Path

import numpy as np
import pytest

from netregime import (ConfigError, Constants, DegenerateInstanceError,
                       ExperimentConfig, ExperimentError, PathologicalCutError,
                       cli, crossing_probability, cutset, fit_exponent,
                       emit_phase_diagram, emit_sweep, harness, run_scaling_experiment)
from netregime.rng import CROSSING, derived_seed
from netregime.cli import main
from netregime.harness import (CROSSING_CSV_HEADER, CUTSET_CSV_HEADER,
                               PHASE_DIAGRAM_HEADER, SCHEME_CSV_HEADER,
                               SWEEP_CSV_HEADER, csv_row, operating_point,
                               write_manifest)
from netregime.regimes import Scheme

from helpers import (fit_full_and_tail, physical_memory_is, snr_short, tail_points,
                     traced_peak)
from test_rng import call_site_paths


class TestFit:
    def test_exact_power_law(self):
        table = [(10, math.sqrt(10)), (100, 10.0), (1000, math.sqrt(1000))]
        fit = fit_exponent(table, theory_exponent=0.5)
        assert fit.slope == pytest.approx(0.5, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.theory_exponent == 0.5

    def test_constant_metric(self):
        fit = fit_exponent([(10, 3.0), (100, 3.0), (1000, 3.0)])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == 1.0

    def test_noisy_power_law(self):
        gen = np.random.default_rng(4)
        table = [(n, n ** 0.75 * (1 + gen.uniform(-0.01, 0.01)))
                 for n in (16, 32, 64, 128, 256, 512)]
        fit = fit_exponent(table)
        assert 0.73 <= fit.slope <= 0.77

    def test_residuals_and_intercept(self):
        table = [(2, 8.0), (4, 16.0), (8, 32.0)]
        fit = fit_exponent(table)
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert math.exp(fit.intercept) == pytest.approx(4.0, rel=1e-9)
        assert all(abs(r) < 1e-12 for r in fit.residuals)

    def test_rejects_bad_tables(self):
        with pytest.raises(ValueError):
            fit_exponent([(10, 1.0), (20, 2.0)])
        with pytest.raises(ValueError):
            fit_exponent([(10, 1.0), (20, -2.0), (40, 3.0)])
        for n in (0, -2):
            with pytest.raises(ValueError, match="n values"):
                fit_exponent([(n, 1.0), (20, 2.0), (40, 3.0)])

    @pytest.mark.parametrize("n", [6, 10, 17])
    def test_all_equal_n_rejected(self, n):
        # at n = 6 and 17 the mean of the three logs rounds off them
        with pytest.raises(ValueError, match="all equal"):
            fit_exponent([(n, 1.0), (n, 2.0), (n, 3.0)])

    def test_tail_selection(self):
        short = [(n, 1.0) for n in (1, 2, 3, 4, 5)]
        assert tail_points(short) == short
        long = [(n, 1.0) for n in (1, 2, 3, 4, 5, 6, 7, 8, 9)]
        assert [n for n, _ in tail_points(long)] == [3, 4, 5, 6, 7, 8, 9]

    def test_full_and_tail(self):
        table = [(2 ** k, 2.0 ** (0.5 * k)) for k in range(6, 15)]
        full, tail = fit_full_and_tail(table, 0.5)
        assert full.slope == pytest.approx(0.5, abs=1e-12)
        assert tail.slope == pytest.approx(0.5, abs=1e-12)


class TestOperatingPoint:
    @pytest.mark.parametrize("snr,alpha,n", [
        (1.0, 2.0, 64), (16.0, 4.0, 256), (0.25, 3.0, 100), (100.0, 2.5, 81)])
    def test_area_round_trip(self, snr, alpha, n):
        # unit-power parameters on the returned area give snr_s back
        snr_s, area = operating_point(n, alpha, math.log(snr) / math.log(n))
        assert snr_s == pytest.approx(snr, rel=1e-12)
        assert snr_short(n, area, alpha) == pytest.approx(snr_s, rel=1e-12)

    def test_snr_is_n_to_the_beta_and_area_back_solved(self):
        for n, alpha, beta in [(1024, 4.0, 0.5), (32, 3, 0.5), (81, 2.5, -0.25)]:
            snr_s, area = operating_point(n, alpha, beta)
            assert snr_s == float(n) ** beta
            assert area == n * snr_s ** (-2.0 / alpha)

    def test_underflowed_snr_rejected(self):
        # 2^-2000 underflows to 0, whose area would divide by zero
        with pytest.raises(ValueError, match="snr_s must be positive"):
            operating_point(2, 3.0, -2000.0)

    @pytest.mark.parametrize("n,alpha,beta", [(64, 3.0, 200.0), (2, 2.0, -1074.0)])
    def test_overflow_is_a_value_error(self, n, alpha, beta):
        # 64^200 overflows; 2^-1074 is subnormal, and its area at alpha = 2 overflows
        with pytest.raises(ValueError, match="out of float range"):
            operating_point(n, alpha, beta)

    @pytest.mark.parametrize("n,alpha,beta", [(1024, 4.0, 0.5), (32, 3.0, 0.5)])
    def test_cutset_gets_n_to_the_beta_exactly(self, n, alpha, beta, monkeypatch,
                                               tmp_path):
        # the sweep's cutset unit and `netregime cutset` hand every cutset
        # layer float(n) ** beta itself, not an snr_short round trip of it
        seen = []
        real_width, real_evaluate = cutset.select_cut_width, harness.evaluate_cutset

        def width(snr_s, n, alpha):
            seen.append(("select_cut_width", snr_s))
            return real_width(snr_s, n, alpha)

        def evaluate(instance, snr_s, alpha, **kwargs):
            seen.append(("evaluate_cutset", snr_s))
            return real_evaluate(instance, snr_s, alpha, **kwargs)

        def logdet(instance, partition, snr_s, alpha, trials, phase_seed):
            seen.append(("mc_cutset_logdet", snr_s))
            return cutset.MCLogdet(1.0, 0.0, (1.0,), 0)

        monkeypatch.setattr(cutset, "select_cut_width", width)
        monkeypatch.setattr(harness, "evaluate_cutset", evaluate)
        monkeypatch.setattr(cutset, "mc_cutset_logdet", logdet)
        config = ExperimentConfig(kind="cutset", n_list=[n], alpha=alpha, beta=beta,
                                  trials=1, instances=1)
        assert harness._run_unit(config, 0, n, 0) is not None
        assert cli.main(["cutset", "--n", str(n), "--alpha", str(alpha), "--beta",
                         str(beta), "--trials", "1", "--out",
                         str(tmp_path / "c.csv")]) == 0
        layers = ["evaluate_cutset", "select_cut_width", "mc_cutset_logdet"]
        assert [name for name, _ in seen] == layers * 2
        assert all(type(snr_s) is float and snr_s == float(n) ** beta
                   for _, snr_s in seen)
        if n == 32:
            # snr_s = n^(alpha/2 - 1) exactly: the strip spans the half
            w_hat = float((tmp_path / "c.csv").read_text().splitlines()[1].split(",")[3])
            assert w_hat == math.sqrt(n)


class TestConfig:
    def test_json_round_trip(self):
        config = ExperimentConfig(kind="scheme", n_list=[16, 64], beta=0.5,
                                  alpha=3.5, scheme="multihop",
                                  constants=Constants(K2=0.5))
        doc = json.dumps(config.to_dict())
        back = ExperimentConfig.from_json(doc)
        assert back == config

    def test_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json('{"kind": "scheme", "n_list": [4, 8], "bogus": 1}')

    @pytest.mark.parametrize("field", ['"constants": {"bogus": 1}', '"constants": [1]',
                                       '"constants": 2.0', '"constants": null',
                                       '"alpha_range": 3', '"beta": null',
                                       '"beta": NaN', '"alpha": Infinity',
                                       '"resolution": [2.5, 3]', '"resolution": [2, true]',
                                       '"resolution": [2, 3, 4]', '"beta_range": [0, NaN]',
                                       '"alpha_range": [2, "x"]',
                                       '"constants": {"c": "x"}',
                                       '"constants": {"epsilon": null}',
                                       '"constants": {"K1": Infinity}',
                                       '"constants": {"K3": false}'])
    def test_rejects_malformed_fields(self, field):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json('{"kind": "scheme", "n_list": [4, 8], %s}' % field)

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(kind="nope", n_list=[4, 8])
        with pytest.raises(ConfigError):
            ExperimentConfig(kind="scheme", n_list=[8, 4])
        with pytest.raises(ConfigError):
            ExperimentConfig(kind="scheme", n_list=[])
        with pytest.raises(ConfigError):
            ExperimentConfig(kind="scheme", n_list=[4, 8], alpha=1.0)
        with pytest.raises(ConfigError, match="scheme"):
            ExperimentConfig(kind="scheme", n_list=[4, 8], scheme="multi")
        with pytest.raises(ConfigError, match="mode"):
            ExperimentConfig(kind="cutset", n_list=[4, 8], mode="ideal")
        with pytest.raises(ConfigError, match="instances"):
            ExperimentConfig(kind="cutset", n_list=[4, 8], instances=0)
        for kind, n_list in (("scheme", [16.5, 64]), ("percolation", [256.0]),
                             ("cutset", [64.0]), ("scheme", [True, 8]), ("scheme", [0, 8])):
            with pytest.raises(ConfigError, match="n_list"):
                ExperimentConfig(kind=kind, n_list=n_list)
        with pytest.raises(ConfigError, match="n_list"):
            ExperimentConfig(kind="scheme", scheme="hybrid", n_list=[64.0])
        for name, value in (("beta", None), ("beta", math.nan), ("alpha", math.inf),
                            ("alpha", "3"), ("beta", False)):
            with pytest.raises(ConfigError, match=name):
                ExperimentConfig(kind="scheme", n_list=[4, 8], **{name: value})

    RANGES = [('"alpha_range": [4, 2]', "ascending"), ('"beta_range": [1, -1]', "ascending"),
              ('"alpha_range": [6.5, 6.25]', "ascending"),
              ('"alpha_range": [1.5, 4]', "alpha_range entries must be >= 2"),
              ('"resolution": [0, 3]', "resolution entries must be >= 1"),
              ('"resolution": [3, -1]', "resolution entries must be >= 1")]

    @pytest.mark.parametrize("field,message", RANGES, ids=[field for field, _ in RANGES])
    def test_rejects_descending_ranges(self, field, message):
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig.from_json('{"kind": "phase-diagram", %s}' % field)

    def test_accepts_null_k4_and_integer_numbers(self):
        config = ExperimentConfig.from_json(
            '{"kind": "phase-diagram", "alpha_range": [2, 6], "resolution": [3, 4], '
            '"constants": {"K4": null, "c": 0.5, "K1": 2}}')
        assert config.constants.K4 is None and config.alpha_range == (2, 6)

    def test_pairs_are_tuples(self):
        pairs = {"alpha_range": [2, 4], "beta_range": [0, 1.5], "resolution": [3, 2]}
        doc = json.dumps(dict(pairs, kind="phase-diagram"))
        for config in (ExperimentConfig(kind="phase-diagram", **pairs),
                       ExperimentConfig.from_json(doc)):
            for name, value in pairs.items():
                assert type(getattr(config, name)) is tuple
                assert getattr(config, name) == tuple(value)


class TestRunExperiment:
    def test_multihop_closed_form_rows(self):
        config = ExperimentConfig(kind="scheme", scheme="multihop",
                                  n_list=[64, 256, 1024], beta=0.0,
                                  master_seed=3)
        rows = run_scaling_experiment(config)
        for row in rows:
            want = math.sqrt(row.n) * math.log2(1.5)
            assert row.metric == pytest.approx(want, rel=1e-12)
            assert row.stderr == 0.0

    def test_cutset_metric_increases(self):
        config = ExperimentConfig(kind="cutset", n_list=[8, 16, 32, 64],
                                  alpha=2.0, beta=1.0, trials=4, instances=2,
                                  master_seed=1)
        rows = run_scaling_experiment(config)
        metrics = [r.metric for r in rows]
        assert all(b > a for a, b in zip(metrics, metrics[1:]))

    def test_bug_in_a_unit_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("bug")
        monkeypatch.setattr(harness, "generate_network", broken)
        config = ExperimentConfig(kind="scheme", scheme="hybrid", n_list=[64],
                                  alpha=4.0, beta=0.5, trials=2)
        with pytest.raises(TypeError, match="bug"):
            run_scaling_experiment(config)

    def test_failed_percolation_draw_is_tallied(self, monkeypatch):
        def degenerate(*args, **kwargs):
            raise DegenerateInstanceError("draw")
        monkeypatch.setattr(harness, "crossing_probability", degenerate)
        config = ExperimentConfig(kind="percolation", n_list=[16, 32], trials=2)
        with pytest.raises(ExperimentError):
            run_scaling_experiment(config)

    def test_failed_unit_is_logged_with_its_seed_path(self, monkeypatch, caplog):
        def degenerate(*args, **kwargs):
            raise DegenerateInstanceError("draw")
        monkeypatch.setattr(harness, "crossing_probability", degenerate)
        config = ExperimentConfig(kind="percolation", n_list=[16, 32], trials=2,
                                  master_seed=5)
        with caplog.at_level(logging.WARNING, logger="netregime.harness"):
            with pytest.raises(ExperimentError):
                run_scaling_experiment(config)
        site = ("crossing study", "sweep percolation point")
        assert [r.getMessage() for r in caplog.records] == [
            f"percolation unit failed at n={n} (point {i}, unit 0): "
            f"DegenerateInstanceError; seed paths {path}"
            for i, n in enumerate((16, 32)) for path in call_site_paths(5, i, 0)[site]]
        assert all(r.levelno == logging.WARNING for r in caplog.records)

    def test_failed_cutset_unit_logs_instance_and_phase_paths(self, monkeypatch, caplog):
        def empty_side(*args, **kwargs):
            raise PathologicalCutError("draw")
        monkeypatch.setattr(harness, "evaluate_cutset", empty_side)
        config = ExperimentConfig(kind="cutset", n_list=[16], instances=2, master_seed=5)
        with caplog.at_level(logging.WARNING, logger="netregime.harness"):
            with pytest.raises(ExperimentError):
                run_scaling_experiment(config)
        sites = [("instance", "sweep cutset or hybrid unit"),
                 ("sweep phases", "sweep cutset unit")]
        want = []
        for j in range(2):
            (instance,), (phases,) = (call_site_paths(5, 0, j)[s] for s in sites)
            want.append(f"cutset unit failed at n=16 (point 0, unit {j}): "
                        f"PathologicalCutError; seed paths {instance}, {phases}")
        assert [r.getMessage() for r in caplog.records] == want

    def test_hybrid_kind_runs(self):
        config = ExperimentConfig(kind="scheme", scheme="hybrid",
                                  n_list=[64, 128], alpha=4.0, beta=0.5,
                                  trials=3, master_seed=2)
        rows = run_scaling_experiment(config)
        assert all(r.metric > 0 for r in rows)

    def test_percolation_kind_reports_crossing_rate(self):
        # at c = 0.5 some trials cross and some do not, so a study drawn
        # on another seed path gives another rate
        config = ExperimentConfig(kind="percolation", n_list=[256],
                                  trials=20, master_seed=4,
                                  constants=Constants(c=0.5))
        rows = run_scaling_experiment(config)
        study = crossing_probability(256, 0.5, 20, derived_seed(4, CROSSING, 0))
        assert 0.0 < rows[0].metric < 1.0
        assert rows[0].metric == study.empirical_rate

    def test_all_points_failing_raises(self):
        # hybrid cells are undefined at beta < 0, so every trial fails
        config = ExperimentConfig(kind="scheme", scheme="hybrid",
                                  n_list=[32, 64], alpha=4.0, beta=-0.5,
                                  trials=2, master_seed=1)
        with pytest.raises(ExperimentError):
            run_scaling_experiment(config)


class TestEmission:
    def test_sweep_files_and_manifest(self, tmp_path):
        out = str(tmp_path / "sweep.csv")
        config = ExperimentConfig(kind="scheme", scheme="multihop",
                                  n_list=[16, 64, 256], beta=0.5, out=out,
                                  master_seed=5)
        emit_sweep(config)
        text = (tmp_path / "sweep.csv").read_text()
        assert text.splitlines()[0] == "n,metric,stderr"
        assert len(text.splitlines()) == 4
        manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert manifest["content_sha256"] == digest
        assert manifest["config"]["kind"] == "scheme"

    def test_sweep_without_out_is_config_error(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = ExperimentConfig(kind="scheme", scheme="multihop", n_list=[16, 64])
        with pytest.raises(ConfigError, match="config.out"):
            emit_sweep(config)
        assert list(tmp_path.iterdir()) == []

    def test_phase_diagram_is_emitted_and_sweeps_are_run(self, tmp_path):
        with pytest.raises(ConfigError, match="emitted, not swept"):
            run_scaling_experiment(ExperimentConfig(kind="phase-diagram"))
        config = ExperimentConfig(kind="scheme", n_list=[16], out=str(tmp_path / "pd.csv"))
        with pytest.raises(ConfigError, match="needs kind='phase-diagram'"):
            emit_phase_diagram(config)
        assert list(tmp_path.iterdir()) == []

    def test_reemission_byte_identical(self, tmp_path):
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        for out in (out1, out2):
            config = ExperimentConfig(kind="cutset", n_list=[8, 16], alpha=2.5,
                                      beta=0.5, trials=2, instances=1,
                                      master_seed=7, out=out)
            emit_sweep(config)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_recorded_constants_change_no_output_byte(self, tmp_path):
        # constants.K4 and constants.delta are recorded but read by nothing
        csv = {}
        for name, constants in (("default", "{}"), ("set", '{"K4": 0.7, "delta": 0.3}')):
            out = tmp_path / f"{name}.csv"
            emit_sweep(ExperimentConfig.from_json(
                '{"kind": "scheme", "scheme": "hybrid", "n_list": [64, 128], '
                '"alpha": 4.0, "beta": 0.5, "trials": 2, "master_seed": 3, '
                f'"constants": {constants}, "out": {json.dumps(str(out))}}}'))
            csv[name] = out.read_bytes()
        manifest = json.loads((tmp_path / "set.csv.manifest.json").read_text())
        assert manifest["config"]["constants"]["K4"] == 0.7
        assert manifest["config"]["constants"]["delta"] == 0.3
        assert csv["set"] == csv["default"]
        assert len(csv["set"].splitlines()) == 3

    def test_phase_diagram_files(self, tmp_path):
        out = str(tmp_path / "pd.csv")
        config = ExperimentConfig(kind="phase-diagram", out=out,
                                  alpha_range=(2.0, 6.0), beta_range=(-1.0, 3.0),
                                  resolution=(5, 7))
        csv_path, grid_path = emit_phase_diagram(config)
        lines = (tmp_path / "pd.csv").read_text().splitlines()
        assert lines[0].startswith("alpha,beta,regime")
        assert len(lines) == 1 + 5 * 7
        grid = (tmp_path / "pd.csv.grid.txt").read_text().splitlines()
        assert len(grid) == 5 and all(len(r.split()) == 7 for r in grid)
        ids = {int(v) for row in grid for v in row.split()}
        assert ids <= {1, 2, 3, 4} and len(ids) == 4

    def test_phase_diagram_beyond_memory_refused(self, tmp_path, monkeypatch):
        # the beta cells alone are counted, whatever the alpha cells, before
        # any cell is classified
        calls, real = [], harness.phase_diagram_rows
        monkeypatch.setattr(harness, "phase_diagram_rows",
                            lambda *a: calls.append(a) or real(*a))
        config = ExperimentConfig(kind="phase-diagram", resolution=(40, 30),
                                  out=str(tmp_path / "pd.csv"))
        physical_memory_is(monkeypatch, harness.phase_diagram_bytes(30) - 1)
        with pytest.raises(ValueError, match="phase diagram of 40 x 30 cells"):
            emit_phase_diagram(config)
        assert calls == [] and not (tmp_path / "pd.csv").exists()
        physical_memory_is(monkeypatch, harness.phase_diagram_bytes(30))
        emit_phase_diagram(config)
        assert len(calls) == 1 and (tmp_path / "pd.csv").exists()

    def test_phase_diagram_peak_within_count(self, tmp_path):
        # hashing the CSV for the manifest sets the peak at 100 x 100, one
        # alpha value's cells at 2 x 10000
        for n_alpha, n_beta in ((100, 100), (2, 10000)):
            config = ExperimentConfig(kind="phase-diagram", resolution=(n_alpha, n_beta),
                                      out=str(tmp_path / "pd.csv"))
            emit_phase_diagram(config)      # first-use allocations
            peak, _ = traced_peak(emit_phase_diagram, config)
            assert peak <= harness.phase_diagram_bytes(n_beta), n_beta

    def test_phase_diagram_peak_flat_in_alpha_cells(self, tmp_path):
        # The files are written one alpha value at a time: 12 alpha values
        # peak within 10% of 2.  Holding the whole grid, 2 to 20 alpha
        # values grew the peak 10.8 times.
        peaks = []
        for n_alpha in (2, 12):
            config = ExperimentConfig(kind="phase-diagram", resolution=(n_alpha, 2000),
                                      out=str(tmp_path / "pd.csv"))
            emit_phase_diagram(config)      # first-use allocations
            peaks.append(traced_peak(emit_phase_diagram, config)[0])
        assert peaks[1] < 1.1 * peaks[0]

    def test_emit_sweep_writes_a_phase_diagram(self, tmp_path):
        files = {}
        for emit in (emit_sweep, emit_phase_diagram):
            (tmp_path / emit.__name__).mkdir()
            out = str(tmp_path / emit.__name__ / "pd.csv")
            emit(ExperimentConfig(kind="phase-diagram", resolution=(5, 7), out=out))
            files[emit] = [Path(out + suffix).read_bytes()
                           for suffix in ("", ".grid.txt", ".manifest.json")]
        csv, grid, manifest = files[emit_sweep]
        assert csv.startswith(PHASE_DIAGRAM_HEADER.encode()) and len(grid.split()) == 35
        assert [csv, grid] == files[emit_phase_diagram][:2]
        assert (json.loads(manifest)["content_sha256"]
                == json.loads(files[emit_phase_diagram][2])["content_sha256"])

    def test_manifest_written_for_any_output(self, tmp_path):
        out = str(tmp_path / "x.csv")
        (tmp_path / "x.csv").write_text("n,metric,stderr\n1,2,3\n")
        config = ExperimentConfig(kind="scheme", n_list=[4, 8], out=out)
        path = write_manifest(out, config)
        doc = json.loads(open(path).read())
        assert doc["version"]


# CSV output -> (its header, a call that writes it to a path)
CSV_OUTPUTS = {
    "sweep": (SWEEP_CSV_HEADER, lambda out: emit_sweep(ExperimentConfig(
        kind="percolation", n_list=[64, 128], trials=2, out=out))),
    "cutset": (CUTSET_CSV_HEADER, lambda out: main(
        ["cutset", "--n", "32", "--alpha", "3", "--beta", "0.5", "--trials", "1",
         "--seed", "2", "--out", out])),
    "scheme": (SCHEME_CSV_HEADER, lambda out: main(
        ["hybrid", "--n", "64", "--alpha", "4", "--beta", "0.5", "--seeds", "2",
         "--out", out])),
    "crossing": (CROSSING_CSV_HEADER, lambda out: main(
        ["percolation", "--n", "64", "--trials", "2", "--out", out])),
    "phase-diagram": (PHASE_DIAGRAM_HEADER, lambda out: emit_phase_diagram(
        ExperimentConfig(kind="phase-diagram", resolution=(3, 3), out=out))),
}


def output_sites(path: Path) -> list:
    """(line, kind) of each .17g format spec, json.dump or json.dumps call and
    open() in a writing mode of a module."""
    sites = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Constant) and ".17g" in str(node.value):
            sites.append((node.lineno, ".17g"))
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr in ("dump", "dumps")
                and isinstance(func.value, ast.Name) and func.value.id == "json"):
            sites.append((node.lineno, "json.dump"))
        if isinstance(func, ast.Name) and func.id == "open":
            modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
            if any(isinstance(m, ast.Constant) and set(str(m.value)) & set("wax+")
                   for m in modes):
                sites.append((node.lineno, "open for writing"))
    return sites


def raising_functions(path: Path, error: str) -> set:
    """Names of the top-level functions and classes of a module that raise
    ``error``, with None for a raise at module level."""
    found = set()
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        for node in ast.walk(top):
            if not (isinstance(node, ast.Raise) and node.exc is not None):
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if getattr(exc, "id", getattr(exc, "attr", None)) == error:
                found.add(getattr(top, "name", None))
    return found


def naming_functions(path: Path, name: str) -> set:
    """Names of the top-level functions and classes of a module that name
    ``name``, as a variable, attribute, import, definition or whole string,
    with None for a module-level use."""
    found = set()
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        for node in ast.walk(top):
            if (name in (getattr(node, "id", None), getattr(node, "attr", None),
                         getattr(node, "name", None))
                    or (isinstance(node, ast.Constant) and node.value == name)):
                found.add(getattr(top, "name", None))
    return found


def read_names(path: Path) -> set:
    """The names a module reads: its variables, attributes and imported names."""
    return {name for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            for name in (getattr(node, "id", None), getattr(node, "attr", None),
                         node.name if isinstance(node, ast.alias) else None)
            if name}


class TestOutputFormats:
    @pytest.mark.parametrize("name", sorted(CSV_OUTPUTS))
    def test_rows_have_header_columns(self, tmp_path, name):
        header, write = CSV_OUTPUTS[name]
        out = tmp_path / "out.csv"
        write(str(out))
        lines = out.read_text().splitlines()
        assert lines[0] == header and len(lines) > 1
        assert all(len(line.split(",")) == len(header.split(",")) for line in lines[1:])

    def test_csv_row_rule(self):
        assert csv_row((3, 0.1, True, Scheme.HYBRID)) == "3,0.10000000000000001,1,hybrid"
        assert csv_row((False, math.nan, "x")) == "0,nan,x"

    def test_only_harness_formats_output(self):
        sites = {path.name: output_sites(path)
                 for path in sorted(Path(harness.__file__).parent.glob("*.py"))}
        # the check finds every kind of site in the one module that may hold them
        assert {kind for _, kind in sites.pop("harness.py")} == {
            ".17g", "json.dump", "open for writing"}
        assert {name: found for name, found in sites.items() if found} == {}

    def test_one_owner_per_failure(self):
        # coincident nodes fail only in the path-gain kernel, and a cut
        # failure is raised only where the cut is drawn and split
        modules = sorted(Path(harness.__file__).parent.glob("*.py"))
        owners = {error: {path.name: found for path in modules
                          if (found := raising_functions(path, error))}
                  for error in ("DegenerateInstanceError", "PathologicalCutError")}
        assert owners == {
            "DegenerateInstanceError": {"network.py": {"path_gain"}},
            "PathologicalCutError": {"cutset.py": {"partition_nodes", "evaluate_cutset"}},
        }

    def test_one_owner_of_the_machine(self):
        # only network.py reads physical memory, passes over node pairs and
        # cuts their row blocks; no module starts a thread or reads the CPU
        # affinity, and the old cutset-side kernel and count are gone
        modules = sorted(Path(harness.__file__).parent.glob("*.py"))
        owners = {name: {path.name: found for path in modules
                         if (found := naming_functions(path, name))}
                  for name in ("SC_PHYS_PAGES", "ROW_BLOCK", "path_gain", "row_blocks",
                               "threading", "sched_getaffinity", "row_block_workers",
                               "run_row_blocks", "row_block_bytes", "_dhat")}
        assert owners == {
            "SC_PHYS_PAGES": {"network.py": {"check_memory"}},
            "ROW_BLOCK": {"network.py": {None, "channel_bytes", "row_blocks"}},
            "path_gain": {"network.py": {"path_gain", "pair_sums", "channel_matrix"}},
            "row_blocks": {"network.py": {"row_blocks", "pair_sums", "channel_matrix"}},
            "threading": {},
            "sched_getaffinity": {},
            "row_block_workers": {},
            "run_row_blocks": {},
            "row_block_bytes": {},
            "_dhat": {},
        }

    def test_every_preflight_reads_a_count_function(self):
        # each stage passes check_memory a call to its own *_bytes function,
        # which its tests and README read too, never arithmetic of its own
        modules = sorted(Path(harness.__file__).parent.glob("*.py"))
        counts = set()
        for path in modules:
            for top in ast.parse(path.read_text(encoding="utf-8")).body:
                for node in ast.walk(top):
                    func = getattr(node, "func", None)
                    if getattr(func, "id", getattr(func, "attr", None)) == "check_memory":
                        count = node.args[0]
                        counts.add((top.name, ast.unparse(count.func)
                                    if isinstance(count, ast.Call) else None))
        assert counts == {("generate_network", "instance_bytes"),
                          ("mc_cutset_logdet", "trial_bytes"),
                          ("route_sd_lines", "routing_bytes"),
                          ("_open_grid", "slab_bytes"),
                          ("emit_phase_diagram", "phase_diagram_bytes")}
        # no other function names check_memory, so none calls it another way
        named = set().union(*(naming_functions(path, "check_memory") for path in modules))
        assert named - {None, "check_memory"} == {caller for caller, _ in counts}

    def test_one_owner_of_the_streams(self):
        # only rng.py builds a bit generator, reads or sets its state, or
        # draws or decodes its raw words; the old row and relay decoders
        # outside it, the row draw's run merging, its counter jumps and the
        # re-key helper beside keyed_generators are gone
        modules = sorted(Path(harness.__file__).parent.glob("*.py"))
        owners = {name: {path.name for path in modules if naming_functions(path, name)}
                  for name in ("Philox", "bit_generator", "random_raw", "advance",
                               "rekey", "_MASK32", "_MAX_GAP", "_draw_rows",
                               "_relay_draws", "uniform_rows")}
        assert owners == {name: {"rng.py"} for name in (
            "Philox", "bit_generator", "random_raw", "_MASK32")} | {
            "advance": set(), "rekey": set(), "_MAX_GAP": set(), "_draw_rows": set(),
            "_relay_draws": set(), "uniform_rows": set()}

    def test_one_phase_path(self):
        # outside rng.py only node_phases draws phase rows, so every phase,
        # the channel's included, comes through it; the channel takes no
        # trig, and only the phase table does
        modules = sorted(Path(harness.__file__).parent.glob("*.py"))
        owners = {path.name: found for path in modules
                  if (found := naming_functions(path, "raw_rows"))}
        assert owners == {"rng.py": {"raw_rows"}, "network.py": {"node_phases"}}
        network_py = Path(harness.__file__).parent / "network.py"
        assert naming_functions(network_py, "node_phases") == {"node_phases",
                                                               "channel_matrix"}
        assert naming_functions(network_py, "unit_phases") == {"unit_phases",
                                                               "node_phases"}
        trig = {name: set().union(*(naming_functions(path, name) for path in modules))
                for name in ("cos", "sin", "exp")}
        assert trig == {"cos": {"unit_phases"}, "sin": {"unit_phases"}, "exp": set()}

    def test_every_export_is_read(self):
        # each name netregime/__init__.py exports is read by another module of
        # the package or named in the benchmark's scripts, which are only read
        package = Path(harness.__file__).parent
        init = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
        exported = {alias.asname or alias.name for node in init.body
                    if isinstance(node, ast.ImportFrom) for alias in node.names}
        read = set().union(*(read_names(path) for path in package.glob("*.py")
                             if path.name != "__init__.py"))
        bench = "".join(path.read_text(encoding="utf-8")
                        for path in (package.parents[1] / "perfbench").glob("*.py"))
        assert {name for name in exported - read
                if not re.search(rf"\b{name}\b", bench)} == set()

    def test_only_harness_derives_sweep_seed_paths(self):
        # the CLI takes a sweep unit's seeds from harness.unit_seeds; it
        # derives only the seeds of its own tags
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        named = {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                 and node.value.id == "rng"}
        named |= {alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) for alias in node.names}
        assert {"CLI_PHASES", "CLI_CUT"} <= named
        assert not named & {"EXPERIMENT", "PHASES", "CROSSING"}
