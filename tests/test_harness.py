import hashlib
import json
import logging
import math

import numpy as np
import pytest

from netregime import (ConfigError, Constants, DegenerateInstanceError,
                       ExperimentConfig, ExperimentError, crossing_probability,
                       fit_exponent, emit_phase_diagram, emit_sweep, harness,
                       params_for_snr, run_scaling_experiment, snr_short)
from netregime.rng import EXPERIMENT, derived_seed
from netregime.harness import write_manifest

from helpers import fit_full_and_tail, tail_points


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


class TestParamsForSnr:
    @pytest.mark.parametrize("snr,alpha,n", [
        (1.0, 2.0, 64), (16.0, 4.0, 256), (0.25, 3.0, 100), (100.0, 2.5, 81)])
    def test_round_trip(self, snr, alpha, n):
        params, area = params_for_snr(snr, alpha, n)
        assert snr_short(params, n, area) == pytest.approx(snr, rel=1e-12)


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
                                       '"alpha_range": 3'])
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

    def test_k4_defaults_to_quarter_k3(self):
        assert Constants(K3=2.0).k4 == pytest.approx(0.5)
        assert Constants(K3=2.0, K4=0.1).k4 == pytest.approx(0.1)


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
        assert [r.getMessage() for r in caplog.records] == [
            f"percolation unit failed at n={n} (point {i}, unit 0): "
            f"DegenerateInstanceError; seed path (5, {EXPERIMENT}, {i}, 0)"
            for i, n in enumerate((16, 32))]
        assert all(r.levelno == logging.WARNING for r in caplog.records)

    def test_hybrid_kind_runs(self):
        config = ExperimentConfig(kind="scheme", scheme="hybrid",
                                  n_list=[64, 128], alpha=4.0, beta=0.5,
                                  trials=3, master_seed=2)
        rows = run_scaling_experiment(config)
        assert all(r.metric > 0 for r in rows)

    def test_percolation_kind_reports_crossing_rate(self):
        config = ExperimentConfig(kind="percolation", n_list=[256],
                                  trials=20, master_seed=4,
                                  constants=Constants(c=0.25))
        rows = run_scaling_experiment(config)
        study = crossing_probability(256, 0.25, 20, derived_seed(4, EXPERIMENT, 0))
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

    def test_reemission_byte_identical(self, tmp_path):
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        for out in (out1, out2):
            config = ExperimentConfig(kind="cutset", n_list=[8, 16], alpha=2.5,
                                      beta=0.5, trials=2, instances=1,
                                      master_seed=7, out=out)
            emit_sweep(config)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

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

    def test_manifest_written_for_any_output(self, tmp_path):
        out = str(tmp_path / "x.csv")
        (tmp_path / "x.csv").write_text("n,metric,stderr\n1,2,3\n")
        config = ExperimentConfig(kind="scheme", n_list=[4, 8], out=out)
        path = write_manifest(out, config)
        doc = json.loads(open(path).read())
        assert doc["version"]
