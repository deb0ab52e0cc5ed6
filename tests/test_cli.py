import json
import math

import numpy as np
import pytest

from netregime import (ChannelMatrix, DegenerateInstanceError,
                       PathologicalCutError, cli, cutset, harness)
from netregime.cli import main

from helpers import instance_from_json


def run(argv):
    return main(argv)


# Flags each subcommand does not take: none of them would change an output byte.
REMOVED_FLAGS = ([("cutset", f) for f in ("--k2", "--k3", "--k4")]
                 + [("scheme", f) for f in ("--trials", "--k1", "--k4", "--c")]
                 + [("hybrid", f) for f in ("--trials", "--k1", "--k2", "--k4", "--c")]
                 + [("percolation", f) for f in ("--alpha", "--beta", "--k1", "--k2",
                                                 "--k3", "--k4", "--eps")])


@pytest.mark.parametrize("command,flag", REMOVED_FLAGS)
def test_unread_flag_exits_2(command, flag):
    with pytest.raises(SystemExit) as exc:
        run([command, "--n", "16", flag, "1"])
    assert exc.value.code == 2


class TestGen:
    def test_writes_instance_json(self, tmp_path):
        out = tmp_path / "net.json"
        assert run(["gen", "--n", "16", "--seed", "3", "--out", str(out)]) == 0
        inst = instance_from_json(out.read_text())
        assert inst.n_pairs == 16 and inst.seed == 3

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["gen", "--n", "8", "--seed", "1", "--out", str(a)])
        run(["gen", "--n", "8", "--seed", "1", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_bad_n_is_config_error(self):
        assert run(["gen", "--n", "0"]) == 2

    def test_degenerate_draw_is_experiment_failure(self, monkeypatch):
        def degenerate(*args, **kwargs):
            raise DegenerateInstanceError("coincident nodes")
        monkeypatch.setattr(cli, "generate_network", degenerate)
        assert run(["gen", "--n", "8"]) == 3


class TestCutset:
    def test_csv_shape(self, tmp_path):
        out = tmp_path / "cut.csv"
        code = run(["cutset", "--n", "32", "--alpha", "3", "--beta", "0.5",
                    "--trials", "3", "--seed", "2", "--out", str(out)])
        assert code == 0
        header, row = out.read_text().splitlines()
        assert header.split(",")[0] == "n"
        assert len(row.split(",")) == len(header.split(","))

    def test_pathological_cut_is_experiment_failure(self, monkeypatch):
        def empty_side(*args, **kwargs):
            raise PathologicalCutError("draw left one side of the cut empty")
        monkeypatch.setattr(harness, "evaluate_cutset", empty_side)
        assert run(["cutset", "--n", "16", "--trials", "1"]) == 3

    def test_all_trials_non_finite_is_experiment_failure(self, monkeypatch):
        real = cutset.channel_matrix

        def nan_channel(*args, **kwargs):
            h = real(*args, **kwargs)
            return ChannelMatrix(np.full(h.entries.shape, np.nan, dtype=complex))
        monkeypatch.setattr(cutset, "channel_matrix", nan_channel)
        assert run(["cutset", "--n", "16", "--trials", "2"]) == 3

    def test_bug_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("unexpected keyword")
        monkeypatch.setattr(harness, "evaluate_cutset", broken)
        with pytest.raises(TypeError, match="unexpected keyword"):
            run(["cutset", "--n", "16", "--trials", "1"])

    def test_percolation_mode(self, tmp_path):
        out = tmp_path / "cutp.csv"
        code = run(["cutset", "--n", "256", "--alpha", "4", "--beta", "0",
                    "--trials", "2", "--seed", "1", "--mode", "percolation",
                    "--out", str(out)])
        assert code == 0


class TestScheme:
    def test_multihop_rows(self, tmp_path):
        out = tmp_path / "mh.csv"
        run(["scheme", "--name", "multihop", "--beta", "0",
             "--n-list", "64", "256", "1024", "--out", str(out)])
        lines = out.read_text().splitlines()
        assert lines[0].startswith("n,alpha,beta,scheme,M")
        values = [float(l.split(",")[5]) for l in lines[1:]]
        for n, v in zip((64, 256, 1024), values):
            assert v == pytest.approx(math.sqrt(n) * math.log2(1.5), rel=1e-12)

    def test_hybrid_subcommand(self, tmp_path):
        out = tmp_path / "hy.csv"
        code = run(["hybrid", "--n", "64", "--alpha", "4", "--beta", "0.5",
                    "--seeds", "2", "--seed", "5", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        assert all(l.split(",")[3] == "hybrid" for l in lines[1:])

    def test_hybrid_out_of_regime(self):
        assert run(["hybrid", "--n", "64", "--alpha", "4", "--beta", "-0.5"]) == 2


class TestPercolation:
    def test_study_and_cut_export(self, tmp_path):
        out = tmp_path / "perc.csv"
        cut = tmp_path / "cut.json"
        code = run(["percolation", "--n", "256", "--c", "0.25", "--trials", "5",
                    "--seed", "2", "--out", str(out), "--export-cut", str(cut)])
        assert code == 0
        assert out.read_text().splitlines()[0] == "n,c,trials,empirical_rate,analytic_bound,flag"
        doc = json.loads(cut.read_text())
        assert doc["clearance"] >= 0.5 * doc["cell_side"]
        assert all(len(cell) == 2 for cell in doc["path"])


class TestPhaseDiagram:
    def test_single_cell(self, tmp_path):
        out = tmp_path / "pd.csv"
        code = run(["phase-diagram", "--alpha-range", "4", "4",
                    "--beta-range", "0.5", "0.5", "--resolution", "1", "1",
                    "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].split(",")[2] == "IV"
        assert (tmp_path / "pd.csv.grid.txt").read_text().strip() == "4"

    def test_reemission_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            run(["phase-diagram", "--resolution", "4", "4", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()


class TestFit:
    def test_fit_from_csv(self, tmp_path, capsys):
        csv = tmp_path / "data.csv"
        csv.write_text("n,metric,stderr\n10,3.1622776601683795,0\n"
                       "100,10,0\n1000,31.622776601683793,0\n")
        assert run(["fit", str(csv), "--theory", "0.5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["slope"] == pytest.approx(0.5, abs=1e-12)
        assert doc["theory_exponent"] == 0.5

    def test_missing_columns(self, tmp_path):
        csv = tmp_path / "bad.csv"
        csv.write_text("a,b\n1,2\n")
        assert run(["fit", str(csv)]) == 2

    def test_short_row_is_config_error(self, tmp_path, capsys):
        csv = tmp_path / "short.csv"
        csv.write_text("n,metric,stderr\n10,1,0\n32\n100,10,0\n")
        assert run(["fit", str(csv)]) == 2
        assert "line 3" in capsys.readouterr().err


class TestSweep:
    def test_sweep_from_config(self, tmp_path):
        out = tmp_path / "s.csv"
        config = {"kind": "scheme", "scheme": "multihop", "n_list": [16, 64],
                  "beta": 0.0, "out": str(out)}
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        assert run(["sweep", "--config", str(cfg)]) == 0
        assert out.exists() and (tmp_path / "s.csv.manifest.json").exists()

    def test_bad_config_exit_2(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"kind": "scheme", "n_list": [8, 4], "out": "x.csv"}')
        assert run(["sweep", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("field", [{"kind": "cutset", "mode": "ideal"},
                                       {"kind": "scheme", "scheme": "multi"}])
    def test_misspelled_mode_or_scheme_exit_2(self, tmp_path, field):
        out = tmp_path / "s.csv"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(dict(field, n_list=[16, 32], out=str(out))))
        assert run(["sweep", "--config", str(cfg)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("field", [{"constants": {"bogus": 1.0}},
                                       {"constants": [1.0]},
                                       {"instances": 0}])
    def test_bad_constants_or_instances_exit_2(self, tmp_path, field):
        out = tmp_path / "s.csv"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(dict(field, kind="cutset", n_list=[16, 32],
                                       out=str(out))))
        assert run(["sweep", "--config", str(cfg)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("field", [{"trials": 2.5}, {"instances": True},
                                       {"master_seed": 1.5}])
    def test_non_integer_count_or_seed_exit_2(self, tmp_path, field):
        out = tmp_path / "s.csv"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(dict(field, kind="percolation", n_list=[16, 32],
                                       out=str(out))))
        assert run(["sweep", "--config", str(cfg)]) == 2
        assert not out.exists()

    def test_every_point_failing_exit_3(self, tmp_path):
        # hybrid cells are undefined at beta < 0, so every unit fails
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"kind": "scheme", "scheme": "hybrid", "alpha": 4.0,
                                   "beta": -0.5, "n_list": [32, 64], "trials": 2,
                                   "out": str(tmp_path / "s.csv")}))
        assert run(["sweep", "--config", str(cfg)]) == 3

    def test_missing_config_exit_3(self, tmp_path):
        assert run(["sweep", "--config", str(tmp_path / "nope.json")]) == 3
