import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import netregime
from netregime import (ChannelMatrix, DegenerateInstanceError,
                       PathologicalCutError, cli, cutset, harness, network, rng)
from netregime.cli import main

from helpers import instance_from_json, physical_memory_is


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


# Inputs outside ExperimentConfig's rules or a library call's domain; each
# once exited 0, 1 or 3.
INVALID_POINTS = [
    ["cutset", "--n", "64", "--trials", "1", "--alpha", "inf"],
    ["scheme", "--name", "hc", "--n", "64", "--beta", "nan"],
    ["scheme", "--name", "bursty_hc", "--beta", "inf"],
    ["hybrid", "--n", "256", "--beta", "nan", "--seeds", "1"],
    ["scheme", "--name", "hc", "--n", "64", "--eps", "inf"],
    ["hybrid", "--n", "256", "--beta", "0.04", "--seeds", "1", "--eps", "inf"],
    # constants out of range where the run does not read them
    ["cutset", "--n", "64", "--trials", "1", "--c", "5"],
    ["scheme", "--name", "multihop", "--eps", "-1"],
    ["scheme", "--name", "hc", "--n", "64", "--k2", "-1"],
    ["scheme", "--name", "multihop", "--alpha", "1.5"],
    ["scheme", "--name", "multihop", "--n-list", "256", "64"],
    ["hybrid", "--n", "64", "--alpha", "4", "--beta", "0.5", "--seeds", "0"],
    ["gen", "--n", "4", "--area", "nan"],
    ["gen", "--n", "4", "--area", "inf"],
    # 64^200 overflows a float; 16^200 does not
    ["cutset", "--n", "64", "--trials", "1", "--beta", "200"],
    ["scheme", "--name", "multihop", "--n", "64", "--beta", "200"],
    ["scheme", "--name", "hc", "--n-list", "16", "64", "--beta", "200"],
    ["hybrid", "--n", "64", "--alpha", "4", "--beta", "200", "--seeds", "1"],
    # n = 1 passes ExperimentConfig, but a cut and a slab need two pairs
    ["cutset", "--n", "1", "--trials", "1"],
    ["percolation", "--n", "1", "--trials", "1"],
]


@pytest.mark.parametrize("argv", INVALID_POINTS, ids=" ".join)
def test_invalid_point_exits_2(argv, tmp_path):
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen", "hybrid", "cutset"])
def test_instance_beyond_memory_exits_2(command, monkeypatch, capsys, tmp_path):
    # each command once ran out of memory in the draw and exited 1
    out = tmp_path / "out"
    physical_memory_is(monkeypatch, network.instance_bytes(1000) - 1)
    assert run([command, "--n", "1000", "--out", str(out)]) == 2
    assert "an instance of 1000 pairs" in capsys.readouterr().err
    assert not out.exists()


# The regime edge n^(alpha/2 - 1) overflows a float, so snr_s lies below it;
# each once exited 3.
EXTREME_POINTS = [
    (["hybrid", "--n", "1024", "--alpha", "1000", "--beta", "0.04"], "aggregate_T"),
    (["cutset", "--n", "64", "--alpha", "1000", "--beta", "0.5", "--trials", "1"],
     "mc_logdet"),
]


@pytest.mark.parametrize("argv,column", EXTREME_POINTS,
                         ids=[" ".join(argv) for argv, _ in EXTREME_POINTS])
def test_extreme_exponent_gives_a_number(argv, column, tmp_path):
    out = tmp_path / "out.csv"
    assert run(argv + ["--out", str(out)]) == 0
    header, *rows = out.read_text().splitlines()
    at = header.split(",").index(column)
    assert rows and all(math.isfinite(float(row.split(",")[at])) for row in rows)


def test_bursty_hc_underflow_rows(tmp_path):
    # the last subnormal rate keeps its bytes; one step lower snr_long
    # underflows to 0, and with it bursty HC's duty cycle and rate
    out = tmp_path / "out.csv"
    rates = []
    for beta in ("-105", "-106"):
        assert run(["scheme", "--name", "bursty_hc", "--n", "1024", "--alpha", "6",
                    "--beta", beta, "--out", str(out)]) == 0
        rates.append(out.read_text().splitlines()[1].split(",")[5])
    assert rates == ["5.7237505070708412e-320", "0"]


# Fields of ExperimentConfig and Constants that a point command's flags set.
CONFIG_FLAG_FIELDS = {"alpha", "beta", "trials", "mode", "scheme", "n_list",
                      "K1", "K2", "K3", "epsilon", "c"}


def test_only_config_reads_config_flags():
    """Every config flag reaches a run through cli._config's validated config."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    stray = [(func.name, node.attr) for func in ast.walk(tree)
             if isinstance(func, ast.FunctionDef)
             and func.name != "_config"
             for node in ast.walk(func)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id == "args" and node.attr in CONFIG_FLAG_FIELDS]
    assert stray == []


# One valid run of each point command, without --seed and --out.
POINT_COMMANDS = {
    "cutset": ["cutset", "--n", "16", "--trials", "1"],
    "scheme": ["scheme", "--name", "multihop"],
    "hybrid": ["hybrid", "--n", "64", "--alpha", "4", "--beta", "0.5", "--seeds", "1"],
    "percolation": ["percolation", "--n", "64", "--trials", "2"],
}


def test_point_commands_read_only_their_config():
    """Past cli._config, a point command reads no flag but --export-cut."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    read = {(func.name, node.attr) for func in tree.body
            if isinstance(func, ast.FunctionDef)
            and func.name in {"cmd_" + name for name in POINT_COMMANDS}
            for node in ast.walk(func)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "args"}
    assert read == {("cmd_percolation", "export_cut")}


@pytest.mark.parametrize("argv", POINT_COMMANDS.values(), ids=POINT_COMMANDS)
def test_config_carries_the_seed(argv, monkeypatch, tmp_path):
    made, real = [], cli._config

    def recording(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]
    monkeypatch.setattr(cli, "_config", recording)
    assert run(argv + ["--seed", "7", "--out", str(tmp_path / "out")]) == 0
    assert [config.master_seed for config in made] == [7]


@pytest.mark.parametrize("argv", POINT_COMMANDS.values(), ids=POINT_COMMANDS)
def test_negative_seed_exits_2(argv, capsys, tmp_path):
    out = tmp_path / "out"
    assert run(argv + ["--seed", "-1", "--out", str(out)]) == 2
    assert "master_seed must be an integer >= 0" in capsys.readouterr().err
    assert not out.exists()


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

    def test_negative_seed_names_its_flag(self, capsys, tmp_path):
        out = tmp_path / "net.json"
        assert run(["gen", "--n", "8", "--seed", "-1", "--out", str(out)]) == 2
        assert "master_seed must be an integer >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("flag", [["--k1", "-1"], ["--eps", "0"], ["--eps", "-1"]])
    def test_non_positive_constant_exits_2(self, flag):
        assert run(["cutset", "--n", "64", "--trials", "1"] + flag) == 2

    def test_percolation_mode(self, tmp_path):
        out = tmp_path / "cutp.csv"
        code = run(["cutset", "--n", "256", "--alpha", "4", "--beta", "0",
                    "--trials", "2", "--seed", "1", "--mode", "percolation",
                    "--out", str(out)])
        assert code == 0

    def test_slab_beyond_memory_exits_2(self, memory_at_most_8gib, capsys):
        # n = 256 at c = 1e-9 is a slab of 1.6e10 x 6 cells, about 5 TiB
        assert run(["cutset", "--mode", "percolation", "--c", "1e-9"]) == 2
        assert "physical memory" in capsys.readouterr().err

    def test_trial_beyond_memory_exits_2(self, memory_at_most_8gib, capsys):
        # n = 2^16 has about 2^16 transmitters: a packed Gram of about 34 GB
        assert run(["cutset", "--n", str(2 ** 16), "--trials", "1"]) == 2
        assert "physical memory" in capsys.readouterr().err


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

    def test_hybrid_trials_are_sweep_units_past_32_bits(self, tmp_path):
        # a master seed >= 2^32 takes two words, so (m, EXPERIMENT, t) is no
        # longer the sweep's (m, EXPERIMENT, t, 0)
        m, out = 2 ** 40, tmp_path / "hy.csv"
        assert run(["hybrid", "--n", "64", "--alpha", "4", "--beta", "0.5", "--seeds", "2",
                    "--seed", str(m), "--out", str(out)]) == 0
        seeds = [int(line.split(",")[-1]) for line in out.read_text().splitlines()[1:]]
        assert seeds == [rng.derived_seed(m, rng.EXPERIMENT, t, 0) for t in range(2)]
        assert seeds[1] != rng.derived_seed(m, rng.EXPERIMENT, 1)

    def test_hybrid_out_of_regime(self):
        assert run(["hybrid", "--n", "64", "--alpha", "4", "--beta", "-0.5"]) == 2

    def test_routing_beyond_memory_exits_2(self, monkeypatch, capsys):
        # 16 KiB holds the instance of 64 pairs but not its routing
        physical_memory_is(monkeypatch, 16384)
        assert run(["hybrid", "--n", "64", "--alpha", "4", "--beta", "0.5"]) == 2
        assert "hybrid routing of 64 lines" in capsys.readouterr().err


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

    def test_export_without_a_crossing_exits_3(self, tmp_path, capsys):
        # the export instance of seed 8 at n = 64 has no crossing at c = 0.52
        cut = tmp_path / "cut.json"
        assert run(["percolation", "--n", "64", "--c", "0.52", "--trials", "2",
                    "--seed", "8", "--out", str(tmp_path / "perc.csv"),
                    "--export-cut", str(cut)]) == 3
        assert "no open crossing in the export instance" in capsys.readouterr().err
        assert not cut.exists()

    def test_study_is_a_sweep_point_0(self, tmp_path):
        out = tmp_path / "perc.csv"
        assert run(["percolation", "--n", "256", "--c", "0.5", "--trials", "30",
                    "--seed", "4", "--out", str(out)]) == 0
        rate = float(out.read_text().splitlines()[1].split(",")[3])
        config = harness.ExperimentConfig(kind="percolation", n_list=[256, 1024],
                                          trials=30, master_seed=4,
                                          constants=harness.Constants(c=0.5))
        assert rate == harness.run_scaling_experiment(config)[0].metric
        assert 0.0 < rate < 1.0

    def test_study_is_a_sweep_point_0_past_64_bits(self, tmp_path, monkeypatch):
        # a master seed >= 2^64 takes three words, so (m, CROSSING) is no
        # longer the sweep's (m, CROSSING, 0)
        m, seeds, real = 2 ** 64, [], harness.crossing_probability

        def recording(n, c, trials, seed):
            seeds.append(seed)
            return real(n, c, trials, seed)
        monkeypatch.setattr(cli, "crossing_probability", recording)
        monkeypatch.setattr(harness, "crossing_probability", recording)
        out = tmp_path / "perc.csv"
        assert run(["percolation", "--n", "256", "--c", "0.5", "--trials", "30",
                    "--seed", str(m), "--out", str(out)]) == 0
        config = harness.ExperimentConfig(kind="percolation", n_list=[256], trials=30,
                                          master_seed=m, constants=harness.Constants(c=0.5))
        rate = float(out.read_text().splitlines()[1].split(",")[3])
        assert rate == harness.run_scaling_experiment(config)[0].metric
        assert seeds == [rng.derived_seed(m, rng.CROSSING, 0)] * 2
        assert seeds[0] != rng.derived_seed(m, rng.CROSSING)

    def test_slab_beyond_memory_exits_2(self, memory_at_most_8gib, capsys):
        # n = 4 at c = 1e-9 is a slab of 2e9 x 2 cells, about 460 GiB
        assert run(["percolation", "--n", "4", "--trials", "2", "--c", "1e-9"]) == 2
        assert "physical memory" in capsys.readouterr().err

    def test_trial_keys_beyond_memory_exit_2(self, monkeypatch, capsys):
        # the slab of n = 64 counts 0.34 MB, the keys of 10^6 trials 168 MB
        def philox_keys(*args):
            raise AssertionError("keys made before the memory pre-flight")
        monkeypatch.setattr(rng, "philox_keys", philox_keys)
        physical_memory_is(monkeypatch, 16 * 2 ** 20)
        assert run(["percolation", "--n", "64", "--trials", str(10 ** 6)]) == 2
        assert "physical memory" in capsys.readouterr().err


# Run in a fresh interpreter: other tests load scipy's solvers into this one.
SCIPY_SOLVERS_LOADED = """
import sys
import netregime
from netregime.cli import main

def loaded():
    return sorted(m for m in ("scipy.linalg", "scipy.ndimage") if m in sys.modules)

out = sys.argv[1]
assert loaded() == [], loaded()
for argv in (["gen", "--n", "16"], ["scheme", "--name", "multihop"],
             ["hybrid", "--n", "64", "--alpha", "4", "--beta", "0.5", "--seeds", "1"],
             ["phase-diagram", "--resolution", "3", "3"]):
    assert main(argv + ["--out", out]) == 0, argv
    assert loaded() == [], (argv, loaded())
assert main(["cutset", "--n", "64", "--trials", "1", "--out", out]) == 0
assert loaded() == ["scipy.linalg"], loaded()
"""


def test_scipy_solvers_load_only_where_used(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(netregime.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", SCIPY_SOLVERS_LOADED,
                           str(tmp_path / "out")], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr


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

    @pytest.mark.parametrize("ranges", [
        (["--alpha-range", "4", "2"], "ascending"),
        (["--beta-range", "1", "-1"], "ascending"),
        (["--alpha-range", "4", "2", "--beta-range", "1", "-1"], "ascending"),
        (["--alpha-range", "1.5", "4"], "alpha_range entries must be >= 2"),
        (["--resolution", "3", "0"], "resolution entries must be >= 1")])
    def test_descending_range_exits_2(self, tmp_path, ranges, capsys):
        flags, message = ranges
        out = tmp_path / "pd.csv"
        assert run(["phase-diagram", "--resolution", "3", "3", *flags,
                    "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "pd.csv.grid.txt").exists()

    def test_descending_range_in_sweep_config_exits_2(self, tmp_path):
        out = tmp_path / "pd.csv"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"kind": "phase-diagram", "alpha_range": [4, 2],
                                   "beta_range": [1, -1], "resolution": [3, 3],
                                   "out": str(out)}))
        assert run(["sweep", "--config", str(cfg)]) == 2
        assert not out.exists()

    def test_grid_beyond_memory_exits_2(self, tmp_path, memory_at_most_8gib,
                                        monkeypatch, capsys):
        # 10^10 beta cells, about 1.7 TiB; no cell is classified
        monkeypatch.setattr(harness, "phase_diagram_rows",
                            lambda *a: pytest.fail("classified a cell"))
        out = tmp_path / "pd.csv"
        assert run(["phase-diagram", "--resolution", "2", "10000000000",
                    "--out", str(out)]) == 2
        assert "phase diagram of 2 x 10000000000 cells" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_n_below_1_exits_2(self, tmp_path, capsys, n):
        csv = tmp_path / "data.csv"
        csv.write_text(f"n,metric,stderr\n{n},1,0\n100,10,0\n1000,31.6,0\n")
        assert run(["fit", str(csv)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "n values must be >= 1" in captured.err

    @pytest.mark.parametrize("n", ["6", "10"])
    def test_all_equal_n_exits_2(self, tmp_path, capsys, n):
        # the mean of three equal logs of 6 rounds off them, which once fitted
        # a slope of -1/3 and exited 0
        csv = tmp_path / "data.csv"
        csv.write_text(f"n,metric,stderr\n{n},1,0\n{n},2,0\n{n},3,0\n")
        assert run(["fit", str(csv)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "n values must not be all equal" in captured.err

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

    @pytest.mark.parametrize("text,error", [('{"kind": "scheme", ', "not valid JSON"),
                                            ('[{"kind": "scheme"}]', "a JSON object"),
                                            ('{"kind": "phase-diagram"}', "config.out")])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, text, error):
        cfg = tmp_path / "c.json"
        cfg.write_text(text)
        assert run(["sweep", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and error in captured.err
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

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
                                       {"instances": 0},
                                       {"constants": {"K1": -1.0}},
                                       {"constants": {"epsilon": 0.0}},
                                       # out of range where the run does not read it
                                       {"constants": {"c": 5.0}},
                                       {"kind": "scheme", "scheme": "hybrid", "alpha": 4.0,
                                        "beta": 0.5, "constants": {"K2": -1.0}},
                                       {"kind": "scheme", "scheme": "hc",
                                        "constants": {"epsilon": 0.0}}])
    def test_bad_constants_or_instances_exit_2(self, tmp_path, field):
        out = tmp_path / "s.csv"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"kind": "cutset", **field, "n_list": [16, 32],
                                   "out": str(out)}))
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

    @pytest.mark.parametrize("field", [{"kind": "percolation", "n_list": [256.0]},
                                       {"kind": "scheme", "n_list": [16.5, 64]},
                                       {"kind": "cutset", "n_list": [64.0]},
                                       {"kind": "cutset", "n_list": [16], "beta": None},
                                       # mistyped ranges and constants
                                       {"kind": "phase-diagram", "resolution": [2.5, 3]},
                                       {"kind": "phase-diagram", "alpha_range": [2, "x"]},
                                       {"kind": "percolation", "n_list": [16],
                                        "constants": {"c": "x"}},
                                       {"kind": "scheme", "scheme": "hc", "n_list": [16],
                                        "constants": {"epsilon": None}}])
    def test_non_integer_n_or_null_beta_exit_2(self, tmp_path, field):
        out = tmp_path / "s.csv"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(dict(field, out=str(out))))
        assert run(["sweep", "--config", str(cfg)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("out", [1, True, 7, ["a"]], ids=repr)
    def test_non_string_out_exits_2(self, tmp_path, monkeypatch, capsys, out):
        # an int or true once wrote the CSV through that file descriptor and
        # closed it, and a list raised a TypeError
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"kind": "scheme", "scheme": "multihop",
                                   "n_list": [16, 64], "out": out}))
        assert run(["sweep", "--config", str(cfg)]) == 2
        assert capsys.readouterr().out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    def test_overflowing_snr_in_sweep_config_exits_2(self, tmp_path, capsys):
        # 16^200 is finite and 64^200 overflows, which once made a failed unit
        out = tmp_path / "s.csv"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"kind": "scheme", "scheme": "multihop", "beta": 200.0,
                                   "n_list": [16, 64], "out": str(out)}))
        assert run(["sweep", "--config", str(cfg)]) == 2
        assert "out of float range" in capsys.readouterr().err
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
