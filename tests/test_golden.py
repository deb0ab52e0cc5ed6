"""Golden outputs of small sweeps, a sweep manifest, the default phase
diagram and the CLI.

Sweep, manifest, phase-diagram and CLI outputs are pure functions of their
inputs, so a change that promises byte-identical outputs must keep every
sha256 below.  Cutset values go through a BLAS Gram product and a LAPACK
Cholesky factor whose last bit can differ between machines, so they are
compared number by number at rel=1e-12 instead.  Re-record a digest only with a change that declares
an output change.
"""

import hashlib
import math
from pathlib import Path

import pytest

from netregime import Constants, ExperimentConfig, emit_phase_diagram, emit_sweep
from netregime.cli import main
from netregime.harness import CUTSET_CSV_HEADER

SWEEPS = {
    "multihop": dict(kind="scheme", scheme="multihop", alpha=3.5, beta=-0.25,
                     n_list=[16, 64, 256, 1024]),
    "hc": dict(kind="scheme", scheme="hc", alpha=2.5, beta=0.5,
               n_list=[16, 64, 256, 1024]),
    "bursty_hc": dict(kind="scheme", scheme="bursty_hc", alpha=2.5, beta=-0.5,
                      n_list=[16, 64, 256, 1024]),
    "hybrid": dict(kind="scheme", scheme="hybrid", alpha=4.0, beta=0.5,
                   n_list=[64, 128], trials=3),
    # M = 1: most interior cells of a line are empty and rerouted
    "hybrid_m1": dict(kind="scheme", scheme="hybrid", alpha=4.0, beta=0.04,
                      n_list=[256, 512], trials=2),
    "percolation": dict(kind="percolation", n_list=[256, 1024], trials=10),
    # every row above reads 1; at c = 0.5 the rates are 0.7 and 0.85, so a
    # changed crossing or a changed draw moves this digest
    "percolation_c05": dict(kind="percolation", constants=Constants(c=0.5),
                            n_list=[256, 1024], trials=20),
}

SWEEP_SHA256 = {
    "multihop": "7c67969ded0d63221b3de4347d9cb045656b82773468bb72a46db7819c3ce61a",
    "hc": "5d12040ca464cb97830576058870f7f42d9cc2b07e4ff026b2d1f06875d18526",
    "bursty_hc": "8c21173058c2a5ad43c33721921c91fb3067573a0385b1903d0a1567649ac1dd",
    "hybrid": "4b8994b01d6cb0539d34263230e1e299088e570470224d9ce5a42208e1f17d32",
    "hybrid_m1": "dc2c62b61f4dc6997c828e35c9016169cdf2b5bbfeb2db18a2136e1f3f3b43cb",
    "percolation": "182f59b3480a68c82c6ac927805763e986099d8788e8f967c89795aee604ba01",
    "percolation_c05": "f55294d68a0f3954237e21ec5fafe17760acb69bc6892648d4641ba0dbf6c71a",
}

PHASE_DIAGRAM_SHA256 = ("c7cc8ac8115d0500e7310bb20ca2d25e96728bcde8eb0ae690149bd9119af8ca",
                        "38180e7b072f4dccddb0e84817dd4e2d6b418bd1e267bb1ae0ad444313de8c54")

CLI = {
    "scheme_multihop": ["scheme", "--name", "multihop", "--beta", "0",
                        "--n-list", "64", "256", "1024"],
    "scheme_hc": ["scheme", "--name", "hc", "--alpha", "2.5", "--beta", "0.5",
                  "--n-list", "64", "256"],
    "scheme_bursty_hc": ["scheme", "--name", "bursty_hc", "--alpha", "2.5",
                         "--beta", "-0.5", "--n-list", "64", "256"],
    "hybrid": ["hybrid", "--n", "128", "--alpha", "4", "--beta", "0.5",
               "--seeds", "3"],
    "hybrid_m1": ["hybrid", "--n", "256", "--alpha", "4", "--beta", "0.04",
                  "--seeds", "3"],
}

CLI_SHA256 = {
    "scheme_multihop": "e0cb992a63545662cb62ae8d16e4a7c01f35ea4f0113c190b9436681d4d2b29f",
    "scheme_hc": "ac6c03081a2fe9ced488a9d7dc6f30baccc456e42758c6a45cd4c31596e12849",
    "scheme_bursty_hc": "47bf20c86bec3570c6ef590dde1df100644ece5a76ef7b46cb0fc9111237ae6b",
    "hybrid": "d652dda61b899aebb87213f10e3e310044ccd05b3a8068a77e45cc0a86fd8a9d",
    "hybrid_m1": "64da8f40da04f269a284a52a50e70f17451bb335c18c8336ec406ff10a3c8b97",
}

GEN_SHA256 = "2138fa14e0d1d850863259fbd99527203d6643008f7d484102bc6ea4035abb8c"

PERCOLATION_CLI = ["percolation", "--n", "1024", "--trials", "4"]
PERCOLATION_CLI_SHA256 = (
    "54f1c6672feb3dea9a3b355f966f3104b2a5054cd435703d2522b3e57f264b1f",   # CSV
    "a3b35a506a13e14d7b08adbeee2c85d6f17d591b18eebe6f0b944a81a1166992")   # cut JSON

# The manifest records config.out, so the sweep writes to a relative path.
MANIFEST_SHA256 = "bc456d08eb273f373d9014cc2f5c2ceca12b59ff9e07df20503ebe4443bbd6d1"

CUTSET_SWEEP = dict(kind="cutset", alpha=3.0, beta=0.5, n_list=[16, 32],
                    trials=2, instances=2)
CUTSET_SWEEP_CSV = ("n,metric,stderr\n"
                    "16,8.2851155756499537,0.77695911625445913\n"
                    "32,23.566776704138217,0.72529672224534991\n")

CUTSET_CLI = {
    "idealized": ["cutset", "--n", "64", "--alpha", "3", "--beta", "0.5",
                  "--trials", "4"],
    "percolation": ["cutset", "--n", "256", "--alpha", "4", "--beta", "0",
                    "--mode", "percolation", "--trials", "2"],
}
CUTSET_CLI_CSV = {
    "idealized": CUTSET_CSV_HEADER + "\n"
                 '64,3,0.5,8,51,314.4848776631801,0,0,49.507495946254096,0.081369018840382598,nan,4,3\n',
    "percolation": CUTSET_CSV_HEADER + "\n"
                   '256,4,0,1,0,0,37.868873126182145,72.088986384805764,26.842904490188722,0.13234656906201003,491.98388625223822,2,3\n',
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sweep_csv(tmp_path, name: str, fields: dict) -> Path:
    out = tmp_path / f"{name}.csv"
    emit_sweep(ExperimentConfig(master_seed=3, out=str(out), **fields))
    return out


def cli_csv(tmp_path, name: str, argv: list) -> Path:
    out = tmp_path / f"{name}.csv"
    assert main(argv + ["--seed", "3", "--out", str(out)]) == 0
    return out


def assert_close_csv(got: str, want: str) -> None:
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert len(got_lines) == len(want_lines)
    for got_line, want_line in zip(got_lines, want_lines):
        got_cols, want_cols = got_line.split(","), want_line.split(",")
        assert len(got_cols) == len(want_cols)
        for g, w in zip(got_cols, want_cols):
            try:
                w_val = float(w)
            except ValueError:
                assert g == w
                continue
            if math.isnan(w_val):
                assert math.isnan(float(g))
            else:
                assert float(g) == pytest.approx(w_val, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_bytes(tmp_path, name):
    assert sha256(sweep_csv(tmp_path, name, SWEEPS[name])) == SWEEP_SHA256[name]


def test_default_phase_diagram_bytes(tmp_path):
    csv_path, grid_path = emit_phase_diagram(
        ExperimentConfig(kind="phase-diagram", out=str(tmp_path / "pd.csv")))
    assert (sha256(Path(csv_path)), sha256(Path(grid_path))) == PHASE_DIAGRAM_SHA256


@pytest.mark.parametrize("name", sorted(CLI))
def test_cli_bytes(tmp_path, name):
    assert sha256(cli_csv(tmp_path, name, CLI[name])) == CLI_SHA256[name]


def test_cutset_sweep_values(tmp_path):
    got = sweep_csv(tmp_path, "cutset", CUTSET_SWEEP).read_text()
    assert_close_csv(got, CUTSET_SWEEP_CSV)


@pytest.mark.parametrize("mode", sorted(CUTSET_CLI))
def test_cutset_cli_values(tmp_path, mode):
    got = cli_csv(tmp_path, mode, CUTSET_CLI[mode]).read_text()
    assert_close_csv(got, CUTSET_CLI_CSV[mode])


def test_gen_bytes(tmp_path):
    assert sha256(cli_csv(tmp_path, "gen", ["gen", "--n", "64"])) == GEN_SHA256


def test_percolation_cli_and_cut_bytes(tmp_path):
    cut = tmp_path / "cut.json"
    csv = cli_csv(tmp_path, "perc", PERCOLATION_CLI + ["--export-cut", str(cut)])
    assert (sha256(csv), sha256(cut)) == PERCOLATION_CLI_SHA256


def test_sweep_manifest_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    emit_sweep(ExperimentConfig(master_seed=3, out="sweep.csv", **SWEEPS["percolation"]))
    assert sha256(tmp_path / "sweep.csv.manifest.json") == MANIFEST_SHA256
