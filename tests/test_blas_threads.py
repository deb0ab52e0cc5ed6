"""Cutset output bytes do not depend on how many threads BLAS runs.

OpenBLAS fixes its thread count when it loads, so each count runs in a
fresh interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

import netregime

CUTSET = ["cutset", "--n", "1024", "--alpha", "3", "--beta", "0.5", "--trials", "2",
          "--mode", "percolation"]


def cutset_bytes(out: Path, threads: int) -> bytes:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=str(Path(netregime.__file__).parents[1]))
    subprocess.run([sys.executable, "-m", "netregime.cli", *CUTSET, "--out", str(out)],
                   env=env, check=True, capture_output=True)
    return out.read_bytes()


def test_cutset_bytes_independent_of_blas_threads(tmp_path):
    one = cutset_bytes(tmp_path / "one.csv", 1)
    assert one.count(b"\n") == 2
    assert cutset_bytes(tmp_path / "four.csv", 4) == one
