"""Metamorphic relations: the pipeline against itself under a change of
its input whose effect on every output is known.

Scaling every position by 2^j and the area by 4^j scales each distance
and the nearest-neighbor spacing sqrt(A/n) by 2^j exactly, so every
rescaled distance rhat, and so every value computed from it, keeps its
bits.
"""

import pytest

from netregime import NetworkInstance, evaluate_cutset, generate_network, simulate_hybrid
from netregime.harness import operating_point

# alpha = 3 and beta = 0.25 give a strip of width n^(1/4) and a far set
# that are both non-empty
ALPHA, BETA = 3.0, 0.25


def instance_and_scaled(n, j):
    """An instance at (n, ALPHA, BETA), its snr_s, and the instance with every
    position times 2^j on area 4^j A."""
    snr_s, area = operating_point(n, ALPHA, BETA)
    inst = generate_network(n, area, seed=n)
    return inst, snr_s, NetworkInstance(
        n, area * 4.0 ** j, inst.seed, inst.positions * 2.0 ** j,
        inst.source_ids, inst.dest_ids)


@pytest.mark.parametrize("j", [-1, 1])
@pytest.mark.parametrize("n,mode", [(256, "idealized"), (256, "percolation"),
                                    (1024, "percolation")])
def test_cutset_keeps_its_bits_when_scaled_by_a_power_of_two(n, mode, j):
    inst, snr_s, scaled = instance_and_scaled(n, j)
    want, got = (evaluate_cutset(i, snr_s, ALPHA, trials=1, phase_seed=4, mode=mode)
                 for i in (inst, scaled))
    assert want.size_VD > 0 and want.snr_total > 0
    assert got.size_VD == want.size_VD
    for name in ("mc_logdet", "snr_total", "dof_term"):
        assert getattr(got, name).hex() == getattr(want, name).hex(), name


@pytest.mark.parametrize("j", [-1, 1])
@pytest.mark.parametrize("n", [256, 1024])
def test_hybrid_keeps_its_bits_when_scaled_by_a_power_of_two(n, j):
    inst, snr_s, scaled = instance_and_scaled(n, j)
    want, got = (simulate_hybrid(i, snr_s, ALPHA, M=4)[0] for i in (inst, scaled))
    assert got.aggregate_T.hex() == want.aggregate_T.hex()
