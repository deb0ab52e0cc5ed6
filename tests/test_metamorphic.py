"""Metamorphic relations: the pipeline against itself under a change of
its input whose effect on every output is known.

Scaling every position by 2^j and the area by 4^j scales each distance
and the nearest-neighbor spacing sqrt(A/n) by 2^j exactly, so every
rescaled distance rhat, and so every value computed from it, keeps its
bits.  Any other scale rounds rhat differently, and moves the values in
their last bits.

Renaming the nodes of one side of the cut leaves the network as it was.
The received-power sums are exact (``fsum``) over receive nodes, so
renaming within D keeps their bits; each receive node's sum over S is a
pairwise ``np.sum``, whose rounding follows the order of S.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netregime import (NetworkInstance, channel_matrix, dof_term_realized, evaluate_cutset,
                       generate_network, partition_nodes, select_cut_width, simulate_hybrid,
                       snr_total)
from netregime.cutset import identity_logdet
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


# Instances drawn for the relations below: n pairs and the instance seed.
SIZES = st.integers(64, 256)
SEEDS = st.integers(0, 2 ** 32 - 1)


@settings(max_examples=8)
@given(n=SIZES, seed=SEEDS)
def test_cutset_scaled_by_three_within_tolerance(n, seed):
    # positions times 3 on area 9 A; ROADMAP measured 5.7e-14 on mc_logdet
    snr_s, area = operating_point(n, ALPHA, BETA)
    inst = generate_network(n, area, seed)
    scaled = NetworkInstance(n, 9.0 * area, seed, 3.0 * inst.positions,
                             inst.source_ids, inst.dest_ids)
    want, got = (evaluate_cutset(i, snr_s, ALPHA, trials=1, phase_seed=seed)
                 for i in (inst, scaled))
    assert got.size_VD == want.size_VD
    for name in ("mc_logdet", "snr_total", "dof_term"):
        assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-12), name


@settings(max_examples=8)
@given(n=SIZES, seed=SEEDS, snr_s=st.floats(1e-3, 1e3), step=st.floats(1.01, 100.0))
def test_logdet_strictly_increases_in_snr(n, seed, snr_s, step):
    _, area = operating_point(n, ALPHA, BETA)
    inst = generate_network(n, area, seed)
    part = partition_nodes(inst, 1.0)
    h = channel_matrix(inst, ALPHA, part.left_S, part.right_D, phase_seed=seed).entries
    assert identity_logdet(h, snr_s) < identity_logdet(h, step * snr_s)


def renamed(inst, ids, order):
    """``inst`` with node ids[k] renamed ids[order[k]]: the same network, with
    the nodes of ``ids`` listed in another order."""
    new_id = np.arange(inst.n_nodes)
    new_id[ids] = ids[order]
    positions = np.empty_like(inst.positions)
    positions[new_id] = inst.positions
    return NetworkInstance(inst.n_pairs, inst.area_A, inst.seed, positions,
                           new_id[inst.source_ids], new_id[inst.dest_ids])


@settings(max_examples=12)
@given(n=SIZES, seed=SEEDS, side=st.sampled_from(["strip_VD", "far_D", "left_S"]),
       order_seed=SEEDS)
def test_power_sums_when_one_side_is_renamed(n, seed, side, order_seed):
    # exact within D; within S, rel 1e-14 (2.2e-16 seen)
    snr_s, area = operating_point(n, ALPHA, BETA)
    inst = generate_network(n, area, seed)
    w_hat = select_cut_width(snr_s, n, ALPHA)
    part = partition_nodes(inst, w_hat)
    ids = getattr(part, side)
    other = renamed(inst, ids, np.random.default_rng(order_seed).permutation(ids.size))
    other_part = partition_nodes(other, w_hat)
    for name in ("left_S", "strip_VD", "far_D"):
        assert np.array_equal(getattr(other_part, name), getattr(part, name)), name
    for term in (snr_total, dof_term_realized):
        want, got = (term(i, p, snr_s, ALPHA) for i, p in ((inst, part), (other, other_part)))
        assert want > 0, term.__name__
        if side == "left_S":
            assert got == pytest.approx(want, rel=1e-14, abs=0), term.__name__
        else:
            assert got.hex() == want.hex(), term.__name__
