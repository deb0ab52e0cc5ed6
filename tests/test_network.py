import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from netregime import (DegenerateInstanceError, PhysicalParams, beta_of,
                       channel_matrix, generate_network, snr_long,
                       snr_short)
from netregime import network
from netregime.cutset import partition_nodes, select_cut_width
from netregime.harness import params_for_snr
from netregime.network import NetworkInstance, node_phases

from helpers import (full_channel_matrix, full_node_phases, hand_instance,
                     instance_from_json, lexsort_has_coincident)


def default_params(alpha=4.0, G=1.0):
    return PhysicalParams(power_P=1.0, noise_N0=1.0, bandwidth_W=1.0,
                          alpha=alpha, gain_G=G)


class TestGenerate:
    def test_smallest_instance(self):
        inst = generate_network(1, 1.0, seed=5)
        assert inst.positions.shape == (2, 2)
        assert np.all(inst.positions[:, 0] >= 0) and np.all(inst.positions[:, 0] <= 2)
        assert np.all(inst.positions[:, 1] >= 0) and np.all(inst.positions[:, 1] <= 1)
        assert len(inst.source_ids) == 1 and len(inst.dest_ids) == 1
        assert set(inst.source_ids) | set(inst.dest_ids) == {0, 1}

    def test_positions_inside_rectangle(self):
        inst = generate_network(200, 50.0, seed=1)
        side = math.sqrt(50.0)
        assert np.all(inst.positions[:, 0] <= 2 * side)
        assert np.all(inst.positions[:, 1] <= side)

    def test_mean_x_clt(self):
        # mean x over many draws concentrates at sqrt(A); U[0, 2*sqrt(A)]
        # has sd = 2*sqrt(A)/sqrt(12), so 1000 seeds x 200 nodes give
        # a 3-sigma band of about 0.039 around 10.
        total, count = 0.0, 0
        for seed in range(1000):
            inst = generate_network(100, 100.0, seed=seed)
            total += inst.positions[:, 0].sum()
            count += inst.n_nodes
        mean_x = total / count
        se = (20.0 / math.sqrt(12.0)) / math.sqrt(count)
        assert abs(mean_x - 10.0) < 3 * se

    def test_deterministic(self):
        a = generate_network(40, 17.0, seed=99)
        b = generate_network(40, 17.0, seed=99)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.source_ids, b.source_ids)
        assert np.array_equal(a.dest_ids, b.dest_ids)
        assert a.to_json() == b.to_json()

    def test_pairing_is_bijection(self):
        inst = generate_network(64, 64.0, seed=3)
        assert sorted(set(inst.source_ids)) == sorted(inst.source_ids)
        assert len(set(inst.dest_ids)) == 64
        assert not (set(inst.source_ids) & set(inst.dest_ids))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            generate_network(0, 1.0, seed=0)
        with pytest.raises(ValueError):
            generate_network(4, -1.0, seed=0)

    def test_positions_immutable(self):
        inst = generate_network(4, 4.0, seed=0)
        with pytest.raises(ValueError):
            inst.positions[0, 0] = 5.0

    def test_retry_does_not_repeat_next_seed(self, monkeypatch):
        first = generate_network(16, 16.0, seed=5).positions
        next_seed = generate_network(16, 16.0, seed=6).positions
        draws = []

        def reject_first(positions):
            draws.append(positions)
            return len(draws) == 1
        monkeypatch.setattr(network, "_has_coincident_nodes", reject_first)
        inst = generate_network(16, 16.0, seed=5)
        assert len(draws) == 2 and inst.seed == 5
        assert np.array_equal(draws[0], first)
        assert not np.array_equal(inst.positions, first)
        assert not np.array_equal(inst.positions, next_seed)


class TestValidation:
    POSITIONS = np.linspace([0.1, 0.1], [1.9, 0.9], 8)

    @pytest.mark.parametrize("sources,dests,message", [
        ([0, 1, 2, 3], [3, 4, 5, 6], "overlap"),
        ([0, 1, 2, 2], [4, 5, 6, 7], "exactly once"),
        ([0, 1, 2, 3], [4, 5, 6, 11], r"\[0, 8\)"),
        ([-1, 1, 2, 3], [4, 5, 6, 7], r"\[0, 8\)"),
    ])
    def test_bad_roles_rejected(self, sources, dests, message):
        with pytest.raises(ValueError, match=message):
            NetworkInstance(4, 1.0, 0, self.POSITIONS, sources, dests)

    @pytest.mark.parametrize("positions,coincident", [
        ([[0.5, 0.1], [0.5, 0.7]], False),                 # equal x, different y
        ([[0.2, 0.4], [0.9, 0.4]], False),                 # equal y, different x
        ([[0.3, 0.3], [0.1, 0.2], [0.3, 0.3]], True),      # exact duplicate
        ([[0.3, 0.3], [0.3, 0.2], [0.1, 0.2], [0.3, 0.2]], True),
        ([[0.3, 0.3]], False),
        ([[0.3, 0.3], [0.7, 0.6]], False),                 # n = 1
    ])
    def test_coincidence_matches_lexsort_oracle(self, positions, coincident):
        positions = np.asarray(positions, dtype=float)
        assert network._has_coincident_nodes(positions) is coincident
        assert lexsort_has_coincident(positions) is coincident

    def test_coincidence_on_drawn_positions(self):
        for seed in range(20):
            pos = generate_network(64, 64.0, seed=seed).positions.copy()
            variants = [pos, pos.copy(), pos.copy()]
            variants[1][7, 0] = pos[40, 0]                 # shared x only
            variants[2][7] = pos[40]                       # duplicate node
            for p in variants:
                assert network._has_coincident_nodes(p) == lexsort_has_coincident(p)
            assert network._has_coincident_nodes(variants[2])


class TestSnrQuantities:
    def test_snr_short_unit_distance(self):
        # A/n = 1 makes the spacing term drop out for any alpha
        for alpha in (2.0, 3.0, 4.5):
            assert snr_short(default_params(alpha), 16, 16.0) == pytest.approx(1.0)

    def test_snr_short_hand_values(self):
        assert snr_short(default_params(2.0), 4, 16.0) == pytest.approx(0.25)
        assert snr_short(default_params(4.0, G=2.0), 9, 9.0) == pytest.approx(2.0)

    def test_snr_long_zero_db_boundary(self):
        # beta = alpha/2 - 1 puts the long-range SNR at 0 dB
        n = 81
        assert snr_long(float(n), n, 4.0) == pytest.approx(1.0)

    def test_snr_long_hand_values(self):
        # n^(1-alpha/2) * snr_s evaluated directly
        assert snr_long(1.0, 100, 2.0) == pytest.approx(1.0)
        assert snr_long(1.0, 100, 4.0) == pytest.approx(0.01)

    def test_beta_of(self):
        assert beta_of(1.0, 50) == pytest.approx(0.0)
        assert beta_of(50.0, 50) == pytest.approx(1.0)
        assert beta_of(16.0, 256) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            beta_of(2.0, 1)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            PhysicalParams(0.0, 1.0, 1.0, 4.0)
        with pytest.raises(ValueError):
            PhysicalParams(1.0, 1.0, 1.0, 1.5)


class TestChannel:
    def test_unit_rescaled_distance(self):
        # two nodes exactly one nearest-neighbor spacing apart
        inst = hand_instance([[0.0, 0.5], [1.0, 0.5]], area_A=1.0)
        h = channel_matrix(inst, default_params(4.0), [0], [1], phase_seed=1)
        assert abs(h.entries[0, 0]) == pytest.approx(1.0, rel=1e-12)

    def test_rescaled_distance_four(self):
        # unit density with 4 pairs leaves room for a rescaled distance of 4
        positions = [[0.0, 0.1], [4.0, 0.1],
                     [1.0, 1.0], [1.5, 1.5], [2.0, 0.5],
                     [2.5, 1.2], [3.0, 1.8], [3.5, 0.8]]
        inst = hand_instance(positions, area_A=4.0)
        h = channel_matrix(inst, default_params(4.0), [0], [1], phase_seed=1)
        assert abs(h.entries[0, 0]) == pytest.approx(4.0 ** -2, rel=1e-12)

    def test_magnitude_law_raw(self):
        inst = generate_network(20, 11.0, seed=8)
        params = default_params(3.0, G=2.5)
        tx, rx = np.arange(10), np.arange(10, 40)
        raw = full_channel_matrix(inst, params, tx, rx, phase_seed=4, rescaled=False)
        diff = (inst.positions[rx][:, None, :] - inst.positions[tx][None, :, :])
        r = np.sqrt((diff ** 2).sum(axis=2))
        lhs = np.abs(raw) * r ** (params.alpha / 2.0)
        assert np.allclose(lhs, math.sqrt(2.5), rtol=1e-12)
        # the library's rescaled channel carries the same phases
        h = channel_matrix(inst, params, tx, rx, phase_seed=4)
        assert np.allclose(h.entries / np.abs(h.entries), raw / np.abs(raw), rtol=1e-12)

    def test_rescaling_consistency(self):
        inst = generate_network(18, 7.0, seed=12)
        params = default_params(2.5, G=3.0)
        tx, rx = np.arange(9), np.arange(9, 36)
        raw = full_channel_matrix(inst, params, tx, rx, phase_seed=21, rescaled=False)
        resc = channel_matrix(inst, params, tx, rx, phase_seed=21)
        factor = (inst.area_A / inst.n_pairs) ** (params.alpha / 4.0) / math.sqrt(3.0)
        assert np.allclose(resc.entries, raw * factor, rtol=1e-12)

    def test_unit_modulus_phases(self):
        ph = node_phases(30, phase_seed=77, rows=np.arange(30))
        assert np.all((ph >= 0) & (ph < 2 * math.pi))
        mods = np.abs(np.exp(1j * ph))
        assert np.allclose(mods, 1.0, atol=1e-14)

    def test_phase_uniformity_ks(self):
        # >= 1e5 entries against Uniform[0, 2pi) at significance 0.01
        ph = node_phases(400, phase_seed=123, rows=np.arange(400))
        res = stats.kstest(ph.ravel(), stats.uniform(loc=0, scale=2 * math.pi).cdf)
        assert ph.size >= 10 ** 5
        assert res.pvalue > 0.01

    def test_fresh_seed_fresh_fading(self):
        inst = generate_network(8, 8.0, seed=1)
        h1 = channel_matrix(inst, default_params(), [0, 1], [8, 9], phase_seed=1)
        h2 = channel_matrix(inst, default_params(), [0, 1], [8, 9], phase_seed=2)
        assert not np.allclose(h1.entries, h2.entries)
        assert np.allclose(np.abs(h1.entries), np.abs(h2.entries), rtol=1e-12)

    def test_coincident_nodes_rejected(self):
        inst = hand_instance([[0.3, 0.3], [0.3, 0.3]], area_A=1.0)
        with pytest.raises(DegenerateInstanceError):
            channel_matrix(inst, default_params(), [0], [1], phase_seed=0)

    def test_overlapping_sets_rejected(self):
        inst = generate_network(4, 4.0, seed=0)
        with pytest.raises(ValueError):
            channel_matrix(inst, default_params(), [0, 1], [1, 2], phase_seed=0)
        with pytest.raises(ValueError):
            channel_matrix(inst, default_params(), [], [1], phase_seed=0)


class TestPhaseRows:
    # 2n = 14, 126 and 1030 give rows that start mid counter step (2n % 4 == 2);
    # at 2n = 1030 rows are over 512 draws apart, so each is its own run
    @pytest.mark.parametrize("n_nodes", [2, 14, 16, 126, 1030])
    def test_rows_match_full_draw(self, n_nodes):
        full = full_node_phases(n_nodes, phase_seed=31)
        gen = np.random.default_rng(n_nodes)
        cols = gen.permutation(n_nodes)[: max(1, n_nodes // 3)]
        row_sets = [np.arange(n_nodes), [0], [n_nodes - 1], np.array([], dtype=int),
                    np.sort(gen.choice(n_nodes, size=(n_nodes + 1) // 2, replace=False)),
                    gen.permutation(n_nodes), [n_nodes // 2] * 3 + [0]]
        for rows in row_sets:
            got = node_phases(n_nodes, 31, rows)
            assert got.shape == (len(rows), n_nodes)
            assert got.tobytes() == full[rows].tobytes()
            assert got[:, cols].tobytes() == full[np.ix_(rows, cols)].tobytes()

    def test_rows_out_of_range_rejected(self):
        for rows in ([-1], [10], [0, 10]):
            with pytest.raises(ValueError):
                node_phases(10, 3, rows)


def _cut_sets(n, alpha, beta, seed):
    """Instance, params and the (tx, rx) sets the Monte-Carlo cutset uses."""
    snr = float(n) ** beta
    params, area = params_for_snr(snr, alpha, n)
    inst = generate_network(n, area, seed)
    part = partition_nodes(inst, select_cut_width(snr, n, alpha))
    return inst, params, np.sort(part.left_S), part.right_D


class TestBlockedChannel:
    # n = 1500 spans several ROW_BLOCK blocks of receive rows
    @pytest.mark.parametrize("n,alpha,beta", [(15, 2.0, 1.0), (256, 2.5, 0.0),
                                              (256, 3.0, 0.5), (1500, 4.0, 0.5)])
    def test_entries_match_unblocked_oracle(self, n, alpha, beta):
        inst, params, tx, rx = _cut_sets(n, alpha, beta, seed=n)
        assert rx.size > 0 and tx.size > 0
        for stx, srx in ((tx, rx), (rx, tx)):
            h = channel_matrix(inst, params, stx, srx, phase_seed=5)
            want = full_channel_matrix(inst, params, stx, srx, phase_seed=5)
            assert h.entries.dtype == want.dtype
            assert h.entries.tobytes() == want.tobytes()

    def test_peak_memory_bounded(self):
        inst, params, tx, rx = _cut_sets(1024, 4.0, 0.5, seed=3)
        tracemalloc.start()
        try:
            h = channel_matrix(inst, params, tx, rx, phase_seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * h.entries.nbytes


class TestSerialization:
    def test_round_trip(self):
        inst = generate_network(12, 5.0, seed=42)
        back = instance_from_json(inst.to_json())
        assert np.array_equal(back.positions, inst.positions)
        assert np.array_equal(back.source_ids, inst.source_ids)
        assert np.array_equal(back.dest_ids, inst.dest_ids)
        assert back.n_pairs == 12 and back.area_A == 5.0 and back.seed == 42

    def test_schema_fields(self):
        doc = json.loads(generate_network(3, 3.0, seed=1).to_json())
        assert set(doc) == {"n", "area_A", "seed", "positions", "roles", "pairing"}
        assert sum(doc["roles"]) == 3
        assert len(doc["pairing"]) == 3

