import json
import math
import threading
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from netregime import (DegenerateInstanceError, beta_of, channel_matrix,
                       generate_network, snr_long)
from netregime import network
from netregime.cutset import (CutPartition, dof_term_realized, partition_nodes,
                              select_cut_width, snr_total)
from netregime.harness import instance_json, operating_point
from netregime.network import NetworkInstance, node_phases, pair_sums

from helpers import (full_channel_matrix, full_node_phases, hand_instance,
                     instance_from_json, physical_memory_is, pin_cpus, snr_short,
                     unblocked_dhat, uniform_generate_network)


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
        assert instance_json(a) == instance_json(b)

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

    @pytest.mark.parametrize("area", [math.nan, math.inf])
    def test_non_finite_area_rejected(self, area):
        # checked before the draw: a NaN area would draw NaN positions and an
        # infinite one infinite positions
        with pytest.raises(ValueError, match="area_A must be positive and finite"):
            network.draw_positions(4, area, 0)

    def test_peak_within_counted_bytes(self):
        # the pre-flight counts 102 bytes a pair and 4 KiB; at n = 10^5 the
        # draw peaks at 102 bytes a pair and 1.4 KiB
        n = 10 ** 5
        generate_network(1, 1.0, seed=0)                  # first-use allocations
        tracemalloc.start()
        try:
            generate_network(n, float(n), seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 102 * n + 4096

    def test_beyond_memory_refused_before_any_draw(self, monkeypatch):
        n = 1000
        physical_memory_is(monkeypatch, 102 * n + 4096)
        generate_network(n, float(n), seed=0)

        def refuse(*args):
            raise AssertionError("a stream opened before the memory pre-flight")
        monkeypatch.setattr(network.rng, "substream", refuse)
        physical_memory_is(monkeypatch, 102 * n + 4095)
        with pytest.raises(ValueError, match="1000 pairs.*physical memory"):
            generate_network(n, float(n), seed=0)

    def test_positions_immutable(self):
        inst = generate_network(4, 4.0, seed=0)
        with pytest.raises(ValueError):
            inst.positions[0, 0] = 5.0


class TestDrawOracle:
    """The scaled draw and the mask role split against the uniform-draw oracle."""

    @pytest.mark.parametrize("n", [1, 3, 1000, 16384])
    @pytest.mark.parametrize("area", [None, 1.0, 3.7, 1e6 + 0.3])
    def test_same_bytes_as_uniform_oracle(self, n, area):
        area = float(n) if area is None else area
        for seed in range(20):
            inst = generate_network(n, area, seed)
            positions = network.draw_positions(n, area, seed)
            want = uniform_generate_network(n, area, seed)
            for got, ref in ((inst.positions, want[0]), (positions, want[0]),
                             (inst.source_ids, want[1]), (inst.dest_ids, want[2])):
                assert got.dtype == ref.dtype and got.shape == ref.shape
                assert got.tobytes() == ref.tobytes()


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

    # an infinite area would make every rescaled distance 0, which
    # path_gain would report as coincident nodes, and a NaN area would pass
    # the rectangle check
    @pytest.mark.parametrize("area", [0.0, -1.0, math.inf, math.nan])
    def test_bad_area_rejected(self, area):
        with pytest.raises(ValueError, match="area_A must be positive and finite"):
            NetworkInstance(4, area, 0, self.POSITIONS, np.arange(4), np.arange(4, 8))


class TestSnrQuantities:
    def test_snr_short_unit_distance(self):
        # A/n = 1 makes the spacing term drop out for any alpha
        for alpha in (2.0, 3.0, 4.5):
            assert snr_short(16, 16.0, alpha) == pytest.approx(1.0)

    def test_snr_short_hand_values(self):
        assert snr_short(4, 16.0, 2.0) == pytest.approx(0.25)
        assert snr_short(9, 9.0, 4.0, G=2.0) == pytest.approx(2.0)

    def test_snr_long_zero_db_boundary(self):
        # beta = alpha/2 - 1 puts the long-range SNR at 0 dB
        n = 81
        assert snr_long(float(n), n, 4.0) == pytest.approx(1.0)

    def test_snr_edge(self):
        # snr_long reaches 1 at the edge; past a float's range the edge is inf
        assert network.snr_edge(100, 4.0) == 100.0
        assert snr_long(network.snr_edge(100, 4.0), 100, 4.0) == 1.0
        assert network.snr_edge(64, 1000.0) == math.inf

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


class TestChannel:
    def test_unit_rescaled_distance(self):
        # two nodes exactly one nearest-neighbor spacing apart
        inst = hand_instance([[0.0, 0.5], [1.0, 0.5]], area_A=1.0)
        h = channel_matrix(inst, 4.0, [0], [1], phase_seed=1)
        assert abs(h.entries[0, 0]) == pytest.approx(1.0, rel=1e-12)

    def test_rescaled_distance_four(self):
        # unit density with 4 pairs leaves room for a rescaled distance of 4
        positions = [[0.0, 0.1], [4.0, 0.1],
                     [1.0, 1.0], [1.5, 1.5], [2.0, 0.5],
                     [2.5, 1.2], [3.0, 1.8], [3.5, 0.8]]
        inst = hand_instance(positions, area_A=4.0)
        h = channel_matrix(inst, 4.0, [0], [1], phase_seed=1)
        assert abs(h.entries[0, 0]) == pytest.approx(4.0 ** -2, rel=1e-12)

    def test_magnitude_law_raw(self):
        inst = generate_network(20, 11.0, seed=8)
        tx, rx = np.arange(10), np.arange(10, 40)
        raw = full_channel_matrix(inst, 3.0, tx, rx, phase_seed=4, raw_gain=2.5)
        diff = (inst.positions[rx][:, None, :] - inst.positions[tx][None, :, :])
        r = np.sqrt((diff ** 2).sum(axis=2))
        lhs = np.abs(raw) * r ** (3.0 / 2.0)
        assert np.allclose(lhs, math.sqrt(2.5), rtol=1e-12)
        # the library's rescaled channel carries the same phases
        h = channel_matrix(inst, 3.0, tx, rx, phase_seed=4)
        assert np.allclose(h.entries / np.abs(h.entries), raw / np.abs(raw), rtol=1e-12)

    def test_rescaling_consistency(self):
        inst = generate_network(18, 7.0, seed=12)
        tx, rx = np.arange(9), np.arange(9, 36)
        raw = full_channel_matrix(inst, 2.5, tx, rx, phase_seed=21, raw_gain=3.0)
        resc = channel_matrix(inst, 2.5, tx, rx, phase_seed=21)
        factor = (inst.area_A / inst.n_pairs) ** (2.5 / 4.0) / math.sqrt(3.0)
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
        h1 = channel_matrix(inst, 4.0, [0, 1], [8, 9], phase_seed=1)
        h2 = channel_matrix(inst, 4.0, [0, 1], [8, 9], phase_seed=2)
        assert not np.allclose(h1.entries, h2.entries)
        assert np.allclose(np.abs(h1.entries), np.abs(h2.entries), rtol=1e-12)

    def test_coincident_nodes_rejected(self):
        inst = hand_instance([[0.3, 0.3], [0.3, 0.3]], area_A=1.0)
        with pytest.raises(DegenerateInstanceError):
            channel_matrix(inst, 4.0, [0], [1], phase_seed=0)

    def test_overlapping_sets_rejected(self):
        inst = generate_network(4, 4.0, seed=0)
        with pytest.raises(ValueError):
            channel_matrix(inst, 4.0, [0, 1], [1, 2], phase_seed=0)
        with pytest.raises(ValueError):
            channel_matrix(inst, 4.0, [], [1], phase_seed=0)


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
    """Instance and the (tx, rx) sets the Monte-Carlo cutset uses."""
    snr, area = operating_point(n, alpha, beta)
    inst = generate_network(n, area, seed)
    part = partition_nodes(inst, select_cut_width(snr, n, alpha))
    return inst, np.sort(part.left_S), part.right_D


class TestBlockedChannel:
    # n = 1500 spans several ROW_BLOCK blocks of receive rows
    @pytest.mark.parametrize("n,alpha,beta", [(15, 2.0, 1.0), (256, 2.5, 0.0),
                                              (256, 3.0, 0.5), (1500, 4.0, 0.5)])
    def test_entries_match_unblocked_oracle(self, n, alpha, beta):
        inst, tx, rx = _cut_sets(n, alpha, beta, seed=n)
        assert rx.size > 0 and tx.size > 0
        for stx, srx in ((tx, rx), (rx, tx)):
            h = channel_matrix(inst, alpha, stx, srx, phase_seed=5)
            want = full_channel_matrix(inst, alpha, stx, srx, phase_seed=5)
            assert h.entries.dtype == want.dtype
            assert h.entries.tobytes() == want.tobytes()

    def test_peak_memory_bounded(self, monkeypatch):
        # the bound covers the result plus every thread's buffers
        inst, tx, rx = _cut_sets(1024, 4.0, 0.5, seed=3)
        for workers in (1, 2):
            pin_cpus(monkeypatch, workers)
            tracemalloc.start()
            try:
                h = channel_matrix(inst, 4.0, tx, rx, phase_seed=7)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2.5 * h.entries.nbytes, workers

    # Random receive ids draw each row alone; ids 0-1023 draw one run; every
    # other id of 2n = 512 <= _MAX_GAP nodes draws runs that span a 1-row gap.
    @pytest.mark.parametrize("case", ["random", "consecutive", "every other"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_peak_within_channel_bytes(self, case, workers, monkeypatch):
        perm = np.random.default_rng(1).permutation(4096)
        n, rx, tx = {"random": (2048, perm[:1024], perm[1024:1536]),
                     "consecutive": (2048, np.arange(1024), 1024 + perm[perm < 3072][:512]),
                     "every other": (256, np.arange(0, 512, 2), np.arange(1, 512, 2))}[case]
        inst = generate_network(n, float(n), seed=5)
        pin_cpus(monkeypatch, workers)
        channel_matrix(inst, 4.0, tx, rx, phase_seed=1)   # first-use allocations
        tracemalloc.start()
        try:
            channel_matrix(inst, 4.0, tx, rx, phase_seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= network.channel_bytes(rx.size, tx.size, inst.n_nodes)


def _split_sets(n, m, seed):
    """Instance at alpha = 4, beta = 0.5, its snr_s, and a random split of its
    2n nodes into m and 2n - m."""
    snr_s, area = operating_point(n, 4.0, 0.5)
    inst = generate_network(n, area, seed)
    perm = np.random.default_rng(seed).permutation(inst.n_nodes)
    return inst, snr_s, perm[:m], perm[m:]


class TestRowBlockWorkers:
    # C13 for the threaded row blocks: 100 rows fit one block, 512 fill two
    # exactly, and 1500 leave a short last block; each set is used on both
    # sides, so the other side gives 1948, 1536 and 548 rows
    @pytest.mark.parametrize("m", [100, 512, 1500])
    def test_channel_bytes_independent_of_workers(self, m, monkeypatch):
        inst, _, a, b = _split_sets(1024, m, seed=m)
        for tx, rx in ((a, b), (b, a)):
            want = full_channel_matrix(inst, 4.0, tx, rx, phase_seed=2)
            for workers in (1, 2, 3):
                pin_cpus(monkeypatch, workers)
                h = channel_matrix(inst, 4.0, tx, rx, phase_seed=2)
                assert h.entries.tobytes() == want.tobytes(), workers

    @pytest.mark.parametrize("m", [100, 512, 1500])
    def test_power_sums_independent_of_workers(self, m, monkeypatch):
        inst, snr_s, a, b = _split_sets(1024, m, seed=m)
        for sources, targets in ((a, b), (b, a)):
            want = unblocked_dhat(inst, 4.0, targets, sources)
            part = CutPartition(sources, targets, targets)
            for workers in (1, 2, 3):
                pin_cpus(monkeypatch, workers)
                d = pair_sums(inst, targets, sources, -4.0)
                assert d.tobytes() == want.tobytes(), workers
                assert (snr_total(inst, part, snr_s, 4.0)
                        == snr_s * math.fsum(want.tolist()))
                assert dof_term_realized(inst, part, snr_s, 4.0) == math.fsum(
                    math.log2(1.0 + inst.n_pairs * snr_s * float(w)) for w in want)

    # 4 blocks on 3 CPUs use 3 threads; 2 blocks use 2 whatever the CPU
    # count; one block runs on the calling thread
    @pytest.mark.parametrize("n_rows,cpus,threads", [(1000, 3, 3), (300, 3, 2),
                                                     (300, 1, 1), (256, 3, 1)])
    def test_blocks_split_across_threads(self, n_rows, cpus, threads, monkeypatch):
        pin_cpus(monkeypatch, cpus)
        # each thread waits with its first block until every thread has one
        barrier = threading.Barrier(threads, timeout=30)
        lock = threading.Lock()
        seen, buffers, blocks = set(), set(), []

        def kernel(rows, a, b):
            assert a.shape == b.shape == (rows.stop - rows.start, 7)
            assert a.base.shape == b.base.shape == (min(n_rows, network.ROW_BLOCK), 7)
            ident = threading.get_ident()
            with lock:
                first = ident not in seen
                seen.add(ident)
                buffers.update((id(a.base), id(b.base)))
                blocks.append((rows.start, rows.stop))
            if first:
                barrier.wait()

        network.run_row_blocks(n_rows, 7, kernel)
        assert sorted(blocks) == [(start, min(start + network.ROW_BLOCK, n_rows))
                                  for start in range(0, n_rows, network.ROW_BLOCK)]
        assert len(seen) == threads and len(buffers) == 2 * threads
        if threads == 1:
            assert seen == {threading.get_ident()}

    def test_error_in_last_block_raised_after_workers_stop(self, monkeypatch):
        # the last rx node sits on a tx node: block 3 of 3 is degenerate
        pin_cpus(monkeypatch, 2)
        inst, snr_s, rx, tx = _split_sets(1024, 600, seed=5)
        positions = inst.positions.copy()
        positions[rx[-1]] = positions[tx[0]]
        inst = NetworkInstance(inst.n_pairs, inst.area_A, inst.seed, positions,
                               inst.source_ids, inst.dest_ids)
        part = CutPartition(tx, rx[:0], rx)
        before = threading.active_count()
        with pytest.raises(DegenerateInstanceError):
            channel_matrix(inst, 4.0, tx, rx, phase_seed=1)
        assert threading.active_count() == before
        with pytest.raises(DegenerateInstanceError):
            snr_total(inst, part, snr_s, 4.0)
        assert threading.active_count() == before
        with pytest.raises(DegenerateInstanceError):
            pair_sums(inst, rx, tx, -4.0)
        assert threading.active_count() == before


class TestSerialization:
    def test_round_trip(self):
        inst = generate_network(12, 5.0, seed=42)
        back = instance_from_json(instance_json(inst))
        assert np.array_equal(back.positions, inst.positions)
        assert np.array_equal(back.source_ids, inst.source_ids)
        assert np.array_equal(back.dest_ids, inst.dest_ids)
        assert back.n_pairs == 12 and back.area_A == 5.0 and back.seed == 42

    def test_schema_fields(self):
        doc = json.loads(instance_json(generate_network(3, 3.0, seed=1)))
        assert set(doc) == {"n", "area_A", "seed", "positions", "roles", "pairing"}
        assert sum(doc["roles"]) == 3
        assert len(doc["pairing"]) == 3

