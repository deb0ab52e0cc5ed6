import math
from collections import Counter

import numpy as np
import pytest
import scipy.linalg

from netregime import (PathologicalCutError, certified_cut,
                       dof_term_realized, closed_form_snr_total_bound,
                       generate_network, mc_cutset_logdet, partition_nodes,
                       select_cut_width, snr_total,
                       classify, evaluate_cutset)
from netregime import cutset, network, rng
from netregime.cutset import identity_logdet
from netregime.network import ROW_BLOCK, ChannelMatrix, channel_matrix
from netregime.harness import operating_point

from helpers import (hand_instance, brute_b_set, brute_dhat, brute_snr_total,
                     eigvalsh_logdet, physical_memory_is, power_profile,
                     traced_peak, unblocked_dhat)
from test_golden import (CUTSET_CLI, CUTSET_CLI_CSV, CUTSET_SWEEP, CUTSET_SWEEP_CSV,
                         assert_close_csv, cli_csv, sweep_csv)

LN2 = math.log(2.0)


def unit_density_instance(n_pairs, seed):
    """area = n gives rescaled coordinates equal to raw ones."""
    return generate_network(n_pairs, float(n_pairs), seed)


class TestCutWidth:
    def test_high_snr_full_strip(self):
        n = 64
        for alpha in (2.0, 3.0, 4.0):
            assert select_cut_width(n ** (alpha / 2 - 1), n, alpha) == pytest.approx(8.0)

    def test_low_snr_unit_strip(self):
        assert select_cut_width(0.5, 100, 4.0) == 1.0

    def test_edge_past_float_range(self):
        # 64^499 overflows a float: snr_s = 8 lies below the edge
        assert select_cut_width(8.0, 64, 1000.0) == 8.0 ** (1.0 / 998.0)

    def test_intermediate_strip(self):
        assert select_cut_width(16.0, 256, 4.0) == pytest.approx(4.0)
        # alpha = 2 keeps the full strip through the intermediate range
        assert select_cut_width(1.0, 256, 2.0) == pytest.approx(16.0)

    def test_width_stays_in_range(self):
        for beta in (-1.0, 0.0, 0.3, 0.9, 2.0):
            for alpha in (2.0, 2.5, 3.0, 4.0):
                w = select_cut_width(64.0 ** beta, 64, alpha)
                assert 1.0 <= w <= 8.0 + 1e-12


class TestPartition:
    def test_hand_placed_membership(self):
        # area = n = 2, so rescaled x equals raw x; midline at sqrt(2)
        mid = math.sqrt(2.0)
        positions = [
            [mid - 1.0, 0.4],   # left
            [mid + 0.5, 0.9],   # strip-E (excluded)
            [mid + 1.2, 0.2],   # V_D for w_hat >= 1.2
            [mid + 1.4, 1.0],   # far for w_hat = 1.3
        ]
        inst = hand_instance(positions, area_A=2.0)
        part = partition_nodes(inst, w_hat=1.3)
        assert list(part.left_S) == [0]
        assert list(part.excluded_E) == [1]
        assert list(part.strip_VD) == [2]
        assert list(part.far_D) == [3]

    def test_full_strip_empties_far(self):
        inst = unit_density_instance(64, seed=4)
        part = partition_nodes(inst, w_hat=8.0)
        assert part.far_D.size == 0
        assert part.strip_VD.size > 0

    def test_unit_strip_empties_vd(self):
        inst = unit_density_instance(64, seed=4)
        part = partition_nodes(inst, w_hat=1.0)
        assert part.strip_VD.size == 0
        assert part.far_D.size > 0

    def test_pathological_draw_reported(self):
        mid = math.sqrt(2.0)
        inst = hand_instance([[mid + 0.2, 0.1], [mid + 0.4, 0.2]], area_A=2.0)
        with pytest.raises(PathologicalCutError):
            partition_nodes(inst, w_hat=1.0)

    def test_percolation_cut_membership(self):
        # at n = 4096 the slab reaches xhat ~ 1.125, past the unit strip, so
        # some B nodes sit where the idealized cut would put them in V_D
        n, w_hat = 4096, 2.0
        for seed in range(3):
            inst = unit_density_instance(n, seed)
            cut = certified_cut(inst, 0.25)
            part = partition_nodes(inst, w_hat, cut)
            ids = np.concatenate([part.left_S, part.strip_VD, part.far_D])
            assert np.array_equal(np.sort(ids), np.arange(2 * n))
            xhat = inst.positions[:, 0] - inst.side
            right_of_slab = inst.positions[:, 0] >= cut.grid.slab_x1
            want_vd = np.nonzero(right_of_slab & (xhat >= 1.0) & (xhat <= w_hat))[0]
            assert part.strip_VD.tolist() == want_vd.tolist()
            b_set = brute_b_set(cut.grid, cut.cells, inst.positions)
            assert np.isin(b_set, part.far_D).all()
            assert np.any(xhat[b_set] >= 1.0)
            assert part.excluded_E.size == 0

    def test_w_out_of_range_rejected(self):
        inst = unit_density_instance(16, seed=0)
        with pytest.raises(ValueError):
            partition_nodes(inst, w_hat=0.5)


class TestPowerProfile:
    def test_single_source_term(self):
        # one source, one target at rescaled distance 1.5 (area = n keeps
        # the rescale factor at 1)
        inst = hand_instance([[0.25, 0.5], [1.75, 0.5]], area_A=1.0)
        entry = power_profile(inst, 4.0, [1], source_ids=[0])[0]
        assert entry.d_hat == pytest.approx(1.5 ** -4, rel=1e-12)

    def test_approximation_at_unit_distance(self):
        inst = hand_instance([[0.5, 0.5], [2.0, 0.5]], area_A=1.0)
        for alpha in (2.0, 3.0, 4.0):
            entry = power_profile(inst, alpha, [1])[0]
            assert entry.d_hat_approx == pytest.approx(1.0)

    def test_approximation_hand_value(self):
        # 16 pairs at unit density leave room for a node four rescaled
        # units right of the midline (x = 4 + 4 = 8 = the far wall)
        gen = np.random.default_rng(6)
        fillers = gen.uniform((0.05, 0.05), (3.9, 3.9), size=(31, 2))
        positions = np.vstack([fillers, [[8.0, 2.0]]])
        inst = hand_instance(positions, area_A=16.0)
        entry = power_profile(inst, 4.0, [31])[0]
        assert entry.d_hat_approx == pytest.approx(1.0 / 16.0, rel=1e-12)

    def test_matches_brute_force(self):
        inst = unit_density_instance(32, seed=9)        # 2n = 64
        part = partition_nodes(inst, w_hat=2.0)
        targets = np.concatenate([part.strip_VD, part.far_D])
        prof = power_profile(inst, 3.0, targets, source_ids=part.left_S)
        brute = brute_dhat(inst, 3.0, [p.node for p in prof], list(part.left_S))
        for entry, expected in zip(prof, brute):
            assert entry.d_hat == pytest.approx(expected, rel=1e-9)

    def test_approximation_band_diagnostic(self):
        # ratio d_hat / xhat^(2-alpha) stays within a broad band at scale
        inst = unit_density_instance(512, seed=77)      # 2n = 1024
        part = partition_nodes(inst, select_cut_width(1.0, 512, 3.0))
        targets = np.sort(np.concatenate([part.strip_VD, part.far_D]))
        prof = power_profile(inst, 3.0, targets)
        ratios = [p.d_hat / p.d_hat_approx for p in prof]
        med = float(np.median(ratios))
        assert 1.0 / 8.0 <= med <= 8.0 * math.log(512)


class TestSnrTotal:
    def test_empty_far_set(self):
        inst = unit_density_instance(64, seed=4)
        part = partition_nodes(inst, w_hat=8.0)
        assert snr_total(inst, part, 5.0, 4.0) == 0.0

    def test_single_pair_value(self):
        # n = 4, area = 4: rescaled = raw, midline at 2.  One left node,
        # one far node at rescaled distance 2; the six fillers sit in the
        # assumed-empty strip so they join no set.
        positions = [[1.5, 1.0], [3.5, 1.0],
                     [2.1, 0.3], [2.3, 0.6], [2.5, 0.9],
                     [2.7, 1.2], [2.9, 1.5], [2.2, 1.8]]
        inst = hand_instance(positions, area_A=4.0)
        part = partition_nodes(inst, w_hat=1.2)
        assert list(part.left_S) == [0]
        assert list(part.far_D) == [1]
        assert snr_total(inst, part, 1.0, 4.0) == pytest.approx(2.0 ** -4, rel=1e-12)

    def test_matches_double_loop_oracle(self):
        for seed in (1, 2, 3):
            inst = unit_density_instance(32, seed=seed)
            part = partition_nodes(inst, w_hat=1.5)
            got = snr_total(inst, part, 3.7, 2.5)
            want = brute_snr_total(inst, 2.5, 3.7, list(part.far_D),
                                   list(part.left_S))
            assert got == pytest.approx(want, rel=1e-9)

    # at n = 1500 the far set (alpha = 4) or the strip (alpha = 2.5) spans several
    # 256-row blocks
    @pytest.mark.parametrize("alpha", [2.5, 4.0])
    def test_blocked_sums_match_unblocked_oracle(self, alpha):
        n, snr = 1500, 6.0
        inst = unit_density_instance(n, seed=9)
        part = partition_nodes(inst, select_cut_width(snr, n, alpha))
        for targets in (part.far_D, part.strip_VD):
            prof = power_profile(inst, alpha, targets, part.left_S)
            want = unblocked_dhat(inst, alpha, targets, part.left_S)
            assert np.array([p.d_hat for p in prof]).tobytes() == want.tobytes()
        want = unblocked_dhat(inst, alpha, part.far_D, part.left_S)
        assert snr_total(inst, part, snr, alpha) == snr * math.fsum(want.tolist())


class TestClosedForm:
    def test_alpha_four_matches_unit_strip_row(self):
        n, snr = 256, 2.0
        got = closed_form_snr_total_bound(snr, n, 4.0, w_hat=1.0, K1=1.0)
        assert got == pytest.approx(snr * 16.0 * math.log(n) ** 2, rel=1e-12)

    def test_row_two_hand_value(self):
        got = closed_form_snr_total_bound(1.0, 16, 2.5, w_hat=1.0, K1=1.0)
        assert got == pytest.approx(16 ** 0.75 * math.log(16) ** 2, rel=1e-12)
        assert got == pytest.approx(61.497985, rel=1e-6)

    def test_alpha_two_cubic_log(self):
        got = closed_form_snr_total_bound(3.0, 64, 2.0, w_hat=2.0, K1=2.0)
        assert got == pytest.approx(2.0 * 3.0 * 64 * math.log(64) ** 3, rel=1e-12)

    def test_alpha_three_cubic_log(self):
        got = closed_form_snr_total_bound(1.0, 64, 3.0, w_hat=2.0, K1=2.0)
        assert got == pytest.approx(2.0 * 8.0 * math.log(64) ** 3, rel=1e-12)

    def test_full_strip_rejected(self):
        with pytest.raises(ValueError):
            closed_form_snr_total_bound(1.0, 64, 4.0, w_hat=8.0)

    @pytest.mark.parametrize("K1,alpha,message", [(0.0, 4.0, "K1 must be positive"),
                                                  (-1.0, 4.0, "K1 must be positive"),
                                                  (1.0, 1.5, "alpha must be >= 2")])
    def test_bad_k1_or_alpha_rejected(self, K1, alpha, message):
        with pytest.raises(ValueError, match=message):
            closed_form_snr_total_bound(1.0, 64, alpha, w_hat=2.0, K1=K1)


class TestDofTerm:
    def test_zero_when_strip_empty(self):
        inst = unit_density_instance(64, seed=4)
        part = partition_nodes(inst, w_hat=1.0)
        assert dof_term_realized(inst, part, 2.0, 4.0) == 0.0


class TestMonteCarlo:
    def test_scalar_case_exact_and_deterministic(self):
        # a single cross-cut pair: the phase cancels in |H|^2, so every
        # trial returns exactly log2(1 + snr * rhat^-alpha)
        rhat = 1.7
        positions = [[3.0 - rhat, 1.0], [3.0, 1.0],
                     [2.1, 0.3], [2.3, 0.6], [2.5, 0.9],
                     [2.7, 1.2], [2.9, 1.5], [2.2, 1.8]]
        inst = hand_instance(positions, area_A=4.0)
        part = partition_nodes(inst, w_hat=1.0)
        assert list(part.left_S) == [0] and list(part.right_D) == [1]
        mc = mc_cutset_logdet(inst, part, 1.0, 4.0, trials=6, phase_seed=9)
        expected = math.log2(1 + rhat ** -4.0)
        assert mc.mean == pytest.approx(expected, rel=1e-12)
        assert mc.stderr == pytest.approx(0.0, abs=1e-13)
        assert mc.trials_used == 6 and mc.discarded == 0

    def test_two_by_two_against_direct_determinant(self):
        # 2 tx left, 2 rx in the strip; compare against a plain determinant
        positions = [[0.5, 0.7], [1.2, 1.8], [3.5, 0.5], [3.8, 1.5]]
        inst = hand_instance(positions, area_A=4.0)
        part = partition_nodes(inst, w_hat=math.sqrt(2))
        assert part.right_D.size == 2 and part.left_S.size == 2
        h = channel_matrix(inst, 3.0, np.sort(part.left_S), part.right_D,
                           phase_seed=3)
        snr = (inst.area_A / inst.n_pairs) ** (-3.0 / 2.0)
        direct = np.log2(np.abs(np.linalg.det(
            np.eye(2) + snr * h.entries @ h.entries.conj().T)))
        assert identity_logdet(h.entries, snr) == pytest.approx(float(direct), rel=1e-10)

    def test_gram_sides_agree(self):
        gen = np.random.default_rng(1)
        h = gen.normal(size=(5, 3)) + 1j * gen.normal(size=(5, 3))
        a = identity_logdet(h, 2.5)
        b = identity_logdet(h.conj().T, 2.5)
        assert a == pytest.approx(b, rel=1e-12)

    def test_bounded_by_dof_plus_power(self):
        for seed, alpha, beta in [(1, 2.0, 1.0), (2, 4.0, 0.5), (3, 3.0, -0.5)]:
            n = 24
            snr, area = operating_point(n, alpha, beta)
            inst = generate_network(n, area, seed)
            part = partition_nodes(inst, select_cut_width(snr, n, alpha))
            mc = mc_cutset_logdet(inst, part, snr, alpha, trials=4, phase_seed=seed)
            envelope = (dof_term_realized(inst, part, snr, alpha)
                        + snr_total(inst, part, snr, alpha) / LN2)
            for value in mc.values:
                assert value <= envelope + 1e-9

    def test_no_trials_rejected(self):
        inst = unit_density_instance(16, seed=1)
        part = partition_nodes(inst, w_hat=2.0)
        with pytest.raises(ValueError, match="trials must be >= 1"):
            mc_cutset_logdet(inst, part, 2.0, 3.0, trials=0, phase_seed=0)

    def test_trial_prefix_stable(self):
        inst = unit_density_instance(12, seed=6)
        part = partition_nodes(inst, w_hat=2.0)
        short = mc_cutset_logdet(inst, part, 1.0, 3.0, trials=3, phase_seed=11)
        long = mc_cutset_logdet(inst, part, 1.0, 3.0, trials=7, phase_seed=11)
        assert short.values == long.values[:3]

    def test_far_block_trace_bound(self):
        # log2 det(I + snr H2 H2*) <= snr_total / ln 2 on every draw
        for seed in range(4):
            n, alpha = 32, 3.0
            snr, area = operating_point(n, alpha, 0.2)   # snr_s = 2
            inst = generate_network(n, area, seed)
            part = partition_nodes(inst, w_hat=1.5)
            h2 = channel_matrix(inst, alpha, np.sort(part.left_S),
                                np.sort(part.far_D), phase_seed=seed)
            got = identity_logdet(h2.entries, snr)
            assert got <= snr_total(inst, part, snr, alpha) / LN2 + 1e-12


class TestCholeskyLogdet:
    @pytest.mark.parametrize("alpha,beta", [(2.0, 1.0), (3.0, 0.5), (4.0, 0.0), (4.0, 0.5)])
    def test_matches_eigvalsh(self, alpha, beta):
        n = 200
        snr, area = operating_point(n, alpha, beta)
        inst = generate_network(n, area, seed=4)
        part = partition_nodes(inst, select_cut_width(snr, n, alpha))
        tx, rx = np.sort(part.left_S), part.right_D
        for stx, srx in ((tx, rx[: rx.size // 3]),      # wide: fewer rx than tx
                         (tx[: tx.size // 3], rx)):     # tall
            h = channel_matrix(inst, alpha, stx, srx, phase_seed=8).entries
            want = eigvalsh_logdet(h, snr)
            assert identity_logdet(h, snr) == pytest.approx(want, rel=1e-13)
            assert identity_logdet(h.T.copy(), snr) == pytest.approx(want, rel=1e-13)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the transmit-side Gram I + snr_s H*H of a wide H is "
                       "singular to working precision at high SNR")
    def test_high_snr_wide_channel_matches_eigvalsh(self):
        # 51 receivers and 69 transmitters at snr_s = 64^12: the 69 x 69
        # Gram has rank 51 and condition number near snr_s * lambda_max, so
        # its Cholesky factor fails and the trial would be discarded
        n, alpha = 64, 2.0
        snr, area = operating_point(n, alpha, 12.0)
        inst = generate_network(n, area, seed=3)
        part = partition_nodes(inst, select_cut_width(snr, n, alpha))
        tx, rx = np.sort(part.left_S), part.right_D
        assert (rx.size, tx.size) == (51, 69)
        h = channel_matrix(inst, alpha, tx, rx, phase_seed=3).entries
        assert identity_logdet(h, snr) == pytest.approx(eigvalsh_logdet(h, snr),
                                                        rel=1e-13)

    def test_non_finite_entries_give_nan(self):
        h = np.ones((3, 4), dtype=complex)
        h[1, 2] = np.nan
        assert math.isnan(identity_logdet(h, 1.0))
        assert math.isnan(identity_logdet(h.T.copy(), 1.0))


class TestPackedGramKernel:
    @pytest.mark.parametrize("k", range(1, 41))
    def test_rfp_diagonal_matches_ztrttf(self, k):
        marked = np.diag(np.arange(1.0, k + 1)) + np.tril(np.full((k, k), -1.0), -1)
        packed, info = scipy.linalg.lapack.ztrttf(marked.astype(complex), transr="N",
                                                   uplo="L")
        assert info == 0
        assert packed[cutset._rfp_diagonal(k)].real.tolist() == list(range(1, k + 1))

    # row bounds as fractions of the rows: one chunk, two, three; the last is short
    @pytest.mark.parametrize("fractions", [(), (0.6,), (0.45, 0.9)])
    @pytest.mark.parametrize("rows,k", [(150, 61), (150, 62), (40, 61), (41, 62)])
    def test_chunks_match_eigvalsh(self, rows, k, fractions):
        n, alpha = 200, 3.0
        snr, area = operating_point(n, alpha, 0.5)
        inst = generate_network(n, area, seed=4)
        part = partition_nodes(inst, select_cut_width(snr, n, alpha))
        h = channel_matrix(inst, alpha, np.sort(part.left_S)[:k], part.right_D[:rows],
                           phase_seed=8).entries
        bounds = [0] + [int(f * rows) for f in fractions] + [rows]
        chunks = [h[a:b] for a, b in zip(bounds, bounds[1:])]
        want = eigvalsh_logdet(h, snr)
        assert cutset._gram_logdet(iter(chunks), k, snr) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_gives_nan_in_any_chunk(self, bad):
        # zpftrf can report success on a NaN entry; the diagonal check catches
        # it before log2, which would warn (an error under this suite's filters)
        for row in range(5):
            h = np.ones((5, 4), dtype=complex)
            h[row, 1] = bad
            assert math.isnan(cutset._gram_logdet([h[:2], h[2:]], 4, 1.0))

    def test_chunk_bounds(self):
        # CHUNK_ROWS rows a chunk, four row blocks, and the rest in the last,
        # whatever the transmit set's size or the machine
        assert cutset.CHUNK_ROWS == 256 == 4 * ROW_BLOCK
        assert cutset._chunk_bounds(10) == [0, 10]
        assert cutset._chunk_bounds(256) == [0, 256]
        assert cutset._chunk_bounds(257) == [0, 256, 257]
        assert cutset._chunk_bounds(989) == [0, 256, 512, 768, 989]
        assert cutset._chunk_bounds(2047) == [0, 256, 512, 768, 1024, 1280, 1536,
                                              1792, 2047]

    def test_trial_beyond_memory_refused_before_any_phase(self, memory_at_most_8gib,
                                                         monkeypatch):
        # about 2^16 transmitters: a packed Gram of 8 k(k+1), about 34 GB
        inst = unit_density_instance(2 ** 16, seed=0)
        part = partition_nodes(inst, w_hat=1.0)
        calls = []
        monkeypatch.setattr(cutset, "channel_matrix", lambda *a, **kw: calls.append(a))
        with pytest.raises(ValueError, match="physical memory"):
            mc_cutset_logdet(inst, part, 1.0, 4.0, trials=1, phase_seed=0)
        assert calls == []

    def test_memory_count_read_from_sysconf(self, monkeypatch):
        n, alpha = 200, 4.0
        snr, area = operating_point(n, alpha, 0.5)
        inst = generate_network(n, area, seed=1)
        part = partition_nodes(inst, select_cut_width(snr, n, alpha))
        need = cutset.trial_bytes(part.right_D.size, part.left_S.size, inst.n_nodes)
        physical_memory_is(monkeypatch, need - 1)
        with pytest.raises(ValueError, match="physical memory"):
            mc_cutset_logdet(inst, part, snr, alpha, 1, phase_seed=2)
        physical_memory_is(monkeypatch, need)
        assert mc_cutset_logdet(inst, part, snr, alpha, 1, phase_seed=2).trials_used == 1

    def test_chunked_trial_keeps_every_bit(self):
        # chunks of 256, 256, 256 and 221 receive rows, four row blocks each,
        # and the mean keeps every bit
        n, alpha = 1024, 4.0
        snr, area = operating_point(n, alpha, 0.5)
        inst = generate_network(n, area, seed=2)
        part = partition_nodes(inst, select_cut_width(snr, n, alpha))
        assert cutset._chunk_bounds(part.right_D.size) == [0, 256, 512, 768, 989]
        mc = mc_cutset_logdet(inst, part, snr, alpha, 1, phase_seed=3)
        assert mc.mean.hex() == "0x1.cc17009a67cbfp+7"

    def test_mapped_zeros(self):
        block = cutset._mapped_zeros((3, 5))
        assert block.shape == (3, 5) and block.dtype == complex
        assert block.flags.c_contiguous and block.flags.writeable
        assert not block.any()

    def test_trial_peak_memory_bounded(self, monkeypatch):
        # One trial holds the packed Gram, one CHUNK_ROWS-row chunk of H and
        # the two ROW_BLOCK-row buffers that fill it; it peaked at 1.011
        # times that count, the rest being the phase row, ufunc buffers and
        # ids.  Two chunks of about |tx| / 2 rows each, built in 256-row
        # blocks, peaked at 1.55 and 1.73 times it, and all of H with a full
        # Gram at more, so they fail this bound.  tracemalloc does not see memory maps, so the Gram and
        # the chunk buffer come from numpy here.  The first trial of a
        # process also builds the phase table, which trial_bytes counts.
        monkeypatch.setattr(cutset, "_mapped_zeros",
                            lambda shape: np.zeros(shape, dtype=complex))
        n, alpha = 1024, 4.0
        snr, area = operating_point(n, alpha, 0.5)
        inst = generate_network(n, area, seed=2)
        part = partition_nodes(inst, select_cut_width(snr, n, alpha))
        k, m = part.left_S.size, part.right_D.size
        assert m > 3 * cutset.CHUNK_ROWS
        identity_logdet(np.ones((1, 1), dtype=complex), 1.0)   # loads scipy.linalg
        network.unit_phases.cache_clear()
        first, _ = traced_peak(mc_cutset_logdet, inst, part, snr, alpha, 1, phase_seed=3)
        assert first <= cutset.trial_bytes(m, k, inst.n_nodes)
        peak, _ = traced_peak(mc_cutset_logdet, inst, part, snr, alpha, 1, phase_seed=3)
        counted = 8 * k * (k + 1) + 16 * cutset.CHUNK_ROWS * k + 2 * 8 * ROW_BLOCK * k
        assert peak < 1.05 * counted
        assert first - peak > 16 * network.PHASE_LEVELS


class TestDiscardPath:
    def _setup(self):
        inst = unit_density_instance(12, seed=6)
        return inst, partition_nodes(inst, w_hat=2.0)

    def _nan_on(self, monkeypatch, bad_trials):
        # keyed on the trial's phase seed, since a trial may build H in chunks
        real = cutset.channel_matrix
        bad_seeds = {rng.derived_seed(11, t) for t in bad_trials}

        def flaky(*args, **kwargs):
            h = real(*args, **kwargs)
            if kwargs["phase_seed"] in bad_seeds:
                return ChannelMatrix(np.full(h.entries.shape, np.nan, dtype=complex))
            return h
        monkeypatch.setattr(cutset, "channel_matrix", flaky)

    def test_non_finite_trial_discarded_and_counted(self, monkeypatch):
        inst, part = self._setup()
        clean = mc_cutset_logdet(inst, part, 1.0, 3.0, trials=4, phase_seed=11)
        self._nan_on(monkeypatch, {1})
        mc = mc_cutset_logdet(inst, part, 1.0, 3.0, trials=4, phase_seed=11)
        assert mc.discarded == 1 and mc.trials_used == 3
        assert mc.values == (clean.values[0],) + clean.values[2:]

    def test_all_trials_non_finite_raise(self, monkeypatch):
        inst, part = self._setup()
        self._nan_on(monkeypatch, {0, 1, 2})
        with pytest.raises(ArithmeticError):
            mc_cutset_logdet(inst, part, 1.0, 3.0, trials=3, phase_seed=11)


class TestUpperBoundExponent:
    # the cutset bound's exponent is the classifier's exponent
    @pytest.mark.parametrize("alpha,beta,expected", [
        (2.5, 1.0, 1.0),
        (4.0, -0.5, 0.0),
        (4.0, 0.5, 0.75),
        (2.5, 0.0, 0.75),
        (3.0, -0.25, 0.25),
    ])
    def test_rows(self, alpha, beta, expected):
        assert classify(alpha, beta).exponent == pytest.approx(expected)


class TestStripSemantics:
    def test_vd_nodes_have_unit_received_snr(self):
        # intermediate regime, alpha > 2: every V_D node satisfies
        # snr_s * xhat^(2-alpha) >= 1
        for seed in range(5):
            n, alpha = 64, 4.0
            snr = 16.0
            inst = unit_density_instance(n, seed=seed)
            w = select_cut_width(snr, n, alpha)
            part = partition_nodes(inst, w)
            xhat = (inst.positions[part.strip_VD, 0] - inst.side) / inst.nn_scale
            assert np.all(snr * xhat ** (2.0 - alpha) >= 1.0 - 1e-12)


class TestEvaluateCutset:
    def test_report_and_csv(self):
        n = 32
        _, area = operating_point(n, 3.0, 0.2)   # snr_s = 2
        inst = generate_network(n, area, seed=21)
        report = evaluate_cutset(inst, 2.0, 3.0, trials=3, phase_seed=2)
        assert report.mc_logdet <= report.dof_term + report.power_term + 1e-9
        assert report.beta == pytest.approx(math.log(2.0) / math.log(n))

    def test_full_strip_bound_is_nan(self):
        n = 16
        snr, area = operating_point(n, 2.0, 1.0)   # w = sqrt(n)
        inst = generate_network(n, area, seed=2)
        report = evaluate_cutset(inst, snr, 2.0, trials=2, phase_seed=1)
        assert math.isnan(report.closed_form_bound)
        assert report.snr_total == 0.0

    def test_percolation_mode_reports_b_set(self):
        n = 256
        snr, area = operating_point(n, 4.0, 0.0)
        inst = generate_network(n, area, seed=8)
        report = evaluate_cutset(inst, snr, 4.0, trials=2, phase_seed=3,
                                 mode="percolation", c=0.25)
        assert report.mc_logdet <= report.dof_term + report.power_term + 1e-9

    def test_percolation_mode_on_a_blocked_slab(self, monkeypatch):
        # the slab of seed 0 at n = 64 is blocked at c = 0.52; no phase is drawn
        n = 64
        snr, _ = operating_point(n, 4.0, 0.0)
        inst = generate_network(n, float(n), seed=0)
        monkeypatch.setattr(cutset, "channel_matrix",
                            lambda *a, **kw: pytest.fail("phases drawn"))
        with pytest.raises(PathologicalCutError, match="no node-free crossing in the slab"):
            evaluate_cutset(inst, snr, 4.0, trials=1, mode="percolation", c=0.52)

    @pytest.mark.parametrize("snr,alpha", [(2.0, 1.5), (2.0, math.nan), (2.0, math.inf),
                                           (0.0, 3.0), (-1.0, 3.0), (math.nan, 3.0),
                                           (math.inf, 3.0)])
    def test_bad_operating_point_rejected_before_any_draw(self, snr, alpha, monkeypatch):
        inst = unit_density_instance(16, seed=1)
        part = partition_nodes(inst, w_hat=2.0)

        def no_draw(*args, **kwargs):
            raise AssertionError("phases drawn")
        monkeypatch.setattr(cutset, "channel_matrix", no_draw)
        with pytest.raises(ValueError, match="alpha >= 2 and a finite snr_s > 0"):
            mc_cutset_logdet(inst, part, snr, alpha, trials=1, phase_seed=0)
        with pytest.raises(ValueError, match="alpha >= 2 and a finite snr_s > 0"):
            evaluate_cutset(inst, snr, alpha, trials=1)
        with pytest.raises(ValueError, match="alpha >= 2 and a finite snr_s > 0"):
            select_cut_width(snr, inst.n_pairs, alpha)

    def test_unknown_mode_rejected(self):
        _, area = operating_point(16, 3.0, 0.25)   # snr_s = 2
        inst = generate_network(16, area, seed=1)
        with pytest.raises(ValueError, match="unknown cut mode"):
            evaluate_cutset(inst, 2.0, 3.0, trials=1, mode="ideal")

    @pytest.mark.parametrize("constants", [{"K1": 0.0}, {"epsilon": -1.0}], ids=str)
    def test_non_positive_constant_rejected(self, constants):
        _, area = operating_point(16, 3.0, 0.25)   # snr_s = 2
        inst = generate_network(16, area, seed=1)
        with pytest.raises(ValueError, match="K1 and epsilon must be positive"):
            evaluate_cutset(inst, 2.0, 3.0, trials=1, **constants)


ANALYTIC = ("snr_total", "dof_term_realized", "closed_form_snr_total_bound")


class TestAnalyticColumnsOnRead:
    def test_sweep_computes_none(self, tmp_path, monkeypatch):
        def unread(*args, **kwargs):
            raise AssertionError("a sweep computed an analytic column")
        for name in ANALYTIC:
            monkeypatch.setattr(cutset, name, unread)
        got = sweep_csv(tmp_path, "cutset", CUTSET_SWEEP).read_text()
        assert_close_csv(got, CUTSET_SWEEP_CSV)

    @pytest.mark.parametrize("mode", sorted(CUTSET_CLI))
    def test_cli_computes_each_once(self, tmp_path, monkeypatch, mode):
        calls = Counter()
        for name in ANALYTIC:
            def counted(*args, _name=name, _real=getattr(cutset, name), **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(cutset, name, counted)
        got = cli_csv(tmp_path, mode, CUTSET_CLI[mode]).read_text()
        assert_close_csv(got, CUTSET_CLI_CSV[mode])
        # the idealized point's strip spans the half: its bound is NaN, not computed
        bound_calls = {"idealized": 0, "percolation": 1}[mode]
        assert calls == Counter(snr_total=1, dof_term_realized=1,
                                closed_form_snr_total_bound=bound_calls)
