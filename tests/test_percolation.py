import functools
import math
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.sparse import lil_matrix
from scipy.sparse.csgraph import shortest_path

from netregime import (build_occupancy_grid, certified_cut, crossing_probability,
                       extract_cut, find_open_crossing, generate_network,
                       has_open_crossing, percolation)
from netregime.percolation import (PercolationGrid, _distance_to_bottom,
                                   _distance_to_polyline, analytic_failure_bound,
                                   decay_condition_holds, exact_clearance,
                                   split_by_cut)
from netregime.harness import cut_json

from helpers import (hand_instance, bfs_open_top_bottom, bfs_closed_left_right,
                     brute_b_set, brute_polyline_clearance,
                     exists_closed_lr_crossing, instance_crossing_probability,
                     level_distance_to_bottom, loop_distance_to_polyline,
                     scalar_find_open_crossing)


def synthetic_grid(closed, c=0.25, cell_side=0.25):
    """PercolationGrid around an explicit state array, for search tests."""
    rows, cols = closed.shape
    return PercolationGrid(c=c, cell_side=cell_side, slab_columns=cols,
                           total_rows=rows, slab_x0=1.0,
                           closed=np.asarray(closed, dtype=bool))


def nodes_left_of_slab(n_pairs, area_A, grid_c, seed=0):
    """An instance whose nodes all sit left of where the slab will be."""
    gen = np.random.default_rng(seed)
    side = math.sqrt(area_A)
    pts = gen.uniform((0.01, 0.01), (0.4 * side, side - 0.01),
                      size=(2 * n_pairs, 2))
    return hand_instance(pts, area_A, seed=seed)


ORACLE_CS, ORACLE_TRIALS = (0.25, 0.45, 0.5, 0.52), 400


@functools.lru_cache(maxsize=None)
def oracle_studies(n):
    """c -> the full-draw oracle's study at n; all c share the instances."""
    return dict(zip(ORACLE_CS, instance_crossing_probability(
        n, ORACLE_CS, ORACLE_TRIALS, seed=9)))


class TestOccupancy:
    def test_empty_slab_all_open(self):
        inst = nodes_left_of_slab(32, 32.0, 0.5)
        grid = build_occupancy_grid(inst, 0.5)
        assert not grid.closed.any()

    def test_node_per_cell_center_all_closed(self):
        # fill every slab cell center; park the remaining nodes far left
        probe = build_occupancy_grid(nodes_left_of_slab(16, 16.0, 0.5), 0.5)
        centers = [probe.cell_center(r, col)
                   for r in range(probe.total_rows)
                   for col in range(probe.slab_columns)]
        assert len(centers) <= 32
        gen = np.random.default_rng(1)
        fillers = gen.uniform((0.01, 0.01), (0.5, 3.9),
                              size=(32 - len(centers), 2))
        inst = hand_instance(np.vstack([centers, fillers]), 16.0)
        grid = build_occupancy_grid(inst, 0.5)
        assert grid.closed.all()

    def test_geometry(self):
        n, c = 1024, 0.25
        inst = generate_network(n, float(n), seed=3)
        grid = build_occupancy_grid(inst, c)
        assert grid.slab_columns == math.ceil(math.log(n))
        assert grid.total_rows == math.ceil(math.sqrt(n) / c)
        assert grid.cell_side == pytest.approx(c * inst.nn_scale)
        # slab centered on the midline, middle column straddling it
        mid_col = (grid.slab_columns - 1) // 2
        lo = grid.slab_x0 + mid_col * grid.cell_side
        assert lo <= inst.side <= lo + grid.cell_side

    def test_closed_fraction_matches_binomial(self):
        # P[cell closed] = 1 - (1 - c^2/(2n))^(2n), and is below c^2
        n, c = 1024, 0.25
        fractions = []
        for seed in range(1000):
            inst = generate_network(n, float(n), seed=seed)
            fractions.append(build_occupancy_grid(inst, c).closed.mean())
        emp = float(np.mean(fractions))
        exact = 1.0 - (1.0 - c * c / (2 * n)) ** (2 * n)
        cells = 7 * 128
        se = math.sqrt(exact * (1 - exact) / (cells * 1000))
        assert abs(emp - exact) < 4 * se
        assert emp < c * c

    def test_rejects_bad_c(self):
        inst = generate_network(64, 64.0, seed=0)
        for c in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                build_occupancy_grid(inst, c)


class TestOpenCrossing:
    def test_all_open_leftmost_vertical_path(self):
        grid = synthetic_grid(np.zeros((12, 5), dtype=bool))
        cut = find_open_crossing(grid)
        assert cut.cells == [(r, 0) for r in range(12)]

    def test_blocked_by_closed_row(self):
        closed = np.zeros((10, 4), dtype=bool)
        closed[6, :] = True
        grid = synthetic_grid(closed)
        assert find_open_crossing(grid) is None
        assert not has_open_crossing(grid)

    def test_path_is_shortest_and_valid(self):
        gen = np.random.default_rng(7)
        for trial in range(60):
            closed = gen.random((20, 20)) < 0.04
            grid = synthetic_grid(closed)
            cut = find_open_crossing(grid)
            # oracle: sparse-graph shortest path over open cells
            rows, cols = closed.shape
            openc = ~closed
            m = lil_matrix((rows * cols + 2, rows * cols + 2))
            src, dst = rows * cols, rows * cols + 1
            for r in range(rows):
                for col in range(cols):
                    if closed[r, col]:
                        continue
                    u = r * cols + col
                    if r == 0:
                        m[src, u] = 1
                    if r == rows - 1:
                        m[u, dst] = 1
                    for nr, nc in ((r + 1, col), (r, col + 1)):
                        if 0 <= nr < rows and 0 <= nc < cols and openc[nr, nc]:
                            m[u, nr * cols + nc] = 1
                            m[nr * cols + nc, u] = 1
            dist = shortest_path(m.tocsr(), indices=src, directed=True)[dst]
            if math.isinf(dist):
                assert cut is None
            else:
                assert cut is not None
                assert len(cut.cells) == int(dist) - 1
                assert all(not closed[r, col] for r, col in cut.cells)
                for (r0, c0), (r1, c1) in zip(cut.cells, cut.cells[1:]):
                    assert abs(r0 - r1) + abs(c0 - c1) == 1

    def test_lexicographic_smallest_among_shortest(self):
        # tiny grids: enumerate every shortest crossing by brute force
        gen = np.random.default_rng(3)
        for trial in range(40):
            closed = gen.random((5, 4)) < 0.25
            grid = synthetic_grid(closed)
            cut = find_open_crossing(grid)
            best = brute_shortest_sequences(closed)
            if not best:
                assert cut is None
            else:
                assert cut is not None
                assert cut.cells == min(best)


def assert_same_crossing(grid):
    """find_open_crossing gives the scalar walk's cells and vertex bytes."""
    cut, want = find_open_crossing(grid), scalar_find_open_crossing(grid)
    if want is None:
        assert cut is None
        return
    cells, vertices = want
    assert cut.cells == cells
    assert all(type(r) is int and type(col) is int for r, col in cut.cells)
    assert cut.vertices.dtype == vertices.dtype and cut.vertices.shape == vertices.shape
    assert cut.vertices.tobytes() == vertices.tobytes()


class TestDistanceToBottom:
    def test_fixed_slabs_match_level_oracle(self):
        # the benchmark's fixed slabs: n = 256 near the threshold c = 0.52
        blocked = 0
        for seed in range(32):
            grid = build_occupancy_grid(generate_network(256, 256.0, seed), 0.52)
            dist = np.array(_distance_to_bottom(grid.open)).reshape(grid.open.shape)
            want = level_distance_to_bottom(grid.open)
            assert dist.dtype == want.dtype and np.array_equal(dist, want)
            assert_same_crossing(grid)
            blocked += not (dist[0] >= 0).any()
        assert 0 < blocked < 32

    def test_random_slabs_with_cut_off_pockets(self):
        gen = np.random.default_rng(11)
        pockets = crossings = 0
        for trial in range(200):
            shape = (gen.integers(1, 40), gen.integers(1, 12))
            closed = gen.random(shape) < gen.uniform(0.0, 0.7)
            open_cells = ~closed
            dist = np.array(_distance_to_bottom(open_cells)).reshape(shape)
            assert np.array_equal(dist, level_distance_to_bottom(open_cells))
            pockets += bool((open_cells & (dist < 0)).any())
            grid = synthetic_grid(closed, cell_side=0.1 + 0.01 * trial)
            assert_same_crossing(grid)
            crossings += (dist[0] >= 0).any()
        assert pockets > 20
        assert 20 < crossings < 180


def brute_shortest_sequences(closed):
    """All shortest open top-bottom cell sequences, by exhaustive DFS."""
    rows, cols = closed.shape
    results = []
    best_len = [math.inf]

    def walk(r, c, seen, path):
        if len(path) > best_len[0]:
            return
        if r == rows - 1:
            if len(path) < best_len[0]:
                best_len[0] = len(path)
                results.clear()
            if len(path) == best_len[0]:
                results.append(list(path))
            return
        for nr, nc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if (0 <= nr < rows and 0 <= nc < cols and not closed[nr, nc]
                    and (nr, nc) not in seen):
                seen.add((nr, nc))
                path.append((nr, nc))
                walk(nr, nc, seen, path)
                path.pop()
                seen.remove((nr, nc))

    for c0 in range(cols):
        if not closed[0, c0]:
            walk(0, c0, {(0, c0)}, [(0, c0)])
    return results


class TestClosedCrossing:
    def test_all_open_has_none(self):
        grid = synthetic_grid(np.zeros((8, 4), dtype=bool))
        assert not exists_closed_lr_crossing(grid)

    def test_diagonal_chain_detected(self):
        closed = np.zeros((8, 5), dtype=bool)
        for col in range(5):
            closed[2 + col, col] = True     # 8-connected diagonal
        grid = synthetic_grid(closed)
        assert exists_closed_lr_crossing(grid)
        assert not has_open_crossing(grid)

    def test_four_connectivity_not_enough_for_closed(self):
        # a diagonal blocks open 4-paths even though the closed cells
        # never share an edge
        closed = np.zeros((4, 4), dtype=bool)
        for i in range(4):
            closed[i, 3 - i] = True
        grid = synthetic_grid(closed)
        assert exists_closed_lr_crossing(grid)
        assert not has_open_crossing(grid)


class TestDuality:
    def test_against_plain_python_oracles(self):
        gen = np.random.default_rng(5)
        for trial in range(300):
            closed = gen.random((12, 6)) < gen.uniform(0.05, 0.6)
            grid = synthetic_grid(closed)
            assert has_open_crossing(grid) == bfs_open_top_bottom(closed)
            assert exists_closed_lr_crossing(grid) == bfs_closed_left_right(closed)

    def test_xor_on_random_grids(self):
        gen = np.random.default_rng(6)
        both = {True: 0, False: 0}
        for trial in range(3000):
            closed = gen.random((10, 5)) < gen.uniform(0.1, 0.5)
            grid = synthetic_grid(closed)
            open_tb = has_open_crossing(grid)
            closed_lr = exists_closed_lr_crossing(grid)
            assert open_tb != closed_lr
            both[open_tb] += 1
        assert min(both.values()) > 0   # both branches exercised

    def test_find_matches_existence(self):
        gen = np.random.default_rng(8)
        for trial in range(200):
            closed = gen.random((10, 5)) < 0.3
            grid = synthetic_grid(closed)
            assert (find_open_crossing(grid) is not None) == has_open_crossing(grid)


class TestExtractCut:
    def test_straight_cut_clearance(self):
        inst = nodes_left_of_slab(32, 32.0, 0.5, seed=2)
        grid = build_occupancy_grid(inst, 0.5)
        cut = extract_cut(find_open_crossing(grid), inst)
        assert cut.clearance >= 0.5 * grid.cell_side
        # nearest node is far left of the slab, so clearance is large
        assert cut.clearance > grid.cell_side

    def test_l_shaped_cut_exact_distance(self):
        # grid with a known open corridor and one node at a known spot
        n, c = 1024, 0.25
        inst0 = generate_network(n, float(n), seed=9)
        grid0 = build_occupancy_grid(inst0, c)
        cut = find_open_crossing(grid0)
        if cut is None:
            pytest.skip("no crossing for this seed")
        certified = extract_cut(cut, inst0)
        brute = brute_polyline_clearance(inst0.positions, certified.vertices)
        assert certified.clearance == pytest.approx(brute, abs=1e-12)

    def test_hand_node_distance(self):
        # empty slab gives a straight leftmost cut; add one node at a
        # known horizontal offset and the clearance equals that offset
        inst = nodes_left_of_slab(32, 32.0, 0.5, seed=4)
        grid = build_occupancy_grid(inst, 0.5)
        cut = extract_cut(find_open_crossing(grid), inst)
        x_line = grid.slab_x0 + 0.5 * grid.cell_side
        probe = np.vstack([inst.positions,
                           [[x_line - 1.3, 2.0], [0.3, 0.2]]])
        inst2 = hand_instance(probe, 32.0)
        d = exact_clearance(inst2, cut.vertices)
        assert d == pytest.approx(1.3, rel=1e-12)
        brute = brute_polyline_clearance(inst2.positions, cut.vertices)
        assert d == pytest.approx(brute, abs=1e-12)

    def test_certified_cut_chains_grid_crossing_and_certificate(self):
        for seed in range(4):
            inst = generate_network(64, 64.0, seed=seed)
            grid = build_occupancy_grid(inst, 0.6)
            crossing = find_open_crossing(grid)
            cut = certified_cut(inst, 0.6)
            if crossing is None:
                assert cut is None            # seeds 0, 1 are blocked at c = 0.6
                continue
            want = extract_cut(crossing, inst)
            assert cut.cells == want.cells and cut.clearance == want.clearance
            assert cut.vertices.tobytes() == want.vertices.tobytes()
            assert np.array_equal(cut.grid.closed, grid.closed)
            assert cut_json(cut) == cut_json(want)

    def test_json_export(self):
        import json
        inst = nodes_left_of_slab(32, 32.0, 0.5, seed=2)
        grid = build_occupancy_grid(inst, 0.5)
        cut = extract_cut(find_open_crossing(grid), inst)
        doc = json.loads(cut_json(cut))
        assert set(doc) == {"c", "cell_side", "path", "clearance"}
        assert doc["clearance"] == cut.clearance


class TestBlockedClearance:
    def test_point_distances_match_segment_loop(self):
        for seed in range(50):
            inst = generate_network(1024, 1024.0, seed=seed)
            crossing = find_open_crossing(build_occupancy_grid(inst, 0.25))
            got = _distance_to_polyline(inst.positions, crossing.vertices)
            want = loop_distance_to_polyline(inst.positions, crossing.vertices)
            assert got.tobytes() == want.tobytes()

    def test_slanted_polylines_and_zero_length_segments(self):
        gen = np.random.default_rng(4)
        for trial in range(40):
            points = gen.uniform(-5.0, 5.0, size=(gen.integers(1, 300), 2))
            vertices = gen.uniform(-5.0, 5.0, size=(gen.integers(2, 200), 2))
            vertices[1] = vertices[0]                      # zero-length segment
            vertices[-1] = vertices[-2]
            got = _distance_to_polyline(points, vertices)
            want = loop_distance_to_polyline(points, vertices)
            assert got.tobytes() == want.tobytes()
        # a lone zero-length segment is the distance to its point
        d = _distance_to_polyline(np.array([[3.0, 4.0]]), np.zeros((2, 2)))
        assert d.tolist() == [5.0]


class TestSplitByCut:
    def test_partition_covers_all_nodes(self):
        n = 1024
        inst = generate_network(n, float(n), seed=13)
        grid = build_occupancy_grid(inst, 0.25)
        cut = extract_cut(find_open_crossing(grid), inst)
        left, b, right = split_by_cut(cut, inst)
        ids = np.sort(np.concatenate([left, b, right]))
        assert np.array_equal(ids, np.arange(2 * n))
        x = inst.positions[:, 0]
        assert np.all(x[b] >= grid.slab_x0) and np.all(x[b] < grid.slab_x1)
        assert np.all(x[right] >= grid.slab_x1)

    def test_b_set_matches_flood_fill_oracle(self):
        # c near the crossing threshold makes the cut meander around pockets
        checked = 0
        for seed in range(12):
            inst = generate_network(256, 256.0, seed=seed)
            grid = build_occupancy_grid(inst, 0.45)
            crossing = find_open_crossing(grid)
            if crossing is None:
                continue
            _, b, _ = split_by_cut(extract_cut(crossing, inst), inst)
            assert b.tolist() == brute_b_set(grid, crossing.cells, inst.positions)
            checked += 1
        assert checked >= 6

    def test_b_set_grows_like_root_n_log_n(self):
        n = 1024
        sizes = []
        for seed in range(10):
            inst = generate_network(n, float(n), seed=seed)
            grid = build_occupancy_grid(inst, 0.25)
            cr = find_open_crossing(grid)
            if cr is None:
                continue
            cut = extract_cut(cr, inst)
            _, b, _ = split_by_cut(cut, inst)
            sizes.append(len(b))
        assert sizes and max(sizes) <= math.sqrt(n) * math.log(n)


class TestCrossingProbability:
    def test_analytic_bound_formula(self):
        # direct evaluation of (5/(7c)) sqrt(n) (7 c^2)^(ln n)
        n, c = 10 ** 6, 0.25
        want = (5.0 / (7.0 * c)) * math.sqrt(n) * (7 * c * c) ** math.log(n)
        assert analytic_failure_bound(n, c) == pytest.approx(want, rel=1e-12)
        assert want == pytest.approx(0.0312, abs=1e-3)

    def test_decay_condition_flag(self):
        assert decay_condition_holds(0.25)
        assert not decay_condition_holds(0.30)    # 0.09 > 1/(7 sqrt(e))
        threshold = 1.0 / (7.0 * math.sqrt(math.e))
        assert threshold == pytest.approx(0.0866, abs=1e-4)

    def test_study_runs_and_reports(self):
        study = crossing_probability(256, 0.25, trials=40, seed=5)
        assert 0.0 <= study.empirical_rate <= 1.0
        assert study.decay_ok

    def test_monotone_in_c(self):
        rates = []
        for c in (0.15, 0.3, 0.45):
            study = crossing_probability(256, c, trials=150, seed=6)
            rates.append(study.empirical_rate)
        assert rates[0] >= rates[1] >= rates[2]

    @pytest.mark.parametrize("c", ORACLE_CS)
    @pytest.mark.parametrize("n", [256, 1024, 4096])
    def test_matches_per_instance_oracle(self, n, c):
        # slab-only trials against the full-draw trials of the oracle, near
        # the crossing threshold: a two-proportion z statistic at fixed seeds
        study = crossing_probability(n, c, ORACLE_TRIALS, seed=9)
        oracle = oracle_studies(n)[c]
        assert (study.n, study.c, study.trials, study.analytic_bound, study.decay_ok) == (
            oracle.n, oracle.c, oracle.trials, oracle.analytic_bound, oracle.decay_ok)
        pooled = (study.empirical_rate + oracle.empirical_rate) / 2
        if 0.0 < pooled < 1.0:
            z = ((study.empirical_rate - oracle.empirical_rate)
                 / math.sqrt(2 * pooled * (1 - pooled) / ORACLE_TRIALS))
            assert abs(z) < 4, (study.empirical_rate, oracle.empirical_rate)

    def test_closed_fraction_matches_binomial(self):
        # each slab cell is closed with probability 1 - (1 - c^2/(2n))^(2n)
        n, c, trials = 1024, 0.25, 1000
        grids = recorded_grids(n, c, trials, seed=4)
        emp = float(np.mean([g.closed.mean() for g in grids]))
        exact = 1.0 - (1.0 - c * c / (2 * n)) ** (2 * n)
        se = math.sqrt(exact * (1 - exact) / (grids[0].closed.size * trials))
        assert abs(emp - exact) < 4 * se

    def test_m_cell_closed_probability_bound(self):
        # P[m fixed cells all closed] <= c^(2m) within Monte-Carlo noise
        n, c, T = 1024, 0.25, 4000
        sets = [[(10, 2)], [(40, 1), (40, 2)], [(80, 5), (81, 5), (82, 5)]]
        hits = np.zeros(3)
        for t in range(T):
            inst = generate_network(n, float(n), seed=20000 + t)
            grid = build_occupancy_grid(inst, c)
            for j, cells in enumerate(sets):
                hits[j] += all(grid.closed[r, col] for r, col in cells)
        for j, cells in enumerate(sets):
            bound = c ** (2 * len(cells))
            se = math.sqrt(bound * (1 - bound) / T)
            assert hits[j] / T <= bound + 3 * se


def recorded_grids(n, c, trials, seed):
    """Copies of the grid crossing_probability's trials hand to
    has_open_crossing, one per trial.  The trials clear and re-mark one
    grid in place, so each copy is the grid's state in its trial."""
    grids = []

    def recording(grid):
        grids.append(replace(grid, closed=grid.closed.copy()))
        return has_open_crossing(grid)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(percolation, "has_open_crossing", recording)
        crossing_probability(n, c, trials, seed)
    return grids


class TestSlabDraw:
    @pytest.mark.parametrize("n, c", [(256, 0.5), (1000, 0.25), (4096, 0.52)])
    def test_grid_geometry_matches_instance_grid(self, n, c):
        want = build_occupancy_grid(generate_network(n, float(n), seed=0), c)
        grids = recorded_grids(n, c, 3, seed=1)
        assert len(grids) == 3 and len({g.closed.tobytes() for g in grids}) == 3
        for grid in grids:
            assert grid.closed.shape == want.closed.shape
            assert grid.closed.dtype == want.closed.dtype
            assert (grid.c, grid.cell_side, grid.slab_x0, grid.slab_columns,
                    grid.total_rows) == (want.c, want.cell_side, want.slab_x0,
                                         want.slab_columns, want.total_rows)

    def test_count_is_binomial_with_the_slab_share(self):
        n, c = 256, 0.5
        grid = build_occupancy_grid(generate_network(n, float(n), seed=0), c)
        side = math.sqrt(n)
        p = (grid.slab_x1 - grid.slab_x0) / (2 * side)

        class Recorder:
            def binomial(self, trials, prob):
                self.args = (trials, prob)
                return 3

            def random(self, shape):
                return np.zeros(shape)
        gen = Recorder()
        rows, cols = percolation._draw_slab_cells(grid, n, side, gen)
        assert gen.args[0] == 2 * n and gen.args[1] == pytest.approx(p, rel=1e-15)
        assert len(rows) == len(cols) == 3

        draws = 20000
        gen = np.random.default_rng(12)
        counts = np.array([len(percolation._draw_slab_cells(grid, n, side, gen)[0])
                           for _ in range(draws)], dtype=float)
        mean, var = 2 * n * p, 2 * n * p * (1 - p)
        assert abs(counts.mean() - mean) < 4 * math.sqrt(var / draws)
        centered = counts - counts.mean()
        m2, m4 = (centered ** 2).mean(), (centered ** 4).mean()
        assert abs(counts.var(ddof=1) - var) < 4 * math.sqrt((m4 - m2 * m2) / draws)

    def test_slab_beyond_memory_is_refused(self, memory_at_most_8gib):
        # 2e9 x 2 cells at 6 bytes each, before anything is allocated
        with pytest.raises(ValueError, match="physical memory"):
            percolation._open_grid(4, 4.0, 1e-9)

    def test_memory_is_read_from_sysconf(self, monkeypatch):
        real = os.sysconf
        grid = percolation._open_grid(1024, 1024.0, 0.25)   # 128 x 7 cells, 7616 bytes
        assert grid.closed.shape == (128, 7)
        monkeypatch.setattr(os, "sysconf", lambda name: 4096 if name == "SC_PAGE_SIZE"
                            else 1 if name == "SC_PHYS_PAGES" else real(name))
        with pytest.raises(ValueError, match="physical memory"):
            percolation._open_grid(1024, 1024.0, 0.25)

    @pytest.mark.parametrize("c", [0.25, 0.9])
    def test_trial_peak_within_counted_bytes(self, monkeypatch, c):
        # The labels dominate a trial at c = 0.25, the draw at c = 0.9.
        n = 2 ** 16
        crossing_probability(n, c, 1, 0)                  # first-use allocations
        tracemalloc.start()
        try:
            crossing_probability(n, c, 3, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        real = os.sysconf
        monkeypatch.setattr(os, "sysconf", lambda name: 1 if name == "SC_PAGE_SIZE"
                            else peak if name == "SC_PHYS_PAGES" else real(name))
        with pytest.raises(ValueError, match="physical memory"):
            percolation._open_grid(n, float(n), c)

    @pytest.mark.parametrize("n, c", [(256, 0.5), (1000, 0.25), (4096, 0.52),
                                      (2 ** 24, 0.35)])
    def test_unit_draws_just_below_one_stay_in_the_slab(self, n, c):
        grid = percolation._open_grid(n, float(n), c)
        side, below = math.sqrt(n), np.nextafter(1.0, 0.0)
        rows, cols = percolation._unit_cells(
            grid, side, np.array([[below, below], [0.0, 0.0], [below, 0.0]]))
        assert rows.tolist() == [0, grid.total_rows - 1, grid.total_rows - 1]
        assert cols.tolist() == [grid.slab_columns - 1, 0, grid.slab_columns - 1]

    def test_rows_are_those_of_the_instance_binning(self):
        # y = u * side lands in the row _slab_cells gives a node at that y
        n, c = 1024, 0.45
        grid = percolation._open_grid(n, float(n), c)
        side = math.sqrt(n)
        u = np.random.default_rng(3).random((5000, 2))
        u[:3, 1] = [0.0, np.nextafter(1.0, 0.0), 0.5]
        rows, cols = percolation._unit_cells(grid, side, u)
        mid = grid.slab_x0 + (cols + 0.5) * grid.cell_side
        idx, want_rows, want_cols = percolation._slab_cells(
            grid, np.stack([mid, u[:, 1] * side], axis=1))
        assert idx.tolist() == list(range(len(u)))
        assert rows.tolist() == want_rows.tolist()
        assert cols.tolist() == want_cols.tolist()
