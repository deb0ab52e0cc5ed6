import math

import numpy as np
import pytest
from scipy.sparse import lil_matrix
from scipy.sparse.csgraph import shortest_path

from netregime import (build_occupancy_grid, crossing_probability, extract_cut,
                       find_open_crossing, generate_network, has_open_crossing)
from netregime.percolation import (PercolationGrid, _distance_to_bottom,
                                   _distance_to_polyline, analytic_failure_bound,
                                   decay_condition_holds, exact_clearance,
                                   split_by_cut)

from helpers import (hand_instance, bfs_open_top_bottom, bfs_closed_left_right,
                     brute_b_set, brute_polyline_clearance,
                     exists_closed_lr_crossing, level_distance_to_bottom,
                     loop_distance_to_polyline)


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


class TestDistanceToBottom:
    def test_fixed_slabs_match_level_oracle(self):
        # the benchmark's fixed slabs: n = 256 near the threshold c = 0.52
        blocked = 0
        for seed in range(32):
            grid = build_occupancy_grid(generate_network(256, 256.0, seed), 0.52)
            dist = _distance_to_bottom(grid.open)
            want = level_distance_to_bottom(grid.open)
            assert dist.dtype == want.dtype and np.array_equal(dist, want)
            blocked += not (dist[0] >= 0).any()
        assert 0 < blocked < 32

    def test_random_slabs_with_cut_off_pockets(self):
        gen = np.random.default_rng(11)
        pockets = 0
        for trial in range(200):
            shape = (gen.integers(1, 40), gen.integers(1, 12))
            closed = gen.random(shape) < gen.uniform(0.0, 0.7)
            open_cells = ~closed
            dist = _distance_to_bottom(open_cells)
            assert np.array_equal(dist, level_distance_to_bottom(open_cells))
            pockets += bool((open_cells & (dist < 0)).any())
        assert pockets > 20


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
        cut = extract_cut(find_open_crossing(grid), grid, inst)
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
        certified = extract_cut(cut, grid0, inst0)
        brute = brute_polyline_clearance(inst0.positions, certified.vertices)
        assert certified.clearance == pytest.approx(brute, abs=1e-12)

    def test_hand_node_distance(self):
        # empty slab gives a straight leftmost cut; add one node at a
        # known horizontal offset and the clearance equals that offset
        inst = nodes_left_of_slab(32, 32.0, 0.5, seed=4)
        grid = build_occupancy_grid(inst, 0.5)
        cut = extract_cut(find_open_crossing(grid), grid, inst)
        x_line = grid.slab_x0 + 0.5 * grid.cell_side
        probe = np.vstack([inst.positions,
                           [[x_line - 1.3, 2.0], [0.3, 0.2]]])
        inst2 = hand_instance(probe, 32.0)
        d = exact_clearance(inst2, cut.vertices)
        assert d == pytest.approx(1.3, rel=1e-12)
        brute = brute_polyline_clearance(inst2.positions, cut.vertices)
        assert d == pytest.approx(brute, abs=1e-12)

    def test_json_export(self):
        import json
        inst = nodes_left_of_slab(32, 32.0, 0.5, seed=2)
        grid = build_occupancy_grid(inst, 0.5)
        cut = extract_cut(find_open_crossing(grid), grid, inst)
        doc = json.loads(cut.to_json())
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
        cut = extract_cut(find_open_crossing(grid), grid, inst)
        left, b, right = split_by_cut(grid, cut, inst)
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
            _, b, _ = split_by_cut(grid, extract_cut(crossing, grid, inst), inst)
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
            cut = extract_cut(cr, grid, inst)
            _, b, _ = split_by_cut(grid, cut, inst)
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
        assert study.csv_row().count(",") == 5

    def test_monotone_in_c(self):
        rates = []
        for c in (0.15, 0.3, 0.45):
            study = crossing_probability(256, c, trials=150, seed=6)
            rates.append(study.empirical_rate)
        assert rates[0] >= rates[1] >= rates[2]

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
