import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from netregime import (OutOfRegimeError, Scheme, build_cell_grid,
                       generate_network, hc_throughput, hybrid_cell_size,
                       multihop_throughput, route_sd_lines, simulate_hybrid,
                       snr_long)
from netregime import harness, rng
from netregime.harness import ExperimentConfig, fit_exponent, operating_point
from netregime.schemes import (RelayPlan, _crossing_times, _walk_block, hybrid_throughput,
                               routing_bytes)

from helpers import (assignments, flat, hand_instance, loop_hybrid_aggregate,
                     loop_route_sd_lines, mean_occupancy, physical_memory_is,
                     recording_keys, relay_cells_of, scalar_supercover, traced_peak)


def manhattan_lengths(cell0, cell1, grid):
    """|row1 - row0| + |col1 - col0| + 1 for each pair of end cells."""
    r0, c0 = np.divmod(np.asarray(cell0), grid.columns)
    r1, c1 = np.divmod(np.asarray(cell1), grid.columns)
    return np.abs(r1 - r0) + np.abs(c1 - c0) + 1


def walk(p0, p1, cell0, cell1, grid):
    """One segment through the all-lines walk, as a list of flat ids."""
    cells = _walk_block(np.array([p0], dtype=float), np.array([p1], dtype=float),
                        np.array([cell0]), np.array([cell1]), grid)
    assert [len(cells)] == manhattan_lengths([cell0], [cell1], grid).tolist()
    return cells.tolist()


def bin_points(grid, points):
    """Flat cell ids of points, binned as build_cell_grid bins nodes."""
    points = np.asarray(points, dtype=float)
    col = np.minimum((points[:, 0] / grid.cell_side).astype(np.intp),
                     grid.columns - 1)
    row = np.minimum((points[:, 1] / grid.cell_side).astype(np.intp),
                     grid.rows - 1)
    return row * grid.columns + col


@functools.cache
def seeded_grid(n, M):
    """The cell grid of ``generate_network(n, n, seed=n)`` at M, built once."""
    return build_cell_grid(generate_network(n, float(n), seed=n), M)


def edge_coordinates(cells, side):
    """Coordinates on the cell edges of an axis of ``cells`` cells, or one ulp
    to either side of them, inside [0, cells * side)."""
    def place(edge_and_ulp):
        edge, ulp = edge_and_ulp
        x = np.nextafter(edge * side, ulp * np.inf) if ulp else edge * side
        return float(min(max(x, 0.0), np.nextafter(cells * side, 0.0)))
    return st.tuples(st.integers(0, cells), st.sampled_from([-1, 0, 1])).map(place)


def edge_segments(shape):
    """(shape, 1 to 16 segments between edge coordinates of ``seeded_grid(*shape)``)."""
    grid = seeded_grid(*shape)
    point = st.tuples(edge_coordinates(grid.columns, grid.cell_side),
                      edge_coordinates(grid.rows, grid.cell_side))
    return st.tuples(st.just(shape),
                     st.lists(st.tuples(point, point), min_size=1, max_size=16))


class TestMultihop:
    def test_high_snr_limit(self):
        est = multihop_throughput(100, 1e12, K2=1.0)
        assert est.aggregate_T / 10.0 == pytest.approx(math.log2(2.0), rel=1e-9)
        est = multihop_throughput(100, 1e12, K2=0.5)
        assert est.aggregate_T / 10.0 == pytest.approx(math.log2(3.0), rel=1e-9)

    def test_hand_value(self):
        est = multihop_throughput(100, 1.0, K2=1.0)
        assert est.aggregate_T == pytest.approx(10 * math.log2(1.5), rel=1e-12)
        assert est.per_pair_R == pytest.approx(est.aggregate_T / 100)

    def test_fixed_snr_slope_exact(self):
        table = [(n, multihop_throughput(n, 2.0).aggregate_T)
                 for n in (64, 256, 1024, 4096)]
        fit = fit_exponent(table)
        assert fit.slope == pytest.approx(0.5, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_k2(self):
        with pytest.raises(ValueError):
            multihop_throughput(10, 1.0, K2=0.0)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError, match="n must be"):
            multihop_throughput(0, 1.0)


class TestHierarchical:
    def test_zero_db_boundary_inside_log(self):
        # n^(1-alpha/2) * snr = 1 makes the log term exactly 1 bit
        est = hc_throughput(16, 16.0, alpha=4.0, epsilon=0.05, K3=1.0)
        assert est.aggregate_T == pytest.approx(16 ** 0.95 * 1.0, rel=1e-12)

    def test_hand_value(self):
        # hand evaluation of K3 * n^(1-eps) * log2(1 + n^(1-alpha/2) * snr):
        # at alpha = 2, beta = 0 the log term is exactly one bit
        est = hc_throughput(256, 1.0, alpha=2.0, epsilon=0.05, K3=1.0)
        want = 256 ** 0.95 * math.log2(1.0 + 256 ** 0.0 * 1.0)
        assert est.aggregate_T == pytest.approx(want, rel=1e-12)
        assert want == pytest.approx(194.0117, rel=1e-6)

    def test_slope_is_one_minus_epsilon(self):
        # alpha = 2, beta = 0 keeps the log term constant, so the fit is exact
        table = [(n, hc_throughput(n, 1.0, 2.0, epsilon=0.05).aggregate_T)
                 for n in (256, 1024, 4096, 16384)]
        assert fit_exponent(table).slope == pytest.approx(0.95, abs=1e-12)

    def test_bursty_duty_cycle(self):
        # power limited: tau = snr_long pins the effective SNR at 0 dB
        n, alpha = 256, 3.0
        snr_l = n ** (1 - alpha / 2)
        est = hc_throughput(n, 1.0, alpha, epsilon=0.05, K3=1.0, bursty=True)
        want = snr_l * n ** 0.95 * math.log2(2.0)
        assert est.aggregate_T == pytest.approx(want, rel=1e-12)
        assert est.scheme is Scheme.BURSTY_HC

    def test_bursty_slope_matches_power_limited_exponent(self):
        # alpha = 3, beta = 0: theory gives 2 - alpha/2 + beta = 1/2 (minus eps)
        table = [(n, hc_throughput(n, 1.0, 3.0, epsilon=0.05,
                                   bursty=True).aggregate_T)
                 for n in (256, 1024, 4096, 16384)]
        assert fit_exponent(table).slope == pytest.approx(0.45, abs=1e-12)

    def test_bursty_continuous_at_zero_db(self):
        # snr_long = 1: bursty and plain variants coincide
        n, alpha = 81, 4.0
        snr = float(n) ** (alpha / 2 - 1)
        plain = hc_throughput(n, snr, alpha)
        bursty = hc_throughput(n, snr, alpha, bursty=True)
        assert plain.aggregate_T == pytest.approx(bursty.aggregate_T, rel=1e-12)

    def test_bursty_snr_is_snr_long_over_tau(self):
        # max(1, snr_l) has the bits of snr_l / min(1, snr_l) at every
        # snr_l > 0, subnormals included
        snr_l = np.geomspace(1e-320, 1e300, 200_000)
        assert np.array_equal(np.maximum(1.0, snr_l), snr_l / np.minimum(1.0, snr_l))
        # where snr_long underflows to 0 the duty cycle, and the rate, is 0
        assert snr_long(1024.0 ** -106, 1024, 6.0) == 0.0
        assert hc_throughput(1024, 1024.0 ** -106, 6.0, bursty=True).aggregate_T == 0.0

    @pytest.mark.parametrize("bursty", [False, True])
    def test_rejects_bad_epsilon_or_k3(self, bursty):
        with pytest.raises(ValueError, match="epsilon"):
            hc_throughput(256, 1.0, 3.0, epsilon=0.0, bursty=bursty)
        with pytest.raises(ValueError, match="K3"):
            hc_throughput(256, 1.0, 3.0, K3=0.0, bursty=bursty)


class TestHybridCellSize:
    def test_hand_values(self):
        assert hybrid_cell_size(16.0, 4.0, 10 ** 4) == 16
        assert hybrid_cell_size(100.0, 6.0, 10 ** 4) == 10

    def test_out_of_regime_flags(self):
        with pytest.raises(OutOfRegimeError):
            hybrid_cell_size(1.0, 4.0, 100)          # beta = 0
        with pytest.raises(OutOfRegimeError):
            hybrid_cell_size(0.5, 4.0, 100)          # beta < 0
        with pytest.raises(OutOfRegimeError):
            hybrid_cell_size(200.0, 4.0, 100)        # beta > alpha/2 - 1
        with pytest.raises(OutOfRegimeError):
            hybrid_cell_size(4.0, 2.0, 100)          # alpha = 2

    @pytest.mark.parametrize("snr,alpha", [(math.nan, 4.0), (math.inf, 4.0),
                                           (16.0, math.nan), (16.0, math.inf)])
    def test_non_finite_point_is_value_error(self, snr, alpha):
        with pytest.raises(ValueError, match="must be finite") as exc:
            hybrid_cell_size(snr, alpha, 256)
        assert not isinstance(exc.value, OutOfRegimeError)

    def test_clamped_to_n(self):
        n = 64
        assert hybrid_cell_size(float(n), 4.0, n) == n

    def test_edge_past_float_range(self):
        # 1024^499 overflows a float: every finite snr_s lies below the edge
        assert hybrid_cell_size(1024.0 ** 0.04, 1000.0, 1024) == 1


class TestCellGrid:
    def test_largest_cells(self):
        inst = generate_network(36, 36.0, seed=1)
        grid = build_cell_grid(inst, M=36)
        assert (grid.rows, grid.columns) == (1, 2)
        assert grid.cell_side == pytest.approx(inst.side)

    def test_unit_cells_extended(self):
        n = 100
        inst = generate_network(n, float(n), seed=2)
        grid = build_cell_grid(inst, M=1)
        assert (grid.rows, grid.columns) == (10, 20)
        assert grid.cell_side == pytest.approx(1.0)
        assert mean_occupancy(grid) == pytest.approx(1.0)

    def test_target_occupancy(self):
        # rows x cols tile exactly, so the mean is exactly 2n / cells
        occupancies = []
        for seed in range(100):
            inst = generate_network(1024, 1024.0, seed=seed)
            grid = build_cell_grid(inst, M=16)
            assert grid.n_cells == 128
            occupancies.append(mean_occupancy(grid))
        assert np.mean(occupancies) == pytest.approx(16.0, abs=1e-12)

    def test_every_node_binned_once(self):
        inst = generate_network(50, 50.0, seed=3)
        grid = build_cell_grid(inst, M=5)
        assert grid.cell_start[0] == 0 and grid.cell_start[-1] == inst.n_nodes
        assert sorted(grid.node_order) == list(range(inst.n_nodes))
        for cid in range(grid.n_cells):
            members = grid.node_order[grid.cell_start[cid]:grid.cell_start[cid + 1]]
            assert all(grid.cell_of_node[v] == cid for v in members)
            assert list(members) == sorted(members)

    def test_rejects_bad_m(self):
        inst = generate_network(8, 8.0, seed=0)
        with pytest.raises(ValueError):
            build_cell_grid(inst, 0)
        with pytest.raises(ValueError):
            build_cell_grid(inst, 9)


class TestSupercover:
    def grid(self, n=16):
        inst = generate_network(n, float(n), seed=5)
        return build_cell_grid(inst, M=1), inst

    def test_same_cell(self):
        grid, _ = self.grid()
        cells = walk((0.3, 0.4), (0.6, 0.2), 0, 0, grid)
        assert cells == [flat(grid, 0, 0)]

    def test_axis_aligned_three_cells(self):
        grid, _ = self.grid()
        cells = walk((0.5, 0.5), (2.5, 0.5), flat(grid, 0, 0),
                     flat(grid, 0, 2), grid)
        assert cells == [flat(grid, 0, 0), flat(grid, 0, 1), flat(grid, 0, 2)]

    def test_four_adjacency_random_segments(self):
        grid, inst = self.grid(64)
        gen = np.random.default_rng(9)
        for _ in range(200):
            a, b = gen.choice(inst.n_nodes, size=2, replace=False)
            cells = walk(inst.positions[a], inst.positions[b],
                         grid.cell_of_node[a], grid.cell_of_node[b], grid)
            rc = [divmod(c, grid.columns) for c in cells]
            assert len(set(cells)) == len(cells)
            for (r0, c0), (r1, c1) in zip(rc, rc[1:]):
                assert abs(r0 - r1) + abs(c0 - c1) == 1

    def test_exact_corner_steps_horizontal_first(self):
        grid, _ = self.grid()
        cells = walk((0.5, 0.5), (2.5, 2.5), flat(grid, 0, 0),
                     flat(grid, 2, 2), grid)
        rc = [divmod(c, grid.columns) for c in cells]
        assert rc[0] == (0, 0) and rc[-1] == (2, 2)
        assert rc[1] == (0, 1)   # horizontal tie-break at the corner
        # in its end column a walk steps vertically at a tie, so a segment
        # that ends on a corner while it moves left or down stays there
        assert walk((np.nextafter(1.0, 0.0), 0.0), (0.0, 1.0), flat(grid, 0, 0),
                    flat(grid, 1, 0), grid) == [flat(grid, 0, 0), flat(grid, 1, 0)]
        assert walk((2.5, 2.5), (1.0, 1.0), flat(grid, 2, 2), flat(grid, 1, 1), grid) == [
            flat(grid, 2, 2), flat(grid, 2, 1), flat(grid, 1, 1)]


    def test_unreachable_end_cell_raises(self):
        grid, _ = self.grid()                  # 4 x 8 unit cells
        with pytest.raises(AssertionError):    # wrong row
            walk((0.5, 0.5), (2.5, 0.5), flat(grid, 0, 0), flat(grid, 1, 2), grid)
        with pytest.raises(AssertionError):    # behind the start
            walk((2.5, 0.5), (3.5, 0.5), flat(grid, 0, 2), flat(grid, 0, 1), grid)
        # the segment leaves the grid through its right edge before it
        # reaches the end cell's row; a clamp back onto the edge would
        # have reached that cell through repeated cells
        with pytest.raises(AssertionError):
            walk((6.5, 0.5), (9.5, 3.5), flat(grid, 0, 6), flat(grid, 3, 7), grid)

    def assert_matches_scalar(self, grid, p0, p1):
        """The all-lines walk equals the scalar walk on every segment, and
        the scalar walk never clamps a step back into the grid."""
        cell0, cell1 = bin_points(grid, p0), bin_points(grid, p1)
        want, starts = [], [0]
        for a, b, c0, c1 in zip(p0, p1, cell0, cell1):
            cells = scalar_supercover(a, b, c0, c1, grid)
            assert len(set(cells)) == len(cells)
            want.extend(cells)
            starts.append(len(want))
        assert _walk_block(p0, p1, cell0, cell1, grid).tolist() == want
        assert np.diff(starts).tolist() == manhattan_lengths(cell0, cell1, grid).tolist()

    @pytest.mark.parametrize("n,M", [(16, 1), (1000, 3), (4096, 16)])
    def test_matches_scalar_walk_random_segments(self, n, M):
        grid = build_cell_grid(generate_network(n, float(n), seed=n), M)
        width, height = grid.columns * grid.cell_side, grid.rows * grid.cell_side
        gen = np.random.default_rng(n + M)
        p0 = gen.uniform((0.0, 0.0), (width, height), size=(2000, 2))
        p1 = gen.uniform((0.0, 0.0), (width, height), size=(2000, 2))
        self.assert_matches_scalar(grid, p0, p1)

    @pytest.mark.parametrize("n,M", [(16, 1), (1000, 3)])
    def test_matches_scalar_walk_built_segments(self, n, M):
        grid = build_cell_grid(generate_network(n, float(n), seed=n), M)
        s = grid.cell_side
        width, height = grid.columns * s, grid.rows * s
        x_in, y_in = np.nextafter(width, 0.0), np.nextafter(height, 0.0)
        k = 3                                  # both grids have more rows
        segments = [
            # same cell
            ((0.2 * s, 0.3 * s), (0.7 * s, 0.9 * s)),
            # axis aligned, inside cells and along cell edges
            ((0.5 * s, 0.5 * s), (5.5 * s, 0.5 * s)),
            ((0.5 * s, 0.5 * s), (0.5 * s, (k - 0.5) * s)),
            ((0.0, 1.0 * s), (x_in, 1.0 * s)),
            ((2.0 * s, 0.0), (2.0 * s, y_in)),
            ((x_in, y_in), (0.0, y_in)),
            # diagonals through exact corners, both directions
            ((0.5 * s, 0.5 * s), ((k - 0.5) * s, (k - 0.5) * s)),
            (((k - 0.5) * s, 0.5 * s), (0.5 * s, (k - 0.5) * s)),
            ((1.0 * s, 1.0 * s), (k * s, k * s)),
            ((0.0, 0.0), (x_in, y_in)),
            ((x_in, 0.0), (0.0, y_in)),
            # endpoints on cell edges and one ulp inside the outer boundary
            ((3.0 * s, 0.25 * s), (x_in, 0.75 * s)),
            ((x_in, 0.5 * s), (0.0, y_in)),
            ((0.5 * s, y_in), (x_in, 0.0)),
            ((2.0 * s, 1.0 * s), (5.0 * s, y_in)),
        ]
        p0, p1 = (np.array(p, dtype=float) for p in zip(*segments))
        self.assert_matches_scalar(grid, p0, p1)

    @pytest.mark.parametrize("n,M", [(16, 1), (1000, 3)])
    def test_block_of_one_cell_walks(self, n, M):
        # every line stays in its start cell, so the block's crossing and
        # step arrays have no column at all
        grid = build_cell_grid(generate_network(n, float(n), seed=n), M)
        gen = np.random.default_rng(n)
        corner = gen.integers(0, (grid.columns, grid.rows), size=(300, 2))
        p0 = (corner + gen.uniform(0.1, 0.9, size=(300, 2))) * grid.cell_side
        p1 = (corner + gen.uniform(0.1, 0.9, size=(300, 2))) * grid.cell_side
        p1[:3] = p0[:3]                        # and zero-length segments
        assert (bin_points(grid, p0) == bin_points(grid, p1)).all()
        self.assert_matches_scalar(grid, p0, p1)

    @pytest.mark.parametrize("n,M", [(16, 1), (1000, 3)])
    def test_unstepped_axis_beside_long_lines(self, n, M):
        # A line that moves along an axis without crossing a cell edge on it
        # (dx != 0 but no x step) has finite crossing times past its end
        # cell.  Long lines in the same block pad the crossing-time columns
        # out to theirs, and the count of x crossings before each y step
        # must leave the padded times out, even when the end point lies
        # one ulp short of the next edge.
        grid = build_cell_grid(generate_network(n, float(n), seed=n), M)
        s = grid.cell_side
        width, height = grid.columns * s, grid.rows * s
        x_in, y_in = np.nextafter(width, 0.0), np.nextafter(height, 0.0)
        edge = np.nextafter(s, 0.0)
        segments = [
            ((0.5 * s, 0.5 * s), (x_in, y_in)),          # long lines
            ((x_in, 0.5 * s), (0.5 * s, y_in)),
            ((0.1 * s, 0.5 * s), (edge, y_in)),         # no x step, edge short
            ((edge, 0.5 * s), (0.1 * s, y_in)),
            ((0.5 * s, 0.1 * s), (x_in, edge)),         # no y step, edge short
            ((x_in, edge), (0.5 * s, 0.1 * s)),
            ((0.2 * s, 0.2 * s), (edge, edge)),         # one cell, both short
            ((2.5 * s, 0.5 * s), (2.5 * s + 1e-9 * s, y_in)),   # nearly vertical
            ((0.5 * s, 2.5 * s), (x_in, 2.5 * s - 1e-9 * s)),   # nearly horizontal
        ]
        gen = np.random.default_rng(n + M)
        col = gen.integers(0, grid.columns, size=200)
        row = gen.integers(0, grid.rows, size=200)
        for c, r in zip(col, row):                   # one axis stays put
            (a, b) = gen.uniform(0.0, 1.0, size=2)
            segments.append((((c + a) * s, 0.5 * s), ((c + b) * s, y_in)))
            segments.append(((0.5 * s, (r + a) * s), (x_in, (r + b) * s)))
        p0, p1 = (np.array(p, dtype=float) for p in zip(*segments))
        c0, c1 = bin_points(grid, p0) % grid.columns, bin_points(grid, p1) % grid.columns
        unstepped = (c0 == c1) & (p0[:, 0] != p1[:, 0])
        assert unstepped.sum() > 100 and np.abs(c1 - c0).max() == grid.columns - 1
        self.assert_matches_scalar(grid, p0, p1)

    @staticmethod
    def estimate_errors(grid, p0, p1):
        """Per y step of each segment: the walk's spacing estimate of the x
        crossings no later than that y crossing, less their exact count."""
        s = grid.cell_side
        cell0, cell1 = bin_points(grid, p0), bin_points(grid, p1)
        (r0, c0), (r1, c1) = np.divmod(cell0, grid.columns), np.divmod(cell1, grid.columns)
        dx, dy = p1[:, 0] - p0[:, 0], p1[:, 1] - p0[:, 1]
        nx, ny = np.abs(c1 - c0), np.abs(r1 - r0)
        tx = _crossing_times(c0 + (dx > 0), p0[:, 0], dx, s, int(nx.max()))
        ty = _crossing_times(r0 + (dy > 0), p0[:, 1], dy, s, int(ny.max()))
        errors = []
        for j in range(len(dx)):
            for t in ty[j, :ny[j]]:
                estimate = min(max(math.floor((t - tx[j, 0]) / abs(s / dx[j])) + 1, 0), nx[j])
                errors.append(estimate - int((tx[j, :nx[j]] <= t).sum()))
        return errors

    @pytest.mark.parametrize("n,M", [(4096, 1), (16384, 4)])
    def test_spacing_estimate_corrected_both_ways(self, n, M):
        # A line through exact cell corners (cells of side 1 and 2 here)
        # crosses an x edge and a y edge at once, up to rounding, so the
        # spacing estimate of the x crossings before a y crossing is one too
        # many or one too few, and the walk must correct it both ways.  Long
        # shallow lines join them.
        grid = seeded_grid(n, M)
        s = grid.cell_side
        segments = []
        for p in range(1, 24):
            for q in range(1, 6):
                k = min((grid.columns - 1) // p, (grid.rows - 1) // q)
                segments.append(((0.0, 0.0), (k * p * s, k * q * s)))
                segments.append(((k * p * s, k * q * s), (0.0, 0.0)))
        x_in = np.nextafter(grid.columns * s, 0.0)
        segments += [((0.5 * s, 0.5 * s), (x_in, (0.5 + i / 7) * s)) for i in range(1, 60)]
        p0, p1 = (np.array(p, dtype=float) for p in zip(*segments))
        errors = self.estimate_errors(grid, p0, p1)
        assert errors.count(1) > 20 and errors.count(-1) > 5
        self.assert_matches_scalar(grid, p0, p1)

    @settings(max_examples=200)
    @given(drawn=st.sampled_from([(16, 1), (1000, 3), (4096, 1)]).flatmap(edge_segments))
    @example(drawn=((16, 1), [((np.nextafter(1.0, 0.0), 0.0), (0.0, 1.0)),
                              ((2.5, 2.5), (1.0, 1.0))]))   # corner ends, unit cells
    def test_matches_scalar_walk_edge_segments(self, drawn):
        # Endpoints on cell edges, or one ulp off them, put crossings of the
        # two axes at or next to one time.  Both walks step y at a tie once
        # in the end column, so a segment that ends on a corner while it
        # moves left or down walks.  Where rounded crossing times put an x
        # crossing past the end column before the last y crossing, or the
        # reverse, the scalar walk fails or clamps, and the all-lines walk
        # must raise.  A subnormal step's spacing overflows to inf, no
        # crossing, which the scalar walk warns of and the all-lines walk
        # does not.
        shape, segments = drawn
        grid = seeded_grid(*shape)
        p0, p1 = (np.array(p, dtype=float) for p in zip(*segments))
        cell0, cell1 = bin_points(grid, p0), bin_points(grid, p1)
        walkable = np.ones(len(p0), dtype=bool)
        with np.errstate(over="ignore"):
            for j in range(len(p0)):
                try:
                    cells = scalar_supercover(p0[j], p1[j], cell0[j], cell1[j], grid)
                    walkable[j] = len(set(cells)) == len(cells)
                except AssertionError:
                    walkable[j] = False
            if walkable.any():
                self.assert_matches_scalar(grid, p0[walkable], p1[walkable])
        for j in np.flatnonzero(~walkable):
            with pytest.raises(AssertionError, match="failed to reach"):
                _walk_block(p0[j:j + 1], p1[j:j + 1], cell0[j:j + 1], cell1[j:j + 1], grid)

    def test_subnormal_step_crosses_nothing(self):
        # s / dy overflows to inf: the segment never crosses a row edge
        grid, _ = self.grid()
        assert walk((0.5, 5e-324), (2.5, 0.0), 0, flat(grid, 0, 2), grid) == [
            flat(grid, 0, 0), flat(grid, 0, 1), flat(grid, 0, 2)]
        assert walk((0.0, 0.5), (5e-324, 1.5), 0, flat(grid, 1, 0), grid) == [
            flat(grid, 0, 0), flat(grid, 1, 0)]


class TestRouting:
    def test_endpoint_rule_and_conservation(self):
        inst = generate_network(128, 128.0, seed=11)
        grid = build_cell_grid(inst, M=4)
        plan = route_sd_lines(grid, inst, seed=11)
        for j, nodes in enumerate(assignments(plan)):
            assert nodes[0] == inst.source_ids[j]
            assert nodes[-1] == inst.dest_ids[j]
        relays = np.concatenate(relay_cells_of(plan, grid))
        assert np.array_equal(plan.cell_load, np.bincount(relays, minlength=grid.n_cells))
        assert plan.node_load.sum() == sum(len(a) for a in assignments(plan))

    def test_deterministic_given_seed(self):
        inst = generate_network(64, 64.0, seed=4)
        grid = build_cell_grid(inst, M=4)
        a = route_sd_lines(grid, inst, seed=7)
        b = route_sd_lines(grid, inst, seed=7)
        assert all(np.array_equal(x, y) for x, y in zip(assignments(a), assignments(b)))
        assert np.array_equal(a.cell_load, b.cell_load)

    def test_relays_live_in_their_cells(self):
        inst = generate_network(64, 64.0, seed=4)
        grid = build_cell_grid(inst, M=4)
        plan = route_sd_lines(grid, inst, seed=7)
        pool_size = np.diff(grid.cell_start)
        for cells, nodes in zip(plan.cell_paths, assignments(plan)):
            for h in range(1, len(nodes) - 1):
                if pool_size[cells[h]]:
                    assert grid.cell_of_node[nodes[h]] == cells[h]

    def test_empty_cell_rerouted_and_counted(self):
        # sources in the leftmost cell column, destinations in the
        # rightmost one; the two middle columns stay empty
        gen = np.random.default_rng(3)
        side = math.sqrt(8.0)
        cell = side / 2.0
        sources = gen.uniform((0.05, 0.05), (0.9 * cell, side - 0.05), size=(8, 2))
        dests = gen.uniform((3.1 * cell, 0.05), (2 * side - 0.05, side - 0.05),
                            size=(8, 2))
        inst = hand_instance(np.vstack([sources, dests]), area_A=8.0)
        grid = build_cell_grid(inst, M=2)              # 2x4 grid
        assert (grid.rows, grid.columns) == (2, 4)
        plan = route_sd_lines(grid, inst, seed=1)
        assert plan.reroutes > 0
        # a relay sits outside its path cell exactly where that cell is empty
        pool_size = np.diff(grid.cell_start)
        moved = 0
        for cells, relays in zip(plan.cell_paths, relay_cells_of(plan, grid)):
            assert np.array_equal(relays != cells, pool_size[cells] == 0)
            moved += int((relays != cells).sum())
        assert moved == plan.reroutes

    @staticmethod
    def assert_matches_loop(inst, M, route_seed):
        grid = build_cell_grid(inst, M)
        plan = route_sd_lines(grid, inst, seed=route_seed)
        paths, relay_cells, want_nodes, cell_load, node_load, reroutes = (
            loop_route_sd_lines(grid, inst, route_seed))
        assert len(plan.path_start) == len(plan.node_start) == inst.n_pairs + 1
        assert plan.path_start[0] == plan.node_start[0] == 0
        assert plan.path_start[-1] == sum(map(len, plan.cell_paths))
        assert plan.node_start[-1] == len(plan.nodes)
        one_cell = np.cumsum([len(p) == 1 for p in paths])
        assert np.array_equal(plan.node_start - plan.path_start,
                              np.concatenate(([0], one_cell)))
        assert [p.tolist() for p in plan.cell_paths] == paths
        assert [p.tolist() for p in relay_cells_of(plan, grid)] == relay_cells
        assert len(assignments(plan)) == len(want_nodes)
        for got, want in zip(assignments(plan), want_nodes):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        for got, want in ((plan.cell_load, cell_load), (plan.node_load, node_load)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert plan.reroutes == reroutes and type(plan.reroutes) is int
        snr_s, alpha = 3.0, 4.0
        relay_rate = 0.25 * M ** -0.05 * math.log2(1.0 + M ** (1.0 - alpha / 2) * snr_s)
        est = hybrid_throughput(plan, M, snr_s, alpha)
        assert est.aggregate_T == loop_hybrid_aggregate(want_nodes, node_load,
                                                        relay_rate)

    # M = n tiles the network with two cells, so most lines are one-cell
    @pytest.mark.parametrize("M,n", [(M, n) for n in (16, 128, 1024, 4096)
                                     for M in (1, 4, 16)]
                             + [("n", n) for n in (16, 128, 1024)])
    def test_matches_per_line_loop(self, n, M):
        for seed in range(2 if n == 4096 else 3):
            self.assert_matches_loop(generate_network(n, float(n), seed=seed),
                                     n if M == "n" else M, seed + 7)

    @pytest.mark.parametrize("n", [128, 1024])
    @pytest.mark.parametrize("M", [1, 4])
    def test_matches_per_line_loop_at_derived_seeds(self, n, M):
        # The harness and the CLI route on 63-bit derived seeds, which are
        # two 32-bit words of SeedSequence entropy.
        for i_inst in range(2):
            seed = rng.derived_seed(11, rng.EXPERIMENT, n, i_inst)
            assert seed >= 2 ** 32
            self.assert_matches_loop(generate_network(n, float(n), seed=seed),
                                     M, seed)

    def test_opens_no_substream(self, monkeypatch):
        inst = generate_network(256, 256.0, seed=3)
        grid = build_cell_grid(inst, 1)

        def refuse(*args):
            raise AssertionError("route_sd_lines opened a per-line substream")

        monkeypatch.setattr(rng, "substream", refuse)
        plan = route_sd_lines(grid, inst, seed=rng.derived_seed(3, rng.EXPERIMENT))
        assert sum(map(len, plan.cell_paths)) > 2 * len(plan.cell_paths)

    def test_simulate_hybrid_reads_only_the_flat_plan(self, monkeypatch):
        inst = generate_network(256, 256.0, seed=3)
        want, _ = simulate_hybrid(inst, 3.0, 4.0, M=1)

        def refuse(plan):
            raise AssertionError("a per-line view of the plan was read")

        # cell_paths walks the lines again: a sweep must not
        monkeypatch.setattr(RelayPlan, "cell_paths", property(refuse))
        got, plan = simulate_hybrid(inst, 3.0, 4.0, M=1)
        assert got == want
        with pytest.raises(AssertionError):
            plan.cell_paths
        config = ExperimentConfig(kind="scheme", scheme="hybrid", alpha=4.0,
                                  beta=0.04, n_list=[256])
        snr_s, area = operating_point(256, 4.0, 0.04)
        M = hybrid_cell_size(snr_s, 4.0, 256)
        seed = rng.derived_seed(5, rng.EXPERIMENT, 0, 0)
        est, got_M, _ = harness.run_scheme(config, 256, seed)
        assert got_M == M == 1
        assert est == simulate_hybrid(generate_network(256, area, seed), snr_s, 4.0,
                                      M=M)[0]

    def test_tie_draws_match_scalar_draws(self):
        # Each line draws its relay picks and then all its tie-breaks in one
        # array call.  That call must give the values, and leave the
        # generator in the state, of one scalar call per tie-break; a numpy
        # change here would move the hybrid output bytes.
        gen = np.random.default_rng(17)
        for case in range(300):
            ks = gen.integers(1, 6, size=int(gen.integers(1, 12)))
            ks[gen.random(len(ks)) < 0.3] = 1           # k == 1 draws nothing
            size = int(gen.integers(1, 40))
            a = rng.substream(case, rng.RELAY, 3)
            b = rng.substream(case, rng.RELAY, 3)
            assert np.array_equal(a.integers(0, 2 ** 31, size=size),
                                  b.integers(0, 2 ** 31, size=size))
            batched = a.integers(0, ks)
            scalar = [int(b.integers(0, int(k))) for k in ks]
            assert batched.tolist() == scalar
            assert a.integers(0, 2 ** 62) == b.integers(0, 2 ** 62)

    def test_load_concentration_small(self):
        n, M = 1024, 16
        for seed in (0, 1, 2):
            inst = generate_network(n, float(n), seed=seed)
            plan = route_sd_lines(build_cell_grid(inst, M), inst, seed=seed)
            assert plan.max_cell_load <= 4 * math.sqrt(n * M)

    def test_peak_memory_bounded(self):
        # At n = 4096, M = 1 routing walks 265,108 cells.  simulate_hybrid
        # peaks at 19 bytes per walked cell (5.06 MB, 0.83 of the routing
        # count): 8 for the intp relay nodes, and one block's walk
        # temporaries (0.67 MB).  Walking all 4096 lines in one block
        # instead of in blocks of 256 takes 10.5 MB for the walk alone.
        n = 4096
        inst = generate_network(n, float(n), seed=0)
        peak, (_, plan) = traced_peak(simulate_hybrid, inst, 3.0, 4.0, M=1)
        assert peak < self.routing_count(plan, n)

    @staticmethod
    def routing_count(plan, n):
        """The routing pre-flight's count for the plan's n lines."""
        return routing_bytes(n, int(plan.path_start[-1]), plan.grid.rows, plan.grid.columns)

    @pytest.mark.parametrize("M", [1, 4096])
    def test_routing_peak_within_counted_bytes(self, M):
        # At M = 1 the walked cells and the walk block dominate (265,108
        # cells, peak 0.80 of the count); at M = n, two cells, the keys and
        # line arrays (0.89).  Over n = 64-16384, M in {1, 4, 16, n} and
        # seeds 0-3 the peak read 0.49-0.92 of the count.
        n = 4096
        inst = generate_network(n, float(n), seed=0)
        grid = build_cell_grid(inst, M)
        route_sd_lines(grid, inst, 1)                     # first-use allocations
        peak, plan = traced_peak(route_sd_lines, grid, inst, 0)
        assert peak < self.routing_count(plan, n)

    def test_routing_beyond_memory_refused_before_the_plan(self, monkeypatch):
        inst = generate_network(64, 64.0, seed=0)
        grid = build_cell_grid(inst, 1)
        need = self.routing_count(route_sd_lines(grid, inst, 0), 64)
        made = recording_keys(monkeypatch)
        physical_memory_is(monkeypatch, need - 1)
        with pytest.raises(ValueError, match="64 lines.*physical memory"):
            route_sd_lines(grid, inst, 0)
        assert made == []
        physical_memory_is(monkeypatch, need)
        route_sd_lines(grid, inst, 0)
        assert len(made) == 1


def _words_drawn(bit_generator):
    """32-bit words a freshly keyed Philox has handed out, from its state.

    The counter steps to 1 when the first block of four raw words is made;
    a buffered high half has not been handed out yet.
    """
    state = bit_generator.state
    blocks = int(state["state"]["counter"][0])
    raw = 4 * (blocks - 1) + state["buffer_pos"] if blocks else 0
    return 2 * raw - state["has_uint32"]


class TestRelayDraws:
    @staticmethod
    def numpy_draws(keys, n_picks, ks, n_ties):
        """Per-line re-keyed ``Generator.integers`` calls: (picks, ties,
        lines whose tie-breaks rejected a word)."""
        picks, ties, rejected, t = [], [], 0, 0
        for gen, size, count in zip(rng.keyed_generators(keys), n_picks, n_ties):
            picks.extend(gen.integers(0, 2 ** 31, size=size).tolist())
            line_ks = ks[t:t + count]
            t += count
            if count:
                ties.extend(gen.integers(0, line_ks).tolist())
            rejected += _words_drawn(gen.bit_generator) > size + int((line_ks > 1).sum())
        return picks, ties, rejected

    def assert_matches_numpy(self, seed, n_picks, ks, n_ties):
        keys = rng.philox_keys(seed, (rng.RELAY,), np.arange(len(n_picks))).tolist()
        picks, ties = rng.relay_draws(keys, n_picks, ks, n_ties)
        want_picks, want_ties, rejected = self.numpy_draws(keys, n_picks, ks, n_ties)
        assert picks.dtype == ties.dtype == np.int64
        assert picks.tolist() == want_picks
        assert ties.tolist() == want_ties
        return rejected

    def test_matches_integers(self):
        gen = np.random.default_rng(23)
        parities = set()
        for case in range(40):
            n_picks = gen.integers(0, 9, size=12)
            n_picks[:4] = (0, 1, 2, 3)
            n_ties = gen.integers(0, 5, size=12)
            n_ties[gen.random(12) < 0.3] = 0               # lines with no ties
            ks = gen.integers(1, 6, size=int(n_ties.sum()))
            ks[gen.random(len(ks)) < 0.3] = 1              # k == 1 draws nothing
            line = np.repeat(np.arange(12), n_ties)
            words = n_picks + np.bincount(line[ks > 1], minlength=12)
            parities.update((words % 2).tolist())
            assert self.assert_matches_numpy(case, n_picks, ks, n_ties) == 0
        assert parities == {0, 1}                          # odd and even word counts

    def test_rejections_shift_later_words(self):
        # For 2**31 < k < 3e9, 2**32 % k = 2**32 - k, so numpy rejects and
        # redraws 30-50% of the tie-break words.
        gen = np.random.default_rng(29)
        n_picks = gen.integers(0, 7, size=200)
        n_ties = gen.integers(0, 6, size=200)
        ks = gen.integers(2 ** 31 + 1, 3_000_000_000, size=int(n_ties.sum()))
        ks[gen.random(len(ks)) < 0.2] = 1
        rejected = self.assert_matches_numpy(5, n_picks, ks, n_ties)
        assert rejected > 50


class TestHybridThroughput:
    @settings(max_examples=300)
    @given(data=st.data(), loads=st.lists(st.integers(1, 2 ** 53), min_size=1, max_size=64),
           rate=st.floats(5e-324, 1.7976931348623157e308))
    def test_rate_over_peak_load_is_min_share(self, data, loads, rate):
        # hybrid_throughput divides the budget once by each line's peak load
        # instead of taking the least of its shares: correctly rounded
        # division by a positive number is monotone in the divisor, so the
        # two agree bit for bit, subnormal and huge rates included.
        loads = np.array(loads, dtype=np.intp)
        cuts = data.draw(st.sets(st.integers(0, len(loads) - 1)))
        start = np.array(sorted(cuts | {0}))
        got = rate / np.maximum.reduceat(loads, start)
        want = np.minimum.reduceat(rate / loads, start)
        assert got.tobytes() == want.tobytes()

    def test_rejects_bad_epsilon_or_k3(self):
        inst = generate_network(64, 64.0, seed=2)
        plan = route_sd_lines(build_cell_grid(inst, 1), inst, 2)
        for constants in ({"epsilon": 0.0}, {"K3": 0.0}, {"epsilon": -1.0, "K3": 1.0}):
            with pytest.raises(ValueError, match="epsilon and K3"):
                hybrid_throughput(plan, 1, 3.0, 4.0, **constants)

    def test_unit_cell_hop_rate(self):
        # M = 1 reduces the per-hop budget to (K3/4) * log2(1 + snr)
        inst = generate_network(64, 64.0, seed=2)
        est, plan = simulate_hybrid(inst, snr_s=3.0, alpha=4.0,
                                    epsilon=0.05, K3=2.0, M=1)
        rate = (2.0 / 4.0) * math.log2(4.0)
        shares = [min(rate / plan.node_load[v] for v in nodes)
                  for nodes in assignments(plan)]
        assert est.aggregate_T == pytest.approx(math.fsum(shares), rel=1e-12)

    def test_zero_db_cell_boundary(self):
        # M^(1-alpha/2) * snr = 1 at alpha 4, snr 16, M 16: the per-hop
        # log term is exactly one bit
        inst = generate_network(256, 256.0, seed=3)
        est, plan = simulate_hybrid(inst, snr_s=16.0, alpha=4.0, M=16)
        budget = 0.25 * 16 ** -0.05 * 1.0
        shares = [min(budget / plan.node_load[v] for v in nodes)
                  for nodes in assignments(plan)]
        assert est.aggregate_T == pytest.approx(math.fsum(shares), rel=1e-12)

    def test_aggregate_is_n_times_mean_rate(self):
        inst = generate_network(128, 128.0, seed=5)
        est, _ = simulate_hybrid(inst, snr_s=4.0, alpha=4.0,
                                 M=hybrid_cell_size(4.0, 4.0, 128))
        assert est.aggregate_T == pytest.approx(128 * est.per_pair_R, rel=1e-12)

    def test_degenerate_equivalence_slopes(self):
        # M = 1 tracks the multihop sqrt(n) scaling at desk scale; the
        # min-share accounting drags the simulated slope slightly below
        ns = (256, 512, 1024, 2048)
        hyb = []
        for i, n in enumerate(ns):
            _, area = operating_point(n, 4.0, 0.0)
            vals = []
            for t in range(6):
                inst = generate_network(n, area, seed=100 * i + t)
                est, _ = simulate_hybrid(inst, 1.0, 4.0, M=1)
                vals.append(est.aggregate_T)
            hyb.append((n, sum(vals) / len(vals)))
        mh = [(n, multihop_throughput(n, 1.0).aggregate_T) for n in ns]
        diff = abs(fit_exponent(hyb).slope - fit_exponent(mh).slope)
        assert diff < 0.12
