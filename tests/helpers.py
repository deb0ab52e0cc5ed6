"""Shared helpers and independent oracles for the test suite.

Oracles are written in the plainest possible style (double loops, direct
formulas) so they stay independent of the library's vectorized paths.
"""

import json
import math
import os
import tracemalloc
from typing import NamedTuple

import numpy as np
from scipy import ndimage

from netregime import rng
from netregime.harness import fit_exponent
from netregime.network import NetworkInstance, pair_sums
from netregime.percolation import (_EIGHT, _FOUR, CrossingStudy, _draw_slab_units,
                                   _open_grid, _unit_cells,
                                   analytic_failure_bound, build_occupancy_grid,
                                   decay_condition_holds, has_open_crossing)
from netregime.regimes import phase_diagram_rows


def phase_diagram(alpha_range=(2.0, 6.0), beta_range=(-1.0, 3.0),
                  resolution=(100, 100)):
    """Row-major classification grid: alpha varies in the outer loop; the
    rows of ``regimes.phase_diagram_rows``, concatenated."""
    return [point for row in phase_diagram_rows(alpha_range, beta_range, resolution)
            for point in row]


def snr_short(n, area, alpha, G=1, P=1, N0=1, W=1):
    """Nearest-neighbor SNR G*P / (N0*W*(A/n)^(alpha/2)) of n pairs on area A."""
    return G * P / (N0 * W * (area / n) ** (alpha / 2.0))


def pin_cpus(monkeypatch, count):
    """Make ``os.sched_getaffinity`` report ``count`` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)


def traced_peak(run, *args, **kwargs):
    """Peak bytes tracemalloc sees while run(*args, **kwargs) runs, and its
    result, which is still held when the peak is read."""
    tracemalloc.start()
    try:
        result = run(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def physical_memory_is(monkeypatch, total):
    """Make ``os.sysconf`` report ``total`` bytes of physical memory."""
    real = os.sysconf
    monkeypatch.setattr(os, "sysconf", lambda name: 1 if name == "SC_PAGE_SIZE"
                        else total if name == "SC_PHYS_PAGES" else real(name))


def recording_keys(monkeypatch):
    """Record each call of ``rng.philox_keys`` in the returned list."""
    calls, real = [], rng.philox_keys

    def philox_keys(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(rng, "philox_keys", philox_keys)
    return calls


def hybrid_analytic_per_pair(n, M, epsilon, K3=1.0):
    """Analytic hybrid per-pair rate (K3/4) * sqrt(M) * n^(-1/2-eps)."""
    return (K3 / 4.0) * math.sqrt(M) * n ** (-0.5 - epsilon)


def uniform_generate_network(n_pairs, area_A, seed):
    """Instance oracle: positions drawn with ``uniform`` on the rectangle,
    roles by sorting the two halves of a permutation, and the pairing."""
    side = math.sqrt(area_A)
    gen = rng.substream(seed, rng.POSITIONS)
    positions = gen.uniform((0.0, 0.0), (2 * side, side), size=(2 * n_pairs, 2))
    role_perm = rng.substream(seed, rng.ROLES).permutation(2 * n_pairs)
    source_ids = np.sort(role_perm[:n_pairs])
    dest_pool = np.sort(role_perm[n_pairs:])
    dest_ids = rng.substream(seed, rng.PAIRING).permutation(dest_pool)
    return positions, source_ids, dest_ids


def instance_crossing_probability(n, cs, trials, seed):
    """Crossing-rate oracle: the full-draw trial.  Each trial draws a full
    oracle instance of 2n nodes and builds an occupancy grid on it for each
    c in ``cs``.  Returns one study per c, all on the same instances."""
    hits = [0] * len(cs)
    for t in range(trials):
        positions, sources, dests = uniform_generate_network(
            n, float(n), rng.derived_seed(seed, rng.EXPERIMENT, t))
        inst = NetworkInstance(n, float(n), 0, positions, sources, dests)
        for i, c in enumerate(cs):
            hits[i] += has_open_crossing(build_occupancy_grid(inst, c))
    return [CrossingStudy(n, c, trials, h / trials, analytic_failure_bound(n, c),
                          decay_condition_holds(c)) for c, h in zip(cs, hits)]


def hand_instance(positions, area_A, seed=0):
    """Build an instance from explicit positions; first half are sources."""
    positions = np.asarray(positions, dtype=float)
    n2 = len(positions)
    assert n2 % 2 == 0
    n = n2 // 2
    return NetworkInstance(n, float(area_A), seed, positions,
                           source_ids=np.arange(n),
                           dest_ids=np.arange(n, 2 * n))


def instance_from_json(text):
    """Rebuild an instance from the JSON of ``harness.instance_json``."""
    doc = json.loads(text)
    pairing = np.asarray(doc["pairing"], dtype=np.intp)
    return NetworkInstance(int(doc["n"]), float(doc["area_A"]), int(doc["seed"]),
                           np.asarray(doc["positions"], dtype=float),
                           source_ids=pairing[:, 0], dest_ids=pairing[:, 1])


class ProfileEntry(NamedTuple):
    node: int
    d_hat: float
    d_hat_approx: float


def power_profile(instance, alpha, target_ids, source_ids=None):
    """The library's d_hat for each target plus the xhat^(2-alpha) approximation.

    ``source_ids`` defaults to all nodes left of the midline.
    """
    targets = np.asarray(target_ids, dtype=np.intp)
    mid = instance.side
    if source_ids is None:
        sources = np.nonzero(instance.positions[:, 0] < mid)[0]
    else:
        sources = np.asarray(source_ids, dtype=np.intp)
    d = pair_sums(instance, targets, sources, -alpha)
    xhat = (instance.positions[targets, 0] - mid) / instance.nn_scale
    approx = xhat ** (2.0 - alpha) if alpha != 2.0 else np.ones_like(xhat)
    return [ProfileEntry(int(i), float(dh), float(ap))
            for i, dh, ap in zip(targets, d, approx)]


def tail_points(table):
    """Largest max(4, len-2) points when at least 6 are present, else all.

    Small-n transients bias finite-range fits; dropping the smallest
    points when enough remain gives a steadier exponent estimate.
    """
    pts = sorted(table, key=lambda t: t[0])
    if len(pts) >= 6:
        keep = max(4, len(pts) - 2)
        return pts[-keep:]
    return pts


def fit_full_and_tail(table, theory_exponent=math.nan):
    """(full-range fit, tail fit) of the same table."""
    return (fit_exponent(table, theory_exponent),
            fit_exponent(tail_points(table), theory_exponent))


def brute_dhat(instance, alpha, targets, sources):
    """Double-loop received-power profile: sum over sources of rhat^-alpha."""
    scale = math.sqrt(instance.area_A / instance.n_pairs)
    out = []
    for i in targets:
        xi, yi = instance.positions[i]
        total = 0.0
        for k in sources:
            xk, yk = instance.positions[k]
            r = math.sqrt((xi - xk) ** 2 + (yi - yk) ** 2) / scale
            total += r ** (-alpha)
        out.append(total)
    return out


def unblocked_dhat(instance, alpha, targets, sources):
    """Received-power oracle: one unblocked numpy evaluation of every row."""
    pos = instance.positions
    diff = pos[targets][:, None, :] - pos[sources][None, :, :]
    rhat = np.sqrt(np.sum(diff * diff, axis=2)) / instance.nn_scale
    return np.sum(rhat ** (-alpha), axis=1)


def brute_snr_total(instance, alpha, snr_s, far_ids, source_ids):
    """Independent double sum over all (far node, source) pairs."""
    total = 0.0
    for d in brute_dhat(instance, alpha, far_ids, source_ids):
        total += snr_s * d
    return total


def full_node_phases(n_nodes, phase_seed):
    """Phase oracle: the whole (n_nodes, n_nodes) row-major draw at once."""
    gen = rng.substream(phase_seed, rng.PHASES)
    return gen.uniform(0.0, 2.0 * math.pi, size=(n_nodes, n_nodes))


def full_channel_matrix(instance, alpha, tx, rx, phase_seed, raw_gain=None):
    """Channel oracle: one unblocked evaluation from the full phase draw.

    ``raw_gain=G`` gives physical-unit magnitudes sqrt(G) * r^(-alpha/2)
    instead of rhat^(-alpha/2).
    """
    tx = np.asarray(tx, dtype=np.intp)
    rx = np.asarray(rx, dtype=np.intp)
    diff = instance.positions[rx][:, None, :] - instance.positions[tx][None, :, :]
    r = np.sqrt(np.sum(diff * diff, axis=2))
    if raw_gain is None:
        magnitude = (r / instance.nn_scale) ** (-alpha / 2.0)
    else:
        magnitude = math.sqrt(raw_gain) * r ** (-alpha / 2.0)
    theta = full_node_phases(instance.n_nodes, phase_seed)[np.ix_(rx, tx)]
    return magnitude * np.exp(1j * theta)


def eigvalsh_logdet(entries, snr_s):
    """log2 det(I + snr_s * H H*) from the Hermitian eigenvalues of the smaller Gram."""
    m, k = entries.shape
    if m <= k:
        gram = entries @ entries.conj().T
    else:
        gram = entries.conj().T @ entries
    lam = np.clip(np.linalg.eigvalsh(gram).real, 0.0, None)
    return math.fsum(math.log2(1.0 + snr_s * float(v)) for v in lam)


def _labels_touching(labels, first, last):
    """Whether some label > 0 is on both ``labels[first]`` and ``labels[last]``."""
    a = np.unique(labels[first])
    b = np.unique(labels[last])
    a = a[a > 0]
    b = b[b > 0]
    return bool(np.intersect1d(a, b, assume_unique=True).size)


def exists_closed_lr_crossing(grid):
    """True iff some 8-connected closed component joins the slab's left and right columns."""
    labels, num = ndimage.label(grid.closed, structure=_EIGHT)
    if num == 0:
        return False
    return _labels_touching(labels, (slice(None), 0), (slice(None), -1))


def label_open_top_bottom(closed):
    """Per-slab crossing oracle: one 4-connected labelling of the slab's open
    cells, and whether its top and bottom rows share a label."""
    labels, num = ndimage.label(~np.asarray(closed, dtype=bool), structure=_FOUR)
    if num == 0:
        return False
    return _labels_touching(labels, (0, slice(None)), (-1, slice(None)))


def trial_crossing_hits(n, c, trials, seed):
    """Hit-count oracle for crossing_probability: trial t draws on its own
    substream (seed, CROSSING, t), marks a fresh grid and is checked alone by
    label_open_top_bottom."""
    grid, side, hits = _open_grid(n, float(n), c), math.sqrt(n), 0
    for t in range(trials):
        gen = rng.substream(seed, rng.CROSSING, t)
        closed = np.zeros_like(grid.closed)
        closed[_unit_cells(grid, side, _draw_slab_units(grid, n, side, gen))] = True
        hits += label_open_top_bottom(closed)
    return hits


def bfs_open_top_bottom(closed):
    """Plain-python oracle: is there a 4-connected open top-bottom path?"""
    rows, cols = closed.shape
    seen = set()
    stack = [(0, c) for c in range(cols) if not closed[0, c]]
    seen.update(stack)
    while stack:
        r, c = stack.pop()
        if r == rows - 1:
            return True
        for nr, nc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if (0 <= nr < rows and 0 <= nc < cols and not closed[nr, nc]
                    and (nr, nc) not in seen):
                seen.add((nr, nc))
                stack.append((nr, nc))
    return False


def bfs_closed_left_right(closed):
    """Plain-python oracle: is there an 8-connected closed left-right path?"""
    rows, cols = closed.shape
    seen = set()
    stack = [(r, 0) for r in range(rows) if closed[r, 0]]
    seen.update(stack)
    while stack:
        r, c = stack.pop()
        if c == cols - 1:
            return True
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                nr, nc = r + dr, c + dc
                if (0 <= nr < rows and 0 <= nc < cols and closed[nr, nc]
                        and (nr, nc) not in seen):
                    seen.add((nr, nc))
                    stack.append((nr, nc))
    return False


def brute_b_set(grid, path_cells, positions):
    """Plain-python oracle: in-slab nodes whose cell an 8-connected walk
    over non-path cells joins to the slab's right column."""
    rows, cols = grid.closed.shape
    on_path = set(path_cells)
    stack = [(r, cols - 1) for r in range(rows) if (r, cols - 1) not in on_path]
    seen = set(stack)
    while stack:
        r, c = stack.pop()
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                nr, nc = r + dr, c + dc
                if (0 <= nr < rows and 0 <= nc < cols
                        and (nr, nc) not in on_path and (nr, nc) not in seen):
                    seen.add((nr, nc))
                    stack.append((nr, nc))
    b_set = []
    for i, (x, y) in enumerate(positions):
        if grid.slab_x0 <= x < grid.slab_x1:
            col = min(math.floor((x - grid.slab_x0) / grid.cell_side), cols - 1)
            row = rows - 1 - min(math.floor(y / grid.cell_side), rows - 1)
            if (row, col) in seen:
                b_set.append(i)
    return b_set


def level_distance_to_bottom(open_cells):
    """BFS-distance oracle: grow the bottom row's open cells one level at a
    time over whole-grid masks (-1 for cells cut off from the bottom)."""
    rows, cols = open_cells.shape
    dist = np.full((rows, cols), -1, dtype=np.int64)
    frontier = np.zeros_like(open_cells)
    frontier[-1] = open_cells[-1]
    dist[frontier] = 0
    d = 0
    while frontier.any():
        d += 1
        grown = np.zeros_like(frontier)
        grown[1:, :] |= frontier[:-1, :]
        grown[:-1, :] |= frontier[1:, :]
        grown[:, 1:] |= frontier[:, :-1]
        grown[:, :-1] |= frontier[:, 1:]
        frontier = grown & open_cells & (dist < 0)
        dist[frontier] = d
    return dist


def scalar_find_open_crossing(grid):
    """Crossing oracle: walk back from the leftmost nearest top cell through a
    distance array, one neighbour (up, left, right, down) at a time, and build
    the centerline one cell center at a time.  Returns (cells, vertices) or None."""
    dist = level_distance_to_bottom(grid.open)
    rows, cols = dist.shape
    top = dist[0]
    if not (top >= 0).any():
        return None
    col = int(np.argmax(top == top[top >= 0].min()))
    cells = [(0, col)]
    r, cc = 0, col
    while dist[r, cc] > 0:
        want = dist[r, cc] - 1
        for nr, nc in ((r - 1, cc), (r, cc - 1), (r, cc + 1), (r + 1, cc)):
            if 0 <= nr < rows and 0 <= nc < cols and dist[nr, nc] == want:
                r, cc = nr, nc
                break
        else:
            raise AssertionError("distance field is inconsistent")
        cells.append((r, cc))
    pts = [(grid.slab_x0 + (c + 0.5) * grid.cell_side,
            (grid.total_rows - r - 0.5) * grid.cell_side) for r, c in cells]
    top_y = grid.total_rows * grid.cell_side
    vertices = np.asarray([(pts[0][0], top_y)] + pts + [(pts[-1][0], 0.0)], dtype=float)
    return cells, vertices


def loop_distance_to_polyline(points, vertices):
    """Clearance oracle: per-point distance to the polyline, one numpy pass
    per segment."""
    best = np.full(len(points), np.inf)
    for a, b in zip(vertices[:-1], vertices[1:]):
        ab = b - a
        denom = float(ab @ ab)
        if denom == 0.0:
            d = np.hypot(points[:, 0] - a[0], points[:, 1] - a[1])
        else:
            t = np.clip(((points - a) @ ab) / denom, 0.0, 1.0)
            proj = a + t[:, None] * ab
            d = np.hypot(points[:, 0] - proj[:, 0], points[:, 1] - proj[:, 1])
        np.minimum(best, d, out=best)
    return best


def point_segment_distance(p, a, b):
    """Textbook point-to-segment distance."""
    px, py = p
    ax, ay = a
    bx, by = b
    vx, vy = bx - ax, by - ay
    denom = vx * vx + vy * vy
    if denom == 0.0:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * vx + (py - ay) * vy) / denom
    t = min(1.0, max(0.0, t))
    return math.hypot(px - (ax + t * vx), py - (ay + t * vy))


def brute_polyline_clearance(points, vertices):
    """Minimum distance from any point to any polyline segment, double loop."""
    best = math.inf
    for p in points:
        for a, b in zip(vertices[:-1], vertices[1:]):
            best = min(best, point_segment_distance(p, a, b))
    return best


def flat(grid, row, col):
    """Flat id of cell (row, col) of a CellGrid."""
    return row * grid.columns + col


def mean_occupancy(grid):
    """Nodes per cell of a CellGrid."""
    return len(grid.cell_of_node) / grid.n_cells


def assignments(plan):
    """Each line's relay nodes of a RelayPlan: per-line views of ``plan.nodes``."""
    return np.split(plan.nodes, plan.node_start[1:-1])


def relay_cells_of(plan, grid):
    """Cell of each relay of a RelayPlan, one per path cell of each line.

    A one-cell line's two assignments share its one cell.
    """
    return [grid.cell_of_node[nodes][:len(path)]
            for path, nodes in zip(plan.cell_paths, assignments(plan))]


def cell_pools(grid):
    """Node ids binned into each cell, in increasing order, by one pass."""
    pools = [[] for _ in range(grid.n_cells)]
    for v, cid in enumerate(grid.cell_of_node):
        pools[cid].append(v)
    return pools


def scalar_supercover(p0, p1, cell0, cell1, grid):
    """Scalar Amanatides-Woo 4-connected cell walk, one step per loop turn.

    The original per-line walk, clamp included: a step that leaves the grid
    is pulled back onto its edge.  An exact tie of the next x and y
    crossings steps x, except once the walk is in the end column, where it
    steps y.
    """
    r0, c0 = divmod(int(cell0), grid.columns)
    r1, c1 = divmod(int(cell1), grid.columns)
    cells = [flat(grid, r0, c0)]
    if (r0, c0) == (r1, c1):
        return cells
    dx = p1[0] - p0[0]
    dy = p1[1] - p0[1]
    step_c = 1 if dx > 0 else -1
    step_r = 1 if dy > 0 else -1
    s = grid.cell_side
    if dx != 0:
        edge_x = (c0 + (step_c > 0)) * s
        t_max_x = (edge_x - p0[0]) / dx
        t_dx = abs(s / dx)
    else:
        t_max_x, t_dx = math.inf, math.inf
    if dy != 0:
        edge_y = (r0 + (step_r > 0)) * s
        t_max_y = (edge_y - p0[1]) / dy
        t_dy = abs(s / dy)
    else:
        t_max_y, t_dy = math.inf, math.inf

    r, c = r0, c0
    limit = grid.rows + grid.columns + 4
    for _ in range(limit):
        if t_max_x < t_max_y or (t_max_x == t_max_y and c != c1):
            c += step_c
            t_max_x += t_dx
        else:
            r += step_r
            t_max_y += t_dy
        r = min(max(r, 0), grid.rows - 1)
        c = min(max(c, 0), grid.columns - 1)
        cells.append(flat(grid, r, c))
        if (r, c) == (r1, c1):
            return cells
    raise AssertionError("cell walk failed to reach the destination cell")


def bfs_nearest_occupied(grid, pools, flat_id, gen):
    """Closest non-empty cell by 4-adjacency BFS, ties drawn from ``gen``."""
    rows, cols = grid.rows, grid.columns
    seen = {flat_id}
    frontier = [flat_id]
    while frontier:
        nxt = []
        for fid in sorted(frontier):
            r, c = divmod(fid, cols)
            for nr, nc in ((r - 1, c), (r, c - 1), (r, c + 1), (r + 1, c)):
                if 0 <= nr < rows and 0 <= nc < cols:
                    nid = nr * cols + nc
                    if nid in seen:
                        continue
                    seen.add(nid)
                    nxt.append(nid)
        occupied = sorted(nid for nid in nxt if pools[nid])
        if occupied:
            return occupied[int(gen.integers(0, len(occupied)))]
        frontier = nxt
    raise AssertionError("no occupied cell anywhere in the grid")


def loop_route_sd_lines(grid, instance, seed):
    """Per-line, per-hop routing loop: (cell_paths, relay_cells,
    assignments, cell_load, node_load, reroutes) with the fields of
    ``RelayPlan``."""
    pools = cell_pools(grid)
    cell_paths = []
    relay_cells_all = []
    assignments = []
    cell_load = np.zeros(grid.n_cells, dtype=np.int64)
    node_load = np.zeros(instance.n_nodes, dtype=np.int64)
    reroutes = 0
    for j, (s_id, d_id) in enumerate(zip(instance.source_ids, instance.dest_ids)):
        path = scalar_supercover(instance.positions[s_id], instance.positions[d_id],
                                 grid.cell_of_node[s_id], grid.cell_of_node[d_id],
                                 grid)
        gen = rng.substream(seed, rng.RELAY, j)
        picks = gen.integers(0, 2 ** 31, size=len(path))
        relay_cells = list(path)
        nodes = [0] * len(path)
        nodes[0] = int(s_id)
        nodes[-1] = int(d_id)
        for h in range(1, len(path) - 1):
            cid = path[h]
            pool = pools[cid]
            if len(pool) == 0:
                cid = bfs_nearest_occupied(grid, pools, cid, gen)
                pool = pools[cid]
                relay_cells[h] = cid
                reroutes += 1
            nodes[h] = int(pool[picks[h] % len(pool)])
        if len(path) == 1:
            nodes = [int(s_id), int(d_id)]
        cell_paths.append(path)
        relay_cells_all.append(relay_cells)
        assignments.append(np.asarray(nodes, dtype=np.intp))
        for cid in relay_cells:
            cell_load[cid] += 1
        for v in nodes:
            node_load[v] += 1
    return (cell_paths, relay_cells_all, assignments, cell_load, node_load,
            reroutes)


def loop_hybrid_aggregate(assignments, node_load, relay_rate):
    """Sum over lines of the smallest relay share along each line."""
    per_pair = []
    for nodes in assignments:
        shares = relay_rate / node_load[nodes]
        per_pair.append(float(shares.min()))
    return math.fsum(per_pair)
