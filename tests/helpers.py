"""Shared helpers and independent oracles for the test suite.

Oracles are written in the plainest possible style (double loops, direct
formulas) so they stay independent of the library's vectorized paths.
"""

import json
import math
from typing import NamedTuple

import numpy as np
from scipy import ndimage

from netregime import rng
from netregime.cutset import _dhat
from netregime.harness import fit_exponent
from netregime.network import NetworkInstance
from netregime.percolation import _EIGHT, _labels_touching


def lexsort_has_coincident(positions):
    """Coincidence oracle: sort rows by (y, x) and compare neighbours."""
    order = np.lexsort(positions.T)
    p = positions[order]
    return bool(np.any(np.all(p[1:] == p[:-1], axis=1)))


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
    """Rebuild an instance from the JSON of ``NetworkInstance.to_json``."""
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
    d = _dhat(instance, alpha, targets, sources)
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


def full_channel_matrix(instance, params, tx, rx, phase_seed, rescaled=True):
    """Channel oracle: one unblocked evaluation from the full phase draw.

    ``rescaled=False`` gives physical-unit magnitudes sqrt(G) * r^(-alpha/2)
    instead of rhat^(-alpha/2).
    """
    tx = np.asarray(tx, dtype=np.intp)
    rx = np.asarray(rx, dtype=np.intp)
    diff = instance.positions[rx][:, None, :] - instance.positions[tx][None, :, :]
    r = np.sqrt(np.sum(diff * diff, axis=2))
    if rescaled:
        magnitude = (r / instance.nn_scale) ** (-params.alpha / 2.0)
    else:
        magnitude = math.sqrt(params.gain_G) * r ** (-params.alpha / 2.0)
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


def exists_closed_lr_crossing(grid):
    """True iff some 8-connected closed component joins the slab's left and right columns."""
    labels, num = ndimage.label(grid.closed, structure=_EIGHT)
    if num == 0:
        return False
    return _labels_touching(labels, (slice(None), 0), (slice(None), -1))


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


def relay_cells_of(plan, grid):
    """Cell of each relay of a RelayPlan, one per path cell of each line.

    A one-cell line's two assignments share its one cell.
    """
    return [grid.cell_of_node[nodes][:len(path)]
            for path, nodes in zip(plan.cell_paths, plan.assignments)]


def cell_pools(grid):
    """Node ids binned into each cell, in increasing order, by one pass."""
    pools = [[] for _ in range(grid.n_cells)]
    for v, cid in enumerate(grid.cell_of_node):
        pools[cid].append(v)
    return pools


def scalar_supercover(p0, p1, cell0, cell1, grid):
    """Scalar Amanatides-Woo 4-connected cell walk, one step per loop turn.

    The original per-line walk, clamp included: a step that leaves the grid
    is pulled back onto its edge.
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
        if t_max_x <= t_max_y:
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
