"""Shared helpers and independent oracles for the test suite.

Oracles are written in the plainest possible style (double loops, direct
formulas) so they stay independent of the library's vectorized paths.
"""

import math

import numpy as np

from netregime.network import NetworkInstance


def hand_instance(positions, area_A, seed=0):
    """Build an instance from explicit positions; first half are sources."""
    positions = np.asarray(positions, dtype=float)
    n2 = len(positions)
    assert n2 % 2 == 0
    n = n2 // 2
    return NetworkInstance(n, float(area_A), seed, positions,
                           source_ids=np.arange(n),
                           dest_ids=np.arange(n, 2 * n))


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


def brute_snr_total(instance, alpha, snr_s, far_ids, source_ids):
    """Independent double sum over all (far node, source) pairs."""
    total = 0.0
    for d in brute_dhat(instance, alpha, far_ids, source_ids):
        total += snr_s * d
    return total


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
