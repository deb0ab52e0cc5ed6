"""Node-free vertical cuts through the middle of the network.

A slab of ceil(ln n) cell columns centered on the network midline is
tiled with square cells of side c*sqrt(A/n), 0 < c < 1.  A cell is closed
iff it contains at least one node.  An open path (4-adjacent open cells)
crossing the slab from top to bottom yields a cut polyline with no node
closer than (c/2)*sqrt(A/n) on either side; such a path exists exactly
when no closed 8-adjacent path crosses the slab from left to right.

The probability that no open crossing exists is at most

    (5 / (7c)) * sqrt(n) * (7 c^2)^(ln n),

which vanishes with n whenever c^2 < 1/(7*sqrt(e)).  Natural logarithms
are used throughout this module; the decay condition above only holds
with that convention.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from . import rng
from .network import NetworkInstance, generate_network

_FOUR = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
_EIGHT = np.ones((3, 3), dtype=bool)
# Polyline segments per block of the clearance; each block's temporaries
# are _SEGMENT_BLOCK x (points) x 2.
_SEGMENT_BLOCK = 64


class ClearanceCertificationError(RuntimeError):
    """A cut failed its exact node-clearance certification."""


@dataclass
class PercolationGrid:
    """Occupancy states of the middle slab, row 0 at the top of the network."""

    c: float
    cell_side: float
    slab_columns: int
    total_rows: int
    slab_x0: float           # x coordinate of the slab's left edge
    closed: np.ndarray       # bool, shape (total_rows, slab_columns)

    @property
    def slab_x1(self) -> float:
        return self.slab_x0 + self.slab_columns * self.cell_side

    @property
    def open(self) -> np.ndarray:
        return ~self.closed

    def cell_center(self, row: int, col: int):
        x = self.slab_x0 + (col + 0.5) * self.cell_side
        y = (self.total_rows - row - 0.5) * self.cell_side
        return x, y


@dataclass
class CutPolyline:
    """An open top-bottom crossing and the centerline cut it certifies.

    ``cells`` runs from the top boundary row to the bottom boundary row;
    consecutive cells are 4-adjacent and all of them are open.
    ``vertices`` is the centerline in network coordinates, extended to the
    top and bottom edges of the grid.  ``clearance`` is NaN until the cut
    has been certified by :func:`extract_cut`.
    """

    cells: list
    vertices: np.ndarray
    c: float
    cell_side: float
    clearance: float = math.nan

    def to_json(self) -> str:
        return json.dumps({
            "c": self.c,
            "cell_side": self.cell_side,
            "path": [[int(r), int(col)] for r, col in self.cells],
            "clearance": self.clearance,
        })


def build_occupancy_grid(instance: NetworkInstance, c: float) -> PercolationGrid:
    """Bin nodes into slab cells and mark cells with >= 1 node as closed.

    The slab has one column centered on the midline x = sqrt(A); the other
    ceil(ln n) - 1 columns are split around it, with the extra column on
    the right when the count is even.  Cells are half-open in both axes,
    so every node lands in exactly one cell.
    """
    if not 0.0 < c < 1.0:
        raise ValueError(f"c must be in (0, 1), got {c}")
    n = instance.n_pairs
    if n < 2:
        raise ValueError("need n >= 2 for a meaningful slab")
    side = instance.side
    cell = c * instance.nn_scale
    cols = math.ceil(math.log(n))
    rows = math.ceil(math.sqrt(n) / c)
    left_cols = (cols - 1) // 2
    x0 = side - cell / 2.0 - left_cols * cell
    if x0 < 0.0 or x0 + cols * cell > 2.0 * side:
        raise ValueError(f"slab of {cols} cells does not fit the network at n={n}")

    grid = PercolationGrid(c, cell, cols, rows, x0, np.zeros((rows, cols), dtype=bool))
    _, row, col = _slab_cells(grid, instance)
    grid.closed[row, col] = True
    return grid


def _slab_cells(grid: PercolationGrid, instance: NetworkInstance):
    """Ids of the nodes inside the slab and the (row, col) cell of each."""
    x = instance.positions[:, 0]
    y = instance.positions[:, 1]
    idx = np.nonzero((x >= grid.slab_x0) & (x < grid.slab_x1))[0]
    col = np.floor((x[idx] - grid.slab_x0) / grid.cell_side).astype(np.intp)
    np.clip(col, 0, grid.slab_columns - 1, out=col)
    row_up = np.minimum(np.floor(y[idx] / grid.cell_side).astype(np.intp),
                        grid.total_rows - 1)
    return idx, grid.total_rows - 1 - row_up, col


def _labels_touching(labels: np.ndarray, first, last) -> bool:
    a = np.unique(labels[first])
    b = np.unique(labels[last])
    a = a[a > 0]
    b = b[b > 0]
    return bool(np.intersect1d(a, b, assume_unique=True).size)


def has_open_crossing(grid: PercolationGrid) -> bool:
    """True iff some 4-connected open component touches both top and bottom rows."""
    labels, num = ndimage.label(grid.open, structure=_FOUR)
    if num == 0:
        return False
    return _labels_touching(labels, (0, slice(None)), (-1, slice(None)))


def _distance_to_bottom(open_cells: np.ndarray) -> np.ndarray:
    """Edge-count BFS distance from every open cell to the bottom row (-1 if cut off).

    A queue BFS over flat cell ids, seeded with the open cells of the
    bottom row; each open cell is visited once.
    """
    rows, cols = open_cells.shape
    is_open = open_cells.ravel().tolist()
    dist = [-1] * (rows * cols)
    queue = [u for u in range((rows - 1) * cols, rows * cols) if is_open[u]]
    for u in queue:
        dist[u] = 0
    for u in queue:          # the loop also visits the cells appended below
        d = dist[u] + 1
        col = u % cols
        for v, inside in ((u - cols, u >= cols), (u + cols, u < (rows - 1) * cols),
                          (u - 1, col > 0), (u + 1, col < cols - 1)):
            if inside and is_open[v] and dist[v] < 0:
                dist[v] = d
                queue.append(v)
    return np.array(dist, dtype=np.int64).reshape(rows, cols)


def find_open_crossing(grid: PercolationGrid):
    """Shortest open top-bottom crossing, or None when the slab is blocked.

    Among the shortest crossings the lexicographically smallest (row, col)
    sequence is returned, so repeated runs and different search orders give
    the same cut.
    """
    dist = _distance_to_bottom(grid.open)
    rows, cols = dist.shape
    top = dist[0]
    if not (top >= 0).any():
        return None
    best = top[top >= 0].min()
    col = int(np.argmax(top == best))
    cells = [(0, col)]
    r, cc = 0, col
    while dist[r, cc] > 0:
        want = dist[r, cc] - 1
        for nr, nc in ((r - 1, cc), (r, cc - 1), (r, cc + 1), (r + 1, cc)):
            if 0 <= nr < rows and 0 <= nc < cols and dist[nr, nc] == want:
                r, cc = nr, nc
                break
        else:
            raise AssertionError("BFS distance field is inconsistent")
        cells.append((r, cc))
    vertices = _centerline(grid, cells)
    return CutPolyline(cells, vertices, grid.c, grid.cell_side)


def _centerline(grid: PercolationGrid, cells) -> np.ndarray:
    pts = [grid.cell_center(r, c) for r, c in cells]
    top_y = grid.total_rows * grid.cell_side
    first = (pts[0][0], top_y)
    last = (pts[-1][0], 0.0)
    return np.asarray([first] + pts + [last], dtype=float)


def _distance_to_polyline(points: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Exact distance from each point to its nearest polyline segment.

    Segments are evaluated _SEGMENT_BLOCK at a time.  The dot products are
    stacked matmuls, which run the same kernel as one segment's
    ``(points - a) @ ab``, so each distance has the bits of a per-segment
    evaluation.  A zero-length segment divides by 1 instead of 0: its t is
    0 and its projection is its endpoint.
    """
    best = np.full(len(points), np.inf)
    x, y = points[:, 0], points[:, 1]
    for start in range(0, len(vertices) - 1, _SEGMENT_BLOCK):
        seg = vertices[start:start + _SEGMENT_BLOCK + 1]
        a, ab = seg[:-1], seg[1:] - seg[:-1]
        ax, ay, abx, aby = a[:, 0, None], a[:, 1, None], ab[:, 0, None], ab[:, 1, None]
        denom = np.matmul(ab[:, None, :], ab[:, :, None])[:, 0]
        dots = np.matmul(np.stack([x - ax, y - ay], axis=-1), ab[:, :, None])[:, :, 0]
        t = np.clip(dots / np.where(denom == 0.0, 1.0, denom), 0.0, 1.0)
        d = np.hypot(x - (ax + t * abx), y - (ay + t * aby))
        np.minimum(best, d.min(axis=0), out=best)
    return best


def exact_clearance(instance: NetworkInstance, vertices: np.ndarray) -> float:
    """Minimum distance from any node to the cut polyline, over all 2n nodes.

    Nodes far from the slab are screened out with an exact horizontal
    lower bound before the per-segment computation; the screen widens
    until it provably contains the minimizer, so the result equals the
    brute-force distance.
    """
    pts = instance.positions
    lo, hi = float(vertices[:, 0].min()), float(vertices[:, 0].max())
    gap = np.maximum(lo - pts[:, 0], pts[:, 0] - hi)  # <= 0 inside the band
    margin = instance.nn_scale
    while True:
        cand = gap <= margin
        best = float(_distance_to_polyline(pts[cand], vertices).min(initial=math.inf))
        if best <= margin or bool(cand.all()):
            return best
        margin *= 4.0


def extract_cut(path: CutPolyline, grid: PercolationGrid,
                instance: NetworkInstance) -> CutPolyline:
    """Certify a crossing's centerline clearance against every node.

    The open-cell geometry guarantees clearance >= (c/2)*sqrt(A/n); a
    certification failure therefore indicates a defect and raises.
    """
    clearance = exact_clearance(instance, path.vertices)
    required = 0.5 * grid.cell_side
    if clearance < required * (1.0 - 1e-9):
        raise ClearanceCertificationError(
            f"clearance {clearance:.6g} below required {required:.6g}")
    return CutPolyline(path.cells, path.vertices, path.c, path.cell_side,
                       clearance=clearance)


def split_by_cut(grid: PercolationGrid, path: CutPolyline,
                 instance: NetworkInstance):
    """Partition node ids into (left of cut, B = right of cut inside slab, right of slab).

    Slab cells are labelled by 8-connected flood fill of the non-path
    cells from the slab's boundary columns; the crossing blocks every
    8-connected left-right route, so the two labels never meet.  Enclosed
    pockets (touching neither boundary) are assigned to the left side.
    """
    free = np.ones(grid.closed.shape, dtype=bool)
    free[tuple(np.asarray(path.cells).T)] = False
    labels, _ = ndimage.label(free, structure=_EIGHT)
    first, last = (slice(None), 0), (slice(None), -1)
    if _labels_touching(labels, first, last):
        raise AssertionError("cut does not separate the slab")

    x = instance.positions[:, 0]
    left = x < grid.slab_x0
    idx, row, col = _slab_cells(grid, instance)
    right_labels = labels[last]
    is_right = np.isin(labels[row, col], right_labels[right_labels > 0])
    left[idx[~is_right]] = True   # left side, plus enclosed pockets
    return (np.nonzero(left)[0], idx[is_right], np.nonzero(x >= grid.slab_x1)[0])


def analytic_failure_bound(n: int, c: float) -> float:
    """Upper bound (5/(7c)) * sqrt(n) * (7c^2)^(ln n) on missing a crossing."""
    return 5.0 / (7.0 * c) * math.sqrt(n) * (7.0 * c * c) ** math.log(n)


def decay_condition_holds(c: float) -> bool:
    """True iff c^2 < 1/(7*sqrt(e)), making the failure bound vanish with n."""
    return c * c < 1.0 / (7.0 * math.sqrt(math.e))


@dataclass(frozen=True)
class CrossingStudy:
    n: int
    c: float
    trials: int
    empirical_rate: float      # fraction of seeds with an open crossing
    analytic_bound: float      # closed-form bound on the failure probability
    decay_ok: bool

    def csv_row(self) -> str:
        return (f"{self.n},{self.c:.17g},{self.trials},{self.empirical_rate:.17g},"
                f"{self.analytic_bound:.17g},{int(self.decay_ok)}")


CROSSING_CSV_HEADER = "n,c,trials,empirical_rate,analytic_bound,flag"


def crossing_probability(n: int, c: float, trials: int, seed: int,
                         area_A: float | None = None) -> CrossingStudy:
    """Empirical open-crossing rate over fresh instances vs the analytic bound."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    area = float(n) if area_A is None else area_A
    hits = 0
    for t in range(trials):
        inst = generate_network(n, area, rng.derived_seed(seed, rng.EXPERIMENT, t))
        if has_open_crossing(build_occupancy_grid(inst, c)):
            hits += 1
    return CrossingStudy(n, c, trials, hits / trials,
                         analytic_failure_bound(n, c), decay_condition_holds(c))
