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

import itertools
import math
from array import array
from dataclasses import dataclass, replace

import numpy as np
import scipy   # scipy.ndimage loads on first use, by the first labelling

from . import rng
from .network import NetworkInstance, check_memory
# Unused here: the benchmark's traced run wraps this binding (ROADMAP item 2).
from .network import generate_network  # noqa: F401

_FOUR = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
_EIGHT = np.ones((3, 3), dtype=bool)
# Polyline segments per block of the clearance; each block's temporaries
# are _SEGMENT_BLOCK x (points) x 2.
_SEGMENT_BLOCK = 64
# Cells of one crossing_probability batch: one labelling per trial's slab
# (2,313 cells at n = 4096, c = 0.25) pays mostly per-call overhead.
_BATCH_CELLS = 2 ** 15


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

    def cell_center(self, row, col):
        """Center of cell (row, col); rows and columns may be index arrays."""
        x = self.slab_x0 + (col + 0.5) * self.cell_side
        y = (self.total_rows - row - 0.5) * self.cell_side
        return x, y


@dataclass
class CutPolyline:
    """An open top-bottom crossing of ``grid`` and the centerline cut it certifies.

    ``cells`` runs from the top boundary row to the bottom boundary row;
    consecutive cells are 4-adjacent and all of them are open.
    ``vertices`` is the centerline in network coordinates, extended to the
    top and bottom edges of the grid.  ``clearance`` is NaN until the cut
    has been certified by :func:`extract_cut`.
    """

    cells: list
    vertices: np.ndarray
    grid: PercolationGrid
    clearance: float = math.nan


def build_occupancy_grid(instance: NetworkInstance, c: float) -> PercolationGrid:
    """Bin nodes into slab cells and mark cells with >= 1 node as closed.

    The slab has one column centered on the midline x = sqrt(A); the other
    ceil(ln n) - 1 columns are split around it, with the extra column on
    the right when the count is even.  Cells are half-open in both axes,
    so every node lands in exactly one cell.
    """
    grid = _open_grid(instance.n_pairs, instance.area_A, c)
    _, row, col = _slab_cells(grid, instance.positions)
    grid.closed[row, col] = True
    return grid


def _open_grid(n: int, area_A: float, c: float, trials: int = 0) -> PercolationGrid:
    """The slab grid of :func:`build_occupancy_grid` for n pairs on area A,
    with every cell open.  Raises ValueError, before it allocates, when a
    slab run, with the keys of a study of ``trials`` crossing trials, would
    need more than the machine's physical memory."""
    if not 0.0 < c < 1.0:
        raise ValueError(f"c must be in (0, 1), got {c}")
    if n < 2:
        raise ValueError("need n >= 2 for a meaningful slab")
    side = math.sqrt(area_A)
    cell = c * math.sqrt(area_A / n)
    cols = math.ceil(math.log(n))
    rows = math.ceil(math.sqrt(n) / c)
    left_cols = (cols - 1) // 2
    x0 = side - cell / 2.0 - left_cols * cell
    if x0 < 0.0 or x0 + cols * cell > 2.0 * side:
        raise ValueError(f"slab of {cols} cells does not fit the network at n={n}")
    # A slab run holds at most 24 bytes a cell: a crossing trial 7, certified_cut's
    # BFS about 22.  Binning nodes takes 64 bytes a node, about c^2 a cell, and a
    # cut's path about 150 bytes a path cell, one or more a row (200 counted).  A
    # batch of trials adds _BATCH_CELLS cells of 6 bytes and their nodes, and a
    # study holds its trials' keys throughout.
    need = (rows * (cols * (24 + 64 * c * c) + 200) + _BATCH_CELLS * (6 + 64 * c * c)
            + trials * rng.KEY_LIST_BYTES)
    what = f"a slab of {rows} x {cols} cells"
    check_memory(need, f"a study of {trials} crossing trials on {what}" if trials else what)

    return PercolationGrid(c, cell, cols, rows, x0, np.zeros((rows, cols), dtype=bool))


def _slab_cells(grid: PercolationGrid, positions: np.ndarray):
    """Ids of the positions inside the slab and the (row, col) cell of each."""
    x = positions[:, 0]
    y = positions[:, 1]
    idx = np.nonzero((x >= grid.slab_x0) & (x < grid.slab_x1))[0]
    col = np.floor((x[idx] - grid.slab_x0) / grid.cell_side).astype(np.intp)
    np.clip(col, 0, grid.slab_columns - 1, out=col)
    row_up = np.minimum(np.floor(y[idx] / grid.cell_side).astype(np.intp),
                        grid.total_rows - 1)
    return idx, grid.total_rows - 1 - row_up, col


def _crossings(stack: np.ndarray) -> np.ndarray:
    """Which slabs of a (slabs, rows + 1, cols) stack of open flags have a 4-connected
    open path from row 0 to row rows - 1.  Each slab's last row must be closed, so one
    labelling serves all; it runs on the transposed stack, as long lines label faster."""
    slabs, height, cols = stack.shape
    labels, num = scipy.ndimage.label(stack.reshape(-1, cols).T, structure=_FOUR)
    labels = labels.reshape(cols, slabs, height)
    top = np.zeros(num + 1, dtype=bool)
    top[labels[:, :, 0]] = True
    top[0] = False                       # label 0 marks the closed cells
    return top[labels[:, :, -2]].any(axis=0)


def has_open_crossing(grid: PercolationGrid) -> bool:
    """True iff some 4-connected open component touches both top and bottom rows."""
    stack = np.concatenate([grid.open, np.zeros_like(grid.closed[:1])])
    return bool(_crossings(stack[None])[0])


def _distance_to_bottom(open_cells: np.ndarray) -> list:
    """Edge-count BFS distance from every open cell to the bottom row (-1 if cut off).

    A queue BFS over flat cell ids, seeded with the open cells of the
    bottom row; each open cell is visited once.  Returns a flat list in
    row-major order.  The open flags stay one byte a cell, the queue is an
    ``array`` of 8-byte ids and the cells of one level share one int, so the
    BFS holds about 18 bytes a cell and one int a level.
    """
    rows, cols = open_cells.shape
    is_open = open_cells.tobytes()
    dist = [-1] * (rows * cols)
    queue = array("l", [u for u in range((rows - 1) * cols, rows * cols) if is_open[u]])
    for u in queue:
        dist[u] = 0
    d = 1                    # the distance of the cells the next pops append
    for u in queue:          # the loop also visits the cells appended below
        if dist[u] == d:     # u starts the next level
            d = dist[u] + 1
        col = u % cols
        for v, inside in ((u - cols, u >= cols), (u + cols, u < (rows - 1) * cols),
                          (u - 1, col > 0), (u + 1, col < cols - 1)):
            if inside and is_open[v] and dist[v] < 0:
                dist[v] = d
                queue.append(v)
    return dist


def find_open_crossing(grid: PercolationGrid):
    """Shortest open top-bottom crossing, or None when the slab is blocked.

    Among the shortest crossings the lexicographically smallest (row, col)
    sequence is returned, so repeated runs and different search orders give
    the same cut.
    """
    rows, cols = grid.closed.shape
    dist = _distance_to_bottom(grid.open)
    reached = [d for d in dist[:cols] if d >= 0]
    if not reached:
        return None
    u = dist.index(min(reached))
    path = [u]
    while dist[u] > 0:
        want = dist[u] - 1
        col = u % cols
        for v, inside in ((u - cols, u >= cols), (u - 1, col > 0),
                          (u + 1, col < cols - 1), (u + cols, u < (rows - 1) * cols)):
            if inside and dist[v] == want:
                u = v
                break
        else:
            raise AssertionError("BFS distance field is inconsistent")
        path.append(u)
    del dist
    cells = [divmod(u, cols) for u in path]
    vertices = _centerline(grid, np.divmod(path, cols))
    return CutPolyline(cells, vertices, grid)


def _centerline(grid: PercolationGrid, cells) -> np.ndarray:
    """Cell centers of the (rows, cols) arrays, extended to the top and bottom edges."""
    x, y = grid.cell_center(*cells)
    vertices = np.empty((len(x) + 2, 2))
    vertices[1:-1, 0] = x
    vertices[1:-1, 1] = y
    vertices[0] = x[0], grid.total_rows * grid.cell_side
    vertices[-1] = x[-1], 0.0
    return vertices


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


def extract_cut(path: CutPolyline, instance: NetworkInstance) -> CutPolyline:
    """Certify a crossing's centerline clearance against every node.

    The open-cell geometry guarantees clearance >= (c/2)*sqrt(A/n); a
    certification failure therefore indicates a defect and raises.
    """
    clearance = exact_clearance(instance, path.vertices)
    required = 0.5 * path.grid.cell_side
    if clearance < required * (1.0 - 1e-9):
        raise ClearanceCertificationError(
            f"clearance {clearance:.6g} below required {required:.6g}")
    return replace(path, clearance=clearance)


def certified_cut(instance: NetworkInstance, c: float) -> CutPolyline | None:
    """The certified shortest crossing of the instance's slab at cell
    parameter c, or None when the slab is blocked."""
    crossing = find_open_crossing(build_occupancy_grid(instance, c))
    return None if crossing is None else extract_cut(crossing, instance)


def split_by_cut(path: CutPolyline, instance: NetworkInstance):
    """Partition node ids into (left of cut, B = right of cut inside slab, right of slab).

    Slab cells are labelled by 8-connected flood fill of the non-path
    cells from the slab's boundary columns; the crossing blocks every
    8-connected left-right route, so the two labels never meet.  Enclosed
    pockets (touching neither boundary) are assigned to the left side.
    """
    grid = path.grid
    free = np.ones(grid.closed.shape, dtype=bool)
    free[tuple(np.asarray(path.cells).T)] = False
    labels, num = scipy.ndimage.label(free, structure=_EIGHT)
    right = np.zeros(num + 1, dtype=bool)   # by label: on the right column
    right[labels[:, -1]] = True
    right[0] = False
    if right[labels[:, 0]].any():
        raise AssertionError("cut does not separate the slab")

    x = instance.positions[:, 0]
    left = x < grid.slab_x0
    idx, row, col = _slab_cells(grid, instance.positions)
    is_right = right[labels[row, col]]
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


def crossing_probability(n: int, c: float, trials: int, seed: int) -> CrossingStudy:
    """Open-crossing rate over fresh draws on area n vs the analytic bound.

    A trial reads only the slab, so it draws only the slab's nodes: their
    count is Binomial(2n, slab width / network width), and they are uniform
    on the slab, which is the law of the slab's share of 2n uniform nodes
    (Franceschetti, Dousse, Tse & Thiran, IEEE Trans. IT 53(3), 2007).
    Trial t draws on the substream (seed, CROSSING, t); the keys of all
    trials come from one :func:`rng.philox_keys` pass, which the slab's
    memory pre-flight counts before it runs.  Trials run in
    batches of _BATCH_CELLS cells, or of one slab when a slab is larger: a
    batch's draws are binned at once into a stack of its slabs, each followed
    by a closed separator row, and one labelling decides its crossings.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    grid = _open_grid(n, float(n), c, trials)
    rows, cols = grid.closed.shape
    side = math.sqrt(n)
    batch = max(1, _BATCH_CELLS // ((rows + 1) * cols))
    gens = rng.keyed_generators(
        rng.philox_keys(seed, (rng.CROSSING,), np.arange(trials)).tolist())
    hits = 0
    for _ in range(0, trials, batch):
        draws = [_draw_slab_units(grid, n, side, gen)
                 for gen in itertools.islice(gens, batch)]
        slabs = np.ones((len(draws), rows + 1, cols), dtype=bool)
        slabs[:, rows] = False
        row, col = _unit_cells(grid, side, np.concatenate(draws))
        first = np.repeat(np.arange(len(draws)) * slabs[0].size, [len(u) for u in draws])
        slabs.reshape(-1)[first + row * cols + col] = False    # flat ids index fastest
        hits += int(np.count_nonzero(_crossings(slabs)))
    return CrossingStudy(n, c, trials, hits / trials,
                         analytic_failure_bound(n, c), decay_condition_holds(c))


def _draw_slab_units(grid: PercolationGrid, n: int, side: float, gen) -> np.ndarray:
    """(k, 2) unit draws of the slab's k nodes in a fresh draw of 2n uniform nodes."""
    count = gen.binomial(2 * n, grid.slab_columns * grid.cell_side / (2.0 * side))
    return gen.random((count, 2))


def _unit_cells(grid: PercolationGrid, side: float, u: np.ndarray):
    """Cells of (k, 2) unit draws in the slab.  The column comes from u, as
    slab_x0 + u * width can round onto slab_x1; the row is _slab_cells' row
    of y = u * side."""
    cols = grid.slab_columns
    col = np.minimum(np.floor(u[:, 0] * cols).astype(np.intp), cols - 1)
    row_up = np.minimum(np.floor(u[:, 1] * side / grid.cell_side).astype(np.intp),
                        grid.total_rows - 1)
    return grid.total_rows - 1 - row_up, col
