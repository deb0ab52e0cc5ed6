"""Throughput of the multihop, cooperative and hybrid schemes.

Multihop moves packets between nearest neighbors; about sqrt(n) hops can
run in parallel across any bisection, each at rate
log2(1 + snr_s / (1 + K2 * snr_s)), where K2 * snr_s absorbs the
interference-to-noise ratio of simultaneous transmissions.

Hierarchical cooperation organizes network-wide distributed MIMO and
achieves K3 * n^(1-eps) * log2(1 + n^(1-alpha/2) * snr_s) in aggregate;
its bursty variant duty-cycles transmission at the long-range SNR so the
power-limited throughput scales like the long-range SNR times n^(1-eps).

The hybrid scheme tiles the network with square cells of about
M = snr_s^(1/(alpha/2-1)) nodes (the largest cell for which the
cell-to-cell MIMO link still sees SNR >= 1), cooperates inside cells, and
multihops cell-to-cell along each source-destination line.  Each line is
relayed in every traversed cell by one associated node; a 4-way TDMA
split between hop directions costs a factor 4 in rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import fsum

import numpy as np

from . import rng
from .network import NetworkInstance, check_memory, snr_edge, snr_long
from .regimes import Scheme


class OutOfRegimeError(ValueError):
    """The hybrid construction is not defined at this operating point."""


@dataclass(frozen=True)
class ThroughputEstimate:
    """Aggregate and per-pair rate (bits/s/Hz) of one scheme evaluation."""

    aggregate_T: float
    per_pair_R: float
    scheme: Scheme


def multihop_throughput(n: int, snr_s: float, K2: float = 1.0) -> ThroughputEstimate:
    """Nearest-neighbor multihop: sqrt(n) parallel hops across the bisection."""
    if K2 <= 0:
        raise ValueError("K2 must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    hop_rate = math.log2(1.0 + snr_s / (1.0 + K2 * snr_s))
    aggregate = math.sqrt(n) * hop_rate
    return ThroughputEstimate(aggregate, aggregate / n, Scheme.MULTIHOP)


def hc_throughput(n: int, snr_s: float, alpha: float, epsilon: float = 0.05,
                  K3: float = 1.0, bursty: bool = False) -> ThroughputEstimate:
    """Hierarchical cooperation aggregate throughput, optionally bursty.

    The bursty variant transmits a fraction tau = min(1, snr_long) of the
    time with power boosted by 1/tau, which pins the effective MIMO SNR at
    0 dB whenever the network is power limited.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if K3 <= 0:
        raise ValueError("K3 must be positive")
    snr_l = snr_long(snr_s, n, alpha)
    scheme = Scheme.HC
    if bursty:
        scheme = Scheme.BURSTY_HC
        tau = min(1.0, snr_l)
        # max(1, snr_l) is snr_l / tau for every snr_l > 0, and 1, not 0 / 0,
        # when snr_l underflows to 0
        aggregate = tau * K3 * n ** (1.0 - epsilon) * math.log2(1.0 + max(1.0, snr_l))
    else:
        aggregate = K3 * n ** (1.0 - epsilon) * math.log2(1.0 + snr_l)
    return ThroughputEstimate(aggregate, aggregate / n, scheme)


def hybrid_cell_size(snr_s: float, alpha: float, n: int) -> int:
    """Number of nodes per hybrid cell, M = round(snr_s^(1/(alpha/2-1))).

    Defined for alpha > 2 and 1 < snr_s <= n^(alpha/2-1); outside that the
    pure multihop or pure cooperative scheme applies instead.  The
    unrounded M satisfies M^(1-alpha/2) * snr_s >= 1 by construction.
    """
    if not (math.isfinite(snr_s) and math.isfinite(alpha)):
        raise ValueError(f"snr_s and alpha must be finite, got {snr_s} and {alpha}")
    if alpha <= 2:
        raise OutOfRegimeError("hybrid cells need alpha > 2")
    if snr_s <= 1.0:
        raise OutOfRegimeError("snr_s <= 1: use plain multihop")
    if snr_s > snr_edge(n, alpha):
        raise OutOfRegimeError("snr_s > n^(alpha/2-1): use network-wide cooperation")
    m_raw = snr_s ** (1.0 / (alpha / 2.0 - 1.0))
    assert m_raw ** (1.0 - alpha / 2.0) * snr_s >= 1.0 - 1e-12
    return int(min(max(1, math.floor(m_raw + 0.5)), n))


@dataclass
class CellGrid:
    """Square-cell tiling of the 2*sqrt(A) x sqrt(A) rectangle.

    Cell (row, col) is the half-open square [col*s, (col+1)*s) x
    [row*s, (row+1)*s); flat ids are row * columns + col.  The grid always
    uses twice as many columns as rows, which keeps cells exactly square.
    The nodes of cell k are ``node_order[cell_start[k]:cell_start[k + 1]]``,
    in increasing id order.
    """

    cell_side: float
    columns: int
    rows: int
    cell_of_node: np.ndarray            # flat cell id per node
    node_order: np.ndarray              # node ids sorted stably by cell
    cell_start: np.ndarray              # n_cells + 1 offsets into node_order

    @property
    def n_cells(self) -> int:
        return self.rows * self.columns


def build_cell_grid(instance: NetworkInstance, M: int) -> CellGrid:
    """Tile the network with cells of about M nodes each and bin the nodes."""
    n = instance.n_pairs
    if not 1 <= M <= n:
        raise ValueError(f"M must lie in [1, n], got {M}")
    rows = max(1, int(math.floor(math.sqrt(n / M) + 0.5)))
    cols = 2 * rows
    side = instance.side / rows
    col = np.minimum((instance.positions[:, 0] / side).astype(np.intp), cols - 1)
    row = np.minimum((instance.positions[:, 1] / side).astype(np.intp), rows - 1)
    flat = row * cols + col
    order = np.argsort(flat, kind="stable")
    start = np.searchsorted(flat[order], np.arange(rows * cols + 1))
    return CellGrid(side, cols, rows, flat, order, start)


# Segments walked together, lines whose relay draws are decoded together,
# and lines whose peak loads are gathered together.  A walk block's
# temporaries grow as its size times rows + columns: at n = 4096, M = 1
# the largest block's walk peaks at 0.67-0.69 MB with blocks of 256 and
# at 10.5 MB with all 4096 lines in one block.
_WALK_BLOCK = 256


def _crossing_times(edge, start, delta, side: float, k: int):
    """Parametric times of the first k + 1 cell-boundary crossings on one
    axis, inf where the segment never crosses one.

    ``edge`` indexes the first boundary.  The cumsum adds the step to the
    running time one crossing after another, as ``t += dt`` would.
    """
    times = np.empty((len(delta), k + 1))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        times[:, 0] = np.where(delta != 0, (edge * side - start) / delta, np.inf)
        times[:, 1:] = np.abs(side / delta)[:, None]           # inf where delta == 0
    return np.cumsum(times, axis=1, out=times)


def _walk_block(p0, p1, cell0, cell1, grid: CellGrid):
    """4-connected Amanatides-Woo cell walks along the segments p0[j] -> p1[j],
    from flat cell cell0[j] to cell1[j], concatenated; walk j has
    |row1 - row0| + |col1 - col0| + 1 cells.

    A walk steps along x while the next x crossing comes no later than the
    next y crossing, and along y otherwise, so an exact corner crossing
    steps to the horizontal neighbor first, except in the end column: a
    segment that ends on a cell corner while it moves left or down ties
    its x crossing nx with its last y crossing there, and steps along y.
    The walk stops in its end cell only if x crossing nx comes no earlier
    than y crossing ny - 1 and y crossing ny no earlier than x crossing
    nx - 1, which is checked; then y step m is step m + 1 + the count of
    the first nx x crossings no later than y crossing m, which is
    estimated from their spacing and corrected along the nondecreasing x
    times.  One cumsum of the steps' flat id offsets, each walk's first one
    from the previous walk's end cell to its own start, gives the cells.
    """
    r0, c0 = np.divmod(cell0, grid.columns)
    r1, c1 = np.divmod(cell1, grid.columns)
    dx = p1[:, 0] - p0[:, 0]
    dy = p1[:, 1] - p0[:, 1]
    step_c = np.where(dx > 0, 1, -1)
    step_r = np.where(dy > 0, 1, -1)
    nx = (c1 - c0) * step_c             # steps the walk must take per axis
    ny = (r1 - r0) * step_r
    if (nx < 0).any() or (ny < 0).any():
        raise AssertionError("cell walk failed to reach the destination cell")
    s = grid.cell_side
    tx = _crossing_times(c0 + (dx > 0), p0[:, 0], dx, s, int(nx.max()))
    ty = _crossing_times(r0 + (dy > 0), p0[:, 1], dy, s, int(ny.max()))
    line = np.arange(len(dx))
    tx_last = np.where(nx > 0, tx[line, nx - 1], -np.inf)
    ty_last = np.where(ny > 0, ty[line, ny - 1], -np.inf)
    if ((tx[line, nx] < ty_last) | (ty[line, ny] < tx_last)).any():
        raise AssertionError("cell walk failed to reach the destination cell")
    length = nx + ny + 1
    start = np.cumsum(length) - length          # where each walk starts
    first = np.cumsum(ny) - ny                  # each line's first y step, in y
    y = np.repeat(line, ny)                     # the line of each y step
    k = np.arange(len(y))
    t = ty.ravel()[k + (line * ty.shape[1] - first)[y]]
    del ty
    at = y * tx.shape[1]                        # into the raveled x times
    tx = tx.ravel()
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # nan where dx == 0
        count = np.floor((t - tx[at]) / np.abs(s / dx)[y]) + 1
    nx_y = nx[y]
    count = np.fmax(np.fmin(count, nx_y), 0).astype(np.intp)
    while (up := (count < nx_y) & (tx[at + count] <= t)).any():
        count += up
    while (down := (count > 0) & (tx[at + count - 1] > t)).any():
        count -= down
    del tx, t, at, nx_y     # free each array once read: they set the peak
    walks = np.repeat(step_c, length)
    walks[start] = cell0 - np.concatenate(([0], cell1[:-1]))
    walks[k + (start + 1 - first)[y] + count] = (step_r * grid.columns)[y]
    return np.cumsum(walks, out=walks)


def _nearest_occupied(grid: CellGrid):
    """Relay-cell candidates of every empty cell: (first, count, cells).

    A 4-adjacency BFS over the rectangle reaches each cell at its Manhattan
    distance, so the candidates of an empty cell are the occupied cells on
    the smallest Manhattan ring around it that holds any.  Those of cell k
    are ``cells[first[k]:first[k] + count[k]]``, in increasing flat id.
    """
    rows, cols = grid.rows, grid.columns
    occupied = np.diff(grid.cell_start) > 0
    pending = np.flatnonzero(~occupied)
    first = np.zeros(grid.n_cells, dtype=np.intp)
    count = np.zeros(grid.n_cells, dtype=np.intp)
    found = [np.zeros(0, dtype=np.intp)]
    total = 0
    for d in range(1, rows + cols):
        if len(pending) == 0:
            break
        # ring offsets in (row, col) order, which is flat id order
        ring = np.array([(a, b) for a in range(-d, d + 1)
                         for b in sorted({abs(a) - d, d - abs(a)})])
        r, c = np.divmod(pending, cols)
        rr = r[:, None] + ring[:, 0]
        cc = c[:, None] + ring[:, 1]
        ids = rr * cols + cc
        hit = (rr >= 0) & (rr < rows) & (cc >= 0) & (cc < cols)
        hit[hit] = occupied[ids[hit]]
        k = hit.sum(axis=1)
        done = k > 0
        count[pending[done]] = k[done]
        first[pending[done]] = total + np.cumsum(k[done]) - k[done]
        found.append(ids[done][hit[done]])
        total += int(k.sum())
        pending = pending[~done]
    if len(pending):
        raise AssertionError("no occupied cell anywhere in the grid")
    return first, count, np.concatenate(found)


def _walk_blocks(grid: CellGrid, instance: NetworkInstance):
    """(a, b, walk) for each block of _WALK_BLOCK lines in order: ``walk``
    is lines a .. b - 1's cell walks, concatenated, in a fresh array."""
    src, dst = instance.source_ids, instance.dest_ids
    p0, p1 = instance.positions[src], instance.positions[dst]
    cell0, cell1 = grid.cell_of_node[src], grid.cell_of_node[dst]
    for a in range(0, len(src), _WALK_BLOCK):
        b = min(a + _WALK_BLOCK, len(src))
        yield a, b, _walk_block(p0[a:b], p1[a:b], cell0[a:b], cell1[a:b], grid)


@dataclass
class RelayPlan:
    """Relay assignments and loads for every source-destination line.

    Line j's relay nodes are ``nodes[node_start[j]:node_start[j + 1]]``,
    one per cell of its geometric 4-adjacent cell walk, which has
    ``path_start[j + 1] - path_start[j]`` cells.  The node at hop h is
    drawn from path cell h or, when that cell is empty, from a nearest
    occupied neighbor (each substitution counted in ``reroutes``); the
    first and last are the line's own source and destination.  A line
    whose endpoints share a cell has a one-cell path and the two nodes
    [source, destination].  The walks are not held: ``cell_paths`` (one
    per line) walks the lines of ``instance`` across ``grid`` again,
    through routing's own block walk, each time it is read.
    """

    path_start: np.ndarray      # n + 1 offsets into the concatenated walks
    nodes: np.ndarray
    node_start: np.ndarray      # n + 1 offsets into nodes
    cell_load: np.ndarray
    node_load: np.ndarray
    reroutes: int
    grid: CellGrid
    instance: NetworkInstance

    @property
    def cell_paths(self) -> list:
        walks = [walk for _, _, walk in _walk_blocks(self.grid, self.instance)]
        return np.split(np.concatenate(walks), self.path_start[1:-1])

    @property
    def max_cell_load(self) -> int:
        return int(self.cell_load.max())


def routing_bytes(lines: int, walked: int, rows: int, columns: int) -> int:
    """Bytes :func:`route_sd_lines` holds for ``lines`` lines over ``walked``
    cells of a rows x columns grid: 8 a walked cell (``nodes``), one walk
    block's temporaries (48 bytes a line of the block and a grid row or
    column), 6 words a grid cell, 16 KiB and, a line, its key and 16 words of
    line arrays."""
    block = min(_WALK_BLOCK, lines)
    return (8 * walked + 48 * block * (rows + columns) + 48 * rows * columns + 16384
            + (rng.KEY_LIST_BYTES + 128) * lines)


def route_sd_lines(grid: CellGrid, instance: NetworkInstance,
                   seed: int) -> RelayPlan:
    """Route every pair along its straight line and pick one relay per cell.

    Relays are drawn uniformly from the traversed cell's nodes on a
    per-line substream, except in endpoint cells where the line's own
    source or destination is used.  An empty interior cell is replaced by
    a nearest occupied cell by 4-adjacency BFS distance, with ties drawn
    uniformly on the same substream.

    A run whose bytes would exceed the machine's physical memory raises
    ValueError before the plan is allocated.

    Routing runs on all lines at once, and each output is the same, bit
    for bit, as a per-line loop of scalar walks and BFS searches.  A
    line's path length follows from its end cells, so ``nodes`` is
    allocated first and filled by one pass over blocks of 256 lines, each
    walked into a temporary, drawn, mapped to nodes and added to the cell
    loads in turn; no walk outlives its block.  A block's crossing times
    come from a row-wise cumsum, which rounds as the scalar ``t += dt``
    does, and merge by counting, x first as in ``t_x <= t_y``: each y step
    goes after the line's x crossings no later than it, and one cumsum of
    the block's steps gives the cells.  Empty cells' nearest-occupied
    candidates are found once a call.
    Line j draws on substream (seed, RELAY, j) the values that
    ``integers(0, 2**31, size=L)`` for its L path cells, and then one
    ``integers(0, k)`` per empty interior cell in hop order (k the cell's
    candidate count), would give.  Every line's key comes from one array
    pass of :func:`rng.philox_keys`, and each block's values from one
    :func:`rng.relay_draws` call, which decodes them from raw words.  A
    line with no interior cell draws too, but its picks are all
    overwritten by its endpoints.  Relay nodes come from the grid's sorted
    node order, and the loads from ``np.bincount``.
    """
    src, dst = instance.source_ids, instance.dest_ids
    r0, c0 = np.divmod(grid.cell_of_node[src], grid.columns)
    r1, c1 = np.divmod(grid.cell_of_node[dst], grid.columns)
    lengths = np.abs(r1 - r0) + np.abs(c1 - c0) + 1
    path_start = np.concatenate(([0], np.cumsum(lengths)))
    check_memory(routing_bytes(len(lengths), int(path_start[-1]), grid.rows, grid.columns),
                 f"hybrid routing of {len(lengths)} lines over {path_start[-1]} cells")
    # a one-cell line is assigned [source, destination]
    node_start = path_start + np.concatenate(([0], np.cumsum(lengths == 1)))
    nodes = np.empty(node_start[-1], dtype=np.intp)
    cell_load = np.zeros(grid.n_cells, dtype=np.intp)
    reroutes = 0
    pool_size = np.diff(grid.cell_start)
    first, count, candidates = _nearest_occupied(grid)
    keys = rng.philox_keys(seed, (rng.RELAY,), np.arange(len(lengths))).tolist()
    for a, b, walk in _walk_blocks(grid, instance):
        # endpoint cells hold the line's own source or destination; integer
        # indices into the walk read and write far faster than a bool mask
        at = np.flatnonzero(pool_size[walk] == 0)
        holes = walk[at]
        picks, ties = rng.relay_draws(keys[a:b], lengths[a:b], count[holes], np.diff(
            np.searchsorted(at, path_start[a:b + 1] - path_start[a])))
        walk[at] = candidates[first[holes] + ties]        # now the relay cells
        np.remainder(picks, pool_size[walk], out=picks)
        picks += grid.cell_start[walk]
        slots = np.arange(path_start[a], path_start[b]) + np.repeat(
            node_start[a:b] - path_start[a:b], lengths[a:b])
        nodes[slots] = grid.node_order[picks]
        cell_load += np.bincount(walk, minlength=grid.n_cells)
        reroutes += len(holes)
    nodes[node_start[:-1]] = src
    nodes[node_start[1:] - 1] = dst
    return RelayPlan(path_start, nodes, node_start, cell_load,
                     np.bincount(nodes, minlength=instance.n_nodes), reroutes,
                     grid, instance)


def hybrid_throughput(plan: RelayPlan, M: int, snr_s: float, alpha: float,
                      epsilon: float = 0.05, K3: float = 1.0) -> ThroughputEstimate:
    """Hybrid aggregate rate from realized relay loads.

    Every relay node shares its outbound budget
    (K3/4) * M^(-eps) * log2(1 + M^(1-alpha/2) * snr_s) equally among the
    lines assigned to it; a line runs at the minimum share along its route,
    the budget over the peak load on it, and the aggregate is the sum over
    lines.  The peak loads are gathered one block of lines at a time.
    """
    if epsilon <= 0 or K3 <= 0:
        raise ValueError("epsilon and K3 must be positive")
    relay_rate = (K3 / 4.0) * M ** (-epsilon) * math.log2(
        1.0 + M ** (1.0 - alpha / 2.0) * snr_s)
    peak = np.empty(len(plan.node_start) - 1, dtype=plan.node_load.dtype)
    for a in range(0, len(peak), _WALK_BLOCK):
        s = plan.node_start[a:a + _WALK_BLOCK + 1]
        peak[a:a + len(s) - 1] = np.maximum.reduceat(
            plan.node_load[plan.nodes[s[0]:s[-1]]], s[:-1] - s[0])
    # Correctly rounded division by a positive load is monotone, so
    # relay_rate / (a line's peak load) is its minimum share, bit for bit.
    per_pair = relay_rate / peak
    aggregate = fsum(per_pair.tolist())
    return ThroughputEstimate(aggregate, aggregate / plan.instance.n_pairs, Scheme.HYBRID)


def simulate_hybrid(instance: NetworkInstance, snr_s: float, alpha: float,
                    epsilon: float = 0.05, K3: float = 1.0, *, M: int):
    """Grid of M-node cells + routing on instance.seed + throughput; returns
    (estimate, plan), whose ``plan.grid`` is the grid."""
    plan = route_sd_lines(build_cell_grid(instance, M), instance, instance.seed)
    return hybrid_throughput(plan, M, snr_s, alpha, epsilon, K3), plan

