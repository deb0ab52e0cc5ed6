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
from dataclasses import dataclass, field
from math import fsum

import numpy as np

from . import rng
from .network import NetworkInstance, snr_long
from .regimes import Scheme


class OutOfRegimeError(ValueError):
    """The hybrid construction is not defined at this operating point."""


@dataclass(frozen=True)
class ThroughputEstimate:
    """Aggregate and per-pair rate (bits/s/Hz) of one scheme evaluation."""

    aggregate_T: float
    per_pair_R: float
    scheme: Scheme
    constants: dict = field(default_factory=dict)
    analytic_per_pair: float | None = None


def multihop_throughput(n: int, snr_s: float, K2: float = 1.0) -> ThroughputEstimate:
    """Nearest-neighbor multihop: sqrt(n) parallel hops across the bisection."""
    if K2 <= 0:
        raise ValueError("K2 must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    hop_rate = math.log2(1.0 + snr_s / (1.0 + K2 * snr_s))
    aggregate = math.sqrt(n) * hop_rate
    return ThroughputEstimate(aggregate, aggregate / n, Scheme.MULTIHOP,
                              constants={"K2": K2})


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
        aggregate = tau * K3 * n ** (1.0 - epsilon) * math.log2(1.0 + snr_l / tau)
    else:
        aggregate = K3 * n ** (1.0 - epsilon) * math.log2(1.0 + snr_l)
    return ThroughputEstimate(aggregate, aggregate / n, scheme,
                              constants={"K3": K3, "epsilon": epsilon})


def hybrid_cell_size(snr_s: float, alpha: float, n: int) -> int:
    """Number of nodes per hybrid cell, M = round(snr_s^(1/(alpha/2-1))).

    Defined for alpha > 2 and 1 < snr_s <= n^(alpha/2-1); outside that the
    pure multihop or pure cooperative scheme applies instead.  The
    unrounded M satisfies M^(1-alpha/2) * snr_s >= 1 by construction.
    """
    if alpha <= 2:
        raise OutOfRegimeError("hybrid cells need alpha > 2")
    if snr_s <= 1.0:
        raise OutOfRegimeError("snr_s <= 1: use plain multihop")
    if snr_s > n ** (alpha / 2.0 - 1.0):
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
    """

    cell_side: float
    columns: int
    rows: int
    cell_of_node: np.ndarray            # flat cell id per node
    nodes_of_cell: list                 # flat cell id -> array of node ids

    @property
    def n_cells(self) -> int:
        return self.rows * self.columns

    @property
    def mean_occupancy(self) -> float:
        return len(self.cell_of_node) / self.n_cells

    def flat(self, row: int, col: int) -> int:
        return row * self.columns + col


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
    bounds = np.searchsorted(flat[order], np.arange(1, rows * cols))
    return CellGrid(side, cols, rows, flat, np.split(order, bounds))


def _supercover(p0, p1, cell0: int, cell1: int, grid: CellGrid) -> list[int]:
    """4-connected cell walk along the segment p0 -> p1.

    ``cell0`` and ``cell1`` are the flat ids of the cells holding p0 and
    p1.  Exact corner crossings step to the horizontal neighbor first so
    that consecutive cells always share an edge and the walk is
    deterministic.
    """
    r0, c0 = divmod(int(cell0), grid.columns)
    r1, c1 = divmod(int(cell1), grid.columns)
    cells = [grid.flat(r0, c0)]
    if (r0, c0) == (r1, c1):
        return cells
    dx = p1[0] - p0[0]
    dy = p1[1] - p0[1]
    step_c = 1 if dx > 0 else -1
    step_r = 1 if dy > 0 else -1
    s = grid.cell_side
    # Parametric distance along the segment to the next vertical/horizontal
    # cell boundary; infinity when the segment never crosses one.
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
        cells.append(grid.flat(r, c))
        if (r, c) == (r1, c1):
            return cells
    raise AssertionError("cell walk failed to reach the destination cell")


def _nearest_occupied(grid: CellGrid, flat_id: int, gen) -> int:
    """Closest non-empty cell by 4-adjacency BFS.

    Equidistant candidates are broken uniformly at random on the caller's
    substream so detoured lines spread instead of piling onto one cell.
    """
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
        occupied = sorted(nid for nid in nxt if len(grid.nodes_of_cell[nid]) > 0)
        if occupied:
            return occupied[int(gen.integers(0, len(occupied)))]
        frontier = nxt
    raise AssertionError("no occupied cell anywhere in the grid")


@dataclass
class RelayPlan:
    """Cell routes and relay assignments for every source-destination line.

    ``cell_paths`` holds the geometric 4-adjacent walk of each line;
    ``relay_cells`` is the same sequence with empty cells replaced by their
    nearest occupied neighbor (each substitution counted in ``reroutes``).
    ``assignments[j][h]`` is the node relaying line j at hop h; the first
    and last entries are the line's own source and destination.  A line
    whose endpoints share a cell has a one-cell path and the two-entry
    assignment [source, destination].
    """

    cell_paths: list
    relay_cells: list
    assignments: list
    cell_load: np.ndarray
    node_load: np.ndarray
    reroutes: int

    @property
    def max_cell_load(self) -> int:
        return int(self.cell_load.max())


def route_sd_lines(grid: CellGrid, instance: NetworkInstance,
                   seed: int) -> RelayPlan:
    """Route every pair along its straight line and pick one relay per cell.

    Relays are drawn uniformly from the traversed cell's nodes on a
    per-line substream, except in endpoint cells where the line's own
    source or destination is used.
    """
    cell_paths = []
    relay_cells_all = []
    assignments = []
    cell_load = np.zeros(grid.n_cells, dtype=np.int64)
    node_load = np.zeros(instance.n_nodes, dtype=np.int64)
    reroutes = 0
    for j, (s_id, d_id) in enumerate(zip(instance.source_ids, instance.dest_ids)):
        path = _supercover(instance.positions[s_id], instance.positions[d_id],
                           grid.cell_of_node[s_id], grid.cell_of_node[d_id], grid)
        gen = rng.substream(seed, rng.RELAY, j)
        picks = gen.integers(0, 2 ** 31, size=len(path))
        relay_cells = list(path)
        nodes = [0] * len(path)
        nodes[0] = int(s_id)
        nodes[-1] = int(d_id)
        for h in range(1, len(path) - 1):
            cid = path[h]
            pool = grid.nodes_of_cell[cid]
            if len(pool) == 0:
                cid = _nearest_occupied(grid, cid, gen)
                pool = grid.nodes_of_cell[cid]
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
    return RelayPlan(cell_paths, relay_cells_all, assignments, cell_load,
                     node_load, reroutes)


def hybrid_throughput(plan: RelayPlan, M: int, n: int, snr_s: float,
                      alpha: float, epsilon: float = 0.05, K3: float = 1.0,
                      K4: float | None = None) -> ThroughputEstimate:
    """Hybrid aggregate rate from realized relay loads.

    Every relay node shares its outbound budget
    (K3/4) * M^(-eps) * log2(1 + M^(1-alpha/2) * snr_s) equally among the
    lines assigned to it; a line runs at the minimum share along its route
    and the aggregate is the sum over lines.  The analytic per-pair value
    K4 * sqrt(M) * n^(-1/2-eps) is reported alongside.
    """
    if epsilon <= 0 or K3 <= 0:
        raise ValueError("epsilon and K3 must be positive")
    if K4 is None:
        K4 = K3 / 4.0
    relay_rate = (K3 / 4.0) * M ** (-epsilon) * math.log2(
        1.0 + M ** (1.0 - alpha / 2.0) * snr_s)
    per_pair = []
    for nodes in plan.assignments:
        shares = relay_rate / plan.node_load[nodes]
        per_pair.append(float(shares.min()))
    aggregate = fsum(per_pair)
    return ThroughputEstimate(
        aggregate, aggregate / n, Scheme.HYBRID,
        constants={"K3": K3, "K4": K4, "epsilon": epsilon, "M": M},
        analytic_per_pair=K4 * math.sqrt(M) * n ** (-0.5 - epsilon))


def simulate_hybrid(instance: NetworkInstance, snr_s: float, alpha: float,
                    epsilon: float = 0.05, K3: float = 1.0,
                    K4: float | None = None, M: int | None = None,
                    route_seed: int | None = None):
    """Grid + routing + throughput in one call; returns (estimate, plan, grid)."""
    if M is None:
        M = hybrid_cell_size(snr_s, alpha, instance.n_pairs)
    grid = build_cell_grid(instance, M)
    plan = route_sd_lines(grid, instance,
                          instance.seed if route_seed is None else route_seed)
    est = hybrid_throughput(plan, M, instance.n_pairs, snr_s, alpha,
                            epsilon, K3, K4)
    return est, plan, grid


SCHEME_CSV_HEADER = "n,alpha,beta,scheme,M,aggregate_T,per_pair_R,max_cell_load,reroutes,seed"


def scheme_csv_row(n: int, alpha: float, beta: float, est: ThroughputEstimate,
                   M: int, max_cell_load, reroutes, seed: int) -> str:
    return (f"{n},{alpha:.17g},{beta:.17g},{est.scheme},{M},"
            f"{est.aggregate_T:.17g},{est.per_pair_R:.17g},"
            f"{max_cell_load},{reroutes},{seed}")
