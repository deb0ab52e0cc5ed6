"""Random network instances and the phase-fading channel model.

Geometry: 2n nodes are dropped i.i.d. uniform on a 2*sqrt(A) x sqrt(A)
rectangle.  n of them are sources, paired one-to-one with the n
destinations by a uniformly random bijection that ignores location.

Channel: the gain between nodes i and k has magnitude
sqrt(G) * r_ik^(-alpha/2) and a uniform random phase, independent across
node pairs and redrawn independently for every fading realization.  In
rescaled coordinates, where distances are measured in units of the typical
nearest-neighbor spacing sqrt(A/n), the magnitude is rhat_ik^(-alpha/2).

Two SNR summaries drive everything downstream:

    snr_short = G * P / (N0 * W * (A/n)^(alpha/2))      nearest-neighbor SNR
    snr_long  = n^(1 - alpha/2) * snr_short             network-diameter SNR
                (n times the SNR between nodes separated by the diameter)

Rates are in bits (log base 2) throughout; positions in meters, powers in
Watts.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass

import numpy as np

from . import rng

logger = logging.getLogger(__name__)

# Receive rows per block of the channel build and of the cutset's
# received-power sums; each block's temporaries are ROW_BLOCK x |tx|.
ROW_BLOCK = 256
# Unrequested phases node_phases draws and drops rather than jumping over
# them: a counter jump costs about as much as drawing this many.
_MAX_GAP = 512
# Draws generate_network makes before it gives up on distinct positions.
_MAX_ATTEMPTS = 16


class DegenerateInstanceError(ValueError):
    """Raised when node geometry makes a channel quantity undefined."""


@dataclass(frozen=True)
class PhysicalParams:
    """Transmit power, noise level, bandwidth and path-loss environment."""

    power_P: float
    noise_N0: float
    bandwidth_W: float
    alpha: float
    gain_G: float = 1.0

    def __post_init__(self):
        for name in ("power_P", "noise_N0", "bandwidth_W", "gain_G"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        if self.alpha < 2:
            raise ValueError(f"alpha must be >= 2, got {self.alpha}")


@dataclass
class NetworkInstance:
    """One random draw of node positions, roles and source-destination pairing.

    ``source_ids[j]`` talks to ``dest_ids[j]``.  Instances are immutable
    after construction; the position array is write-protected.
    """

    n_pairs: int
    area_A: float
    seed: int
    positions: np.ndarray          # shape (2n, 2)
    source_ids: np.ndarray         # shape (n,)
    dest_ids: np.ndarray           # shape (n,)

    def __post_init__(self):
        self.positions = np.ascontiguousarray(self.positions, dtype=float)
        self.source_ids = np.asarray(self.source_ids, dtype=np.intp)
        self.dest_ids = np.asarray(self.dest_ids, dtype=np.intp)
        n = self.n_pairs
        if self.positions.shape != (2 * n, 2):
            raise ValueError("positions must have shape (2*n_pairs, 2)")
        if len(self.source_ids) != n or len(self.dest_ids) != n:
            raise ValueError("need exactly n sources and n destinations")
        ids = np.concatenate([self.source_ids, self.dest_ids])
        if ids.size and (ids.min() < 0 or ids.max() >= 2 * n):
            raise ValueError(f"role ids must lie in [0, {2 * n})")
        is_source = np.zeros(2 * n, dtype=bool)
        is_source[self.source_ids] = True
        if is_source[self.dest_ids].any():
            raise ValueError("source and destination sets overlap")
        if np.any(np.bincount(ids, minlength=2 * n) != 1):
            raise ValueError("roles must cover every node exactly once")
        side = math.sqrt(self.area_A)
        eps = 1e-9 * side
        if (np.any(self.positions < -eps)
                or np.any(self.positions[:, 0] > 2 * side + eps)
                or np.any(self.positions[:, 1] > side + eps)):
            raise ValueError("positions must lie inside the 2*sqrt(A) x sqrt(A) rectangle")
        self.positions.setflags(write=False)
        self.source_ids.setflags(write=False)
        self.dest_ids.setflags(write=False)

    @property
    def n_nodes(self) -> int:
        return 2 * self.n_pairs

    @property
    def side(self) -> float:
        """Height sqrt(A) of the rectangle; the width is twice this."""
        return math.sqrt(self.area_A)

    @property
    def nn_scale(self) -> float:
        """Typical nearest-neighbor distance sqrt(A/n)."""
        return math.sqrt(self.area_A / self.n_pairs)

    @property
    def is_source(self) -> np.ndarray:
        mask = np.zeros(self.n_nodes, dtype=bool)
        mask[self.source_ids] = True
        return mask

    def to_json(self) -> str:
        doc = {
            "n": self.n_pairs,
            "area_A": self.area_A,
            "seed": self.seed,
            "positions": self.positions.tolist(),
            "roles": [1 if s else 0 for s in self.is_source],
            "pairing": [[int(s), int(d)] for s, d in zip(self.source_ids, self.dest_ids)],
        }
        return json.dumps(doc)


def _has_coincident_nodes(positions: np.ndarray) -> bool:
    """True iff two rows of ``positions`` are equal in both coordinates.

    Coincident nodes share an x, so the exact check over both columns runs
    only when the sorted x column has two equal neighbours.
    """
    x = np.sort(positions[:, 0])
    if not np.any(x[1:] == x[:-1]):
        return False
    order = np.lexsort(positions.T)
    p = positions[order]
    return bool(np.any(np.all(p[1:] == p[:-1], axis=1)))


def generate_network(n_pairs: int, area_A: float, seed: int) -> NetworkInstance:
    """Draw a random instance: 2n uniform positions, n sources, a uniform pairing.

    Deterministic given ``seed``.  Draws with exactly coincident nodes (a
    probability-zero event that floating point makes merely improbable) are
    rejected and redrawn; attempt k > 0 appends k to the substream paths, so
    a redraw does not repeat the first draw of seed + k.
    """
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be >= 1, got {n_pairs}")
    if area_A <= 0:
        raise ValueError(f"area_A must be positive, got {area_A}")
    side = math.sqrt(area_A)
    for attempt in range(_MAX_ATTEMPTS):
        retry = (attempt,) if attempt else ()
        gen = rng.substream(seed, rng.POSITIONS, *retry)
        positions = gen.uniform((0.0, 0.0), (2 * side, side), size=(2 * n_pairs, 2))
        if _has_coincident_nodes(positions):
            logger.warning("coincident nodes for seed %d, attempt %d; redrawing",
                           seed, attempt)
            continue
        role_perm = rng.substream(seed, rng.ROLES, *retry).permutation(2 * n_pairs)
        source_ids = np.sort(role_perm[:n_pairs])
        dest_pool = np.sort(role_perm[n_pairs:])
        dest_ids = rng.substream(seed, rng.PAIRING, *retry).permutation(dest_pool)
        return NetworkInstance(n_pairs, float(area_A), seed, positions,
                               source_ids, dest_ids)
    raise DegenerateInstanceError(
        f"could not draw distinct positions after {_MAX_ATTEMPTS} attempts")


def snr_short(params: PhysicalParams, n: int, area_A: float) -> float:
    """Average SNR between nearest-neighbor nodes, G*P / (N0*W*(A/n)^(alpha/2))."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if area_A <= 0:
        raise ValueError("area_A must be positive")
    spacing = area_A / n
    return params.gain_G * params.power_P / (
        params.noise_N0 * params.bandwidth_W * spacing ** (params.alpha / 2.0))


def snr_long(snr_s: float, n: int, alpha: float) -> float:
    """Total SNR transferable across the network diameter, n^(1-alpha/2) * snr_s."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return n ** (1.0 - alpha / 2.0) * snr_s


def beta_of(snr_s: float, n: int) -> float:
    """Finite-n exponent ln(snr_s)/ln(n) of the nearest-neighbor SNR."""
    if n < 2:
        raise ValueError("n must be >= 2 for a meaningful exponent")
    if snr_s <= 0:
        raise ValueError("snr_s must be positive")
    return math.log(snr_s) / math.log(n)


@dataclass
class ChannelMatrix:
    """Complex gains between a transmit and a receive node set.

    ``entries[i, k]`` is the gain from the k-th transmitter to the i-th
    receiver, in the order the sets were given.
    """

    entries: np.ndarray

    def __post_init__(self):
        self.entries.setflags(write=False)


def node_phases(n_nodes: int, phase_seed: int, rows) -> np.ndarray:
    """Uniform [0, 2pi) phases of the ordered node pairs (i, k), i in ``rows``.

    Row j is row ``rows[j]`` of one (n_nodes, n_nodes) row-major draw from
    the substream (phase_seed, PHASES), value for value.  Each uniform
    double consumes one Philox output and each counter step yields four,
    so row i starts i * n_nodes // 4 counter steps after the seeded state,
    with i * n_nodes % 4 outputs discarded.  The phase of pair (i, k) is
    thus a pure function of (phase_seed, i, k), and any submatrix is
    consistent across calls.  A fresh phase_seed models a fresh fading
    realization.

    Requested rows are drawn in ascending runs: rows at most _MAX_GAP
    unrequested outputs apart share one draw, and each run starts with a
    counter jump.
    """
    rows = np.asarray(rows, dtype=np.intp)
    phases = np.empty((rows.size, n_nodes))
    if rows.size == 0:
        return phases
    if rows.min() < 0 or rows.max() >= n_nodes:
        raise ValueError(f"phase rows must lie in [0, {n_nodes})")
    gen = rng.substream(phase_seed, rng.PHASES)
    bits = gen.bit_generator
    seeded = bits.state
    order = np.argsort(rows, kind="stable")
    gaps = (np.diff(rows[order]) - 1) * n_nodes
    for run in np.split(order, np.flatnonzero(gaps > _MAX_GAP) + 1):
        first, last = int(rows[run[0]]), int(rows[run[-1]])
        bits.state = seeded
        bits.advance(first * n_nodes // 4)
        bits.random_raw(first * n_nodes % 4)
        span = gen.uniform(0.0, 2.0 * math.pi, (last - first + 1, n_nodes))
        phases[run] = span[rows[run] - first]
    return phases


def distances(instance: NetworkInstance, rx, tx) -> np.ndarray:
    """Unscaled distances r[i, k] from node rx[i] to node tx[k].

    sqrt(dx*dx + dy*dy) one coordinate at a time rounds exactly as a sum
    over a coordinate axis does, and builds no |rx| x |tx| x 2 temporary.
    """
    x, y = instance.positions[:, 0], instance.positions[:, 1]
    dx = x[rx][:, None] - x[tx]
    dy = y[rx][:, None] - y[tx]
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def channel_matrix(instance: NetworkInstance, params: PhysicalParams,
                   tx_set, rx_set, phase_seed: int) -> ChannelMatrix:
    """Channel matrix between two disjoint node sets for one fading draw.

    Magnitudes are rescaled, rhat^(-alpha/2).  The matrix is filled in
    blocks of ROW_BLOCK receive rows, each with only its own phase rows,
    so no temporary grows beyond one block besides the result.
    """
    tx = np.asarray(tx_set, dtype=np.intp)
    rx = np.asarray(rx_set, dtype=np.intp)
    if tx.size == 0 or rx.size == 0:
        raise ValueError("tx_set and rx_set must be non-empty")
    if np.intersect1d(tx, rx).size:
        raise ValueError("tx_set and rx_set must be disjoint")

    exponent = -params.alpha / 2.0
    entries = np.empty((rx.size, tx.size), dtype=complex)
    for start in range(0, rx.size, ROW_BLOCK):
        rows = rx[start:start + ROW_BLOCK]
        r = distances(instance, rows, tx)
        if np.any(r == 0.0):
            raise DegenerateInstanceError("coincident transmitter/receiver positions")
        magnitude = (r / instance.nn_scale) ** exponent
        block = entries[start:start + ROW_BLOCK]
        np.exp(1j * node_phases(instance.n_nodes, phase_seed, rows)[:, tx], out=block)
        block *= magnitude
    return ChannelMatrix(entries)

