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

Only this module passes over node pairs (:func:`channel_matrix`,
:func:`pair_sums`), splits their rows into blocks (:func:`row_blocks`),
counts what they allocate (:func:`channel_bytes`) and reads the machine's
physical memory (:func:`check_memory`).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import rng

# Receive rows per block of the channel build and of the pair sums, which
# work in two ROW_BLOCK x |tx| float buffers allocated once per call.  A
# row's values depend only on that row's inputs, so no output depends on
# the block size.  A cutset chunk of cutset.CHUNK_ROWS = 256 receive rows is
# four blocks.
ROW_BLOCK = 64


class DegenerateInstanceError(ValueError):
    """Two nodes share a position, so their path gain is undefined."""


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
        if not 0 < self.area_A < math.inf:
            raise ValueError(f"area_A must be positive and finite, got {self.area_A}")
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


def draw_positions(n_pairs: int, area_A: float, seed: int) -> np.ndarray:
    """2n i.i.d. uniform positions on the rectangle, from substream (seed, POSITIONS).

    Each coordinate is a draw from [0, 1) scaled by the rectangle's side,
    which keeps it inside the rectangle and has the bits of ``uniform``
    with a lower bound of 0.  Positions are not checked for coincidence:
    two given nodes share a position with probability at most 2^-104, and
    a coincident pair raises :class:`DegenerateInstanceError` from
    :func:`path_gain`, as it does on a hand-built instance.
    """
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be >= 1, got {n_pairs}")
    if not 0 < area_A < math.inf:
        raise ValueError(f"area_A must be positive and finite, got {area_A}")
    side = math.sqrt(area_A)
    positions = rng.substream(seed, rng.POSITIONS).random((2 * n_pairs, 2))
    positions[:, 0] *= 2 * side
    positions[:, 1] *= side
    return positions


def instance_bytes(n_pairs: int) -> int:
    """Bytes :func:`generate_network` peaks at for n_pairs pairs: 102 a pair,
    48 held (positions and role ids) and 54 of role permutation, masks and
    the instance's role checks, with at most 4 KiB of small objects besides."""
    return 102 * n_pairs + 4096


def generate_network(n_pairs: int, area_A: float, seed: int) -> NetworkInstance:
    """Draw a random instance: 2n uniform positions, n sources, a uniform pairing.

    Positions come from :func:`draw_positions`, the roles from substream
    (seed, ROLES) and the pairing from substream (seed, PAIRING).  A draw
    that would not fit in physical memory raises ValueError before any
    position is drawn.
    """
    check_memory(instance_bytes(n_pairs), f"an instance of {n_pairs} pairs")
    positions = draw_positions(n_pairs, area_A, seed)
    role_perm = rng.substream(seed, rng.ROLES).permutation(2 * n_pairs)
    is_source = np.zeros(2 * n_pairs, dtype=bool)
    is_source[role_perm[:n_pairs]] = True
    dest_ids = rng.substream(seed, rng.PAIRING).permutation(
        np.flatnonzero(~is_source))
    return NetworkInstance(n_pairs, float(area_A), seed, positions,
                           np.flatnonzero(is_source), dest_ids)


def snr_long(snr_s: float, n: int, alpha: float) -> float:
    """Total SNR transferable across the network diameter, n^(1-alpha/2) * snr_s."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return n ** (1.0 - alpha / 2.0) * snr_s


def snr_edge(n: int, alpha: float) -> float:
    """The snr_s = n^(alpha/2-1) at which snr_long reaches 1, or math.inf
    when that overflows a float."""
    try:
        return n ** (alpha / 2.0 - 1.0)
    except OverflowError:
        return math.inf


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


def node_phases(n_nodes: int, phase_seed: int, rows: np.ndarray, cols: np.ndarray,
                out: np.ndarray) -> np.ndarray:
    """Uniform [0, 2pi) phases of the node pairs (rows[j], cols[k]), in out[j, k].

    Element (i, k) is that of one (n_nodes, n_nodes) row-major draw
    ``uniform(0, 2pi)`` from the substream (phase_seed, PHASES), value for
    value.  ``uniform(0, 2pi)`` is 0 + 2pi * random(), which is exactly
    random() * 2pi, so the rows are drawn by :func:`rng.uniform_rows` and
    scaled.  The phase of pair (i, k) is thus a pure function of
    (phase_seed, i, k), and any submatrix is consistent across calls.  A
    fresh phase_seed models a fresh fading realization.  This is the one
    phase path: :func:`channel_matrix` draws every phase through it.
    """
    rng.uniform_rows(phase_seed, (rng.PHASES,), (n_nodes, n_nodes), rows, cols, out)
    out *= 2.0 * math.pi
    return out


def path_gain(instance: NetworkInstance, rx, tx, exponent: float,
              out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Rescaled path gains rhat[i, k]^exponent from node tx[k] to node rx[i], in ``out``.

    rhat is the distance sqrt(dx*dx + dy*dy), formed one coordinate at a
    time, which rounds exactly as a sum over a coordinate axis does, and
    then divided by nn_scale.  dx is formed in ``out`` and dy in ``work``;
    both have shape (|rx|, |tx|).  A coincident pair (rhat = 0) raises
    :class:`DegenerateInstanceError`; no other path checks for one.
    """
    x, y = instance.positions[:, 0], instance.positions[:, 1]
    dx = np.subtract(x[rx][:, None], x[tx], out=out)
    dy = np.subtract(y[rx][:, None], y[tx], out=work)
    dx *= dx
    dy *= dy
    dx += dy
    rhat = np.sqrt(dx, out=dx)
    rhat /= instance.nn_scale
    if not rhat.all():         # a zero distance; no |rx| x |tx| mask
        raise DegenerateInstanceError("coincident nodes: a path gain is undefined")
    rhat **= exponent
    return rhat


def channel_bytes(n_rx: int, n_tx: int, n_nodes: int) -> int:
    """Bytes one :func:`channel_matrix` call holds for n_rx x n_tx entries
    of an instance of n_nodes nodes: the complex128 entries (its result, or
    the caller's ``out``), the two row-block buffers that fill them, a
    block's receive ids, and the larger of its distance scratch and its
    phase draw.  The distance scratch is the gathered coordinates, two
    ufunc buffers of ``np.getbufsize()`` doubles that broadcasting takes,
    and 4 KiB besides."""
    height = min(n_rx, ROW_BLOCK)
    scratch = max(8 * (height + n_tx) + 16 * np.getbufsize() + 4096,
                  rng.uniform_rows_bytes(height, n_nodes, n_tx))
    return 16 * n_rx * n_tx + 16 * height * n_tx + 8 * height + scratch


def row_blocks(n_rows: int, width: int):
    """Yield ``(rows, a, b)`` for each ROW_BLOCK block of n_rows rows, in order.

    ``rows`` is the block's slice, and ``a`` and ``b`` are float buffers of
    its height by width, cut from one pair that the call allocates once.
    The caller may overwrite them, and writes only the block's rows of its
    result.
    """
    height = min(n_rows, ROW_BLOCK)
    a, b = np.empty((height, width)), np.empty((height, width))
    for start in range(0, n_rows, ROW_BLOCK):
        stop = min(start + ROW_BLOCK, n_rows)
        yield slice(start, stop), a[:stop - start], b[:stop - start]


def pair_sums(instance: NetworkInstance, rx, tx, exponent: float) -> np.ndarray:
    """sum_k rhat[rx[i], tx[k]]^exponent for each receive node rx[i], phase free.

    Each row block's gains come from :func:`path_gain` in the buffers of
    :func:`row_blocks`, so a receive node on a transmit node raises
    DegenerateInstanceError.  Each row's sum is that of one unblocked
    evaluation.
    """
    sums = np.empty(len(rx))
    for rows, gain, work in row_blocks(len(rx), len(tx)):
        path_gain(instance, rx[rows], tx, exponent, gain, work)
        np.sum(gain, axis=1, out=sums[rows])
    return sums


def check_memory(need: float, what: str) -> None:
    """Raise ValueError, before a stage allocates, when ``what`` needs more
    than the machine's physical memory: ``need`` bytes, the stage's count."""
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > memory:
        raise ValueError(f"{what} needs {need / 2**30:.3g} GiB, more than the "
                         f"{memory / 2**30:.3g} GiB of physical memory")


def channel_matrix(instance: NetworkInstance, alpha: float,
                   tx_set, rx_set, phase_seed: int,
                   out: np.ndarray | None = None) -> ChannelMatrix:
    """Channel matrix between two disjoint node sets for one fading draw.

    Magnitudes are the path gains rhat^(-alpha/2) of :func:`path_gain`, so
    coincident nodes raise DegenerateInstanceError.  Entry (i, k) has the
    phase of node pair (rx[i], tx[k]) from :func:`node_phases`.  The matrix
    is filled in the ROW_BLOCK blocks of receive rows of :func:`row_blocks`.
    A block draws only its own phase rows and transmit columns.  It writes
    cos and sin of the phases straight into the real and imaginary parts
    of the result, which gives the bits of exp(1j * phase), and scales
    both parts by the magnitude in place.
    No temporary besides the result grows with |rx|.  Given a complex
    ``out`` of shape (|rx|, |tx|), the entries are written there, and the
    result marks a read-only view of ``out``, so the caller can refill it
    for the next draw.
    """
    tx = np.asarray(tx_set, dtype=np.intp)
    rx = np.asarray(rx_set, dtype=np.intp)
    if tx.size == 0 or rx.size == 0:
        raise ValueError("tx_set and rx_set must be non-empty")
    if np.intersect1d(tx, rx).size:
        raise ValueError("tx_set and rx_set must be disjoint")

    if out is None:
        out = np.empty((rx.size, tx.size), dtype=complex)
    elif out.shape != (rx.size, tx.size) or out.dtype != complex:
        raise ValueError(f"out must be a complex array of shape {(rx.size, tx.size)}")

    for rows, theta, magnitude in row_blocks(rx.size, tx.size):
        path_gain(instance, rx[rows], tx, -alpha / 2.0, magnitude, theta)
        node_phases(instance.n_nodes, phase_seed, rx[rows], tx, theta)
        re, im = out[rows].real, out[rows].imag
        np.cos(theta, out=re)
        np.sin(theta, out=im)
        re *= magnitude
        im *= magnitude
    return ChannelMatrix(out.view())
