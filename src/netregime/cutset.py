"""Cutset upper-bound machinery for the network midline.

Traffic crossing the vertical bisection is bounded by the capacity of the
MIMO channel between the left node set S and the right node set D.  In
rescaled coordinates the right half splits into a high-SNR strip V_D of
width w_hat - 1 next to the cut, whose transfer is degrees-of-freedom
limited, and the remainder, whose transfer is bounded by its total
received SNR:

    snr_total = snr_s * sum_{i in far} d_hat_i,   d_hat_i = sum_{k in S} rhat_ik^(-alpha)

The strip width is picked so every V_D node has received SNR >= 1 under
independent unit-power signalling from the left:

    w_hat = sqrt(n)                if snr_s >= n^(alpha/2 - 1)
    w_hat = 1                      if snr_s < 1
    w_hat = snr_s^(1/(alpha - 2))  for 1 <= snr_s < n^(alpha/2 - 1)

Two cut modes are supported.  The "idealized" mode clears the unit strip
immediately right of the midline (those nodes are excluded from D); the
"percolation" mode uses the node-free polyline cut of
:func:`netregime.percolation.certified_cut` and accounts the slab's
right-side nodes (the B set) on the power side.

Monte-Carlo evaluation uses the identity transmit covariance, which is an
achievable value for the power transfer and sits below the analytic
degrees-of-freedom plus power envelope on every fading realization.
Rates are bits/s/Hz; the polylog factors in the closed forms use natural
logarithms.

:func:`evaluate_cutset` draws the cut and takes the Monte-Carlo value.
The analytic terms of its :class:`CutsetReport` (snr_total, the realized
strip sum, the power term and the closed-form bound) are computed when
they are read, so a sweep, which reads only the Monte-Carlo value, skips
their received-power sums.  ``scipy.linalg`` is loaded by the first
log-det, not by importing this module.
"""

from __future__ import annotations

import logging
import math
import mmap
from dataclasses import dataclass, field
from functools import cached_property
from math import fsum

import numpy as np
import scipy   # scipy.linalg loads on first use, by the first log-det

from . import percolation as perc
from . import rng
from .network import (PHASE_LEVELS, NetworkInstance, beta_of, channel_bytes,
                      channel_matrix, check_memory, pair_sums, snr_edge)

logger = logging.getLogger(__name__)

LN2 = math.log(2.0)
CUT_MODES = ("idealized", "percolation")
# Receive rows per chunk of a Monte-Carlo trial's H, four ROW_BLOCK blocks.
# A constant, so the chunks, and the order their Grams are summed in, depend
# only on the receive set's size.
CHUNK_ROWS = 256


class PathologicalCutError(ValueError):
    """A cut failed: it left one side of the network empty, or the slab
    held no node-free crossing."""


def _check_point(snr_s: float, alpha: float) -> None:
    if not (2 <= alpha < math.inf and math.isfinite(snr_s) and snr_s > 0):
        raise ValueError(f"need a finite alpha >= 2 and a finite snr_s > 0, "
                         f"got {alpha} and {snr_s}")


@dataclass
class CutPartition:
    """Node sets induced by a vertical cut and a strip width w_hat.

    ``far_D`` collects every right-side node whose information transfer is
    accounted by received power, including the slab B set in percolation
    mode.  ``excluded_E`` holds idealized-mode strip nodes dropped from D.
    """

    left_S: np.ndarray
    strip_VD: np.ndarray
    far_D: np.ndarray
    excluded_E: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.intp))

    @property
    def right_D(self) -> np.ndarray:
        return np.sort(np.concatenate([self.strip_VD, self.far_D]))


def select_cut_width(snr_s: float, n: int, alpha: float) -> float:
    """Rescaled strip width w_hat for the given nearest-neighbor SNR."""
    if n < 2:
        raise ValueError("n must be >= 2")
    _check_point(snr_s, alpha)
    if snr_s >= snr_edge(n, alpha):
        return math.sqrt(n)
    if snr_s < 1.0:
        return 1.0
    return snr_s ** (1.0 / (alpha - 2.0))


def partition_nodes(instance: NetworkInstance, w_hat: float,
                    cut: "perc.CutPolyline | None" = None) -> CutPartition:
    """Split nodes into S, V_D and the power-accounted remainder.

    With no ``cut`` the idealized cut is the midline x = sqrt(A), and the
    right-side nodes at rescaled distance < 1 (the assumed-empty strip) are
    dropped from D.  A certified percolation ``cut`` classifies nodes
    against its polyline; its B-set nodes go to ``far_D``.  Either way,
    V_D holds the right-side nodes with 1 <= xhat <= w_hat.
    """
    n = instance.n_pairs
    if not 1.0 <= w_hat <= math.sqrt(n) * (1 + 1e-12):
        raise ValueError(f"w_hat must lie in [1, sqrt(n)], got {w_hat}")
    xhat = (instance.positions[:, 0] - instance.side) / instance.nn_scale
    excluded = b_set = np.empty(0, dtype=np.intp)
    if cut is None:
        left = np.nonzero(xhat < 0.0)[0]
        excluded = np.nonzero((xhat >= 0.0) & (xhat < 1.0))[0]
        right = np.nonzero(xhat >= 1.0)[0]
    else:
        left, b_set, right = perc.split_by_cut(cut, instance)
    in_strip = (xhat[right] >= 1.0) & (xhat[right] <= w_hat)
    far = np.sort(np.concatenate([right[~in_strip], b_set]))
    part = CutPartition(left, right[in_strip], far, excluded_E=excluded)

    if part.left_S.size == 0 or part.right_D.size == 0:
        raise PathologicalCutError("draw left one side of the cut empty")
    if part.excluded_E.size:
        logger.debug("excluded %d strip nodes from D", part.excluded_E.size)
    return part


def snr_total(instance: NetworkInstance, partition: CutPartition,
              snr_s: float, alpha: float) -> float:
    """Total received SNR of the power-limited right-side nodes, exactly summed."""
    d = pair_sums(instance, partition.far_D, partition.left_S, -alpha)
    return snr_s * fsum(d.tolist())


def _spans_half(w_hat: float, n: int) -> bool:
    """w_hat = sqrt(n): the strip spans the half network and the far set is empty."""
    return abs(w_hat - math.sqrt(n)) <= 1e-12 * math.sqrt(n)


def closed_form_snr_total_bound(snr_s: float, n: int, alpha: float,
                                w_hat: float, K1: float = 1.0) -> float:
    """Closed-form bound on snr_total; natural-log polylog factors.

    Not applicable when w_hat = sqrt(n) (see :func:`_spans_half`).
    """
    if K1 <= 0:
        raise ValueError("K1 must be positive")
    if alpha < 2:
        raise ValueError("alpha must be >= 2")
    if _spans_half(w_hat, n):
        raise ValueError("bound does not apply at w_hat = sqrt(n)")
    ln_n = math.log(n)
    if alpha == 2.0:
        return K1 * snr_s * n * ln_n ** 3
    if alpha < 3.0:
        return K1 * snr_s * n ** (2.0 - alpha / 2.0) * ln_n ** 2
    if alpha == 3.0:
        return K1 * snr_s * math.sqrt(n) * ln_n ** 3
    return K1 * snr_s * w_hat ** (3.0 - alpha) * math.sqrt(n) * ln_n ** 2


def dof_term_realized(instance: NetworkInstance, partition: CutPartition,
                      snr_s: float, alpha: float) -> float:
    """Realized strip bound sum_i log2(1 + n * snr_s * d_hat_i) over V_D.

    The factor n covers any admissible transmit covariance with unit
    per-node power, so this dominates the identity-covariance log-det of
    the strip block on every realization.
    """
    n = instance.n_pairs
    d = pair_sums(instance, partition.strip_VD, partition.left_S, -alpha)
    return fsum(math.log2(1.0 + n * snr_s * float(di)) for di in d)


def _rfp_diagonal(k: int) -> np.ndarray:
    """Positions of the diagonal of a k x k matrix in lower, transr='N'
    rectangular full packed (RFP) storage, as LAPACK's ``ztrttf`` lays it out."""
    i = np.arange(k)
    h = (k + 1) // 2
    if k % 2:
        return np.where(i < h, i * (k + 1), (i - h) * (k + 1) + k)
    return np.where(i < h, i * (k + 2) + 1, (i - h) * (k + 2))


def _mapped_zeros(shape: tuple) -> np.ndarray:
    """A zeroed complex array in a private memory map of its own, unmapped
    when the array is freed, for a trial's packed Gram and chunk buffer.

    From malloc, a freed block of up to 32 MiB raises glibc's mmap
    threshold, so later blocks as large come from a heap that keeps what
    they free, and a sweep's peak RSS grew by about one Gram after its
    first pass.  The map asks for huge pages, as numpy does for its large
    blocks, which halves the time spent faulting it in.
    """
    block = mmap.mmap(-1, 16 * math.prod(shape), flags=mmap.MAP_PRIVATE)
    if hasattr(mmap, "MADV_HUGEPAGE"):   # Linux only
        block.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(block, dtype=complex).reshape(shape)


def _gram_logdet(chunks, k: int, snr_s: float) -> float:
    """log2 det(I + snr_s * H* H) for the k-column H stacked from ``chunks``.

    The Gram matrix is held in rectangular full packed storage, k(k+1)/2
    entries.  ``zhfrk`` adds snr_s times each chunk's Gram into it from
    ``chunk.T``, which for a C-ordered chunk is a Fortran-ordered view that
    BLAS reads without a copy; this forms the complex conjugate of H* H,
    which has the same determinant.  Each chunk is added before the next is
    drawn from ``chunks``, so every chunk may be a view of one buffer.
    Every eigenvalue of I + snr_s * G is at least 1, so the Cholesky factor
    L from ``zpftrf`` is backward stable, and log2 det = 2 * sum_i log2 L_ii.
    Returns NaN when the factorization fails or its diagonal is not finite,
    as on non-finite entries.
    """
    lapack = scipy.linalg.lapack
    gram = _mapped_zeros((k * (k + 1) // 2,))
    for chunk in chunks:
        gram = lapack.zhfrk(k, chunk.shape[0], snr_s, chunk.T, 1.0, gram,
                            transr="N", uplo="L", overwrite_c=1)
    diagonal = _rfp_diagonal(k)
    gram[diagonal] += 1.0
    factor, info = lapack.zpftrf(k, gram, transr="N", uplo="L", overwrite_a=1)
    pivots = factor[diagonal].real
    if info != 0 or not np.isfinite(pivots).all():
        return math.nan
    return 2.0 * fsum(np.log2(pivots).tolist())


def identity_logdet(entries: np.ndarray, snr_s: float) -> float:
    """log2 det(I + snr_s * H H*) of one matrix H = ``entries``: the one-chunk
    case of the Monte-Carlo kernel, which factors the Gram of H's columns."""
    return _gram_logdet([entries], entries.shape[1], snr_s)


def _chunk_bounds(n_rx: int) -> list:
    """Receive-row bounds of the chunks one Monte-Carlo trial builds H in:
    CHUNK_ROWS rows each, and the rest in the last.  The split depends only
    on the receive set's size, never on the machine."""
    return list(range(0, n_rx, CHUNK_ROWS)) + [n_rx]


def trial_bytes(n_rx: int, k: int, n_nodes: int) -> int:
    """Bytes one Monte-Carlo trial holds for n_rx receivers and k
    transmitters: the packed Gram, 8 k(k+1) bytes, the chunk buffer with
    the row-block buffers that fill it, and the phase table with the angles
    it is built from, 24 bytes an entry, which the first trial of a process
    makes."""
    return (8 * k * (k + 1) + channel_bytes(min(n_rx, CHUNK_ROWS), k, n_nodes)
            + 24 * PHASE_LEVELS)


@dataclass(frozen=True)
class MCLogdet:
    mean: float
    stderr: float
    values: tuple
    discarded: int

    @property
    def trials_used(self) -> int:
        return len(self.values)


def mc_cutset_logdet(instance: NetworkInstance, partition: CutPartition,
                     snr_s: float, alpha: float, trials: int,
                     phase_seed: int) -> MCLogdet:
    """Identity-covariance cutset value at snr_s, averaged over fading redraws.

    Each trial redraws every pairwise phase from an independent substream
    of ``phase_seed``, so trial t is reproducible regardless of execution
    order.  A trial builds H's receive rows with :func:`channel_matrix` in
    the chunks of :func:`_chunk_bounds`, each into one CHUNK_ROWS x |tx|
    buffer, and adds each into the packed transmit-side Gram of
    :func:`_gram_logdet`, so it holds the Gram and one chunk, never all of
    H.  A trial that would not fit in physical memory raises ValueError
    before any phase is drawn.  Non-finite trial values are discarded and
    counted.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _check_point(snr_s, alpha)
    tx = np.sort(partition.left_S)
    rx = partition.right_D
    k = tx.size
    bounds = _chunk_bounds(rx.size)
    check_memory(trial_bytes(rx.size, k, instance.n_nodes),
                 f"a cutset trial with {k} transmitters")
    buffer = _mapped_zeros((min(rx.size, CHUNK_ROWS), k))
    values = []
    discarded = 0
    for t in range(trials):
        seed = rng.derived_seed(phase_seed, t)
        chunks = (channel_matrix(instance, alpha, tx, rx[a:b], phase_seed=seed,
                                 out=buffer[:b - a]).entries
                  for a, b in zip(bounds, bounds[1:]))
        v = _gram_logdet(chunks, k, snr_s)
        if math.isfinite(v):
            values.append(v)
        else:
            discarded += 1
            logger.warning("discarded non-finite log-det trial %d", t)
    if not values:
        raise ArithmeticError("every Monte-Carlo trial was non-finite")
    mean, stderr = rng.mean_stderr(values)
    return MCLogdet(mean, stderr, tuple(values), discarded)


@dataclass
class CutsetReport:
    """One cut of one instance: its Monte-Carlo value and its analytic columns.

    :func:`evaluate_cutset` computes the Monte-Carlo value.  The four
    analytic columns are computed when first read, once each, so a sweep,
    which reads only ``mc_logdet`` and ``mc_stderr``, never pays for their
    received-power sums:

    * ``snr_total``, the total received SNR of the far set;
    * ``dof_term``, the realized strip sum used in per-realization chains;
    * ``power_term``, n^epsilon * snr_total / ln 2, in bits;
    * ``closed_form_bound``, NaN when w_hat = sqrt(n).
    """

    n: int
    alpha: float
    beta: float
    w_hat: float
    size_VD: int
    mc_logdet: float
    mc_stderr: float
    trials: int
    seed: int
    # the inputs of the analytic columns
    instance: NetworkInstance
    partition: CutPartition
    snr_s: float
    epsilon: float
    K1: float

    @cached_property
    def dof_term(self) -> float:
        return dof_term_realized(self.instance, self.partition, self.snr_s, self.alpha)

    @cached_property
    def snr_total(self) -> float:
        return snr_total(self.instance, self.partition, self.snr_s, self.alpha)

    @cached_property
    def power_term(self) -> float:
        return self.n ** self.epsilon * self.snr_total / LN2

    @cached_property
    def closed_form_bound(self) -> float:
        if _spans_half(self.w_hat, self.n):
            return math.nan
        return closed_form_snr_total_bound(self.snr_s, self.n, self.alpha,
                                           self.w_hat, self.K1)


def evaluate_cutset(instance: NetworkInstance, snr_s: float, alpha: float,
                    trials: int = 20, phase_seed: int = 0,
                    mode: str = "idealized", c: float = 0.25,
                    epsilon: float = 0.05,
                    K1: float = 1.0) -> CutsetReport:
    """Cut one instance at nearest-neighbor SNR snr_s and take its
    Monte-Carlo value; the report computes its analytic columns when read.

    Partition, analytic terms and Monte-Carlo value all use this snr_s and
    alpha.  ``mode`` is one of :data:`CUT_MODES`; any other value, or a K1
    or epsilon that is not positive, raises ValueError before the cut and
    the phases are drawn.
    """
    if mode not in CUT_MODES:
        raise ValueError(f"unknown cut mode {mode!r}")
    if not (K1 > 0 and epsilon > 0):
        raise ValueError(f"K1 and epsilon must be positive, got {K1} and {epsilon}")
    n = instance.n_pairs
    w_hat = select_cut_width(snr_s, n, alpha)   # checks snr_s and alpha
    cut = None
    if mode == "percolation":
        cut = perc.certified_cut(instance, c)
        if cut is None:
            raise PathologicalCutError("no node-free crossing in the slab")
    part = partition_nodes(instance, w_hat, cut)
    mc = mc_cutset_logdet(instance, part, snr_s, alpha, trials, phase_seed)
    return CutsetReport(
        n=n, alpha=alpha, beta=beta_of(snr_s, n), w_hat=w_hat,
        size_VD=int(part.strip_VD.size), mc_logdet=mc.mean, mc_stderr=mc.stderr,
        trials=mc.trials_used, seed=instance.seed, instance=instance, partition=part,
        snr_s=snr_s, epsilon=epsilon, K1=K1)
