"""Deterministic random-number plumbing.

All randomness in the package flows through numpy's counter-based Philox
generator. Every consumer derives its substream from a (seed, *path)
tuple of non-negative integers, so trials can be evaluated in any order
without changing a single bit of output.  Paths that differ only by
trailing zeros share a stream (see :func:`substream`).
Independent draws are summarized by one sample mean and standard error.
"""

from __future__ import annotations

import math

import numpy as np

# Domain tags keep substreams for different purposes disjoint even when the
# user-facing seed values coincide.
POSITIONS = 1
ROLES = 2
PAIRING = 3
PHASES = 4
RELAY = 5
EXPERIMENT = 6


def _seed_sequence(seed: int, path) -> np.random.SeedSequence:
    entropy = (int(seed),) + tuple(int(p) for p in path)
    if any(e < 0 for e in entropy):
        raise ValueError(f"seed path must be non-negative, got {entropy}")
    return np.random.SeedSequence(entropy)


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return a Generator on the Philox substream of (seed, *path).

    ``seed`` and all ``path`` entries must be non-negative integers.  The
    mapping is stable across runs and processes, but not injective:
    ``SeedSequence`` zero-pads its entropy, so paths that differ only by
    trailing zeros, such as (5, 1) and (5, 1, 0), give the same stream.
    """
    return np.random.Generator(np.random.Philox(_seed_sequence(seed, path)))


def derived_seed(seed: int, *path: int) -> int:
    """Collapse (seed, *path) into a single reproducible 63-bit integer.

    Like :func:`substream`, trailing zeros in the path do not change the
    value: ``derived_seed(7, 6, 3) == derived_seed(7, 6, 3, 0)``.
    """
    state = _seed_sequence(seed, path).generate_state(1, np.uint64)[0]
    return int(state >> np.uint64(1))


def mean_stderr(values, single: float = math.nan) -> tuple[float, float]:
    """Sample mean and standard error of the mean of independent draws.

    Sums are exact (``math.fsum``).  One draw has no sample variance; its
    stderr is ``single``, which a caller sets when it knows a better value.
    """
    mean = math.fsum(values) / len(values)
    if len(values) < 2:
        return mean, single
    var = math.fsum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return mean, math.sqrt(var / len(values))
