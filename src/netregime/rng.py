"""Deterministic random-number plumbing.

All randomness in the package flows through numpy's counter-based Philox
generator. Every consumer derives its substream from a (seed, *path)
tuple of non-negative integers, so trials can be evaluated in any order
without changing a single bit of output.  Short paths that differ only
by trailing zeros share a stream (see :func:`substream`).  Where many
paths share a prefix, as the hybrid scheme's relay streams and a
percolation study's trials do, :func:`philox_keys` derives all their keys in one array pass and
:func:`rekey` points one generator at each in turn: the same streams,
without one ``SeedSequence`` per path (:func:`keyed_generators`).  No
other module builds a bit generator, reads or sets its state, or draws
(:func:`raw_rows`) or decodes (:func:`relay_draws`) its raw words.
Independent draws are summarized by one sample mean and standard error.
"""

from __future__ import annotations

import math

import numpy as np

# Domain tags keep substreams for different purposes disjoint even when the
# user-facing seed values coincide; each harness and CLI call site has its own.
POSITIONS = 1
ROLES = 2
PAIRING = 3
PHASES = 4
RELAY = 5
EXPERIMENT = 6
CROSSING = 7       # percolation studies and their slab trials
CLI_PHASES = 8     # the phases of ``netregime cutset``
CLI_CUT = 9        # the instance of ``netregime percolation --export-cut``


def _seed_sequence(seed: int, path) -> np.random.SeedSequence:
    entropy = (int(seed),) + tuple(int(p) for p in path)
    if any(e < 0 for e in entropy):
        raise ValueError(f"seed path must be non-negative, got {entropy}")
    return np.random.SeedSequence(entropy)


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return a Generator on the Philox substream of (seed, *path).

    ``seed`` and all ``path`` entries must be non-negative integers.  The
    mapping is stable across runs and processes, but not injective:
    ``SeedSequence`` zero-pads its entropy to four 32-bit words, so paths
    that differ only by trailing zeros within those words, such as (5, 1)
    and (5, 1, 0), give the same stream; an entry of 2^32 or more takes
    more than one word.
    """
    return np.random.Generator(np.random.Philox(_seed_sequence(seed, path)))


# numpy's SeedSequence mixing constants; its pool holds 4 32-bit words.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_POOL = 4


def _words(value: int) -> list[int]:
    """Little-endian 32-bit words of ``value``; zero is one word."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hasher(const: int, mult: int):
    """numpy's ``hashmix`` on uint64 arrays; each call advances ``const``."""
    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ (value >> 16)
    return hashmix


def _mix(x, y):
    """numpy's ``mix`` of two 32-bit words held in uint64 arrays."""
    x = (x * _MIX_MULT_L - y * _MIX_MULT_R) & _MASK32
    return x ^ (x >> 16)


def _generate_keys(entropy: list[np.ndarray]) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(2, np.uint64)``, one row per
    column of the 32-bit ``entropy`` words."""
    hashmix = _hasher(_INIT_A, _MULT_A)
    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero)
            for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(word))
    out = _hasher(_INIT_B, _MULT_B)
    w = [out(word) for word in pool]
    return np.stack([w[0] | w[1] << 32, w[2] | w[3] << 32], axis=1)


# Peak bytes a key of ``philox_keys(...).tolist()`` takes while the list is
# made: 152 held, a list of two Python ints, plus its rows of the key and
# index arrays.  A caller that holds such a list counts it at this rate.
KEY_LIST_BYTES = 168


def philox_keys(seed: int, prefix, last) -> np.ndarray:
    """Philox keys of the substreams (seed, *prefix, l) for each l in ``last``.

    Row i equals ``substream(seed, *prefix, last[i])``'s key, that is
    ``SeedSequence((seed, *prefix, last[i])).generate_state(2, np.uint64)``:
    numpy's 32-bit hash mixing runs once, on uint64 arrays masked to 32
    bits, for all entries of ``last`` at a time.
    """
    head = [int(seed)] + [int(p) for p in prefix]
    last = np.asarray(last)
    if min(head) < 0 or (last < 0).any():
        raise ValueError(f"seed path must be non-negative, got {head} + {last}")
    last = last.astype(np.uint64)
    keys = np.empty((len(last), 2), dtype=np.uint64)
    wide = last > _MASK32
    for rows, n_words in ((~wide, 1), (wide, 2)):
        if rows.any():
            tail = [last[rows] & _MASK32, last[rows] >> 32][:n_words]
            keys[rows] = _generate_keys(
                [np.full(len(tail[0]), w, np.uint64)
                 for v in head for w in _words(v)] + tail)
    return keys


def rekey(bit_generator: np.random.Philox, fresh: dict, key) -> None:
    """Put ``bit_generator`` in the fresh state of a Philox with ``key``:
    counter, output buffer and buffered 32-bit half reset.  Only the key of
    ``fresh``, the state dict :func:`keyed_generators` reuses, is replaced."""
    fresh["state"]["key"] = key
    bit_generator.state = fresh


def keyed_generators(keys):
    """Yield one Generator, re-keyed to each key in turn: it draws as the
    substream of that key's path until the next is taken."""
    gen = np.random.Generator(np.random.Philox(0))
    # tuples, which numpy's setter reads faster than a state's own arrays
    fresh = {"bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": None},
             "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for key in keys:
        rekey(gen.bit_generator, fresh, key)
        yield gen


def raw_rows(seed: int, prefix, rows, n_words: int):
    """Yield the first n_words raw 64-bit words of the substream
    (seed, *prefix, i) for each i in ``rows``, in order, from one Philox
    re-keyed to each row's key of one :func:`philox_keys` pass.  Each array
    is fresh; an empty row set draws nothing."""
    for gen in keyed_generators(philox_keys(seed, prefix, rows).tolist()):
        yield gen.bit_generator.random_raw(n_words)


def _ragged_arange(first: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """first[i], first[i] + 1, ..., first[i] + counts[i] - 1 for every i,
    concatenated."""
    return (np.repeat(first - np.cumsum(counts) + counts, counts)
            + np.arange(counts.sum()))


def relay_draws(keys: list, n_picks: np.ndarray, ks: np.ndarray, n_ties: np.ndarray):
    """Per-line ``integers(0, 2**31, size=n_picks[i])`` and then
    ``integers(0, ks_i)``, each on a Philox freshly keyed to keys[i].

    ``ks`` holds every line's tie-break bounds (each below 2**32) in line
    order, n_ties[i] of them for line i.  Returns the picks and the
    tie-breaks as int64, each concatenated over the lines.

    The values are decoded from raw 64-bit words, each split into its low
    32-bit half and then its high half, as numpy's ``next_uint32`` takes
    them.  A pick is its word >> 1: numpy's bounded integers use Lemire's
    multiply-shift, which never rejects for a power-of-two range.  A
    tie-break among k candidates takes m = word * k and is m >> 32, but
    rejects the word and takes the next while m & 0xFFFFFFFF < 2**32 % k;
    k == 1 draws no word.  So a line costs one ``random_raw`` call, as if
    nothing rejects, and all words are decoded at once.  A line with a
    rejection (odds about k / 2**32 per tie-break) shifts its later words,
    so its tie-breaks are drawn again with ``Generator.integers``.
    """
    draws = ks > 1
    drawn = np.concatenate(([0], np.cumsum(draws)))    # drawn ties before each
    tie_edges = np.concatenate(([0], np.cumsum(n_ties)))
    n_raw = (n_picks + drawn[tie_edges[1:]] - drawn[tie_edges[:-1]] + 1) // 2
    raw = np.concatenate([gen.bit_generator.random_raw(size) for gen, size
                          in zip(keyed_generators(keys), n_raw.tolist())])
    words = np.empty(2 * len(raw), dtype=np.uint64)
    words[0::2] = raw & _MASK32
    words[1::2] = raw >> 32
    first = 2 * (np.cumsum(n_raw) - n_raw)              # each line's first word
    picks = (words[_ragged_arange(first, n_picks)] >> 1).astype(np.int64)

    # a drawn tie's word follows its line's picks and earlier drawn ties
    ties = np.zeros(len(ks), dtype=np.int64)
    tie = np.flatnonzero(draws)
    line = np.repeat(np.arange(len(n_ties)), n_ties)[tie]
    k = ks[tie].astype(np.uint64)
    m = words[first[line] + n_picks[line] + drawn[tie] - drawn[tie_edges[line]]] * k
    ties[tie] = m >> 32
    rejected = np.unique(line[(m & _MASK32) < (2 ** 32) % k]).tolist()
    for i, gen in zip(rejected, keyed_generators(keys[i] for i in rejected)):
        gen.integers(0, 2 ** 31, size=n_picks[i])         # the picks' words
        own = slice(tie_edges[i], tie_edges[i + 1])
        ties[own] = gen.integers(0, ks[own])
    return picks, ties


def derived_seed(seed: int, *path: int) -> int:
    """Collapse (seed, *path) into a single reproducible 63-bit integer.

    Like :func:`substream`, trailing zeros within four words do not change
    the value: ``derived_seed(7, 6, 3) == derived_seed(7, 6, 3, 0)``.
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
