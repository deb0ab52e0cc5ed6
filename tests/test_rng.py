import numpy as np
import pytest

from netregime import rng


def seed_sequence_keys(seed, prefix, last):
    return np.array([np.random.SeedSequence((seed, *prefix, int(v)))
                     .generate_state(2, np.uint64) for v in last],
                    dtype=np.uint64).reshape(-1, 2)


SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63 - 1, 2 ** 64 + 5]
PREFIXES = [
    (),
    (rng.RELAY,),
    (rng.EXPERIMENT, 3),
    (rng.RELAY, 0),
    (1, 2, 3, 4, 5),                       # past the 4-word pool
    (2 ** 70, 7, 2 ** 40, 9),              # multi-word entries past the pool
]
LAST = np.array([0, 1, 2, 3, 17, 4095, 2 ** 31, 2 ** 32 - 1, 2 ** 32,
                 2 ** 40 + 7, 2 ** 63 - 1], dtype=np.int64)


class TestPhiloxKeys:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("prefix", PREFIXES)
    def test_match_seed_sequence(self, seed, prefix):
        got = rng.philox_keys(seed, prefix, LAST)
        assert got.dtype == np.uint64 and got.shape == (len(LAST), 2)
        assert np.array_equal(got, seed_sequence_keys(seed, prefix, LAST))

    def test_trailing_zero_collides_as_numpy_does(self):
        # (5, RELAY, 0) and (5, RELAY) share a stream: SeedSequence pads
        # short entropy with zeros.  Past the pool a zero is not padding.
        short = np.random.SeedSequence((5, rng.RELAY)).generate_state(2, np.uint64)
        assert np.array_equal(rng.philox_keys(5, (rng.RELAY,), [0])[0], short)
        long_ = np.random.SeedSequence((5, 1, 2, 3)).generate_state(2, np.uint64)
        assert not np.array_equal(rng.philox_keys(5, (1, 2, 3), [0])[0], long_)

    def test_empty_and_negative(self):
        assert rng.philox_keys(3, (rng.RELAY,), np.array([], dtype=np.int64)).shape == (0, 2)
        with pytest.raises(ValueError):
            rng.philox_keys(-1, (rng.RELAY,), [0])
        with pytest.raises(ValueError):
            rng.philox_keys(3, (rng.RELAY,), [0, -2])


class TestRekey:
    def test_fresh_state(self):
        bit_generator = np.random.Philox(0)
        np.random.Generator(bit_generator).integers(0, 2 ** 31, size=3)
        key = rng.philox_keys(9, (rng.RELAY,), [4]).tolist()[0]
        rng.rekey(bit_generator, key)
        want = rng.substream(9, rng.RELAY, 4).bit_generator.state
        got = bit_generator.state
        for field in ("buffer_pos", "has_uint32", "uinteger"):
            assert got[field] == want[field]
        for got_a, want_a in ((got["state"]["counter"], want["state"]["counter"]),
                              (got["state"]["key"], want["state"]["key"]),
                              (got["buffer"], want["buffer"])):
            assert np.array_equal(got_a, want_a)

    @pytest.mark.parametrize("seed", [7, rng.derived_seed(2, rng.EXPERIMENT, 1, 3)])
    def test_draws_after_a_buffered_half(self, seed):
        # An odd number of 32-bit draws leaves half of a 64-bit output
        # buffered.  Re-keying must drop it, or the next line's draws shift.
        lines = list(range(40))
        keys = rng.philox_keys(seed, (rng.RELAY,), lines).tolist()
        bit_generator = np.random.Philox(0)
        gen = np.random.Generator(bit_generator)
        bounds = np.array([2, 3, 5, 1, 4, 7, 2], dtype=np.int64)
        buffered = []
        for j, key in zip(lines, keys):
            k = 2 * j + 1
            buffered.append(bit_generator.state["has_uint32"])
            rng.rekey(bit_generator, key)
            got = gen.integers(0, 2 ** 31, size=k), gen.integers(0, bounds[:j % 8])
            ref = rng.substream(seed, rng.RELAY, j)
            want = ref.integers(0, 2 ** 31, size=k), ref.integers(0, bounds[:j % 8])
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w)
            assert gen.integers(0, 2 ** 31) == ref.integers(0, 2 ** 31)
        assert sum(buffered) >= 10

    def test_partial_reset_would_leak(self):
        # Guard on the test above: setting only key and counter keeps the
        # buffered half, and the next line's draws differ.
        bit_generator = np.random.Philox(0)
        gen = np.random.Generator(bit_generator)
        gen.integers(0, 2 ** 31, size=1)
        assert bit_generator.state["has_uint32"] == 1
        key = rng.philox_keys(7, (rng.RELAY,), [1]).tolist()[0]
        state = bit_generator.state
        state["state"] = {"counter": np.zeros(4, np.uint64),
                          "key": np.array(key, np.uint64)}
        bit_generator.state = state
        want = rng.substream(7, rng.RELAY, 1).integers(0, 2 ** 31, size=3)
        assert not np.array_equal(gen.integers(0, 2 ** 31, size=3), want)
