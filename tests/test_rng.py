import itertools

import numpy as np
import pytest

from netregime import cli, harness, rng

from helpers import traced_peak


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
        with pytest.raises(ValueError, match="seed path must be non-negative"):
            rng.substream(3, rng.RELAY, -2)


    def test_key_list_bytes_cover_its_peak(self):
        # philox_keys(...).tolist() peaks at about 167.5 bytes a key
        count = 10 ** 5
        peak, keys = traced_peak(
            lambda: rng.philox_keys(5, (rng.CROSSING,), np.arange(count)).tolist())
        assert len(keys) == count
        assert 0.95 * rng.KEY_LIST_BYTES * count < peak <= rng.KEY_LIST_BYTES * count


def assert_fresh_state(bit_generator, seed, *path):
    """``bit_generator`` is in the state of ``substream(seed, *path)``'s."""
    want = rng.substream(seed, *path).bit_generator.state
    got = bit_generator.state
    for field in ("buffer_pos", "has_uint32", "uinteger"):
        assert got[field] == want[field]
    for got_a, want_a in ((got["state"]["counter"], want["state"]["counter"]),
                          (got["state"]["key"], want["state"]["key"]),
                          (got["buffer"], want["buffer"])):
        assert np.array_equal(got_a, want_a)


class TestRekey:
    # keyed_generators re-keys through one reused state dict; each re-key
    # must still reset the counter and the buffered half
    def test_fresh_state(self):
        keys = rng.philox_keys(9, (rng.RELAY,), np.arange(6)).tolist()
        for j, gen in enumerate(rng.keyed_generators(keys)):
            assert_fresh_state(gen.bit_generator, 9, rng.RELAY, j)
            gen.integers(0, 2 ** 31, size=2 * j + 3)       # odd: a half is buffered
            assert gen.bit_generator.state["has_uint32"] == 1

    def test_one_dict_serves_every_key(self):
        # rekey replaces only the key of the dict it is handed, which stays
        # a fresh state; a Philox's own state dict works too, if slower
        bit_generator = np.random.Philox(0)
        gen = np.random.Generator(bit_generator)
        fresh = np.random.Philox(1).state
        keys = rng.philox_keys(9, (rng.CROSSING,), np.arange(8)).tolist()
        for j, key in enumerate(keys):
            rng.rekey(bit_generator, fresh, key)
            assert_fresh_state(bit_generator, 9, rng.CROSSING, j)
            assert fresh["state"]["key"] is key and fresh["has_uint32"] == 0
            want = rng.substream(9, rng.CROSSING, j).bit_generator.random_raw(j + 1)
            assert np.array_equal(bit_generator.random_raw(j + 1), want)
            gen.integers(0, 2 ** 31)

    @pytest.mark.parametrize("seed", [7, rng.derived_seed(2, rng.EXPERIMENT, 1, 3)])
    def test_draws_after_a_buffered_half(self, seed):
        # An odd number of 32-bit draws leaves half of a 64-bit output
        # buffered.  Re-keying must drop it, or the next line's draws shift.
        lines = list(range(40))
        keys = rng.philox_keys(seed, (rng.RELAY,), lines).tolist()
        gens = rng.keyed_generators(keys)
        gen = None
        bounds = np.array([2, 3, 5, 1, 4, 7, 2], dtype=np.int64)
        buffered = []
        for j in lines:
            k = 2 * j + 1
            if gen is not None:
                buffered.append(gen.bit_generator.state["has_uint32"])
            gen = next(gens)
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


class TestKeyedGenerators:
    def test_each_draws_its_substream(self):
        # each line leaves half of a 64-bit output buffered; the next key's
        # Generator must not draw it
        keys = rng.philox_keys(4, (rng.CROSSING,), np.arange(6)).tolist()
        gens = rng.keyed_generators(keys)
        for t, gen in enumerate(itertools.islice(gens, 5)):
            ref = rng.substream(4, rng.CROSSING, t)
            assert gen.binomial(100, 0.3) == ref.binomial(100, 0.3)
            assert gen.random(3).tobytes() == ref.random(3).tobytes()
            assert gen.integers(0, 2 ** 31) == ref.integers(0, 2 ** 31)
        assert next(gens).random() == rng.substream(4, rng.CROSSING, 5).random()
        assert next(gens, None) is None


class TestUniformRows:
    # rows of width 1030 start mid counter step; random rows repeat and come
    # in any order
    @pytest.mark.parametrize("shape", [(3, 1030), (40, 6), (7, 130)])
    def test_matches_one_draw(self, shape):
        full = rng.substream(2, rng.PHASES, 5).random(shape)
        gen = np.random.default_rng(shape[1])
        rows = gen.integers(0, shape[0], size=2 * shape[0])
        cols = gen.permutation(shape[1])[: shape[1] // 2 + 1]
        out = np.empty((rows.size, cols.size))
        rng.uniform_rows(2, (rng.PHASES, 5), shape, rows, cols, out)
        assert out.tobytes() == full[np.ix_(rows, cols)].tobytes()

    @pytest.mark.parametrize("shape", [(9, 5), (6, 7), (11, 1031)])
    def test_edge_rows_match_one_draw(self, shape):
        # the first and last rows, and rows whose start discards each of
        # i * w % 4 = 0, 1, 2 and 3 outputs of a counter step
        height, width = shape
        rows = np.array([0, height - 1, 1, 2, 3])
        assert {int(i) * width % 4 for i in rows} == {0, 1, 2, 3}
        full = rng.substream(6, rng.PHASES).random(shape)
        for cols in (np.arange(width), np.array([width - 1, 0])):
            out = np.empty((rows.size, cols.size))
            rng.uniform_rows(6, (rng.PHASES,), shape, rows, cols, out)
            assert out.tobytes() == full[np.ix_(rows, cols)].tobytes()

    def test_no_rows_draw_nothing(self, monkeypatch):
        monkeypatch.setattr(rng, "substream", lambda *a: pytest.fail("drew a stream"))
        out = np.empty((0, 4))
        rng.uniform_rows(2, (rng.PHASES,), (3, 4), np.array([], dtype=np.intp),
                         np.arange(4), out)

    def test_rows_out_of_range_rejected(self):
        out = np.empty((1, 4))
        for rows in ([-1], [3]):
            with pytest.raises(ValueError, match=r"\[0, 3\)"):
                rng.uniform_rows(2, (rng.PHASES,), (3, 4), np.array(rows), np.arange(4), out)


def trimmed(path):
    """A seed path as ``SeedSequence`` hashes it.  For paths of at most four
    one-word entries it pads with zeros, so trailing zeros drop out."""
    path = tuple(int(p) for p in path)
    while path and path[-1] == 0:
        path = path[:-1]
    return path


def call_site_paths(m, i, j):
    """(purpose, call site) -> the seed paths rooted at master seed m that
    the call site derives at point i and unit j.  The raw seed of
    `netregime gen` and `netregime cutset` is an instance seed itself, so
    its paths are the instance streams.  `netregime hybrid`
    trial t takes a sweep unit's seed at (t, 0), and `netregime percolation`
    a sweep point's at 0, from the harness."""
    return {
        ("instance", "sweep cutset or hybrid unit"): {(m, rng.EXPERIMENT, i, j)},
        ("instance", "netregime gen or cutset"): {
            (m, tag) for tag in (rng.POSITIONS, rng.ROLES, rng.PAIRING)},
        ("sweep phases", "sweep cutset unit"): {(m, rng.PHASES, i, j)},
        ("cli phases", "netregime cutset"): {(m, rng.CLI_PHASES)},
        ("crossing study", "sweep percolation point"): {(m, rng.CROSSING, i)},
        ("exported cut", "netregime percolation --export-cut"): {(m, rng.CLI_CUT)},
    }


class TestSeedPaths:
    def test_no_two_purposes_share_a_path(self):
        by_purpose = {}
        for m, i, j in itertools.product(range(4), repeat=3):
            for (purpose, _), paths in call_site_paths(m, i, j).items():
                by_purpose.setdefault(purpose, set()).update(map(trimmed, paths))
        for (a, pa), (b, pb) in itertools.combinations(by_purpose.items(), 2):
            assert not pa & pb, (a, b, sorted(pa & pb))
        # the unit index is part of every sweep path: (m, PHASES, i, 0) is
        # also (m, PHASES, i), which the cutset CLI once used at i = 0
        assert trimmed((0, rng.PHASES, 0, 0)) in by_purpose["sweep phases"]

    @pytest.fixture
    def recorded(self, monkeypatch):
        """Every (seed, *path) the package hands to SeedSequence."""
        seen = []
        real = rng._seed_sequence

        def recording(seed, path):
            seen.append((int(seed),) + tuple(int(p) for p in path))
            return real(seed, path)
        monkeypatch.setattr(rng, "_seed_sequence", recording)
        return seen

    def expected(self, m, i, j, *sites):
        table = call_site_paths(m, i, j)
        return {trimmed(p) for key in table for p in table[key] if key[1] in sites}

    @pytest.mark.parametrize("m", [0, 3])
    def test_call_sites_use_the_listed_paths(self, m, recorded, tmp_path):
        def rooted():
            got = {trimmed(p) for p in recorded if p[0] == m}
            recorded.clear()
            return got

        cutset = harness.ExperimentConfig(kind="cutset", n_list=[16], trials=1,
                                          master_seed=m)
        assert harness._run_unit(cutset, 1, 16, 2) is not None
        assert rooted() == self.expected(m, 1, 2, "sweep cutset or hybrid unit",
                                         "sweep cutset unit")
        hybrid = harness.ExperimentConfig(kind="scheme", scheme="hybrid", alpha=4.0,
                                          beta=0.5, n_list=[64], master_seed=m)
        assert harness._run_unit(hybrid, 2, 64, 1) is not None
        assert rooted() == self.expected(m, 2, 1, "sweep cutset or hybrid unit")
        percolation = harness.ExperimentConfig(kind="percolation", n_list=[64],
                                               trials=2, master_seed=m)
        assert harness._run_unit(percolation, 3, 64, 0) is not None
        assert rooted() == self.expected(m, 3, 0, "sweep percolation point")

        out = str(tmp_path / "out")
        seed = ["--seed", str(m), "--out", out]
        assert cli.main(["gen", "--n", "8"] + seed) == 0
        assert rooted() == self.expected(m, 0, 0, "netregime gen or cutset")
        assert cli.main(["cutset", "--n", "16", "--trials", "1"] + seed) == 0
        assert rooted() == self.expected(m, 0, 0, "netregime gen or cutset",
                                         "netregime cutset")
        assert cli.main(["hybrid", "--n", "64", "--alpha", "4", "--beta", "0.5",
                         "--seeds", "2"] + seed) == 0
        assert rooted() == (self.expected(m, 0, 0, "sweep cutset or hybrid unit")
                            | self.expected(m, 1, 0, "sweep cutset or hybrid unit"))
        assert cli.main(["percolation", "--n", "64", "--trials", "2",
                         "--export-cut", str(tmp_path / "cut.json")] + seed) == 0
        assert rooted() == self.expected(m, 0, 0, "sweep percolation point",
                                         "netregime percolation --export-cut")
