"""FramePool against the per-block cache it replaced, under generated
schedules.

``tests/block_cache_oracle.py`` is the deleted ``BlockCache``; the pool
must make the same decisions when both are fed the same batches the way
``TrunkStore.read_batch`` always fed the cache: all of a batch's lookups
first, then admissions for its misses. One difference is legitimate,
stated here and bounded: the oracle handles a batch key by key, so a
frame it demotes early in a batch and touches later in the same batch
is promoted *twice*; the pool touches the batch at once and promotes it
once. End state (resident set, both segments' recency order) is the
same; ``pool.promotions <= oracle.promotions``, equal whenever no
lookup batch holds more than one key.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.frame_pool import FramePool
from repro.core.outofcore import TrunkStore
from repro.kernels import c_backend, numpy_backend, resolve_backend
from repro.kernels.c_backend import _pool_state
from tests.block_cache_oracle import BlockCache

WIDTH = 4
FRAME_BYTES = WIDTH * 8
KEY_SPACE = 14

key_batches = st.lists(st.integers(0, KEY_SPACE - 1), min_size=1, max_size=8,
                       unique=True)


class Twin:
    """One schedule driven through the pool and the oracle side by side,
    following the store's protocol: a read looks a batch up, then admits
    its misses."""

    def __init__(self, frames: int):
        self.pool = FramePool(frames * FRAME_BYTES)
        self.pool.set_width(WIDTH)
        self.oracle = BlockCache(frames * FRAME_BYTES)

    @staticmethod
    def _rows(keys):
        return np.repeat(np.asarray(keys, dtype=np.float64), WIDTH).reshape(-1, WIDTH)

    def read(self, keys):
        keys = np.asarray(keys, dtype=np.int64)
        frames = self.pool.touch(keys)
        for key, frame in zip(keys.tolist(), frames.tolist()):
            block = self.oracle.get(key)
            assert (block is None) == (frame < 0), key
            if block is not None:
                assert block[0] == key == self.pool.slab[frame, 0]
        missed = keys[frames < 0]
        self.pool.admit(missed, self._rows(missed),
                        np.full(missed.size, FRAME_BYTES))
        for key in missed.tolist():
            self.oracle.put(key, np.full(WIDTH, float(key)))

    def segments(self):
        """Pool keys by segment, least recently stamped first."""
        pool = self.pool
        order = np.argsort(pool.stamp[: pool.used])
        guarded = pool.protected[order]
        keys = pool.key[order]
        return keys[~guarded].tolist(), keys[guarded].tolist()

    def check(self, single_key_reads: bool):
        pool, oracle = self.pool, self.oracle
        probation, protected = self.segments()
        assert probation == list(oracle._probation)
        assert protected == list(oracle._protected)
        assert pool.nbytes == oracle.nbytes <= pool.capacity_bytes
        ours, theirs = pool.stats.snapshot(), oracle.stats.snapshot()
        promotions = (ours.pop("promotions"), theirs.pop("promotions"))
        assert ours == theirs
        assert promotions[0] <= promotions[1]
        if single_key_reads:
            assert promotions[0] == promotions[1]


class TestAgainstBlockCacheOracle:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6), st.lists(key_batches, min_size=1, max_size=40))
    def test_batches_match_oracle(self, frames, schedule):
        twin = Twin(frames)
        single = True
        for keys in schedule:
            twin.read(keys)
            single &= len(keys) == 1
            twin.check(single)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 6),
           st.lists(st.integers(0, KEY_SPACE - 1), min_size=1, max_size=60))
    def test_single_key_sequences_match_exactly(self, frames, schedule):
        twin = Twin(frames)
        for key in schedule:
            twin.read([key])
            twin.check(single_key_reads=True)

    def test_more_misses_than_frames_admits_what_fits(self):
        """One batch wider than the pool: the oracle churns its early
        admissions out again; the pool never writes them, and accounts
        them identically."""
        twin = Twin(3)
        twin.read([0, 1])
        twin.read([0])  # protect 0
        twin.read(list(range(2, 12)))
        twin.check(single_key_reads=True)
        assert twin.pool.used == 3
        assert twin.pool.stats.evictions == 9

    def test_metadata_is_linear_in_frames(self):
        for frames in (10, 1000):
            pool = FramePool(frames * FRAME_BYTES)
            pool.set_width(WIDTH)
            keys = np.arange(frames, dtype=np.int64)
            pool.admit(keys, np.zeros((frames, WIDTH)), np.full(frames, FRAME_BYTES))
            pool.find(keys)
            assert pool.index_nbytes() <= 48 * frames


# -- the compiled pool passes ---------------------------------------------

REGION_SIZE = 24
STORE_WIDTH = 4  # frame width of the stores below: a len-5 range never fits

#: Pool budgets: none, below one frame, then one to six frames.
budgets = st.one_of(st.sampled_from([0, STORE_WIDTH * 8 - 1]),
                    st.integers(1, 6).map(lambda f: f * STORE_WIDTH * 8))
#: One read: a region and its ranges, duplicates allowed, lengths 1-5.
reads = st.tuples(
    st.sampled_from(["c", "pa"]),
    st.lists(st.tuples(st.integers(0, 9), st.integers(1, STORE_WIDTH + 1)),
             min_size=1, max_size=10))


class Trio:
    """One schedule of ``TrunkStore.read_batch`` calls through the
    compiled pool passes and through ``FramePool``'s numpy methods, two
    in-memory stores over the same arrays, with the per-block oracle fed
    the same lookups and admissions the way ``Twin`` feeds it. ``"c"`` is
    one file a range, ``"pa"`` two (a range is a hit only when both of
    its frames are resident)."""

    def __init__(self, budget: int):
        rng = np.random.default_rng(budget)
        compiled = resolve_backend("c")
        assert compiled.pool_read is not None, "c did not load: nothing to test"
        self.stores = []
        for kernel in (numpy_backend.BACKEND, compiled):
            store = TrunkStore("unused", cache_bytes=budget)
            store.kernel = kernel
            store._c, store._prob = rng.random(REGION_SIZE), rng.random(REGION_SIZE)
            store._alias = np.arange(REGION_SIZE) % STORE_WIDTH
            store.cache.set_width(STORE_WIDTH)
            self.stores.append(store)
        self.stores[1]._c, self.stores[1]._prob, self.stores[1]._alias = (
            self.stores[0]._c, self.stores[0]._prob, self.stores[0]._alias)
        self.oracle = BlockCache(budget)

    def read(self, region, ranges):
        los, lens = (np.array(col, dtype=np.int64) for col in zip(*ranges))
        numpy_side, compiled = (store.read_batch(region, los, los + lens, None)
                                for store in self.stores)
        files = self.stores[0]._region_maps(region)
        for payload, lengths, inverse in (numpy_side, compiled):
            assert np.array_equal(lengths[inverse], lens)
            for i, (lo, n) in enumerate(zip(los.tolist(), lens.tolist())):
                rows = payload[inverse[i]].reshape(len(files), -1)
                for row, data in zip(rows, files):
                    assert np.array_equal(row[:n], data[lo:lo + n].view(np.float64))
        assert np.array_equal(numpy_side[2], compiled[2])
        assert np.array_equal(numpy_side[1], compiled[1])
        self._oracle_read(region, los, lens)

    def _oracle_read(self, region, los, lens):
        """Lookups in the pool's order — distinct ranges ascending, their
        files side by side, a range wider than a frame as a miss — then
        the misses' absent frames admitted in the same order. The oracle
        caches keys, not ranges: when a batch brings more absent frames
        than free and probation frames, the earliest missed ranges are
        turned away whole here (accounted as admitted, then evicted), as
        the pool turns them away."""
        store = self.stores[0]
        keys = np.unique(store._pack_keys(region, los, lens), axis=0)
        lens = (keys[:, 0] >> 2) & ((1 << 20) - 1)
        fits = lens <= STORE_WIDTH
        missed = []
        for row, fit in zip(keys.tolist(), fits.tolist()):
            found = [self.oracle.get(key if fit else -1) is not None for key in row]
            if fit and not all(found):
                missed.append([key for key in row if key not in self.oracle])
        oracle, frame_bytes = self.oracle, STORE_WIDTH * 8
        frames = oracle.capacity_bytes // frame_bytes
        if not frames:
            return
        room = frames - len(oracle._protected)  # free + probation frames
        while sum(map(len, missed)) > room:
            turned = len(missed.pop(0))
            oracle.stats.bytes_in += turned * frame_bytes
            oracle.stats.evictions += turned
            oracle.stats.bytes_evicted += turned * frame_bytes
        for key in sum(missed, []):
            oracle.put(key, np.zeros(STORE_WIDTH))

    def check(self):
        numpy_pool, compiled = (store.cache for store in self.stores)
        for want, got in zip(_pool_state(numpy_pool), _pool_state(compiled)):
            assert np.array_equal(want, got)
        assert self.stores[0].read_ops == self.stores[1].read_ops
        order = np.argsort(numpy_pool.stamp[: numpy_pool.used])
        keys = numpy_pool.key[order]
        guarded = numpy_pool.protected[order]
        assert keys[~guarded].tolist() == list(self.oracle._probation)
        assert keys[guarded].tolist() == list(self.oracle._protected)
        ours, theirs = numpy_pool.stats, self.oracle.stats
        assert (ours.hits, ours.misses, ours.evictions) == (
            theirs.hits, theirs.misses, theirs.evictions)
        assert ours.promotions <= theirs.promotions


@pytest.mark.skipif(c_backend.find_cc() is None, reason="needs a C compiler")
class TestCompiledPoolPasses:
    """``pool_read`` / ``pool_admit`` ≡ ``FramePool.touch`` /
    ``FramePool.admit`` under ``TrunkStore.read_batch``: payloads,
    inverses, every column and statistic after every read; and both
    against the per-block oracle (part of ``make ooc-smoke``)."""

    @settings(max_examples=200, deadline=None)
    @given(budgets, st.lists(reads, min_size=1, max_size=30))
    def test_schedules_match_numpy_and_oracle(self, budget, schedule):
        trio = Trio(budget)
        for region, ranges in schedule:
            trio.read(region, ranges)
            trio.check()

    def test_protected_overflow_and_turned_away_rows(self):
        """The two corners a short random schedule may miss: hits that
        overflow the protected segment, and one batch with more distinct
        misses than evictable frames."""
        trio = Trio(3 * STORE_WIDTH * 8)  # three frames, two protected
        for ranges in ([(0, 4), (4, 4)], [(0, 4), (4, 4)], [(8, 4)], [(8, 4)]):
            trio.read("c", ranges)
            trio.check()
        pool = trio.stores[1].cache
        assert pool.stats.promotions == 3 and pool.protected.sum() == 2
        evictions = pool.stats.evictions
        trio.read("c", [(12, 4), (16, 4), (20, 4), (5, 4)])
        trio.check()
        assert pool.stats.evictions - evictions == 4  # one victim, three turned away
        assert pool.used == 3

    def test_bad_ranges_raise_before_the_pool_changes(self):
        trio = Trio(3 * STORE_WIDTH * 8)
        trio.read("pa", [(0, 4)])
        store = trio.stores[1]
        before = [a.copy() for a in _pool_state(store.cache)]
        for lo, n in ((-1, 2), (REGION_SIZE - 2, 3), (3, 0), (0, 1 << 20)):
            with pytest.raises(IndexError):
                store.read_batch("pa", np.array([0, lo]), np.array([4, lo + n]), None)
        for want, got in zip(before, _pool_state(store.cache)):
            assert np.array_equal(want, got)


class TestWholeRangeAdmission:
    """A pool too full for a batch turns whole ranges away, never one
    file of a two-file ``"pa"`` range: the lone alias frame of a
    half-admitted range would count a hit and a promotion on its next
    read while the range is still a miss."""

    @pytest.mark.parametrize("kernel", ["numpy", "c"])
    def test_three_free_frames_and_two_alias_ranges(self, kernel):
        if kernel == "c" and c_backend.find_cc() is None:
            pytest.skip("needs a C compiler")
        store = TrunkStore("unused", cache_bytes=3 * STORE_WIDTH * 8)
        store.kernel = resolve_backend(kernel)
        store._c = store._prob = np.arange(REGION_SIZE, dtype=np.float64)
        store._alias = np.arange(REGION_SIZE) % STORE_WIDTH
        store.cache.set_width(STORE_WIDTH)  # three frames, all free
        pool = store.cache
        store.read_batch("pa", np.array([0, 4]), np.array([4, 8]), None)
        assert pool.used == 2  # range (4, 8) whole; range (0, 4) turned away
        assert sorted((pool.key[:2] >> 22).tolist()) == [4, 4]
        assert (pool.stats.hits, pool.stats.misses, pool.stats.evictions) == (0, 4, 2)
        store.read_batch("pa", np.array([0]), np.array([4]), None)
        assert (pool.stats.hits, pool.stats.misses, pool.stats.promotions) == (0, 6, 0)
