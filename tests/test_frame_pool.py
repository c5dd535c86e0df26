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
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.frame_pool import FramePool
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
