"""FramePool against the per-block cache it replaced, and the prefetch
ledger under generated schedules.

``tests/block_cache_oracle.py`` is the deleted ``BlockCache``; the pool
must make the same decisions when both are fed the same batches the way
``TrunkStore.read_batch`` always fed the cache: all of a batch's lookups
first, then admissions for its misses. Two differences are legitimate,
stated here and bounded:

* **promotions** — the oracle handles a batch key by key, so a frame it
  demotes early in a batch and touches later in the same batch is
  promoted *twice*; the pool touches the batch at once and promotes it
  once. End state (resident set, both segments' recency order) is the
  same; ``pool.promotions <= oracle.promotions``, equal whenever no
  lookup batch holds more than one key.
* **pin overflow** — the oracle lets pinned blocks exceed the byte
  budget; the slab cannot, and refuses (unit-tested in
  ``test_block_cache.py``). The schedules below therefore never pin a
  whole pool, where both sides always find a victim.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builder import build_pat
from repro.core.frame_pool import FramePool
from repro.core.outofcore import OutOfCorePAT, TrunkStore
from repro.core.weights import WeightModel
from repro.engines.tea_outofcore.prefetch import AsyncPrefetcher
from repro.resilience import FaultInjector
from tests.block_cache_oracle import BlockCache

WIDTH = 4
FRAME_BYTES = WIDTH * 8
KEY_SPACE = 14

key_batches = st.lists(st.integers(0, KEY_SPACE - 1), min_size=1, max_size=8,
                       unique=True)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("read"), key_batches),
        st.tuples(st.just("warm"), key_batches),
        st.tuples(st.just("release"), st.just([])),
        st.tuples(st.just("settle"), st.just([])),
    ),
    min_size=1, max_size=40,
)


class Twin:
    """One schedule driven through the pool and the oracle side by side,
    following the store's protocol: reads look a batch up then admit its
    misses; warm-ups admit pinned and awaiting a consumer; a hit on an
    awaiting key consumes (and unpins) it."""

    def __init__(self, frames: int):
        self.pool = FramePool(frames * FRAME_BYTES)
        self.pool.set_width(WIDTH)
        self.awaiting = set()
        self.consumed = self.lost = 0
        self.oracle = BlockCache(frames * FRAME_BYTES, on_evict=self._evicted)

    def _evicted(self, key):
        if key in self.awaiting:
            self.awaiting.discard(key)
            self.lost += 1

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
                if key in self.awaiting:
                    self.awaiting.discard(key)
                    self.consumed += 1
                    self.oracle.unpin(key)
        missed = keys[frames < 0]
        self.pool.admit(missed, self._rows(missed),
                        np.full(missed.size, FRAME_BYTES))
        for key in missed.tolist():
            self.oracle.put(key, np.full(WIDTH, float(key)))

    def warm(self, keys):
        # Never pin the whole pool (module docstring: pin overflow).
        room = self.pool.frames - 1 - int(self.pool.pinned.sum())
        keys = [k for k in keys if k not in self.oracle][:max(room, 0)]
        admitted = self.pool.admit(
            np.asarray(keys, dtype=np.int64), self._rows(keys),
            np.full(len(keys), FRAME_BYTES), pin=True)
        assert admitted.all()
        for key in keys:
            self.oracle.put(key, np.full(WIDTH, float(key)), pin=True)
            self.awaiting.add(key)

    def release(self, _):
        self.pool.unpin_all()
        for key in self.awaiting:
            self.oracle.unpin(key)

    def settle(self, _):
        self.pool.settle_awaiting()
        self.release(None)
        self.lost += len(self.awaiting)
        self.awaiting.clear()

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
        pinned = {k for k in self.awaiting
                  if oracle._probation.get(k, oracle._protected.get(k)).pinned}
        assert set(pool.key[: pool.used][pool.pinned[: pool.used]].tolist()) == pinned
        assert set(pool.key[: pool.used][pool.pending[: pool.used]].tolist()) == self.awaiting
        assert (pool.consumed, pool.lost) == (self.consumed, self.lost)


class TestAgainstBlockCacheOracle:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6), steps)
    def test_batches_match_oracle(self, frames, schedule):
        twin = Twin(frames)
        single = True
        for kind, keys in schedule:
            pinned_before = set(
                twin.pool.key[: twin.pool.used][twin.pool.pinned[: twin.pool.used]].tolist())
            getattr(twin, kind)(keys)
            single &= not (kind == "read" and len(keys) > 1)
            twin.check(single)
            if kind in ("read", "warm"):
                # Pinned frames are never evicted; a read consumes (and
                # so unpins) the ones it hits before it admits anything.
                kept = pinned_before - (set(keys) if kind == "read" else set())
                assert twin.pool.find(np.array(sorted(kept), dtype=np.int64)).min(
                    initial=0) >= 0

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 6),
           st.lists(st.tuples(st.sampled_from(["read", "warm", "release"]),
                              st.lists(st.integers(0, KEY_SPACE - 1),
                                       min_size=1, max_size=1)),
                    min_size=1, max_size=60))
    def test_single_key_sequences_match_exactly(self, frames, schedule):
        twin = Twin(frames)
        for kind, keys in schedule:
            getattr(twin, kind)(keys)
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


# -- prefetch ledger ------------------------------------------------------------


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    from repro.graph.generators import temporal_powerlaw
    from repro.graph.temporal_graph import TemporalGraph

    graph = TemporalGraph.from_stream(
        temporal_powerlaw(num_vertices=40, num_edges=800, alpha=0.8,
                          time_horizon=100.0, seed=3))
    weights = WeightModel("exponential", scale=2.0).compute(graph)
    pat = build_pat(graph, weights, trunk_size=8)
    directory = tmp_path_factory.mktemp("ledger-store")
    TrunkStore.persist(pat, directory)
    return directory, pat


trunk_ids = st.lists(st.integers(0, 90), min_size=1, max_size=12)
ledger_steps = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), trunk_ids),
        st.tuples(st.just("burst"), trunk_ids),
        st.tuples(st.just("read"), trunk_ids),
        st.tuples(st.just("drain"), st.just([])),
        st.tuples(st.just("generation"), st.just([])),
    ),
    min_size=1, max_size=12,
)


class TestPrefetchLedger:
    @settings(max_examples=40, deadline=None)
    @given(ledger_steps, st.integers(1, 64), st.one_of(st.none(), st.integers(0, 3)))
    def test_conservation_under_schedules(self, store_dir, schedule, frames,
                                          failing_call):
        """issued == hits + wasted + in_flight for any interleaving of
        submits (settled or in bursts that overflow the queue and
        drop), sync reads, drains, generation roll-overs, a pool as
        small as one frame, and a worker that dies on its k-th job."""
        directory, _ = store_dir
        rules = [{"site": "prefetch", "kind": "slow_read", "seconds": 0.002}]
        if failing_call is not None:
            rules.append({"site": "prefetch", "kind": "io_error",
                          "calls": [failing_call]})
        store = TrunkStore(
            directory, cache_bytes=frames * 9 * 8,
            fault_injector=FaultInjector.from_plan({"rules": rules}),
        ).open()
        prefetcher = AsyncPrefetcher(store)
        prefetcher.start()
        try:
            for kind, ids in schedule:
                los = np.asarray(ids, dtype=np.int64) * 8
                if kind == "submit":
                    prefetcher.submit([("pa", los, los + 8)])
                    prefetcher.drain(wait=True)
                elif kind == "burst":
                    for k in range(4):  # in service + 2 queued + 1 dropped
                        prefetcher.submit([("c", los + k, los + k + 8)])
                elif kind == "read":
                    store.read_batch("pa", los, los + 8, None)
                elif kind == "drain":
                    prefetcher.drain()
                else:
                    store.cache.unpin_all()
                assert store.cache.nbytes <= store.cache.capacity_bytes
        finally:
            prefetcher.close()
            store.close()
        assert store.prefetch_issued == (
            store.prefetch_hits + store.prefetch_wasted + store.prefetch_in_flight)
        assert not store.cache.pending.any() and not store.cache.pinned.any()
        if failing_call is None:
            assert store.prefetch_failures == 0
        assert threading.active_count() < 8  # workers joined, not leaked
