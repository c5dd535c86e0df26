"""Re-entry frame pool (§4.1) and its out-of-core integration.

``TestBlockCache`` keeps the behaviours (and test names) of the
per-block SLRU cache the pool replaced — hit/miss accounting, LRU
eviction, scan resistance, promotion counting, the disabled cache,
read-only payload — re-expressed on :class:`FramePool`'s batch API.
The pool has no pins (nothing reads ahead), so the old cache's pin
behaviours are not carried over. The exact pool-vs-old-cache comparison
lives in ``tests/test_frame_pool.py``.
"""

import numpy as np
import pytest

from repro.core.builder import build_pat
from repro.core.frame_pool import FramePool
from repro.core.outofcore import OutOfCorePAT, TrunkStore
from repro.core.weights import WeightModel
from repro.engines import Workload
from repro.rng import make_rng
from repro.sampling.counters import CostCounters
from repro.walks.apps import exponential_walk
from tests.ooc_oracle import TeaOutOfCoreEngine, read_alias_trunk, read_c
from tests.ooc_oracle import sample as ooc_sample

WIDTH = 8  # elements per frame: 64-byte frames, like the old 64-byte blocks
KEYS = {name: i for i, name in enumerate(
    ["a", "b", "c", "d", "hot", "missing"]
    + [f"{kind}-{i}" for kind in ("scan", "fill", "more") for i in range(16)])}


def make_pool(frames: int) -> FramePool:
    pool = FramePool(frames * WIDTH * 8)
    pool.set_width(WIDTH)
    return pool


def put(pool, name, value=0.0, n=WIDTH):
    rows = np.full((1, n), value)
    return bool(pool.admit(np.array([KEYS[name]]), rows, np.array([n * 8]))[0])


def get(pool, name):
    frame = int(pool.touch(np.array([KEYS[name]]))[0])
    return None if frame < 0 else pool.slab[frame]


def resident(pool, name) -> bool:
    return bool(pool.find(np.array([KEYS[name]]))[0] >= 0)


@pytest.fixture
def trunk_store(medium_graph, tmp_path):
    weights = WeightModel("exponential", scale=20.0).compute(medium_graph)
    pat = build_pat(medium_graph, weights, trunk_size=8)
    return TrunkStore.persist(pat, tmp_path / "t", cache_bytes=1 << 16).open()


class TestBlockCache:
    def test_hit_after_put(self):
        pool = make_pool(16)
        assert get(pool, "a") is None
        put(pool, "a", 3.0)
        assert np.array_equal(get(pool, "a"), np.full(WIDTH, 3.0))
        assert pool.stats.hits == 1
        assert pool.stats.misses == 1
        assert pool.stats.hit_rate == 0.5

    def test_lru_eviction(self):
        pool = make_pool(3)
        for key in "abc":
            put(pool, key)  # 64 bytes each
        get(pool, "a")  # refresh a
        put(pool, "d")  # evicts b (least recently used)
        assert get(pool, "a") is not None
        assert get(pool, "b") is None
        assert pool.stats.evictions == 1
        assert pool.stats.bytes_in == 4 * 64
        assert pool.stats.bytes_evicted == 64

    def test_snapshot_full_precision_hit_rate(self):
        pool = make_pool(16)
        put(pool, "a")
        get(pool, "a")
        get(pool, "a")
        for _ in range(7):
            get(pool, "missing")
        # 2 hits / 9 lookups: 0.2222... must survive the snapshot
        # unrounded (display rounding lives in pretty()).
        snap = pool.stats.snapshot()
        assert snap["hit_rate"] == pool.stats.hit_rate == 2 / 9
        assert snap["bytes_in"] == 64
        assert snap["bytes_evicted"] == 0
        assert "0.2222" in pool.stats.pretty()

    def test_stats_publish_to_registry(self):
        from repro.telemetry import MetricsRegistry

        pool = make_pool(16)
        put(pool, "a")
        get(pool, "a")
        get(pool, "b")
        registry = MetricsRegistry()
        pool.stats.publish(registry)
        assert registry.counter_value("cache.hits") == 1
        assert registry.counter_value("cache.misses") == 1
        assert registry.counter_value("cache.bytes_in") == 64

    def test_byte_budget_respected(self):
        pool = FramePool(100)
        pool.set_width(100)  # one frame is 800 bytes > budget: no frames
        assert pool.frames == 0
        assert not pool.admit(np.array([1]), np.zeros((1, 100)),
                              np.array([800]))[0]
        assert pool.touch(np.array([1]))[0] == -1
        assert pool.nbytes == 0

    def test_tuple_values(self, trunk_store):
        """A two-array trunk (prob, alias) takes one frame per array,
        admitted side by side; it is a hit when both are resident."""
        pool = trunk_store.cache
        for hits in (0, 2):
            prob, alias = read_alias_trunk(trunk_store, 8, 16, None)
            assert prob.size == 8 and alias.size == 8
            np.testing.assert_array_equal(alias, trunk_store._alias[8:16])
            assert (pool.used, pool.stats.hits) == (2, hits)
        assert pool.nbytes == 2 * pool.width * 8

    def test_disabled_cache(self):
        pool = make_pool(0)
        assert not put(pool, "a")
        assert get(pool, "a") is None
        assert not pool.enabled
        assert pool.used == 0

    def test_overwrite_same_key(self):
        """The store's payload is immutable, so re-admitting a resident
        key is skipped rather than duplicated in the index."""
        pool = make_pool(16)
        assert put(pool, "a", n=4)
        assert not put(pool, "a", n=8)
        assert pool.nbytes == 64
        assert pool.used == 1

    def test_clear(self):
        pool = make_pool(16)
        put(pool, "a")
        pool.clear()
        assert get(pool, "a") is None
        assert pool.nbytes == 0

    def test_admitted_blocks_are_read_only(self, trunk_store):
        """Callers never receive writable pool memory: payload is a
        read-only copy, on the miss that admits it and on every hit."""
        for _ in range(2):
            block = read_c(trunk_store, 0, 8, None)
            with pytest.raises(ValueError):
                block[0] = 1.0
        assert trunk_store.cache.stats.hits == 1

    def test_tuple_members_are_read_only(self, trunk_store):
        for _ in range(2):
            prob, alias = read_alias_trunk(trunk_store, 0, 8, None)
            assert alias.dtype == np.int64
            with pytest.raises(ValueError):
                prob[0] = 1.0
            with pytest.raises(ValueError):
                alias[0] = 1

    def test_scan_resistance(self):
        """A twice-touched block survives a one-pass scan that would
        flush a plain LRU of the same capacity."""
        pool = make_pool(4)
        put(pool, "hot")
        get(pool, "hot")  # second touch: promoted to protected
        for i in range(16):  # scan 4x the capacity in one-touch blocks
            put(pool, f"scan-{i}")
        assert get(pool, "hot") is not None
        assert not resident(pool, "scan-0")  # scan victims churned in probation

    def test_promotion_counted(self):
        pool = make_pool(16)
        put(pool, "a")
        get(pool, "a")
        get(pool, "a")
        assert pool.stats.promotions == 1  # only the probation->protected move

    def test_publish_includes_served_promotions_hit_rate(self):
        from repro.telemetry import MetricsRegistry

        pool = make_pool(16)
        put(pool, "a")
        get(pool, "a")
        get(pool, "a")
        registry = MetricsRegistry()
        pool.stats.publish(registry)
        assert registry.counter_value("cache.bytes_served") == 128
        assert registry.counter_value("cache.promotions") == 1
        assert registry.gauge_value("cache.hit_rate") == 1.0

    def test_oversized_put_rejected_without_side_effects(self, trunk_store):
        """A range wider than a frame bypasses the pool: served whole
        from the gather, never admitted, nothing evicted for it."""
        pool = trunk_store.cache
        read_c(trunk_store, 0, 8, None)
        bytes_in = pool.stats.bytes_in
        for _ in range(2):
            huge = read_c(trunk_store, 0, 1000, None)
            np.testing.assert_array_equal(huge, trunk_store._c[:1000])
        assert pool.used == 1 and pool.stats.bytes_in == bytes_in
        assert pool.stats.evictions == 0
        assert trunk_store.cache.stats.hits == 0
        read_c(trunk_store, 0, 8, None)
        assert trunk_store.cache.stats.hits == 1  # the small one is still cached


class TestOutOfCoreIntegration:
    @pytest.fixture
    def cached_ooc(self, medium_graph, tmp_path):
        weights = WeightModel("exponential", scale=20.0).compute(medium_graph)
        pat = build_pat(medium_graph, weights, trunk_size=8)
        store = TrunkStore.persist(pat, tmp_path / "s", cache_bytes=1 << 20).open()
        return pat, OutOfCorePAT(pat, store)

    def test_cache_reduces_io(self, medium_graph, cached_ooc):
        _, ooc = cached_ooc
        v = int(np.argmax(medium_graph.degrees()))
        d = medium_graph.out_degree(v)
        counters = CostCounters()
        rng = make_rng(0)
        for _ in range(50):
            ooc_sample(ooc, v, d, rng, counters)
        first_pass = counters.io_bytes
        for _ in range(500):
            ooc_sample(ooc, v, d, rng, counters)
        # Hot trunks are cached: 10x more samples ≪ 10x more I/O.
        assert counters.io_bytes < first_pass * 6
        assert ooc.store.cache.stats.hit_rate > 0.3

    def test_cached_draws_identical_to_uncached(self, medium_graph, tmp_path):
        weights = WeightModel("exponential", scale=20.0).compute(medium_graph)
        pat = build_pat(medium_graph, weights, trunk_size=8)
        plain = OutOfCorePAT(pat, TrunkStore.persist(pat, tmp_path / "a").open())
        cached = OutOfCorePAT(
            pat, TrunkStore.persist(pat, tmp_path / "b", cache_bytes=1 << 20).open()
        )
        degrees = medium_graph.degrees()
        for v in np.argsort(degrees)[-4:]:
            d = int(degrees[v])
            for s in {1, d // 2, d}:
                if s < 1:
                    continue
                r1, r2 = make_rng(int(v) * 13 + s), make_rng(int(v) * 13 + s)
                assert ooc_sample(plain, int(v), s, r1) == ooc_sample(cached, int(v), s, r2)

    def test_engine_cache_stats(self, medium_graph, tmp_path):
        engine = TeaOutOfCoreEngine(
            medium_graph, exponential_walk(scale=20.0), trunk_size=8,
            storage_dir=str(tmp_path), cache_bytes=1 << 20,
        )
        result = engine.run(Workload(max_length=20, max_walks=100), seed=0,
                            record_paths=False)
        stats = engine.cache_stats
        assert stats.hits + stats.misses > 0
        assert "reentry_cache" in engine.memory_report().components
        assert result.counters.io_bytes >= 0
