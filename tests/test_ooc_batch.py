"""Batched out-of-core engine: the frontier fast path over the TrunkStore.

Covers the tentpole's correctness contract: the batched engine must keep
the scalar ``tea-ooc`` sampling distribution (chi-squared at a hub
vertex), stay deterministic and cache-oblivious in its draws, produce
valid temporal paths, coalesce backing reads, and read nothing ahead of
the step that needs it (no thread, no read-ahead metrics).
"""

import threading
from collections import Counter

import numpy as np
import pytest

from repro.cli import main
from repro.core.builder import build_pat
from repro.core.outofcore import TrunkStore, coalesce_runs
from repro.core.weights import WeightModel
from repro.engines import (
    BatchTeaEngine,
    BatchTeaOutOfCoreEngine,
    Workload,
)
from repro.graph.validate import is_temporal_path
from repro.sampling.counters import CostCounters
from repro.telemetry import MetricsRegistry
from repro.walks.apps import exponential_walk, temporal_node2vec
from tests.conftest import chisquare_ok, gtest_ok
from tests.ooc_oracle import TeaOutOfCoreEngine, read_alias_trunk, read_c
from tests.ooc_oracle import sample as ooc_sample


def _sync_id(cache_bytes):
    """Id of a cache-budget parametrisation: ``sync`` names the one read
    path, the sampling thread's own reads."""
    return f"{cache_bytes}-sync"


def _runs(ranges):
    los, his = (np.array(col, dtype=np.int64) for col in zip(*ranges))
    return [col.tolist() for col in coalesce_runs(los, his)]


class TestCoalesceRuns:
    def test_adjacent_and_overlapping_merge(self):
        # One run: first member row 0, spanning [0, 10).
        assert _runs([(0, 4), (4, 8), (6, 10)]) == [[0], [0], [10]]
        # A long range swallows the short ones it covers.
        assert _runs([(0, 9), (2, 3), (9, 12), (20, 21)]) == [
            [0, 3], [0, 20], [12, 21]]

    def test_disjoint_stay_separate(self):
        assert _runs([(0, 2), (5, 7)]) == [[0, 1], [0, 5], [2, 7]]

    def test_empty(self):
        empty = np.zeros(0, dtype=np.int64)
        assert [col.size for col in coalesce_runs(empty, empty)] == [0, 0, 0]


class TestReadBatch:
    @pytest.fixture
    def store(self, medium_graph, tmp_path):
        weights = WeightModel("exponential", scale=20.0).compute(medium_graph)
        pat = build_pat(medium_graph, weights, trunk_size=8)
        return TrunkStore.persist(pat, tmp_path / "s", cache_bytes=1 << 20).open()

    def test_blocks_match_scalar_reads(self, store):
        los = np.array([0, 8, 8, 16, 3], dtype=np.int64)
        his = np.array([8, 16, 16, 25, 11], dtype=np.int64)
        for _ in range(2):  # all misses, then all hits
            payload, lengths, inverse = store.read_batch("c", los, his, CostCounters())
            for i in range(los.size):
                row = inverse[i]
                assert lengths[row] == his[i] - los[i]
                np.testing.assert_array_equal(
                    payload[row, : lengths[row]], store._c[los[i]:his[i]])
        assert store.cache.stats.hits == store.cache.stats.misses == 4

    def test_widest_range_a_hit_narrower_ranges_missing(self, store):
        """Staging is as wide as the widest *miss*, the payload as wide
        as the widest range."""
        read_c(store, 0, 9, None)
        payload, lengths, inverse = store.read_batch(
            "c", np.array([16, 0, 40]), np.array([20, 9, 42]), None)
        assert payload.shape == (3, 9)
        for i, (lo, hi) in enumerate([(16, 20), (0, 9), (40, 42)]):
            np.testing.assert_array_equal(
                payload[inverse[i], : hi - lo], store._c[lo:hi])

    def test_duplicates_collapse_and_runs_coalesce(self, store):
        counters = CostCounters()
        los = np.array([0, 0, 8, 16], dtype=np.int64)
        his = np.array([8, 8, 16, 24], dtype=np.int64)
        before = store.read_ops
        payload, _, inverse = store.read_batch("c", los, his, counters)
        # Three adjacent unique ranges coalesce into ONE backing read.
        assert store.read_ops == before + 1
        assert (counters.io_blocks, counters.io_bytes) == (1, 24 * 8)
        assert len(payload) == 3
        assert inverse.tolist() == [0, 0, 1, 2]

    def test_pa_region_returns_tuples(self, store):
        """An alias trunk is a (prob, alias-bits) pair of matrix rows."""
        for _ in range(2):
            payload, _, inverse = store.read_batch(
                "pa", np.array([0, 8]), np.array([8, 16]), None
            )
            prob, alias = payload[inverse[0]]
            np.testing.assert_array_equal(prob, store._prob[0:8])
            np.testing.assert_array_equal(alias.view(np.int64), store._alias[0:8])

    def test_standalone_store_serves_arbitrary_ranges(self, store, tmp_path):
        """The traced benchmark pass opens a persisted directory with no
        PAT in sight: the key index needs nothing but the ranges."""
        store.close()
        rng = np.random.default_rng(0)
        with TrunkStore(tmp_path / "s", cache_bytes=64 << 20) as fresh:
            assert fresh.cache.width == 9  # the manifest's max trunk + 1
            los = rng.integers(0, fresh._prob.size - 8, size=500)
            for hits in (0, 500):
                payload, lengths, inverse = fresh.read_batch("pa", los, los + 8, None)
                assert (fresh.cache.stats.hits > 0) == bool(hits)
                np.testing.assert_array_equal(
                    payload[inverse, 0], fresh._prob[los[:, None] + np.arange(8)])
            assert fresh.cache.nbytes <= 64 << 20

    def test_store_persisted_by_the_parent_still_opens(self, store, tmp_path):
        """A manifest without ``max_trunk`` (written before the pool
        existed) opens; the first batch fixes the frame width."""
        import json

        store.close()
        manifest = tmp_path / "s" / "checksums.json"
        doc = json.loads(manifest.read_text())
        del doc["max_trunk"]
        manifest.write_text(json.dumps(doc))
        with TrunkStore(tmp_path / "s", cache_bytes=1 << 20,
                        verify_checksums=True) as legacy:
            assert legacy.cache.width == 0
            for _ in range(2):
                prob, alias = read_alias_trunk(legacy, 8, 16, None)
                np.testing.assert_array_equal(alias, legacy._alias[8:16])
            assert legacy.cache.width == 9 and legacy.cache.stats.hits == 2

    @pytest.mark.parametrize("cache_bytes", [0, 50, 9 * 8, 3 * 9 * 8])
    def test_tiny_or_absent_pool_serves_every_range(self, store, tmp_path, cache_bytes):
        """No cache, a budget below one frame, a single frame, fewer
        frames than the step's distinct misses: every range is served in
        full and the slab never outgrows its budget."""
        store.close()
        los = np.arange(0, 800, 8)
        with TrunkStore(tmp_path / "s", cache_bytes=cache_bytes) as small:
            for _ in range(2):
                payload, lengths, inverse = small.read_batch("c", los, los + 9, None)
                np.testing.assert_array_equal(
                    payload[inverse], small._c[los[:, None] + np.arange(9)])
            assert small.cache.nbytes <= max(cache_bytes, 0)
            assert small.cache.used == cache_bytes // (9 * 8)

    def test_out_of_range_requests_raise(self, store):
        size = store._c.size
        for los, his in (([-1], [7]), ([size - 4], [size + 1]), ([8], [8]),
                         ([0], [(1 << 20) + 1])):
            with pytest.raises(IndexError):
                store.read_batch("c", np.array(los), np.array(his), None)


def _hub_first_hop(graph, spec):
    """The hub vertex, its distinct first-hop destinations and their
    exact Equation 3 probabilities."""
    v = int(np.argmax(graph.degrees()))
    d = graph.out_degree(v)
    weights = spec.weight_model.compute(graph)
    lo = graph.indptr[v]
    nbrs = graph.nbr[lo : lo + d]
    dests = np.unique(nbrs)
    w_by_dest = np.array([weights[lo : lo + d][nbrs == u].sum() for u in dests])
    return v, dests, w_by_dest / w_by_dest.sum()


class TestDistributionEquivalence:
    def test_first_hop_matches_exact(self, small_graph):
        """Batched ooc next-hop counts fit the exact weight distribution
        (same harness as the parallel-engine equivalence test)."""
        spec = exponential_walk(scale=15.0)
        v, dests, probs = _hub_first_hop(small_graph, spec)
        engine = BatchTeaOutOfCoreEngine(small_graph, spec, trunk_size=8)
        wl = Workload(walks_per_vertex=20000, max_length=1, start_vertices=[v])
        result = engine.run(wl, seed=5)
        first = [p.hops[1][0] for p in result.paths if p.num_edges >= 1]
        counts = np.bincount(np.searchsorted(dests, first), minlength=dests.size)
        assert counts.sum() == 20000
        assert chisquare_ok(counts, probs)

    def test_run_lanes_first_hop_matches_exact(self, small_graph):
        """The lane-draw path of ``ooc_sample_batch`` against the exact
        Equation 3 weights, not only against itself."""
        spec = exponential_walk(scale=15.0)
        v, dests, probs = _hub_first_hop(small_graph, spec)
        engine = BatchTeaOutOfCoreEngine(small_graph, spec, trunk_size=8)
        frontier = engine.run_lanes(
            np.full(20000, v), np.arange(1000, 21000), max_length=1
        )
        assert frontier.lengths.tolist() == [1] * 20000
        counts = np.bincount(
            np.searchsorted(dests, frontier.hop_vertex[:, 0]),
            minlength=dests.size,
        )
        assert chisquare_ok(counts, probs)


class TestParityAndDeterminism:
    def test_step_parity_at_length_one(self, small_graph):
        """At max_length=1 the step count is start-determined, so the
        engines must agree exactly whatever their RNG consumption."""
        wl = Workload(walks_per_vertex=3, max_length=1)
        scalar = TeaOutOfCoreEngine(small_graph, exponential_walk(scale=15.0))
        batch = BatchTeaOutOfCoreEngine(
            small_graph, exponential_walk(scale=15.0)
        )
        s = scalar.run(wl, seed=2, record_paths=False).counters.steps
        b = batch.run(wl, seed=2, record_paths=False).counters.steps
        assert s == b

    def test_deterministic_at_fixed_seed(self, small_graph):
        wl = Workload(walks_per_vertex=2, max_length=20)
        runs = [
            BatchTeaOutOfCoreEngine(
                small_graph, exponential_walk(scale=15.0)
            ).run(wl, seed=11)
            for _ in range(2)
        ]
        assert [w.hops for w in runs[0].paths] == [w.hops for w in runs[1].paths]

    def test_draws_oblivious_to_the_cache(self, small_graph):
        """The cache consumes no sampling RNG, so every budget must
        yield identical paths."""
        wl = Workload(walks_per_vertex=2, max_length=20)
        paths = []
        for cache_bytes in (0, 1 << 20):
            result = BatchTeaOutOfCoreEngine(
                small_graph, exponential_walk(scale=15.0), cache_bytes=cache_bytes
            ).run(wl, seed=4)
            paths.append([w.hops for w in result.paths])
        assert paths[0] == paths[1]

    def test_coalescing_beats_scalar_read_ops(self, medium_graph, tmp_path):
        wl = Workload(walks_per_vertex=2, max_length=30)
        spec = exponential_walk(scale=20.0)
        scalar = TeaOutOfCoreEngine(
            medium_graph, spec, trunk_size=8,
            storage_dir=str(tmp_path / "s"), cache_bytes=1 << 20,
        )
        scalar.run(wl, seed=6, record_paths=False)
        batch = BatchTeaOutOfCoreEngine(
            medium_graph, spec, trunk_size=8,
            storage_dir=str(tmp_path / "b"), cache_bytes=1 << 20,
        )
        batch.run(wl, seed=6, record_paths=False)
        assert batch.index.store.read_ops < scalar.index.store.read_ops


def _lanes_digest(frontier):
    return [
        (int(n), frontier.hop_vertex[i, :n].tolist(), frontier.hop_time[i, :n].tolist())
        for i, n in enumerate(frontier.lengths.tolist())
    ]


class TestRunLanes:
    """``run_lanes`` on disk: a walk is a pure function of ``(start,
    seed)`` — raised ``TypeError(lane_rng)`` before the engine shared
    the one frontier loop."""

    @pytest.mark.parametrize("cache_bytes", [0, 64 << 10, 4 << 20], ids=_sync_id)
    def test_any_partition_bit_parity(self, small_graph, cache_bytes):
        n = 24
        rng = np.random.default_rng(8)
        starts = rng.integers(0, small_graph.num_vertices, size=n)
        seeds = rng.integers(0, 2**62, size=n)
        engine = BatchTeaOutOfCoreEngine(
            small_graph, temporal_node2vec(), trunk_size=8,
            cache_bytes=cache_bytes,
        )

        def walk(order):
            return _lanes_digest(engine.run_lanes(starts[order], seeds[order], 12))

        everyone = np.arange(n)
        whole = walk(everyone)
        assert any(length for length, _, _ in whole)
        solo = [walk(everyone[i : i + 1])[0] for i in range(n)]
        halves = walk(everyone[: n // 2]) + walk(everyone[n // 2 :])
        shuffle = rng.permutation(n)
        shuffled = walk(shuffle)
        assert solo == whole
        assert halves == whole
        assert shuffled == [whole[i] for i in shuffle]

    def test_counters_and_registry_are_filled(self, small_graph):
        engine = BatchTeaOutOfCoreEngine(small_graph, exponential_walk(scale=15.0))
        counters, registry = CostCounters(), MetricsRegistry()
        frontier = engine.run_lanes(
            np.arange(10), np.arange(10) + 5, 6, counters=counters,
            registry=registry,
        )
        assert counters.steps == frontier.total_steps > 0
        assert registry.histogram("batch.frontier_size").count > 0


class TestSynchronousReads:
    """Paper §4.1 reads one trunk per step with no read-ahead: every
    read is the sampling thread's own."""

    def test_run_and_run_lanes_start_no_thread(self, small_graph, monkeypatch):
        engine = BatchTeaOutOfCoreEngine(
            small_graph, exponential_walk(scale=15.0), cache_bytes=1 << 20)

        def refuse(thread):
            raise AssertionError(f"the out-of-core engine started {thread.name!r}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        result = engine.run(Workload(walks_per_vertex=2, max_length=10), seed=3)
        frontier = engine.run_lanes(np.arange(10), np.arange(10) + 5, 6)
        assert result.total_steps > 0 and frontier.total_steps > 0

    def test_no_read_ahead_metrics(self, small_graph):
        engine = BatchTeaOutOfCoreEngine(
            small_graph, exponential_walk(scale=15.0), cache_bytes=1 << 20)
        result = engine.run(Workload(walks_per_vertex=2, max_length=10), seed=3,
                            record_paths=False)
        store = engine.index.store
        assert store.read_ops > 0
        assert (store.prefetch_issued, store.prefetch_hits, store.prefetch_wasted,
                store.prefetch_overlap_seconds) == (0, 0, 0, 0)
        registry = result.registry
        assert "ooc.read_ops" in registry
        assert not [m.name for m in (*registry.counters(), *registry.gauges())
                    if m.name.startswith("prefetch.")
                    or m.name == "ooc.io_overlap_seconds"]


def _pinned_edges():
    """``(u, v, t)`` triples built by arithmetic only, so the digests
    below pin the engine and not a random generator."""
    edges = []
    for u in range(40):
        for k in range(3 + (u * 7) % 23):
            edges.append((u, (u * 11 + k * 5 + 1) % 40,
                          float(k * 3 + u % 4) + 0.25 * (k % 3)))
    for k in range(60):
        edges.append((39, (k * 7 + 2) % 39, 1.5 * k + 0.125))
    return edges


def _pinned_graph():
    from repro.graph.temporal_graph import TemporalGraph

    return TemporalGraph.from_edges(_pinned_edges())


def _two_hop_law(edges, u, spec):
    """``{hops: probability}`` of walks of at most two hops from ``u``,
    enumerated from the edge list: Γt(x) is x's edges strictly after t,
    weighted ``exp(t_i / scale)`` (Eq. 3) and, on the second hop, by
    node2vec's β against the static adjacency."""
    scale = spec.weight_model.scale
    beta = spec.dynamic_parameter
    static = {frozenset((a, b)) for a, b, _ in edges}

    def hop(x, after, prev):
        cands = [(v, t) for a, v, t in edges if a == x and t > after]
        if not cands:
            return {}
        newest = max(t for _, t in cands)
        w = np.array([np.exp((t - newest) / scale) for _, t in cands])
        if beta is not None and prev is not None:
            w *= [1 / beta.p if v == prev else
                  1.0 if frozenset((prev, v)) in static else 1 / beta.q
                  for v, _ in cands]
        law = {}
        for cand, p in zip(cands, w / w.sum()):
            law[cand] = law.get(cand, 0.0) + p
        return law

    joint = {}
    for first, p1 in hop(u, -np.inf, None).items():
        second = hop(first[0], first[1], u)
        if not second:
            joint[(first,)] = joint.get((first,), 0.0) + p1
        for nxt, p2 in second.items():
            joint[(first, nxt)] = joint.get((first, nxt), 0.0) + p1 * p2
    return joint


class TestPinnedToParent:
    """``run(seed)`` output pinned by SHA-256: no storage setting may
    move a bit. The pins moved once, deliberately, when ``run()`` became
    lane-keyed: every walk draws from its own ``LaneRng`` stream seeded
    by ``spawn_seeds`` (as ``run_lanes`` and the parallel executor always
    did), and a start's walks became adjacent (``np.repeat``, not
    ``np.tile``). Digests, sampling counts and the uncached
    ``(io_blocks, io_bytes)`` pair were re-recorded then, and only after
    :meth:`test_first_and_second_hop_match_the_exact_law` passed on this
    graph. Before that, the digests were those of the commit before the
    engine lost its own frontier loop; the I/O pair was re-recorded once
    when the read *unit* became the whole trunk."""

    PINNED = {
        "exp": (
            exponential_walk(scale=10.0),
            "607b4a5c799bc8a35a7bfd611289777035ab5b879ccbc2628396b0d1c3d5bc11",
            dict(steps=210, edges_evaluated=422, binary_search_probes=269,
                 alias_draws=153, rejection_trials=0),
            (129, 14080),
        ),
        "n2v": (
            temporal_node2vec(),
            "37ce2971203071c040c640197c87a95609e722cded6c8acf0d674d23b6b0651a",
            dict(steps=242, edges_evaluated=1595, binary_search_probes=731,
                 alias_draws=340, rejection_trials=515),
            (500, 52616),
        ),
    }

    @pytest.mark.parametrize("app", sorted(PINNED))
    @pytest.mark.parametrize("in_memory", [False, True], ids=["ooc", "in-memory"])
    def test_first_and_second_hop_match_the_exact_law(self, app, in_memory):
        """The precondition of any re-pin: ``run(seed)`` on this very
        graph fits the enumerated Eq. 3 law (β included) on the first
        hop and on the first two hops jointly — from the hub, and from
        vertex 17, where node2vec's ``q`` moves the second hop most."""
        spec = self.PINNED[app][0]
        starts, draws = [39, 17], 20_000
        engine = (BatchTeaEngine(_pinned_graph(), spec) if in_memory else
                  BatchTeaOutOfCoreEngine(_pinned_graph(), spec, trunk_size=8))
        result = engine.run(Workload(walks_per_vertex=draws, max_length=2,
                                     start_vertices=starts), seed=17)
        for k, start in enumerate(starts):
            law = _two_hop_law(_pinned_edges(), start, spec)
            first = {}
            for hops, p in law.items():
                first[hops[0]] = first.get(hops[0], 0.0) + p
            seen = Counter(tuple(path.hops[1:]) for path in
                           result.paths[k * draws:(k + 1) * draws])
            assert set(seen) <= set(law)
            seen_first = Counter()
            for hops, n in seen.items():
                seen_first[hops[0]] += n
            for observed, exact in ((seen_first, first), (seen, law)):
                keys = sorted(exact)
                assert gtest_ok(np.array([observed[key] for key in keys]),
                                np.array([exact[key] for key in keys]),
                                alpha=1e-6)

    @pytest.mark.parametrize("app", sorted(PINNED))
    @pytest.mark.parametrize("cache_bytes", [0, 4 << 20], ids=["uncached", "sync"])
    def test_run_matches_parent_commit(self, app, cache_bytes):
        import hashlib

        spec, digest, sampling, uncached_io = self.PINNED[app]
        engine = BatchTeaOutOfCoreEngine(
            _pinned_graph(), spec, trunk_size=8, cache_bytes=cache_bytes,
        )
        result = engine.run(Workload(walks_per_vertex=3, max_length=10), seed=17)
        sha = hashlib.sha256()
        for path in result.paths:
            sha.update(np.asarray(path.vertices, dtype=np.int64).tobytes())
            sha.update(np.asarray(path.times[1:], dtype=np.float64).tobytes())
        assert sha.hexdigest() == digest
        counters = result.counters.snapshot()
        assert {k: counters[k] for k in sampling} == sampling
        if cache_bytes == 0:
            assert (counters["io_blocks"], counters["io_bytes"]) == uncached_io
            assert engine.index.store.read_ops == uncached_io[0]


    @pytest.mark.parametrize("app", sorted(PINNED))
    @pytest.mark.parametrize(
        "cache_bytes", [50, 9 * 8, 12 * 9 * 8],
        ids=["below-one-frame-sync", "one-frame-sync", "twelve-frames-sync"],
    )
    def test_starved_pool_walks_the_same_walks(self, app, cache_bytes):
        """The rest of the grid: pools far below one frontier's demand
        (this workload's widest step touches ~100 distinct trunks)."""
        import hashlib

        spec, digest, sampling, _ = self.PINNED[app]
        engine = BatchTeaOutOfCoreEngine(
            _pinned_graph(), spec, trunk_size=8, cache_bytes=cache_bytes,
        )
        result = engine.run(Workload(walks_per_vertex=3, max_length=10), seed=17)
        sha = hashlib.sha256()
        for path in result.paths:
            sha.update(np.asarray(path.vertices, dtype=np.int64).tobytes())
            sha.update(np.asarray(path.times[1:], dtype=np.float64).tobytes())
        assert sha.hexdigest() == digest
        counters = result.counters.snapshot()
        assert {k: counters[k] for k in sampling} == sampling
        assert engine.index.store.cache.nbytes <= cache_bytes

    def test_io_counts_repeat_and_respect_the_trunk_bound(self):
        """I/O counts are deterministic at a fixed seed, and a step
        loads at most one C-slice trunk plus one alias trunk."""
        spec = self.PINNED["exp"][0]
        seen = []
        for _ in range(2):
            engine = BatchTeaOutOfCoreEngine(
                _pinned_graph(), spec, trunk_size=8, cache_bytes=12 * 9 * 8)
            counters = engine.run(
                Workload(walks_per_vertex=3, max_length=10), seed=17,
                record_paths=False).counters
            store = engine.index.store
            seen.append((counters.io_blocks, counters.io_bytes, store.read_ops,
                         store.cache.stats.snapshot()))
            assert store.cache.stats.bytes_in <= counters.steps * ((8 + 1) * 8 + 8 * 16)
        assert seen[0] == seen[1]


class TestBatchMatchesScalar:
    @pytest.mark.parametrize("cache_bytes", [0, 6 * 9 * 8, 4 << 20], ids=_sync_id)
    def test_first_hop_chi_squared(self, small_graph, cache_bytes):
        """Batch and scalar engines against Equation 3 at the hub, on
        the cache grid — the pool must not bend the distribution."""
        spec = exponential_walk(scale=15.0)
        v, dests, probs = _hub_first_hop(small_graph, spec)
        batch = BatchTeaOutOfCoreEngine(
            small_graph, spec, trunk_size=8, cache_bytes=cache_bytes)
        frontier = batch.run_lanes(np.full(6000, v), np.arange(6000) + 77, 1)
        counts = np.bincount(np.searchsorted(dests, frontier.hop_vertex[:, 0]),
                             minlength=dests.size)
        assert counts.sum() == 6000 and chisquare_ok(counts, probs)
        scalar = TeaOutOfCoreEngine(
            small_graph, spec, trunk_size=8, cache_bytes=cache_bytes)
        result = scalar.run(
            Workload(walks_per_vertex=3000, max_length=1, start_vertices=[v]),
            seed=9)
        first = [p.hops[1][0] for p in result.paths]
        counts = np.bincount(np.searchsorted(dests, first), minlength=dests.size)
        assert counts.sum() == 3000 and chisquare_ok(counts, probs)


class TestMemorySafety:
    """A wrapped index is a wrong walk, not a crash: numpy wraps negative
    positions silently, so lanes are validated before any key, offset
    or frame is computed."""

    @pytest.fixture
    def engine(self, small_graph):
        engine = BatchTeaOutOfCoreEngine(
            small_graph, exponential_walk(scale=15.0), trunk_size=8)
        engine.prepare()
        return engine

    @pytest.mark.parametrize("v, s", [
        (5, 0), (5, -3), (5, 10**6), (-1, 1), (50, 1), (10**12, 1),
    ])
    def test_bad_lane_raises(self, engine, v, s):
        from repro.engines.tea_outofcore.batch import ooc_sample_batch
        from repro.rng import make_rng

        deg = int(np.diff(engine.graph.indptr)[5])
        vs = np.array([5, v, 5], dtype=np.int64)
        ss = np.array([deg, s, 1], dtype=np.int64)
        with pytest.raises(IndexError):
            ooc_sample_batch(engine.index, vs, ss, make_rng(0), CostCounters())

    def test_size_one_past_the_degree_raises(self, engine):
        from repro.rng import make_rng

        deg = np.diff(engine.graph.indptr)
        v = int(np.flatnonzero(deg)[0])
        with pytest.raises(IndexError):
            ooc_sample(engine.index, v, int(deg[v]) + 1, make_rng(0))
        with pytest.raises(IndexError):
            ooc_sample(engine.index, -1, 1, make_rng(0))
        with pytest.raises(IndexError):
            ooc_sample(engine.index, engine.graph.num_vertices, 1, make_rng(0))

    def test_poisoned_candidate_sizes_raise(self, small_graph, poison=10**9):
        spec = exponential_walk(scale=15.0)
        workload = Workload(walks_per_vertex=1, max_length=6)
        for make in (BatchTeaOutOfCoreEngine, TeaOutOfCoreEngine):
            engine = make(small_graph, spec, trunk_size=8)
            engine.prepare()
            engine.candidate_sizes = np.full_like(engine.candidate_sizes, poison)
            with pytest.raises(IndexError):
                engine.run(workload, seed=0, record_paths=False)
        with pytest.raises(IndexError):
            engine = BatchTeaOutOfCoreEngine(small_graph, spec, trunk_size=8)
            engine.prepare()
            engine.candidate_sizes = np.full_like(engine.candidate_sizes, poison)
            engine.run_lanes(np.arange(20), np.arange(20) + 3, 6)


#: Call events a 16x wider frontier may add to one iteration: the
#: lockstep trunk-boundary bisect runs one more round per doubling of
#: the deepest lane's trunk count (7 events a round) and the byte
#: histograms fold once per *distinct* size. A loop over ranges, blocks
#: or lanes would add tens of thousands.
WIDTH_SLACK_EVENTS = 96


def frontier_call_events(graph, spec, lanes: int, seed: int = 0) -> int:
    """Python-level ``call``/``c_call`` events (``sys.setprofile``) inside
    one cold ``_sample_batch`` over ``lanes`` seeded (vertex, candidate
    size) pairs on a fresh engine."""
    import sys

    from repro.rng import LaneRng
    from repro.telemetry import NULL_PROFILER

    engine = BatchTeaOutOfCoreEngine(graph, spec, cache_bytes=1 << 20)
    engine.prepare()
    degrees = np.diff(graph.indptr)
    rng = np.random.default_rng(seed)
    vs = rng.choice(np.flatnonzero(degrees), size=lanes)
    ss = rng.integers(1, degrees[vs] + 1)
    counters = CostCounters()
    events = 0

    def hook(frame, event, arg):
        nonlocal events
        events += event in ("call", "c_call")

    with engine._frontier_scope(NULL_PROFILER):
        sys.setprofile(hook)
        try:
            engine._sample_batch(vs, ss, LaneRng(np.arange(lanes) + seed),
                                 np.arange(lanes), counters)
        finally:
            sys.setprofile(None)
    return events


class TestWidthIndependence:
    @pytest.mark.parametrize("dataset", ["medium", "growth"])
    def test_call_events_do_not_grow_with_the_frontier(self, medium_graph, dataset):
        """Exact structural gate (part of ``make ooc-smoke``): lookup,
        miss load, admission, eviction and in-trunk search are array
        passes, so 16x the lanes cost the same number of
        Python-level calls up to the lockstep bisect's rounds."""
        from repro.graph.datasets import load_dataset

        graph = (medium_graph if dataset == "medium"
                 else load_dataset("growth", scale=0.25, seed=7))
        spec = exponential_walk(scale=20.0)
        narrow = frontier_call_events(graph, spec, 1_000)
        wide = frontier_call_events(graph, spec, 16_000)
        assert narrow > 100  # the hook saw the iteration
        assert abs(wide - narrow) <= WIDTH_SLACK_EVENTS, (narrow, wide)


class TestSetup:
    def test_tr_prefix_matches_the_per_vertex_loop(self, medium_graph, tmp_path):
        """The vectorised boundary gather builds the array the old
        per-vertex loop built, bit for bit, for uniform and sqrt-rule
        trunk sizes."""
        from repro.core.outofcore import OutOfCorePAT

        weights = WeightModel("exponential", scale=20.0).compute(medium_graph)
        for trunk_size in (8, None):
            pat = build_pat(medium_graph, weights, trunk_size=trunk_size)
            store = TrunkStore.persist(pat, tmp_path / str(trunk_size))
            index = OutOfCorePAT(pat, store)
            expected = np.zeros_like(index.tr_prefix)
            for v in range(medium_graph.num_vertices):
                d = medium_graph.out_degree(v)
                if not d:
                    continue
                ts = int(pat.trunk_sizes[v])
                count = -(-d // ts) + 1
                bounds = np.minimum(np.arange(count) * ts, d)
                lo = index.tr_indptr[v]
                assert index.tr_indptr[v + 1] - lo == count
                expected[lo : lo + count] = pat.c[pat.c_base(v) + bounds]
            assert index.tr_prefix.dtype == np.float64
            np.testing.assert_array_equal(index.tr_prefix, expected)
            assert store.open().cache.width == int(pat.trunk_sizes.max()) + 1


class TestTemporalValidity:
    def test_node2vec_paths_are_temporal(self, small_graph):
        engine = BatchTeaOutOfCoreEngine(
            small_graph, temporal_node2vec(p=0.5, q=2.0, scale=15.0),
            trunk_size=8,
        )
        result = engine.run(Workload(walks_per_vertex=2, max_length=15), seed=3)
        assert result.counters.steps > 0
        for path in result.paths:
            assert is_temporal_path(small_graph, path.hops)


class TestCli:
    def test_walk_batch_engine_with_flags(self, capsys):
        rc = main([
            "walk", "--dataset", "tiny", "--app", "exponential",
            "--engine", "tea-ooc-batch", "--length", "10",
            "--max-walks", "20", "--stats", "--cache-bytes", "65536",
            "--ooc-trunk-size", "4",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ooc.read_ops" in out
        assert "cache.bytes_served" in out

    def test_scalar_engine_is_not_a_cli_engine(self, capsys):
        """The one-read-per-step reader is a test oracle, not an option:
        the CLI offers one out-of-core TEA engine among its eleven."""
        from repro.cli import ENGINES

        assert len(ENGINES) == 11 and "tea-ooc" not in ENGINES
        with pytest.raises(SystemExit):
            main(["walk", "--dataset", "tiny", "--engine", "tea-ooc"])
        assert "invalid choice: 'tea-ooc'" in capsys.readouterr().err
