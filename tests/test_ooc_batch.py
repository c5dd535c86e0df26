"""Batched out-of-core engine: the frontier fast path over the TrunkStore.

Covers the tentpole's correctness contract: the batched engine must keep
the scalar ``tea-ooc`` sampling distribution (chi-squared at a hub
vertex), stay deterministic and cache-oblivious in its draws, produce
valid temporal paths, coalesce backing reads, and conserve prefetch
accounting (``issued == hits + wasted + in_flight``) all the way out to
the Prometheus exporter.
"""

import numpy as np
import pytest

from repro.cli import main
from repro.core.builder import build_pat
from repro.core.outofcore import TrunkStore, coalesce_runs
from repro.core.weights import WeightModel
from repro.engines import (
    BatchTeaOutOfCoreEngine,
    TeaOutOfCoreEngine,
    Workload,
)
from repro.graph.validate import is_temporal_path
from repro.sampling.counters import CostCounters
from repro.telemetry import MetricsRegistry
from repro.telemetry.exporters import to_prometheus
from repro.walks.apps import exponential_walk, temporal_node2vec
from tests.conftest import chisquare_ok


class TestCoalesceRuns:
    def test_adjacent_and_overlapping_merge(self):
        runs = list(coalesce_runs([(0, 4, "a"), (4, 8, "b"), (6, 10, "c")]))
        assert runs == [(0, 10, ["a", "b", "c"])]

    def test_disjoint_stay_separate(self):
        runs = list(coalesce_runs([(0, 2, 0), (5, 7, 1)]))
        assert runs == [(0, 2, [0]), (5, 7, [1])]

    def test_empty(self):
        assert list(coalesce_runs([])) == []


class TestReadBatch:
    @pytest.fixture
    def store(self, medium_graph, tmp_path):
        weights = WeightModel("exponential", scale=20.0).compute(medium_graph)
        pat = build_pat(medium_graph, weights, trunk_size=8)
        return TrunkStore.persist(pat, tmp_path / "s", cache_bytes=1 << 20).open()

    def test_blocks_match_scalar_reads(self, store):
        los = np.array([0, 8, 8, 16, 3], dtype=np.int64)
        his = np.array([8, 16, 16, 24, 11], dtype=np.int64)
        blocks, inverse = store.read_batch("c", los, his, CostCounters())
        for i in range(los.size):
            expected = np.array(store._c[los[i]:his[i]])
            np.testing.assert_array_equal(blocks[inverse[i]], expected)

    def test_duplicates_collapse_and_runs_coalesce(self, store):
        counters = CostCounters()
        los = np.array([0, 0, 8, 16], dtype=np.int64)
        his = np.array([8, 8, 16, 24], dtype=np.int64)
        before = store.read_ops
        blocks, inverse = store.read_batch("c", los, his, counters)
        # Three adjacent unique ranges coalesce into ONE backing read.
        assert store.read_ops == before + 1
        assert len(blocks) == 3
        assert inverse.tolist() == [0, 0, 1, 2]

    def test_pa_region_returns_tuples(self, store):
        blocks, inverse = store.read_batch(
            "pa", np.array([0, 8]), np.array([8, 16]), None
        )
        prob, alias = blocks[inverse[0]]
        np.testing.assert_array_equal(prob, np.array(store._prob[0:8]))
        np.testing.assert_array_equal(alias, np.array(store._alias[0:8]))


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

    def test_draws_oblivious_to_cache_and_prefetch(self, small_graph):
        """Neither the cache nor the prefetcher consumes sampling RNG,
        so every configuration must yield identical paths."""
        wl = Workload(walks_per_vertex=2, max_length=20)
        configs = [
            {"cache_bytes": 0, "prefetch": False},
            {"cache_bytes": 1 << 20, "prefetch": False},
            {"cache_bytes": 1 << 20, "prefetch": True},
        ]
        paths = []
        for cfg in configs:
            result = BatchTeaOutOfCoreEngine(
                small_graph, exponential_walk(scale=15.0), **cfg
            ).run(wl, seed=4)
            paths.append([w.hops for w in result.paths])
        assert paths[0] == paths[1] == paths[2]

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

    @pytest.mark.parametrize("prefetch", [True, False], ids=["prefetch", "sync"])
    @pytest.mark.parametrize("cache_bytes", [0, 64 << 10, 4 << 20])
    def test_any_partition_bit_parity(self, small_graph, prefetch, cache_bytes):
        n = 24
        rng = np.random.default_rng(8)
        starts = rng.integers(0, small_graph.num_vertices, size=n)
        seeds = rng.integers(0, 2**62, size=n)
        engine = BatchTeaOutOfCoreEngine(
            small_graph, temporal_node2vec(), trunk_size=8,
            cache_bytes=cache_bytes, prefetch=prefetch,
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
        assert engine._prefetcher is None  # the run's scope closed it


def _pinned_graph():
    """Built by arithmetic only, so the digests below pin the engine and
    not a random generator."""
    from repro.graph.temporal_graph import TemporalGraph

    edges = []
    for u in range(40):
        for k in range(3 + (u * 7) % 23):
            edges.append((u, (u * 11 + k * 5 + 1) % 40,
                          float(k * 3 + u % 4) + 0.25 * (k % 3)))
    for k in range(60):
        edges.append((39, (k * 7 + 2) % 39, 1.5 * k + 0.125))
    return TemporalGraph.from_edges(edges)


class TestPinnedToParent:
    """``run(seed)`` output recorded at the commit *before* the engine
    lost its own frontier loop and ``ooc_sample_batch`` moved to lane
    draws: the rewiring must not move a single bit."""

    PINNED = {
        "exp": (
            exponential_walk(scale=10.0),
            "fb78ef18f6bd2c6003a25d4192e081386a9b8bd916315a05e655498c89728cb1",
            dict(steps=229, edges_evaluated=477, binary_search_probes=322,
                 alias_draws=155, rejection_trials=0),
            (223, 12024),
        ),
        "n2v": (
            temporal_node2vec(),
            "94f8eac146e4c688ea832e9b86fc50d9465ac101196f3ad6e17ece7d0e61e51d",
            dict(steps=255, edges_evaluated=2036, binary_search_probes=1021,
                 alias_draws=381, rejection_trials=624),
            (886, 48368),
        ),
    }

    @pytest.mark.parametrize("app", sorted(PINNED))
    @pytest.mark.parametrize(
        "prefetch,cache_bytes", [(False, 0), (False, 4 << 20), (True, 4 << 20)],
        ids=["uncached", "sync", "prefetch"],
    )
    def test_run_matches_parent_commit(self, app, prefetch, cache_bytes):
        import hashlib

        spec, digest, sampling, uncached_io = self.PINNED[app]
        engine = BatchTeaOutOfCoreEngine(
            _pinned_graph(), spec, trunk_size=8, cache_bytes=cache_bytes,
            prefetch=prefetch,
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


class TestPrefetchPrediction:
    def test_short_vertex_beside_a_hub_does_not_over_read(self):
        """The trunk-weight scan runs ``max(kmax)`` rounds for every
        row; a vertex with fewer complete trunks than its frontier-mates
        — here the highest id, whose trunks end ``tr_prefix`` — used to
        be gathered past the end (IndexError: index 25 ... size 25)."""
        from repro.graph.temporal_graph import TemporalGraph

        edges = []
        for v in (1, 2, 3, 4):
            edges += [(v, 0, float(v)), (v, 5, v + 0.5)]
        edges += [(0, 1 + k % 4, 10.0 + k) for k in range(200)]
        edges += [(5, 1 + k % 4, 10.0 + k) for k in range(20)]
        engine = BatchTeaOutOfCoreEngine(
            TemporalGraph.from_edges(edges), exponential_walk(),
            trunk_size=16, prefetch=True,
        )
        result = engine.run(
            Workload(walks_per_vertex=4, max_length=5,
                     start_vertices=[1, 2, 3, 4]),
            seed=0,
        )
        assert result.total_steps > 16
        store = engine.index.store
        assert store.prefetch_issued == (
            store.prefetch_hits + store.prefetch_wasted + store.prefetch_in_flight
        )


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


class TestPrefetchTelemetry:
    @pytest.fixture
    def ran_engine(self, medium_graph, tmp_path):
        engine = BatchTeaOutOfCoreEngine(
            medium_graph, exponential_walk(scale=20.0), trunk_size=8,
            storage_dir=str(tmp_path), cache_bytes=1 << 20, prefetch=True,
        )
        engine.run(Workload(walks_per_vertex=2, max_length=40), seed=1,
                   record_paths=False)
        return engine

    def test_conservation(self, ran_engine):
        store = ran_engine.index.store
        assert store.prefetch_issued > 0
        assert store.prefetch_issued == (
            store.prefetch_hits + store.prefetch_wasted
            + store.prefetch_in_flight
        )

    def test_registry_and_prometheus_visibility(self, ran_engine):
        store = ran_engine.index.store
        registry = MetricsRegistry()
        ran_engine.publish_telemetry(registry)
        issued = registry.counter_value("prefetch.issued")
        assert issued == store.prefetch_issued
        assert issued == (
            registry.counter_value("prefetch.hits")
            + registry.counter_value("prefetch.wasted")
            + registry.gauge_value("prefetch.in_flight")
        )
        assert registry.counter_value("ooc.read_ops") == store.read_ops
        assert registry.gauge_value("ooc.io_overlap_seconds") is not None
        text = to_prometheus(registry)
        for name in ("tea_prefetch_issued", "tea_prefetch_hits",
                     "tea_prefetch_wasted", "tea_ooc_read_ops",
                     "tea_cache_bytes_served"):
            assert name in text, name

    def test_prefetch_off_hides_prefetch_metrics(self, medium_graph, tmp_path):
        engine = BatchTeaOutOfCoreEngine(
            medium_graph, exponential_walk(scale=20.0), trunk_size=8,
            storage_dir=str(tmp_path), cache_bytes=1 << 20, prefetch=False,
        )
        engine.run(Workload(walks_per_vertex=1, max_length=10), seed=1,
                   record_paths=False)
        registry = MetricsRegistry()
        engine.publish_telemetry(registry)
        assert registry.counter_value("prefetch.issued") == 0
        assert registry.counter_value("ooc.read_ops") > 0


class TestCli:
    def test_walk_batch_engine_with_flags(self, capsys):
        rc = main([
            "walk", "--dataset", "tiny", "--app", "exponential",
            "--engine", "tea-ooc-batch", "--length", "10",
            "--max-walks", "20", "--stats", "--cache-bytes", "65536",
            "--ooc-trunk-size", "4", "--prefetch", "on",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "prefetch.issued" in out
        assert "ooc.read_ops" in out
        assert "cache.bytes_served" in out

    def test_walk_scalar_engine_cache_flag(self, capsys):
        rc = main([
            "walk", "--dataset", "tiny", "--app", "exponential",
            "--engine", "tea-ooc", "--length", "10", "--max-walks", "20",
            "--cache-bytes", "65536", "--ooc-trunk-size", "4",
        ])
        assert rc == 0
        assert "steps:" in capsys.readouterr().out
