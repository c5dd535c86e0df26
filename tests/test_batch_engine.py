"""BatchTeaEngine: vectorised execution ≡ scalar TEA, and faster."""

import numpy as np
import pytest

from repro.engines import (
    BatchTeaOutOfCoreEngine,
    ParallelBatchTeaEngine,
    TeaEngine,
    Workload,
)
from repro.engines.batch import BatchTeaEngine
from repro.graph.validate import is_temporal_path
from repro.rng import LaneRng, make_rng, spawn_seeds
from repro.sampling.counters import CostCounters
from repro.walks.apps import (
    exponential_walk,
    linear_walk,
    temporal_node2vec,
    unbiased_walk,
)
from tests.conftest import chisquare_ok

ALL_SPECS = [linear_walk(), exponential_walk(scale=20.0),
             temporal_node2vec(scale=20.0), unbiased_walk()]


def _lanes(n, seed):
    """``(draw, lanes)`` for ``n`` rows: one fresh lane stream each."""
    return (LaneRng(spawn_seeds(make_rng(seed), n)),
            np.arange(n, dtype=np.int64))


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
class TestBatchExecution:
    def test_paths_are_temporal(self, small_graph, spec):
        engine = BatchTeaEngine(small_graph, spec)
        result = engine.run(Workload(max_length=12, max_walks=40), seed=3)
        assert result.num_walks == 40
        for path in result.paths:
            assert is_temporal_path(engine.graph, path.hops)
            assert path.num_edges <= 12

    def test_steps_counted(self, small_graph, spec):
        result = BatchTeaEngine(small_graph, spec).run(
            Workload(max_length=8, max_walks=20), seed=1
        )
        assert result.total_steps == sum(p.num_edges for p in result.paths)


class TestDistributionEquivalence:
    @pytest.mark.parametrize("spec_fn", [linear_walk,
                                         lambda: exponential_walk(scale=15.0)],
                             ids=["linear", "exponential"])
    def test_batch_sampler_matches_exact(self, small_graph, spec_fn):
        spec = spec_fn()
        engine = BatchTeaEngine(small_graph, spec)
        engine.prepare()
        v = int(np.argmax(small_graph.degrees()))
        d = small_graph.out_degree(v)
        weights = spec.weight_model.compute(small_graph)
        lo = small_graph.indptr[v]
        probs = weights[lo : lo + d] / weights[lo : lo + d].sum()
        draws = engine._sample_batch(
            np.full(20000, v), np.full(20000, d), *_lanes(20000, 0),
            CostCounters()
        )
        counts = np.bincount(draws, minlength=d).astype(float)
        assert chisquare_ok(counts, probs)

    def test_batch_sampler_partial_prefixes(self, small_graph):
        spec = exponential_walk(scale=15.0)
        engine = BatchTeaEngine(small_graph, spec)
        engine.prepare()
        v = int(np.argmax(small_graph.degrees()))
        d = small_graph.out_degree(v)
        weights = spec.weight_model.compute(small_graph)
        lo = small_graph.indptr[v]
        for s in {1, 2, 3, d - 1, d // 2}:
            if s < 1:
                continue
            probs = weights[lo : lo + s] / weights[lo : lo + s].sum()
            draws = engine._sample_batch(
                np.full(15000, v), np.full(15000, s), *_lanes(15000, s),
                CostCounters()
            )
            assert draws.max() < s
            counts = np.bincount(draws, minlength=s).astype(float)
            assert chisquare_ok(counts, probs), s

    def test_mixed_vertices_in_one_batch(self, small_graph):
        spec = unbiased_walk()
        engine = BatchTeaEngine(small_graph, spec)
        engine.prepare()
        degrees = small_graph.degrees()
        vs = np.flatnonzero(degrees >= 2)[:8]
        batch_v = np.repeat(vs, 2000)
        batch_s = degrees[batch_v]
        draws = engine._sample_batch(batch_v, batch_s, *_lanes(batch_v.size, 2),
                                     CostCounters())
        assert np.all(draws < batch_s)
        assert np.all(draws >= 0)

    def test_walk_length_distribution_matches_scalar(self, small_graph):
        spec = exponential_walk(scale=20.0)
        wl = Workload(max_length=10)
        scalar = TeaEngine(small_graph, spec).run(wl, seed=9)
        batch = BatchTeaEngine(small_graph, spec).run(wl, seed=9)
        m1 = np.mean([p.num_edges for p in scalar.paths])
        m2 = np.mean([p.num_edges for p in batch.paths])
        assert m2 == pytest.approx(m1, rel=0.12)

    def test_node2vec_beta_matches_scalar(self):
        """β rejection statistics match the scalar engine on the
        return-probe graph from the equivalence suite."""
        from repro.graph.temporal_graph import TemporalGraph

        graph = TemporalGraph.from_edges([(0, 1, 1.0), (1, 0, 2.0), (1, 2, 2.0)])
        spec = temporal_node2vec(p=0.05, q=2.0, scale=1e9)
        wl = Workload(walks_per_vertex=3000, max_length=2, start_vertices=[0])

        def return_rate(engine):
            result = engine.run(wl, seed=4)
            two_hop = [p for p in result.paths if p.num_edges == 2]
            return sum(p.vertices[2] == 0 for p in two_hop) / max(len(two_hop), 1)

        scalar_rate = return_rate(TeaEngine(graph, spec))
        batch_rate = return_rate(BatchTeaEngine(graph, spec))
        assert batch_rate == pytest.approx(scalar_rate, abs=0.04)
        assert batch_rate > 0.9


class TestBetaBatch:
    def test_beta_values(self):
        """Node2vec's array form of β, pair for pair its scalar form."""
        from repro.graph.temporal_graph import TemporalGraph

        graph = TemporalGraph.from_edges(
            [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 1.5), (2, 3, 3.0)]
        )
        beta = temporal_node2vec(p=0.5, q=2.0).dynamic_parameter
        prev = np.array([0, 0, 0, 3])
        cand = np.array([0, 2, 3, 2])  # return / neighbor / distance-2 / reverse
        b = beta.values(graph, prev, cand)
        assert b.tolist() == [2.0, 1.0, 0.5, 1.0]
        assert b.tolist() == [beta(graph, int(u), int(v))
                              for u, v in zip(prev, cand)]


class TestPerformance:
    def test_batch_walk_phase_faster_than_scalar(self, medium_graph):
        spec = exponential_walk(scale=20.0)
        wl = Workload(walks_per_vertex=5, max_length=20)
        scalar = TeaEngine(medium_graph, spec).run(wl, seed=0, record_paths=False)
        batch = BatchTeaEngine(medium_graph, spec).run(wl, seed=0, record_paths=False)
        # Same sampling semantics, so similar step counts...
        assert batch.total_steps == pytest.approx(scalar.total_steps, rel=0.1)
        # ...but the vectorised frontier should be clearly faster per step.
        scalar_rate = scalar.walk_seconds / max(scalar.total_steps, 1)
        batch_rate = batch.walk_seconds / max(batch.total_steps, 1)
        assert batch_rate < scalar_rate


def _chain():
    """0 → 1 → … → 99, edge ``v → v+1`` at time ``v``: a walk from ``v``
    takes exactly ``99 − v`` hops."""
    from repro.graph.temporal_graph import TemporalGraph

    return TemporalGraph.from_edges([(v, v + 1, float(v)) for v in range(99)])


class TestHopColumns:
    """Hop columns cost the hops taken, not ``max_length``: a walk of
    ``max_length = 10**9`` allocates what its longest walk needs."""

    @pytest.mark.parametrize("make", [
        lambda g: BatchTeaEngine(g, linear_walk(), kernel_backend="numpy"),
        lambda g: BatchTeaEngine(g, linear_walk(), kernel_backend="auto"),
        lambda g: TeaEngine(g, linear_walk()),
        lambda g: ParallelBatchTeaEngine(g, linear_walk(), workers=2,
                                         backend="thread", chunk_size=1),
        lambda g: BatchTeaOutOfCoreEngine(g, linear_walk(), trunk_size=4),
    ], ids=["numpy", "auto", "scalar", "parallel", "ooc"])
    def test_columns_grow_with_the_longest_walk(self, make):
        engine = make(_chain())
        starts, seeds = np.array([0, 60, 98, 99]), np.arange(4)
        roomy = engine.run_lanes(starts, seeds, 10**9)
        assert roomy.lengths.tolist() == [99, 39, 1, 0]
        assert roomy.hop_vertex.shape[1] == 128  # 32 → 64 → 128
        assert roomy.hop_vertex[0, :99].tolist() == list(range(1, 100))
        tight = engine.run_lanes(starts, seeds, 100)
        assert tight.hop_vertex.shape[1] == 100  # 32 → 64 → max_length
        assert [p.hops for p in roomy.materialise_paths()] == [
            p.hops for p in tight.materialise_paths()]
        paths = engine.run(Workload(max_length=10**9, start_vertices=[0, 60]),
                           seed=1).paths
        assert [p.num_edges for p in paths] == [99, 39]
        if hasattr(engine, "close"):
            engine.close()


class TestRoundMemory:
    """A round holds :data:`~repro.engines.batch.FRONTIER_LANES` lanes of
    lane state at a time, however many threads walk its slices, not a
    column per walk of the request. Counted by ``tracemalloc`` (every
    thread's allocations), so the bound holds on any machine."""

    #: Peak bytes a ``record_paths=False`` round may allocate per walk:
    #: its starts, seeds and lengths (24 B) plus ``FRONTIER_LANES`` lanes
    #: of lane state spread over every walk. One frontier over every lane
    #: reads ≈81.
    BYTES_PER_LANE = 40

    def test_round_peak_is_one_slice_of_lane_state(self, monkeypatch):
        """At 2 and 7 threads (``usable_cpus`` patched as the test seam),
        in ``4096 // threads``-lane slices, ``threads`` in flight."""
        import tracemalloc

        from repro.engines import batch
        from repro.graph.datasets import DATASETS
        from repro.graph.temporal_graph import TemporalGraph

        graph = TemporalGraph.from_stream(
            DATASETS["twitter"].generate(seed=1, scale=0.3))
        engine = BatchTeaEngine(graph, exponential_walk(scale=6.0))
        workload = Workload(walks_per_vertex=120, max_length=80)
        engine.run(workload, seed=0, record_paths=False)  # build, compile
        monkeypatch.setattr(batch, "FRONTIER_LANES", 4096)
        walks = graph.num_vertices * 120
        for threads in (2, 7):
            monkeypatch.setattr(batch, "usable_cpus", lambda: threads)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                result = engine.run(workload, seed=1, record_paths=False)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            walk = next(s for s in result.spans if s.name == "walk")
            assert walk.attributes["threads"] == threads
            assert walk.attributes["chunks"] == -(-walks // (4096 // threads)) > 20
            assert result.total_steps > walks
            assert peak / walks <= self.BYTES_PER_LANE, (threads, peak / walks)


class TestSliceThreads:
    """A request wider than :data:`~repro.engines.batch.FRONTIER_LANES`
    walks its slices on :func:`~repro.engines.batch.usable_cpus` threads
    (both patched here as test seams): at 1, 2 and 7 threads the walks,
    the counters, the lanes observed by ``batch.frontier_size`` and the
    ``walk.length`` histogram (counted on the slices) are those of one
    frontier over every lane, and of the numpy backend."""

    WIDTH = 64
    SPECS = {
        "exponential": exponential_walk(scale=20.0),
        "node2vec": temporal_node2vec(p=4.0, q=0.25, scale=20.0),
        # β_max = 1/p = 1e9: every lane with a predecessor spends its
        # rejection rounds and takes the exact fallback.
        "node2vec-fallback": temporal_node2vec(p=1e-9, q=1.0, scale=20.0),
    }

    @staticmethod
    def _lengths(registry):
        """The ``walk.length`` histogram: buckets, count and total."""
        return registry.histogram("walk.length").snapshot()

    @staticmethod
    def _lanes_seen(registry):
        """Lane-iterations the frontier histogram observed (count × mean,
        summed exactly): slices change the count, never the sum."""
        return registry.histogram("batch.frontier_size").total

    @pytest.mark.parametrize("stop", [0.0, 0.1])
    @pytest.mark.parametrize("app", sorted(SPECS))
    def test_every_thread_count_walks_the_same_bits(self, medium_graph, app,
                                                    stop, monkeypatch):
        from repro.engines import batch
        from repro.telemetry import MetricsRegistry

        spec = self.SPECS[app]
        workload = Workload(walks_per_vertex=2, max_length=8,
                            stop_probability=stop, max_walks=300)
        ref = BatchTeaEngine(medium_graph, spec).run(workload, seed=5)
        assert ref.total_steps > 0
        lengths = self._lengths(ref.registry)
        assert lengths == self._lengths(BatchTeaEngine(
            medium_graph, spec, kernel_backend="numpy").run(
                workload, seed=5).registry)
        assert lengths["count"] == 300 and lengths["sum"] == ref.total_steps
        rng = make_rng(5)
        starts = workload.resolve_starts(medium_graph.num_vertices, rng)
        seeds = spawn_seeds(rng, starts.size)
        fallback_lanes = []
        real = BatchTeaEngine._beta_fallback_batch

        def spy(engine, vs, *args):
            fallback_lanes.append(vs.size)
            return real(engine, vs, *args)

        monkeypatch.setattr(BatchTeaEngine, "_beta_fallback_batch", spy)
        monkeypatch.setattr(batch, "FRONTIER_LANES", self.WIDTH)
        engine = BatchTeaEngine(medium_graph, spec)
        for threads in (1, 2, 7):
            monkeypatch.setattr(batch, "usable_cpus", lambda: threads)
            for record in (True, False):
                got = engine.run(workload, seed=5, record_paths=record)
                walk = next(s for s in got.spans if s.name == "walk")
                assert walk.attributes["threads"] == threads
                assert walk.attributes["chunks"] == -(-300 // (self.WIDTH // threads))
                assert [p.hops for p in got.paths] == (
                    [p.hops for p in ref.paths] if record else [])
                assert got.counters.snapshot() == ref.counters.snapshot()
                assert self._lanes_seen(got.registry) == \
                    self._lanes_seen(ref.registry)
                assert self._lengths(got.registry) == lengths
            counters, registry = CostCounters(), MetricsRegistry()
            lanes = engine.run_lanes(starts, seeds, 8, stop, counters=counters,
                                     registry=registry)
            assert [p.hops for p in lanes.materialise_paths()] == \
                [p.hops for p in ref.paths]
            assert np.array_equal(lanes.length_counts,
                                  np.bincount(lanes.lengths))
            assert counters.snapshot() == ref.counters.snapshot()
            assert self._lanes_seen(registry) == self._lanes_seen(ref.registry)
        if app == "node2vec-fallback":
            assert sum(fallback_lanes) > 0

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_parallel_chunks_count_the_same_lengths(self, medium_graph,
                                                    monkeypatch, backend):
        """Parallel chunk results carry their slices' length counts: the
        ``walk.length`` histogram of a run on 2 workers, at any chunk size
        and slice width, is the inline engine's and the numpy backend's."""
        import multiprocessing

        from repro.engines import batch

        if backend == "process" and "fork" not in \
                multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        spec = self.SPECS["node2vec"]
        workload = Workload(walks_per_vertex=2, max_length=8,
                            stop_probability=0.1, max_walks=300)
        ref = BatchTeaEngine(medium_graph, spec).run(workload, seed=5)
        lengths = self._lengths(ref.registry)
        assert lengths == self._lengths(BatchTeaEngine(
            medium_graph, spec, kernel_backend="numpy").run(
                workload, seed=5).registry)
        monkeypatch.setattr(batch, "FRONTIER_LANES", self.WIDTH)
        engine = ParallelBatchTeaEngine(medium_graph, spec, workers=2,
                                        backend=backend)
        try:
            for chunk_size in (7, 150, None):
                engine.chunk_size = chunk_size
                got = engine.run(workload, seed=5, record_paths=False)
                assert engine.last_backend == backend
                assert self._lengths(got.registry) == lengths, chunk_size
                assert got.counters.snapshot() == ref.counters.snapshot()
        finally:
            engine.close()

    def test_threaded_slices_profile_every_iteration(self, medium_graph,
                                                     monkeypatch):
        """Each slice's recorder folds in under the run's ``walk`` frame:
        one ``walk;hop`` call (``walk;gather`` on the numpy passes) per
        iteration of every slice."""
        from repro.engines import batch
        from repro.telemetry import PhaseProfiler

        monkeypatch.setattr(batch, "FRONTIER_LANES", self.WIDTH)
        monkeypatch.setattr(batch, "usable_cpus", lambda: 2)
        engine = BatchTeaEngine(medium_graph, exponential_walk(scale=20.0))
        engine.profiler = profiler = PhaseProfiler()
        result = engine.run(Workload(walks_per_vertex=2, max_length=8),
                            seed=5, record_paths=False)
        iterations = result.registry.histogram("batch.frontier_size").count
        phase = "gather" if engine.kernel.hop is None else "hop"
        assert profiler.phases[("walk", phase)][0] == iterations > 0

    def test_out_of_core_slices_stay_sequential(self, medium_graph,
                                                monkeypatch):
        """The frame pool's counts are defined by the slice order: a
        multi-slice out-of-core request walks on the calling thread and
        counts what the sequential executor counted before threads
        (recorded from it: ``FRONTIER_LANES`` = 64, 16 KiB pool)."""
        from repro.engines import batch

        monkeypatch.setattr(batch, "FRONTIER_LANES", self.WIDTH)
        monkeypatch.setattr(batch, "usable_cpus", lambda: 2)
        monkeypatch.setattr(BatchTeaEngine, "_walk_threads", None)
        sequential = {
            "exponential": (dict(hits=578, misses=792, evictions=565,
                                 bytes_in=47768, bytes_evicted=32712,
                                 bytes_served=39136, promotions=118), 530),
            "node2vec": (dict(hits=1270, misses=792, evictions=565,
                              bytes_in=47632, bytes_evicted=32464,
                              bytes_served=86984, promotions=157), 525),
        }
        for app, (stats, read_ops) in sequential.items():
            engine = BatchTeaOutOfCoreEngine(medium_graph, self.SPECS[app],
                                             trunk_size=8,
                                             cache_bytes=16 << 10)
            result = engine.run(Workload(walks_per_vertex=2, max_length=20),
                                seed=5, record_paths=False)
            walk = next(s for s in result.spans if s.name == "walk")
            assert (walk.attributes["chunks"], walk.attributes["threads"]) == (7, 1)
            snapshot = engine.cache_stats.snapshot()
            snapshot.pop("hit_rate")
            assert snapshot == stats, app
            assert engine.index.store.read_ops == read_ops, app


class TestBetaFallbackMemory:
    """Lanes that spend the node2vec rejection budget take the exact β
    fallback in row groups of at most ``BETA_FALLBACK_CELLS`` padded
    cells, drawing exactly what one group over every lane draws."""

    HUB_CANDIDATES = 2000
    LANES = 4096
    #: ``tracemalloc`` peak of one 4 096-lane run below: ≈14 MiB in row
    #: groups, ≈392 MiB as one padded group (4 096 × 2 000 cells).
    PEAK_BOUND = 32 * 2**20

    def _engine(self, kernel_backend="auto"):
        """A star: hub 0 reaches leaf i at time i, which returns at
        i + ½. A walk from the hub comes back to it on its second hop
        with up to ``HUB_CANDIDATES`` candidates, all non-neighbours of
        its predecessor: β = 1/q = 1 against β_max = 1/p = 10⁹, so every
        lane spends its rejection rounds and falls back."""
        from repro.graph.temporal_graph import TemporalGraph

        d = self.HUB_CANDIDATES
        graph = TemporalGraph.from_edges(
            [(0, i, float(i)) for i in range(1, d + 1)]
            + [(i, 0, i + 0.5) for i in range(1, d + 1)])
        spec = temporal_node2vec(p=1e-9, q=1.0, scale=float(d))
        return BatchTeaEngine(graph, spec, kernel_backend=kernel_backend)

    def _walk(self, engine, lanes):
        counters = CostCounters()
        frontier = engine.run_lanes(
            np.zeros(lanes, dtype=np.int64),
            spawn_seeds(make_rng(0), self.LANES)[:lanes], 4,
            counters=counters)
        return frontier, counters.snapshot()

    def test_hub_fallback_peak_is_bounded(self):
        import tracemalloc

        engine = self._engine()
        self._walk(engine, 8)  # build, compile
        tracemalloc.start()
        try:
            frontier, counters = self._walk(engine, self.LANES)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Nearly every walk drew a third hop at the hub, by the fallback.
        assert (frontier.lengths >= 3).mean() > 0.99
        assert counters["rejection_trials"] > 16 * self.LANES * 0.9
        assert counters["edges_evaluated"] > self.LANES * self.HUB_CANDIDATES // 4
        assert peak <= self.PEAK_BOUND, peak / 2**20

    @pytest.mark.parametrize("kernel_backend", ["auto", "numpy"])
    def test_row_groups_draw_as_one_group(self, kernel_backend, monkeypatch):
        """Walk for walk, the grouped 4 096-lane run equals one group over
        its first 512 lanes (≈1 M cells, so four groups under the default
        budget), whose counters equal the grouped 512-lane run's."""
        from repro.engines import batch

        engine = self._engine(kernel_backend)
        grouped, _ = self._walk(engine, self.LANES)
        grouped_512, counters = self._walk(engine, 512)
        monkeypatch.setattr(batch, "BETA_FALLBACK_CELLS", 2**62)
        one_group, one_group_counters = self._walk(engine, 512)
        assert counters == one_group_counters
        for got in (grouped, grouped_512):
            assert np.array_equal(got.lengths[:512], one_group.lengths)
            assert np.array_equal(got.hop_vertex[:512, :4],
                                  one_group.hop_vertex[:, :4])
            assert np.array_equal(got.hop_time[:512, :4],
                                  one_group.hop_time[:, :4])


class TestHeldArrays:
    """The walk engines hold only what the walk reads: the frontier kernel
    derives each binary decomposition from the bits of the candidate size,
    so no batch engine builds the auxiliary index or keeps the static
    weights, and the graph keeps one exact candidate search (no negated
    copy of ``etime``). Only the scalar HPAT step reads the index."""

    @staticmethod
    def _engines(graph):
        from repro.gnn import TemporalNeighborSampler

        batch = BatchTeaEngine(graph, exponential_walk(scale=20.0))
        yield "batch", batch
        yield "n2v-sibling", batch.with_spec(temporal_node2vec(scale=20.0))
        yield "ooc", BatchTeaOutOfCoreEngine(graph, linear_walk(), trunk_size=4)
        for backend in ("thread", "process"):
            yield backend, ParallelBatchTeaEngine(
                graph, exponential_walk(scale=20.0), workers=2,
                backend=backend)
        yield "gnn", TemporalNeighborSampler(graph, recency_scale=20.0, seed=0)

    def test_no_aux_index_weights_or_negated_times(self, small_graph):
        workload = Workload(max_length=6, max_walks=64)
        for name, engine in self._engines(small_graph):
            if hasattr(engine, "run"):
                engine.run(workload, seed=0)
                index = engine.index
            else:
                engine.sample_neighbors([0, 1], [150.0, 150.0], k=3)
                index = engine._index
            assert getattr(index, "aux", None) is None, name
            assert not hasattr(engine, "weights"), name
            if hasattr(engine, "close"):
                engine.close()
        assert not hasattr(small_graph, "_neg_etime")

    def test_only_the_scalar_hpat_step_builds_the_aux_index(self, small_graph):
        spec = temporal_node2vec(p=0.5, q=2.0, scale=20.0)
        probes = {}
        for use_aux_index in (True, False):
            engine = TeaEngine(small_graph, spec, use_aux_index=use_aux_index)
            result = engine.run(Workload(max_length=20, max_walks=200), seed=3,
                                record_paths=False)
            assert (engine.index.aux is not None) == use_aux_index
            probes[use_aux_index] = result.counters.binary_search_probes
        # Figure 11's "hpat+index" configuration still saves trunk finding.
        assert probes[True] < probes[False]

    def test_scalar_engines_build_the_search_in_prepare(self, small_graph):
        """GraphWalker, KnightKing and CTDNE count candidates per step: the
        graph's search caches are built (one ``np.unique``) in ``prepare``
        and are what the walk then probes."""
        from repro.engines import CtdneEngine, GraphWalkerEngine, KnightKingEngine
        from repro.graph.temporal_graph import TemporalGraph

        for cls in (GraphWalkerEngine, KnightKingEngine, CtdneEngine):
            g = TemporalGraph(small_graph.indptr, small_graph.nbr, small_graph.etime)
            engine = cls(g, exponential_walk(scale=20.0))
            engine.prepare()
            keys, times = g._keys_cache, g._distinct_times
            assert keys is not None and times is not None, cls.__name__
            assert times.size == keys[1]
            rows = engine.memory_report().components
            assert rows["graph_offset_keys"] == keys[0].nbytes
            assert rows["graph_distinct_times"] == times.nbytes
            engine.run(Workload(max_length=6, max_walks=32), seed=0)
            assert g._keys_cache is keys and g._distinct_times is times

    def test_memory_report_counts_every_graph_cache(self, small_graph):
        engine = BatchTeaEngine(small_graph, temporal_node2vec(scale=20.0))
        engine.prepare()
        g = engine.graph
        g.candidate_count(0, 100.0)  # builds the distinct times
        rows = engine.memory_report().components
        assert rows["graph_csr"] == g.nbytes()
        assert rows["graph_offset_keys"] == g._offset_keys()[0].nbytes
        assert rows["graph_distinct_times"] == g._distinct_times.nbytes
        assert rows["graph_static_keys"] == g.static_keys().nbytes
        assert rows["candidate_index"] == engine.candidate_sizes.nbytes
