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
    """A round holds one :data:`~repro.engines.batch.FRONTIER_LANES`-lane
    slice of lane state at a time, not a column per walk of the request.
    Counted by ``tracemalloc``, so the bound holds on any machine."""

    #: Peak bytes a ``record_paths=False`` round may allocate per walk:
    #: its starts, seeds and lengths (24 B) plus one slice's lane state
    #: spread over every walk. One frontier over every lane reads ≈81.
    BYTES_PER_LANE = 40

    def test_round_peak_is_one_slice_of_lane_state(self, monkeypatch):
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
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = engine.run(workload, seed=1, record_paths=False)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        walks = graph.num_vertices * 120
        walk = next(s for s in result.trace.roots if s.name == "walk")
        assert walk.attributes["chunks"] == -(-walks // 4096) > 20
        assert result.total_steps > walks
        assert peak / walks <= self.BYTES_PER_LANE, peak / walks


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
