"""Adversarial graph shapes: degenerate structures must stay correct."""

import numpy as np
import pytest

from repro.core.builder import build_pat
from repro.core.weights import WeightModel
from repro.engines import BatchTeaEngine, TeaEngine, Workload
from repro.graph.edge_stream import EdgeStream
from repro.graph.temporal_graph import TemporalGraph
from repro.graph.validate import is_temporal_path
from repro.rng import make_rng
from repro.walks.apps import exponential_walk, unbiased_walk
from tests.conftest import build_hpat_with_aux, chisquare_ok


class TestAllEqualTimestamps:
    """Every edge at the same instant: no walk may take two steps."""

    @pytest.fixture
    def graph(self):
        rng = np.random.default_rng(0)
        src = rng.integers(0, 20, 300)
        dst = rng.integers(0, 20, 300)
        return TemporalGraph.from_stream(
            EdgeStream(src, dst, np.full(300, 7.0))
        )

    def test_walks_have_at_most_one_edge(self, graph):
        for cls in (TeaEngine, BatchTeaEngine):
            result = cls(graph, unbiased_walk()).run(
                Workload(max_length=10), seed=0
            )
            assert all(p.num_edges <= 1 for p in result.paths)

    def test_candidate_counts_zero_after_arrival(self, graph):
        sizes = graph.candidate_counts_per_edge()
        assert np.all(sizes == 0)

    def test_structures_build(self, graph):
        weights = WeightModel("exponential", scale=1.0).compute(graph)
        hpat = build_hpat_with_aux(graph, weights)
        v = int(np.argmax(graph.degrees()))
        d = graph.out_degree(v)
        rng = make_rng(0)
        # Full-degree sampling (first hop) is uniform: equal times ⇒
        # equal exponential weights.
        counts = np.zeros(d)
        for _ in range(8000):
            counts[hpat.sample(v, d, rng)] += 1
        assert chisquare_ok(counts, np.full(d, 1 / d))


class TestSingleGiantHub:
    def test_power_of_two_degrees(self):
        """Degrees exactly at powers of two exercise layout boundaries."""
        for d in (1, 2, 4, 255, 256, 257):
            graph = TemporalGraph.from_edges(
                [(0, i % 7 + 1, float(i)) for i in range(d)], num_vertices=8
            )
            weights = WeightModel("linear_rank").compute(graph)
            hpat = build_hpat_with_aux(graph, weights)
            pat = build_pat(graph, weights)
            rng = make_rng(d)
            for s in {1, d // 2, d - 1, d}:
                if s < 1:
                    continue
                for idx in (hpat.sample(0, s, rng), hpat.sample(0, s, rng, use_index=False),
                            pat.sample(0, s, rng)):
                    assert 0 <= idx < s, (d, s)

    def test_hub_walks_stay_valid(self):
        edges = [(0, 1, float(i)) for i in range(500)]
        edges += [(1, 0, float(i) + 0.5) for i in range(500)]
        graph = TemporalGraph.from_edges(edges)
        result = TeaEngine(graph, exponential_walk(scale=100.0)).run(
            Workload(max_length=50, walks_per_vertex=5), seed=1
        )
        for path in result.paths:
            assert is_temporal_path(graph, path.hops)


class TestDuplicateEdges:
    """Repeated (u, v) pairs at many times are first-class citizens."""

    def test_mass_splits_across_duplicates(self):
        # 0 -> 1 three times, 0 -> 2 once; uniform weights.
        graph = TemporalGraph.from_edges(
            [(0, 1, 1.0), (0, 1, 2.0), (0, 1, 3.0), (0, 2, 4.0)]
        )
        engine = TeaEngine(graph, unbiased_walk())
        result = engine.run(
            Workload(walks_per_vertex=8000, max_length=1, start_vertices=[0]),
            seed=0,
        )
        firsts = [p.vertices[1] for p in result.paths if p.num_edges]
        share_1 = sum(1 for v in firsts if v == 1) / len(firsts)
        assert share_1 == pytest.approx(0.75, abs=0.02)


class TestLongChain:
    def test_walk_traverses_entire_chain(self):
        n = 300
        graph = TemporalGraph.from_edges(
            [(i, i + 1, float(i)) for i in range(n)]
        )
        for cls in (TeaEngine, BatchTeaEngine):
            result = cls(graph, unbiased_walk()).run(
                Workload(max_length=n + 10, start_vertices=[0]), seed=0
            )
            assert result.paths[0].num_edges == n
            assert result.paths[0].vertices[-1] == n

    def test_chain_candidate_sizes(self):
        graph = TemporalGraph.from_edges(
            [(i, i + 1, float(i)) for i in range(50)]
        )
        sizes = graph.candidate_counts_per_edge()
        # Arriving at vertex i+1 at time i, its single out-edge at time
        # i+1 is a candidate — except at the chain's end.
        assert np.all(np.sort(sizes)[::-1][:-1] == 1)


class TestManyIsolatedVertices:
    def test_sparse_activity_in_large_id_space(self):
        graph = TemporalGraph.from_edges(
            [(10_000, 99_999, 1.0), (99_999, 5, 2.0)], num_vertices=100_000
        )
        result = TeaEngine(graph, unbiased_walk()).run(
            Workload(start_vertices=[10_000], max_length=5), seed=0
        )
        assert result.paths[0].vertices == [10_000, 99_999, 5]
        # Index memory stays proportional to edges, not the id space.
        assert graph.num_edges == 2
