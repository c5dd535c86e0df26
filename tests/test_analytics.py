"""Temporal analytics atop TEA (``examples/temporal_pagerank.py``):
PageRank, SimRank, meta-path walks."""

import numpy as np
import pytest

from examples.temporal_pagerank import (
    MetapathWalker,
    temporal_metapath_walks,
    temporal_pagerank,
    temporal_simrank,
)
from repro.engines.tea import TeaEngine
from repro.exceptions import GraphFormatError
from repro.graph.generators import temporal_bipartite, temporal_powerlaw
from repro.graph.temporal_graph import TemporalGraph
from repro.walks.apps import exponential_walk, temporal_node2vec, unbiased_walk


@pytest.fixture(scope="module")
def graph():
    return TemporalGraph.from_stream(
        temporal_powerlaw(60, 2000, alpha=0.9, time_horizon=150.0, seed=3)
    )


class TestTemporalPagerank:
    def test_distribution_properties(self, graph):
        scores = temporal_pagerank(graph, num_walks=800, seed=0)
        assert scores.shape == (graph.num_vertices,)
        assert scores.sum() == pytest.approx(1.0)
        assert np.all(scores >= 0)

    def test_personalized_mass_near_source(self, graph):
        source = int(np.argmax(graph.degrees()))
        scores = temporal_pagerank(graph, sources=[source], num_walks=800, seed=1)
        assert scores[source] > 1.0 / graph.num_vertices

    def test_deterministic_given_seed(self, graph):
        a = temporal_pagerank(graph, num_walks=300, seed=7)
        b = temporal_pagerank(graph, num_walks=300, seed=7)
        assert np.array_equal(a, b)

    def test_respects_temporal_reachability(self):
        # 0 -> 1 at t=5, 1 -> 2 at t=3 (< 5): 2 unreachable from 0.
        g = TemporalGraph.from_edges([(0, 1, 5.0), (1, 2, 3.0)])
        scores = temporal_pagerank(g, sources=[0], num_walks=500, seed=0)
        assert scores[2] == 0.0
        assert scores[1] > 0.0

    def test_engine_reuse(self, graph):
        spec = exponential_walk()
        engine = TeaEngine(graph, spec)
        a = temporal_pagerank(graph, spec=spec, engine=engine, num_walks=200, seed=2)
        assert a.sum() == pytest.approx(1.0)

    def test_parameter_validation(self, graph):
        with pytest.raises(ValueError):
            temporal_pagerank(graph, alpha=0.0)
        with pytest.raises(ValueError):
            temporal_pagerank(graph, num_walks=0)
        with pytest.raises(ValueError):
            temporal_pagerank(graph, sources=[])
        with pytest.raises(ValueError):
            temporal_pagerank(graph, spec=temporal_node2vec())


class TestTemporalSimrank:
    def test_identity(self, graph):
        assert temporal_simrank(graph, 3, 3) == 1.0

    def test_range(self, graph):
        hubs = np.argsort(graph.degrees())[::-1][:2]
        s = temporal_simrank(graph, int(hubs[0]), int(hubs[1]), num_pairs=200, seed=0)
        assert 0.0 <= s <= 1.0

    def test_disconnected_pair_zero(self):
        g = TemporalGraph.from_edges(
            [(0, 1, 1.0), (2, 3, 1.0)], num_vertices=4
        )
        assert temporal_simrank(g, 0, 2, num_pairs=100, seed=0) == 0.0

    def test_converging_pair_positive(self):
        # Both 0 and 1 always hop to 2 — they meet after one step.
        g = TemporalGraph.from_edges([(0, 2, 1.0), (1, 2, 1.0), (2, 3, 5.0)])
        s = temporal_simrank(g, 0, 1, decay=0.5, num_pairs=200, seed=0)
        assert s == pytest.approx(0.5)  # meet at k=1 with certainty

    def test_decay_validation(self, graph):
        with pytest.raises(ValueError):
            temporal_simrank(graph, 0, 1, decay=1.5)


class TestMetapath:
    @pytest.fixture(scope="class")
    def bipartite(self):
        stream = temporal_bipartite(12, 6, 600, seed=4)
        graph = TemporalGraph.from_stream(stream)
        types = np.zeros(graph.num_vertices, dtype=int)
        types[12:] = 1
        return graph, types

    def test_walks_alternate_types(self, bipartite):
        graph, types = bipartite
        paths = temporal_metapath_walks(
            graph, types, [0, 1, 0], starts=range(8), num_cycles=3,
            spec=unbiased_walk(), seed=0,
        )
        assert len(paths) == 8
        for path in paths:
            for (v1, _), (v2, _) in zip(path.hops, path.hops[1:]):
                assert types[v1] != types[v2]

    def test_walks_are_temporal(self, bipartite):
        graph, types = bipartite
        paths = temporal_metapath_walks(
            graph, types, [0, 1, 0], starts=range(8), num_cycles=3,
            spec=unbiased_walk(), seed=1,
        )
        for path in paths:
            times = [t for _, t in path.hops if t is not None]
            assert times == sorted(times)
            assert len(set(times)) == len(times)

    def test_start_type_checked(self, bipartite):
        graph, types = bipartite
        walker = MetapathWalker(graph, types, [0, 1, 0], spec=unbiased_walk())
        with pytest.raises(ValueError, match="type"):
            walker.walk(12, 1, np.random.default_rng(0))  # an item vertex

    def test_noncyclic_pattern_rejected(self, bipartite):
        graph, types = bipartite
        with pytest.raises(ValueError, match="cyclic"):
            MetapathWalker(graph, types, [0, 1], spec=unbiased_walk())

    def test_types_length_checked(self, bipartite):
        graph, _ = bipartite
        with pytest.raises(GraphFormatError):
            MetapathWalker(graph, [0, 1], [0, 1, 0])

    def test_fallback_when_type_rare(self):
        # Vertex 0 has 63 edges to type-1 vertices and 1 to a type-0
        # vertex; the rejection loop will usually need the exact fallback.
        edges = [(0, i + 1, float(i)) for i in range(63)] + [(0, 100, 63.0),
                                                             (100, 0, 64.0)]
        graph = TemporalGraph.from_edges(edges)
        types = np.ones(graph.num_vertices, dtype=int)
        types[0] = 0
        types[100] = 0
        walker = MetapathWalker(graph, types, [0, 0, 0], spec=unbiased_walk())
        path = walker.walk(0, 1, np.random.default_rng(0))
        # The only type-0 successor is vertex 100.
        assert path.vertices[:2] == [0, 100]

    def test_dead_end_terminates(self, bipartite):
        graph, types = bipartite
        walker = MetapathWalker(graph, types, [0, 1, 0], spec=unbiased_walk())
        path = walker.walk(0, num_cycles=50, rng=np.random.default_rng(3))
        assert path.num_edges <= 100  # ended by temporal exhaustion
