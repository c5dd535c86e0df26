"""TemporalGraph: CSR layout, candidate sets, static adjacency."""

import numpy as np
import pytest

from repro.exceptions import GraphFormatError
from repro.graph.edge_stream import EdgeStream
from repro.graph.generators import temporal_powerlaw, toy_commute_graph
from repro.graph.temporal_graph import TemporalGraph
from repro.graph.validate import check_graph


class TestLayout:
    def test_toy_graph_shape(self, toy_graph):
        assert toy_graph.num_vertices == 10
        assert toy_graph.num_edges == 18
        assert check_graph(toy_graph) == []

    def test_adjacency_time_descending(self, small_graph):
        for v in range(small_graph.num_vertices):
            _, times = small_graph.neighbors(v)
            assert np.all(times[:-1] >= times[1:]), f"vertex {v} not time-desc"

    def test_vertex7_worked_example(self, toy_graph):
        """Figure 5: vertex 7's neighbors 6..0 at times 7..1."""
        nbrs, times = toy_graph.neighbors(7)
        assert list(nbrs) == [6, 5, 4, 3, 2, 1, 0]
        assert list(times) == [7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]

    def test_degrees_sum_to_edges(self, small_graph):
        assert small_graph.degrees().sum() == small_graph.num_edges

    def test_reserved_isolated_vertices(self):
        stream = EdgeStream.from_edges([(0, 1, 1.0)])
        graph = TemporalGraph.from_stream(stream, num_vertices=10)
        assert graph.num_vertices == 10
        assert graph.out_degree(5) == 0

    def test_vertex_id_out_of_range_rejected(self):
        stream = EdgeStream.from_edges([(0, 9, 1.0)])
        with pytest.raises(GraphFormatError):
            TemporalGraph.from_stream(stream, num_vertices=3)

    def test_edge_at(self, toy_graph):
        v, t = toy_graph.edge_at(7, 0)
        assert (v, t) == (6, 7.0)
        with pytest.raises(IndexError):
            toy_graph.edge_at(7, 99)

    def test_arrays_readonly(self, toy_graph):
        with pytest.raises(ValueError):
            toy_graph.nbr[0] = 3

    def test_ties_keep_stream_order_newest_first(self):
        # Two edges of vertex 0 at the same time: the later stream entry
        # must appear first in the time-descending adjacency.
        stream = EdgeStream([0, 0], [1, 2], [5.0, 5.0], sort=False)
        graph = TemporalGraph.from_stream(stream)
        nbrs, _ = graph.neighbors(0)
        assert list(nbrs) == [2, 1]


class TestCandidateSets:
    def test_paper_candidate_sets(self, toy_graph):
        """The three walked-through arrivals at vertex 7 (Sections 1, 3)."""
        assert toy_graph.candidate_count(7, 0.0) == 7   # from vertex 8
        assert toy_graph.candidate_count(7, 3.0) == 4   # from vertex 0
        assert toy_graph.candidate_count(7, 4.0) == 3   # from vertex 9
        assert toy_graph.candidate_count(7, 7.0) == 0
        assert toy_graph.candidate_count(7, None) == 7

    def test_strict_inequality(self, toy_graph):
        # Edge at exactly t is NOT a candidate (times must increase).
        assert toy_graph.candidate_count(7, 6.99) == 1
        assert toy_graph.candidate_count(7, 7.0) == 0

    def test_candidate_prefix_property(self, small_graph):
        """Γt(v) is exactly the first candidate_count(v, t) adjacency slots."""
        rng = np.random.default_rng(1)
        for _ in range(200):
            v = int(rng.integers(0, small_graph.num_vertices))
            t = float(rng.uniform(0, 200))
            s = small_graph.candidate_count(v, t)
            _, times = small_graph.neighbors(v)
            assert np.all(times[:s] > t)
            assert np.all(times[s:] <= t)

    def test_candidate_counts_per_edge_matches_scalar(self, small_graph):
        per_edge = small_graph.candidate_counts_per_edge()
        for e in range(small_graph.num_edges):
            v = int(small_graph.nbr[e])
            t = float(small_graph.etime[e])
            assert per_edge[e] == small_graph.candidate_count(v, t)

    def test_candidate_counts_empty_graph(self):
        graph = TemporalGraph.from_stream(EdgeStream.empty(), num_vertices=3)
        assert graph.candidate_counts_per_edge().size == 0

    def test_zero_degree_vertex(self, toy_graph):
        # Vertex 6 has no out-edges in the toy graph.
        assert toy_graph.out_degree(6) == 0
        assert toy_graph.candidate_count(6, 0.0) == 0


class TestStaticAdjacency:
    def test_undirected_membership(self, toy_graph):
        assert toy_graph.has_static_edge(7, 6)
        assert toy_graph.has_static_edge(6, 7)  # reverse direction
        assert toy_graph.has_static_edge(8, 7)
        assert not toy_graph.has_static_edge(4, 0)

    def test_static_degree(self, toy_graph):
        # Vertex 7: out to 0..6 plus in from 8, 0, 9 → 9 distinct neighbors.
        assert toy_graph.static_degree(7) == 9

    def test_matches_bruteforce(self, small_graph):
        rng = np.random.default_rng(2)
        src = np.repeat(np.arange(small_graph.num_vertices),
                        np.diff(small_graph.indptr))
        pairs = set(zip(src.tolist(), small_graph.nbr.tolist()))
        undirected = pairs | {(b, a) for a, b in pairs}
        for _ in range(300):
            u = int(rng.integers(0, small_graph.num_vertices))
            v = int(rng.integers(0, small_graph.num_vertices))
            assert small_graph.has_static_edge(u, v) == ((u, v) in undirected)
        assert all(small_graph.static_degree(v) == sum(a == v for a, _ in undirected)
                   for v in range(small_graph.num_vertices))


class TestRoundtrip:
    def test_to_stream_roundtrip(self, toy_graph):
        stream = toy_graph.to_stream()
        rebuilt = TemporalGraph.from_stream(stream)
        assert np.array_equal(rebuilt.indptr, toy_graph.indptr)
        assert np.array_equal(rebuilt.nbr, toy_graph.nbr)
        assert np.array_equal(rebuilt.etime, toy_graph.etime)

    def test_to_stream_without_retained_stream(self, toy_graph):
        clone = TemporalGraph(toy_graph.indptr, toy_graph.nbr, toy_graph.etime)
        stream = clone.to_stream()
        assert len(stream) == toy_graph.num_edges
        assert stream.is_time_sorted()

    def test_nbytes_positive(self, toy_graph):
        assert toy_graph.nbytes() > 0

    def test_repr(self, toy_graph):
        assert "TemporalGraph" in repr(toy_graph)


class TestCandidateCountsBatch:
    def test_matches_scalar(self, small_graph):
        rng = np.random.default_rng(5)
        vs = rng.integers(0, small_graph.num_vertices, size=300)
        ts = rng.uniform(-50, 250, size=300)
        batch = small_graph.candidate_counts_batch(vs, ts)
        for v, t, c in zip(vs, ts, batch):
            assert c == small_graph.candidate_count(int(v), float(t))

    def test_saturation_outside_time_range(self, small_graph):
        tmax = float(small_graph.etime.max())
        tmin = float(small_graph.etime.min())
        vs = np.arange(small_graph.num_vertices)
        after = small_graph.candidate_counts_batch(vs, np.full(vs.size, tmax + 1e6))
        before = small_graph.candidate_counts_batch(vs, np.full(vs.size, tmin - 1e6))
        assert np.all(after == 0)
        assert np.array_equal(before, small_graph.degrees())

    def test_empty_graph(self):
        graph = TemporalGraph.from_stream(EdgeStream.empty(), num_vertices=3)
        assert np.array_equal(
            graph.candidate_counts_batch([0, 1], [1.0, 2.0]), [0, 0]
        )

    def test_times_closer_than_the_key_spacing_stay_distinct(self):
        """Regression: batched counts used float keys ``time + v·span``,
        and at a million vertices the spacing of those floats swallowed
        times 10⁻⁴ apart, so the hub's two newer edges counted as zero
        and every engine stopped its walk there."""
        from repro.core.builder import search_candidate_sets
        from repro.engines import BatchTeaEngine, TeaEngine, Workload
        from repro.walks.apps import unbiased_walk

        hub = 10**6 - 1
        graph = TemporalGraph.from_edges(
            [(0, hub, 1000.0), (hub, 3, 1000.0001), (hub, 4, 1000.0002),
             (5, 6, 1e6)], num_vertices=10**6)
        assert graph.candidate_count(hub, 1000.0) == 2
        assert graph.candidate_counts_batch([hub, hub], [1000.0, 1000.0001]).tolist() \
            == [2, 1]
        want = [graph.candidate_count(int(v), float(t))
                for v, t in zip(graph.nbr, graph.etime)]
        assert graph.candidate_counts_per_edge().tolist() == want
        assert search_candidate_sets(graph, workers=3).tolist() == want
        for engine in (TeaEngine(graph, unbiased_walk()),
                       BatchTeaEngine(graph, unbiased_walk())):
            walk = engine.run(Workload(start_vertices=[0]), seed=0).paths[0]
            assert walk.num_edges == 2, engine.name
