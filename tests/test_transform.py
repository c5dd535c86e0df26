"""Graph transforms (``examples/network_analysis.py``)."""

import numpy as np

from examples.network_analysis import (
    induced_subgraph,
    largest_temporal_component,
    reverse,
)
from repro.graph.edge_stream import EdgeStream
from repro.graph.temporal_graph import TemporalGraph
from repro.graph.validate import check_graph


class TestReverse:
    def test_edges_flipped(self, toy_graph):
        rev = reverse(toy_graph)
        assert rev.num_edges == toy_graph.num_edges
        assert check_graph(rev) == []
        # 7 -> 6 @ 7 becomes 6 -> 7 @ 7.
        nbrs, times = rev.neighbors(6)
        assert 7 in nbrs.tolist()

    def test_double_reverse_identity(self, small_graph):
        twice = reverse(reverse(small_graph))
        assert np.array_equal(twice.indptr, small_graph.indptr)
        assert np.array_equal(twice.nbr, small_graph.nbr)
        assert np.array_equal(twice.etime, small_graph.etime)

    def test_degree_swap(self):
        graph = TemporalGraph.from_edges([(0, 1, 1.0), (0, 2, 2.0)])
        rev = reverse(graph)
        assert rev.out_degree(0) == 0
        assert rev.out_degree(1) == 1
        assert rev.out_degree(2) == 1


class TestInducedSubgraph:
    def test_only_internal_edges_kept(self, toy_graph):
        sub = induced_subgraph(toy_graph, [7, 4, 5, 6])
        assert sub.num_vertices == toy_graph.num_vertices  # id space kept
        src = np.repeat(np.arange(sub.num_vertices), np.diff(sub.indptr))
        allowed = {4, 5, 6, 7}
        assert set(src.tolist()) <= allowed
        assert set(sub.nbr.tolist()) <= allowed

    def test_empty_subset(self, toy_graph):
        sub = induced_subgraph(toy_graph, [])
        assert sub.num_edges == 0

    def test_full_subset_identity(self, small_graph):
        sub = induced_subgraph(small_graph, range(small_graph.num_vertices))
        assert sub.num_edges == small_graph.num_edges


class TestLargestComponent:
    def test_disconnected_halves(self):
        # Two temporally connected chains; the bigger one wins.
        edges = [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0),
                 (10, 11, 1.0)]
        graph = TemporalGraph.from_edges(edges, num_vertices=12)
        sub, source, mask = largest_temporal_component(graph)
        assert source == 0
        assert mask.sum() == 4
        assert sub.num_edges == 3

    def test_empty_graph(self):
        graph = TemporalGraph.from_stream(EdgeStream.empty(), num_vertices=3)
        sub, _, mask = largest_temporal_component(graph)
        assert sub.num_edges == 0
        assert mask.sum() == 0
