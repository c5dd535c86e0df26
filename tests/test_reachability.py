"""Temporal reachability (``examples/network_analysis.py``): exact
earliest arrival vs walk estimates (``examples/commute_network.py``)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from examples.commute_network import walk_reachability_estimate
from examples.network_analysis import (
    earliest_arrival_times,
    temporal_closeness,
    temporal_reachability,
)
from repro.graph.edge_stream import EdgeStream
from repro.graph.generators import toy_commute_graph
from repro.graph.temporal_graph import TemporalGraph


class TestEarliestArrival:
    def test_chain(self):
        graph = TemporalGraph.from_edges([(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)])
        arrival = earliest_arrival_times(graph, 0)
        assert list(arrival) == [-np.inf, 1.0, 2.0, 3.0]

    def test_time_order_blocks_path(self):
        # 1 -> 2 happens BEFORE 0 -> 1, so 2 is unreachable from 0.
        graph = TemporalGraph.from_edges([(0, 1, 5.0), (1, 2, 3.0)])
        arrival = earliest_arrival_times(graph, 0)
        assert arrival[1] == 5.0
        assert arrival[2] == np.inf

    def test_equal_times_blocked(self):
        """Strict increase: consecutive edges at the same time don't chain."""
        graph = TemporalGraph.from_edges([(0, 1, 2.0), (1, 2, 2.0)])
        arrival = earliest_arrival_times(graph, 0)
        assert arrival[2] == np.inf

    def test_earliest_among_alternatives(self):
        graph = TemporalGraph.from_edges(
            [(0, 1, 1.0), (0, 1, 5.0), (1, 2, 3.0)]
        )
        arrival = earliest_arrival_times(graph, 0)
        assert arrival[1] == 1.0
        assert arrival[2] == 3.0  # via the early 0->1

    def test_start_time_constraint(self):
        graph = TemporalGraph.from_edges([(0, 1, 1.0), (0, 2, 5.0)])
        arrival = earliest_arrival_times(graph, 0, start_time=2.0)
        assert arrival[1] == np.inf  # edge at t=1 <= 2 unusable
        assert arrival[2] == 5.0

    def test_toy_graph_matches_paper(self):
        """From vertex 9 (the paper's example), only 9→7→{4,5,6} style
        paths exist; vertex 2 is not temporally reachable."""
        graph = TemporalGraph.from_stream(toy_commute_graph())
        reach = temporal_reachability(graph, 9)
        # 9 -> 7 at t=4 -> then 7's edges with t > 4: vertices 4, 5, 6.
        for v in (9, 7, 4, 5, 6):
            assert reach[v], v
        assert not reach[2]

    def test_source_out_of_range(self):
        graph = TemporalGraph.from_edges([(0, 1, 1.0)])
        with pytest.raises(IndexError):
            earliest_arrival_times(graph, 5)

    def test_source_always_reachable(self):
        graph = TemporalGraph.from_edges([(0, 1, 1.0)], num_vertices=3)
        assert temporal_reachability(graph, 2)[2]


class TestWalkEstimate:
    def test_within_exact_reachability(self, small_graph):
        source = int(np.argmax(small_graph.degrees()))
        exact = temporal_reachability(small_graph, source)
        visits = walk_reachability_estimate(
            small_graph, source, num_walks=300, seed=0
        )
        for v in visits:
            assert exact[v], f"walk visited temporally unreachable vertex {v}"

    def test_source_always_visited(self, small_graph):
        visits = walk_reachability_estimate(small_graph, 0, num_walks=50, seed=1)
        assert visits[0] == 1.0

    def test_validation(self, small_graph):
        with pytest.raises(ValueError):
            walk_reachability_estimate(small_graph, 0, num_walks=0)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=7),
            st.integers(min_value=0, max_value=7),
            st.floats(min_value=0, max_value=50),
        ),
        min_size=1,
        max_size=40,
    ),
    st.integers(min_value=0, max_value=7),
)
def test_earliest_arrival_matches_bruteforce(edges, source):
    """One-pass algorithm ≡ exhaustive temporal-path search (small n)."""
    graph = TemporalGraph.from_stream(
        EdgeStream.from_edges(edges), num_vertices=8
    )
    fast = earliest_arrival_times(graph, source)

    # Brute force: Bellman-Ford-style relaxation until fixpoint.
    slow = np.full(8, np.inf)
    slow[source] = -np.inf
    changed = True
    while changed:
        changed = False
        for u, v, t in edges:
            if t > slow[u] and t < slow[v]:
                slow[v] = t
                changed = True
    assert np.array_equal(fast, slow)


class TestTemporalCloseness:
    def test_chain_ordering(self):
        graph = TemporalGraph.from_edges(
            [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)]
        )
        closeness = temporal_closeness(graph)
        # Earlier chain positions reach more vertices sooner.
        assert closeness[0] > closeness[1] > closeness[2] > closeness[3] == 0.0

    def test_sources_subset(self, small_graph):
        scores = temporal_closeness(small_graph, sources=np.array([0, 1]))
        assert scores.shape == (small_graph.num_vertices,)
        assert np.all(scores[2:] == 0.0)

    def test_empty_graph(self):
        graph = TemporalGraph.from_stream(EdgeStream.empty(), num_vertices=4)
        assert np.all(temporal_closeness(graph) == 0.0)
