"""Parallel construction pipeline (Section 4.2)."""

import numpy as np
import pytest

from repro.core.builder import (
    ConstructionReport,
    Preprocessed,
    build_hpat,
    build_pat,
    build_prefix_array,
    preprocess,
    search_candidate_sets,
)
from repro.core.weights import WeightModel
from repro.rng import make_rng
from tests.conftest import chisquare_ok


class TestCandidateSearch:
    def test_matches_graph_method(self, small_graph):
        assert np.array_equal(
            search_candidate_sets(small_graph),
            small_graph.candidate_counts_per_edge(),
        )

    def test_parallel_matches_serial(self, medium_graph):
        serial = search_candidate_sets(medium_graph, workers=1)
        parallel = search_candidate_sets(medium_graph, workers=4)
        assert np.array_equal(serial, parallel)

    def test_empty_graph(self):
        from repro.graph.edge_stream import EdgeStream
        from repro.graph.temporal_graph import TemporalGraph

        graph = TemporalGraph.from_stream(EdgeStream.empty(), num_vertices=2)
        assert search_candidate_sets(graph).size == 0


class TestPrefixArray:
    def test_layout(self, toy_graph):
        weights = WeightModel("linear_rank").compute(toy_graph)
        c = build_prefix_array(toy_graph, weights)
        assert c.size == toy_graph.num_edges + toy_graph.num_vertices
        # Vertex 7's segment: leading 0 then cumsum of 7..1.
        base = toy_graph.indptr[7] + 7
        assert c[base] == 0.0
        assert c[base + 7] == 28.0

    def test_parallel_matches_serial(self, medium_graph):
        weights = WeightModel("exponential", scale=10.0).compute(medium_graph)
        a = build_prefix_array(medium_graph, weights, workers=1)
        b = build_prefix_array(medium_graph, weights, workers=4)
        assert np.array_equal(a, b)

    def test_precision_with_tiny_weights(self, medium_graph):
        """Per-segment cumsum keeps relative precision for exp weights."""
        weights = WeightModel("exponential", scale=5.0).compute(medium_graph)
        c = build_prefix_array(medium_graph, weights)
        v = int(np.argmax(medium_graph.degrees()))
        lo = medium_graph.indptr[v]
        base = lo + v
        d = medium_graph.out_degree(v)
        exact = np.concatenate([[0.0], np.cumsum(weights[lo : lo + d])])
        assert np.allclose(c[base : base + d + 1], exact, rtol=1e-12)


class TestParallelEquivalence:
    def test_hpat_parallel_matches_serial(self, medium_graph):
        weights = WeightModel("linear_rank").compute(medium_graph)
        h1 = build_hpat(medium_graph, weights, workers=1)
        h4 = build_hpat(medium_graph, weights, workers=4)
        assert np.array_equal(h1.prob, h4.prob)
        assert np.array_equal(h1.alias, h4.alias)
        assert np.array_equal(h1.c, h4.c)

    def test_pat_parallel_matches_serial(self, medium_graph):
        weights = WeightModel("linear_rank").compute(medium_graph)
        p1 = build_pat(medium_graph, weights, workers=1)
        p4 = build_pat(medium_graph, weights, workers=4)
        assert np.array_equal(p1.prob, p4.prob)
        assert np.array_equal(p1.alias, p4.alias)


class TestPreprocess:
    @pytest.mark.parametrize("structure", ["hpat", "pat", "its"])
    def test_structures(self, small_graph, structure):
        pre = preprocess(small_graph, WeightModel("uniform"), structure=structure)
        assert isinstance(pre, Preprocessed)
        assert pre.candidate_sizes.size == small_graph.num_edges
        rng = make_rng(0)
        v = int(np.argmax(small_graph.degrees()))
        idx = pre.index.sample(v, small_graph.out_degree(v), rng)
        assert 0 <= idx < small_graph.out_degree(v)

    def test_unknown_structure(self, small_graph):
        with pytest.raises(ValueError):
            preprocess(small_graph, WeightModel("uniform"), structure="nope")

    def test_report_phases_recorded(self, small_graph):
        pre = preprocess(small_graph, WeightModel("uniform"), with_aux_index=True)
        report = pre.report
        assert report.total_seconds > 0
        assert pre.index.aux is not None
        assert report.aux_index_seconds > 0
        snap = report.snapshot()
        assert {"candidate_search_s", "index_build_s", "aux_index_s"} <= set(snap)

    def test_aux_skipped_when_disabled(self, small_graph):
        pre = preprocess(
            small_graph, WeightModel("uniform"), with_aux_index=False
        )
        assert pre.index.aux is None
        assert pre.report.aux_index_seconds == 0.0


class TestZeroWeightTrunks:
    def test_zero_weight_edges_never_sampled(self):
        """Edges with zero weight must never be drawn, in any structure."""
        from repro.graph.edge_stream import EdgeStream
        from repro.graph.temporal_graph import TemporalGraph

        # One vertex, 8 edges, half with zero weight (custom weights).
        stream = EdgeStream([0] * 8, list(range(1, 9)), list(range(8)))
        graph = TemporalGraph.from_stream(stream)
        weights = np.array([1.0, 0.0, 2.0, 0.0, 3.0, 0.0, 4.0, 0.0])
        rng = make_rng(0)
        for build in (build_hpat, build_pat):
            index = build(graph, weights)
            draws = {index.sample(0, 8, rng) for _ in range(4000)}
            zero_positions = {1, 3, 5, 7}
            assert not (draws & zero_positions), build.__name__


class TestWeightValidation:
    """Bad weight arrays must fail loudly, not corrupt indices silently."""

    @pytest.mark.parametrize("build", [build_hpat, build_pat])
    def test_negative_weights_rejected(self, toy_graph, build):
        weights = WeightModel("uniform").compute(toy_graph)
        weights[0] = -1.0
        with pytest.raises(ValueError, match="non-negative"):
            build(toy_graph, weights)

    @pytest.mark.parametrize("build", [build_hpat, build_pat])
    def test_nan_weights_rejected(self, toy_graph, build):
        weights = WeightModel("uniform").compute(toy_graph)
        weights[3] = float("nan")
        with pytest.raises(ValueError, match="finite"):
            build(toy_graph, weights)

    @pytest.mark.parametrize("build", [build_hpat, build_pat])
    def test_wrong_length_rejected(self, toy_graph, build):
        with pytest.raises(ValueError, match="one entry per edge"):
            build(toy_graph, np.ones(3))
