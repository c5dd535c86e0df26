"""User edge weights: δ(e) = w_e · f(t_e) across the whole stack."""

import numpy as np
import pytest

from repro.core.weights import WeightModel
from repro.engines import (
    CtdneEngine,
    GraphWalkerEngine,
    KnightKingEngine,
    TeaEngine,
    Workload,
)
from repro.engines.batch import BatchTeaEngine
from repro.exceptions import GraphFormatError, NotSupportedError
from repro.graph import io as graph_io
from repro.graph.edge_stream import EdgeStream
from repro.graph.temporal_graph import TemporalGraph
from repro.rng import make_rng
from repro.sampling.counters import CostCounters
from repro.walks.apps import exponential_walk, unbiased_walk
from tests.conftest import chisquare_ok


def weighted_star(weights):
    """Vertex 0 → i+1 at time i, with the given user weights."""
    n = len(weights)
    stream = EdgeStream(
        [0] * n, list(range(1, n + 1)), [float(i) for i in range(n)],
        weight=weights,
    )
    return TemporalGraph.from_stream(stream)


class TestEdgeStreamWeights:
    def test_sorted_with_edges(self):
        stream = EdgeStream([0, 0], [1, 2], [5.0, 1.0], weight=[10.0, 20.0])
        assert list(stream.time) == [1.0, 5.0]
        assert list(stream.weight) == [20.0, 10.0]  # permuted with the sort

    def test_validation(self):
        with pytest.raises(GraphFormatError):
            EdgeStream([0], [1], [1.0], weight=[1.0, 2.0])
        with pytest.raises(GraphFormatError):
            EdgeStream([0], [1], [1.0], weight=[0.0])
        with pytest.raises(GraphFormatError):
            EdgeStream([0], [1], [1.0], weight=[float("nan")])

    def test_slice_interval_concat_carry_weights(self):
        stream = EdgeStream.from_edges(
            [(0, 1, float(t), float(t + 1)) for t in range(10)]
        )
        assert stream.weight is not None
        sub = stream.interval(2, 5)
        assert list(sub.weight) == [3.0, 4.0, 5.0, 6.0]
        merged = sub.concat(EdgeStream([0], [1], [99.0]))
        assert merged.weight is not None
        assert merged.weight[-1] == 1.0  # unweighted side defaults to ones

    def test_equality_includes_weights(self):
        a = EdgeStream([0], [1], [1.0], weight=[2.0])
        b = EdgeStream([0], [1], [1.0], weight=[3.0])
        c = EdgeStream([0], [1], [1.0])
        assert a != b
        assert a != c


class TestGraphCarriesWeights:
    def test_csr_alignment(self):
        graph = weighted_star([1.0, 2.0, 3.0, 4.0])
        # Time-descending adjacency: newest edge (t=3, w=4) first.
        assert list(graph.eweight) == [4.0, 3.0, 2.0, 1.0]
        assert graph.to_stream().weight is not None

    def test_weight_model_multiplies(self):
        graph = weighted_star([1.0, 2.0, 3.0, 4.0])
        w = WeightModel("uniform").compute(graph)
        assert list(w) == [4.0, 3.0, 2.0, 1.0]
        w = WeightModel("linear_rank").compute(graph)
        assert list(w) == [4 * 4.0, 3 * 3.0, 2 * 2.0, 1 * 1.0]


class TestEnginesHonorWeights:
    """Every engine's first-step distribution ∝ w_e · f(t_e)."""

    @pytest.mark.parametrize("factory", [
        lambda g, s: TeaEngine(g, s),
        lambda g, s: TeaEngine(g, s, structure="pat"),
        lambda g, s: BatchTeaEngine(g, s),
        lambda g, s: GraphWalkerEngine(g, s),
        lambda g, s: KnightKingEngine(g, s),
        lambda g, s: CtdneEngine(g, s),
    ], ids=["tea", "tea-pat", "tea-batch", "graphwalker", "knightking", "ctdne"])
    @pytest.mark.parametrize("spec_fn", [unbiased_walk,
                                         lambda: exponential_walk(scale=5.0)],
                             ids=["uniform", "exponential"])
    def test_first_step_distribution(self, factory, spec_fn):
        user_w = [1.0, 5.0, 1.0, 10.0, 1.0, 2.0, 4.0, 1.0]
        graph = weighted_star(user_w)
        spec = spec_fn()
        engine = factory(graph, spec)
        engine.prepare()
        expected = spec.weight_model.compute(graph)[:8]
        probs = expected / expected.sum()
        rng = make_rng(0)
        counts = np.zeros(8)
        counters = CostCounters()
        for _ in range(15000):
            counts[engine.sample_edge(0, 8, None, rng, counters)] += 1
        assert chisquare_ok(counts, probs)

    def test_weighted_walks_end_to_end(self):
        user_w = [1.0, 50.0, 1.0]
        graph = weighted_star(user_w)
        engine = TeaEngine(graph, unbiased_walk())
        result = engine.run(
            Workload(walks_per_vertex=3000, max_length=1, start_vertices=[0]),
            seed=0,
        )
        # Newest edge has user weight 1; the w=50 edge (middle time)
        # dominates despite uniform temporal weights.
        first = [p.vertices[1] for p in result.paths if p.num_edges]
        share = sum(1 for v in first if v == 2) / len(first)
        assert share > 0.85  # 50/52 ≈ 0.96 exactly


class TestWeightedIO:
    def test_text_roundtrip(self, tmp_path):
        stream = EdgeStream.from_edges(
            [(0, 1, 1.5, 2.25), (1, 2, 3.0, 0.5)]
        )
        path = tmp_path / "weighted.txt"
        graph_io.save_edge_list(stream, path)
        loaded = graph_io.load_edge_list(path)
        assert loaded == stream

    def test_mixed_weight_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1 1.0 2.0\n1 2 2.0\n")
        with pytest.raises(GraphFormatError, match="not all"):
            graph_io.load_edge_list(path)


class TestStreamingGuard:
    def test_incremental_rejects_weighted_batches(self):
        from repro.core.incremental import IncrementalHPAT

        inc = IncrementalHPAT(WeightModel("uniform"))
        batch = EdgeStream([0], [1], [1.0], weight=[2.0])
        with pytest.raises(NotSupportedError, match="edge weights"):
            inc.apply_batch(batch)
