"""End-to-end integration scenarios across subsystem boundaries."""

import numpy as np
import pytest

from examples.link_prediction import train_sgns
from examples.moderation_pipeline import MutableTeaEngine
from repro import (
    StreamingTeaEngine,
    TeaEngine,
    TemporalGraph,
    Workload,
    exponential_walk,
    load_dataset,
    temporal_node2vec,
    unbiased_walk,
)
from repro.engines import BatchTeaEngine
from repro.graph import io as graph_io
from repro.graph.generators import temporal_powerlaw
from repro.graph.validate import is_temporal_path
from repro.walks.sink import WalkSink, read_walks
from tests.stream_oracle import ScalarReader


class TestFullPipeline:
    """generate → persist → reload → preprocess → walk → sink → embed."""

    def test_pipeline(self, tmp_path):
        stream = temporal_powerlaw(60, 1500, alpha=0.9, time_horizon=200.0, seed=11)
        edge_file = tmp_path / "graph.tegb"
        graph_io.save_binary(stream, edge_file)
        graph = TemporalGraph.from_stream(graph_io.load_auto(edge_file))

        corpus_file = tmp_path / "corpus.twalks"
        engine = BatchTeaEngine(graph, exponential_walk(scale=40.0))
        with WalkSink(corpus_file, flush_threshold=16) as sink:
            result = engine.run(
                Workload(walks_per_vertex=3, max_length=8), seed=0,
                record_paths=False, sink=sink,
            )
        assert result.total_steps > 0

        corpus = list(read_walks(corpus_file))
        assert len(corpus) == 3 * graph.num_vertices
        for walk in corpus[:50]:
            assert is_temporal_path(graph, walk.hops)

        emb = train_sgns(corpus, num_vertices=graph.num_vertices, dim=16,
                         epochs=2, seed=1)
        assert np.isfinite(emb.vectors).all()
        top = emb.most_similar(int(np.argmax(graph.degrees())), k=3)
        assert len(top) == 3


class TestStreamingThenStatic:
    """A stream ingested incrementally equals the same stream built statically."""

    def test_candidate_counts_agree_at_every_batch(self):
        stream = temporal_powerlaw(30, 600, alpha=0.8, time_horizon=100.0, seed=12)
        engine = StreamingTeaEngine(unbiased_walk())
        seen = 0
        for batch in stream.batches(150):
            engine.apply_batch(batch)
            seen += len(batch)
            snapshot = TemporalGraph.from_stream(stream[:seen])
            reader = ScalarReader.of(engine)
            for v in range(snapshot.num_vertices):
                for t in (None, 25.0, 75.0):
                    assert reader.candidate_count(v, t) == \
                        snapshot.candidate_count(v, t), (v, t, seen)


class TestDeletionChurnWithWalks:
    """Interleaved deletes and walks stay consistent over many rounds."""

    def test_rounds(self, small_graph):
        engine = MutableTeaEngine(small_graph, exponential_walk(scale=30.0),
                                  rebuild_threshold=0.3)
        engine.prepare()
        rng = np.random.default_rng(0)
        deleted = set()
        for round_idx in range(5):
            for _ in range(30):
                v = int(rng.integers(0, small_graph.num_vertices))
                d = small_graph.out_degree(v)
                if d:
                    position = int(rng.integers(0, d))
                    engine.index.delete_position(v, position)
                    deleted.add((v, position))
            result = engine.run(Workload(max_length=8, max_walks=20),
                                seed=round_idx)
            for path in result.paths:
                assert is_temporal_path(engine.graph, path.hops)
        assert engine.deletion_stats.deletions == len(deleted)


class TestScaledDatasetsMatchPaperShape:
    """Analogue datasets preserve the relative structure of Table 3."""

    def test_density_ordering(self):
        graphs = {name: load_dataset(name, seed=0, scale=0.2)
                  for name in ("growth", "edit", "delicious", "twitter")}
        means = {n: g.mean_degree() for n, g in graphs.items()}
        # Table 3 ordering of mean degree: edit < growth < delicious < twitter.
        assert means["edit"] < means["growth"] < means["delicious"] < means["twitter"]

    def test_skew_present(self):
        graph = load_dataset("twitter", seed=0, scale=0.2)
        assert graph.max_degree() > 20 * graph.mean_degree()


class TestCrossEngineSeededConsistency:
    """Engines on identical restricted windows see identical subgraphs."""

    def test_time_window_consistency(self, medium_graph):
        spec = unbiased_walk(time_window=(100.0, 400.0))
        engines = [
            TeaEngine(medium_graph, spec),
            BatchTeaEngine(medium_graph, spec),
            MutableTeaEngine(medium_graph, spec),
        ]
        edge_counts = {e.graph.num_edges for e in engines}
        assert len(edge_counts) == 1
        for engine in engines:
            assert engine.graph.etime.min() >= 100.0
            assert engine.graph.etime.max() <= 400.0
