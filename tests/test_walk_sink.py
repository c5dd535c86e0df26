"""Walk sinks: flush policy, formats, round-trips, engine integration."""

import numpy as np
import pytest

from repro.engines import BatchTeaEngine, TeaEngine, Workload
from repro.exceptions import GraphFormatError
from repro.walks.apps import unbiased_walk
from repro.walks.sink import DEFAULT_FLUSH_THRESHOLD, WalkSink, read_walks
from repro.walks.walker import WalkPath


def make_walk(*vertices):
    hops = [(vertices[0], None)]
    hops.extend((v, float(i + 1)) for i, v in enumerate(vertices[1:]))
    return WalkPath(hops=hops)


class TestFlushPolicy:
    def test_default_threshold_is_papers_1024(self):
        assert DEFAULT_FLUSH_THRESHOLD == 1024

    def test_flush_at_threshold(self, tmp_path):
        with WalkSink(tmp_path / "w.txt", flush_threshold=4) as sink:
            for i in range(10):
                sink.append(make_walk(i, i + 1))
            # 10 walks, threshold 4 → two automatic flushes so far.
            assert sink.flushes == 2
            assert sink.walks_written == 8
        assert sink.walks_written == 10  # close() flushes the remainder

    def test_append_requires_open(self, tmp_path):
        sink = WalkSink(tmp_path / "w.txt")
        with pytest.raises(RuntimeError):
            sink.append(make_walk(0, 1))

    def test_bad_threshold(self, tmp_path):
        with pytest.raises(ValueError):
            WalkSink(tmp_path / "w.txt", flush_threshold=0)


class TestFormats:
    def test_text_roundtrip(self, tmp_path):
        walks = [make_walk(0, 1, 2), make_walk(5), make_walk(3, 4)]
        path = tmp_path / "corpus.txt"
        with WalkSink(path, flush_threshold=2) as sink:
            for walk in walks:
                sink.append(walk)
        loaded = list(read_walks(path))
        assert [w.hops for w in loaded] == [w.hops for w in walks]

    def test_binary_roundtrip(self, tmp_path):
        walks = [make_walk(0, 1, 2), make_walk(7), make_walk(3, 4, 5, 6)]
        path = tmp_path / "corpus.twalks"
        with WalkSink(path) as sink:
            for walk in walks:
                sink.append(walk)
        loaded = list(read_walks(path))
        assert [w.hops for w in loaded] == [w.hops for w in walks]

    def test_binary_detected_by_extension(self, tmp_path):
        sink = WalkSink(tmp_path / "x.twalks")
        assert sink.binary
        assert not WalkSink(tmp_path / "x.txt").binary

    def test_bad_text_hop(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 nonsense\n")
        with pytest.raises(GraphFormatError):
            list(read_walks(path))

    def test_bad_binary_magic(self, tmp_path):
        path = tmp_path / "bad.twalks"
        path.write_bytes(b"JUNKJUNK")
        with pytest.raises(GraphFormatError):
            list(read_walks(path))

    def test_truncated_binary(self, tmp_path):
        path = tmp_path / "t.twalks"
        with WalkSink(path) as sink:
            sink.append(make_walk(0, 1, 2))
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(GraphFormatError):
            list(read_walks(path))


    @pytest.mark.parametrize("tail, reason", [
        (b"\x01", "torn"), (b"\x01\x00", "torn"), (b"\x01\x00\x00", "torn"),
        (np.int32(-1).tobytes(), "negative walk length -1"),
    ])
    def test_torn_or_negative_record_header(self, tmp_path, tail, reason):
        """A corpus cut inside a record header is refused rather than
        read as a clean end of file; a negative length is named."""
        path = tmp_path / "t.twalks"
        with WalkSink(path) as sink:
            sink.append(make_walk(0, 1, 2))
            sink.append(make_walk(3))
        path.write_bytes(path.read_bytes() + tail)
        with pytest.raises(GraphFormatError, match=reason):
            list(read_walks(path))


class TestEngineIntegration:
    @pytest.mark.parametrize("engine_cls", [TeaEngine, BatchTeaEngine])
    def test_sink_receives_all_walks(self, small_graph, tmp_path, engine_cls):
        path = tmp_path / "corpus.txt"
        engine = engine_cls(small_graph, unbiased_walk())
        with WalkSink(path, flush_threshold=8) as sink:
            result = engine.run(
                Workload(max_length=5, max_walks=30), seed=0,
                record_paths=False, sink=sink,
            )
        assert result.paths == []  # constant-memory mode
        loaded = list(read_walks(path))
        assert len(loaded) == 30
        assert sum(w.num_edges for w in loaded) == result.total_steps

    def test_sink_matches_recorded_paths(self, small_graph, tmp_path):
        path = tmp_path / "corpus.twalks"
        engine = TeaEngine(small_graph, unbiased_walk())
        with WalkSink(path) as sink:
            result = engine.run(
                Workload(max_length=5, max_walks=15), seed=1, sink=sink
            )
        loaded = list(read_walks(path))
        assert [w.hops for w in loaded] == [p.hops for p in result.paths]


class TestValidateCorpus:
    def test_valid_corpus_passes(self, small_graph, tmp_path):
        from repro.walks.sink import validate_corpus

        path = tmp_path / "c.txt"
        engine = TeaEngine(small_graph, unbiased_walk())
        with WalkSink(path) as sink:
            engine.run(Workload(max_length=5, max_walks=20), seed=0,
                       record_paths=False, sink=sink)
        count, problems = validate_corpus(small_graph, path)
        assert count == 20
        assert problems == []

    def test_corrupted_corpus_flagged(self, small_graph, tmp_path):
        from repro.walks.sink import validate_corpus

        path = tmp_path / "c.txt"
        # A hop that is not an edge, and an out-of-range start.
        path.write_text("0 1@999.0\n99999 3@1.0\n")
        count, problems = validate_corpus(small_graph, path)
        assert count == 2
        assert len(problems) == 2

    def test_wrong_graph_flagged(self, small_graph, toy_graph, tmp_path):
        from repro.walks.sink import validate_corpus

        path = tmp_path / "c.twalks"
        engine = TeaEngine(small_graph, unbiased_walk())
        with WalkSink(path) as sink:
            engine.run(Workload(max_length=6, max_walks=15), seed=1,
                       record_paths=False, sink=sink)
        _, problems = validate_corpus(toy_graph, path)
        assert problems  # walks from another graph cannot all validate
