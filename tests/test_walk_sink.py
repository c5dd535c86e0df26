"""Walk sinks: block policy, formats, round-trips, engine integration."""

import numpy as np
import pytest

from repro.cli import ENGINES
from repro.engines import BatchTeaEngine, TeaEngine, Workload
from repro.engines.base import FrontierResult
from repro.exceptions import GraphFormatError
from repro.graph.validate import is_temporal_path
from repro.walks.apps import unbiased_walk
from repro.walks.sink import WalkSink, read_walks, validate_corpus
from repro.walks.walker import BLOCK_WALKS, WalkPath


def make_walk(*vertices):
    hops = [(vertices[0], None)]
    hops.extend((v, float(i + 1)) for i, v in enumerate(vertices[1:]))
    return WalkPath(hops=hops)


class TestFlushPolicy:
    def test_default_threshold_is_papers_1024(self):
        assert BLOCK_WALKS == 1024

    def test_flush_at_threshold(self, tmp_path):
        with WalkSink(tmp_path / "w.twalks") as sink:
            for i in range(2500):
                sink.append(make_walk(i, i + 1))
            # 2 500 walks → two full blocks written so far.
            assert sink.flushes == 2
            assert sink.walks_written == 2048
        assert sink.walks_written == 2500  # leaving `with` writes the rest
        assert sink.flushes == 3

    def test_write_splits_a_frontier_into_blocks(self, tmp_path):
        num = 2 * BLOCK_WALKS + 5
        frontier = FrontierResult(
            np.arange(num), np.full(num, 2), np.arange(3 * num).reshape(num, 3),
            np.tile([1.0, 2.0, 9.0], (num, 1)))
        path = tmp_path / "w.twalks"
        with WalkSink(path) as sink:
            sink.append(make_walk(7))  # appended walks go first
            sink.write(frontier)
        assert (sink.flushes, sink.walks_written) == (4, num + 1)
        loaded = [w.hops for w in read_walks(path)]
        assert loaded == [[(7, None)]] + [
            p.hops for p in frontier.materialise_paths()]

    def test_append_requires_open(self, tmp_path):
        sink = WalkSink(tmp_path / "w.txt")
        with pytest.raises(RuntimeError):
            sink.append(make_walk(0, 1))


class TestFormats:
    def test_text_roundtrip(self, tmp_path):
        walks = [make_walk(0, 1, 2), make_walk(5), make_walk(3, 4)]
        path = tmp_path / "corpus.txt"
        with WalkSink(path) as sink:
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

    def test_bad_text_start(self, tmp_path):
        """A bad start token is a format error naming its line, not a
        bare ``ValueError``."""
        path = tmp_path / "bad.txt"
        path.write_text("0 1@1.0\nx 1@2.0\n")
        with pytest.raises(GraphFormatError, match=r"bad.txt:2: bad token 'x'"):
            list(read_walks(path))

    def test_version_one_is_refused(self, tmp_path):
        """A v1 file (one record per walk) is refused by its version,
        not read as v2 blocks."""
        path = tmp_path / "old.twalks"
        path.write_bytes(b"TWLK\x01" + np.int32(1).tobytes()
                         + np.int64(3).tobytes() + np.float64(np.nan).tobytes())
        with pytest.raises(GraphFormatError, match="version 1"):
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


    @staticmethod
    def damaged(tmp_path, tail):
        """A two-walk ``.twalks`` corpus with ``tail`` appended."""
        path = tmp_path / "t.twalks"
        with WalkSink(path) as sink:
            sink.append(make_walk(0, 1, 2))
            sink.append(make_walk(3))
        path.write_bytes(path.read_bytes() + tail)
        return path

    @pytest.mark.parametrize("tail, reason", [
        (b"\x01", "torn"), (b"\x01\x00", "torn"), (b"\x01\x00\x00", "torn"),
        (np.int32(-1).tobytes(), "negative walk length -1"),
    ])
    def test_torn_or_negative_record_header(self, tmp_path, tail, reason):
        """A corpus cut inside a block's header — here its lengths, after
        a one-walk count and start — is refused rather than read as a
        clean end of file; a negative length is named."""
        one_walk = np.int32(1).tobytes() + np.int64(5).tobytes()
        with pytest.raises(GraphFormatError, match=reason):
            list(read_walks(self.damaged(tmp_path, one_walk + tail)))

    @pytest.mark.parametrize("tail, reason", [
        pytest.param(b"\x01", "torn", id="count-1-byte"),
        pytest.param(b"\x01\x00\x00", "torn", id="count-3-bytes"),
        pytest.param(np.int32(-1).tobytes(), "negative walk count -1",
                     id="negative-count"),
        pytest.param(np.int32(2).tobytes() + np.int64(5).tobytes(), "torn",
                     id="short-starts"),
        pytest.param(np.int32(1).tobytes() + np.int64(5).tobytes()
                     + np.int32(2).tobytes() + np.int64([6, 7]).tobytes()
                     + np.float64(1.0).tobytes(), "torn", id="short-times"),
    ])
    def test_torn_or_negative_block(self, tmp_path, tail, reason):
        """A torn or negative block count, and a block whose starts or
        hop arrays end early, are refused the same way."""
        with pytest.raises(GraphFormatError, match=reason):
            list(read_walks(self.damaged(tmp_path, tail)))


class TestEngineIntegration:
    @pytest.mark.parametrize("engine_cls", [TeaEngine, BatchTeaEngine])
    def test_sink_receives_all_walks(self, small_graph, tmp_path, engine_cls):
        path = tmp_path / "corpus.txt"
        engine = engine_cls(small_graph, unbiased_walk())
        with WalkSink(path) as sink:
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

    @pytest.mark.parametrize("suffix", [".twalks", ".txt"])
    @pytest.mark.parametrize("name", sorted(ENGINES))
    def test_every_engine_round_trips(self, small_graph, tmp_path, name, suffix):
        """For every CLI engine and both formats, the corpus read back is
        the run's ``record_paths`` walks: 1 250 walks, two blocks."""
        engine = ENGINES[name](small_graph, unbiased_walk())
        workload = Workload(walks_per_vertex=25, max_length=6)
        want = engine.run(workload, seed=4).paths
        path = tmp_path / f"corpus{suffix}"
        with WalkSink(path) as sink:
            engine.run(workload, seed=4, record_paths=False, sink=sink)
        assert sink.flushes == 2
        assert [w.hops for w in read_walks(path)] == [p.hops for p in want]

    @pytest.mark.parametrize("record_paths", [True, False])
    def test_num_walks_counts_the_starts(self, small_graph, tmp_path, record_paths):
        """A corpus run records no paths, yet it walked every start."""
        engine = BatchTeaEngine(small_graph, unbiased_walk())
        with WalkSink(tmp_path / "c.twalks") as sink:
            result = engine.run(Workload(max_length=5, max_walks=30), seed=0,
                                record_paths=record_paths, sink=sink)
        assert result.num_walks == result.summary()["walks"] == 30
        assert sink.walks_written == 30


def reference_problems(graph, path):
    """``validate_corpus``'s per-walk reference: one
    :func:`is_temporal_path` call per walk."""
    problems, count = [], 0
    for count, walk in enumerate(read_walks(path), 1):
        start = walk.hops[0][0]
        if not 0 <= start < graph.num_vertices:
            problems.append((count - 1, f"start vertex {start} out of range"))
        elif not is_temporal_path(graph, walk.hops):
            problems.append((count - 1, "not a temporal path of the graph"))
    return count, problems


class TestValidateCorpus:
    @pytest.mark.parametrize("suffix", [".twalks", ".txt"])
    @pytest.mark.parametrize("name", sorted(ENGINES))
    def test_agrees_with_the_reference_on_every_engine(self, small_graph,
                                                        tmp_path, name, suffix):
        engine = ENGINES[name](small_graph, unbiased_walk())
        path = tmp_path / f"corpus{suffix}"
        with WalkSink(path) as sink:
            engine.run(Workload(walks_per_vertex=25, max_length=6), seed=4,
                       record_paths=False, sink=sink)
        got = validate_corpus(small_graph, path)
        assert got == reference_problems(small_graph, path) == (1250, [])

    @pytest.mark.parametrize("suffix", [".twalks", ".txt"])
    def test_agrees_with_the_reference_on_corrupted_corpora(self, small_graph,
                                                             tmp_path, suffix):
        """Each corruption in its own walk, beside intact ones, across a
        block boundary."""
        g, V = small_graph, small_graph.num_vertices
        walks = BatchTeaEngine(g, unbiased_walk()).run(
            Workload(walks_per_vertex=30, max_length=6), seed=2).paths
        long = [i for i, w in enumerate(walks)
                if w.num_edges >= 3 and w.hops[1][1] < w.hops[2][1]]
        # An edge (u + 1, x, t) makes hop (V + x, t) from u alias a real
        # (pair, time) key when the pair is computed as u * V + v.
        u = int(np.flatnonzero(np.diff(g.indptr)[1:])[0])
        x, t = int(g.nbr[g.indptr[u + 1]]), float(g.etime[g.indptr[u + 1]])

        def hops(i):
            return [list(hop) for hop in walks[i].hops]

        broken = {}
        h = hops(long[0]); h[1][1], h[2][1] = h[2][1], h[1][1]  # time falls
        broken[long[0]] = h
        h = hops(long[1]); h[2][1] = h[1][1]  # tied times
        broken[long[1]] = h
        h = hops(long[2]); h[2][0] = (h[2][0] + 1) % V  # likely not an edge
        broken[long[2]] = h
        h = hops(long[3]); h[3][1] = float("nan")
        broken[long[3]] = h
        broken[1030] = [[V, None]] + hops(1030)[1:]  # start out of range
        broken[1031] = [[-1, None]]
        broken[1032] = hops(1032)[:1] + [[-3, 1.0]]  # hop vertex out of range
        broken[1033] = [[u, None], [V + x, t]]
        path = tmp_path / f"corrupt{suffix}"
        with WalkSink(path) as sink:
            for i, walk in enumerate(walks):
                sink.append(WalkPath(hops=[tuple(hop) for hop in broken[i]])
                            if i in broken else walk)
        count, problems = validate_corpus(g, path)
        assert (count, problems) == reference_problems(g, path)
        assert count == len(walks) > 1034
        flagged = {i for i, _ in problems}
        assert flagged - set(broken) == set()
        assert set(broken) - flagged <= {long[2]}  # a lucky edge stays valid
        assert [reason for i, reason in problems if i in (1030, 1031)] == [
            f"start vertex {V} out of range", "start vertex -1 out of range"]

    def test_edges_that_share_a_source_and_a_time(self, tmp_path):
        """Each hop is matched against every edge of its source at its
        time, not only the first of them; and real edges whose times
        fall or tie still make no temporal path."""
        from repro.graph.temporal_graph import TemporalGraph

        graph = TemporalGraph.from_edges(
            [(0, v, 1.0) for v in (1, 2, 3)]
            + [(3, 0, 2.0), (3, 1, 2.0), (3, 2, 1.0), (1, 2, 0.5)])
        walks = [[(0, None), (v, 1.0)] for v in (1, 2, 3, 0)]
        walks += [[(0, None), (3, 1.0), (w, 2.0)] for w in (0, 1, 2)]
        walks += [[(1, None), (2, 0.5)], [(1, None), (2, 1.0)]]
        walks += [[(0, None), (1, 1.0), (2, 0.5)],  # falls
                  [(0, None), (3, 1.0), (2, 1.0)]]  # ties
        path = tmp_path / "ties.txt"
        with WalkSink(path) as sink:
            for hops in walks:
                sink.append(WalkPath(hops=hops))
        count, problems = validate_corpus(graph, path)
        assert (count, problems) == reference_problems(graph, path)
        assert [i for i, _ in problems] == [3, 6, 8, 9, 10]

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
