"""StreamingTeaEngine: interleaved ingestion and walking."""

import numpy as np
import pytest

from repro.exceptions import NotSupportedError
from repro.graph.generators import temporal_powerlaw
from repro.streaming.batch import StreamingTeaEngine
from repro.streaming.wal import WriteAheadLog, scrub_wal
from repro.walks.apps import exponential_walk, temporal_node2vec, unbiased_walk
from tests.stream_oracle import ScalarReader, vertex_candidate_count


@pytest.fixture
def stream():
    return temporal_powerlaw(num_vertices=40, num_edges=600, seed=2, time_horizon=100.0)


class TestIngestion:
    def test_batched_ingest(self, stream):
        engine = StreamingTeaEngine(unbiased_walk())
        batches = engine.ingest(stream, batch_size=100)
        assert batches == 6
        assert engine.num_edges == 600

    def test_node2vec_rejected(self):
        with pytest.raises(NotSupportedError):
            StreamingTeaEngine(temporal_node2vec())

    def test_active_vertices(self, stream):
        engine = StreamingTeaEngine(unbiased_walk())
        engine.ingest(stream, 200)
        active = engine.active_vertices()
        assert active == sorted(set(stream.src.tolist()))

    def test_nbytes_positive(self, stream):
        engine = StreamingTeaEngine(unbiased_walk())
        engine.ingest(stream, 300)
        assert engine.nbytes() > 0


class TestWalking:
    def test_paths_are_temporal(self, stream):
        engine = StreamingTeaEngine(exponential_walk(scale=20.0))
        engine.ingest(stream, 150)
        paths = engine.run_walks(engine.active_vertices()[:20], max_length=10, seed=0)
        assert len(paths) == 20
        for path in paths:
            times = [t for _, t in path.hops if t is not None]
            assert times == sorted(times)
            assert len(set(times)) == len(times)  # strictly increasing

    def test_walks_see_new_edges(self):
        """After a batch arrives, walks can traverse its edges."""
        engine = StreamingTeaEngine(unbiased_walk())
        from repro.graph.edge_stream import EdgeStream

        engine.apply_batch(EdgeStream.from_edges([(0, 1, 1.0)]))
        path1 = engine.run_walks([0], max_length=5, seed=0)[0]
        assert path1.vertices == [0, 1]
        engine.apply_batch(EdgeStream.from_edges([(1, 2, 2.0)]))
        path2 = engine.run_walks([0], max_length=5, seed=0)[0]
        assert path2.vertices == [0, 1, 2]

    def test_walk_from_inactive_vertex(self, stream):
        engine = StreamingTeaEngine(unbiased_walk())
        engine.ingest(stream, 200)
        isolated = max(engine.active_vertices()) + 1
        path = engine.run_walks([isolated], max_length=5, seed=0)[0]
        assert path.num_edges == 0

    def test_counters_accumulate(self, stream):
        engine = StreamingTeaEngine(unbiased_walk())
        engine.ingest(stream, 300)
        engine.run_walks(engine.active_vertices()[:10], max_length=5, seed=1)
        assert engine.counters.steps > 0


class TestEquivalenceWithStatic:
    def test_distribution_matches_static_engine(self, stream):
        """Streaming-ingested index samples like the static TEA engine."""
        from repro.engines import TeaEngine
        from repro.graph.temporal_graph import TemporalGraph
        from repro.rng import make_rng
        from tests.conftest import chisquare_ok

        spec = exponential_walk(scale=25.0)
        streaming = StreamingTeaEngine(spec)
        streaming.ingest(stream, 97)
        graph = TemporalGraph.from_stream(stream)
        static = TeaEngine(graph, spec)
        static.prepare()

        v = int(np.argmax(graph.degrees()))
        d = graph.out_degree(v)
        nbrs, _ = graph.neighbors(v)
        weights = spec.weight_model.compute(graph)
        lo = graph.indptr[v]
        # Exact distribution over destination vertices (may repeat).
        probs = {}
        for j in range(d):
            probs[int(nbrs[j])] = probs.get(int(nbrs[j]), 0.0) + weights[lo + j]
        keys = sorted(probs)
        exact = np.array([probs[k] for k in keys])
        exact /= exact.sum()

        rng, reader = make_rng(0), ScalarReader.of(streaming)
        counts = np.zeros(len(keys))
        key_pos = {k: i for i, k in enumerate(keys)}
        for _ in range(15000):
            dst, _ = reader.sample(v, d, rng)
            counts[key_pos[dst]] += 1
        assert chisquare_ok(counts, exact)


def _decay_spec(scale: float = 20.0):
    from repro.core.weights import WeightModel
    from repro.walks.spec import WalkSpec

    return WalkSpec(
        name="decay", weight_model=WeightModel("exponential_decay", scale=scale)
    )


def _hops(engine_or_view, starts, seed=5, max_length=12):
    return [
        w.hops
        for w in engine_or_view.run_walks(starts, max_length=max_length,
                                          seed=seed)
    ]


class TestBulkIngest:
    def test_add_multiple_edges_matches_batched(self, stream):
        """Bulk and batched ingest index the same edges at the same
        weights. The block structure follows the batch boundaries, so
        walks agree in distribution, not bit for bit (recovery replays
        the original boundaries, see TestDurability)."""
        bulk = StreamingTeaEngine(_decay_spec())
        out = bulk.add_multiple_edges(stream.src, stream.dst, stream.time)
        assert out == {"edges": 600, "epoch": 1, "num_edges": 600}
        batched = StreamingTeaEngine(_decay_spec())
        batched.ingest(stream, batch_size=75)
        assert bulk.active_vertices() == batched.active_vertices()
        for v in bulk.active_vertices():
            one, many = bulk.index.vertices[v], batched.index.vertices[v]
            assert one.num_blocks() == 1
            for a, b in zip(one.edges_desc(), many.edges_desc()):
                assert np.array_equal(a, b)
            for t in (None, 25.0, 50.0, 75.0):
                assert vertex_candidate_count(one, t) == vertex_candidate_count(many, t)
        assert sum(v.num_blocks() for v in batched.index.vertices.values()) > len(
            batched.active_vertices())

    def test_unsorted_columns_rejected(self, stream):
        from repro.exceptions import GraphFormatError

        engine = StreamingTeaEngine(_decay_spec())
        with pytest.raises(GraphFormatError):
            engine.add_multiple_edges(
                stream.src, stream.dst, stream.time[::-1]
            )
        assert engine.num_edges == 0 and engine.epoch == 0


class TestEpochIsolation:
    def test_pinned_epoch_is_byte_stable(self, stream):
        engine = StreamingTeaEngine(exponential_walk(scale=20.0),
                                    retain_epochs=16)
        engine.apply_batch(stream[:300])
        pinned = engine.pin()
        starts = pinned.active_vertices()[:10]
        before = _hops(pinned, starts)
        for batch in stream[300:].batches(60):
            engine.apply_batch(batch)
        assert _hops(pinned, starts) == before
        current = engine.pin()
        assert current.epoch > pinned.epoch
        assert current.num_edges == 600
        assert _hops(current, starts) != before

    def test_pinned_view_shares_immutable_blocks(self, stream):
        """Copy-on-write pins block *objects*: their arrays are read-only
        and keep their bytes however many carries happen after the pin."""
        engine = StreamingTeaEngine(exponential_walk(scale=20.0))
        engine.apply_batch(stream[:300])
        pinned = engine.pin()

        def arrays(view):
            for v in view.active_vertices():
                for block in view._vertices[v].blocks:
                    yield from (block.dst, block.times, block.weights, block.c)

        held = list(arrays(pinned))
        before = [a.tobytes() for a in held]
        walks = _hops(pinned, pinned.active_vertices())
        assert held and not any(a.flags.writeable for a in held)
        for batch in stream[300:].batches(7):
            engine.apply_batch(batch)
        assert [a.tobytes() for a in held] == before
        assert all(x is y for x, y in zip(arrays(pinned), held))
        assert _hops(pinned, pinned.active_vertices()) == walks

    def test_pin_by_id_and_retirement(self, stream):
        from repro.exceptions import EpochRetiredError

        engine = StreamingTeaEngine(exponential_walk(scale=20.0),
                                    retain_epochs=2)
        for batch in stream.batches(100):
            engine.apply_batch(batch)
        assert engine.pin(engine.epoch).epoch == engine.epoch
        assert engine.pin(engine.epoch - 1).epoch == engine.epoch - 1
        with pytest.raises(EpochRetiredError):
            engine.pin(1)

    def test_reader_writer_stress(self, stream):
        """Pinned-epoch walks byte-stable under *concurrent* ingest."""
        import threading

        engine = StreamingTeaEngine(exponential_walk(scale=20.0),
                                    retain_epochs=64)
        engine.apply_batch(stream[:200])
        pinned = engine.pin()
        starts = pinned.active_vertices()[:8]
        reference = _hops(pinned, starts)

        failures = []
        done = threading.Event()

        def reader():
            while not done.is_set():
                if _hops(pinned, starts) != reference:
                    failures.append("pinned walks drifted")
                    return

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for batch in stream[200:].batches(20):
                engine.apply_batch(batch)
        finally:
            done.set()
            thread.join(30)
        assert not thread.is_alive()
        assert not failures
        assert _hops(pinned, starts) == reference
        assert engine.num_edges == 600


class TestDurability:
    def test_close_reopen_bit_identical(self, stream, tmp_path):
        with StreamingTeaEngine(exponential_walk(scale=20.0),
                                wal_dir=tmp_path) as engine:
            engine.ingest(stream, batch_size=90)
            epoch = engine.epoch
            starts = engine.active_vertices()[:10]
            want = _hops(engine, starts)
        with StreamingTeaEngine(exponential_walk(scale=20.0),
                                wal_dir=tmp_path) as recovered:
            assert recovered.epoch == epoch
            assert recovered.recovered_edges == 600
            assert _hops(recovered, starts) == want

    def test_forest_constants_survive_checkpoint_and_recovery(self, tmp_path):
        """The forest a durable ingest leaves is pinned: ``(update_work,
        nbytes)`` recorded from the sequential per-vertex builder (a
        carry-forest block is ``(dst, times, weights, c)``, nothing else),
        before and after a checkpoint + recovery; the store scrubs clean
        with its manifest verified."""
        stream = temporal_powerlaw(num_vertices=60, num_edges=1200, seed=13,
                                   time_horizon=80.0)
        spec = exponential_walk(scale=20.0)
        with StreamingTeaEngine(spec, wal_dir=tmp_path, group_commit=8) as engine:
            engine.ingest(stream, batch_size=150)
            assert (engine.index.update_work(), engine.nbytes()) == (3501, 39336)
            engine.checkpoint()
        report = scrub_wal(tmp_path)
        assert report["clean"] and report["manifest"]["ok"]
        with StreamingTeaEngine(spec, wal_dir=tmp_path) as recovered:
            assert (recovered.index.update_work(),
                    recovered.nbytes()) == (3501, 39336)

    def test_checkpoint_bounds_replay(self, stream, tmp_path):
        spec = _decay_spec()
        with StreamingTeaEngine(spec, wal_dir=tmp_path) as engine:
            engine.ingest(stream[:400], batch_size=100)
            engine.checkpoint()
            engine.ingest(stream[400:], batch_size=100)
            starts = engine.active_vertices()[:10]
            want = _hops(engine, starts)
        with StreamingTeaEngine(spec, wal_dir=tmp_path) as recovered:
            # 4 batches come from the checkpoint, 2 from the WAL suffix,
            # and the index walks identically either way.
            assert recovered.recovered_batches == 6
            assert recovered.epoch == 6
            assert _hops(recovered, starts) == want

    def test_recovery_after_hard_crash_mid_stream(self, stream, tmp_path):
        """Durable prefix survives even when close() never runs."""
        spec = _decay_spec()
        engine = StreamingTeaEngine(spec, wal_dir=tmp_path)
        for batch in stream.batches(150):
            engine.apply_batch(batch, sync=True)
        starts = engine.active_vertices()[:10]
        want = _hops(engine, starts)
        # No close(): simulate the process dying with the fd open.
        del engine
        with StreamingTeaEngine(spec, wal_dir=tmp_path) as recovered:
            assert recovered.epoch == 4
            assert _hops(recovered, starts) == want

    def test_wal_append_fault_rolls_back_index(self, stream, tmp_path):
        """A batch whose WAL write fails must vanish from the index."""
        from repro.exceptions import TransientIOError
        from repro.resilience import FaultInjector

        spec = _decay_spec()
        injector = FaultInjector.from_plan(
            {"rules": [
                {"site": "wal_append", "kind": "io_error", "calls": [1]}
            ]}
        )
        engine = StreamingTeaEngine(spec, wal_dir=tmp_path,
                                    fault_injector=injector)
        batches = list(stream.batches(200))
        engine.apply_batch(batches[0])
        starts = engine.active_vertices()[:10]
        want = _hops(engine, starts)
        with pytest.raises(TransientIOError):
            engine.apply_batch(batches[1])
        assert engine.num_edges == 200 and engine.epoch == 1
        assert _hops(engine, starts) == want
        # The retry succeeds and the engine continues normally: it walks
        # like an engine that never faulted, over a log that scrubs clean.
        engine.apply_batch(batches[1])
        engine.apply_batch(batches[2])
        assert engine.num_edges == 600 and engine.epoch == 3
        engine.close()
        assert scrub_wal(tmp_path)["clean"]
        clean = StreamingTeaEngine(spec)
        clean.ingest(stream, batch_size=200)
        assert _hops(engine, starts) == _hops(clean, starts)

    def test_checkpoint_write_fault_leaves_old_state_authoritative(self, stream,
                                                                   tmp_path):
        """A failed checkpoint writes no manifest and trims no log; the
        retried one, and recovery through it, are unaffected."""
        from repro.exceptions import TransientIOError
        from repro.resilience import FaultInjector
        from repro.streaming.snapshot import load_manifest

        spec = _decay_spec()
        injector = FaultInjector.from_plan(
            {"rules": [
                {"site": "checkpoint_write", "kind": "io_error", "calls": [0]}
            ]}
        )
        engine = StreamingTeaEngine(spec, wal_dir=tmp_path,
                                    fault_injector=injector)
        engine.ingest(stream[:400], batch_size=100)
        with pytest.raises(TransientIOError):
            engine.checkpoint()
        assert load_manifest(tmp_path) is None
        assert len(list(WriteAheadLog.replay(tmp_path))) == 4  # nothing trimmed
        assert engine.checkpoint()["epoch"] == 4
        engine.ingest(stream[400:], batch_size=100)
        starts = engine.active_vertices()[:10]
        want = _hops(engine, starts)
        engine.close()
        with StreamingTeaEngine(spec, wal_dir=tmp_path) as recovered:
            assert recovered.recovered_batches == 6
            assert _hops(recovered, starts) == want


class TestStageTimings:
    """`/metrics` splits an accepted batch into its three stages."""

    STAGES = ("index_apply", "wal_append", "publish")

    @staticmethod
    def seconds(engine, name):
        return engine.registry.histogram(f"streaming.{name}_seconds")

    def test_each_stage_observed_once_per_accepted_batch(self, stream, tmp_path):
        with StreamingTeaEngine(exponential_walk(scale=20.0),
                                wal_dir=tmp_path) as engine:
            batches = engine.ingest(stream, batch_size=100)
            total = self.seconds(engine, "apply")
            stages = [self.seconds(engine, name) for name in self.STAGES]
        assert total.count == batches == 6
        assert [h.count for h in stages] == [batches] * 3
        # The stages partition the batch: only clock reads fall between.
        assert sum(h.total for h in stages) == pytest.approx(total.total, rel=0.10)
        assert all(h.total > 0 for h in stages)

    def test_memory_only_engine_times_the_same_stages(self, stream):
        engine = StreamingTeaEngine(exponential_walk(scale=20.0))
        engine.ingest(stream, batch_size=200)
        assert [self.seconds(engine, n).count for n in self.STAGES] == [3, 3, 3]

    @pytest.mark.parametrize("site", ["streaming_apply", "wal_append"])
    def test_rolled_back_batch_observes_nothing(self, stream, tmp_path, site):
        from repro.exceptions import TransientIOError
        from repro.resilience import FaultInjector

        injector = FaultInjector.from_plan(
            {"rules": [{"site": site, "kind": "io_error", "calls": [0]}]}
        )
        with StreamingTeaEngine(exponential_walk(scale=20.0), wal_dir=tmp_path,
                                fault_injector=injector) as engine:
            with pytest.raises(TransientIOError):
                engine.apply_batch(stream[:100])
            assert engine.num_edges == 0 and engine.epoch == 0
            assert [self.seconds(engine, n).count
                    for n in ("apply",) + self.STAGES] == [0, 0, 0, 0]
            assert engine.registry.counter_value("resilience.rollbacks") == 1
            engine.apply_batch(stream[:100])
            assert self.seconds(engine, "apply").count == 1
            assert [self.seconds(engine, n).count for n in self.STAGES] == [1, 1, 1]


class TestStreamService:
    """The serving bridge, exercised without a daemon."""

    def _service(self, stream):
        from repro.serve.streaming import StreamService

        engine = StreamingTeaEngine(_decay_spec(), retain_epochs=8)
        engine.apply_batch(stream[:300])
        return StreamService(engine), engine

    def test_ingest_walk_roundtrip(self, stream):
        service, engine = self._service(stream)
        starts = engine.active_vertices()[:6]
        pinned = service.walk({"starts": starts, "seed": 3, "epoch": 1},
                              kind="walk")
        out = service.ingest({
            "src": stream.src[300:].tolist(),
            "dst": stream.dst[300:].tolist(),
            "time": stream.time[300:].tolist(),
        })
        assert out["epoch"] == 2 and out["num_edges"] == 600
        again = service.walk({"starts": starts, "seed": 3, "epoch": 1},
                             kind="walk")
        assert again["walks"] == pinned["walks"]
        assert again["times"] == pinned["times"]
        current = service.walk({"starts": starts, "seed": 3}, kind="walk")
        assert current["epoch"] == 2 and current["num_edges"] == 600

    def test_recommend_and_epoch_info(self, stream):
        service, engine = self._service(stream)
        starts = engine.active_vertices()[:6]
        out = service.walk({"starts": starts, "top_k": 3}, kind="recommend")
        assert len(out["recommendations"]) <= 3
        assert all(v not in starts for v, _ in out["recommendations"])
        info = service.epoch_info()
        assert info["epoch"] == 1 and info["durable"] is False

    def test_validation_and_status_codes(self, stream):
        from repro.exceptions import ServeError

        service, _ = self._service(stream)
        with pytest.raises(ServeError) as exc:
            service.ingest({"src": [1], "dst": [2]})
        assert exc.value.status == 400
        with pytest.raises(ServeError) as exc:
            service.ingest({"src": [1], "dst": [2], "time": [0.0]})
        assert exc.value.status == 400  # precedes existing edges
        with pytest.raises(ServeError) as exc:
            service.walk({"starts": [0], "epoch": 99}, kind="walk")
        assert exc.value.status == 410
