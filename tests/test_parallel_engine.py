"""ParallelBatchTeaEngine: chunk-parallel ≡ serial, deterministic, folded.

The contract under test (ISSUE acceptance criteria):

* next-hop distribution equivalence with the serial batch engine (same
  chi-squared harness the batch-vs-scalar tests use);
* bit-determinism — fixed ``(seed, chunk_size)`` gives identical paths
  and identical merged counters across worker counts, backends, and
  repeated runs;
* telemetry conservation — per-worker counters/registries fold to
  exactly the serial totals, and the ``parallel.*`` metrics appear;
* the shared-memory image round-trips arrays by name.
"""

import multiprocessing

import numpy as np
import pytest

from repro.engines import BatchTeaEngine, ParallelBatchTeaEngine, Workload
from repro.graph.validate import is_temporal_path
from repro.parallel.chunks import (
    ChunkPlan,
    adaptive_chunk_size,
    default_chunk_size,
    plan_chunks,
    rechunk,
)
from repro.parallel.sharing import SharedIndexImage, export_or_none
from repro.rng import make_rng
from repro.walks.apps import exponential_walk, linear_walk, temporal_node2vec
from tests.conftest import chisquare_ok

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()

needs_fork = pytest.mark.skipif(not HAVE_FORK, reason="fork start method unavailable")

#: Dispatch seconds per chunk a warm 2-worker run may add over the inline
#: run. Measured ≈0.4–1.5 ms on two shared vCPUs (one ChunkTask pickle in,
#: one ChunkResult pickle out, two pipe wake-ups); the bound leaves a noisy
#: neighbour room without letting a 20x regression pass. An absolute cost
#: holds on any host, where a wall-clock speedup does not.
DISPATCH_BOUND_SECONDS = 0.025


def _paths_equal(a, b):
    return len(a) == len(b) and all(x.hops == y.hops for x, y in zip(a, b))


# -- chunk planning ----------------------------------------------------------


class TestChunkPlanning:
    def test_bounds_cover_starts(self):
        starts = np.arange(103, dtype=np.int64)
        plan = plan_chunks(starts, 10, make_rng(0))
        assert plan.bounds[0] == 0 and plan.bounds[-1] == 103
        assert plan.num_chunks == 11
        widths = np.diff(plan.bounds)
        assert widths.max() == 10 and widths.min() >= 1
        assert plan.seeds.size == plan.num_walks

    def test_plan_is_deterministic(self):
        starts = np.arange(50, dtype=np.int64)
        p1 = plan_chunks(starts, 7, make_rng(3))
        p2 = plan_chunks(starts, 7, make_rng(3))
        assert np.array_equal(p1.bounds, p2.bounds)
        assert np.array_equal(p1.seeds, p2.seeds)

    def test_empty_workload(self):
        plan = plan_chunks(np.zeros(0, dtype=np.int64), 8, make_rng(0))
        assert plan.num_chunks == 1 and plan.chunk(0) == (0, 0)

    def test_chunk_size_validation(self):
        with pytest.raises(ValueError):
            plan_chunks(np.arange(4), 0, make_rng(0))

    def test_default_chunk_size(self):
        assert default_chunk_size(0, 4) == 1
        assert default_chunk_size(1600, 4) == 100
        # Always at least one chunk per walk bundle, even tiny loads.
        assert default_chunk_size(3, 8) == 1


# -- shared-memory image -----------------------------------------------------


class TestSharedIndexImage:
    def test_export_attach_roundtrip(self):
        arrays = {
            "a": np.arange(100, dtype=np.int64),
            "b": np.linspace(0, 1, 37),
            "empty": np.zeros(0, dtype=np.float64),
        }
        image = export_or_none(arrays)
        if image is None:
            pytest.skip("shared memory unavailable on this host")
        try:
            for name, arr in arrays.items():
                assert np.array_equal(image.arrays()[name], arr)
            attached = SharedIndexImage.attach(image.specs())
            try:
                for name, arr in arrays.items():
                    got = attached.arrays()[name]
                    assert np.array_equal(got, arr)
                    assert got.dtype == arr.dtype and got.shape == arr.shape
                    assert not got.flags.writeable
            finally:
                attached.dispose()
        finally:
            image.dispose()

    def test_dispose_unlinks(self):
        image = export_or_none({"x": np.arange(8)})
        if image is None:
            pytest.skip("shared memory unavailable on this host")
        specs = image.specs()
        image.dispose()
        with pytest.raises(FileNotFoundError):
            SharedIndexImage.attach(specs)


# -- distribution equivalence ------------------------------------------------


class TestDistributionEquivalence:
    def test_first_hop_matches_exact(self, small_graph):
        """Chunk-parallel next-hop counts fit the exact weight
        distribution (same harness as batch-vs-scalar)."""
        spec = exponential_walk(scale=15.0)
        v = int(np.argmax(small_graph.degrees()))
        d = small_graph.out_degree(v)
        weights = spec.weight_model.compute(small_graph)
        lo = small_graph.indptr[v]
        # Multi-edges: fold edge weights per destination vertex, since
        # paths record vertices, not edge positions.
        nbrs = small_graph.nbr[lo : lo + d]
        dests = np.unique(nbrs)
        w_by_dest = np.array(
            [weights[lo : lo + d][nbrs == u].sum() for u in dests]
        )
        probs = w_by_dest / w_by_dest.sum()

        engine = ParallelBatchTeaEngine(
            small_graph, spec, workers=2, chunk_size=2500, backend="thread"
        )
        wl = Workload(walks_per_vertex=20000, max_length=1, start_vertices=[v])
        result = engine.run(wl, seed=5)
        first = [p.hops[1][0] for p in result.paths if p.num_edges >= 1]
        index_of = {int(u): j for j, u in enumerate(dests)}
        counts = np.zeros(dests.size)
        for u in first:
            counts[index_of[int(u)]] += 1
        assert counts.sum() == 20000
        assert chisquare_ok(counts, probs)

    def test_mean_length_matches_serial(self, small_graph):
        spec = exponential_walk(scale=20.0)
        # Enough walks that the mean is a statistic, not a coin flip:
        # serial and parallel draw from *different* streams by design
        # (lane streams vs one generator), so only distributions match.
        wl = Workload(walks_per_vertex=40, max_length=10)
        serial = BatchTeaEngine(small_graph, spec).run(wl, seed=9)
        par = ParallelBatchTeaEngine(
            small_graph, spec, workers=2, backend="thread"
        ).run(wl, seed=9)
        m1 = np.mean([p.num_edges for p in serial.paths])
        m2 = np.mean([p.num_edges for p in par.paths])
        assert m2 == pytest.approx(m1, rel=0.1)


# -- determinism -------------------------------------------------------------


class TestDeterminism:
    def test_repeat_runs_identical(self, small_graph):
        spec = linear_walk()
        wl = Workload(walks_per_vertex=2, max_length=8)
        make = lambda: ParallelBatchTeaEngine(
            small_graph, spec, workers=2, chunk_size=16, backend="thread"
        )
        r1 = make().run(wl, seed=4)
        r2 = make().run(wl, seed=4)
        assert _paths_equal(r1.paths, r2.paths)
        assert r1.counters.snapshot() == r2.counters.snapshot()

    def test_worker_count_invariant(self, small_graph):
        """workers=1 and workers=4 are bit-identical for one chunk plan."""
        spec = exponential_walk(scale=20.0)
        wl = Workload(walks_per_vertex=2, max_length=8)
        runs = [
            ParallelBatchTeaEngine(
                small_graph, spec, workers=w, chunk_size=20, backend="thread"
            ).run(wl, seed=11)
            for w in (1, 2, 4)
        ]
        for other in runs[1:]:
            assert _paths_equal(runs[0].paths, other.paths)
            assert runs[0].counters.snapshot() == other.counters.snapshot()

    @needs_fork
    def test_backend_invariant(self, small_graph):
        """serial, thread, and forked process backends agree exactly."""
        spec = exponential_walk(scale=20.0)
        wl = Workload(walks_per_vertex=2, max_length=8)
        results = {}
        for backend in ("serial", "thread", "process"):
            results[backend] = ParallelBatchTeaEngine(
                small_graph, spec, workers=2, chunk_size=25, backend=backend
            ).run(wl, seed=2)
        assert _paths_equal(results["serial"].paths, results["thread"].paths)
        assert _paths_equal(results["serial"].paths, results["process"].paths)
        snaps = {b: r.counters.snapshot() for b, r in results.items()}
        assert snaps["serial"] == snaps["thread"] == snaps["process"]

    @needs_fork
    def test_share_mode_invariant(self, small_graph):
        spec = linear_walk()
        wl = Workload(walks_per_vertex=1, max_length=6)
        shm = ParallelBatchTeaEngine(
            small_graph, spec, workers=2, chunk_size=16,
            backend="process", share_mode="shm",
        )
        cow = ParallelBatchTeaEngine(
            small_graph, spec, workers=2, chunk_size=16,
            backend="process", share_mode="inherit",
        )
        r_shm = shm.run(wl, seed=6)
        r_cow = cow.run(wl, seed=6)
        assert cow.last_share_mode == "cow"
        assert shm.last_share_mode in ("shm", "cow")  # shm may be unavailable
        assert _paths_equal(r_shm.paths, r_cow.paths)
        assert r_shm.counters.snapshot() == r_cow.counters.snapshot()


# -- telemetry fold ----------------------------------------------------------


class TestTelemetryFold:
    def test_conservation_and_parallel_metrics(self, small_graph):
        from repro.telemetry import MetricsRegistry

        spec = exponential_walk(scale=20.0)
        wl = Workload(walks_per_vertex=2, max_length=8)
        serial = ParallelBatchTeaEngine(
            small_graph, spec, workers=1, chunk_size=16, backend="serial"
        ).run(wl, seed=7)

        registry = MetricsRegistry()
        engine = ParallelBatchTeaEngine(
            small_graph, spec, workers=2, chunk_size=16, backend="thread"
        )
        result = engine.run(wl, seed=7, registry=registry)

        assert result.counters.steps == serial.counters.steps
        assert registry.counter_value("sampling.steps") == serial.counters.steps
        worker_fold = registry.histogram("parallel.worker_steps").total
        assert int(worker_fold) == serial.counters.steps

        assert registry.gauge_value("parallel.workers") == 2
        num_chunks = registry.counter_value("parallel.chunks")
        assert num_chunks == -(-wl.resolve_starts(
            small_graph.num_vertices, make_rng(7)
        ).size // 16)
        wait_hist = registry.histogram("parallel.queue_wait_seconds")
        assert wait_hist.count == num_chunks
        # The per-chunk frontier histograms merged in too.
        assert registry.histogram("batch.frontier_size").count > 0
        assert registry.counter_value("walk.walks") == len(result.paths)

    def test_chunk_spans_under_walk_span(self, small_graph):
        spec = linear_walk()
        engine = ParallelBatchTeaEngine(
            small_graph, spec, workers=2, chunk_size=16, backend="thread"
        )
        result = engine.run(Workload(walks_per_vertex=1, max_length=6), seed=1)
        walk_roots = [s for s in result.trace.roots if s.name == "walk"]
        assert len(walk_roots) == 1
        chunk_spans = [c for c in walk_roots[0].children if c.name == "walk.chunk"]
        assert len(chunk_spans) == result.registry.counter_value("parallel.chunks")
        assert sum(s.attributes["steps"] for s in chunk_spans) == result.counters.steps
        assert walk_roots[0].attributes["backend"] == "thread"


# -- end-to-end --------------------------------------------------------------


class TestEndToEnd:
    def test_paths_are_temporal(self, small_graph):
        spec = exponential_walk(scale=20.0)
        engine = ParallelBatchTeaEngine(
            small_graph, spec, workers=2, chunk_size=16, backend="thread"
        )
        result = engine.run(Workload(max_length=12, max_walks=40), seed=3)
        assert result.num_walks == 40
        for path in result.paths:
            assert is_temporal_path(engine.graph, path.hops)

    @needs_fork
    def test_node2vec_through_process_backend(self, small_graph):
        spec = temporal_node2vec(p=2.0, q=0.5, scale=20.0)
        engine = ParallelBatchTeaEngine(
            small_graph, spec, workers=1, chunk_size=16, backend="serial"
        )
        serial = engine.run(Workload(max_length=8), seed=5)
        par = ParallelBatchTeaEngine(
            small_graph, spec, workers=2, chunk_size=16, backend="process"
        ).run(Workload(max_length=8), seed=5)
        assert _paths_equal(serial.paths, par.paths)
        for path in par.paths[:20]:
            assert is_temporal_path(engine.graph, path.hops)

    def test_sink_receives_chunk_order(self, small_graph, tmp_path):
        from repro.walks.sink import WalkSink

        spec = linear_walk()
        wl = Workload(walks_per_vertex=1, max_length=6)
        out = tmp_path / "corpus.txt"
        engine = ParallelBatchTeaEngine(
            small_graph, spec, workers=2, chunk_size=16, backend="thread"
        )
        with WalkSink(str(out)) as sink:
            result = engine.run(wl, seed=0, record_paths=True, sink=sink)
        lines = out.read_text().strip().splitlines()
        assert len(lines) == len(result.paths)
        first_vertices = [int(line.split()[0]) for line in lines]
        assert first_vertices == [p.hops[0][0] for p in result.paths]

    def test_stop_probability(self, small_graph):
        spec = linear_walk()
        wl = Workload(walks_per_vertex=2, max_length=30, stop_probability=0.4)
        result = ParallelBatchTeaEngine(
            small_graph, spec, workers=2, chunk_size=16, backend="thread"
        ).run(wl, seed=8)
        lengths = [p.num_edges for p in result.paths]
        assert np.mean(lengths) < 10  # geometric stop truncates hard

    def test_validation(self, small_graph):
        with pytest.raises(ValueError):
            ParallelBatchTeaEngine(small_graph, linear_walk(), backend="mpi")
        with pytest.raises(ValueError):
            ParallelBatchTeaEngine(small_graph, linear_walk(), share_mode="magic")
        with pytest.raises(ValueError):
            ParallelBatchTeaEngine(small_graph, linear_walk(), workers=-1)

    def test_cli_walk_workers_flag(self, capsys):
        from repro.cli import main

        rc = main([
            "walk", "--dataset", "tiny", "--app", "exponential",
            "--length", "6", "--workers", "2", "--chunk-size", "16",
            "--parallel-backend", "thread",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "engine: tea-parallel" in out

    def test_cli_new_parallel_flags(self, capsys):
        from repro.cli import main

        rc = main([
            "walk", "--dataset", "tiny", "--app", "exponential",
            "--length", "6", "--workers", "2",
            "--parallel-backend", "thread",
            "--chunk-target-ms", "20",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "engine: tea-parallel" in out


# -- adaptive chunk planning -------------------------------------------------


class TestAdaptivePlanning:
    def test_size_monotone_in_target(self):
        """More target milliseconds never means smaller chunks."""
        sizes = [
            adaptive_chunk_size(100_000, 4, 0.001, target_ms=t)
            for t in (5, 10, 25, 75, 150, 300, 1000)
        ]
        assert sizes == sorted(sizes)
        # And exactly target/per_walk when nothing clamps.
        assert adaptive_chunk_size(100_000, 4, 0.001, target_ms=75) == 75

    def test_size_monotone_in_cost(self):
        """Slower walks mean smaller chunks, never larger."""
        sizes = [
            adaptive_chunk_size(100_000, 4, per_walk, target_ms=75)
            for per_walk in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2)
        ]
        assert sizes == sorted(sizes, reverse=True)

    def test_size_caps_at_one_chunk_per_worker(self):
        # A huge target must not serialise the run: every worker can
        # still get a chunk.
        assert adaptive_chunk_size(100, 4, 10.0, target_ms=10**7) == 25
        assert adaptive_chunk_size(100, 3, 10.0, target_ms=10**7) == 34

    def test_fallback_without_calibration(self):
        assert adaptive_chunk_size(1000, 4, None) == default_chunk_size(1000, 4)
        assert adaptive_chunk_size(1000, 4, 0.0) == default_chunk_size(1000, 4)
        assert adaptive_chunk_size(1000, 4, -1.0) == default_chunk_size(1000, 4)
        assert adaptive_chunk_size(0, 4, 0.001) == 1

    def test_rechunk_keeps_walks_and_seeds(self):
        plan = plan_chunks(np.arange(103, dtype=np.int64), 10, make_rng(0))
        replanned = rechunk(plan, 7)
        assert np.array_equal(replanned.starts, plan.starts)
        assert np.array_equal(replanned.seeds, plan.seeds)
        assert replanned.bounds[-1] == 103
        assert np.diff(replanned.bounds).max() == 7

    def test_probe_calibration_monotone_chunk_counts(self, small_graph):
        """Engine level: a larger --chunk-target-ms never yields more
        chunks for the same workload (the probe feeds a monotone
        planner)."""
        from repro.telemetry import MetricsRegistry

        spec = linear_walk()
        wl = Workload(walks_per_vertex=4, max_length=8)
        counts = []
        for target in (0.05, 50.0, 5000.0):
            registry = MetricsRegistry()
            engine = ParallelBatchTeaEngine(
                small_graph, spec, workers=2, backend="thread",
                chunk_target_ms=target,
            )
            engine.run(wl, seed=3, registry=registry, record_paths=False)
            engine.close()
            counts.append(int(registry.counter_value("parallel.chunks")))
        assert counts == sorted(counts, reverse=True)


# -- determinism matrix (warm pools / adaptive chunks) -----------------------


class TestDeterminismMatrix:
    def test_chunking_warm_invariant(self, small_graph):
        """One seed, one answer: fixed vs adaptive chunking and a pool
        rebuilt after ``close()`` (cold) are all bit-identical."""
        spec = exponential_walk(scale=20.0)
        wl = Workload(walks_per_vertex=2, max_length=8)
        reference = ParallelBatchTeaEngine(
            small_graph, spec, workers=1, backend="serial", chunk_size=16
        )
        ref = reference.run(wl, seed=11)
        reference.close()
        variants = [
            dict(chunk_size=5),
            dict(chunk_size=64),
            dict(chunk_target_ms=0.5),
            dict(chunk_target_ms=500.0),
            dict(chunk_size=16),
            dict(chunk_target_ms=50.0),
        ]
        for kw in variants:
            engine = ParallelBatchTeaEngine(
                small_graph, spec, workers=3, backend="thread", **kw
            )
            first = engine.run(wl, seed=11)
            engine.close()  # cold: the next run pays pool startup again
            cold = engine.run(wl, seed=11)
            assert engine.last_pool["builds"] >= 1, kw
            engine.close()
            for res in (first, cold):
                assert _paths_equal(ref.paths, res.paths), kw
                assert ref.counters.snapshot() == res.counters.snapshot(), kw

    def test_warm_second_run_identical_and_reused(self, small_graph):
        spec = linear_walk()
        wl = Workload(walks_per_vertex=2, max_length=8)
        engine = ParallelBatchTeaEngine(
            small_graph, spec, workers=2, backend="thread", chunk_size=16
        )
        r1 = engine.run(wl, seed=4)
        assert engine.last_pool["builds"] >= 1
        r2 = engine.run(wl, seed=4)
        assert engine.last_pool["builds"] == 0
        assert engine.last_pool["reuses"] >= 1
        assert engine.last_pool["startup_seconds"] == 0.0
        engine.close()
        assert _paths_equal(r1.paths, r2.paths)
        assert r1.counters.snapshot() == r2.counters.snapshot()

    @needs_fork
    def test_process_warm_reuse_metrics(self, small_graph):
        """Second run over a warm process pool: zero startup/attach in
        the registry, pool_reuse counted, results bit-identical."""
        from repro.telemetry import MetricsRegistry

        spec = linear_walk()
        wl = Workload(walks_per_vertex=1, max_length=6)
        engine = ParallelBatchTeaEngine(
            small_graph, spec, workers=2, backend="process", chunk_size=16
        )
        reg1 = MetricsRegistry()
        r1 = engine.run(wl, seed=6, registry=reg1)
        assert reg1.gauge_value("parallel.pool_startup_seconds") > 0.0
        reg2 = MetricsRegistry()
        r2 = engine.run(wl, seed=6, registry=reg2)
        engine.close()
        assert reg2.gauge_value("parallel.pool_startup_seconds") == 0.0
        assert reg2.gauge_value("parallel.attach_seconds") == 0.0
        assert reg2.counter_value("parallel.pool_reuse") >= 1
        assert _paths_equal(r1.paths, r2.paths)

    @pytest.mark.parametrize("backend", [
        "thread", pytest.param("process", marks=needs_fork)])
    def test_warm_dispatch_cost_per_chunk_is_bounded(self, small_graph, backend):
        """What a warm 2-worker run spends per chunk outside chunk
        execution (submit, IPC, result pickling:
        ``parallel.dispatch_overhead_seconds``) exceeds the inline run's
        by at most ``DISPATCH_BOUND_SECONDS``."""
        from repro.telemetry import MetricsRegistry

        spec = exponential_walk(scale=20.0)
        wl = Workload(walks_per_vertex=2, max_length=40)
        per_chunk = {}
        for workers, kind in ((1, "serial"), (2, backend)):
            engine = ParallelBatchTeaEngine(
                small_graph, spec, workers=workers, backend=kind, chunk_size=16)
            engine.run(wl, seed=0, record_paths=False)  # builds the pool
            registry = MetricsRegistry()
            engine.run(wl, seed=0, record_paths=False, registry=registry)
            engine.close()
            assert engine.last_backend == kind
            per_chunk[kind] = registry.gauge_value(
                "parallel.dispatch_overhead_seconds") / registry.counter_value(
                "parallel.chunks")
        assert per_chunk[backend] - per_chunk["serial"] <= DISPATCH_BOUND_SECONDS, (
            per_chunk)

    @needs_fork
    def test_cold_pool_matches_warm_pool_process(self, small_graph):
        spec = exponential_walk(scale=20.0)
        wl = Workload(walks_per_vertex=1, max_length=6)
        warm = ParallelBatchTeaEngine(
            small_graph, spec, workers=2, backend="process", chunk_size=16
        )
        r_warm_1 = warm.run(wl, seed=9)
        r_warm_2 = warm.run(wl, seed=9)  # actually-warm pool
        warm.close()
        # "Cold" is close() between runs: the engine stays usable and
        # the next run rebuilds its pool and shared image from scratch.
        cold = ParallelBatchTeaEngine(
            small_graph, spec, workers=2, backend="process", chunk_size=16
        )
        r_cold = cold.run(wl, seed=9)
        assert cold.last_pool["builds"] >= 1
        cold.close()
        r_cold_2 = cold.run(wl, seed=9)
        assert cold.last_pool["builds"] >= 1  # rebuilt, not reused
        cold.close()
        for other in (r_warm_2, r_cold, r_cold_2):
            assert _paths_equal(r_warm_1.paths, other.paths)
            assert r_warm_1.counters.snapshot() == other.counters.snapshot()
