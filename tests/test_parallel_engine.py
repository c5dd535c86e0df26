"""ParallelBatchTeaEngine: chunk-parallel ≡ serial, deterministic, folded.

The contract under test (ISSUE acceptance criteria):

* next-hop distribution equivalence with the serial batch engine (same
  chi-squared harness the batch-vs-scalar tests use);
* bit-determinism — fixed ``(seed, chunk_size)`` gives identical paths
  and identical merged counters across worker counts, backends, and
  repeated runs;
* telemetry conservation — per-worker counters/registries fold to
  exactly the serial totals, and the ``parallel.*`` metrics appear;
* process workers walk the engine they inherit through ``fork``: no
  ``/dev/shm`` segment, no per-worker rebuild.
"""

import multiprocessing
import os
from pathlib import Path

import numpy as np
import pytest

from repro.engines import BatchTeaEngine, ParallelBatchTeaEngine, Workload
from repro.graph.validate import is_temporal_path
from repro.parallel.chunks import chunk_bounds
from repro.resilience.faults import FaultInjector
from repro.rng import make_rng, spawn_seeds
from repro.sampling.counters import CostCounters
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


def _shm_segments():
    """Names of the POSIX shared-memory segments Python created on this
    host (``multiprocessing.shared_memory`` names them ``psm_*``)."""
    return {path.name for path in Path("/dev/shm").glob("psm_*")}


def _worker_engine_identity():
    """Run in a process-pool worker: its pid and its engine's ``id``."""
    from repro.parallel import worker

    return os.getpid(), id(worker._ENGINE)


# -- chunk planning ----------------------------------------------------------


class TestChunkPlanning:
    def test_bounds_cover_starts(self):
        bounds = chunk_bounds(103, 4, chunk_size=10)
        assert bounds[0] == 0 and bounds[-1] == 103
        assert bounds.size - 1 == 11
        widths = np.diff(bounds)
        assert widths.max() == 10 and widths.min() >= 1

    def test_plan_is_deterministic(self):
        """The plan is a function of (lanes, workers[, chunk_size])."""
        for args in ((50, 3), (50, 3, 7), (200_000, 2)):
            assert np.array_equal(chunk_bounds(*args), chunk_bounds(*args))

    def test_empty_workload(self):
        for chunk_size in (None, 8):
            assert chunk_bounds(0, 4, chunk_size).tolist() == [0, 0]

    def test_chunk_size_validation(self):
        with pytest.raises(ValueError):
            chunk_bounds(4, 1, chunk_size=0)


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
        """``share_mode="inherit"`` (the one accepted value) is the
        default, and neither creates a shared-memory segment."""
        spec = linear_walk()
        wl = Workload(walks_per_vertex=1, max_length=6)
        before = _shm_segments()
        results = []
        for kw in ({}, {"share_mode": "inherit"}):
            engine = ParallelBatchTeaEngine(
                small_graph, spec, workers=2, chunk_size=16,
                backend="process", **kw,
            )
            results.append(engine.run(wl, seed=6))
            assert engine.last_backend == "process"
            assert _shm_segments() - before == set()  # pool still alive
            engine.close()
        assert _paths_equal(results[0].paths, results[1].paths)
        assert results[0].counters.snapshot() == results[1].counters.snapshot()

    @needs_fork
    def test_process_workers_walk_the_inherited_engine(self, small_graph):
        """A forked worker's engine is the parent's engine object, and its
        initializer only stores it."""
        from repro.telemetry import MetricsRegistry

        engine = ParallelBatchTeaEngine(
            small_graph, exponential_walk(scale=20.0), workers=2,
            chunk_size=16, backend="process",
        )
        try:
            registry = MetricsRegistry()
            engine.run(Workload(walks_per_vertex=1, max_length=6), seed=1,
                       registry=registry)
            assert engine.last_pool["builds"] == 1
            assert registry.gauge_value("parallel.attach_seconds") < 0.005
            executor, reused = engine._pool("process").ensure()
            assert reused
            pid, engine_id = executor.submit(_worker_engine_identity).result()
            assert pid != os.getpid() and engine_id == id(engine)
        finally:
            engine.close()


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
        walk_roots = [s for s in result.spans if s.name == "walk"]
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
        for share_mode in ("magic", "auto", "shm"):
            with pytest.raises(ValueError):
                ParallelBatchTeaEngine(small_graph, linear_walk(),
                                       share_mode=share_mode)
        for workers in (-1, 0):
            with pytest.raises(ValueError):
                ParallelBatchTeaEngine(small_graph, linear_walk(),
                                       workers=workers)

    def test_default_workers_follow_cpu_affinity(self, small_graph,
                                                 monkeypatch):
        """``workers=None`` counts the CPUs the process may run on (a
        cpuset-limited container), not the host's; without an affinity
        call it falls back to ``os.cpu_count()``."""
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        engine = ParallelBatchTeaEngine(small_graph, linear_walk())
        assert engine.workers == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        assert ParallelBatchTeaEngine(small_graph, linear_walk()).workers == 8

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
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "engine: tea-parallel" in out


# -- the slice plan ------------------------------------------------------------


def _chunk_widths(result):
    """Lanes of every chunk one parallel ``run`` walked, in chunk order."""
    walk = next(s for s in result.spans if s.name == "walk")
    chunks = sorted((c for c in walk.children if c.name == "walk.chunk"),
                    key=lambda c: c.attributes["chunk"])
    return [c.attributes["walks"] for c in chunks]


class TestSlicePlan:
    """Without ``chunk_size``, n lanes on w workers walk in the fewest
    chunks that are each at most ``FRONTIER_LANES`` lanes and that number
    a multiple of w, equal to within one lane — whatever ran before."""

    def test_chunks_are_equal_and_within_frontier_lanes(self, monkeypatch):
        from repro.engines import batch

        monkeypatch.setattr(batch, "FRONTIER_LANES", 10)
        for n in (1, 2, 9, 10, 11, 19, 20, 21, 97, 128, 1000):
            for w in (1, 2, 3, 4):
                widths = np.diff(chunk_bounds(n, w))
                assert widths.sum() == n
                assert widths.min() >= 1 and widths.max() <= 10, (n, w)
                assert widths.max() - widths.min() <= 1, (n, w)
                # The fewest such chunks: ceil(n / (w·ceil(n / (w·F)))) wide.
                assert widths.max() == -(-n // (w * -(-n // (w * 10)))), (n, w)

    def test_chunk_count_is_a_multiple_of_workers(self, small_graph,
                                                  monkeypatch):
        from repro.engines import batch

        for n, w in ((4, 4), (97, 2), (128, 3), (1000, 4)):
            assert (chunk_bounds(n, w).size - 1) % w == 0, (n, w)
        monkeypatch.setattr(batch, "FRONTIER_LANES", 16)
        wl = Workload(walks_per_vertex=2, max_length=6)
        for workers in (2, 3):
            engine = ParallelBatchTeaEngine(small_graph, linear_walk(),
                                            workers=workers, backend="thread")
            try:
                result = engine.run(wl, seed=1, record_paths=False)
            finally:
                engine.close()
            widths = _chunk_widths(result)
            assert len(widths) % workers == 0
            assert max(widths) <= 16 and max(widths) - min(widths) <= 1
            assert sum(widths) == result.registry.counter_value("walk.walks")

    def test_cold_and_warm_runs_plan_alike(self, medium_graph):
        """A cold run, warm runs and a run after ``close()`` plan the same
        chunks: nothing is calibrated between runs. 40 000 lanes on 2
        workers are 2 chunks of 20 000, however fast the first run was."""
        wl = Workload(walks_per_vertex=200, max_length=8)
        engine = ParallelBatchTeaEngine(medium_graph,
                                        exponential_walk(scale=20.0),
                                        workers=2, backend="thread")
        try:
            runs = [engine.run(wl, seed=3, record_paths=False)
                    for _ in range(3)]
            engine.close()
            runs.append(engine.run(wl, seed=3, record_paths=False))
        finally:
            engine.close()
        assert [r.registry.counter_value("parallel.chunks")
                for r in runs] == [2] * 4
        assert [_chunk_widths(r) for r in runs] == [[20_000, 20_000]] * 4

    def test_run_lanes_plans_alike_on_every_call(self, small_graph):
        """A 128-lane ``run_lanes`` on 2 workers is 2 chunks of 64 lanes
        on its first call and on every later call (serving)."""
        from repro.telemetry import MetricsRegistry

        starts = np.resize(np.arange(small_graph.num_vertices), 128)
        seeds = spawn_seeds(make_rng(0), 128)
        engine = ParallelBatchTeaEngine(small_graph, linear_walk(), workers=2,
                                        backend="thread")
        try:
            for _ in range(4):
                registry = MetricsRegistry()
                engine.run_lanes(starts, seeds, 6, registry=registry)
                assert registry.counter_value("parallel.chunks") == 2
                assert registry.gauge_value("parallel.chunk_size") == 64
        finally:
            engine.close()


# -- determinism matrix (warm pools / chunk plans) ---------------------------


class TestDeterminismMatrix:
    def test_chunking_warm_invariant(self, small_graph):
        """One seed, one answer: pinned vs planned chunks and a pool
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
            dict(chunk_size=1),
            dict(chunk_size=40),
            dict(chunk_size=16),
            dict(chunk_size=None),
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

    @needs_fork
    def test_dropped_engine_releases_its_process_pool(self, small_graph):
        """The pool holds its engine weakly: dropping the last user
        reference runs ``close()`` without a garbage-collection pass."""
        import weakref

        engine = ParallelBatchTeaEngine(
            small_graph, linear_walk(), workers=2, backend="process",
            chunk_size=16,
        )
        engine.run(Workload(walks_per_vertex=1, max_length=4), seed=0,
                   record_paths=False)
        pool = engine._pools["process"]
        assert pool.warm
        alive = weakref.ref(engine)
        del engine
        assert alive() is None
        assert pool.executor is None

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


# -- one determinism class ---------------------------------------------------


def _lanes_of(workload, num_vertices, seed):
    """The starts and per-walk seeds ``run(workload, seed)`` draws."""
    rng = make_rng(seed)
    starts = workload.resolve_starts(num_vertices, rng)
    return starts, spawn_seeds(rng, starts.size)


class TestOneDeterminismClass:
    """``BatchTeaEngine.run(seed)`` ≡ ``ParallelBatchTeaEngine.run(seed)``
    on every backend and chunking ≡ ``run_lanes`` over the seeds ``run``
    draws — walks and counters, bit for bit."""

    @pytest.mark.parametrize("stop, crash", [(0.0, False), (0.1, False), (0.1, True)],
                             ids=["0.0", "0.1", "0.1-crash"])
    @pytest.mark.parametrize("spec", [exponential_walk(scale=20.0),
                                      temporal_node2vec(p=4.0, q=0.25, scale=20.0)],
                             ids=["exponential", "node2vec"])
    def test_run_parallel_and_run_lanes_agree(self, medium_graph, spec, stop,
                                              crash):
        """``crash``: every run's chunk 0 dies on its first attempt (a
        process worker by ``os._exit``) and is retried."""
        workload = Workload(walks_per_vertex=4, max_length=12,
                            stop_probability=stop, max_walks=790)
        serial = BatchTeaEngine(medium_graph, spec)
        ref = serial.run(workload, seed=5)
        assert ref.total_steps > 0
        starts, seeds = _lanes_of(workload, medium_graph.num_vertices, 5)
        counters = CostCounters()
        lanes = serial.run_lanes(starts, seeds, 12, stop_probability=stop,
                                 counters=counters)
        assert _paths_equal(lanes.materialise_paths(), ref.paths)
        assert counters.snapshot() == ref.counters.snapshot()
        backends = ["serial", "thread"] + (["process"] if HAVE_FORK else [])
        for backend in backends:
            injector = FaultInjector.from_plan({"rules": [
                {"site": "chunk", "kind": "worker_crash", "chunks": [0]}]}
            ) if crash else None
            engine = ParallelBatchTeaEngine(medium_graph, spec, workers=2,
                                            backend=backend,
                                            fault_injector=injector)
            try:
                for chunk_size in (1, 777, 790, None):  # 790: the whole run
                    engine.chunk_size = chunk_size
                    got = engine.run(workload, seed=5)
                    assert _paths_equal(got.paths, ref.paths), (backend, chunk_size)
                    assert got.counters.snapshot() == ref.counters.snapshot()
                    assert engine.last_events["chunk_retries"] >= crash
                    if chunk_size == 1 and not crash:
                        assert engine.last_backend == backend
            finally:
                engine.close()

    def test_out_of_core_run_is_its_run_lanes(self, small_graph):
        from repro.engines import BatchTeaOutOfCoreEngine

        workload = Workload(walks_per_vertex=3, max_length=10, max_walks=100)
        engine = BatchTeaOutOfCoreEngine(small_graph, temporal_node2vec(),
                                         trunk_size=8)
        ref = engine.run(workload, seed=2)
        starts, seeds = _lanes_of(workload, small_graph.num_vertices, 2)
        counters = CostCounters()
        lanes = engine.run_lanes(starts, seeds, 10, counters=counters)
        assert _paths_equal(lanes.materialise_paths(), ref.paths)
        assert {k: v for k, v in counters.snapshot().items() if "io" not in k} \
            == {k: v for k, v in ref.counters.snapshot().items() if "io" not in k}

    @pytest.mark.parametrize("width", [1, 7, 64, 300],
                             ids=["w1", "w7", "w64", "one-slice"])
    @pytest.mark.parametrize("spec", [exponential_walk(scale=20.0),
                                      temporal_node2vec(p=4.0, q=0.25, scale=20.0)],
                             ids=["exponential", "node2vec"])
    def test_every_frontier_width_walks_the_same_bits(self, medium_graph, spec,
                                                       width, monkeypatch):
        """``FRONTIER_LANES`` (patched here as a test seam) changes only how
        many lanes one frontier holds: every run below equals one frontier
        over all of its 300 walks, walk for walk and counter for counter."""
        from repro.engines import BatchTeaOutOfCoreEngine
        from repro.engines import batch

        workloads = [Workload(walks_per_vertex=2, max_length=8,
                              stop_probability=stop, max_walks=300)
                     for stop in (0.0, 0.1)]
        ooc = BatchTeaOutOfCoreEngine(medium_graph, spec, trunk_size=8)
        refs = [(BatchTeaEngine(medium_graph, spec).run(wl, seed=5),
                 ooc.run(wl, seed=5)) for wl in workloads]
        monkeypatch.setattr(batch, "FRONTIER_LANES", width)

        def same(got, ref, record, io=True):
            """``io=False``: the out-of-core I/O ledger depends on what
            the engine's cache held from earlier runs, so it is left out."""
            assert {k: v for k, v in got.counters.snapshot().items()
                    if io or "io" not in k} \
                == {k: v for k, v in ref.counters.snapshot().items()
                    if io or "io" not in k}
            assert got.registry.histogram("walk.length").snapshot() \
                == ref.registry.histogram("walk.length").snapshot()
            return _paths_equal(got.paths, ref.paths if record else [])

        serial = BatchTeaEngine(medium_graph, spec)
        backends = ["serial", "thread"] + (["process"] if HAVE_FORK else [])
        parallel = [ParallelBatchTeaEngine(medium_graph, spec, workers=2,
                                           backend=backend)
                    for backend in backends]
        try:
            for wl, (ref, ooc_ref) in zip(workloads, refs):
                starts, seeds = _lanes_of(wl, medium_graph.num_vertices, 5)
                for record in (True, False):
                    assert same(serial.run(wl, seed=5, record_paths=record),
                                ref, record)
                    counters = CostCounters()
                    lanes = serial.run_lanes(
                        starts, seeds, wl.max_length, wl.stop_probability,
                        keep_hops=record, counters=counters)
                    assert counters.snapshot() == ref.counters.snapshot()
                    assert lanes.lengths.tolist() == [p.num_edges
                                                      for p in ref.paths]
                    assert _paths_equal(lanes.materialise_paths(),
                                        ref.paths if record else [])
                    for engine in parallel:
                        for chunk_size in (1, 777, None):
                            engine.chunk_size = chunk_size
                            got = engine.run(wl, seed=5, record_paths=record)
                            assert same(got, ref, record), (
                                engine.backend, chunk_size)
                    assert same(ooc.run(wl, seed=5, record_paths=record),
                                ooc_ref, record, io=False)
        finally:
            for engine in parallel:
                engine.close()


class TestThreadedSlicesThenPools:
    """A threaded ``BatchTeaEngine`` round leaves nothing behind: its
    pool lives for the call, so a parallel engine built after it — forked
    workers included — walks the inline bits and returns. A parallel
    chunk wider than ``FRONTIER_LANES`` walks its slices inline, never on
    a pool of its own."""

    #: Seconds before a hung run dumps every stack and ends the process.
    WATCHDOG_S = 120

    def test_threaded_round_then_both_pools(self, medium_graph, monkeypatch):
        import faulthandler
        import sys

        from repro.engines import batch

        spec = temporal_node2vec(p=4.0, q=0.25, scale=20.0)
        workload = Workload(walks_per_vertex=2, max_length=8, max_walks=300)
        ref = BatchTeaEngine(medium_graph, spec).run(workload, seed=5)
        monkeypatch.setattr(batch, "FRONTIER_LANES", 64)
        monkeypatch.setattr(batch, "usable_cpus", lambda: 2)
        faulthandler.dump_traceback_later(self.WATCHDOG_S, exit=True,
                                          file=sys.__stderr__)
        try:
            threaded = BatchTeaEngine(medium_graph, spec).run(workload, seed=5)
            walk = next(s for s in threaded.spans if s.name == "walk")
            assert walk.attributes["threads"] == 2
            assert _paths_equal(threaded.paths, ref.paths)
            monkeypatch.setattr(BatchTeaEngine, "_walk_threads", None)
            for backend in ["thread"] + (["process"] if HAVE_FORK else []):
                engine = ParallelBatchTeaEngine(medium_graph, spec, workers=2,
                                                chunk_size=150, backend=backend)
                try:
                    got = engine.run(workload, seed=5)
                finally:
                    engine.close()
                assert engine.last_backend == backend
                assert _paths_equal(got.paths, ref.paths), backend
                assert got.counters.snapshot() == ref.counters.snapshot()
        finally:
            faulthandler.cancel_dump_traceback_later()
