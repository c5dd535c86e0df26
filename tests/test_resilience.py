"""Resilience layer: fault injection, retry, checksums, supervision,
and streaming rollback."""

import json
import pickle

import numpy as np
import pytest

from repro.core.outofcore import (
    CHECKSUM_PAGE_ELEMS,
    TrunkStore,
    scrub_store,
)
from repro.engines.base import Workload
from repro.exceptions import (
    ChecksumError,
    FaultPlanError,
    NotSupportedError,
    TransientIOError,
    WorkerCrashError,
)
from repro.graph.edge_stream import EdgeStream
from repro.graph.temporal_graph import TemporalGraph
from repro.resilience import FaultInjector, FaultRule, RetryPolicy, is_transient
from repro.walks.apps import APPLICATIONS
from tests.ooc_oracle import TeaOutOfCoreEngine, read_alias_trunk, read_c


def exp_spec():
    return APPLICATIONS["exponential"]


# -- fault injector -----------------------------------------------------------


class TestFaultInjector:
    def test_calls_selector_fires_exactly_there(self):
        inj = FaultInjector.from_plan(
            {"rules": [{"site": "trunk_read", "kind": "io_error",
                        "calls": [1, 3]}]}
        )
        outcomes = []
        for _ in range(5):
            try:
                inj.check("trunk_read")
                outcomes.append("ok")
            except TransientIOError:
                outcomes.append("io")
        assert outcomes == ["ok", "io", "ok", "io", "ok"]

    def test_max_triggers_caps_firing(self):
        inj = FaultInjector.from_plan(
            {"rules": [{"site": "trunk_read", "kind": "io_error",
                        "max_triggers": 2}]}
        )
        fired = 0
        for _ in range(6):
            try:
                inj.check("trunk_read")
            except TransientIOError:
                fired += 1
        assert fired == 2
        assert inj.total_fired == 2

    def test_probability_is_deterministic_per_seed(self):
        def firing_pattern(seed):
            inj = FaultInjector.from_plan(
                {"seed": seed,
                 "rules": [{"site": "trunk_read", "kind": "io_error",
                            "probability": 0.5}]}
            )
            pattern = []
            for _ in range(40):
                try:
                    inj.check("trunk_read")
                    pattern.append(0)
                except TransientIOError:
                    pattern.append(1)
            return pattern

        a, b = firing_pattern(11), firing_pattern(11)
        assert a == b, "same seed must replay the same firing sequence"
        assert 0 < sum(a) < 40, "p=0.5 should fire sometimes, not always"
        assert firing_pattern(12) != a, "different seeds should differ"

    def test_chunk_key_selectors(self):
        inj = FaultInjector.from_plan(
            {"rules": [{"site": "chunk", "kind": "worker_crash",
                        "chunks": [2], "attempts": [0]}]}
        )
        assert inj.check("chunk", key=(1, 0)) is None
        with pytest.raises(WorkerCrashError) as err:
            inj.check("chunk", key=(2, 0))
        assert err.value.chunk_id == 2
        # The retry of the same chunk does not fire.
        assert inj.check("chunk", key=(2, 1)) is None

    def test_corrupt_block_returns_token(self):
        inj = FaultInjector.from_plan(
            {"rules": [{"site": "trunk_read", "kind": "corrupt_block",
                        "calls": [0]}]}
        )
        token = inj.check("trunk_read")
        assert isinstance(token, int)
        assert inj.check("trunk_read") is None

    def test_sites_are_independent(self):
        inj = FaultInjector.from_plan(
            {"rules": [{"site": "chunk", "kind": "io_error", "calls": [0]}]}
        )
        inj.check("trunk_read")  # consumes trunk_read call 0, not chunk's
        with pytest.raises(TransientIOError):
            inj.check("chunk")

    def test_prefetch_site_is_refused(self):
        """Nothing reads ahead, so a plan naming the ``prefetch`` site
        names a site that does not exist."""
        with pytest.raises(FaultPlanError, match="unknown fault site 'prefetch'"):
            FaultInjector.from_plan(
                {"rules": [{"site": "prefetch", "kind": "io_error"}]})

    def test_plan_from_file(self, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(
            {"rules": [{"site": "chunk", "kind": "worker_hang",
                        "seconds": 0.0}]}
        ))
        inj = FaultInjector.from_plan(str(plan))
        assert inj.rules[0].kind == "worker_hang"
        assert inj.rules[0].seconds == 0.0

    @pytest.mark.parametrize("bad", [
        {"rules": [{"site": "nope", "kind": "io_error"}]},
        {"rules": [{"site": "chunk", "kind": "nope"}]},
        {"rules": [{"site": "chunk", "kind": "io_error",
                    "probability": 1.5}]},
        {"rules": [{"kind": "io_error"}]},
        {"rules": [{"site": "chunk", "kind": "io_error", "bogus": 1}]},
        {"bogus": []},
        "not json {",
        "/no/such/plan-file.json",
        42,
    ])
    def test_malformed_plans_raise(self, bad):
        with pytest.raises(FaultPlanError):
            FaultInjector.from_plan(bad)

    def test_injector_pickles(self):
        inj = FaultInjector(
            [FaultRule(site="trunk_read", kind="io_error", max_triggers=1)],
            seed=3,
        )
        with pytest.raises(TransientIOError):
            inj.check("trunk_read")
        clone = pickle.loads(pickle.dumps(inj))
        assert clone.total_fired == 1
        assert clone.check("trunk_read") is None  # max_triggers carried over


# -- retry policy -------------------------------------------------------------


class TestRetryPolicy:
    def make(self, **kw):
        kw.setdefault("sleep", lambda s: None)
        return RetryPolicy(**kw)

    def test_transient_retried_then_succeeds(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise TransientIOError("flaky")
            return "done"

        retried = []
        policy = self.make(max_retries=3)
        assert policy.call(flaky, on_retry=lambda a, e: retried.append(a)) == "done"
        assert calls["n"] == 3
        assert retried == [0, 1]

    def test_budget_exhaustion_raises_original(self):
        policy = self.make(max_retries=2)
        with pytest.raises(TransientIOError):
            policy.call(lambda: (_ for _ in ()).throw(TransientIOError("x")))

    def test_fatal_errors_not_retried(self):
        calls = {"n": 0}

        def corrupt():
            calls["n"] += 1
            raise ChecksumError("bad page")

        policy = self.make(max_retries=5)
        with pytest.raises(ChecksumError):
            policy.call(corrupt)
        assert calls["n"] == 1, "ChecksumError must never be retried"

    def test_classification(self):
        assert is_transient(TransientIOError("x"))
        assert is_transient(OSError(5, "EIO"))
        assert not is_transient(OSError(2, "ENOENT"))
        assert not is_transient(ChecksumError("x"))
        assert not is_transient(ValueError("x"))

    def test_backoff_grows_and_jitter_is_seeded(self):
        a = self.make(max_retries=3, base_delay=0.01, multiplier=2.0,
                      max_delay=1.0, jitter=0.25, seed=5)
        b = self.make(max_retries=3, base_delay=0.01, multiplier=2.0,
                      max_delay=1.0, jitter=0.25, seed=5)
        da = [a.delay(k) for k in range(4)]
        db = [b.delay(k) for k in range(4)]
        assert da == db, "same-seed policies must produce the same jitter"
        for k, d in enumerate(da):
            base = 0.01 * 2.0**k
            assert base <= d <= base * 1.25

    def test_policy_pickles(self):
        policy = RetryPolicy(max_retries=1, seed=9)
        clone = pickle.loads(pickle.dumps(policy))
        assert clone.max_retries == 1 and clone.seed == 9


# -- checksummed trunk store --------------------------------------------------


@pytest.fixture(scope="module")
def ooc_graph():
    from repro.graph.generators import temporal_powerlaw

    return TemporalGraph.from_stream(
        temporal_powerlaw(num_vertices=40, num_edges=800, alpha=0.8,
                          time_horizon=100.0, seed=3)
    )


def persist_store(graph, directory):
    from repro.core.builder import build_pat
    from repro.core.weights import WeightModel

    weights = WeightModel("exponential", scale=2.0).compute(graph)
    pat = build_pat(graph, weights, trunk_size=8)
    return TrunkStore.persist(pat, directory)


class TestChecksums:
    def test_persist_writes_sidecars_and_manifest(self, ooc_graph, tmp_path):
        persist_store(ooc_graph, tmp_path)
        for name in ("c", "prob", "alias"):
            assert (tmp_path / f"{name}.bin").exists()
            assert (tmp_path / f"{name}.crc").exists()
        manifest = json.loads((tmp_path / "checksums.json").read_text())
        assert manifest["algorithm"] == "crc32"
        assert manifest["page_elems"] == CHECKSUM_PAGE_ELEMS

    def test_scrub_clean_store(self, ooc_graph, tmp_path):
        persist_store(ooc_graph, tmp_path)
        report = scrub_store(tmp_path)
        assert report["clean"] and not report["corrupt"]
        assert report["pages_checked"] > 0

    def test_single_bit_flip_always_caught(self, ooc_graph, tmp_path):
        """Property: per-page CRC32 catches ANY single-bit flip."""
        persist_store(ooc_graph, tmp_path)
        rng = np.random.default_rng(42)
        files = ["c.bin", "prob.bin", "alias.bin"]
        page_bytes = CHECKSUM_PAGE_ELEMS * 8
        for _ in range(25):
            name = files[int(rng.integers(len(files)))]
            path = tmp_path / name
            size = path.stat().st_size
            offset = int(rng.integers(size))
            bit = int(rng.integers(8))
            with open(path, "r+b") as fh:
                fh.seek(offset)
                byte = fh.read(1)[0]
                fh.seek(offset)
                fh.write(bytes([byte ^ (1 << bit)]))
            report = scrub_store(tmp_path)
            assert not report["clean"], (
                f"flip of bit {bit} at {name}:{offset} went undetected"
            )
            pages = [(r["file"], r["page"]) for r in report["corrupt"]]
            assert (name, offset // page_bytes) in pages, (
                f"scrub did not locate the flipped page: {report['corrupt']}"
            )
            with open(path, "r+b") as fh:  # restore for the next trial
                fh.seek(offset)
                fh.write(bytes([byte]))
        assert scrub_store(tmp_path)["clean"]

    def test_verified_read_raises_on_corruption(self, ooc_graph, tmp_path):
        persist_store(ooc_graph, tmp_path)
        with open(tmp_path / "c.bin", "r+b") as fh:
            fh.seek(64)
            byte = fh.read(1)[0]
            fh.seek(64)
            fh.write(bytes([byte ^ 0x10]))
        store = TrunkStore(tmp_path, verify_checksums=True).open()
        try:
            with pytest.raises(ChecksumError) as err:
                read_c(store, 0, 16, None)
            assert err.value.page == 0
            assert "c.bin" in str(err.value)
        finally:
            store.close()

    def test_unverified_read_still_fast_path(self, ooc_graph, tmp_path):
        """No verification, no injector: reads skip the checked path."""
        persist_store(ooc_graph, tmp_path)
        with open(tmp_path / "c.bin", "r+b") as fh:
            fh.seek(64)
            byte = fh.read(1)[0]
            fh.seek(64)
            fh.write(bytes([byte ^ 0x10]))
        store = TrunkStore(tmp_path).open()
        try:
            read_c(store, 0, 16, None)  # corrupt but unchecked: no raise
        finally:
            store.close()

    def test_verify_requires_manifest(self, ooc_graph, tmp_path):
        persist_store(ooc_graph, tmp_path)
        (tmp_path / "checksums.json").unlink()
        with pytest.raises(ChecksumError):
            TrunkStore(tmp_path, verify_checksums=True).open()

    def test_scrub_flags_truncated_file(self, ooc_graph, tmp_path):
        persist_store(ooc_graph, tmp_path)
        path = tmp_path / "alias.bin"
        with open(path, "r+b") as fh:
            fh.truncate(max(8, path.stat().st_size // 2))
        report = scrub_store(tmp_path)
        assert not report["clean"]

    def test_injected_corruption_caught_in_engine_run(self, ooc_graph):
        inj = FaultInjector.from_plan(
            {"rules": [{"site": "trunk_read", "kind": "corrupt_block",
                        "calls": [2]}]}
        )
        engine = TeaOutOfCoreEngine(
            ooc_graph, exp_spec(), verify_checksums=True, fault_injector=inj
        )
        with pytest.raises(ChecksumError):
            engine.run(Workload(walks_per_vertex=1, max_length=20), seed=0,
                       record_paths=False)

    def test_flipped_bit_raises_from_batched_run(self, tmp_path):
        """Vectorised reads verify every distinct CRC page under a
        batch's misses once, before its bytes are served."""
        from repro.engines.tea_outofcore import BatchTeaOutOfCoreEngine
        from repro.graph.generators import temporal_powerlaw

        graph = TemporalGraph.from_stream(
            temporal_powerlaw(num_vertices=120, num_edges=6000, alpha=0.8,
                              time_horizon=100.0, seed=3))
        workload = Workload(walks_per_vertex=2, max_length=20)

        def engine():
            return BatchTeaOutOfCoreEngine(
                graph, exp_spec(), storage_dir=str(tmp_path),
                verify_checksums=True)

        clean = engine()
        clean.run(workload, seed=0, record_paths=False)  # verified, intact
        clean.index.store.close()
        offset = 3 * CHECKSUM_PAGE_ELEMS * 8 + 200  # page 3 of 5+
        with open(tmp_path / "prob.bin", "r+b") as fh:
            fh.seek(offset)
            byte = fh.read(1)[0]
        bad = engine()
        bad.prepare()  # persists afresh; corrupt the new file
        with open(tmp_path / "prob.bin", "r+b") as fh:
            fh.seek(offset)
            fh.write(bytes([byte ^ 0x04]))
        store = bad.index.store
        read_alias_trunk(store, 0, 8, None)  # page 0 is intact
        with pytest.raises(ChecksumError) as err:
            bad.run(workload, seed=0, record_paths=False)
        assert err.value.page == 3 and "prob.bin" in str(err.value)

    def test_transient_io_retried_and_counted(self, ooc_graph):
        workload = Workload(walks_per_vertex=1, max_length=15)
        baseline = TeaOutOfCoreEngine(ooc_graph, exp_spec()).run(
            workload, seed=1
        )
        inj = FaultInjector.from_plan(
            {"rules": [{"site": "trunk_read", "kind": "io_error",
                        "max_triggers": 3}]}
        )
        engine = TeaOutOfCoreEngine(
            ooc_graph, exp_spec(),
            retry_policy=RetryPolicy(max_retries=4, base_delay=0.0005),
            fault_injector=inj,
        )
        result = engine.run(workload, seed=1)
        assert [w.hops for w in result.paths] == [w.hops for w in baseline.paths]
        assert engine.index.store.io_retries == 3
        assert result.registry.counter(
            "resilience.io_retries",
            "transient trunk-read failures retried",
        ).value == 3

    def test_retry_budget_exhaustion_propagates(self, ooc_graph):
        inj = FaultInjector.from_plan(
            {"rules": [{"site": "trunk_read", "kind": "io_error"}]}
        )
        engine = TeaOutOfCoreEngine(
            ooc_graph, exp_spec(),
            retry_policy=RetryPolicy(max_retries=2, base_delay=0.0005),
            fault_injector=inj,
        )
        with pytest.raises(TransientIOError):
            engine.run(Workload(walks_per_vertex=1, max_length=10), seed=0,
                       record_paths=False)


# -- worker supervision -------------------------------------------------------


@pytest.fixture(scope="module")
def par_graph():
    from repro.graph.generators import temporal_powerlaw

    return TemporalGraph.from_stream(
        temporal_powerlaw(num_vertices=48, num_edges=600, alpha=0.8,
                          time_horizon=100.0, seed=5)
    )


class TestWorkerSupervision:
    def make_engine(self, graph, injector=None, **kw):
        from repro.parallel.engine import ParallelBatchTeaEngine

        kw.setdefault("backend", "thread")
        kw.setdefault("workers", 2)
        kw.setdefault("chunk_size", 12)
        return ParallelBatchTeaEngine(
            graph, exp_spec(), fault_injector=injector, **kw
        )

    def test_crashed_chunk_retried_bit_identical(self, par_graph):
        workload = Workload(walks_per_vertex=1, max_length=10)
        baseline = self.make_engine(par_graph).run(workload, seed=0)
        inj = FaultInjector.from_plan(
            {"rules": [{"site": "chunk", "kind": "worker_crash",
                        "chunks": [1], "attempts": [0]}]}
        )
        engine = self.make_engine(par_graph, inj, retries=2)
        result = engine.run(workload, seed=0)
        assert [w.hops for w in result.paths] == [w.hops for w in baseline.paths]
        assert engine.last_events["chunk_retries"] >= 1
        assert result.registry.counter(
            "parallel.chunk_retries", "chunk executions repeated"
        ).value >= 1

    def test_retry_budget_exhaustion_raises(self, par_graph):
        inj = FaultInjector.from_plan(
            {"rules": [{"site": "chunk", "kind": "worker_crash",
                        "chunks": [0], "attempts": [0, 1, 2, 3]}]}
        )
        engine = self.make_engine(par_graph, inj, retries=1)
        with pytest.raises(WorkerCrashError) as err:
            engine.run(Workload(walks_per_vertex=1, max_length=5), seed=0,
                       record_paths=False)
        assert err.value.chunk_id == 0
        assert err.value.attempts == 2  # initial + 1 retry

    def test_hang_times_out_and_degrades(self, par_graph):
        workload = Workload(walks_per_vertex=1, max_length=10)
        baseline = self.make_engine(par_graph).run(workload, seed=4)
        inj = FaultInjector.from_plan(
            {"rules": [{"site": "chunk", "kind": "worker_hang",
                        "chunks": [0], "attempts": [0], "seconds": 1.0}]}
        )
        engine = self.make_engine(par_graph, inj, retries=2,
                                  chunk_timeout=0.2)
        result = engine.run(workload, seed=4)
        assert [w.hops for w in result.paths] == [w.hops for w in baseline.paths]
        assert "serial" in engine.last_events["degraded"]
        assert engine.last_backend == "serial"
        assert result.registry.counter_value("resilience.degraded") >= 1

    def test_serial_backend_retries_inline(self, par_graph):
        workload = Workload(walks_per_vertex=1, max_length=10)
        baseline = self.make_engine(par_graph, backend="serial").run(
            workload, seed=0
        )
        inj = FaultInjector.from_plan(
            {"rules": [{"site": "chunk", "kind": "worker_crash",
                        "chunks": [0, 2], "attempts": [0]}]}
        )
        engine = self.make_engine(par_graph, inj, backend="serial", retries=2)
        result = engine.run(workload, seed=0)
        assert [w.hops for w in result.paths] == [w.hops for w in baseline.paths]
        assert engine.last_events["chunk_retries"] == 2

    def test_process_worker_real_crash_recovered(self, par_graph):
        """A forked worker dies with os._exit; the pool breaks; the run
        still completes bit-identical."""
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        workload = Workload(walks_per_vertex=1, max_length=8)
        baseline = self.make_engine(par_graph, backend="process").run(
            workload, seed=0
        )
        inj = FaultInjector.from_plan(
            {"rules": [{"site": "chunk", "kind": "worker_crash",
                        "chunks": [1], "attempts": [0]}]}
        )
        engine = self.make_engine(par_graph, inj, backend="process",
                                  retries=2)
        result = engine.run(workload, seed=0)
        assert [w.hops for w in result.paths] == [w.hops for w in baseline.paths]
        assert engine.last_events["chunk_retries"] >= 1

    def test_warm_pool_rebuilt_after_crash_stays_deterministic(self, par_graph):
        """A worker death mid-run condemns the warm pool; the *same*
        engine's next run must transparently rebuild it (generation
        bump) and still walk bit-identical paths."""
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        workload = Workload(walks_per_vertex=1, max_length=8)
        clean = self.make_engine(par_graph, backend="process")
        baseline = clean.run(workload, seed=0)
        clean.close()
        inj = FaultInjector.from_plan(
            {"rules": [{"site": "chunk", "kind": "worker_crash",
                        "chunks": [1], "attempts": [0]}]}
        )
        engine = self.make_engine(par_graph, inj, backend="process",
                                  retries=2)
        try:
            r1 = engine.run(workload, seed=0)
            # The os._exit crash broke the process pool mid-run.
            gen1 = engine._pools["process"].generation
            assert engine._pools["process"].broken
            # Second run: the injector fires on (chunk 1, attempt 0)
            # again, so this exercises rebuild-under-fire too.
            r2 = engine.run(workload, seed=0)
            assert engine._pools["process"].generation > gen1
            assert engine.last_pool["builds"] >= 1
        finally:
            engine.close()
        hops = [w.hops for w in baseline.paths]
        assert [w.hops for w in r1.paths] == hops
        assert [w.hops for w in r2.paths] == hops


# -- streaming rollback -------------------------------------------------------


class TestStreamingRollback:
    def snapshot(self, index):
        return {
            v: tuple(a.copy() for a in vert.edges_desc())
            for v, vert in index.vertices.items()
        }

    def assert_state_equal(self, index, state):
        assert set(index.vertices) == set(state)
        for v, arrays in state.items():
            got = index.vertices[v].edges_desc()
            assert all(np.array_equal(g, r) for g, r in zip(got, arrays))

    def test_validation_error_mid_batch_rolls_back(self):
        from repro.core.incremental import IncrementalHPAT
        from repro.core.weights import WeightModel

        index = IncrementalHPAT(WeightModel("uniform"))
        index.apply_batch(EdgeStream([0, 1], [1, 0], [5.0, 6.0]))
        before = self.snapshot(index)
        # Vertex 1's group violates stream order (4.0 < its newest 6.0)
        # after vertex 0's group already applied.
        bad = EdgeStream([0, 1], [2, 2], [7.0, 4.0], sort=False)
        with pytest.raises(NotSupportedError):
            index.apply_batch(bad)
        assert index.num_edges == 2
        assert index.rollbacks == 1
        self.assert_state_equal(index, before)

    def test_injected_fault_mid_batch_rolls_back_and_retry_lands(self):
        from repro.core.incremental import IncrementalHPAT
        from repro.core.weights import WeightModel

        inj = FaultInjector.from_plan(
            {"rules": [{"site": "streaming_apply", "kind": "io_error",
                        "calls": [1]}]}
        )
        index = IncrementalHPAT(WeightModel("exponential", scale=2.0),
                                fault_injector=inj)
        batch = EdgeStream([0, 1, 2], [1, 2, 0], [1.0, 2.0, 3.0])
        with pytest.raises(TransientIOError):
            index.apply_batch(batch)
        assert index.num_edges == 0
        assert not index.vertices, "created vertices must be dropped"
        # Retry after the fault clears: lands exactly like a clean ingest.
        index.apply_batch(batch)
        reference = IncrementalHPAT(WeightModel("exponential", scale=2.0))
        reference.apply_batch(EdgeStream([0, 1, 2], [1, 2, 0],
                                         [1.0, 2.0, 3.0]))
        assert index.num_edges == reference.num_edges
        self.assert_state_equal(index, self.snapshot(reference))

    def test_streaming_engine_counts_rollbacks(self):
        from repro.streaming.batch import StreamingTeaEngine

        inj = FaultInjector.from_plan(
            {"rules": [{"site": "streaming_apply", "kind": "io_error",
                        "calls": [0]}]}
        )
        engine = StreamingTeaEngine(exp_spec(), fault_injector=inj)
        with pytest.raises(TransientIOError):
            engine.apply_batch(EdgeStream([0], [1], [1.0]))
        snap = engine.telemetry_snapshot()
        assert snap.counter(
            "resilience.rollbacks", "streaming batches rolled back"
        ).value == 1
        # The failed batch is not in the ingestion ledger.
        assert engine.num_edges == 0


# -- dead-end termination regression -----------------------------------------


def dead_end_graph():
    """Vertex 2 is a sink (in-edges only); vertex 3 is fully isolated
    as a start (no out-edges at all)."""
    return TemporalGraph.from_stream(EdgeStream(
        [0, 0, 1, 1], [1, 2, 2, 0], [1.0, 2.0, 3.0, 4.0]
    ))


DEAD_END_ENGINES = [
    "tea", "tea-batch", "tea-pat", "tea-its", "tea-ooc", "tea-ooc-batch",
    "graphwalker", "knightking", "ctdne", "tea-parallel",
]


class TestDeadEndTermination:
    @pytest.mark.parametrize("name", DEAD_END_ENGINES)
    def test_walks_reaching_dead_end_terminate(self, name):
        """Regression: a walk hitting a vertex with no (temporal)
        out-candidates must end the walk, never raise."""
        from repro.cli import ENGINES

        factories = {**ENGINES, "tea-ooc": TeaOutOfCoreEngine}
        graph = dead_end_graph()
        engine = factories[name](graph, exp_spec())
        result = engine.run(
            Workload(walks_per_vertex=2, max_length=10), seed=0
        )
        assert len(result.paths) == 2 * graph.num_vertices
        for path in result.paths:
            assert path.num_edges <= 10

    def test_streaming_walk_from_dead_end(self):
        from repro.streaming.batch import StreamingTeaEngine

        engine = StreamingTeaEngine(exp_spec())
        engine.apply_batch(EdgeStream([0, 1], [2, 2], [1.0, 2.0]))
        walk = engine.run_walks([2], max_length=5, seed=0)[0]  # sink: no out-edges
        assert walk.num_edges == 0


# -- CLI ----------------------------------------------------------------------


class TestCli:
    def test_scrub_clean_and_corrupt_exit_codes(self, ooc_graph, tmp_path,
                                                capsys):
        from repro.cli import main

        persist_store(ooc_graph, tmp_path)
        assert main(["scrub", str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out
        with open(tmp_path / "prob.bin", "r+b") as fh:
            fh.seek(32)
            byte = fh.read(1)[0]
            fh.seek(32)
            fh.write(bytes([byte ^ 0x01]))
        assert main(["scrub", str(tmp_path)]) == 1
        assert "CORRUPT" in capsys.readouterr().out

    def test_scrub_unreadable_store_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["scrub", str(tmp_path / "missing")]) == 2
        assert "cannot open" in capsys.readouterr().err

    def test_tea_error_maps_to_exit_2(self, capsys):
        from repro.cli import main

        code = main([
            "walk", "--dataset", "tiny", "--engine", "tea", "--length", "3",
            "--max-walks", "5",
            "--fault-plan", '{"rules": [{"site": "bad", "kind": "io_error"}]}',
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_walk_with_resilience_flags(self, capsys):
        from repro.cli import main

        code = main([
            "walk", "--dataset", "tiny", "--engine", "tea-ooc-batch",
            "--app", "exponential", "--length", "5", "--max-walks", "10",
            "--verify-checksums", "--retries", "3",
            "--fault-plan",
            '{"rules": [{"site": "trunk_read", "kind": "io_error",'
            ' "max_triggers": 1}]}',
        ])
        assert code == 0
