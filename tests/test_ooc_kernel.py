"""The compiled out-of-core draw of the ``c`` backend — the fused
iteration ``ooc_step`` and the call sequence it fuses (``ooc_plan`` /
``ooc_select`` / ``ooc_alias`` around ``TrunkStore.read_batch``) —
against the numpy lockstep it replaces on the hot path.

The numpy code in ``engines/tea_outofcore/batch.py`` is the
specification: under ``c`` a walk must be the same walk bit for bit —
paths, hop times, ``LaneRng`` counters, ``CostCounters`` — and, because
the pool sees the same lookups and admissions in the same order, the
store must see the same backing reads and cache traffic. Bad lanes raise
``IndexError`` under both backends before any byte is read, and a run
under ``c`` must really use the compiled code: an index whose arrays
do not bind would walk the numpy lockstep and agree vacuously.
"""

import collections
import faulthandler
import gc
import multiprocessing
import os
import sys
import weakref

import numpy as np
import pytest

from repro.core.frame_pool import FramePool
from repro.core.outofcore import TrunkStore
from repro.engines import (
    BatchTeaEngine, BatchTeaOutOfCoreEngine, ParallelBatchTeaEngine, Workload,
)
from repro.engines import batch
from repro.graph.temporal_graph import TemporalGraph
from repro.kernels import (
    KernelBackend, KernelScratch, WalkState, c_backend, resolve_backend,
)
from repro.resilience import FaultInjector
from repro.rng import LaneRng
from repro.sampling.counters import CostCounters
from repro.telemetry import MetricsRegistry, events
from repro.walks.apps import exponential_walk, linear_walk, temporal_node2vec

needs_cc = pytest.mark.skipif(c_backend.find_cc() is None,
                              reason="needs a C compiler")
OOC_MEMBERS = ("ooc_plan", "ooc_select", "ooc_alias")

APPS = {
    "exp": (exponential_walk(scale=10.0), 0.0),
    "exp-stop": (exponential_walk(scale=10.0), 0.15),
    "n2v": (temporal_node2vec(p=0.5, q=2.0), 0.0),
}


@pytest.fixture(scope="module")
def graph() -> TemporalGraph:
    """Degrees 1–120, so trunks of 4 and 10 leave aligned and ragged
    candidate sizes, and degree-1 vertices sit beside hubs."""
    rng = np.random.default_rng(34)
    degrees = rng.choice([1, 1, 2, 3, 4, 7, 10, 13, 40, 120], size=60)
    return TemporalGraph.from_edges(
        (u, int(rng.integers(0, 60)), float(rng.uniform(0.0, 100.0)))
        for u, d in enumerate(degrees) for _ in range(d))


def counting(backend: KernelBackend, calls: list) -> KernelBackend:
    """``backend`` with its out-of-core members logging ``(name, args,
    result)``; a bound ``ooc_step`` logs each call as ``("step", (),
    threads it ran on)``."""
    def wrap(name):
        member = getattr(backend, name)

        def logged(*args):
            calls.append((name, args, member(*args)))
            return calls[-1][2]
        return logged

    def bind(*args):
        step = backend.ooc_step(*args)
        calls.append(("ooc_step", args, step))
        if step is None:
            return None

        def logged(*args):
            out = step(*args)
            calls.append(("step", (), step.threads))
            return out
        return logged
    return KernelBackend(**{
        **vars(backend), **{name: wrap(name) for name in OOC_MEMBERS},
        "ooc_step": bind if backend.ooc_step is not None else None})


def make_engine(graph, spec, trunk_size, kernel, **kwargs):
    engine = BatchTeaOutOfCoreEngine(graph, spec, trunk_size=trunk_size or 10,
                                     **kwargs)
    engine.trunk_size = trunk_size  # None: build_pat's sqrt rule
    engine.kernel = kernel
    return engine


def observe(graph, app, trunk_size, kernel, cache_bytes):
    """Everything a run exposes: a raw frontier (stream counters
    included), ``run`` and ``run_lanes``, then the store's ledger."""
    spec, stop = APPS[app]
    engine = make_engine(graph, spec, trunk_size, kernel,
                         cache_bytes=cache_bytes)
    engine.prepare()
    V = graph.num_vertices
    starts = np.repeat(np.arange(V), 3)
    seeds = np.arange(starts.size, dtype=np.uint64) * 7919 + 11
    lane_rng, counters = LaneRng(seeds), CostCounters()
    frontier = engine._run_frontier(starts, 12, stop, lane_rng, counters, True)
    seen = [frontier.lengths, frontier.hop_vertex, frontier.hop_time,
            lane_rng._ctr, counters.snapshot()]
    result = engine.run(Workload(walks_per_vertex=2, max_length=12,
                                 stop_probability=stop), seed=5)
    seen += [[(p.vertices, p.times) for p in result.paths],
             result.counters.snapshot()]
    counters = CostCounters()
    lanes = engine.run_lanes(starts[::-1].copy(), seeds, 12, stop, True, counters)
    seen += [lanes.lengths, lanes.hop_vertex, lanes.hop_time, counters.snapshot()]
    store = engine.index.store
    seen += [store.read_ops, store.cache.stats.snapshot()]
    return seen


def sequence_of(kernel: KernelBackend) -> KernelBackend:
    """``kernel`` without its fused step: the call sequence serves."""
    return KernelBackend(**{**vars(kernel), "ooc_step": None})


def ledger(graph, app, trunk_size, kernel, cache_bytes):
    """A ``run`` and a ``run_lanes`` through ``counting(kernel)``: paths,
    ``run_lanes`` walks, costs, ``read_ops``, every ``CacheStats`` field,
    the ``cache.*`` event totals, both ``ooc.*`` byte histograms and the
    pool's columns, index and clock; then the calls logged."""
    spec, stop = ((linear_walk(), 0.0) if app == "linear" else APPS[app])
    log, calls = events.EventLog(), []
    previous = events.install(log)
    try:
        engine = make_engine(graph, spec, trunk_size, counting(kernel, calls),
                             cache_bytes=cache_bytes)
        result = engine.run(Workload(walks_per_vertex=2, max_length=12,
                                     stop_probability=stop), seed=5)
        starts = np.arange(graph.num_vertices)
        counters = CostCounters()
        lanes = engine.run_lanes(starts, starts * 3 + 1, 10, stop, True,
                                 counters)
    finally:
        events.install(previous)
    store = engine.index.store
    totals = collections.Counter()
    for event in log.events:
        if event["kind"].startswith("cache."):
            totals[event["kind"]] += 1
            totals[event["kind"] + ".count"] += event["count"]
            totals[event["kind"] + ".nbytes"] += event["nbytes"]
    seen = [[(p.vertices, p.times) for p in result.paths],
            result.counters.snapshot(), lanes.hop_vertex, lanes.hop_time,
            lanes.lengths, counters.snapshot(), store.read_ops,
            store.cache.stats.snapshot(), totals]
    seen += [(h.count, h.total, h.zero_count, h.min, h.max, h.counts)
             for h in (store.read_bytes_hist, store.coalesced_hist)]
    return seen + c_backend._pool_state(store.cache), calls


def assert_same(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and np.array_equal(x, y)
        else:
            assert x == y


@needs_cc
class TestCompiledParity:
    """``c`` ≡ ``numpy`` on ``BatchTeaOutOfCoreEngine``, bit for bit, on
    the trunk-size × pool grid (part of ``make ooc-smoke``)."""

    @pytest.mark.parametrize("app", sorted(APPS))
    @pytest.mark.parametrize("trunk_size", [1, 4, 10, None],
                             ids=["ts1", "ts4", "ts10", "sqrt"])
    @pytest.mark.parametrize("cache_bytes", [0, 2 << 10, 1 << 20],
                             ids=["uncached", "starved", "fits"])
    def test_walks_costs_and_reads_match_numpy(self, graph, app, trunk_size,
                                               cache_bytes):
        calls = []
        compiled = observe(graph, app, trunk_size,
                           counting(resolve_backend("c"), calls), cache_bytes)
        assert_same(observe(graph, app, trunk_size, resolve_backend("numpy"),
                            cache_bytes), compiled)
        names = {name for name, _, _ in calls}
        if app != "n2v":  # one compiled call per iteration
            assert names == {"ooc_step", "step"}
            assert None not in [step for name, _, step in calls
                                if name == "ooc_step"]
            return
        assert names == set(OOC_MEMBERS)  # β: the call sequence
        plans = [(args[1].size, result) for name, args, result in calls
                 if name == "ooc_plan"]
        assert None not in [result for _, result in plans]  # no numpy fallback
        if trunk_size == 4:  # some steps mix aligned and ragged lanes
            assert any(0 < result[0].size < n for n, result in plans)

    @pytest.mark.parametrize("app", ["linear", "exp", "n2v", "exp-stop"])
    @pytest.mark.parametrize("cache_bytes", [0, 64 << 10, 4 << 20],
                             ids=["uncached", "64KiB", "4MiB"])
    @pytest.mark.parametrize("trunk_size", [4, 10, None],
                             ids=["ts4", "ts10", "sqrt"])
    def test_fused_step_matches_the_call_sequence(self, medium_graph, app,
                                                  cache_bytes, trunk_size):
        """``ooc_step`` ≡ the call sequence it fuses, under ``c`` both:
        paths, ``run_lanes`` walks, costs, ``read_ops``, every
        ``CacheStats`` field, both ``ooc.*`` byte histograms, the
        ``cache.*`` event totals and the pool's columns, index and clock.
        At 64 KiB the linear walk starves the pool (victims); node2vec
        takes the sequence on both sides."""
        compiled = resolve_backend("c")
        fused, calls = ledger(medium_graph, app, trunk_size, compiled,
                              cache_bytes)
        sequence, sequence_calls = ledger(medium_graph, app, trunk_size,
                                          sequence_of(compiled), cache_bytes)
        names = {name for name, _, _ in calls}
        members = {name for name, _, _ in sequence_calls}
        assert_same(sequence, fused)
        assert set(OOC_MEMBERS) <= members and "step" not in members
        assert names == (set(OOC_MEMBERS) if app == "n2v"
                         else {"ooc_step", "step"})
        stats = fused[7]
        if cache_bytes == 64 << 10 and app == "linear":
            assert stats["evictions"] and stats["hits"]

    def test_an_index_that_does_not_bind_walks_the_numpy_lockstep(self, graph):
        """A strided ``tr_prefix`` does not fit the ABI: every plan says
        so, nothing compiled draws, and the walks are numpy's."""
        def run(kernel, strided):
            engine = make_engine(graph, APPS["exp"][0], 4, kernel)
            engine.prepare()
            if strided:
                engine.index.tr_prefix = np.repeat(engine.index.tr_prefix, 2)[::2]
            return engine.run_lanes(np.arange(60), np.arange(60) + 9, 12)

        calls = []
        strided = run(counting(resolve_backend("c"), calls), True)
        plain = run(resolve_backend("numpy"), False)
        assert {(name, result) for name, _, result in calls} == {
            ("ooc_step", None), ("ooc_plan", None)}
        for got, want in ((strided.hop_vertex, plain.hop_vertex),
                          (strided.hop_time, plain.hop_time),
                          (strided.lengths, plain.lengths)):
            assert np.array_equal(got, want)


@needs_cc
class TestStepThreads:
    """``ooc_step`` runs its per-lane passes on ``usable_cpus()`` threads
    (patched to 1, 2 and 7; ``c_backend.GRAIN`` lowered to one lane so
    every iteration splits) and its pool passes on the calling thread:
    walks, costs, every pool count and the pool itself are those of the
    inline step and of the call sequence, and no thread outlives a call
    (part of ``make ooc-smoke``)."""

    #: Seconds before a hung run dumps every stack and ends the process.
    WATCHDOG_S = 120

    @pytest.mark.parametrize("app", ["exp", "exp-stop"])
    @pytest.mark.parametrize("cache_bytes", [0, 64 << 10, 4 << 20],
                             ids=["uncached", "64KiB", "4MiB"])
    def test_every_thread_count_walks_the_same_bits(self, medium_graph,
                                                    monkeypatch, app,
                                                    cache_bytes):
        compiled = resolve_backend("c")
        sequence, _ = ledger(medium_graph, app, 10, sequence_of(compiled),
                             cache_bytes)
        monkeypatch.setattr(c_backend, "GRAIN", 1)
        for threads in (1, 2, 7):
            monkeypatch.setattr(batch, "usable_cpus", lambda: threads)
            fused, calls = ledger(medium_graph, app, 10, compiled, cache_bytes)
            assert_same(sequence, fused)
            ran = [n for name, _, n in calls if name == "step"]
            assert ran and max(ran) <= threads
            assert max(ran) > 1 if threads > 1 else set(ran) == {1}

    @pytest.mark.parametrize("threads", [2, 7])
    @pytest.mark.parametrize("bad", ["last-size", "two-sizes", "lane-and-size"])
    def test_a_bad_lane_reports_the_inline_row(self, medium_graph, monkeypatch,
                                               threads, bad):
        """A bad lane in the last range, or in two ranges, reports the
        inline step's row, before the pool is touched. The stop pass checks
        every lane id before the plan checks a size, so a bad id in the
        last range wins over a bad size in the first."""
        engine = make_engine(medium_graph, APPS["exp"][0], 10,
                             resolve_backend("c"), cache_bytes=64 << 10)
        engine.prepare()
        monkeypatch.setattr(c_backend, "GRAIN", 1)
        graph, pool = engine.graph, engine.index.store.cache
        degrees = np.diff(graph.indptr)
        cur = np.repeat(np.flatnonzero(degrees), 3)
        n = cur.size

        def error(threads):
            lanes, s = np.arange(n), degrees[cur].astype(np.int64)
            if bad == "last-size":
                s[n - 1] += 1
            elif bad == "two-sizes":
                s[[n // 2 - 1, n - 1]] = 0  # a range before the last
            else:
                s[0], lanes[n - 1] = 0, n
            walk = WalkState(graph.indptr, graph.nbr, graph.etime,
                             engine.candidate_sizes, cur.copy(),
                             np.full(n, -1), s, np.full(n, 5))
            step = engine.kernel.ooc_step(
                engine.index, walk, LaneRng(np.arange(n, dtype=np.uint64)),
                0.0, KernelScratch(), threads)
            with pytest.raises(IndexError) as raised:
                step(lanes, 0, CostCounters())
            return str(raised.value), step.threads

        inline, one = error(1)
        assert one == 1
        assert f"row {n // 2 - 1 if bad == 'two-sizes' else n - 1} " in inline
        got, ran = error(threads)
        assert got == inline and ran > 1
        assert pool.used == 0 and pool._clock == 0
        assert not any(pool.stats.snapshot().values())

    def test_a_step_and_its_columns_go_with_the_last_reference(
            self, medium_graph):
        """A bound step is no reference cycle: its columns are freed when
        the run drops it, not at the next collection (a run's scratch
        left alive lands the next run's on fresh, faulting pages)."""
        engine = make_engine(medium_graph, APPS["exp"][0], 10,
                             resolve_backend("c"), cache_bytes=64 << 10)
        engine.prepare()
        graph = engine.graph
        degrees = np.diff(graph.indptr)
        cur = np.flatnonzero(degrees)
        n = cur.size
        walk = WalkState(graph.indptr, graph.nbr, graph.etime,
                         engine.candidate_sizes, cur.copy(), np.full(n, -1),
                         degrees[cur].astype(np.int64), np.full(n, 5))
        step = engine.kernel.ooc_step(
            engine.index, walk, LaneRng(np.arange(n, dtype=np.uint64)), 0.0,
            KernelScratch(), 2)
        step(np.arange(n), 0, CostCounters())
        assert step.threads >= 1
        gone = weakref.ref(step)
        gc.disable()
        try:
            del step
            assert gone() is None
        finally:
            gc.enable()

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="fork start method unavailable")
    def test_threaded_steps_then_a_forked_pool(self, medium_graph,
                                               monkeypatch):
        """A threaded out-of-core round leaves no thread behind, and a
        ``ParallelBatchTeaEngine`` forked after it walks the inline bits
        and returns (a hang dumps every stack and ends the process)."""
        spec = APPS["exp"][0]
        workload = Workload(walks_per_vertex=2, max_length=8)
        ref = BatchTeaEngine(medium_graph, spec).run(workload, seed=5)
        monkeypatch.setattr(c_backend, "GRAIN", 1)
        monkeypatch.setattr(batch, "usable_cpus", lambda: 2)
        tasks = lambda: (len(os.listdir("/proc/self/task"))  # noqa: E731
                         if os.path.isdir("/proc/self/task") else 0)
        faulthandler.dump_traceback_later(self.WATCHDOG_S, exit=True,
                                          file=sys.__stderr__)
        try:
            calls, before = [], tasks()
            engine = make_engine(medium_graph, spec, 10,
                                 counting(resolve_backend("c"), calls),
                                 cache_bytes=64 << 10)
            engine.run(workload, seed=5)
            assert max(n for name, _, n in calls if name == "step") == 2
            assert tasks() == before
            pooled = ParallelBatchTeaEngine(medium_graph, spec, workers=2,
                                            backend="process")
            try:
                got = pooled.run(workload, seed=5)
            finally:
                pooled.close()
            assert pooled.last_backend == "process"
            assert [p.hops for p in got.paths] == [p.hops for p in ref.paths]
        finally:
            faulthandler.cancel_dump_traceback_later()


@needs_cc
class TestOocDrawBinds:
    """Under ``c`` an out-of-core run binds the compiled code on every
    call (part of ``make kernel-smoke``): the numpy lockstep is the same
    walks ≈1.4× slower on ``ooc_exp``, and the call sequence ≈1.3× slower
    than the fused step, so no parity test would notice either serving
    instead."""

    # ``sync`` names the one read path, the sampling thread's own reads.
    @pytest.mark.parametrize("app", ["exp", "n2v"], ids=lambda app: f"sync-{app}")
    def test_every_call_is_compiled(self, medium_graph, app):
        calls = []
        engine = BatchTeaOutOfCoreEngine(medium_graph, APPS[app][0],
                                         cache_bytes=1 << 20)
        assert engine.kernel is resolve_backend("c")
        engine.kernel = counting(engine.kernel, calls)
        result = engine.run(Workload(walks_per_vertex=2, max_length=8), seed=3,
                            record_paths=False)
        assert result.total_steps > 0
        if app == "exp":  # the fused step, bound once per frontier slice
            binds = [step for name, _, step in calls if name == "ooc_step"]
            assert len(binds) == 1 and None not in binds
            iterations = result.registry.histogram("batch.frontier_size").count
            assert sum(name == "step" for name, _, _ in calls) == iterations > 0
            return
        plans = [result for name, _, result in calls if name == "ooc_plan"]
        assert plans and None not in plans
        assert {name for name, _, _ in calls} == set(OOC_MEMBERS)
        # one plan per draw
        assert len(plans) == sum(name == "ooc_select" for name, _, _ in calls)

    @pytest.mark.parametrize("entry", ["run", "run_lanes"])
    @pytest.mark.parametrize("case", ["plain", "verify_checksums",
                                      "fault_injector", "n2v", "numpy"])
    def test_one_compiled_call_per_iteration(self, medium_graph, monkeypatch,
                                             case, entry):
        """Under ``c`` over a plain store a run is one ``ooc_step`` call
        per frontier iteration, and ``read_batch``, the pool passes and
        the draw members never run. Checksum verification, fault
        injection (both live in the numpy read path), β and the numpy
        backend keep the call sequence: no step binds, every iteration
        reads through ``read_batch``."""
        calls = collections.Counter()

        def spy(name, member):
            def logged(*args, **kwargs):
                calls[name] += 1
                return member(*args, **kwargs)
            return logged

        for owner, name in ((FramePool, "touch"), (FramePool, "admit"),
                            (TrunkStore, "read_batch")):
            monkeypatch.setattr(owner, name, spy(name, getattr(owner, name)))
        kernel = resolve_backend("numpy" if case == "numpy" else "c")
        if case != "numpy":
            kernel = KernelBackend(**{**vars(kernel), **{
                name: spy(name, getattr(kernel, name))
                for name in ("pool_read", "pool_admit", "ooc_select")}})
            bound = kernel.ooc_step

            def bind(*args):
                calls["ooc_step"] += 1
                step = bound(*args)
                return None if step is None else spy("step", step)
            kernel = KernelBackend(**{**vars(kernel), "ooc_step": bind})
        engine = BatchTeaOutOfCoreEngine(
            medium_graph, APPS["n2v" if case == "n2v" else "exp"][0],
            cache_bytes=1 << 20, verify_checksums=case == "verify_checksums",
            fault_injector=(FaultInjector.from_plan({"rules": []})
                            if case == "fault_injector" else None))
        engine.kernel = kernel
        registry = MetricsRegistry()
        if entry == "run":
            engine.run(Workload(walks_per_vertex=2, max_length=8), seed=3,
                       record_paths=False, registry=registry)
        else:
            starts = np.arange(medium_graph.num_vertices)
            engine.run_lanes(starts, starts + 11, 8, registry=registry)
        iterations = registry.histogram("batch.frontier_size").count
        assert iterations > 0
        sequence = ("read_batch", "pool_read", "pool_admit", "ooc_select",
                    "touch", "admit")
        if case == "plain":
            assert calls["ooc_step"] == 1 and calls["step"] == iterations
            assert not any(calls[name] for name in sequence)
            return
        assert calls["ooc_step"] == calls["step"] == 0
        assert calls["read_batch"] >= iterations
        if case == "numpy":
            assert calls["touch"] == calls["read_batch"]
        else:
            assert calls["pool_read"] == calls["read_batch"]
            assert calls["ooc_select"] >= iterations

    @pytest.mark.parametrize("kernel", ["c", "numpy"])
    @pytest.mark.parametrize("entry", ["run", "run_lanes"])
    def test_every_read_runs_the_engines_pool_passes(self, medium_graph,
                                                     monkeypatch, kernel, entry):
        """Under ``c`` every ``read_batch`` of a run looks up through
        ``pool_read`` and every admission goes through ``pool_admit``:
        ``FramePool``'s numpy passes never run. Under ``numpy`` the numpy
        passes serve every read, so the store took the engine's kernel,
        not ``auto``. The run is node2vec, whose β keeps it on the call
        sequence (a run without β is one fused step per iteration under
        ``c``, and reads nothing through ``read_batch``)."""
        calls = collections.Counter()

        def spy(name, member):
            def logged(*args, **kwargs):
                calls[name] += 1
                return member(*args, **kwargs)
            return logged

        for owner, name in ((FramePool, "touch"), (FramePool, "admit"),
                            (TrunkStore, "read_batch"), (TrunkStore, "_fetch")):
            monkeypatch.setattr(owner, name, spy(name, getattr(owner, name)))
        backend = resolve_backend(kernel)
        assert backend.name == kernel
        if kernel == "c":
            backend = KernelBackend(**{**vars(backend), **{
                name: spy(name, getattr(backend, name))
                for name in ("pool_read", "pool_admit")}})
        engine = BatchTeaOutOfCoreEngine(medium_graph, APPS["n2v"][0],
                                         cache_bytes=1 << 20)
        engine.kernel = backend
        if entry == "run":
            engine.run(Workload(walks_per_vertex=2, max_length=8), seed=3,
                       record_paths=False)
        else:
            starts = np.arange(medium_graph.num_vertices)
            engine.run_lanes(starts, starts + 11, 8)
        reads, admissions = calls["read_batch"], calls["_fetch"]
        assert reads > admissions > 0  # warm reads: some steps miss nothing
        compiled = (calls["pool_read"], calls["pool_admit"])
        numpy_passes = (calls["touch"], calls["admit"])
        if kernel == "c":
            assert compiled == (reads, admissions) and numpy_passes == (0, 0)
        else:
            assert numpy_passes == (reads, admissions) and compiled == (0, 0)


class TestBounds:
    """A bad lane raises ``IndexError`` under either backend before the
    store reads a byte or the stream draws a uniform."""

    @pytest.fixture
    def engine(self, graph):
        engine = BatchTeaOutOfCoreEngine(graph, APPS["exp"][0], trunk_size=4,
                                         cache_bytes=1 << 20)
        engine.prepare()
        return engine

    @pytest.mark.parametrize("kernel", ["numpy", "c"])
    @pytest.mark.parametrize("v, s", [
        (5, 0), (5, -3), (5, "deg+1"), (5, 10**6), (-1, 1), ("V", 1),
        (10**12, 1),
    ])
    def test_bad_lane_raises_before_any_read(self, engine, kernel, v, s):
        if kernel == "c" and c_backend.find_cc() is None:
            pytest.skip("needs a C compiler")
        engine.kernel = resolve_backend(kernel)
        degrees = np.diff(engine.graph.indptr)
        hub = int(np.argmax(degrees))
        v = engine.graph.num_vertices if v == "V" else v
        s = int(degrees[5]) + 1 if s == "deg+1" else s
        vs = np.array([hub, v, hub], dtype=np.int64)
        ss = np.array([degrees[hub] - 1, s, 1], dtype=np.int64)
        store = engine.index.store
        lane_rng, before = LaneRng(np.arange(3)), store.read_ops
        with pytest.raises(IndexError):
            engine._sample_batch(vs, ss, lane_rng, np.arange(3), CostCounters(),
                                 KernelScratch())
        assert store.read_ops == before and store.cache.stats.misses == 0
        assert not lane_rng._ctr.any()

    @needs_cc
    def test_bad_payload_rows_raise(self, engine):
        """The compiled members check every row and cell they derive from
        a payload: a row past the payload, a payload narrower than its
        trunk, an alias offset outside its trunk."""
        c, index, scratch = resolve_backend("c"), engine.index, KernelScratch()
        store: TrunkStore = index.store
        degrees = np.diff(engine.graph.indptr)
        hub = int(np.argmax(degrees))
        n = 64
        vs = np.full(n, hub, dtype=np.int64)
        ss = np.where(np.arange(n) % 2, degrees[hub], degrees[hub] - 1)
        ss = ss.astype(np.int64)
        lanes = np.arange(n, dtype=np.int64)
        rows, c_lo, c_hi = c.ooc_plan(index, vs, ss, scratch)
        assert rows.size == n // 2
        c_trunks, _, c_row = store.read_batch("c", c_lo, c_hi, None)

        def select(trunks, row):
            return c.ooc_select(index, vs, ss, LaneRng(lanes), lanes, trunks,
                                row, scratch)

        for trunks, row in ((c_trunks, c_row + c_trunks.shape[0]),
                            (c_trunks, c_row - 1), (c_trunks, c_row[:-1]),
                            (np.ascontiguousarray(c_trunks[:, :1]), c_row)):
            with pytest.raises(IndexError):
                select(trunks, row)
        out, deep, pa_lo, pa_hi, _ = select(c_trunks, c_row)
        assert deep.size
        tables, _, t_row = store.read_batch("pa", pa_lo, pa_hi, None)
        poisoned = tables.copy()
        poisoned[:, 0] = -1.0  # every draw takes the alias
        poisoned[:, 1] = np.array(10**6, dtype=np.int64).view(np.float64)
        for table, row in ((tables, t_row + tables.shape[0]), (poisoned, t_row)):
            with pytest.raises(IndexError):
                c.ooc_alias(index, vs, lanes, LaneRng(lanes), deep, table, row,
                            out.copy(), scratch)


@needs_cc
class TestOocSelfTest:
    """The load-time self-test (part of ``make kernel-smoke``) passes,
    and refuses members that did not bind or are one bit off."""

    def test_passes(self):
        c_backend._self_test_ooc(resolve_backend("c"))

    def test_refuses_members_that_did_not_bind(self, monkeypatch):
        def unbindable(index):
            raise ValueError("kernel pass needs a C-contiguous float64 array")

        monkeypatch.setattr(c_backend, "_ooc_args", unbindable)
        with pytest.raises(c_backend.Unavailable, match="did not bind"):
            c_backend._self_test_ooc(resolve_backend("c"))

    def test_pool_passes_pass(self):
        c_backend._self_test_pool(resolve_backend("c"))

    def test_refuses_a_pool_pass_one_stamp_off(self):
        good = resolve_backend("c")

        def stale(pool, *args):
            good.pool_admit(pool, *args)
            pool.stamp[pool.used - 1] -= 1

        with pytest.raises(c_backend.Unavailable, match="mismatch"):
            c_backend._self_test_pool(
                KernelBackend(**{**vars(good), "pool_admit": stale}))

    def test_refuses_pool_columns_that_do_not_bind(self, monkeypatch):
        def unbindable(pool):
            raise ValueError("kernel pass needs a C-contiguous int64 array")

        monkeypatch.setattr(c_backend, "_pool_args", unbindable)
        with pytest.raises(c_backend.Unavailable, match="do not bind"):
            c_backend._self_test_pool(resolve_backend("c"))

    def test_step_passes(self):
        c_backend._self_test_ooc_step(resolve_backend("c"))

    def test_refuses_a_step_one_edge_off(self):
        good = resolve_backend("c")

        def off_by_one(index, walk, *args):
            step = good.ooc_step(index, walk, *args)

            def shifted(lanes, iteration, counters):
                lanes, spent = step(lanes, iteration, counters)
                if lanes.size:
                    walk.hop_vertex[lanes[-1], iteration] ^= 1
                return lanes, spent
            return shifted

        with pytest.raises(c_backend.Unavailable, match="mismatch"):
            c_backend._self_test_ooc_step(
                KernelBackend(**{**vars(good), "ooc_step": off_by_one}))

    def test_refuses_a_step_whose_ranges_join_out_of_order(self, monkeypatch,
                                                           tmp_path):
        """A build of ``hop.c`` whose step joins the ranges' survivors in
        reverse — walks, costs and the pool unchanged, only the survivors'
        order — is refused: the self-test holds each iteration's survivors
        to the call sequence's order at 2 and 3 threads."""
        source = c_backend._SOURCE.read_text()
        join = "for (int k = 0; k < R; k++) { /* join the survivors */"
        assert source.count(join) == 1
        mutant = tmp_path / "hop.c"
        mutant.write_text(source.replace(
            join, "for (int k = R - 1; k >= 0; k--) { /* join the survivors */"))
        monkeypatch.setattr(c_backend, "_SOURCE", mutant)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        reversed_join = c_backend._make_backend(c_backend._build())
        with pytest.raises(c_backend.Unavailable, match="mismatch"):
            c_backend._self_test_ooc_step(reversed_join)

    def test_refuses_a_step_that_did_not_bind(self):
        good = resolve_backend("c")
        with pytest.raises(c_backend.Unavailable, match="did not bind"):
            c_backend._self_test_ooc_step(KernelBackend(**{
                **vars(good), "ooc_step": lambda *args: None}))

    def test_the_step_script_covers_the_pool_corners(self, monkeypatch):
        """The scripted frontier misses, hits duplicates, promotes past
        the protected segment and turns a two-file range away whole —
        seen through ``FramePool``'s numpy passes, which serve the same
        script alike."""
        turned, admit = [], FramePool.admit

        def spy(pool, keys, rows, nbytes):
            fresh = int((pool.find(keys.ravel()) < 0).sum())
            admitted = admit(pool, keys, rows, nbytes)
            if keys.ndim == 2 and admitted.sum() < fresh:
                turned.append(keys.shape[1])
            return admitted

        monkeypatch.setattr(FramePool, "admit", spy)
        numpy_side = c_backend.ooc_step_script(resolve_backend("numpy"))
        pool = numpy_side[-1].cache
        assert 2 in turned
        assert pool.stats.promotions > pool.protected_frames
        assert pool.stats.hits and pool.stats.misses and pool.stats.evictions
        compiled = c_backend.ooc_step_script(resolve_backend("c"))
        assert all(map(np.array_equal, numpy_side[:-1], compiled[:-1]))

    def test_refuses_a_draw_one_edge_off(self):
        good = resolve_backend("c")

        def off_by_one(*args):
            out, *rest = good.ooc_select(*args)
            out[-1] ^= 1
            return (out, *rest)

        with pytest.raises(c_backend.Unavailable, match="mismatch"):
            c_backend._self_test_ooc(
                KernelBackend(**{**vars(good), "ooc_select": off_by_one}))
