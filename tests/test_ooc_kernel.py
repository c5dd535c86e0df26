"""The compiled out-of-core draw (``ooc_plan`` / ``ooc_select`` /
``ooc_alias`` of the ``c`` backend) against the numpy lockstep it
replaces on the hot path.

The numpy code in ``engines/tea_outofcore/batch.py`` is the
specification: under ``c`` a walk must be the same walk bit for bit —
paths, hop times, ``LaneRng`` counters, ``CostCounters`` — and, because
the reads are the same calls in the same order, the store must see the
same backing reads and cache traffic. Bad lanes raise
``IndexError`` under both backends before any byte is read, and a run
under ``c`` must really use the compiled members: an index whose arrays
do not bind would walk the numpy lockstep and agree vacuously.
"""

import numpy as np
import pytest

from repro.core.outofcore import TrunkStore
from repro.engines import BatchTeaOutOfCoreEngine, Workload
from repro.graph.temporal_graph import TemporalGraph
from repro.kernels import KernelBackend, KernelScratch, c_backend, resolve_backend
from repro.rng import LaneRng
from repro.sampling.counters import CostCounters
from repro.walks.apps import exponential_walk, temporal_node2vec

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
    result)``."""
    def wrap(name):
        member = getattr(backend, name)

        def logged(*args):
            calls.append((name, args, member(*args)))
            return calls[-1][2]
        return logged
    return KernelBackend(**{**vars(backend),
                            **{name: wrap(name) for name in OOC_MEMBERS}})


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
        assert {name for name, _, _ in calls} == set(OOC_MEMBERS)
        plans = [(args[1].size, result) for name, args, result in calls
                 if name == "ooc_plan"]
        assert None not in [result for _, result in plans]  # no numpy fallback
        if trunk_size == 4:  # some steps mix aligned and ragged lanes
            assert any(0 < result[0].size < n for n, result in plans)

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
        assert {(name, result) for name, _, result in calls} == {("ooc_plan", None)}
        for got, want in ((strided.hop_vertex, plain.hop_vertex),
                          (strided.hop_time, plain.hop_time),
                          (strided.lengths, plain.lengths)):
            assert np.array_equal(got, want)


@needs_cc
class TestOocDrawBinds:
    """Under ``c`` an out-of-core run binds the compiled members on every
    call (part of ``make kernel-smoke``): the numpy lockstep is the same
    walks ≈1.4× slower on ``ooc_exp``, so no parity test would notice it
    serving instead."""

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
        plans = [result for name, _, result in calls if name == "ooc_plan"]
        assert plans and None not in plans
        assert {name for name, _, _ in calls} == set(OOC_MEMBERS)
        # one plan per draw
        assert len(plans) == sum(name == "ooc_select" for name, _, _ in calls)


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

    def test_refuses_a_draw_one_edge_off(self):
        good = resolve_backend("c")

        def off_by_one(*args):
            out, *rest = good.ooc_select(*args)
            out[-1] ^= 1
            return (out, *rest)

        with pytest.raises(c_backend.Unavailable, match="mismatch"):
            c_backend._self_test_ooc(
                KernelBackend(**{**vars(good), "ooc_select": off_by_one}))
