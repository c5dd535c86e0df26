"""The kernel ABI: ``c`` ≡ ``numpy`` ≡ the pre-fusion kernel, bit for bit.

Parity (Hypothesis, over graphs with degree-1 vertices, power-of-two
hubs at the last vertex id, chains of all-ones candidate sizes and dead
ends) of the three passes and of the fused lane-keyed hop against the
driver path, which runs take the fused call and which must not, memory
safety (a bad lane raises ``IndexError`` from either backend — never a
crash), the constant-calls gate, build/cache hygiene and the visible
fallback of the compiled backend. Tests that need the compiled passes
fail — not skip — wherever a ``cc`` exists. The pre-fusion kernel is the
oracle in ``tests/legacy_kernel.py``, run under the same drivers.
"""

import dataclasses
import os
import stat
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.engines.batch as batch_mod
import repro.kernels as kernels
from repro.core.hpat import HierarchicalPAT
from repro.engines import Workload
from repro.engines.batch import BatchTeaEngine
from repro.graph.edge_stream import EdgeStream
from repro.graph.temporal_graph import TemporalGraph
from repro.kernels import (
    KernelScratch,
    WalkState,
    backend_fallback_note,
    c_backend,
    numpy_backend,
    resolve_backend,
    sample_batch,
)
from repro.parallel import ParallelBatchTeaEngine
from repro.rng import LaneRng, make_rng, spawn_seeds
from repro.sampling.counters import CostCounters
from repro.telemetry.exporters import parse_prometheus, to_prometheus
from repro.telemetry.registry import MetricsRegistry
from repro.walks.apps import exponential_walk, temporal_node2vec
from repro.walks.spec import CustomParameter
from tests import legacy_kernel

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])
BOTH = ("numpy", "c")
#: The oracle first: every product backend is compared to it.
WITH_ORACLE = (legacy_kernel.BACKEND,) + BOTH
needs_cc = pytest.mark.skipif(c_backend.find_cc() is None,
                              reason="needs a C compiler")
COUNTER_FIELDS = ("steps", "edges_evaluated", "binary_search_probes",
                  "alias_draws", "rejection_trials", "rejected")


@pytest.fixture(scope="module", autouse=True)
def compiled():
    """The suite's premise: with a compiler present, ``c`` is serving."""
    backend = resolve_backend("c")
    if c_backend.find_cc() is not None:
        assert backend.name == "c", backend_fallback_note()
    return backend


@st.composite
def graphs(draw):
    """A temporal graph built to hit the kernel's corner cases: the last
    vertex id is a hub (often of power-of-two degree), vertex 0 has no
    out-edges, a chain of degree-1 vertices gives all-ones candidate
    sizes, the rest is skewed random; optional heavy timestamp ties."""
    n = draw(st.integers(3, 14))
    rng = make_rng(draw(st.integers(0, 2**31 - 1)))
    hub = draw(st.sampled_from([1, 2, 3, 8, 16, 31, 32, 33, 64, 100]))
    extra = draw(st.integers(0, 60))
    src = [np.full(hub, n - 1), np.arange(1, n - 1),
           1 + ((n - 2) * rng.random(extra) ** 2).astype(np.int64)]
    dst = [rng.integers(0, n, hub), np.arange(2, n), rng.integers(0, n, extra)]
    src, dst = np.concatenate(src), np.concatenate(dst)
    times = (rng.integers(0, 6, src.size).astype(float) if draw(st.booleans())
             else rng.uniform(0.0, 100.0, src.size))
    return TemporalGraph.from_stream(EdgeStream(src, dst, times))


def _engine(graph, spec):
    engine = BatchTeaEngine(graph, spec, kernel_backend="numpy")
    engine.prepare()
    return engine


def _frontier(engine, name, starts, seed, *, keep_hops=True, stop=0.0,
              lanes=True, length=12):
    """One ``_run_frontier`` under backend ``name``: the result, its
    counters and every lane's stream counter after it. ``lanes`` keys
    walk ``i`` on ``seed + i``; otherwise on the seeds ``run(seed)``
    draws."""
    engine.kernel = resolve_backend(name)
    counters = CostCounters()
    if lanes:
        seeds = np.arange(starts.size, dtype=np.uint64) + np.uint64(seed)
    else:
        seeds = spawn_seeds(make_rng(seed), starts.size)
    lane_rng = LaneRng(seeds)
    out = engine._run_frontier(starts, length, stop, lane_rng, counters,
                               keep_hops)
    return out, counters, lane_rng._ctr


def _same(a, b):
    (ra, ca, na), (rb, cb, nb) = a, b
    assert np.array_equal(ra.lengths, rb.lengths)
    assert (ra.hop_vertex is None) == (rb.hop_vertex is None)
    if ra.hop_vertex is not None:
        assert np.array_equal(ra.hop_vertex, rb.hop_vertex)
        assert np.array_equal(ra.hop_time, rb.hop_time)
    assert np.array_equal(na, nb)
    for field in COUNTER_FIELDS:
        assert getattr(ca, field) == getattr(cb, field), field


class TestPassParity:
    @PROPERTY
    @given(graphs(), st.integers(0, 2**31 - 1))
    def test_select_alias_bit_identical(self, graph, seed):
        """``level``/offset/``out``, the deep rows and the integer probe
        count agree on arbitrary (vertex, size) pairs — including size 1,
        powers of two and the full degree — and ``out`` matches the
        pre-fusion kernel."""
        index = _engine(graph, exponential_walk(scale=3.0)).index
        deg = np.diff(graph.indptr)
        rng = make_rng(seed)
        vs = rng.choice(np.flatnonzero(deg), size=64)
        kinds = rng.integers(0, 4, vs.size)
        ss = np.where(kinds == 0, 1, np.where(
            kinds == 1, deg[vs], np.where(
                kinds == 2, 1 << (np.log2(deg[vs]).astype(np.int64)),
                1 + (rng.random(vs.size) * deg[vs]).astype(np.int64))))
        u, u2 = rng.random(vs.size), rng.random((2, vs.size))
        got = {}
        for name in BOTH:
            backend, scratch = resolve_backend(name), KernelScratch()
            level, out = np.empty(64, np.int64), np.empty(64, np.int64)
            deep, probes = backend.select(index, vs, ss, u.copy(), level, out,
                                          scratch, True)
            deep = deep.copy()
            offset = out.copy()
            backend.alias(index, vs, level, out, deep, u2[0, :deep.size].copy(),
                          u2[1, :deep.size].copy(), scratch)
            got[name] = (level, offset, out, deep, probes)
        for a, b in zip(got["numpy"], got["c"]):
            assert np.array_equal(a, b)
        blocks = np.array([bin(int(s)).count("1") for s in ss])
        assert got["c"][4] == int(
            (np.ceil(np.log2(np.maximum(blocks, 2))) + 1).sum())
        lanes = np.arange(64)
        outs = [sample_batch(resolve_backend(name), index, vs, ss, None,
                             draw=LaneRng(lanes.astype(np.uint64) + 9),
                             lanes=lanes).copy()
                for name in WITH_ORACLE]
        assert np.array_equal(outs[0], outs[1])
        assert np.array_equal(outs[0], outs[2])

    @PROPERTY
    @given(graphs(), st.integers(0, 2**31 - 1), st.booleans(),
           st.sampled_from([0.0, 0.15]), st.booleans())
    def test_frontier_bit_identical(self, graph, seed, keep_hops, stop, lanes):
        """Whole ``_run_frontier`` results and every ``CostCounters``
        field, for both seedings, with and without hop columns and stop
        probability."""
        engine = _engine(graph, exponential_walk(scale=3.0))
        starts = np.tile(np.arange(graph.num_vertices), 3)
        runs = [_frontier(engine, name, starts, seed, keep_hops=keep_hops,
                          stop=stop, lanes=lanes)
                for name in WITH_ORACLE]
        _same(runs[0], runs[1])
        _same(runs[0], runs[2])

    @PROPERTY
    @given(graphs(), st.integers(0, 2**31 - 1), st.booleans(),
           st.sampled_from([(2.0, 0.25), (1.0, 1.0), (4.0, 0.25), (0.25, 4.0)]),
           st.booleans(), st.sampled_from([0.0, 0.15]),
           st.sampled_from([16, 16, 2, 1]), st.booleans())
    def test_node2vec_rounds_bit_identical(self, graph, seed, lanes, pq,
                                           keep_hops, stop, budget, no_static):
        """β rejection: the fused hop (``c`` over ``LaneRng``) against the
        numpy rounds, also with the rejection budget cut to 1 and 2 — so
        the Python fallback runs after C rounds, its extra uniform landing
        where the drivers put it — and with an empty static adjacency."""
        engine = _engine(graph, temporal_node2vec(p=pq[0], q=pq[1], scale=3.0))
        if no_static:  # the graph is this example's own
            graph._static_cache = np.zeros(0, dtype=np.int64)
        starts = np.tile(np.arange(graph.num_vertices), 3)
        with mock.patch.object(batch_mod, "_MAX_BETA_ROUNDS", budget):
            runs = [_frontier(engine, name, starts, seed, keep_hops=keep_hops,
                              stop=stop, lanes=lanes)
                    for name in WITH_ORACLE]
        assert (graph.static_keys().size == 0) == no_static
        _same(runs[0], runs[1])
        _same(runs[0], runs[2])

    @PROPERTY
    @given(graphs(), st.integers(0, 2**31 - 1), st.booleans(),
           st.sampled_from([0.0, 0.15]), st.lists(st.integers(0, 50), max_size=4))
    def test_any_partition_of_the_lanes(self, graph, seed, node2vec, stop, cuts):
        """``run_lanes`` over any split of the lanes into separate calls
        — fused — gives each lane the hops of one numpy-pass call."""
        spec = (temporal_node2vec(p=4.0, q=0.25, scale=3.0) if node2vec
                else exponential_walk(scale=3.0))
        engine = _engine(graph, spec)
        starts = np.tile(np.arange(graph.num_vertices), 4)
        seeds = make_rng(seed).integers(0, 2**63, starts.size).astype(np.uint64)
        whole = engine.run_lanes(starts, seeds, 10, stop_probability=stop)
        engine.kernel = resolve_backend("c")
        bounds = sorted({0, starts.size, *(c % starts.size for c in cuts)})
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            part = engine.run_lanes(starts[lo:hi], seeds[lo:hi], 10,
                                    stop_probability=stop)
            assert np.array_equal(part.lengths, whole.lengths[lo:hi])
            assert np.array_equal(part.hop_vertex, whole.hop_vertex[lo:hi])
            assert np.array_equal(part.hop_time, whole.hop_time[lo:hi])

    @PROPERTY
    @given(graphs(), st.integers(0, 2**31 - 1), st.booleans(),
           st.sampled_from([0.0, 0.15]), st.integers(0, 2**31 - 1))
    def test_permuting_starts_and_seeds_permutes_the_rows(
            self, graph, seed, node2vec, stop, shuffle):
        """``run(seed)``'s walks are ``run_lanes`` over the starts and
        seeds it draws, and any permutation of those pairs — fused or
        through the numpy drivers — permutes the rows, nothing else."""
        spec = (temporal_node2vec(p=4.0, q=0.25, scale=3.0) if node2vec
                else exponential_walk(scale=3.0))
        engine = _engine(graph, spec)
        workload = Workload(walks_per_vertex=3, max_length=10,
                            stop_probability=stop)
        ref = [p.hops for p in engine.run(workload, seed=seed).paths]
        rng = make_rng(seed)
        starts = workload.resolve_starts(graph.num_vertices, rng)
        seeds = spawn_seeds(rng, starts.size)
        perm = make_rng(shuffle).permutation(starts.size)
        for name in BOTH:
            engine.kernel = resolve_backend(name)
            got = engine.run_lanes(starts[perm], seeds[perm], 10,
                                   stop_probability=stop)
            assert [p.hops for p in got.materialise_paths()] == [
                ref[i] for i in perm]

    def test_thread_backend_matches_serial(self, medium_graph):
        """Chunks on two threads run the GIL-releasing passes at once."""
        spec = exponential_walk(scale=8.0)
        workload = Workload(walks_per_vertex=20, max_length=30)
        serial = BatchTeaEngine(medium_graph, spec, kernel_backend="numpy")
        seeds = np.arange(4000, dtype=np.uint64) + 77
        starts = np.tile(np.arange(200), 20)
        ref = serial.run_lanes(starts, seeds, 30)
        threaded = ParallelBatchTeaEngine(
            medium_graph, spec, workers=2, backend="thread", chunk_size=250,
            kernel_backend="c")
        try:
            got = threaded.run_lanes(starts, seeds, 30)
            assert threaded.last_backend == "thread"
            run = threaded.run(workload, seed=3, record_paths=False)
        finally:
            threaded.close()
        assert np.array_equal(ref.lengths, got.lengths)
        assert np.array_equal(ref.hop_vertex, got.hop_vertex)
        assert np.array_equal(ref.hop_time, got.hop_time)
        again = ParallelBatchTeaEngine(medium_graph, spec, workers=1,
                                       backend="serial", kernel_backend="numpy")
        assert again.run(workload, seed=3, record_paths=False
                         ).counters.snapshot() == run.counters.snapshot()


def _spied(engine):
    """Swap in ``c`` with its ``hop`` binder wrapped; the returned list
    collects one bool per bind: did the arrays fit (a step came back)?"""
    binds = []
    compiled = resolve_backend("c")

    def hop(*args):
        step = compiled.hop(*args)
        binds.append(step is not None)
        return step

    engine.kernel = dataclasses.replace(compiled, hop=hop)
    return binds


def _bits(result):
    return (result.lengths.tobytes(), result.hop_vertex.tobytes(),
            result.hop_time.tobytes())


@needs_cc
class TestWhichRunsFuse:
    """The fused call is chosen from what a run is — index provider, β
    kind, array dtypes — and every other run keeps the driver path and
    its bits."""

    STARTS, SEEDS = np.tile(np.arange(200), 2), np.arange(400, dtype=np.uint64) + 5

    @pytest.mark.parametrize("spec", [
        exponential_walk(scale=8.0), temporal_node2vec(p=4.0, q=0.25, scale=8.0)])
    def test_lane_keyed_in_memory_runs_do(self, medium_graph, spec):
        engine = _engine(medium_graph, spec)
        ref = engine.run_lanes(self.STARTS, self.SEEDS, 12)
        binds = _spied(engine)
        assert _bits(engine.run_lanes(self.STARTS, self.SEEDS, 12)) == _bits(ref)
        assert binds == [True]

    def test_engine_run_binds_the_hop(self, medium_graph):
        """``Engine.run`` seeds every walk, so it fuses too — and walks
        what the numpy drivers walk."""
        engine = _engine(medium_graph, temporal_node2vec(scale=8.0))
        workload = Workload(walks_per_vertex=2, max_length=12, max_walks=150)
        ref = engine.run(workload, seed=4, record_paths=True)
        binds = _spied(engine)
        got = engine.run(workload, seed=4, record_paths=True)
        assert binds == [True]
        assert [p.hops for p in got.paths] == [p.hops for p in ref.paths]
        assert got.counters.snapshot() == ref.counters.snapshot()

    def test_custom_dynamic_parameter_does_not(self, medium_graph):
        spec = dataclasses.replace(
            exponential_walk(scale=8.0), dynamic_parameter=CustomParameter(
                fn=lambda g, prev, cand: 0.3 if prev == cand else 1.0))
        engine = _engine(medium_graph, spec)
        ref = engine.run_lanes(self.STARTS, self.SEEDS, 12)
        binds = _spied(engine)
        assert _bits(engine.run_lanes(self.STARTS, self.SEEDS, 12)) == _bits(ref)
        assert binds == []

    def test_out_of_core_does_not(self, medium_graph):
        from repro.engines.tea_outofcore import BatchTeaOutOfCoreEngine

        engine = BatchTeaOutOfCoreEngine(medium_graph, exponential_walk(scale=8.0))
        engine.prepare()
        ref = engine.run_lanes(self.STARTS, self.SEEDS, 12)
        binds = _spied(engine)
        assert _bits(engine.run_lanes(self.STARTS, self.SEEDS, 12)) == _bits(ref)
        assert binds == []

    def test_arrays_that_do_not_fit_do_not(self, medium_graph):
        """int32 ``nbr``/``candidate_sizes`` or a non-uint64 stream bind
        to ``None``: the drivers orchestrate, same walks."""
        engine = _engine(medium_graph, temporal_node2vec(scale=8.0))
        ref = engine.run_lanes(self.STARTS, self.SEEDS, 12)
        engine.candidate_sizes = engine.candidate_sizes.astype(np.int32)
        engine.graph.nbr = engine.graph.nbr.astype(np.int32)
        binds = _spied(engine)
        try:
            got = engine.run_lanes(self.STARTS, self.SEEDS, 12)
        finally:
            engine.graph.nbr = engine.graph.nbr.astype(np.int64)
        assert _bits(got) == _bits(ref)
        assert binds == [False]

    def test_without_a_compiler_nothing_does(self, fresh_registry, monkeypatch,
                                             medium_graph):
        spec = temporal_node2vec(scale=8.0)
        ref = _engine(medium_graph, spec).run_lanes(self.STARTS, self.SEEDS, 12)
        monkeypatch.setattr(kernels, "_CACHE", {})
        monkeypatch.setattr(c_backend, "find_cc", lambda: None)
        engine = BatchTeaEngine(medium_graph, spec)
        assert engine.kernel.name == "numpy" and engine.kernel.hop is None
        assert _bits(engine.run_lanes(self.STARTS, self.SEEDS, 12)) == _bits(ref)


@needs_cc
class TestFusedHopSafety:
    """Every index ``hop_lanes`` derives from array contents is checked:
    poison raises from the fused call — never a crash, never a read out
    of bounds."""

    @pytest.fixture
    def engine(self, medium_graph):
        # A graph of the test's own: one test spoils its static keys.
        graph = TemporalGraph(medium_graph.indptr, medium_graph.nbr,
                              medium_graph.etime)
        return _engine(graph, temporal_node2vec(p=4.0, q=0.25, scale=8.0))

    def _bind(self, engine, *, lanes=6, keys=None, stride=4, static=None):
        g = engine.graph
        vs = np.flatnonzero(np.diff(g.indptr))[:lanes]
        walk = WalkState(
            g.indptr, g.nbr, g.etime, engine.candidate_sizes, vs.copy(),
            g.nbr[g.indptr[vs]].copy(), np.diff(g.indptr)[vs],
            np.full(lanes, 3), np.zeros((lanes, stride), np.int64),
            np.zeros((lanes, stride)))
        rng = LaneRng(np.arange(lanes if keys is None else keys, dtype=np.uint64))
        static = g.static_keys() if static is None else static
        step = resolve_backend("c").hop(
            engine.index, walk, rng, 0.0,
            (static, g.num_vertices, 0.25, 4.0, 4.0, 16), KernelScratch())
        return walk, step

    def test_clean_state_steps(self, engine):
        walk, step = self._bind(engine)
        counters = CostCounters()
        alive, spent = step(np.arange(6), 0, counters)
        assert alive.size + spent.size <= 6 and counters.steps == 6
        assert counters.rejection_trials >= 6

    @pytest.mark.parametrize("field, value", [
        ("prev", 200), ("prev", 10**12), ("prev", -2), ("s", 0), ("s", -1),
        ("s", 10**6), ("cur", -1), ("cur", 200),
    ])
    def test_poisoned_walk_state(self, engine, field, value):
        walk, step = self._bind(engine)
        getattr(walk, field)[3] = value
        with pytest.raises(IndexError, match="row 3"):
            step(np.arange(6), 0, CostCounters())

    def test_candidate_size_past_the_degree(self, engine):
        walk, step = self._bind(engine)
        walk.s[2] += 1
        with pytest.raises(IndexError, match="row 2"):
            step(np.arange(6), 0, CostCounters())

    @pytest.mark.parametrize("lanes", [[0, 6, 1], [0, -1, 1], [0, 10**12, 1]])
    def test_bad_lane(self, engine, lanes):
        _, step = self._bind(engine)
        with pytest.raises(IndexError, match="row 1"):
            step(np.array(lanes), 0, CostCounters())

    def test_more_lanes_than_walks(self, engine):
        """Repeated lanes could overrun the spent-lane list."""
        _, step = self._bind(engine)
        with pytest.raises(IndexError):
            step(np.zeros(7, np.int64), 0, CostCounters())

    def test_stream_shorter_than_the_walk(self, engine):
        _, step = self._bind(engine, keys=4)
        with pytest.raises(IndexError, match="row 4"):
            step(np.arange(6), 0, CostCounters())

    def test_hop_column_past_the_stride(self, engine):
        _, step = self._bind(engine)
        for column in (4, -1):
            with pytest.raises(IndexError):
                step(np.arange(6), column, CostCounters())

    @pytest.mark.parametrize("spoil", [
        lambda k: k[::-1].copy(), lambda k: k + 200 * 200, lambda k: -k - 1,
        lambda k: np.where(np.arange(k.size) % 2, k, 2**62),
    ])
    def test_static_keys_unsorted_or_out_of_range(self, engine, spoil):
        """A probe outside what the probes before it allow stops the hop;
        through ``run_lanes`` too."""
        graph = engine.graph
        _, step = self._bind(engine, static=spoil(graph.static_keys()))
        with pytest.raises(IndexError):
            for _ in range(3):  # every lane probes unless it returned
                step(np.arange(6), 0, CostCounters())
        engine.kernel = resolve_backend("c")
        graph._static_cache = spoil(graph.static_keys())
        with pytest.raises(IndexError):
            engine.run_lanes(np.arange(200), np.arange(200) + 3, 8)

    def test_poisoned_candidate_sizes_through_run_lanes(self, engine):
        engine.kernel = resolve_backend("c")
        engine.candidate_sizes = np.full_like(engine.candidate_sizes, 10**9)
        with pytest.raises(IndexError):
            engine.run_lanes(np.arange(200), np.arange(200) + 3, 8)


#: Call events a wider frontier or a lower β acceptance may add to one
#: fused run: handing the lanes that spent the rejection budget to the
#: fallback and scattering them, once per iteration. The driver path
#: adds ~25 per rejection *round* — hundreds per iteration.
CALL_SLACK_EVENTS = 40


def run_lanes_call_events(graph, lanes: int, p: float, q: float) -> int:
    """Python-level ``call``/``c_call`` events (``sys.setprofile``) of one
    three-iteration node2vec ``run_lanes`` over ``lanes`` lanes. The exact
    fallback — a per-lane scan by design — is stubbed to one call."""
    engine = BatchTeaEngine(graph, temporal_node2vec(p=p, q=q, scale=8.0))
    engine.prepare()
    engine._beta_fallback_batch = lambda vs, *rest: np.zeros(vs.size, np.int64)
    rng = np.random.default_rng(lanes)
    starts = rng.choice(np.flatnonzero(np.diff(graph.indptr)), size=lanes)
    seeds = rng.integers(0, 2**63, lanes).astype(np.uint64)
    events = 0

    def hook(frame, event, arg):
        nonlocal events
        events += event in ("call", "c_call")

    sys.setprofile(hook)
    try:
        engine.run_lanes(starts, seeds, 3)
    finally:
        sys.setprofile(None)
    return events


@needs_cc
class TestConstantCalls:
    def test_call_events_do_not_grow_with_lanes_or_beta_rounds(self, medium_graph):
        """Exact structural gate (part of ``make kernel-smoke``): a fused
        iteration is the same handful of Python-level calls at 16 and at
        2 048 lanes, and whether β accepts at once (p = q = 1) or after
        many rounds (p = 4, q = ¼)."""
        counts = {(lanes, p): run_lanes_call_events(medium_graph, lanes, p, q)
                  for lanes in (16, 2048) for p, q in ((1.0, 1.0), (4.0, 0.25))}
        assert min(counts.values()) > 20  # the hook saw the run
        assert max(counts.values()) - min(counts.values()) <= CALL_SLACK_EVENTS, counts


@pytest.mark.parametrize("name", BOTH)
class TestMemorySafety:
    """numpy raised ``IndexError``; C must too — before dereferencing."""

    @pytest.fixture
    def engine(self, medium_graph):
        return _engine(medium_graph, exponential_walk(scale=8.0))

    @pytest.mark.parametrize("v, s", [
        (5, 0), (5, -3), (5, 10**6), (-1, 1), (200, 1), (10**12, 1),
    ])
    def test_bad_lane_raises(self, engine, name, v, s):
        deg = int(np.diff(engine.graph.indptr)[5])
        vs = np.array([5, v, 5], dtype=np.int64)
        ss = np.array([deg, s, 1], dtype=np.int64)
        with pytest.raises(IndexError, match="row 1"):
            sample_batch(resolve_backend(name), engine.index, vs, ss,
                         make_rng(0), CostCounters())

    def test_size_one_past_the_degree_raises(self, engine, name):
        deg = np.diff(engine.graph.indptr)
        vs = np.flatnonzero(deg)[:4]
        with pytest.raises(IndexError):
            sample_batch(resolve_backend(name), engine.index, vs, deg[vs] + 1,
                         make_rng(0))

    def test_poisoned_candidate_sizes_raise(self, engine, name):
        engine.candidate_sizes = np.full_like(engine.candidate_sizes, 10**9)
        starts = np.arange(engine.graph.num_vertices)
        with pytest.raises(IndexError):
            _frontier(engine, name, starts, 1)

    def test_scatter_rejects_bad_lane_and_hop_column(self, engine, name):
        g = engine.graph
        scatter = resolve_backend(name).scatter
        vs = np.flatnonzero(np.diff(g.indptr))[:3]

        def walk(stride=4):
            return WalkState(
                g.indptr, g.nbr, g.etime, engine.candidate_sizes,
                vs.copy(), np.full(3, -1), np.ones(3, np.int64),
                np.full(3, 2), np.zeros((3, stride), np.int64),
                np.zeros((3, stride)))

        zeros = np.zeros(3, np.int64)
        ok = scatter(walk(), np.arange(3), vs, zeros, 3, KernelScratch())
        assert ok.size <= 3
        with pytest.raises(IndexError):
            scatter(walk(), np.array([0, 7, 2]), vs, zeros, 0, KernelScratch())
        with pytest.raises(IndexError):
            scatter(walk(), np.arange(3), vs, zeros, 4, KernelScratch())


class TestCompiledOnlyChecks:
    """Indices numpy bounds-checks by construction, C by hand."""

    @needs_cc
    def test_edge_index_past_the_degree(self, medium_graph):
        engine = _engine(medium_graph, exponential_walk(scale=8.0))
        g = engine.graph
        deg = np.diff(g.indptr)
        vs = np.flatnonzero(deg)[:3]
        walk = WalkState(g.indptr, g.nbr, g.etime, engine.candidate_sizes,
                         vs.copy(), np.full(3, -1), np.ones(3, np.int64),
                         np.full(3, 2))
        for idx in (deg[vs], np.full(3, -1)):
            with pytest.raises(IndexError, match="row 0"):
                resolve_backend("c").scatter(
                    walk, np.arange(3), vs, idx, 0, KernelScratch())

    @needs_cc
    def test_alias_cell_outside_the_table(self, medium_graph):
        index = _engine(medium_graph, exponential_walk(scale=8.0)).index
        v = int(np.argmax(np.diff(index.indptr)))
        vs = np.array([v], dtype=np.int64)
        for level, offset in ((40, 0), (3, 2**40), (0, 0), (3, -8)):
            with pytest.raises(IndexError):
                resolve_backend("c").alias(
                    index, vs, np.array([level]), np.array([offset]),
                    np.array([0]), np.array([0.5]), np.array([0.5]),
                    KernelScratch())

    def test_mismatched_arrays_run_the_numpy_passes(self, medium_graph,
                                                    monkeypatch):
        """A non-int64 ``nbr`` (or ``candidate_sizes``) is served by the
        numpy scatter — chosen from the arrays, same walks."""
        engine = _engine(medium_graph, exponential_walk(scale=8.0))
        starts = np.arange(200)
        ref = _frontier(engine, "c", starts, 5)
        engine.candidate_sizes = engine.candidate_sizes.astype(np.int32)
        # medium_graph is session-scoped: restore its nbr after the test
        monkeypatch.setattr(engine.graph, "nbr", engine.graph.nbr.astype(np.int32))
        _same(ref, _frontier(engine, "c", starts, 5))
        walk = WalkState(engine.graph.indptr, engine.graph.nbr,
                         engine.graph.etime, engine.candidate_sizes,
                         *(np.zeros(1, np.int64) for _ in range(4)))
        scratch = KernelScratch()
        assert c_backend._bound(scratch, "walk", walk, c_backend._walk_args) is None

    def test_read_only_mmap_index(self, medium_graph, tmp_path):
        index = _engine(medium_graph, exponential_walk(scale=8.0)).index
        fields = ("indptr", "c", "prob", "alias", "lvl_ptr", "lvl_base")
        for f in fields:
            np.save(tmp_path / f"{f}.npy", getattr(index, f))
        mapped = HierarchicalPAT(**{
            f: np.load(tmp_path / f"{f}.npy", mmap_mode="r") for f in fields})
        assert not mapped.c.flags.writeable
        deg = np.diff(index.indptr)
        vs = np.flatnonzero(deg)
        got = sample_batch(resolve_backend("c"), mapped, vs, deg[vs], make_rng(1))
        ref = sample_batch(resolve_backend("numpy"), index, vs, deg[vs], make_rng(1))
        assert np.array_equal(got, ref)


def _walks(graph):
    result = BatchTeaEngine(graph, exponential_walk(scale=8.0)).run(
        Workload(max_length=15, max_walks=120), seed=4, record_paths=True)
    return [p.hops for p in result.paths]


class TestVisibleFallback:
    """Every way ``c`` can be absent resolves ``auto`` to numpy, says
    why, and changes no walk."""

    def test_no_compiler(self, fresh_registry, monkeypatch, medium_graph):
        expected = _walks(medium_graph)
        monkeypatch.setattr(kernels, "_CACHE", {})
        monkeypatch.setattr(c_backend, "find_cc", lambda: None)
        assert resolve_backend("auto").name == "numpy"
        assert "'cc' is not on PATH" in backend_fallback_note()
        assert "c" not in kernels.available_backends()
        assert _walks(medium_graph) == expected

    def test_failing_compiler(self, fresh_registry, monkeypatch, medium_graph):
        expected = _walks(medium_graph)
        monkeypatch.setattr(kernels, "_CACHE", {})
        fake = fresh_registry / "fake-cc"
        fake.write_text('#!/bin/sh\n[ "$1" = --version ] && { echo fake 1.0; '
                        'exit 0; }\necho "fake-cc: error: no backend" >&2\n'
                        'echo "second line" >&2\nexit 1\n')
        fake.chmod(0o755)
        monkeypatch.setattr(c_backend, "find_cc", lambda: str(fake))
        assert resolve_backend("auto").name == "numpy"
        note = backend_fallback_note()
        assert "fake-cc: error: no backend" in note and "second" not in note
        assert _walks(medium_graph) == expected
        # The failed build leaves no temporary beside the real artefact
        # the first ``_walks`` compiled.
        assert not list((fresh_registry / "xdg" / "repro-kernels").glob("*.tmp"))

    @needs_cc
    def test_unwritable_cache(self, fresh_registry, monkeypatch, medium_graph):
        expected = _walks(medium_graph)
        monkeypatch.setattr(kernels, "_CACHE", {})
        monkeypatch.setattr(c_backend, "_cache_dir",
                            lambda: fresh_registry / "missing" / "dir")
        assert resolve_backend("auto").name == "numpy"
        assert "build/load error" in backend_fallback_note()
        assert _walks(medium_graph) == expected

    @needs_cc
    def test_self_test_mismatch(self, fresh_registry, monkeypatch):
        monkeypatch.setattr(numpy_backend, "alias",
                            lambda index, vs, level, out, *rest: out.__iadd__(1))
        assert resolve_backend("c").name == "numpy"
        assert "self-test mismatch" in backend_fallback_note()


@needs_cc
class TestCacheHygiene:
    def test_cold_cache_race(self, fresh_registry):
        """Two loaders racing an empty cache both succeed, and leave one
        artefact and no temporary behind."""
        results = []
        threads = [threading.Thread(
            target=lambda: results.append(c_backend.load().name))
            for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
        assert results == ["c", "c"]
        cache = fresh_registry / "xdg" / "repro-kernels"
        assert stat.S_IMODE(cache.stat().st_mode) == 0o700
        names = [p.name for p in cache.iterdir()]
        assert len(names) == 1 and names[0].startswith("hop-") \
            and names[0].endswith(".so")

    def test_artefact_name_tracks_the_flags(self, fresh_registry, monkeypatch):
        c_backend.load()
        monkeypatch.setattr(c_backend, "CFLAGS", c_backend.CFLAGS + ("-DX=1",))
        c_backend.load()
        assert len(list((fresh_registry / "xdg" / "repro-kernels").iterdir())) == 2

    def test_writable_by_others_is_refused(self, fresh_registry):
        cache = fresh_registry / "xdg" / "repro-kernels"
        cache.mkdir(parents=True)
        cache.chmod(0o777)
        private = c_backend._cache_dir()
        assert private != cache
        assert stat.S_IMODE(private.stat().st_mode) == 0o700
        os.rmdir(private)
        cache.chmod(0o700)
        c_backend.load()
        (artefact,) = cache.iterdir()
        artefact.chmod(0o775)
        with pytest.raises(c_backend.Unavailable, match="refusing"):
            c_backend.load()


class TestBackendIsVisible:
    def test_info_gauge_round_trips(self):
        registry = MetricsRegistry()
        name = kernels.publish_backend(registry, "numpy")
        assert name == "numpy"
        text = to_prometheus(registry)
        assert '# TYPE tea_kernel_backend gauge' in text
        assert 'tea_kernel_backend{name="numpy"} 1' in text
        parsed = parse_prometheus(text)
        assert parsed['tea_kernel_backend{name="numpy"}'] == {
            "type": "gauge", "value": 1.0}

    def test_run_report_and_healthz(self, medium_graph):
        from repro.serve.client import ServeClient
        from repro.serve.server import WalkService

        serving = resolve_backend("auto").name
        result = BatchTeaEngine(medium_graph, exponential_walk(scale=8.0)).run(
            Workload(max_length=5, max_walks=10), seed=1)
        assert result.run_report()["gauges"][
            f'kernel.backend{{name="{serving}"}}'] == 1
        with WalkService(medium_graph, engine="tea-batch") as service:
            client = ServeClient(port=service.port)
            assert client.healthz()["kernel_backend"] == serving
            assert f'tea_kernel_backend{{name="{serving}"}} 1' in client.metrics()
        with WalkService(medium_graph, engine="tea") as service:
            assert ServeClient(port=service.port).healthz()[
                "kernel_backend"] is None
