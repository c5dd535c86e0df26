"""The compiled index build: ``alias_build`` / ``prefix_sums`` in ``hop.c``.

Every alias table and prefix sum of the index build goes through
:func:`repro.sampling.alias.build_alias_tables` and the builder's
``_prefix_fill``, which run compiled when the ``c`` kernel backend loaded
and in the numpy builders otherwise. The numpy builders are the
specification, so this file holds the compiled build to them bit for bit:

* the load-time build self-test, and that it refuses a wrong builder;
* a Hypothesis parity property against the single-table builder
  ``build_alias_arrays`` (widths 2–4 096, ``T < w``, zeros, dead rows,
  ``-0.0``, subnormals, values near ``DBL_MAX``);
* a fixed-seed SHA-256 battery of every structure the build makes — five
  weight kinds × {HPAT, PAT with √d trunks, PAT with trunk 10, ITS, the
  full alias index} — whose digests were recorded from the lock-step
  numpy builder before the compiled one existed, run once per backend;
* the float-range regressions of the static build (subnormal weight sums
  drew uniformly; overflowing sums failed inside the hop).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.kernels as kernels
from repro.core.alias_index import FullAliasIndex
from repro.core.builder import preprocess
from repro.core.weights import KINDS, WeightModel
from repro.engines.base import Workload
from repro.engines.batch import BatchTeaEngine
from repro.graph.edge_stream import EdgeStream
from repro.graph.temporal_graph import TemporalGraph
from repro.kernels import c_backend, resolve_backend
from repro.sampling.alias import (build_alias_arrays, build_alias_arrays_batch,
                                  build_alias_tables)
from repro.walks.apps import unbiased_walk

needs_cc = pytest.mark.skipif(c_backend.find_cc() is None,
                              reason="no C compiler on PATH")

STRUCTURES = ("hpat", "pat_sqrt", "pat_10", "its", "full_alias")

#: SHA-256 (first 16 hex digits) of each structure's arrays on
#: :func:`battery_graph`, recorded from the lock-step numpy builder.
DIGESTS = {
    "exponential/full_alias": "0dfd27ed2a1718de",
    "exponential/hpat": "d0b50e83ce4d3ae4",
    "exponential/its": "157188223c71fc04",
    "exponential/pat_10": "f62ad21ce25112d8",
    "exponential/pat_sqrt": "289bf76a0c597954",
    "exponential_decay/full_alias": "624955c45e4cedd7",
    "exponential_decay/hpat": "dc2e7b03383c4520",
    "exponential_decay/its": "15154de684c23035",
    "exponential_decay/pat_10": "58cd7e0e82cb4eae",
    "exponential_decay/pat_sqrt": "f69c08b8d4786946",
    "linear_rank/full_alias": "f05ae29bd1c3f254",
    "linear_rank/hpat": "501e581dce6dfaac",
    "linear_rank/its": "a342b47c4f882df3",
    "linear_rank/pat_10": "7b5d43bb2342c63c",
    "linear_rank/pat_sqrt": "1add7bfdb59f80af",
    "linear_time/full_alias": "3229ca1c06f15219",
    "linear_time/hpat": "ea7bb713887df6f2",
    "linear_time/its": "9194e02d06834db8",
    "linear_time/pat_10": "921b3498a53f3dd9",
    "linear_time/pat_sqrt": "f304740c8c8f9f1c",
    "uniform/full_alias": "09d4d98885914028",
    "uniform/hpat": "e07a6b137ffef685",
    "uniform/its": "a955e1347c0a75c9",
    "uniform/pat_10": "10c282918389b91b",
    "uniform/pat_sqrt": "cf0c08549b558892",
}


def battery_graph() -> TemporalGraph:
    """Hubs whose top HPAT levels have fewer tables than cells (``T < w``),
    tied timestamps, zero and ``-0.0`` user weights, and one vertex whose
    every table is dead."""
    rng = np.random.default_rng(32)
    deg = np.concatenate([[400, 260, 129, 64, 33, 17, 16, 2, 1, 0],
                          rng.integers(0, 40, 50)])
    V, E = deg.size, int(deg.sum())
    indptr = np.concatenate([[0], np.cumsum(deg)])
    times = np.round(rng.uniform(0, 100, E), 1)
    order = np.lexsort((-times, np.repeat(np.arange(V), deg)))
    eweight = rng.lognormal(0.0, 2.0, E)
    eweight[rng.random(E) < 0.1] = 0.0
    eweight[rng.random(E) < 0.05] = -0.0
    eweight[indptr[6]:indptr[7]] = 0.0
    return TemporalGraph(indptr, rng.integers(0, V, E), times[order],
                         eweight=eweight)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _structure_digest(graph, kind: str, structure: str) -> str:
    model = WeightModel(kind, scale=20.0)
    if structure == "full_alias":
        index = FullAliasIndex.build(graph, model.compute(graph))
        return _digest(index.vbase, index.prob, index.alias)
    name, _, trunk = structure.partition("_")
    pre = preprocess(graph, model, structure=name,
                     trunk_size=10 if trunk == "10" else None)
    arrays = [getattr(pre.index, a) for a in ("c", "prob", "alias", "lvl_ptr",
                                              "lvl_base", "trunk_sizes")
              if hasattr(pre.index, a)]
    return _digest(pre.candidate_sizes, *arrays)


@pytest.fixture(scope="module")
def graph():
    return battery_graph()


@pytest.fixture
def numpy_build(monkeypatch):
    """The registry as on a host without ``cc``: the numpy builders run."""
    monkeypatch.setattr(kernels, "_CACHE", {"c": None})
    assert resolve_backend().alias_build is None


class TestBuildSelfTest:
    """``c`` serves the build wherever a compiler exists, and its
    load-time self-test refuses a builder that differs by one bit."""

    def test_compiled_backend_builds_wherever_a_compiler_exists(self):
        backend = resolve_backend("c")
        if c_backend.find_cc() is None:
            assert backend.alias_build is None and backend.prefix_sums is None
        else:
            assert backend.name == "c", kernels.backend_fallback_note()
            assert backend.alias_build is not None
            assert backend.prefix_sums is not None
        assert resolve_backend("numpy").alias_build is None

    @needs_cc
    def test_self_test_passes(self):
        c_backend._self_test_build(resolve_backend("c"))

    @needs_cc
    def test_refuses_a_wrong_alias_table(self):
        good = resolve_backend("c")

        def off_by_one(width, src, dst, totals, weights, prob, alias):
            good.alias_build(width, src, dst, totals, weights, prob, alias)
            alias[dst[-1]] ^= 1

        with pytest.raises(c_backend.Unavailable, match="alias_build"):
            c_backend._self_test_build(
                c_backend.KernelBackend(**{**vars(good), "alias_build": off_by_one}))

    @needs_cc
    def test_refuses_prefix_sums_that_lose_negative_zero(self):
        good = resolve_backend("c")

        def from_zero(indptr, weights, c, lo, hi):  # 0 + w[0]: -0.0 → +0.0
            good.prefix_sums(indptr, weights, c, lo, hi)
            starts = indptr[lo:hi] + np.arange(lo, hi)
            c[starts[np.diff(indptr[lo:hi + 1]) > 0] + 1] += 0.0

        with pytest.raises(c_backend.Unavailable, match="prefix_sums"):
            c_backend._self_test_build(
                c_backend.KernelBackend(**{**vars(good), "prefix_sums": from_zero}))


@needs_cc
class TestBuildBounds:
    """Indices from array contents are checked in C: a table or segment
    outside the arrays raises, nothing is written out of bounds."""

    def test_table_outside_the_arrays(self):
        build = resolve_backend("c").alias_build
        weights, prob, alias = np.ones(8), np.zeros(8), np.zeros(8, np.int64)
        for src, dst in (([7], [0]), ([-1], [0]), ([0], [7]), ([0], [-2])):
            with pytest.raises(IndexError, match="alias_build"):
                build(2, np.array(src), np.array(dst), np.ones(1), weights,
                      prob, alias)
        alias.setflags(write=False)
        with pytest.raises(ValueError, match="read-only"):
            build(2, np.array([0]), np.array([0]), np.ones(1), weights,
                  prob, alias)

    def test_segment_outside_the_arrays(self):
        prefix = resolve_backend("c").prefix_sums
        for indptr, c in (([0, 9], np.zeros(10)), ([0, 3, 2], np.zeros(10)),
                          ([0, 8], np.zeros(8))):
            with pytest.raises(IndexError, match="prefix_sums"):
                prefix(np.array(indptr), np.ones(8), c, 0, len(indptr) - 1)
        with pytest.raises(IndexError, match="outside"):
            prefix(np.array([0, 8]), np.ones(8), np.zeros(9), 0, 2)


_SPECIAL = st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308,
                            1e-300, 1.0, 1e300, 1.7976931348623157e308])
_VALUE = st.one_of(_SPECIAL, st.floats(0.0, 1e6), st.floats(0.0, 1e-305))


@needs_cc
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data(), width=st.one_of(st.integers(2, 40), st.integers(41, 4096)),
       tables=st.integers(1, 6))
def test_compiled_tables_match_the_single_table_builder(data, width, tables):
    """Every compiled table is ``build_alias_arrays`` of its row (the
    identity for a dead row), bit for bit, written where ``dst`` says."""
    n = width * tables + 3
    fill = data.draw(st.sampled_from(["list", "lognormal", "subnormal"]))
    if fill == "list" and n <= 400:
        weights = np.array(data.draw(st.lists(_VALUE, min_size=n, max_size=n)))
    else:
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        weights = rng.lognormal(0.0, 3.0, n) * (rng.random(n) < 0.9)
        if fill == "subnormal":
            weights *= 2.0 ** -1070
        spots = rng.integers(0, n, 3)
        weights[spots] = data.draw(st.lists(_SPECIAL, min_size=3, max_size=3))
    src = np.array(data.draw(st.lists(st.integers(0, n - width),
                                      min_size=tables, max_size=tables)))
    dst = np.random.default_rng(tables).permutation(tables) * width
    prob = np.full(tables * width, np.nan)
    alias = np.full(tables * width, -1, dtype=np.int64)
    with np.errstate(over="ignore"):
        build_alias_tables(weights, width, src, dst, prob, alias)
    for r in range(tables):
        row = weights[src[r]:src[r] + width]
        with np.errstate(over="ignore"):
            want_p, want_a = (build_alias_arrays(row) if row.sum() > 0
                              else (np.ones(width), np.arange(width)))
        cells = slice(dst[r], dst[r] + width)
        assert np.array_equal(prob[cells].view(np.int64), want_p.view(np.int64))
        assert np.array_equal(alias[cells], want_a)


@pytest.mark.parametrize("kind", KINDS)
class TestDigestBattery:
    """The index bytes of every structure equal the numpy builder's."""

    def test_compiled(self, graph, kind):
        for structure in STRUCTURES:
            key = f"{kind}/{structure}"
            assert _structure_digest(graph, kind, structure) == DIGESTS[key], key

    def test_numpy_fallback(self, graph, kind, numpy_build):
        for structure in STRUCTURES:
            key = f"{kind}/{structure}"
            assert _structure_digest(graph, kind, structure) == DIGESTS[key], key


def _two_edge_graph(eweight) -> TemporalGraph:
    """Vertex 0 → {1 @ t=2, 2 @ t=1} with user weights ``eweight``."""
    return TemporalGraph.from_stream(
        EdgeStream([0, 0], [1, 2], [2.0, 1.0], weight=eweight))


class TestFloatRange:
    """Weight sums outside float64's normal range (static build)."""

    @pytest.mark.parametrize("backend", ["c", "numpy"])
    def test_subnormal_sum_keeps_the_distribution(self, backend, monkeypatch):
        if backend == "numpy":
            monkeypatch.setattr(kernels, "_CACHE", {"c": None})
        engine = BatchTeaEngine(_two_edge_graph([1e-310, 3e-310]), unbiased_walk())
        engine.prepare()
        # the level-1 table is exactly the table of weights [1, 3]
        assert engine.index.prob.tolist() == [0.5, 1.0]
        assert engine.index.alias.tolist() == [1, 1]
        result = engine.run(Workload(walks_per_vertex=20_000, max_length=1,
                                     start_vertices=[0]), seed=5, record_paths=True)
        to_2 = np.mean([path.vertices[-1] == 2 for path in result.paths])
        assert abs(to_2 - 0.75) < 0.02, to_2

    def test_numpy_builders_rescale_alike(self):
        prob, alias = build_alias_arrays(np.array([1e-310, 3e-310]))
        assert prob.tolist() == [0.5, 1.0] and alias.tolist() == [1, 1]
        # 2^-1074 · (1, 0, 1, 2): the rescale is exact, so the table is
        # the table of (1, 0, 1, 2) — from either numpy builder.
        want = build_alias_arrays(np.array([1.0, 0.0, 1.0, 2.0]))
        tiny = np.array([5e-324, 0.0, 5e-324, 1e-323])
        rows = np.array([tiny] * 5)  # T >= w: the lock-step loop
        for got in (build_alias_arrays(tiny), build_alias_arrays_batch(rows)):
            assert np.array_equal(np.broadcast_to(want[0], got[0].shape), got[0])
            assert np.array_equal(np.broadcast_to(want[1], got[1].shape), got[1])

    def test_overflowing_sum_is_refused_naming_the_vertex(self):
        graph = TemporalGraph.from_stream(EdgeStream(
            [0, 1, 1], [1, 0, 2], [1.0, 2.0, 1.0], weight=[1.0, 1e308, 1.5e308]))
        with pytest.raises(ValueError, match="vertex 1 sum past the float64"):
            BatchTeaEngine(graph, unbiased_walk()).prepare()
        with pytest.raises(ValueError, match="vertex 0 sum past the float64"):
            BatchTeaEngine(_two_edge_graph([1e308, 1.5e308]), unbiased_walk()).prepare()
