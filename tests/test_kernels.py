"""Fused sampling-kernel backends, β fallbacks, and streaming decay.

Covers the kernel-fusion PR end to end: backend registry semantics,
bit-parity between the fused backends and the preserved pre-fusion
kernel, the uniform-block draw contract they rely on, the hardened /
vectorised β code paths, scalar-vs-fused distribution equivalence under
``exponential_decay``, and ``exponential_decay`` on the streaming carry
forest.
"""

import numpy as np
import pytest

import repro.engines.batch as batch_mod
from repro.core import builder, persist
from repro.core.incremental import IncrementalHPAT, VertexIncrementalHPAT
from repro.core.weights import WeightModel
from repro.engines import TeaEngine, Workload
from repro.engines.batch import BatchTeaEngine, hpat_sample_batch
from repro.graph.validate import is_temporal_path
from repro.kernels import (
    KernelBackend,
    KernelScratch,
    available_backends,
    backend_fallback_note,
    resolve_backend,
    sample_batch,
)
from repro.kernels import c_backend
from repro.parallel.engine import ParallelBatchTeaEngine
from repro.rng import LaneRng, make_rng
from repro.sampling.counters import CostCounters
from repro.walks.apps import exponential_walk, temporal_node2vec
from repro.walks.spec import WalkSpec
from tests import legacy_kernel
from tests.conftest import chisquare_ok
from tests.stream_oracle import vertex_candidate_count, vertex_sample

PRODUCT = list(available_backends())


def _backend(name):
    """A product backend by name, or the pre-fusion oracle for ``legacy``."""
    return legacy_kernel.BACKEND if name == "legacy" else resolve_backend(name)


@pytest.fixture(scope="module")
def skewed_index(request):
    graph = request.getfixturevalue("medium_graph")
    pre = builder.preprocess(graph, WeightModel("exponential", scale=4.0))
    return pre.index


def _queries(index, n, seed):
    deg = np.diff(index.indptr)
    rng = np.random.default_rng(seed)
    lively = np.flatnonzero(deg > 0)
    vs = lively[rng.integers(0, lively.size, size=n)].astype(np.int64)
    ss = 1 + (deg[vs] * rng.random(n)).astype(np.int64)
    return vs, ss


class TestBackendRegistry:
    def test_available_backends_always_has_numpy(self):
        names = available_backends()
        assert "numpy" in names and "legacy" not in names

    def test_resolve_passthrough_and_auto(self):
        backend = resolve_backend("numpy")
        assert isinstance(backend, KernelBackend)
        assert resolve_backend(backend) is backend
        auto = resolve_backend("auto")
        assert auto.name == ("c" if "c" in available_backends() else "numpy")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            resolve_backend("cuda")
        # The pre-fusion kernel is a test oracle, not a product backend.
        with pytest.raises(ValueError, match="unknown kernel backend"):
            resolve_backend("legacy")

    def test_compiled_backend_serves_wherever_a_compiler_exists(self):
        # Compile-is-the-gate: a host with cc runs the C passes and the
        # fused lane-keyed hop, asked for by name or by ``auto`` — a
        # failure, never a skip.
        for name in ("c", "auto"):
            resolved = resolve_backend(name)
            if c_backend.find_cc() is not None:
                assert resolved.name == "c", backend_fallback_note()
                assert resolved.hop is not None
                assert backend_fallback_note() is None
            else:
                assert resolved.name == "numpy"
                assert "cc" in backend_fallback_note()


@pytest.mark.skipif(c_backend.find_cc() is None, reason="no C compiler on PATH")
class TestFusedHopBinds:
    """Under ``c`` the fused hop binds every index the product builds or
    loads. An array the kernel ABI cannot take (an int64 ``alias``, say)
    sends the run to the numpy passes: ≈10× slower, and just as correct,
    so no parity test would notice."""

    SPEC = exponential_walk(scale=8.0)

    @staticmethod
    def _assert_binds(engine):
        """Run ``engine``'s frontier with ``c``; every ``hop`` it asked
        for must have returned a step, not ``None``."""
        compiled, hops = resolve_backend("c"), []

        def hop(*args):
            hops.append(compiled.hop(*args))
            return hops[-1]

        engine.kernel = KernelBackend(**{**vars(compiled), "hop": hop})
        V = engine.graph.num_vertices
        counters = CostCounters()
        engine._run_frontier(np.arange(V), 4, 0.0,
                             LaneRng(np.arange(V, dtype=np.uint64)), counters,
                             True)
        assert hops and None not in hops
        assert counters.steps > 0

    @pytest.fixture
    def prepared(self, medium_graph):
        return medium_graph, builder.preprocess(medium_graph,
                                                self.SPEC.weight_model)

    def test_preprocess(self, prepared):
        graph, pre = prepared
        self._assert_binds(BatchTeaEngine.from_prepared(
            graph, self.SPEC, pre.index, pre.candidate_sizes))

    @pytest.mark.parametrize("mmap_mode", [None, "r"])
    def test_load_hpat(self, prepared, tmp_path, mmap_mode):
        graph, pre = prepared
        path = tmp_path / "index.npz"
        desc = self.SPEC.weight_model.describe()
        persist.save_hpat(path, pre.index, graph, pre.candidate_sizes,
                          weight_desc=desc, compressed=mmap_mode is None)
        index, sizes = persist.load_hpat(path, graph, weight_desc=desc,
                                         mmap_mode=mmap_mode)
        assert isinstance(index.alias, np.memmap) == (mmap_mode is not None)
        self._assert_binds(BatchTeaEngine.from_prepared(graph, self.SPEC,
                                                        index, sizes))

    def test_engine_prepare(self, medium_graph):
        engine = BatchTeaEngine(medium_graph, self.SPEC)
        engine.prepare()
        self._assert_binds(engine)

    def test_parallel_shared_memory_image(self, medium_graph):
        engine = ParallelBatchTeaEngine(medium_graph, self.SPEC, workers=2,
                                        share_mode="shm")
        try:
            engine.prepare()
            worker_ctx = engine._ensure_static_ctx()
            assert engine._image is not None, "shared memory unavailable"
            self._assert_binds(worker_ctx.build_engine())
        finally:
            engine.close()


class TestUniformBlockContract:
    """``uniform_block(lanes, k)`` ≡ k successive ``uniform`` calls.

    The driver draws the two alias uniforms as one block; the pre-fusion
    kernel drew them as two calls. Backend bit-parity rests on these
    being the same numbers for both draw sources: a frontier run's
    ``LaneRng`` and the standalone drivers' ``Generator``, whose block is
    ``rng.random((2, n))``.
    """

    def test_lane_rng(self):
        lanes = np.arange(257, dtype=np.int64)
        a = LaneRng(np.arange(257, dtype=np.uint64) + 5)
        b = LaneRng(np.arange(257, dtype=np.uint64) + 5)
        block = a.uniform_block(lanes, 2)
        assert np.array_equal(block[0], b.uniform(lanes))
        assert np.array_equal(block[1], b.uniform(lanes))

    def test_generator_lanes(self):
        a, b = np.random.default_rng(9), np.random.default_rng(9)
        block = a.random((2, 257))
        assert np.array_equal(block[0], b.random(257))
        assert np.array_equal(block[1], b.random(257))


@pytest.mark.parametrize("name", PRODUCT)
class TestBackendParity:
    """Every fused backend is bit-identical to the pre-fusion kernel."""

    def test_lane_rng_parity_across_sizes(self, skewed_index, name):
        legacy = legacy_kernel.BACKEND
        backend = resolve_backend(name)
        scratch = KernelScratch()  # deliberately reused across sizes
        for n in (1, 17, 300, 5000):
            vs, ss = _queries(skewed_index, n, seed=n)
            lanes = np.arange(n, dtype=np.int64)
            ref = sample_batch(
                legacy, skewed_index, vs, ss, None,
                draw=LaneRng(lanes.astype(np.uint64) + 3), lanes=lanes,
            )
            got = sample_batch(
                backend, skewed_index, vs, ss, None,
                draw=LaneRng(lanes.astype(np.uint64) + 3), lanes=lanes,
                scratch=scratch,
            )
            # The result is a scratch view: compare before the next call.
            assert np.array_equal(ref, got), f"{name} diverged at n={n}"

    def test_generator_parity(self, skewed_index, name):
        legacy = legacy_kernel.BACKEND
        backend = resolve_backend(name)
        vs, ss = _queries(skewed_index, 2000, seed=1)
        ref = sample_batch(legacy, skewed_index, vs, ss, make_rng(4))
        got = sample_batch(backend, skewed_index, vs, ss, make_rng(4))
        assert np.array_equal(ref, got)

    def test_counters_match_legacy(self, skewed_index, name):
        backend = resolve_backend(name)
        vs, ss = _queries(skewed_index, 500, seed=2)
        c_legacy, c_backend = CostCounters(), CostCounters()
        sample_batch(legacy_kernel.BACKEND, skewed_index, vs, ss,
                     make_rng(0), c_legacy)
        sample_batch(backend, skewed_index, vs, ss, make_rng(0), c_backend)
        assert c_backend.binary_search_probes == c_legacy.binary_search_probes
        assert c_backend.alias_draws == c_legacy.alias_draws


class TestEngineBackendParity:
    """Whole walk runs are backend-independent (hop for hop)."""

    @pytest.mark.parametrize("name", PRODUCT + ["legacy"])
    def test_node2vec_walks_identical(self, medium_graph, name):
        spec = temporal_node2vec(p=2.0, q=0.5, scale=8.0)
        workload = Workload(walks_per_vertex=1, max_length=20, max_walks=150)
        ref = BatchTeaEngine(medium_graph, spec, kernel_backend="numpy").run(
            workload, seed=11, record_paths=True)
        got = BatchTeaEngine(medium_graph, spec, kernel_backend=_backend(name)
                             ).run(workload, seed=11, record_paths=True)
        assert [tuple(p.vertices) for p in ref.paths] == \
            [tuple(p.vertices) for p in got.paths]


class TestScalarFusedDecayEquivalence:
    """Satellite: scalar TEA ≡ fused kernel under ``exponential_decay``."""

    @pytest.mark.parametrize("name", PRODUCT + ["legacy"])
    def test_distribution_matches_scalar(self, medium_graph, name):
        spec = WalkSpec(
            name="decay",
            weight_model=WeightModel("exponential_decay", scale=25.0),
        )
        engine = BatchTeaEngine(medium_graph, spec, kernel_backend=_backend(name))
        engine.prepare()
        deg = np.diff(medium_graph.indptr)
        v = int(np.argmax(deg))
        s = int(deg[v])
        weights = spec.weight_model.compute(medium_graph)
        lo = medium_graph.indptr[v]
        probs = weights[lo:lo + s] / weights[lo:lo + s].sum()

        n = 20000
        draws = hpat_sample_batch(
            engine.index, np.full(n, v), np.full(n, s), make_rng(2),
            CostCounters(), backend=engine.kernel,
        )
        assert chisquare_ok(np.bincount(draws, minlength=s).astype(float),
                            probs), f"fused[{name}] off-distribution"

        scalar = TeaEngine(medium_graph, spec)
        scalar.prepare()
        rng = make_rng(3)
        counters = CostCounters()
        scalar_draws = np.array([
            scalar.index.sample(v, s, rng, counters) for _ in range(n)
        ])
        assert chisquare_ok(
            np.bincount(scalar_draws, minlength=s).astype(float), probs
        ), "scalar TEA off-distribution"


class TestBetaEmptyKeys:
    """Satellite: ``_beta_batch`` survives a degenerate static adjacency."""

    def test_empty_keys_direct(self, medium_graph):
        spec = temporal_node2vec(p=2.0, q=0.25, scale=8.0)
        engine = BatchTeaEngine(medium_graph, spec)
        engine.prepare()
        engine._static_keys = np.zeros(0, dtype=np.int64)
        prev = np.array([0, 1, 2, 3], dtype=np.int64)
        cand = np.array([1, 1, 2, 9], dtype=np.int64)  # mixed ==/!= prev
        out = engine._beta_batch(prev, cand)  # pre-fix: IndexError
        q = spec.dynamic_parameter.q
        p = spec.dynamic_parameter.p
        expected = np.where(cand == prev, 1.0 / p, 1.0 / q)
        np.testing.assert_allclose(out, expected)

    def test_walk_with_empty_static_keys(self, medium_graph):
        # The from_prepared worker path can legitimately hand the engine
        # an empty key array (e.g. a spec-restricted empty adjacency);
        # node2vec walks must still run, scoring every candidate 1/q.
        spec = temporal_node2vec(p=2.0, q=0.5, scale=8.0)
        donor = BatchTeaEngine(medium_graph, spec)
        donor.prepare()
        engine = BatchTeaEngine.from_prepared(
            medium_graph, spec, donor.index, donor.candidate_sizes,
            static_keys=np.zeros(0, dtype=np.int64),
        )
        result = engine.run(Workload(max_length=10, max_walks=60), seed=2,
                            record_paths=True)
        assert result.num_walks == 60
        for path in result.paths:
            assert is_temporal_path(medium_graph, path.hops)


class TestBetaFallbackVectorised:
    """Satellite: the budget-exhaustion fallback is exact and batched."""

    def _engine(self, graph, q=0.25):
        spec = temporal_node2vec(p=2.0, q=q, scale=8.0)
        engine = BatchTeaEngine(graph, spec)
        engine.prepare()
        return engine, spec

    def test_fallback_distribution(self, medium_graph):
        engine, spec = self._engine(medium_graph)
        g = medium_graph
        deg = np.diff(g.indptr)
        v = int(np.argmax(deg))
        s = int(deg[v])
        prev = int(g.nbr[g.indptr[v]])  # a real neighbor as prev vertex
        beta = spec.dynamic_parameter

        n = 20000
        vs = np.full(n, v, dtype=np.int64)
        ss = np.full(n, s, dtype=np.int64)
        prevs = np.full(n, prev, dtype=np.int64)
        lanes = np.arange(n, dtype=np.int64)
        counters = CostCounters()
        draws = engine._beta_fallback_batch(
            vs, ss, prevs, beta, LaneRng(lanes.astype(np.uint64)), lanes,
            counters,
        )
        w = spec.weight_model.compute(g)[g.indptr[v]:g.indptr[v] + s]
        cand = g.nbr[g.indptr[v]:g.indptr[v] + s]
        bvals = np.array([beta(g, prev, int(c)) for c in cand])
        probs = w * bvals
        probs /= probs.sum()
        assert chisquare_ok(np.bincount(draws, minlength=s).astype(float),
                            probs)
        assert counters.edges_evaluated >= n * s  # exact scans accounted

    def test_fallback_chunk_invariant(self, medium_graph):
        # Per-lane prefix sums must not depend on which other lanes share
        # the batch: splitting one fallback population into two calls
        # (same lane ids, fresh counter streams) gives identical picks.
        engine, spec = self._engine(medium_graph)
        beta = spec.dynamic_parameter
        vs, ss = _queries(engine.index, 600, seed=8)
        prevs = np.array(
            [int(medium_graph.nbr[medium_graph.indptr[v]]) for v in vs],
            dtype=np.int64,
        )
        lanes = np.arange(600, dtype=np.int64)

        def run(idx):
            return engine._beta_fallback_batch(
                vs[idx], ss[idx], prevs[idx], beta,
                LaneRng(lanes.astype(np.uint64) + 1), lanes[idx],
                CostCounters(),
            )

        whole = run(slice(None))
        halves = np.concatenate([run(slice(0, 300)), run(slice(300, None))])
        assert np.array_equal(whole, halves)

    def test_forced_fallback_walks(self, medium_graph, monkeypatch):
        # One rejection round + a huge q makes nearly every non-neighbor
        # candidate reject, so real frontiers drain through the fallback.
        monkeypatch.setattr(batch_mod, "_MAX_BETA_ROUNDS", 1)
        engine, _ = self._engine(medium_graph, q=1e6)
        workload = Workload(max_length=12, max_walks=80)
        result = engine.run(workload, seed=6, record_paths=True)
        rerun = self._engine(medium_graph, q=1e6)[0].run(
            workload, seed=6, record_paths=True)
        assert result.num_walks == 80
        for path in result.paths:
            assert is_temporal_path(medium_graph, path.hops)
        assert [tuple(p.vertices) for p in result.paths] == \
            [tuple(p.vertices) for p in rerun.paths]


class TestDecayCarryForest:
    """``exponential_decay`` on the carry forest, in and far past float64
    range (its newest edges are its lightest)."""

    WM = WeightModel("exponential_decay", scale=5.0)

    def _stream(self, n=600, seed=3, horizon=90.0):
        rng = np.random.default_rng(seed)
        times = np.sort(rng.uniform(0.0, horizon, size=n))
        dst = rng.integers(0, 40, size=n).astype(np.int64)
        return dst, times

    def test_matches_static_weights(self):
        dst, times = self._stream()
        carry = VertexIncrementalHPAT(self.WM)
        for lo in range(0, 600, 50):
            carry.append_batch(dst[lo:lo + 50], times[lo:lo + 50])
        d, t, w = carry.edges_desc()
        assert np.array_equal(d, dst[::-1]) and np.array_equal(t, times[::-1])
        assert np.array_equal(w, np.exp((times[0] - times[::-1]) / 5.0))
        assert all(b.exp == 0 for b in carry.blocks)

    def test_sampling_distribution(self):
        """Eq. 3 over the whole stream, then over a prefix 6 000 scale
        units past the first edge, where every raw weight is 0.0."""
        dst, times = self._stream(n=300)
        far = times + 30_000.0
        carry = VertexIncrementalHPAT(self.WM)
        carry.append_batch(dst, times)
        for lo in range(0, 300, 40):
            carry.append_batch(dst[lo:lo + 40], far[lo:lo + 40])
        assert any(b.exp for b in carry.blocks)
        rng = make_rng(5)
        counters = CostCounters()
        for t_after, cands in ((-1.0, np.concatenate([times, far])),
                               (far[0] - 1.0, far)):
            s = vertex_candidate_count(carry, t_after)  # newer-than t
            assert s == cands.size
            logs = (times[0] - cands) / 5.0
            probs = np.exp(logs - logs.max())
            # vertex_sample() returns (dst, time); timestamps are unique,
            # so they identify the drawn edge.
            drawn_t = np.array([vertex_sample(carry, s, rng, counters)[1]
                                for _ in range(12000)])
            idx = np.searchsorted(cands, drawn_t)
            assert np.array_equal(cands[idx], drawn_t)
            assert chisquare_ok(np.bincount(idx, minlength=s).astype(float),
                                probs / probs.sum())

    def test_snapshot_restore_roundtrip(self):
        from tests.carry_oracle import forest_state

        dst, times = self._stream()
        times[400:] += 20_000.0  # the second half needs exponents
        carry = VertexIncrementalHPAT(self.WM)
        carry.append_batch(dst[:400], times[:400])
        snap = carry.snapshot()
        before = forest_state(carry)
        carry.append_batch(dst[400:], times[400:])
        carry.restore(snap)
        assert forest_state(carry) == before
        # The restored forest accepts the stream again, identically.
        carry.append_batch(dst[400:], times[400:])
        again = VertexIncrementalHPAT(self.WM)
        again.append_batch(dst[:400], times[:400])
        again.append_batch(dst[400:], times[400:])
        assert forest_state(carry) == forest_state(again)
        assert carry.num_edges == 600 and any(b.exp for b in carry.blocks)

    def test_out_of_order_batch_rejected(self):
        from repro.exceptions import NotSupportedError

        carry = VertexIncrementalHPAT(self.WM)
        carry.append_batch(np.array([1]), np.array([10.0]))
        with pytest.raises(NotSupportedError):
            carry.append_batch(np.array([2]), np.array([5.0]))
        assert carry.num_edges == 1

    def test_incremental_hpat_builds_one_structure_for_every_kind(self):
        from repro.core.weights import KINDS
        from repro.graph.edge_stream import EdgeStream

        dst, times = self._stream(n=200)
        src = np.zeros(200, dtype=np.int64)
        for kind in KINDS:
            inc = IncrementalHPAT(WeightModel(kind, 5.0))
            for lo in range(0, 200, 25):
                sl = slice(lo, lo + 25)
                inc.apply_batch(EdgeStream(src[sl], dst[sl], times[sl]))
            assert type(inc.vertices[0]) is VertexIncrementalHPAT
            # Carries re-index: eight 25-edge batches merge like a counter.
            assert inc.update_work() == 200 + inc.vertices[0].merged_edges > 200
