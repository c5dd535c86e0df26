"""Engine internals: candidate-weight oracle, strict modes, storage reuse."""

import numpy as np
import pytest

from repro.core.weights import WeightModel
from repro.engines import (
    BatchTeaEngine,
    GraphWalkerEngine,
    KnightKingEngine,
    TeaEngine,
    Workload,
)
from repro.exceptions import SamplingBudgetExceeded
from repro.walks.apps import (
    exponential_walk,
    linear_walk,
    temporal_node2vec,
    unbiased_walk,
)
from repro.walks.spec import WalkSpec


class TestCandidateWeightsOracle:
    """``WeightModel.prefix`` — the weights of the exact β fallback — is
    :meth:`WeightModel.compute` restricted to one candidate prefix, bit
    for bit, on every kind."""

    @pytest.mark.parametrize(
        "kind,scale",
        [("uniform", 1.0), ("linear_rank", 1.0), ("linear_time", 1.0),
         ("exponential", 15.0), ("exponential_decay", 15.0)],
    )
    def test_proportional_to_static_weights(self, small_graph, kind, scale):
        model = WeightModel(kind, scale)
        static = model.compute(small_graph)
        for v in np.argsort(small_graph.degrees())[-3:]:
            v = int(v)
            d = small_graph.out_degree(v)
            for s in {1, d // 2, d}:
                if s < 1:
                    continue
                lo = small_graph.indptr[v]
                assert np.array_equal(model.prefix(small_graph, v, s),
                                      static[lo : lo + s]), (kind, v, s)


class TestBetaFallbackUnderDecay:
    """Lanes that exhaust the β rejection budget draw ∝ weight·β under
    ``exponential_decay`` too (the decay sign was once inverted there).

    Vertex 0's one edge reaches vertex 1 at t=0; vertex 1's edges are
    all later, so every walk's second hop leaves vertex 1 with
    predecessor 0 over the whole segment. p = 1e-6 makes β_max = 1e6
    while every candidate's β is 1 (a static neighbour of 0) or 1/q, so
    no lane accepts within the budget and all take the fallback.
    """

    CANDIDATES = 8

    def _graph(self):
        from repro.graph.temporal_graph import TemporalGraph

        hops = [(1, 2 + j, float(1 + j)) for j in range(self.CANDIDATES)]
        into_zero = [(2 + j, 0, 50.0) for j in range(0, self.CANDIDATES, 3)]
        return TemporalGraph.from_edges([(0, 1, 0.0)] + hops + into_zero)

    @pytest.mark.parametrize("make", [
        lambda g, s: TeaEngine(g, s),
        lambda g, s: BatchTeaEngine(g, s),
        lambda g, s: BatchTeaEngine(g, s, kernel_backend="numpy"),
    ], ids=["scalar", "batch", "batch-numpy"])
    def test_fallback_draws_follow_weight_times_beta(self, make):
        from repro.walks.spec import Node2VecParameter
        from tests.conftest import chisquare_ok

        graph = self._graph()
        beta = Node2VecParameter(p=1e-6, q=4.0)
        spec = WalkSpec("decay-n2v", WeightModel("exponential_decay", 3.0),
                        dynamic_parameter=beta)
        n = 6000
        out = make(graph, spec).run_lanes(
            np.zeros(n, dtype=np.int64), np.arange(n, dtype=np.uint64), 2)
        assert (out.lengths == 2).all()
        lo = int(graph.indptr[1])
        cand = graph.nbr[lo : lo + self.CANDIDATES]
        probs = spec.weight_model.compute(graph)[lo : lo + self.CANDIDATES] * [
            beta(graph, 0, int(c)) for c in cand]
        probs /= probs.sum()
        counts = np.bincount(
            np.searchsorted(-graph.etime[lo : lo + self.CANDIDATES],
                            -out.hop_time[:, 1]),
            minlength=self.CANDIDATES)
        assert chisquare_ok(counts.astype(float), probs)


class TestKnightKingStrict:
    def test_strict_raises_on_budget(self):
        from repro.graph.temporal_graph import TemporalGraph

        # Extreme skew: one huge weight, many tiny ones.
        edges = [(0, i + 1, float(i)) for i in range(50)] + [(0, 99, 1000.0)]
        graph = TemporalGraph.from_edges(edges)
        engine = KnightKingEngine(
            graph, exponential_walk(scale=1.0), max_trials=1, strict=True
        )
        engine.prepare()
        rng = np.random.default_rng(0)
        from repro.sampling.counters import CostCounters

        with pytest.raises(SamplingBudgetExceeded):
            for _ in range(500):
                engine.sample_edge(0, 51, None, rng, CostCounters())

    def test_nonstrict_falls_back(self):
        from repro.graph.temporal_graph import TemporalGraph

        edges = [(0, i + 1, float(i)) for i in range(50)] + [(0, 99, 1000.0)]
        graph = TemporalGraph.from_edges(edges)
        engine = KnightKingEngine(
            graph, exponential_walk(scale=1.0), max_trials=1, strict=False
        )
        engine.prepare()
        rng = np.random.default_rng(0)
        from repro.sampling.counters import CostCounters

        counters = CostCounters()
        for _ in range(200):
            idx = engine.sample_edge(0, 51, None, rng, counters)
            assert 0 <= idx < 51
        assert counters.edges_evaluated > 0


class TestGraphWalkerStorage:
    def test_explicit_storage_dir(self, small_graph, tmp_path):
        engine = GraphWalkerEngine(
            small_graph, exponential_walk(scale=20.0), out_of_core=True,
            storage_dir=str(tmp_path / "gw"),
        )
        result = engine.run(Workload(max_length=5, max_walks=10), seed=0)
        # Only the weights are spilled: nothing reads a spilled nbr/time.
        assert [p.name for p in (tmp_path / "gw").iterdir()] == ["w.bin"]
        assert result.counters.io_bytes > 0

    def test_linear_uses_its_not_scan(self, small_graph):
        """Static weights: GraphWalker's per-step cost is logarithmic,
        not a full scan (paper §4.3's complexity table)."""
        its_engine = GraphWalkerEngine(small_graph, linear_walk())
        scan_engine = GraphWalkerEngine(small_graph, exponential_walk(scale=20.0))
        wl = Workload(max_length=10, max_walks=40)
        its_cost = its_engine.run(wl, seed=1).counters.edges_per_step
        scan_cost = scan_engine.run(wl, seed=1).counters.edges_per_step
        assert its_cost < scan_cost


class TestEmptyAndDegenerateGraphs:
    def test_engine_on_empty_graph(self):
        from repro.graph.edge_stream import EdgeStream
        from repro.graph.temporal_graph import TemporalGraph

        graph = TemporalGraph.from_stream(EdgeStream.empty(), num_vertices=4)
        engine = TeaEngine(graph, unbiased_walk())
        result = engine.run(Workload(max_length=5), seed=0)
        assert result.num_walks == 4
        assert result.total_steps == 0

    def test_engine_on_single_edge(self):
        from repro.graph.temporal_graph import TemporalGraph

        graph = TemporalGraph.from_edges([(0, 1, 1.0)])
        engine = TeaEngine(graph, exponential_walk())
        result = engine.run(Workload(max_length=5), seed=0)
        paths = {tuple(p.vertices) for p in result.paths}
        assert paths == {(0, 1), (1,)}

    def test_self_loop_graph(self):
        """Self loops at increasing times are legal temporal edges."""
        from repro.graph.temporal_graph import TemporalGraph

        graph = TemporalGraph.from_edges(
            [(0, 0, float(t)) for t in range(5)]
        )
        engine = TeaEngine(graph, unbiased_walk())
        result = engine.run(Workload(max_length=10), seed=0)
        path = result.paths[0]
        times = [t for _, t in path.hops if t is not None]
        assert times == sorted(times)
        assert all(v == 0 for v in path.vertices)


def _engine_subclasses():
    # Import every module that defines an Engine subclass, so the count
    # does not depend on which test modules ran first.
    import benchmarks.distributed  # noqa: F401
    import examples.moderation_pipeline  # noqa: F401
    import repro.engines  # noqa: F401
    import repro.parallel  # noqa: F401
    import tests.ooc_oracle  # noqa: F401
    from repro.engines.base import Engine

    seen, stack = [], [Engine]
    while stack:
        for sub in stack.pop().__subclasses__():
            if sub not in seen:
                seen.append(sub)
                stack.append(sub)
    return seen


class TestOneDriver:
    """Algorithm 2 exists once: one run skeleton, one frontier loop,
    one scalar step."""

    def test_only_engine_defines_run(self):
        subclasses = _engine_subclasses()
        assert len(subclasses) >= 10  # the zoo is actually being walked
        offenders = [c.__name__ for c in subclasses if "run" in vars(c)]
        assert offenders == []

    def test_only_batch_engine_defines_the_frontier_loop(self):
        from repro.engines import BatchTeaEngine

        owners = [c for c in _engine_subclasses() if "_run_frontier" in vars(c)]
        assert owners == [BatchTeaEngine]

    def test_sample_batch_overrides_keep_the_seam_signature(self):
        import inspect

        from repro.engines import BatchTeaEngine

        base = inspect.signature(BatchTeaEngine._sample_batch)
        overrides = [
            c for c in _engine_subclasses()
            if "_sample_batch" in vars(c) and c is not BatchTeaEngine
        ]
        assert overrides  # the out-of-core index provider, at least
        for cls in overrides:
            assert inspect.signature(cls._sample_batch) == base, cls.__name__

    @pytest.mark.parametrize(
        "make",
        [
            lambda g, s: TeaEngine(g, s),
            lambda g, s: TeaEngine(g, s, structure="pat"),
            lambda g, s: GraphWalkerEngine(g, s),
            lambda g, s: KnightKingEngine(g, s),
        ],
        ids=["tea-hpat", "tea-pat", "graphwalker", "knightking"],
    )
    @pytest.mark.parametrize(
        "spec_fn", [exponential_walk, temporal_node2vec], ids=["exp", "n2v"]
    )
    def test_step_observer_consumes_no_randomness(self, small_graph, make,
                                                  spec_fn):
        """A traced run (every walk observed per step) and an untraced
        one walk the same paths at the same cost."""
        from repro.telemetry import PhaseProfiler

        wl = Workload(max_length=12, max_walks=40, stop_probability=0.05)
        plain = make(small_graph, spec_fn()).run(wl, seed=3)
        engine = make(small_graph, spec_fn())
        engine.profiler = PhaseProfiler(calibrate=False)
        engine.profiler.walk_sample_every = 1
        traced = engine.run(wl, seed=3)
        assert [p.hops for p in traced.paths] == [p.hops for p in plain.paths]
        assert traced.counters.snapshot() == plain.counters.snapshot()
        steps = traced.registry.histogram("walk.step_seconds").count
        assert steps == plain.counters.steps > 0
        assert sum(s.name == "walk.one" for s in traced.spans[1].children) == 40


def _materialise_per_walk(frontier):
    """``FrontierResult.materialise_paths`` as it was: two array slices
    and two ``tolist`` calls per walk. Kept as the reference."""
    from repro.walks.walker import WalkPath

    paths = []
    if frontier.hop_vertex is None:
        return paths
    for i, (start, length) in enumerate(zip(frontier.starts.tolist(),
                                            frontier.lengths.tolist())):
        hops = [(start, None)]
        if length:
            hops.extend(zip(frontier.hop_vertex[i, :length].tolist(),
                            frontier.hop_time[i, :length].tolist()))
        paths.append(WalkPath(hops=hops))
    return paths


class TestMaterialisePaths:
    """Flattening a block of walks at a time builds the same paths."""

    @pytest.mark.parametrize("block", [1, 3, 1024])
    @pytest.mark.parametrize("seed", range(6))
    def test_equal_to_the_per_walk_loop(self, monkeypatch, block, seed):
        from repro.engines import base

        monkeypatch.setattr(base, "BLOCK_WALKS", block)
        rng = np.random.default_rng(seed)
        num, max_length = int(rng.integers(0, 12)), int(rng.integers(0, 6))
        lengths = rng.integers(0, max_length + 1, num)
        if seed % 2:
            lengths[:] = 0
        # Filled past each walk's length too: only taken hops may show.
        frontier = base.FrontierResult(
            rng.integers(0, 9, num), lengths.astype(np.int64),
            rng.integers(0, 9, (num, max_length)),
            rng.normal(0.0, 1e3, (num, max_length)))
        want = [p.hops for p in _materialise_per_walk(frontier)]
        assert [p.hops for p in frontier.materialise_paths()] == want
        for path in frontier.materialise_paths():
            assert all(type(v) is int and (t is None or type(t) is float)
                       for v, t in path.hops)


class TestObserveLengths:
    """Counting lengths by value folds the ``walk.length`` histogram the
    ``np.unique`` fold did, bit for bit."""

    @pytest.mark.parametrize("seed", range(6))
    def test_equal_to_the_unique_fold(self, seed):
        from repro.engines.base import FrontierResult
        from repro.telemetry import MetricsRegistry

        rng = np.random.default_rng(seed)
        max_length = int(rng.integers(1, 100))
        lengths = rng.integers(0, max_length + 1, int(rng.integers(0, 3000)))
        for rows in (lengths, np.zeros_like(lengths),
                     np.full_like(lengths, max_length)):
            got = MetricsRegistry().histogram("walk.length")
            FrontierResult(rows, rows).observe_lengths(got)
            want = MetricsRegistry().histogram("walk.length")
            values, counts = np.unique(rows, return_counts=True)
            for value, n in zip(values.tolist(), counts.tolist()):
                want.observe_n(value, n)
            assert got.snapshot() == want.snapshot()
