"""Engines: walk loop, path validity, termination, configuration."""

import numpy as np
import pytest

from repro.engines import (
    CtdneEngine,
    GraphWalkerEngine,
    KnightKingEngine,
    TeaEngine,
    TeaOutOfCoreEngine,
    Workload,
)
from repro.exceptions import SimulatedOOM
from repro.graph.validate import is_temporal_path
from repro.walks.apps import (
    exponential_walk,
    linear_walk,
    temporal_node2vec,
    unbiased_walk,
)

ALL_ENGINES = [
    ("tea-hpat", lambda g, s: TeaEngine(g, s)),
    ("tea-hpat-noindex", lambda g, s: TeaEngine(g, s, use_aux_index=False)),
    ("tea-pat", lambda g, s: TeaEngine(g, s, structure="pat")),
    ("tea-its", lambda g, s: TeaEngine(g, s, structure="its")),
    ("graphwalker", lambda g, s: GraphWalkerEngine(g, s)),
    ("graphwalker-ooc", lambda g, s: GraphWalkerEngine(g, s, out_of_core=True)),
    ("knightking", lambda g, s: KnightKingEngine(g, s)),
    ("ctdne", lambda g, s: CtdneEngine(g, s)),
    ("tea-ooc", lambda g, s: TeaOutOfCoreEngine(g, s, trunk_size=4)),
]

ALL_SPECS = [linear_walk(), exponential_walk(scale=20.0),
             temporal_node2vec(scale=20.0), unbiased_walk()]


class TestWorkload:
    def test_resolve_all_vertices(self):
        wl = Workload(walks_per_vertex=2)
        starts = wl.resolve_starts(5, np.random.default_rng(0))
        assert sorted(starts.tolist()) == sorted(list(range(5)) * 2)

    def test_resolve_subset(self):
        wl = Workload(start_vertices=[1, 3])
        starts = wl.resolve_starts(10, np.random.default_rng(0))
        assert sorted(starts.tolist()) == [1, 3]

    def test_max_walks_caps(self):
        wl = Workload(max_walks=3)
        starts = wl.resolve_starts(100, np.random.default_rng(0))
        assert starts.size == 3

    def test_start_major(self):
        """Walk ``i`` of the ``k``-th start sits at ``k·R + i``; a given
        start order is kept, and so is R = 1 without ``max_walks``."""
        wl = Workload(walks_per_vertex=3, start_vertices=[4, 1, 7])
        rng = np.random.default_rng(0)
        assert wl.resolve_starts(10, rng).tolist() == [4, 4, 4, 1, 1, 1, 7, 7, 7]
        assert Workload().resolve_starts(4, rng).tolist() == [0, 1, 2, 3]

    def test_max_walks_keeps_start_major_order(self):
        """The subsample draws the indices the old element draw drew,
        then sorts them."""
        wl = Workload(walks_per_vertex=5, max_walks=40)
        starts = wl.resolve_starts(30, np.random.default_rng(3))
        assert starts.size == 40 and np.all(np.diff(starts) >= 0)
        picked = np.random.default_rng(3).choice(150, size=40, replace=False)
        assert starts.tolist() == (np.sort(picked) // 5).tolist()

    def test_describe(self):
        assert "R=1" in Workload().describe()


@pytest.mark.parametrize("name,factory", ALL_ENGINES)
@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
class TestEveryEngineEverySpec:
    def test_paths_are_temporal(self, small_graph, name, factory, spec):
        engine = factory(small_graph, spec)
        result = engine.run(Workload(max_length=15, max_walks=25), seed=7)
        assert result.num_walks == 25
        for path in result.paths:
            assert is_temporal_path(engine.graph, path.hops), (name, path.hops)
            assert path.num_edges <= 15

    def test_counters_populated(self, small_graph, name, factory, spec):
        engine = factory(small_graph, spec)
        result = engine.run(Workload(max_length=10, max_walks=10), seed=1)
        if result.total_steps:
            assert result.counters.edges_evaluated > 0
        assert result.memory.total > 0
        assert result.total_seconds >= 0


class TestTermination:
    def test_walk_stops_at_dead_end(self, toy_graph):
        # Vertex 6 has no out-edges: walks from it have zero steps.
        engine = TeaEngine(toy_graph, unbiased_walk())
        result = engine.run(
            Workload(start_vertices=[6], max_length=10), seed=0
        )
        assert result.paths[0].num_edges == 0

    def test_max_length_respected(self, small_graph):
        engine = TeaEngine(small_graph, unbiased_walk())
        result = engine.run(Workload(max_length=3, max_walks=20), seed=0)
        assert all(p.num_edges <= 3 for p in result.paths)

    def test_time_monotone_forces_termination(self, toy_graph):
        # Without L limits, temporal walks still end (times strictly rise).
        engine = TeaEngine(toy_graph, unbiased_walk())
        result = engine.run(Workload(max_length=10_000), seed=0)
        assert all(p.num_edges < 20 for p in result.paths)


class TestTeaConfiguration:
    def test_bad_structure(self, toy_graph):
        with pytest.raises(ValueError):
            TeaEngine(toy_graph, unbiased_walk(), structure="magic")

    def test_alias_structure_oom(self, medium_graph):
        engine = TeaEngine(
            medium_graph, unbiased_walk(), structure="alias",
            alias_budget_bytes=1024,
        )
        with pytest.raises(SimulatedOOM):
            engine.run(Workload(max_walks=1), seed=0)

    def test_alias_structure_works_in_budget(self, toy_graph):
        engine = TeaEngine(toy_graph, linear_walk(), structure="alias")
        result = engine.run(Workload(max_length=5, max_walks=10), seed=0)
        assert result.num_walks == 10

    def test_construction_report_available(self, small_graph):
        engine = TeaEngine(small_graph, exponential_walk())
        engine.prepare()
        assert engine.construction_report.total_seconds > 0

    def test_engine_names(self, toy_graph):
        assert TeaEngine(toy_graph, unbiased_walk()).name == "tea-hpat"
        assert TeaEngine(toy_graph, unbiased_walk(), use_aux_index=False).name == "tea-hpat-noindex"
        assert TeaEngine(toy_graph, unbiased_walk(), structure="pat").name == "tea-pat"

    def test_prepare_idempotent(self, small_graph):
        engine = TeaEngine(small_graph, unbiased_walk())
        engine.prepare()
        index = engine.index
        engine.prepare()
        assert engine.index is index


class TestKnightKing:
    def test_modeled_nodes_divide_time(self, small_graph):
        spec = exponential_walk(scale=20.0)
        wl = Workload(max_length=10, max_walks=30)
        single = KnightKingEngine(small_graph, spec, nodes=1).run(wl, seed=0)
        octo = KnightKingEngine(small_graph, spec, nodes=8).run(wl, seed=0)
        assert octo.time_divisor == 8.0
        # Same sampling work; only the reported wall time scales.
        assert octo.counters.rejection_trials == pytest.approx(
            single.counters.rejection_trials, rel=0.3
        )

    def test_bad_nodes(self, small_graph):
        with pytest.raises(ValueError):
            KnightKingEngine(small_graph, unbiased_walk(), nodes=0)

    def test_expected_trials_skew(self, small_graph):
        """Sharper exponential decay ⇒ more expected trials (Section 3.1)."""
        mild = KnightKingEngine(small_graph, exponential_walk(scale=100.0))
        sharp = KnightKingEngine(small_graph, exponential_walk(scale=5.0))
        v = int(np.argmax(small_graph.degrees()))
        d = small_graph.out_degree(v)
        assert sharp.expected_trials(v, d) > mild.expected_trials(v, d)


class TestEdgesIntervalIntegration:
    def test_time_window_restricts_graph(self, small_graph):
        spec = unbiased_walk(time_window=(50.0, 150.0))
        engine = TeaEngine(small_graph, spec)
        assert engine.graph.num_edges < small_graph.num_edges
        if engine.graph.num_edges:
            assert engine.graph.etime.min() >= 50.0
            assert engine.graph.etime.max() <= 150.0

    def test_walks_respect_window(self, small_graph):
        spec = unbiased_walk(time_window=(50.0, 150.0))
        engine = TeaEngine(small_graph, spec)
        result = engine.run(Workload(max_length=10, max_walks=20), seed=0)
        for path in result.paths:
            for _, t in path.hops[1:]:
                assert 50.0 <= t <= 150.0


class TestResultSummary:
    def test_summary_keys(self, small_graph):
        result = TeaEngine(small_graph, unbiased_walk()).run(
            Workload(max_length=5, max_walks=5), seed=0
        )
        summary = result.summary()
        for key in ("engine", "walks", "steps", "total_s", "edges_per_step"):
            assert key in summary

    def test_record_paths_false(self, small_graph):
        result = TeaEngine(small_graph, unbiased_walk()).run(
            Workload(max_length=5, max_walks=5), seed=0, record_paths=False
        )
        assert result.paths == []
        assert result.total_steps > 0


class TestStopProbability:
    def test_geometric_lengths(self, medium_graph):
        """stop_probability p gives ~geometric walk lengths (mean ≈ the
        min of 1/p and temporal exhaustion)."""
        from repro.engines.batch import BatchTeaEngine

        wl = Workload(max_length=1000, max_walks=400, stop_probability=0.5)
        for cls in (TeaEngine, BatchTeaEngine):
            result = cls(medium_graph, unbiased_walk()).run(wl, seed=0)
            mean_len = np.mean([p.num_edges for p in result.paths])
            assert mean_len < 3.0  # far below the temporal-exhaustion mean

    def test_zero_is_default_behaviour(self, small_graph):
        a = TeaEngine(small_graph, unbiased_walk()).run(
            Workload(max_length=10, max_walks=20), seed=3
        )
        b = TeaEngine(small_graph, unbiased_walk()).run(
            Workload(max_length=10, max_walks=20, stop_probability=0.0), seed=3
        )
        assert [p.hops for p in a.paths] == [p.hops for p in b.paths]

    def test_validation(self):
        with pytest.raises(ValueError):
            Workload(stop_probability=1.0)
        with pytest.raises(ValueError):
            Workload(stop_probability=-0.1)


class TestBetaExactFallback:
    def test_extreme_beta_skew_still_correct(self):
        """β so skewed that rejection almost always fails: the exact
        fallback must keep the distribution right (and bounded)."""
        from repro.graph.temporal_graph import TemporalGraph
        from repro.walks.spec import CustomParameter, WalkSpec
        from repro.core.weights import WeightModel
        from tests.conftest import chisquare_ok

        # Vertex 0 has 8 uniform-weight candidates; β crushes all but
        # candidate 1 by a factor of 1e6.
        graph = TemporalGraph.from_edges(
            [(9, 0, 0.5)] + [(0, i + 1, float(i + 1)) for i in range(8)]
        )
        crush = CustomParameter(
            fn=lambda g, prev, cand: 1.0 if cand == 1 else 1e-6,
            beta_max=1.0,
        )
        spec = WalkSpec("crush", WeightModel("uniform"), dynamic_parameter=crush)
        engine = TeaEngine(graph, spec)
        wl = Workload(walks_per_vertex=400, max_length=2, start_vertices=[9])
        result = engine.run(wl, seed=0)
        second_hops = [p.vertices[2] for p in result.paths if p.num_edges == 2]
        assert len(second_hops) == 400  # never deadlocks
        assert sum(1 for v in second_hops if v == 1) / 400 > 0.95
