"""Deletion support (``examples/moderation_pipeline.py``): tombstones,
lazy rebuilds, distribution correctness."""

import numpy as np
import pytest

from examples.moderation_pipeline import MutableTeaEngine, TombstoneHPAT
from repro.core.weights import WeightModel
from repro.engines import Workload
from repro.exceptions import EmptyCandidateSetError
from repro.graph.temporal_graph import TemporalGraph
from repro.graph.validate import is_temporal_path
from repro.rng import make_rng
from repro.walks.apps import exponential_walk, unbiased_walk
from tests.conftest import chisquare_ok


def chain_graph(out_degree: int = 16) -> TemporalGraph:
    """One vertex with many out-edges at distinct times."""
    edges = [(0, i + 1, float(i)) for i in range(out_degree)]
    return TemporalGraph.from_edges(edges)


@pytest.fixture
def tomb():
    graph = chain_graph(16)
    weights = WeightModel("linear_rank").compute(graph)
    return graph, TombstoneHPAT(graph, weights, rebuild_threshold=0.5)


class TestMutation:
    def test_delete_position(self, tomb):
        graph, index = tomb
        index.delete_position(0, 3)
        assert index.is_dead(0, 3)
        assert index.alive_count(0, 16) == 15
        assert index.stats.deletions == 1

    def test_double_delete_noop(self, tomb):
        _, index = tomb
        index.delete_position(0, 3)
        index.delete_position(0, 3)
        assert index.stats.deletions == 1

    def test_delete_edge_by_triple(self, tomb):
        graph, index = tomb
        # Position 0 is the newest edge: (0, 16, 15.0).
        assert index.delete_edge(0, 16, 15.0)
        assert index.is_dead(0, 0)
        assert not index.delete_edge(0, 16, 15.0)  # already dead
        assert not index.delete_edge(0, 99, 1.0)   # never existed

    def test_delete_out_of_range(self, tomb):
        _, index = tomb
        with pytest.raises(IndexError):
            index.delete_position(0, 99)

    def test_delete_vertex_out_edges(self, tomb):
        _, index = tomb
        assert index.delete_vertex_out_edges(0) == 16
        assert index.alive_count(0, 16) == 0

    def test_rebuild_triggered_at_threshold(self, tomb):
        _, index = tomb
        for position in range(8):  # 8/16 = 0.5 threshold
            index.delete_position(0, position)
        assert index.stats.vertex_rebuilds >= 1

    def test_bad_threshold(self):
        graph = chain_graph(4)
        weights = WeightModel("uniform").compute(graph)
        with pytest.raises(ValueError):
            TombstoneHPAT(graph, weights, rebuild_threshold=0.0)


class TestAliveCounts:
    def test_prefix_scoped(self, tomb):
        _, index = tomb
        index.delete_position(0, 2)
        index.delete_position(0, 10)
        assert index.alive_count(0, 2) == 2    # deletions at 2, 10 outside
        assert index.alive_count(0, 3) == 2
        assert index.alive_count(0, 16) == 14


class TestSamplingCorrectness:
    def test_never_samples_dead_before_rebuild(self, tomb):
        _, index = tomb
        index.delete_position(0, 0)  # below threshold: no rebuild yet
        assert index.stats.vertex_rebuilds == 0
        rng = make_rng(0)
        for _ in range(2000):
            assert index.sample(0, 16, rng) != 0

    def test_never_samples_dead_after_rebuild(self, tomb):
        _, index = tomb
        for position in (0, 1, 2, 3, 4, 5, 6, 7):
            index.delete_position(0, position)
        assert index.stats.vertex_rebuilds >= 1
        rng = make_rng(1)
        draws = {index.sample(0, 16, rng) for _ in range(3000)}
        assert draws == set(range(8, 16))

    def test_distribution_restricted_to_live(self):
        """Live-edge distribution equals the exact renormalised weights,
        both in the tombstone-rejection regime and after rebuild."""
        graph = chain_graph(12)
        weights = WeightModel("linear_rank").compute(graph)
        for threshold in (0.9, 0.05):  # never rebuild / rebuild instantly
            index = TombstoneHPAT(graph, weights, rebuild_threshold=threshold)
            for position in (1, 4, 7):
                index.delete_position(0, position)
            live = np.array([p for p in range(12) if p not in (1, 4, 7)])
            w = weights[live]
            probs = w / w.sum()
            rng = make_rng(int(threshold * 100))
            counts = {int(p): 0 for p in live}
            for _ in range(25000):
                counts[index.sample(0, 12, rng)] += 1
            observed = np.array([counts[int(p)] for p in live], dtype=float)
            assert chisquare_ok(observed, probs), threshold

    def test_all_dead_prefix_raises(self, tomb):
        _, index = tomb
        for position in range(16):
            index.delete_position(0, position)
        with pytest.raises(EmptyCandidateSetError):
            index.sample(0, 16, make_rng(0))

    def test_fallback_scan_when_tombstones_dominate(self):
        """One live edge among many stale tombstones: the bounded retry
        budget kicks in and the exact fallback still returns it."""
        graph = chain_graph(64)
        weights = WeightModel("linear_rank").compute(graph)
        index = TombstoneHPAT(graph, weights, rebuild_threshold=1.0)
        for position in range(63):  # only position 63 (oldest) stays live
            index.delete_position(0, position)
        rng = make_rng(2)
        for _ in range(50):
            assert index.sample(0, 64, rng) == 63
        assert index.stats.fallback_scans > 0


class TestMutableEngine:
    def test_walks_avoid_deleted_edges(self, small_graph):
        engine = MutableTeaEngine(small_graph, unbiased_walk())
        engine.prepare()
        # Delete the busiest vertex's newest edge and run walks.
        v = int(np.argmax(small_graph.degrees()))
        dst, t = small_graph.edge_at(v, 0)
        assert engine.delete_edge(v, dst, t)
        result = engine.run(Workload(max_length=10, max_walks=40), seed=0)
        for path in result.paths:
            for (a, _), (b, tb) in zip(path.hops, path.hops[1:]):
                assert not (a == v and b == dst and tb == t)

    def test_vertex_deletion_dead_ends(self, small_graph):
        engine = MutableTeaEngine(small_graph, unbiased_walk())
        engine.prepare()
        v = int(np.argmax(small_graph.degrees()))
        engine.delete_vertex(v)
        result = engine.run(
            Workload(start_vertices=[v], walks_per_vertex=10, max_length=5), seed=0
        )
        assert all(p.num_edges == 0 for p in result.paths)

    def test_paths_still_temporal_after_churn(self, small_graph):
        engine = MutableTeaEngine(small_graph, exponential_walk(scale=20.0),
                                  rebuild_threshold=0.2)
        engine.prepare()
        rng = make_rng(3)
        # Random deletion churn across the graph.
        for _ in range(200):
            v = int(rng.integers(0, small_graph.num_vertices))
            d = small_graph.out_degree(v)
            if d:
                engine.index.delete_position(v, int(rng.integers(0, d)))
        result = engine.run(Workload(max_length=10, max_walks=30), seed=1)
        for path in result.paths:
            assert is_temporal_path(engine.graph, path.hops)
            for (a, _), (b, tb) in zip(path.hops, path.hops[1:]):
                nbrs, times = engine.graph.neighbors(a)
                positions = np.flatnonzero((nbrs == b) & (times == tb))
                assert any(not engine.index.is_dead(a, int(p)) for p in positions)

    def test_memory_report_includes_tombstones(self, small_graph):
        engine = MutableTeaEngine(small_graph, unbiased_walk())
        engine.prepare()
        assert "tombstone_index" in engine.memory_report().components

    def test_deletion_stats_property(self, small_graph):
        engine = MutableTeaEngine(small_graph, unbiased_walk())
        v = int(np.argmax(small_graph.degrees()))
        engine.prepare()
        engine.index.delete_position(v, 0)
        assert engine.deletion_stats.deletions == 1


class TestEpochPinning:
    def _paths(self, result):
        return [tuple(p.hops) for p in result.paths]

    def test_pinned_walks_survive_deletions(self, small_graph):
        engine = MutableTeaEngine(small_graph, exponential_walk(scale=20.0))
        engine.prepare()
        workload = Workload(max_length=10, max_walks=40)
        want = self._paths(engine.run(workload, seed=7))
        with engine.pin() as pin:
            rng = make_rng(11)
            for _ in range(150):
                v = int(rng.integers(0, small_graph.num_vertices))
                d = small_graph.out_degree(v)
                if d:
                    engine.index.delete_position(v, int(rng.integers(0, d)))
            # The pinned epoch walks exactly like the pre-deletion engine.
            assert self._paths(pin.run(workload, seed=7)) == want
            # The live engine has moved on.
            assert engine.epoch > pin.epoch
        live = self._paths(engine.run(workload, seed=7))
        assert live != want

    def test_pin_defers_rebuilds_until_release(self, small_graph):
        engine = MutableTeaEngine(small_graph, unbiased_walk(),
                                  rebuild_threshold=0.1)
        engine.prepare()
        v = int(np.argmax(small_graph.degrees()))
        d = small_graph.out_degree(v)
        pin = engine.pin()
        for pos in range(d - 1):
            engine.index.delete_position(v, pos)
        assert engine.index.stats.deferred_rebuilds > 0
        rebuilds_during_pin = engine.index.stats.vertex_rebuilds
        pin.release()
        # Release flushes the deferred rebuilds.
        assert engine.index.stats.vertex_rebuilds > rebuilds_during_pin

    def test_epoch_advances_per_deletion(self, small_graph):
        engine = MutableTeaEngine(small_graph, unbiased_walk())
        engine.prepare()
        assert engine.epoch == 0
        v = int(np.argmax(small_graph.degrees()))
        engine.index.delete_position(v, 0)
        engine.index.delete_position(v, 1)
        assert engine.epoch == 2

    def test_nested_pin_runs_restore_previous(self, small_graph):
        """pin.run temporarily redirects reads, then restores."""
        engine = MutableTeaEngine(small_graph, unbiased_walk())
        engine.prepare()
        workload = Workload(max_length=8, max_walks=20)
        outer = engine.pin()
        v = int(np.argmax(small_graph.degrees()))
        for pos in range(small_graph.out_degree(v)):
            engine.index.delete_position(v, pos)
        inner = engine.pin()
        want_outer = self._paths(outer.run(workload, seed=2))
        want_inner = self._paths(inner.run(workload, seed=2))
        # Interleave: outer still sees pre-deletion state afterwards.
        assert self._paths(outer.run(workload, seed=2)) == want_outer
        assert self._paths(inner.run(workload, seed=2)) == want_inner
        assert engine._pin_index is None
        inner.release()
        outer.release()
