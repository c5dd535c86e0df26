"""Distributed TEA (``benchmarks/distributed.py``, the simulated cluster
behind the §4.4 benchmark): partitioning, BSP execution, equivalence
with the single-node engine, accounting."""

import numpy as np
import pytest

from benchmarks.distributed import (
    DistributedTeaEngine,
    degree_balanced_partition,
    edge_cut,
    hash_partition,
    partition_load,
    range_partition,
)
from repro.engines import TeaEngine, Workload
from repro.graph.validate import is_temporal_path
from repro.rng import make_rng
from repro.sampling.counters import CostCounters
from repro.walks.apps import exponential_walk, temporal_node2vec, unbiased_walk
from tests.conftest import chisquare_ok

PARTITIONERS = [hash_partition, range_partition, degree_balanced_partition]


class TestPartitioners:
    @pytest.mark.parametrize("fn", PARTITIONERS)
    def test_every_vertex_assigned(self, small_graph, fn):
        owners = fn(small_graph, 4)
        assert owners.shape == (small_graph.num_vertices,)
        assert owners.min() >= 0 and owners.max() < 4

    @pytest.mark.parametrize("fn", PARTITIONERS)
    def test_single_worker(self, small_graph, fn):
        assert np.all(fn(small_graph, 1) == 0)

    @pytest.mark.parametrize("fn", PARTITIONERS)
    def test_bad_worker_count(self, small_graph, fn):
        with pytest.raises(ValueError):
            fn(small_graph, 0)

    def test_degree_balanced_beats_hash_on_skew(self, medium_graph):
        """LPT packing balances edge load better than hashing on power law."""
        for workers in (2, 4, 8):
            hash_load = partition_load(
                medium_graph, hash_partition(medium_graph, workers), workers
            )
            lpt_load = partition_load(
                medium_graph, degree_balanced_partition(medium_graph, workers), workers
            )
            assert lpt_load.max() <= hash_load.max()

    def test_range_partition_contiguous(self, small_graph):
        owners = range_partition(small_graph, 3)
        assert np.all(np.diff(owners) >= 0)  # non-decreasing = contiguous

    def test_edge_cut_bounds(self, small_graph):
        owners = hash_partition(small_graph, 4)
        cut = edge_cut(small_graph, owners)
        assert 0 <= cut <= small_graph.num_edges
        assert edge_cut(small_graph, np.zeros(small_graph.num_vertices, dtype=int)) == 0


class TestDistributedRun:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("spec_fn", [unbiased_walk, exponential_walk,
                                         temporal_node2vec],
                             ids=["unbiased", "exponential", "node2vec"])
    def test_paths_are_temporal(self, small_graph, workers, spec_fn):
        engine = DistributedTeaEngine(small_graph, spec_fn(), num_workers=workers)
        paths, stats, counters, _ = engine.run(
            Workload(max_length=10, max_walks=30), seed=1
        )
        assert len(paths) == 30
        for path in paths:
            assert is_temporal_path(engine.graph, path.hops)
        assert stats.total_steps == counters.steps

    def test_walks_complete_regardless_of_partitioner(self, small_graph):
        for name in ("hash", "range", "degree"):
            engine = DistributedTeaEngine(
                small_graph, unbiased_walk(), num_workers=3, partitioner=name
            )
            paths, stats, _, _ = engine.run(Workload(max_length=5, max_walks=20), seed=0)
            assert len(paths) == 20
            assert stats.supersteps >= 1

    def test_custom_partitioner_callable(self, small_graph):
        def odd_even(graph, workers):
            return np.arange(graph.num_vertices) % 2 % workers

        engine = DistributedTeaEngine(
            small_graph, unbiased_walk(), num_workers=2, partitioner=odd_even
        )
        paths, _, _, _ = engine.run(Workload(max_length=3, max_walks=10), seed=0)
        assert len(paths) == 10

    def test_unknown_partitioner(self, small_graph):
        with pytest.raises(ValueError, match="partitioner"):
            DistributedTeaEngine(small_graph, unbiased_walk(), partitioner="magic")

    def test_bad_worker_count(self, small_graph):
        with pytest.raises(ValueError):
            DistributedTeaEngine(small_graph, unbiased_walk(), num_workers=0)

    def test_single_worker_no_messages(self, small_graph):
        engine = DistributedTeaEngine(small_graph, unbiased_walk(), num_workers=1)
        _, stats, _, _ = engine.run(Workload(max_length=8, max_walks=25), seed=2)
        assert stats.messages == 0
        assert stats.migration_rate == 0.0

    def test_messages_counted_on_crossings(self, small_graph):
        engine = DistributedTeaEngine(small_graph, unbiased_walk(), num_workers=4)
        _, stats, _, _ = engine.run(Workload(max_length=8, max_walks=50), seed=2)
        # With 4 hash shards most hops cross partitions.
        assert stats.messages > 0
        assert 0.0 < stats.migration_rate <= 1.0

    def test_makespan_decreases_with_workers(self, medium_graph):
        """The point of distribution: modeled makespan shrinks with W."""
        wl = Workload(max_length=20, max_walks=200)
        makespans = {}
        for workers in (1, 2, 4, 8):
            engine = DistributedTeaEngine(
                medium_graph, exponential_walk(), num_workers=workers,
                partitioner="degree",
            )
            _, stats, _, _ = engine.run(wl, seed=3)
            makespans[workers] = stats.modeled_makespan
        assert makespans[8] < makespans[4] < makespans[1]

    def test_stats_snapshot_keys(self, small_graph):
        engine = DistributedTeaEngine(small_graph, unbiased_walk(), num_workers=2)
        _, stats, _, _ = engine.run(Workload(max_length=5, max_walks=10), seed=0)
        snap = stats.snapshot()
        for key in ("workers", "supersteps", "messages", "migration_rate",
                    "modeled_makespan", "compute_balance"):
            assert key in snap


class TestEquivalenceWithSingleNode:
    def test_first_step_distribution_matches(self, small_graph):
        """Sharding must not change sampling statistics (§4.4's premise)."""
        spec = exponential_walk(scale=15.0)
        single = TeaEngine(small_graph, spec)
        single.prepare()
        dist = DistributedTeaEngine(small_graph, spec, num_workers=4)
        dist.prepare()

        v = int(np.argmax(small_graph.degrees()))
        d = small_graph.out_degree(v)
        weights = spec.weight_model.compute(small_graph)
        lo = small_graph.indptr[v]
        probs = weights[lo : lo + d] / weights[lo : lo + d].sum()

        rng = make_rng(0)
        counts = np.zeros(d)
        counters = CostCounters()
        for _ in range(15000):
            counts[dist.index.sample(v, d, rng, counters)] += 1
        assert chisquare_ok(counts, probs)

    def test_walk_length_distribution_matches(self, small_graph):
        """Aggregate walk behaviour is engine-independent."""
        spec = unbiased_walk()
        wl = Workload(max_length=10)
        single = TeaEngine(small_graph, spec).run(wl, seed=5)
        dist_paths, _, _, _ = DistributedTeaEngine(
            small_graph, spec, num_workers=3
        ).run(wl, seed=5)
        single_mean = np.mean([p.num_edges for p in single.paths])
        dist_mean = np.mean([p.num_edges for p in dist_paths])
        assert dist_mean == pytest.approx(single_mean, rel=0.15)
