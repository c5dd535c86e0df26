"""Full alias-method index: O(1) draws, O(D²) space, simulated OOM."""

import numpy as np
import pytest

from repro.core.alias_index import FullAliasIndex, required_bytes
from repro.core.weights import WeightModel
from repro.exceptions import SimulatedOOM
from repro.rng import make_rng
from tests.conftest import chisquare_ok


class TestRequiredBytes:
    def test_quadratic_in_degree(self, toy_graph):
        need = required_bytes(toy_graph)
        degrees = toy_graph.degrees()
        # a float64 prob and an int32 alias cell per entry
        expected = int((degrees * (degrees + 1) / 2).sum() * 12)
        assert need >= expected

    def test_grows_quadratically(self):
        from repro.graph.generators import temporal_star
        from repro.graph.temporal_graph import TemporalGraph

        small = TemporalGraph.from_stream(temporal_star(100, seed=0))
        big = TemporalGraph.from_stream(temporal_star(1000, seed=0))
        ratio = required_bytes(big) / required_bytes(small)
        assert 50 <= ratio <= 200  # ~quadratic: (1000/100)^2 = 100


class TestBuild:
    def test_oom_when_over_budget(self, small_graph):
        weights = WeightModel("uniform").compute(small_graph)
        with pytest.raises(SimulatedOOM) as excinfo:
            FullAliasIndex.build(small_graph, weights, budget_bytes=1024)
        assert excinfo.value.required_bytes > 1024
        assert "simulated OOM" in str(excinfo.value)

    def test_distribution_matches_exact(self, toy_graph):
        weights = WeightModel("linear_rank").compute(toy_graph)
        index = FullAliasIndex.build(toy_graph, weights)
        rng = make_rng(0)
        lo = toy_graph.indptr[7]
        for s in (1, 3, 7):
            probs = weights[lo : lo + s] / weights[lo : lo + s].sum()
            counts = np.zeros(s)
            for _ in range(20000):
                counts[index.sample(7, s, rng)] += 1
            assert chisquare_ok(counts, probs), s

    def test_o1_cost(self, toy_graph):
        from repro.sampling.counters import CostCounters

        weights = WeightModel("uniform").compute(toy_graph)
        index = FullAliasIndex.build(toy_graph, weights)
        counters = CostCounters()
        rng = make_rng(0)
        for _ in range(100):
            counters.record_step()
            index.sample(7, 7, rng, counters)
        assert counters.edges_per_step == 1.0  # exactly one alias draw

    def test_empty_candidate_rejected(self, toy_graph):
        from repro.exceptions import EmptyCandidateSetError

        weights = WeightModel("uniform").compute(toy_graph)
        index = FullAliasIndex.build(toy_graph, weights)
        with pytest.raises(EmptyCandidateSetError):
            index.sample(7, 0, make_rng(0))

    def test_nbytes_at_least_required(self, toy_graph):
        weights = WeightModel("uniform").compute(toy_graph)
        index = FullAliasIndex.build(toy_graph, weights)
        assert index.nbytes() >= required_bytes(toy_graph) - 1024
