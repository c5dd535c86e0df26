"""Hierarchical PAT: layout, sampling distribution, index ablation."""

import numpy as np
import pytest

from repro.core.builder import build_hpat, hpat_layout
from repro.core.weights import WeightModel
from repro.exceptions import EmptyCandidateSetError
from repro.rng import make_rng
from repro.sampling.counters import CostCounters
from tests.conftest import build_hpat_with_aux, chisquare_ok


@pytest.fixture
def toy_hpat(toy_graph):
    weights = WeightModel("linear_rank").compute(toy_graph)
    return build_hpat_with_aux(toy_graph, weights), weights


class TestLayout:
    def test_level_counts(self):
        degrees = np.array([0, 1, 2, 7, 8])
        lvl_base, lvl_ptr, total = hpat_layout(degrees)
        # K_v = floor(log2 d): 0, 0, 1, 2, 3 stored levels (k >= 1).
        assert list(np.diff(lvl_base)) == [0, 0, 1, 2, 3]
        # entries: d=2 → 2; d=7 → 6 + 4; d=8 → 8 + 8 + 8.
        assert total == 2 + 10 + 24

    def test_vertex7_level_tables(self, toy_graph, toy_hpat):
        """Figure 6b: vertex 7 (degree 7) has level-1 tables covering 6
        edges and one level-2 table covering 4."""
        hpat, _ = toy_hpat
        start1 = hpat.level_table_start(7, 1)
        start2 = hpat.level_table_start(7, 2)
        assert start2 - start1 == 6

    def test_space_is_d_log_d(self, medium_graph):
        weights = WeightModel("uniform").compute(medium_graph)
        hpat = build_hpat(medium_graph, weights)
        d = medium_graph.degrees().astype(float)
        bound = (d * (np.log2(np.maximum(d, 2)) + 1)).sum() * 16 * 1.2
        assert hpat.prob.nbytes + hpat.alias.nbytes <= bound + 1024

    def test_memory_breakdown(self, toy_hpat):
        hpat, _ = toy_hpat
        breakdown = hpat.memory_breakdown()
        assert breakdown["aux_index"] > 0
        assert breakdown["alias_tables"] > 0


class TestSampling:
    @pytest.mark.parametrize("s", [1, 2, 3, 4, 5, 6, 7])
    def test_distribution_all_candidate_sizes(self, toy_graph, toy_hpat, s):
        hpat, weights = toy_hpat
        lo = toy_graph.indptr[7]
        probs = weights[lo : lo + s] / weights[lo : lo + s].sum()
        rng = make_rng(s + 100)
        counts = np.zeros(s)
        for _ in range(25000):
            counts[hpat.sample(7, s, rng)] += 1
        assert chisquare_ok(counts, probs), f"s={s}"

    @pytest.mark.parametrize("use_index", [True, False])
    def test_index_ablation_same_distribution(self, toy_graph, toy_hpat, use_index):
        """Figure 11: the auxiliary index changes speed, not statistics."""
        hpat, weights = toy_hpat
        lo = toy_graph.indptr[7]
        probs = weights[lo : lo + 5] / weights[lo : lo + 5].sum()
        rng = make_rng(11)
        counts = np.zeros(5)
        for _ in range(25000):
            counts[hpat.sample(7, 5, rng, use_index=use_index)] += 1
        assert chisquare_ok(counts, probs)

    def test_without_aux_built(self, toy_graph):
        weights = WeightModel("linear_rank").compute(toy_graph)
        hpat = build_hpat(toy_graph, weights)
        assert hpat.aux is None
        rng = make_rng(0)
        assert 0 <= hpat.sample(7, 7, rng) < 7

    def test_empty_candidate_rejected(self, toy_hpat):
        hpat, _ = toy_hpat
        with pytest.raises(EmptyCandidateSetError):
            hpat.sample(7, 0, make_rng(0))

    def test_exhaustive_medium_graph(self, medium_graph):
        weights = WeightModel("exponential", scale=20.0).compute(medium_graph)
        hpat = build_hpat_with_aux(medium_graph, weights)
        rng = make_rng(5)
        degrees = medium_graph.degrees()
        vs = np.argsort(degrees)[-3:]
        for v in vs:
            d = int(degrees[v])
            lo = medium_graph.indptr[v]
            for s in {1, 3, d // 3, d - 1, d}:
                if s < 1:
                    continue
                probs = weights[lo : lo + s] / weights[lo : lo + s].sum()
                counts = np.zeros(s)
                for _ in range(8000):
                    counts[hpat.sample(int(v), s, rng)] += 1
                assert chisquare_ok(counts, probs), (v, s)

    def test_cost_is_loglog(self, medium_graph):
        """Section 4.3: HPAT sampling is O(log log D) — far under log D."""
        weights = WeightModel("uniform").compute(medium_graph)
        hpat = build_hpat_with_aux(medium_graph, weights)
        v = int(np.argmax(medium_graph.degrees()))
        d = medium_graph.out_degree(v)
        counters = CostCounters()
        rng = make_rng(0)
        n = 500
        for _ in range(n):
            counters.record_step()
            hpat.sample(v, d - 1, rng, counters)  # d-1 → multi-block
        # Probes bounded by log2(popcount) + alias draw ≈ log log D + 1.
        assert counters.edges_per_step <= np.log2(np.log2(d)) + 4

    def test_candidate_weight(self, toy_hpat):
        hpat, _ = toy_hpat
        assert hpat.candidate_weight(7, 7) == 28.0


class TestAgainstPAT:
    def test_same_distribution_as_pat(self, medium_graph):
        """PAT and HPAT sample identical distributions (hybrid invariant)."""
        from repro.core.builder import build_pat

        weights = WeightModel("linear_rank").compute(medium_graph)
        hpat = build_hpat_with_aux(medium_graph, weights)
        pat = build_pat(medium_graph, weights)
        v = int(np.argmax(medium_graph.degrees()))
        s = medium_graph.out_degree(v) // 2 + 1
        lo = medium_graph.indptr[v]
        probs = weights[lo : lo + s] / weights[lo : lo + s].sum()
        rng = make_rng(2)
        for index in (hpat, pat):
            counts = np.zeros(s)
            for _ in range(15000):
                counts[index.sample(v, s, rng)] += 1
            assert chisquare_ok(counts, probs)
