"""ITS, rejection, and full-scan sampling: distribution and cost.

Each strategy is tested where it is implemented: ITS in
:class:`~repro.core.its_index.ITSIndex` (TEA's ITS ablation and the
baselines' static path), rejection in
:class:`~repro.engines.knightking.KnightKingEngine`, the full scan in
:func:`~repro.sampling.fullscan.full_scan_sample`.
"""

import numpy as np
import pytest

from repro.core.its_index import ITSIndex
from repro.engines import KnightKingEngine
from repro.exceptions import EmptyCandidateSetError, SamplingBudgetExceeded
from repro.graph.temporal_graph import TemporalGraph
from repro.rng import make_rng
from repro.sampling.counters import CostCounters
from repro.sampling.fullscan import full_scan_sample
from repro.sampling.prefix_sum import build_prefix_sums
from repro.walks.apps import exponential_walk
from tests.conftest import chisquare_ok

WEIGHTS_DESC = np.array([7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0])  # Figure 5


def empirical(sample_fn, size, n=30000, seed=0):
    rng = make_rng(seed)
    counts = np.zeros(size)
    for _ in range(n):
        counts[sample_fn(rng)] += 1
    return counts


def its_index(weights_desc) -> ITSIndex:
    """A one-vertex ITS index over ``weights_desc``."""
    return ITSIndex(np.array([0, len(weights_desc)]),
                    build_prefix_sums(weights_desc))


def rejection_engine(weights_desc, **kwargs) -> KnightKingEngine:
    """KnightKing on one vertex whose exponential(scale=1) static weights
    are proportional to ``weights_desc`` (edge times ln w)."""
    times = np.log(np.asarray(weights_desc, dtype=np.float64))
    graph = TemporalGraph.from_edges(
        [(0, j + 1, float(t)) for j, t in enumerate(times)])
    engine = KnightKingEngine(graph, exponential_walk(scale=1.0), **kwargs)
    engine.prepare()
    return engine


class TestITSSampler:
    @pytest.mark.parametrize("s", [1, 3, 7])
    def test_distribution(self, s):
        index = its_index(WEIGHTS_DESC)
        counts = empirical(lambda rng: index.sample(0, s, rng), s)
        assert chisquare_ok(counts, WEIGHTS_DESC[:s] / WEIGHTS_DESC[:s].sum())

    def test_candidate_weight(self):
        assert its_index(WEIGHTS_DESC).candidate_weight(0, 3) == 18.0

    def test_empty_rejected(self):
        with pytest.raises(EmptyCandidateSetError):
            its_index(WEIGHTS_DESC).sample(0, 0, make_rng(0))

    def test_probe_cost_logarithmic(self):
        index = its_index(np.ones(1024))
        counters = CostCounters()
        rng = make_rng(1)
        for _ in range(100):
            index.sample(0, 1024, rng, counters)
        assert counters.binary_search_probes / 100 <= 11.0  # log2(1024)+1


class TestRejectionSampler:
    @pytest.mark.parametrize("s", [1, 4, 7])
    def test_distribution(self, s):
        engine = rejection_engine(WEIGHTS_DESC)
        counters = CostCounters()
        counts = empirical(
            lambda rng: engine.sample_edge(0, s, None, rng, counters), s)
        assert chisquare_ok(counts, WEIGHTS_DESC[:s] / WEIGHTS_DESC[:s].sum())

    def test_expected_trials_formula(self):
        """Section 3.1: skewed exponential weights blow up trial counts."""
        engine = rejection_engine(np.exp(np.arange(7, 0, -1.0)))  # e^7 .. e^1
        expected = 7 * np.exp(7) / np.exp(np.arange(1, 8)).sum()
        assert engine.expected_trials(0, 7) == pytest.approx(expected)
        assert engine.expected_trials(0, 7) > 4  # "drastically squeezed accept area"

    def test_trial_counting_matches_expectation(self):
        engine = rejection_engine(np.exp(np.arange(6, 0, -1.0)))
        counters = CostCounters()
        rng = make_rng(5)
        n = 4000
        for _ in range(n):
            engine.sample_edge(0, 6, None, rng, counters)
        measured = counters.rejection_trials / n
        assert measured == pytest.approx(engine.expected_trials(0, 6), rel=0.15)

    def test_strict_budget(self):
        # With max_trials=1 and extreme skew, acceptance is overwhelmingly
        # unlikely for the small item; eventually a budget error surfaces.
        engine = rejection_engine([1e9, 1.0], max_trials=1, strict=True)
        rng = make_rng(2)
        with pytest.raises(SamplingBudgetExceeded):
            for _ in range(1000):
                engine.sample_edge(0, 2, None, rng, CostCounters())

    def test_fallback_is_exact(self):
        w = np.array([1e9, 1.0])
        engine = rejection_engine(w, max_trials=1)
        counts = empirical(
            lambda rng: engine.sample_edge(0, 2, None, rng, CostCounters()),
            2, n=20000)
        assert chisquare_ok(counts, w / w.sum())

    def test_empty_rejected(self):
        with pytest.raises(EmptyCandidateSetError):
            rejection_engine(WEIGHTS_DESC).sample_edge(
                0, 0, None, make_rng(0), CostCounters())


class TestFullScan:
    @pytest.mark.parametrize("s", [1, 4, 7])
    def test_distribution_static(self, s):
        counts = empirical(
            lambda rng: full_scan_sample(WEIGHTS_DESC, s, rng), s
        )
        assert chisquare_ok(counts, WEIGHTS_DESC[:s] / WEIGHTS_DESC[:s].sum())

    def test_dynamic_weight_fn(self):
        times = np.array([7.0, 6.0, 5.0])
        counts = empirical(
            lambda rng: full_scan_sample(
                None, 3, rng,
                weight_fn=lambda t: np.exp(t - 4.0),
                times_time_desc=times,
            ),
            3,
        )
        w = np.exp(times - 4.0)
        assert chisquare_ok(counts, w / w.sum())

    def test_scan_cost_is_candidate_size(self):
        counters = CostCounters()
        rng = make_rng(0)
        full_scan_sample(WEIGHTS_DESC, 7, rng, counters)
        assert counters.edges_evaluated == 7

    def test_weight_fn_requires_times(self):
        with pytest.raises(ValueError):
            full_scan_sample(WEIGHTS_DESC, 3, make_rng(0), weight_fn=lambda t: t)

    def test_empty_rejected(self):
        with pytest.raises(EmptyCandidateSetError):
            full_scan_sample(WEIGHTS_DESC, 0, make_rng(0))
