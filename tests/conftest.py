"""Shared fixtures for the TEA reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.aux_index import AuxiliaryIndex
from repro.core.builder import build_hpat
from repro.graph.generators import temporal_powerlaw, toy_commute_graph
from repro.graph.temporal_graph import TemporalGraph


@pytest.fixture
def toy_graph() -> TemporalGraph:
    """The paper's Figure 1 commute network (vertex 7 is the worked example)."""
    return TemporalGraph.from_stream(toy_commute_graph())


@pytest.fixture(scope="session")
def small_graph() -> TemporalGraph:
    """A power-law temporal graph small enough for exhaustive checks."""
    return TemporalGraph.from_stream(
        temporal_powerlaw(num_vertices=50, num_edges=900, alpha=0.8,
                          time_horizon=200.0, seed=123)
    )


@pytest.fixture(scope="session")
def medium_graph() -> TemporalGraph:
    """A graph big enough that trunk hierarchies have several levels."""
    return TemporalGraph.from_stream(
        temporal_powerlaw(num_vertices=200, num_edges=8000, alpha=1.0,
                          time_horizon=500.0, seed=7)
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


def exact_prefix_distribution(weights_desc: np.ndarray, s: int) -> np.ndarray:
    """Ground-truth transition probabilities over a candidate prefix."""
    w = np.asarray(weights_desc[:s], dtype=np.float64)
    return w / w.sum()


def build_hpat_with_aux(graph: TemporalGraph, weights: np.ndarray):
    """An HPAT with the auxiliary index attached, as ``preprocess`` does
    for the scalar HPAT step (:meth:`HierarchicalPAT.sample` reads it)."""
    hpat = build_hpat(graph, weights)
    hpat.aux = AuxiliaryIndex(graph.max_degree())
    return hpat


def chisquare_ok(counts: np.ndarray, probs: np.ndarray, alpha: float = 1e-4) -> bool:
    """Conservative chi-square goodness-of-fit acceptance.

    Returns True when the empirical counts are consistent with ``probs``.
    Bins with expected count < 5 are pooled (classic validity rule —
    heavy-tail temporal weights produce astronomically small tail
    probabilities that would otherwise invalidate the statistic). The
    significance level is deliberately tiny so the suite stays stable
    across seeds while still catching genuinely wrong distributions.
    """
    pc, pe = _pooled(counts, probs)
    return _accept(float(((pc - pe) ** 2 / pe).sum()), pc.size - 1, alpha)


def gtest_ok(counts: np.ndarray, probs: np.ndarray, alpha: float = 1e-4) -> bool:
    """The likelihood-ratio (G) twin of :func:`chisquare_ok`: the same
    pooling, statistic ``2 Σ o·ln(o/e)``."""
    pc, pe = _pooled(counts, probs)
    seen = pc > 0
    stat = 2.0 * float((pc[seen] * np.log(pc[seen] / pe[seen])).sum())
    return _accept(stat, pc.size - 1, alpha)


def _pooled(counts, probs):
    """Observed and expected counts, the tail pooled so that every
    compared bin expects at least 5."""
    counts = np.asarray(counts, dtype=np.float64)
    expected = np.asarray(probs, dtype=np.float64) * counts.sum()
    order = np.argsort(expected)[::-1]
    counts, expected = counts[order], expected[order]
    big = expected >= 5.0
    pooled_counts = list(counts[big])
    pooled_expected = list(expected[big])
    tail_c, tail_e = counts[~big].sum(), expected[~big].sum()
    if tail_e > 0:
        pooled_counts.append(tail_c)
        pooled_expected.append(tail_e)
    return np.asarray(pooled_counts), np.asarray(pooled_expected)


def _accept(stat: float, dof: int, alpha: float) -> bool:
    from scipy import stats

    return dof <= 0 or stat < stats.chi2.ppf(1 - alpha, dof)
