"""Cross-engine statistical equivalence.

All engines implement the *same* walk semantics with different sampling
machinery, so on a fixed graph and application their first-step
transition distributions must agree with the exact probabilities — and
hence with each other. This is the strongest correctness statement the
paper's comparisons rely on (speed may differ; statistics may not).
"""

import numpy as np
import pytest

from repro.engines import (
    CtdneEngine,
    GraphWalkerEngine,
    KnightKingEngine,
    TeaEngine,
    Workload,
)
from repro.rng import make_rng
from repro.sampling.counters import CostCounters
from repro.walks.apps import exponential_walk, linear_walk, unbiased_walk
from tests.conftest import chisquare_ok
from tests.ooc_oracle import TeaOutOfCoreEngine

ENGINE_FACTORIES = [
    lambda g, s: TeaEngine(g, s),
    lambda g, s: TeaEngine(g, s, use_aux_index=False),
    lambda g, s: TeaEngine(g, s, structure="pat"),
    lambda g, s: TeaEngine(g, s, structure="its"),
    lambda g, s: GraphWalkerEngine(g, s),
    lambda g, s: GraphWalkerEngine(g, s, out_of_core=True),
    lambda g, s: KnightKingEngine(g, s),
    lambda g, s: CtdneEngine(g, s),
    lambda g, s: TeaOutOfCoreEngine(g, s, trunk_size=4),
]


def first_step_counts(engine, v, n, seed=0):
    """Empirical first-step choice histogram from vertex v."""
    engine.prepare()
    rng = make_rng(seed)
    d = engine.graph.out_degree(v)
    counts = np.zeros(d)
    counters = CostCounters()
    for _ in range(n):
        counts[engine.sample_edge(v, d, None, rng, counters)] += 1
    return counts


@pytest.mark.parametrize("spec_fn", [linear_walk, lambda: exponential_walk(scale=15.0), unbiased_walk],
                         ids=["linear", "exponential", "unbiased"])
def test_all_engines_match_exact_distribution(small_graph, spec_fn):
    spec = spec_fn()
    v = int(np.argmax(small_graph.degrees()))
    weights = spec.weight_model.compute(small_graph)
    lo = small_graph.indptr[v]
    d = small_graph.out_degree(v)
    probs = weights[lo : lo + d] / weights[lo : lo + d].sum()
    for i, factory in enumerate(ENGINE_FACTORIES):
        engine = factory(small_graph, spec)
        counts = first_step_counts(engine, v, n=15000, seed=i)
        assert chisquare_ok(counts, probs), engine.name


def test_dynamic_vs_static_exponential_same_distribution(small_graph):
    """Equation 3's cancellation: engines evaluating exp(t_i − t) per step
    (CTDNE, GraphWalker) and engines using static exp weights (TEA) draw
    from the same distribution regardless of arrival time t."""
    spec = exponential_walk(scale=15.0)
    v = int(np.argmax(small_graph.degrees()))
    t_arrival = float(np.median(small_graph.neighbors(v)[1]))
    s = small_graph.candidate_count(v, t_arrival)
    if s < 2:
        pytest.skip("need a multi-edge candidate set")
    weights = spec.weight_model.compute(small_graph)
    lo = small_graph.indptr[v]
    probs = weights[lo : lo + s] / weights[lo : lo + s].sum()

    for factory in (lambda g, sp: TeaEngine(g, sp), lambda g, sp: CtdneEngine(g, sp)):
        engine = factory(small_graph, spec)
        engine.prepare()
        rng = make_rng(3)
        counts = np.zeros(s)
        counters = CostCounters()
        for _ in range(15000):
            counts[engine.sample_edge(v, s, t_arrival, rng, counters)] += 1
        assert chisquare_ok(counts, probs), engine.name


def test_node2vec_beta_shifts_distribution():
    """With p ≪ 1 the walk returns to the previous vertex far more often
    than the weight-only distribution would (Equation 4's β at work)."""
    from repro.graph.temporal_graph import TemporalGraph
    from repro.walks.apps import temporal_node2vec

    # 0 → 1 at t=1, then 1 can return to 0 (d=0 → β=1/p) or move on to 2
    # (not adjacent to 0 → β=1/q). Equal temporal weights by construction.
    graph = TemporalGraph.from_edges([(0, 1, 1.0), (1, 0, 2.0), (1, 2, 2.0)])
    return_heavy = temporal_node2vec(p=0.05, q=2.0, scale=1e9)
    neutral = temporal_node2vec(p=1.0, q=1.0, scale=1e9)

    def return_rate(spec, seed):
        engine = TeaEngine(graph, spec)
        wl = Workload(walks_per_vertex=2000, max_length=2, start_vertices=[0])
        result = engine.run(wl, seed=seed)
        two_hop = [p for p in result.paths if p.num_edges == 2]
        returns = sum(p.vertices[2] == 0 for p in two_hop)
        return returns / max(len(two_hop), 1)

    # Neutral β ⇒ ~50/50; p=0.05 ⇒ returning is 1/p / (1/p + 1/q) ≈ 0.976.
    assert abs(return_rate(neutral, 1) - 0.5) < 0.06
    assert return_rate(return_heavy, 1) > 0.9
