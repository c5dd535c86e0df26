"""Temporal analytics built atop TEA (paper Section 5.2).

The paper points out that personalized PageRank, SimRank and meta-path
walks have no established temporal variants but "can be conveniently
achieved by deploying them atop TEA". This example implements all
three as user programs over a prepared :class:`~repro.TeaEngine` (its
``sample_edge`` draws from the HPAT index, O(log log D) per step) and
runs them on a small interaction network:

* temporal personalized PageRank — influence flowing only along
  time-respecting paths (and how it differs from ignoring time);
* temporal SimRank — similarity via coupled temporal walks;
* temporal meta-path walks — user→item→user patterns where the second
  user must interact *after* the first.

Run:  python examples/temporal_pagerank.py
"""

from typing import List, Optional, Sequence

import numpy as np

from repro import TemporalGraph, TeaEngine, unbiased_walk
from repro.exceptions import GraphFormatError
from repro.graph.generators import temporal_bipartite, temporal_powerlaw
from repro.rng import RngLike, make_rng
from repro.sampling.counters import CostCounters
from repro.sampling.fullscan import full_scan_sample
from repro.walks.apps import exponential_walk
from repro.walks.spec import WalkSpec
from repro.walks.walker import WalkPath

NUM_USERS = 40
NUM_ITEMS = 20

#: Safety cap per walk segment (temporal exhaustion usually ends first).
MAX_HOPS = 100
#: Coupled-walk length cap for SimRank.
SIMRANK_MAX_HOPS = 20
#: Type rejections before the meta-path walker's exact filtered scan.
MAX_TYPE_TRIALS = 64


def _hop(engine: TeaEngine, v: int, t, rng, counters):
    """One temporal hop from ``v`` at time ``t``: (vertex, time), or None
    at a dead end."""
    g = engine.graph
    s = g.candidate_count(v, t) if t is not None else g.out_degree(v)
    if s <= 0:
        return None
    counters.record_step()
    pos = int(g.indptr[v]) + engine.sample_edge(v, s, t, rng, counters)
    return int(g.nbr[pos]), float(g.etime[pos])


def temporal_pagerank(
    graph: TemporalGraph,
    sources: Optional[Sequence[int]] = None,
    spec: Optional[WalkSpec] = None,
    alpha: float = 0.15,
    num_walks: int = 2000,
    seed: RngLike = 0,
    engine: Optional[TeaEngine] = None,
) -> np.ndarray:
    """Temporal (personalized) PageRank by Monte Carlo restart walks.

    Walks start from ``sources`` (``None``: uniform over all vertices)
    and restart with probability ``alpha`` per step; a walk segment is a
    temporal path, so v scores high from u only if u's activity can
    reach v in time order. ``spec`` is the walk's temporal bias
    (default exponential; weight-only), ``engine`` a prepared
    :class:`TeaEngine` on ``graph`` with that spec to reuse. Returns the
    visit-frequency vector (sums to 1).
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must be in (0, 1)")
    if num_walks <= 0:
        raise ValueError("num_walks must be positive")
    spec = spec or exponential_walk()
    if spec.has_dynamic_parameter:
        raise ValueError("temporal_pagerank requires a weight-only WalkSpec")
    if engine is None:
        engine = TeaEngine(graph, spec)
    engine.prepare()
    n = engine.graph.num_vertices
    rng = make_rng(seed)
    counters = CostCounters()
    if sources is None:
        starts = rng.integers(0, n, size=num_walks)
    else:
        sources = np.asarray(sources, dtype=np.int64)
        if sources.size == 0:
            raise ValueError("sources must be non-empty")
        starts = sources[rng.integers(0, sources.size, size=num_walks)]

    visits = np.zeros(n, dtype=np.float64)
    for start in starts:
        v, t = int(start), None
        visits[v] += 1.0
        for _ in range(MAX_HOPS):
            if rng.random() < alpha:
                break
            hop = _hop(engine, v, t, rng, counters)
            if hop is None:
                break
            v, t = hop
            visits[v] += 1.0
    return visits / visits.sum()


def temporal_simrank(
    graph: TemporalGraph,
    u: int,
    v: int,
    decay: float = 0.6,
    num_pairs: int = 500,
    seed: RngLike = 0,
) -> float:
    """Temporal SimRank s(u, v) ∈ [0, 1]: E[decay^τ] over ``num_pairs``
    coupled exponential temporal walks from u and v, τ their first
    meeting step (Jeh & Widom's Monte Carlo form)."""
    if not (0.0 < decay < 1.0):
        raise ValueError("decay must be in (0, 1)")
    if u == v:
        return 1.0
    engine = TeaEngine(graph, exponential_walk())
    engine.prepare()
    rng = make_rng(seed)
    counters = CostCounters()
    total = 0.0
    for _ in range(num_pairs):
        a, b = (int(u), None), (int(v), None)
        for k in range(1, SIMRANK_MAX_HOPS + 1):
            a = _hop(engine, *a, rng, counters)
            b = _hop(engine, *b, rng, counters)
            if a is None or b is None:
                break
            if a[0] == b[0]:
                total += decay**k
                break
    return total / num_pairs


class MetapathWalker:
    """Temporal walks constrained to a cyclic vertex-type pattern.

    Each hop draws from the temporal-weight distribution and accepts
    only candidates of the pattern's next type (the Dynamic_parameter
    pattern of Algorithm 2 lines 18–22); after :data:`MAX_TYPE_TRIALS`
    rejections one exact filtered scan keeps heavily type-imbalanced
    neighbourhoods correct.
    """

    def __init__(
        self,
        graph: TemporalGraph,
        vertex_types: Sequence[int],
        metapath: Sequence[int],
        spec: Optional[WalkSpec] = None,
    ):
        self.types = np.asarray(vertex_types, dtype=np.int64)
        if self.types.size != graph.num_vertices:
            raise GraphFormatError(
                f"vertex_types has {self.types.size} entries for "
                f"{graph.num_vertices} vertices"
            )
        self.metapath = [int(t) for t in metapath]
        if len(self.metapath) < 2:
            raise ValueError("a metapath needs at least two type slots")
        if self.metapath[0] != self.metapath[-1]:
            raise ValueError(
                "cyclic metapaths must start and end with the same type "
                "(e.g. [user, item, user])"
            )
        spec = spec or exponential_walk()
        if spec.has_dynamic_parameter:
            raise ValueError("metapath walks compose with weight-only specs")
        self.engine = TeaEngine(graph, spec)
        self.engine.prepare()
        self.counters = CostCounters()

    def _sample_typed(self, v: int, s: int, want_type: int, rng) -> Optional[int]:
        """An edge index in [0, s) whose destination has ``want_type``,
        or None when no candidate has it."""
        g = self.engine.graph
        lo = int(g.indptr[v])
        for _ in range(MAX_TYPE_TRIALS):
            self.counters.record_step()
            idx = self.engine.sample_edge(v, s, None, rng, self.counters)
            ok = self.types[g.nbr[lo + idx]] == want_type
            self.counters.record_trial(bool(ok))
            if ok:
                return idx
        # Exact fallback: restrict the distribution to matching candidates.
        mask = self.types[g.nbr[lo : lo + s]] == want_type
        if not np.any(mask):
            return None
        weights = self.engine.weights[lo : lo + s] * mask
        return full_scan_sample(weights, s, rng, self.counters)

    def walk(self, start: int, num_cycles: int, rng) -> WalkPath:
        """One walk of up to ``num_cycles`` pattern laps from a vertex of
        the pattern's first type; it ends early when no temporal
        candidate has the required next type."""
        g = self.engine.graph
        if self.types[start] != self.metapath[0]:
            raise ValueError(
                f"start vertex {start} has type {self.types[start]}, "
                f"pattern expects {self.metapath[0]}"
            )
        hops = [(int(start), None)]
        v, t = int(start), None
        slot = 0
        for _ in range(num_cycles * (len(self.metapath) - 1)):
            slot = (slot + 1) % len(self.metapath)
            if slot == 0:
                slot = 1  # cyclic patterns repeat from the second slot
            s = g.candidate_count(v, t) if t is not None else g.out_degree(v)
            if s <= 0:
                break
            idx = self._sample_typed(v, s, self.metapath[slot], rng)
            if idx is None:
                break
            pos = int(g.indptr[v]) + idx
            v, t = int(g.nbr[pos]), float(g.etime[pos])
            hops.append((v, t))
        return WalkPath(hops=hops)


def temporal_metapath_walks(
    graph: TemporalGraph,
    vertex_types: Sequence[int],
    metapath: Sequence[int],
    starts: Sequence[int],
    num_cycles: int = 4,
    spec: Optional[WalkSpec] = None,
    seed: RngLike = 0,
) -> List[WalkPath]:
    """One meta-path walk from every start vertex."""
    walker = MetapathWalker(graph, vertex_types, metapath, spec=spec)
    rng = make_rng(seed)
    return [walker.walk(int(u), num_cycles, rng) for u in starts]


def pagerank_demo() -> None:
    graph = TemporalGraph.from_stream(
        temporal_powerlaw(150, 5000, alpha=0.9, time_horizon=300.0, seed=8)
    )
    source = int(np.argmax(graph.degrees()))
    scores = temporal_pagerank(
        graph, sources=[source], alpha=0.15, num_walks=3000, seed=0
    )
    top = np.argsort(scores)[::-1][:5]
    print(f"temporal PPR from hub vertex {source}:")
    for v in top:
        print(f"  vertex {v}: {scores[v]:.4f}")
    global_scores = temporal_pagerank(graph, alpha=0.15, num_walks=3000, seed=0)
    print(
        f"global temporal PageRank mass on top-5 hubs: "
        f"{global_scores[np.argsort(graph.degrees())[::-1][:5]].sum():.2f}"
    )


def simrank_demo() -> None:
    graph = TemporalGraph.from_stream(
        temporal_powerlaw(60, 2500, alpha=0.8, time_horizon=200.0, seed=9)
    )
    hubs = np.argsort(graph.degrees())[::-1][:3]
    a, b, c = (int(v) for v in hubs)
    print("\ntemporal SimRank (coupled temporal walks):")
    print(f"  s({a},{a}) = {temporal_simrank(graph, a, a):.3f}  (identity)")
    print(f"  s({a},{b}) = {temporal_simrank(graph, a, b, num_pairs=400, seed=1):.3f}")
    print(f"  s({a},{c}) = {temporal_simrank(graph, a, c, num_pairs=400, seed=1):.3f}")


def metapath_demo() -> None:
    stream = temporal_bipartite(NUM_USERS, NUM_ITEMS, 1500, seed=10)
    graph = TemporalGraph.from_stream(stream)
    # Types: 0 = user, 1 = item.
    types = np.zeros(graph.num_vertices, dtype=int)
    types[NUM_USERS:] = 1
    paths = temporal_metapath_walks(
        graph, types, metapath=[0, 1, 0], starts=range(10), num_cycles=3,
        spec=unbiased_walk(), seed=2,
    )
    print("\ntemporal meta-path walks (user -> item -> later user):")
    for path in paths[:5]:
        labels = [
            f"{'u' if types[v] == 0 else 'i'}{v if types[v] == 0 else v - NUM_USERS}"
            + ("" if t is None else f"@{t:.0f}")
            for v, t in path.hops
        ]
        print("  " + " -> ".join(labels))
    # Every walk alternates types and moves strictly forward in time.
    for path in paths:
        for (v1, t1), (v2, t2) in zip(path.hops, path.hops[1:]):
            assert types[v1] != types[v2]
            assert t1 is None or t2 > t1


def main() -> None:
    pagerank_demo()
    simrank_demo()
    metapath_demo()


if __name__ == "__main__":
    main()
