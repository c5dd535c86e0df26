"""The paper's running example: the commuting network of Figure 1.

Demonstrates why temporal information matters (Section 1): a commuter
path must obey the temporal connectivity rule — out-edge times must
exceed in-edge times. We rebuild the toy graph, show that walks arriving
at vertex 7 from different sources see *different* candidate edge sets
(Figure 4), and estimate temporal reachability by Monte Carlo walks —
contrasting it against static reachability, which overcounts.

Run:  python examples/commute_network.py
"""

from typing import Dict

from repro import TemporalGraph, TeaEngine, Workload, toy_commute_graph, unbiased_walk
from repro.rng import RngLike


def walk_reachability_estimate(
    graph: TemporalGraph,
    source: int,
    num_walks: int = 1000,
    max_length: int = 50,
    seed: RngLike = 0,
) -> Dict[int, float]:
    """Fraction of ``num_walks`` unbiased temporal walks from ``source``
    that visit each vertex.

    Vertices no temporal path reaches never appear — a guarantee, not a
    statistic: walks are temporal paths by construction.
    """
    if num_walks <= 0:
        raise ValueError("num_walks must be positive")
    workload = Workload(
        walks_per_vertex=num_walks, max_length=max_length, start_vertices=[source]
    )
    result = TeaEngine(graph, unbiased_walk()).run(workload, seed=seed)
    visits: Dict[int, int] = {}
    for path in result.paths:
        for v in set(path.vertices):
            visits[v] = visits.get(v, 0) + 1
    return {v: c / num_walks for v, c in visits.items()}


def candidate_sets() -> None:
    graph = TemporalGraph.from_stream(toy_commute_graph())
    print("Vertex 7's out-edges (time-descending):")
    nbrs, times = graph.neighbors(7)
    print("  " + ", ".join(f"7->{v}@{t:g}" for v, t in zip(nbrs, times)))
    print("\nCandidate edge sets at vertex 7 by arriving edge (paper Figure 4):")
    for src, t in ((8, 0.0), (0, 3.0), (9, 4.0)):
        count = graph.candidate_count(7, t)
        cands = nbrs[:count]
        print(f"  arrive from {src} at t={t:g}: Γ = {sorted(int(v) for v in cands)}")


def temporal_reachability(start: int = 9, walks: int = 4000) -> None:
    """Monte Carlo estimate of where a commuter starting at ``start`` goes."""
    graph = TemporalGraph.from_stream(toy_commute_graph())
    visits = walk_reachability_estimate(graph, start, num_walks=walks,
                                        max_length=4, seed=1)
    print(f"\nVertices temporal walks from {start} visit (length<=4, {walks} walks):")
    for vertex, share in sorted(visits.items(), key=lambda kv: -kv[1]):
        print(f"  vertex {vertex}: {share:.1%}")
    # Static reachability for contrast: ignore times entirely.
    reach = {start}
    frontier = [start]
    while frontier:
        u = frontier.pop()
        for v in graph.neighbors(u)[0]:
            if int(v) not in reach:
                reach.add(int(v))
                frontier.append(int(v))
    print(f"static reachability from {start}:   {sorted(reach)}")
    print(f"temporally reachable (walked to): {sorted(visits)}")
    print("(the gap is exactly the paths that violate time order)")


def main() -> None:
    candidate_sets()
    temporal_reachability()


if __name__ == "__main__":
    main()
