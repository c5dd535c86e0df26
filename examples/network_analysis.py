"""Temporal network analysis: stats, reachability, closeness, transforms.

A tour of the analysis surface around the walk engine:

* dataset statistics and the analytic sampling-cost prediction (the
  closed-form version of the paper's Figure 2);
* exact temporal reachability and earliest-arrival times (the Figure 1
  temporal-connectivity rule, computed instead of sampled — the one-pass
  edge-stream algorithm of Wu et al., the paper's refs [42, 43]);
* temporal closeness centrality — who reaches the network fastest;
* the reversed-graph view: who *could have influenced* a vertex;
* the largest single-source temporal component, an induced subgraph.

Run:  python examples/network_analysis.py
"""

from typing import Optional, Sequence, Tuple

import numpy as np

from repro import TemporalGraph, load_dataset
from repro.core.weights import WeightModel
from repro.graph.edge_stream import EdgeStream
from repro.graph.stats import graph_stats, predict_sampling_costs


def _edges_of(graph: TemporalGraph) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    src = np.repeat(np.arange(graph.num_vertices), np.diff(graph.indptr))
    return src, graph.nbr, graph.etime


def reverse(graph: TemporalGraph) -> TemporalGraph:
    """Reverse every edge; timestamps are preserved.

    A temporal path u→…→v in the original corresponds to a *reverse*
    temporal path with decreasing times in the reversed graph; forward
    walks on the reversed graph answer "who could have led here".
    """
    src, dst, t = _edges_of(graph)
    return TemporalGraph.from_stream(
        EdgeStream(dst, src, t), num_vertices=graph.num_vertices
    )


def induced_subgraph(graph: TemporalGraph, vertices: Sequence[int]) -> TemporalGraph:
    """Keep only edges whose endpoints are both in ``vertices``.

    Vertex ids are preserved (the result has the same ``num_vertices``),
    so walk results remain directly comparable with the full graph.
    """
    keep = np.zeros(graph.num_vertices, dtype=bool)
    keep[np.asarray(list(vertices), dtype=np.int64)] = True
    src, dst, t = _edges_of(graph)
    mask = keep[src] & keep[dst]
    return TemporalGraph.from_stream(
        EdgeStream(src[mask], dst[mask], t[mask]), num_vertices=graph.num_vertices
    )


def earliest_arrival_times(
    graph: TemporalGraph, source: int, start_time: Optional[float] = None
) -> np.ndarray:
    """Earliest arrival time at every vertex from ``source``.

    ``start_time=None`` lets the walker depart on any edge (arrival at
    the source is −inf); otherwise only edges strictly later than
    ``start_time`` are usable. Unreachable vertices get +inf. One pass
    over the edges in ascending time: (u, v, t) relaxes v whenever u was
    reached strictly before t — consecutive edge times strictly increase.
    """
    if not (0 <= source < graph.num_vertices):
        raise IndexError(f"source {source} out of range")
    arrival = np.full(graph.num_vertices, np.inf)
    arrival[source] = -np.inf if start_time is None else float(start_time)
    stream = graph.to_stream()  # ascending time order
    for u, v, t in zip(stream.src, stream.dst, stream.time):
        if t > arrival[u] and t < arrival[v]:
            arrival[v] = t
    return arrival


def temporal_reachability(graph: TemporalGraph, source: int) -> np.ndarray:
    """Boolean mask of vertices reachable from ``source`` by a temporal
    path (the source included)."""
    return np.isfinite(earliest_arrival_times(graph, source)) | (
        np.arange(graph.num_vertices) == source
    )


def temporal_closeness(
    graph: TemporalGraph, sources: Optional[np.ndarray] = None
) -> np.ndarray:
    """Temporal closeness centrality (harmonic form) of ``sources``
    (default: every vertex).

    closeness(u) = Σ_v 1 / (1 + (arrival_v − t0)/span) over the vertices
    v temporally reachable from u, with t0 the graph's earliest
    timestamp and span its time range: each reached vertex adds a score
    in (1/2, 1], earlier reach scoring higher; unreachable vertices add 0.
    """
    if graph.num_edges == 0:
        return np.zeros(graph.num_vertices)
    t0 = float(graph.etime.min())
    span = max(float(graph.etime.max()) - t0, 1e-12)
    out = np.zeros(graph.num_vertices)
    source_ids = (
        np.arange(graph.num_vertices) if sources is None else np.asarray(sources)
    )
    for u in source_ids:
        arrival = earliest_arrival_times(graph, int(u))
        mask = np.isfinite(arrival)
        mask[int(u)] = False
        if mask.any():
            delays = (arrival[mask] - t0) / span
            out[int(u)] = float((1.0 / (1.0 + delays)).sum())
    return out


def largest_temporal_component(
    graph: TemporalGraph,
) -> Tuple[TemporalGraph, int, np.ndarray]:
    """Induced subgraph on the largest single-source temporal reach.

    Tries the 32 highest-out-degree vertices as sources and keeps the one
    whose temporal reachability set is largest. Returns ``(subgraph,
    best_source, reachable_mask)``.
    """
    if graph.num_edges == 0:
        return graph, 0, np.zeros(graph.num_vertices, dtype=bool)
    best_source, best_mask = -1, None
    for source in np.argsort(graph.degrees())[::-1][:32]:
        mask = temporal_reachability(graph, int(source))
        if best_mask is None or mask.sum() > best_mask.sum():
            best_source, best_mask = int(source), mask
    sub = induced_subgraph(graph, np.flatnonzero(best_mask))
    return sub, best_source, best_mask


def main() -> None:
    graph = load_dataset("growth", seed=0, scale=0.3)
    stats = graph_stats(graph)
    print("dataset statistics:")
    for key, value in stats.snapshot().items():
        print(f"  {key}: {value}")

    pred = predict_sampling_costs(graph, WeightModel("exponential", scale=6.0))
    print("\nanalytic sampling cost (edges/step — closed-form Figure 2):")
    for key, value in pred.snapshot().items():
        print(f"  {key}: {value}")

    # Temporal reachability from the busiest vertex.
    hub = int(np.argmax(graph.degrees()))
    reach = temporal_reachability(graph, hub)
    arrival = earliest_arrival_times(graph, hub)
    finite = np.isfinite(arrival) & (np.arange(graph.num_vertices) != hub)
    print(
        f"\nvertex {hub} temporally reaches {reach.sum() - 1} of "
        f"{graph.num_vertices - 1} other vertices"
    )
    if finite.any():
        print(
            f"  median earliest arrival: t={np.median(arrival[finite]):.1f} "
            f"(graph spans t={stats.time_min:.0f}..{stats.time_max:.0f})"
        )

    # Closeness over a sample of sources: early, well-connected vertices win.
    sources = np.argsort(graph.degrees())[::-1][:20]
    closeness = temporal_closeness(graph, sources=sources)
    top = sources[np.argsort(closeness[sources])[::-1][:5]]
    print("\ntemporal closeness (top 5 of the 20 busiest sources):")
    for v in top:
        print(f"  vertex {v}: {closeness[v]:.1f}")

    # Reverse view: who could have led INTO the hub, in time order.
    rev = reverse(graph)
    influencers = temporal_reachability(rev, hub)
    print(
        f"\nreverse-reachability: {influencers.sum() - 1} vertices have a "
        f"time-respecting path INTO vertex {hub}"
    )

    sub, source, mask = largest_temporal_component(graph)
    print(
        f"\nlargest single-source temporal component: {mask.sum()} vertices "
        f"(source {source}), {sub.num_edges} internal edges"
    )


if __name__ == "__main__":
    main()
