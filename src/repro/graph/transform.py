"""Graph transforms: derived temporal graphs.

Standard derived views a walk library needs around the core CSR:

* :func:`reverse` — flip edge directions (walks over who-was-reached-by;
  also the substrate for backward temporal reachability);
* :func:`induced_subgraph` — keep only edges among a vertex subset
  (community-scoped walks), preserving the vertex id space;
* :func:`normalize_times` — affine-map timestamps into [0, horizon]
  (keeps exponential weights well-scaled across datasets);
* :func:`merge` — union of two temporal graphs.

All transforms return new :class:`TemporalGraph` objects; inputs are
never mutated (the CSR arrays are frozen anyway).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.graph.edge_stream import EdgeStream
from repro.graph.temporal_graph import TemporalGraph


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


def normalize_times(
    graph: TemporalGraph, horizon: float = 1000.0
) -> TemporalGraph:
    """Affine-map timestamps onto [0, horizon].

    Transition probabilities of *linear-rank* and *uniform* weights are
    invariant under this map; exponential weights keep their shape when
    the application's decay ``scale`` is expressed in the same units
    (which is the point: one scale setting works across datasets).
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    src, dst, t = _edges_of(graph)
    if t.size == 0:
        return TemporalGraph.from_stream(EdgeStream.empty(),
                                         num_vertices=graph.num_vertices)
    tmin, tmax = float(t.min()), float(t.max())
    span = tmax - tmin
    scaled = (t - tmin) * (horizon / span) if span > 0 else np.zeros_like(t)
    return TemporalGraph.from_stream(
        EdgeStream(src, dst, scaled), num_vertices=graph.num_vertices
    )


def merge(a: TemporalGraph, b: TemporalGraph) -> TemporalGraph:
    """Union of two temporal graphs (multi-edges are kept)."""
    n = max(a.num_vertices, b.num_vertices)
    sa, da, ta = _edges_of(a)
    sb, db, tb = _edges_of(b)
    return TemporalGraph.from_stream(
        EdgeStream(
            np.concatenate([sa, sb]),
            np.concatenate([da, db]),
            np.concatenate([ta, tb]),
        ),
        num_vertices=n,
    )
