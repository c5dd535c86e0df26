"""Parallel construction of TEA's data structures (paper Section 4.2).

The preprocessing pipeline has three phases, each independently
parallelisable over disjoint data and therefore lock-free:

1. **Searching candidate edge sets** — for every edge (u, v, t), the size
   of Γt(v) (a binary search per edge over v's time-sorted adjacency;
   O(|E| log D) total). We vectorise it to one global ``searchsorted``.
2. **PAT/HPAT construction** — per-vertex prefix sums plus alias tables
   for every trunk. Every table's position in the flat output arrays is
   computed *before* construction (the lengths are fixed), so workers
   write disjoint ranges without synchronisation — exactly the paper's
   lock-free scheme, realised here as vertex-chunk tasks on a thread pool
   (numpy kernels release the GIL).
3. **Auxiliary index generation** — Σ_{D'=1..D} log D' work, vectorised.

:func:`preprocess` runs the full pipeline and returns phase timings, the
data behind the paper's Figure 13 preprocessing breakdown.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.aux_index import AuxiliaryIndex
from repro.core.hpat import HierarchicalPAT
from repro.core.pat import PersistentAliasTable
from repro.core.trunks import pat_trunk_size
from repro.core.weights import WeightModel
from repro.graph.temporal_graph import TemporalGraph
from repro.sampling.alias import build_alias_arrays_batch
from repro.telemetry import NULL_TRACER, clock


@dataclass
class ConstructionReport:
    """Phase timings of one preprocessing run (Figure 13's quantities)."""

    workers: int = 1
    candidate_search_seconds: float = 0.0
    weight_seconds: float = 0.0
    index_build_seconds: float = 0.0
    aux_index_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return (
            self.candidate_search_seconds
            + self.weight_seconds
            + self.index_build_seconds
            + self.aux_index_seconds
        )

    def snapshot(self) -> Dict[str, float]:
        return {
            "workers": self.workers,
            "candidate_search_s": self.candidate_search_seconds,
            "weights_s": self.weight_seconds,
            "index_build_s": self.index_build_seconds,
            "aux_index_s": self.aux_index_seconds,
            "total_s": self.total_seconds,
        }


# ---------------------------------------------------------------------------
# Phase 1: candidate edge set search
# ---------------------------------------------------------------------------

def search_candidate_sets(graph: TemporalGraph, workers: int = 1) -> np.ndarray:
    """Per-edge |Γt(v)| for every edge (u, v, t), CSR-ordered.

    With ``workers > 1`` the edge range is chunked across a thread pool;
    each chunk is an independent vectorised searchsorted (the per-in-edge
    independence the paper exploits).
    """
    m = graph.num_edges
    if m == 0:
        return np.zeros(0, dtype=np.int64)
    if workers <= 1:
        return graph.candidate_counts_per_edge()
    # The query side chunked across a thread pool over the graph's cached
    # keys (searchsorted releases the GIL, so this is the real data
    # parallelism of the paper's Section 4.2).
    graph._offset_keys()
    out = np.empty(m, dtype=np.int64)
    bounds = np.linspace(0, m, workers + 1, dtype=np.int64)

    def task(lo: int, hi: int) -> None:
        out[lo:hi] = graph.candidate_counts_per_edge(lo, hi)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(task, int(bounds[i]), int(bounds[i + 1]))
            for i in range(workers)
        ]
        for f in futures:
            f.result()
    return out


# ---------------------------------------------------------------------------
# Phase 2 helpers: per-vertex prefix sums
# ---------------------------------------------------------------------------

def _validate_weights(graph: TemporalGraph, weights: np.ndarray) -> np.ndarray:
    """Reject weight arrays that would silently corrupt the indices.

    Prefix sums require non-negative, finite weights; a negative value
    would make the CDF non-monotone and the alias construction wrong in
    ways no sampler would surface loudly.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (graph.num_edges,):
        raise ValueError(
            f"weights must have one entry per edge "
            f"({graph.num_edges}), got shape {weights.shape}"
        )
    if weights.size and not np.all(np.isfinite(weights)):
        raise ValueError("edge weights must be finite")
    if weights.size and weights.min() < 0:
        raise ValueError("edge weights must be non-negative")
    return weights


def _prefix_chunk(indptr: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per-vertex prefix sums for one rebased chunk (leading 0 per vertex)."""
    n = indptr.size - 1
    c = np.zeros(weights.size + n, dtype=np.float64)
    for v in range(n):
        lo, hi = indptr[v], indptr[v + 1]
        if hi > lo:
            base = lo + v
            np.cumsum(weights[lo:hi], out=c[base + 1 : base + 1 + (hi - lo)])
    return c


def build_prefix_array(
    graph: TemporalGraph,
    weights: np.ndarray,
    workers: int = 1,
    backend: str = "thread",
) -> np.ndarray:
    """Flat per-vertex prefix sums: vertex v's segment of d+1 entries
    starts at ``indptr[v] + v`` with a leading 0.

    Computed segment-by-segment (not by differencing a global cumsum) so
    tiny exponential weights keep full relative precision. The layout is
    vertex-contiguous, so parallel chunks concatenate exactly.
    """
    n = graph.num_vertices
    if workers <= 1 or n < 2 * workers:
        return _prefix_chunk(graph.indptr, weights)
    chunks = [(indptr, w) for _, indptr, w in _chunk_args(graph, weights, workers)]
    pool_cls = ProcessPoolExecutor if backend == "process" else ThreadPoolExecutor
    with pool_cls(max_workers=workers) as pool:
        parts = list(pool.map(_prefix_chunk, *zip(*chunks)))
    return np.concatenate(parts)


# ---------------------------------------------------------------------------
# PAT construction
# ---------------------------------------------------------------------------

def build_pat(
    graph: TemporalGraph,
    weights: np.ndarray,
    trunk_size: Optional[int] = None,
    workers: int = 1,
) -> PersistentAliasTable:
    """Build a :class:`PersistentAliasTable`.

    ``trunk_size=None`` applies the paper's in-memory rule
    (⌊√d⌋ per vertex); an integer forces a uniform trunk size (the
    out-of-core configuration, e.g. 10 for twitter under 16 GB).
    """
    n, m = graph.num_vertices, graph.num_edges
    weights = _validate_weights(graph, weights)
    degrees = graph.degrees()
    if trunk_size is None:
        trunk_sizes = np.maximum(1, np.floor(np.sqrt(np.maximum(degrees, 1))).astype(np.int64))
    else:
        if trunk_size < 1:
            raise ValueError("trunk_size must be >= 1")
        trunk_sizes = np.full(n, int(trunk_size), dtype=np.int64)
    c = build_prefix_array(graph, weights, workers=workers)
    prob = np.ones(m, dtype=np.float64)
    alias = np.zeros(m, dtype=np.int64)
    if m:
        alias[:] = np.arange(m) - np.repeat(graph.indptr[:-1], degrees)

    # Batch complete trunks by trunk width so the lock-step builder handles
    # each width in one shot. Positions are precomputed → disjoint writes.
    for ts in np.unique(trunk_sizes):
        ts = int(ts)
        if ts == 1:
            continue  # single-edge trunks: identity alias, already set
        vs = np.flatnonzero((trunk_sizes == ts) & (degrees >= ts))
        if not vs.size:
            continue
        counts = degrees[vs] // ts  # complete trunks per vertex
        covered = counts * ts
        starts = np.repeat(graph.indptr[vs], covered)
        within = _segment_aranges(covered)
        pos = starts + within
        rows = weights[pos].reshape(-1, ts)
        row_sums = rows.sum(axis=1)
        dead = row_sums <= 0
        if np.any(dead):
            rows = rows.copy()
            rows[dead] = 1.0  # never selected by ITS; keep builder happy
        p, a = build_alias_arrays_batch(rows)
        prob[pos] = p.ravel()
        alias[pos] = a.ravel()
    return PersistentAliasTable(graph.indptr, c, prob, alias, trunk_sizes)


def _segment_aranges(lengths: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(len_i)`` for every segment, vectorised."""
    total = int(lengths.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    ends = np.cumsum(lengths)
    out = np.arange(total, dtype=np.int64)
    out -= np.repeat(ends - lengths, lengths)
    return out


# ---------------------------------------------------------------------------
# HPAT construction
# ---------------------------------------------------------------------------

def hpat_layout(degrees: np.ndarray) -> Tuple[np.ndarray, np.ndarray, int]:
    """Precompute the flat layout of all level tables (the lock-free map).

    Returns ``(lvl_base, lvl_ptr, total_entries)`` where vertex v's level-k
    (k ≥ 1) tables start at ``lvl_ptr[lvl_base[v] + k - 1]`` in the flat
    ``prob``/``alias`` arrays. Level counts per vertex are
    K_v = bit_length(d_v) - 1 (levels 1..K_v; level 0 is implicit).
    """
    n = degrees.size
    kv = np.zeros(n, dtype=np.int64)
    nz = degrees > 0
    if np.any(nz):
        kv[nz] = np.floor(np.log2(degrees[nz])).astype(np.int64)
    lvl_base = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(kv, out=lvl_base[1:])
    total_slots = int(lvl_base[-1])
    widths = np.zeros(total_slots, dtype=np.int64)
    # widths laid out (v asc, k = 1..K_v): width = (d >> k) << k
    for v in np.flatnonzero(kv):
        d = int(degrees[v])
        base = lvl_base[v]
        for k in range(1, int(kv[v]) + 1):
            widths[base + k - 1] = (d >> k) << k
    lvl_ptr = np.zeros(total_slots, dtype=np.int64)
    if total_slots:
        np.cumsum(widths[:-1], out=lvl_ptr[1:])
    return lvl_base, lvl_ptr, int(widths.sum())


def _hpat_fill_chunk(degrees: np.ndarray, indptr: np.ndarray,
                     weights: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Build the flat level tables for one contiguous vertex chunk.

    ``indptr`` is rebased so edge 0 of the chunk is ``weights[0]``. Module
    level (not a closure) so the process backend can pickle it. Returns
    the chunk's ``(prob, alias)`` flat arrays in the standard layout —
    vertex-contiguous, so chunks concatenate into the global arrays.
    """
    lvl_base, lvl_ptr, total = hpat_layout(degrees)
    prob = np.ones(total, dtype=np.float64)
    alias = np.zeros(total, dtype=np.int64)
    max_k = int(degrees.max()).bit_length() - 1 if degrees.size and degrees.max() else 0
    for k in range(1, max_k + 1):
        width_k = 1 << k
        vs = np.flatnonzero(degrees >= width_k)
        if not vs.size:
            continue
        covered = (degrees[vs] >> k) << k
        src = np.repeat(indptr[vs], covered) + _segment_aranges(covered)
        rows = weights[src].reshape(-1, width_k)
        row_sums = rows.sum(axis=1)
        dead = row_sums <= 0
        if np.any(dead):
            rows = rows.copy()
            rows[dead] = 1.0
        p, a = build_alias_arrays_batch(rows)
        dest = np.repeat(lvl_ptr[lvl_base[vs] + k - 1], covered) + _segment_aranges(covered)
        prob[dest] = p.ravel()
        alias[dest] = a.ravel()
    return prob, alias


def _chunk_args(graph: TemporalGraph, weights: np.ndarray, workers: int):
    """Split vertices into ``workers`` contiguous chunks with rebased CSR."""
    bounds = np.linspace(0, graph.num_vertices, workers + 1, dtype=np.int64)
    out = []
    degrees = graph.degrees()
    for i in range(workers):
        lo, hi = int(bounds[i]), int(bounds[i + 1])
        e_lo, e_hi = int(graph.indptr[lo]), int(graph.indptr[hi])
        out.append(
            (
                degrees[lo:hi],
                graph.indptr[lo : hi + 1] - e_lo,
                weights[e_lo:e_hi],
            )
        )
    return out


def build_hpat(
    graph: TemporalGraph,
    weights: np.ndarray,
    with_aux_index: bool = True,
    workers: int = 1,
    aux: Optional[AuxiliaryIndex] = None,
    backend: str = "thread",
) -> HierarchicalPAT:
    """Build a :class:`HierarchicalPAT` (optionally with auxiliary index).

    ``backend`` selects the parallel executor for ``workers > 1``:
    ``"thread"`` shares memory (numpy kernels release the GIL, the
    lock-step alias loop does not); ``"process"`` forks true workers —
    the configuration matching the paper's 16-thread C++ scaling — at the
    cost of shipping each chunk's arrays across the fork boundary.
    Results are bit-identical across backends and worker counts (the
    layout is precomputed, so every chunk writes disjoint ranges).
    """
    weights = _validate_weights(graph, weights)
    degrees = graph.degrees()
    c = build_prefix_array(graph, weights, workers=workers, backend=backend)
    lvl_base, lvl_ptr, _ = hpat_layout(degrees)

    if workers <= 1 or graph.num_vertices < 2 * workers:
        prob, alias = _hpat_fill_chunk(degrees, graph.indptr, weights)
    else:
        chunks = _chunk_args(graph, weights, workers)
        pool_cls = ProcessPoolExecutor if backend == "process" else ThreadPoolExecutor
        with pool_cls(max_workers=workers) as pool:
            parts = list(pool.map(_hpat_fill_chunk, *zip(*chunks)))
        prob = np.concatenate([p for p, _ in parts]) if parts else np.zeros(0)
        alias = np.concatenate([a for _, a in parts]) if parts else np.zeros(0, np.int64)

    if aux is None and with_aux_index:
        aux = AuxiliaryIndex(int(degrees.max()) if degrees.size else 0)
    return HierarchicalPAT(graph.indptr, c, prob, alias, lvl_ptr, lvl_base, aux)


# ---------------------------------------------------------------------------
# Full pipeline with phase timing (Figure 13)
# ---------------------------------------------------------------------------

@dataclass
class Preprocessed:
    """Everything the TEA runtime needs, plus how long each phase took."""

    index: object
    weights: np.ndarray
    candidate_sizes: np.ndarray
    report: ConstructionReport


def preprocess(
    graph: TemporalGraph,
    weight_model: WeightModel,
    structure: str = "hpat",
    with_aux_index: bool = True,
    workers: int = 1,
    trunk_size: Optional[int] = None,
    backend: str = "thread",
    tracer=None,
) -> Preprocessed:
    """Run the full preprocessing pipeline with per-phase timing.

    ``structure`` ∈ {"hpat", "pat", "its"}; ``backend`` ∈ {"thread",
    "process"} selects the executor for ``workers > 1`` (see
    :func:`build_hpat`). ``tracer`` is an optional
    :class:`repro.telemetry.Tracer`; each phase becomes a child span of
    the caller's open ``prepare`` span.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    report = ConstructionReport(workers=workers)

    t0 = clock.now()
    with tracer.span("prepare.candidate_search", edges=graph.num_edges):
        candidate_sizes = search_candidate_sets(graph, workers=workers)
    report.candidate_search_seconds = clock.now() - t0

    t0 = clock.now()
    with tracer.span("prepare.weights", kind=weight_model.kind):
        weights = weight_model.compute(graph)
    report.weight_seconds = clock.now() - t0

    t0 = clock.now()
    with tracer.span("prepare.index_build", structure=structure, workers=workers):
        if structure == "hpat":
            index = build_hpat(graph, weights, with_aux_index=False, workers=workers, backend=backend)
        elif structure == "pat":
            index = build_pat(graph, weights, trunk_size=trunk_size, workers=workers)
        elif structure == "its":
            from repro.core.its_index import ITSIndex

            index = ITSIndex(
                graph.indptr,
                build_prefix_array(graph, weights, workers=workers, backend=backend),
            )
        else:
            raise ValueError(f"unknown structure {structure!r}")
    report.index_build_seconds = clock.now() - t0

    if structure == "hpat" and with_aux_index:
        t0 = clock.now()
        with tracer.span("prepare.aux_index", max_degree=int(graph.max_degree())):
            index.aux = AuxiliaryIndex(graph.max_degree())
        report.aux_index_seconds = clock.now() - t0

    return Preprocessed(index=index, weights=weights, candidate_sizes=candidate_sizes, report=report)
