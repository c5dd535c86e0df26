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
   lock-free scheme, realised here as vertex-chunk tasks on a thread pool.
   The per-table loops run compiled (``alias_build`` and ``prefix_sums``
   in ``repro/kernels/hop.c``, which release the GIL) when the ``c``
   kernel backend loaded, else in the numpy builders — the same bits.
3. **Auxiliary index generation** — Σ_{D'=1..D} log D' work, vectorised;
   built only for the scalar HPAT step, the one reader (the frontier
   kernel decomposes from the bits of s), and only in :func:`preprocess`.

:func:`preprocess` runs the full pipeline and returns phase timings, the
data behind the paper's Figure 13 preprocessing breakdown.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.core.aux_index import AuxiliaryIndex
from repro.core.hpat import HierarchicalPAT
from repro.core.pat import PersistentAliasTable
from repro.core.trunks import pat_trunk_size
from repro.core.weights import WeightModel
from repro.graph.temporal_graph import TemporalGraph
from repro.kernels import resolve_backend
from repro.sampling.alias import (ALIAS_DTYPE, build_alias_tables,
                                  check_alias_degrees)
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

    def task(lo: int, hi: int) -> None:
        out[lo:hi] = graph.candidate_counts_per_edge(lo, hi)

    _in_chunks(np.linspace(0, m, workers + 1, dtype=np.int64), task)
    return out


# ---------------------------------------------------------------------------
# Phase 2 helpers: per-vertex prefix sums
# ---------------------------------------------------------------------------

def _validate_weights(graph: TemporalGraph, weights: np.ndarray) -> np.ndarray:
    """Reject weight arrays that would silently corrupt the indices.

    Prefix sums require non-negative, finite weights whose per-vertex sum
    stays finite; a negative value would make the CDF non-monotone and
    the alias construction wrong in ways no sampler would surface loudly.
    """
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    if weights.shape != (graph.num_edges,):
        raise ValueError(
            f"weights must have one entry per edge "
            f"({graph.num_edges}), got shape {weights.shape}"
        )
    if not weights.size:
        return weights
    if not np.all(np.isfinite(weights)):
        raise ValueError("edge weights must be finite")
    if weights.min() < 0:
        raise ValueError("edge weights must be non-negative")
    nonempty = np.flatnonzero(np.diff(graph.indptr))
    with np.errstate(over="ignore"):
        sums = np.add.reduceat(weights, graph.indptr[nonempty])
    over = nonempty[~np.isfinite(sums)]
    if over.size:
        raise ValueError(f"the edge weights of vertex {over[0]} sum past "
                         f"the float64 range")
    return weights


def _in_chunks(bounds: np.ndarray, task: Callable[[int, int], None]) -> None:
    """Run ``task(lo, hi)`` over the ranges between consecutive
    ``bounds``, on a thread pool when there is more than one (the tasks
    write disjoint output ranges)."""
    if len(bounds) <= 2:
        task(int(bounds[0]), int(bounds[-1]))
        return
    with ThreadPoolExecutor(max_workers=len(bounds) - 1) as pool:
        futures = [pool.submit(task, int(lo), int(hi))
                   for lo, hi in zip(bounds[:-1], bounds[1:])]
        for f in futures:
            f.result()


def _vertex_chunks(indptr: np.ndarray, workers: int) -> np.ndarray:
    """Bounds of ``workers`` contiguous vertex ranges of about equal edge
    counts, or of one range when there are too few vertices."""
    n = indptr.size - 1
    if workers <= 1 or n < 2 * workers:
        return np.array([0, n])
    bounds = np.searchsorted(indptr, np.linspace(0, indptr[-1], workers + 1))
    bounds = np.clip(bounds, 0, n)
    bounds[0], bounds[-1] = 0, n
    return bounds


def _prefix_fill(indptr: np.ndarray, weights: np.ndarray, c: np.ndarray,
                 lo: int, hi: int) -> None:
    """Prefix sums of vertices ``lo..hi-1`` into ``c`` (zeroed), in place:
    compiled when the ``c`` kernel backend loaded, else one ``np.cumsum``
    per vertex — the same sequential adds."""
    compiled = resolve_backend().prefix_sums
    if compiled is not None:
        compiled(indptr, weights, c, lo, hi)
        return
    for v in range(lo, hi):
        first, last = indptr[v], indptr[v + 1]
        if last > first:
            base = first + v
            np.cumsum(weights[first:last], out=c[base + 1 : base + 1 + last - first])


def build_prefix_array(
    graph: TemporalGraph,
    weights: np.ndarray,
    workers: int = 1,
) -> np.ndarray:
    """Flat per-vertex prefix sums: vertex v's segment of d+1 entries
    starts at ``indptr[v] + v`` with a leading 0.

    Computed segment-by-segment (not by differencing a global cumsum) so
    tiny exponential weights keep full relative precision. The layout is
    vertex-contiguous, so parallel chunks write disjoint ranges.
    """
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    c = np.zeros(graph.num_edges + graph.num_vertices, dtype=np.float64)
    _in_chunks(_vertex_chunks(graph.indptr, workers),
               lambda lo, hi: _prefix_fill(graph.indptr, weights, c, lo, hi))
    return c


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
    degrees = graph.degrees()
    check_alias_degrees(degrees)
    weights = _validate_weights(graph, weights)
    if trunk_size is None:
        trunk_sizes = np.maximum(1, np.floor(np.sqrt(np.maximum(degrees, 1))).astype(np.int64))
    else:
        if trunk_size < 1:
            raise ValueError("trunk_size must be >= 1")
        trunk_sizes = np.full(n, int(trunk_size), dtype=np.int64)
    c = build_prefix_array(graph, weights, workers=workers)
    prob = np.ones(m, dtype=np.float64)
    alias = np.zeros(m, dtype=ALIAS_DTYPE)
    if m:
        alias[:] = np.arange(m) - np.repeat(graph.indptr[:-1], degrees)

    # Complete trunks, one builder call per trunk width; each table sits
    # over its own edges. Single-edge trunks keep the identity set above.
    for ts in np.unique(trunk_sizes[(trunk_sizes > 1) & (degrees >= trunk_sizes)]):
        ts = int(ts)
        vs = np.flatnonzero((trunk_sizes == ts) & (degrees >= ts))
        counts = degrees[vs] // ts  # complete trunks per vertex
        pos = np.repeat(graph.indptr[vs], counts) + _segment_aranges(counts) * ts
        build_alias_tables(weights, ts, pos, pos, prob, alias)
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
    Raises ``ValueError`` for a degree int32 alias offsets cannot hold.
    """
    check_alias_degrees(degrees)
    n = degrees.size
    kv = np.zeros(n, dtype=np.int64)
    nz = degrees > 0
    if np.any(nz):
        kv[nz] = np.floor(np.log2(degrees[nz])).astype(np.int64)
    lvl_base = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(kv, out=lvl_base[1:])
    # widths laid out (v asc, k = 1..K_v): width = (d >> k) << k
    k = _segment_aranges(kv) + 1
    widths = (np.repeat(np.asarray(degrees, dtype=np.int64), kv) >> k) << k
    lvl_ptr = np.zeros(widths.size, dtype=np.int64)
    if widths.size:
        np.cumsum(widths[:-1], out=lvl_ptr[1:])
    return lvl_base, lvl_ptr, int(widths.sum())


def _fill_levels(indptr: np.ndarray, weights: np.ndarray,
                 lvl_base: np.ndarray, lvl_ptr: np.ndarray,
                 prob: np.ndarray, alias: np.ndarray, lo: int, hi: int) -> None:
    """Write every level table of vertices ``lo..hi-1`` in place, at the
    positions :func:`hpat_layout` assigned: one builder call per level."""
    degrees = np.diff(indptr[lo : hi + 1])
    max_k = int(degrees.max()).bit_length() - 1 if degrees.size else 0
    for k in range(1, max_k + 1):
        vs = np.flatnonzero(degrees >> k)
        counts = degrees[vs] >> k  # complete width-2^k trunks per vertex
        offsets = _segment_aranges(counts) << k
        src = np.repeat(indptr[lo + vs], counts) + offsets
        dst = np.repeat(lvl_ptr[lvl_base[lo + vs] + k - 1], counts) + offsets
        build_alias_tables(weights, 1 << k, src, dst, prob, alias)


def build_hpat(
    graph: TemporalGraph,
    weights: np.ndarray,
    workers: int = 1,
) -> HierarchicalPAT:
    """Build a :class:`HierarchicalPAT`, without the auxiliary index (only
    :func:`preprocess` attaches one, for the scalar HPAT step).

    ``workers > 1`` fills contiguous vertex chunks on a thread pool; the
    compiled builder releases the GIL, so the chunks run in parallel.
    Results are bit-identical at any worker count (the layout is
    precomputed, so every chunk writes disjoint ranges).
    """
    weights = _validate_weights(graph, weights)
    c = build_prefix_array(graph, weights, workers=workers)
    lvl_base, lvl_ptr, total = hpat_layout(graph.degrees())
    prob = np.empty(total, dtype=np.float64)
    alias = np.empty(total, dtype=ALIAS_DTYPE)
    _in_chunks(_vertex_chunks(graph.indptr, workers), lambda lo, hi: _fill_levels(
        graph.indptr, weights, lvl_base, lvl_ptr, prob, alias, lo, hi))
    return HierarchicalPAT(graph.indptr, c, prob, alias, lvl_ptr, lvl_base)


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
    with_aux_index: bool = False,
    workers: int = 1,
    trunk_size: Optional[int] = None,
    tracer=None,
) -> Preprocessed:
    """Run the full preprocessing pipeline with per-phase timing.

    ``structure`` ∈ {"hpat", "pat", "its"}; ``workers > 1`` runs each
    phase on a thread pool (see :func:`build_hpat`). ``with_aux_index``
    adds phase 3 to an HPAT for the scalar HPAT step, its only reader
    (``TeaEngine(use_aux_index=True)``). ``tracer`` is an optional
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
            index = build_hpat(graph, weights, workers=workers)
        elif structure == "pat":
            index = build_pat(graph, weights, trunk_size=trunk_size, workers=workers)
        elif structure == "its":
            from repro.core.its_index import ITSIndex

            index = ITSIndex(
                graph.indptr,
                build_prefix_array(graph, weights, workers=workers),
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
