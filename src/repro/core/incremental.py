"""Incremental HPAT for streaming graphs (paper Section 3.5, Figure 7).

Streaming updates are batches of new edges whose timestamps are **later**
than everything already indexed (the edge-stream assumption; deletions
are out of scope, Section 4.4). Rebuilding a vertex's HPAT per batch
costs O(d log d); the paper instead keeps the old trunks intact, builds
trunks for the new arrivals only, and generates merged higher-hierarchy
trunks when the new and old structures line up — Figure 7's carry step.

We realise that as a **block forest** per vertex: the edge list is a
sequence of time-contiguous blocks (newest block first), each block its
time-descending edges, their static weights and one sampling structure,
the per-edge prefix masses ``c`` — the columns the epoch pack of
:mod:`repro.streaming.snapshot` reads, nothing else. (The paper's
in-trunk alias hierarchy lives where it is read: the static
:mod:`repro.core.hpat` behind every in-memory engine.) Appending a batch
builds one new block per touched vertex; first, any *front* blocks no
larger than the batch are absorbed into it (the carry), so block sizes
grow geometrically front-to-back and every edge is re-indexed O(log d)
times amortised — versus all d edges per batch for a from-scratch
rebuild. That asymmetry is what Figure 13d measures: for degree ≫ batch
size the speedup is enormous; for degree ≲ batch size the two converge.

The forest is built **once per batch, not once per vertex**
(:meth:`IncrementalHPAT.apply_batch` → :func:`_carry_append`, the only
construction path), in three batch-wide phases:

1. **Prologue** — one stable sort groups the batch by source, one
   vectorised pass validates in-group order, a light per-group Python
   pass does the fault site, vertex lookup, undo snapshot and
   stream-order check, and one vectorised evaluation yields every weight.
2. **Carry plan** — integer arithmetic alone decides which front blocks
   each new block absorbs, so only the *final* extent is ever built
   (``merged_edges`` still charges each step of the progressive merge).
3. **Size-class build** — final blocks of equal size share one
   ``(T, size)`` matrix per array (one concatenate, one row-wise
   cumsum); blocks are read-only row views of the matrices.

Per batch that is O(touched vertices) Python steps and O(batch + carried
edges) array work. A row depends only on its own edges, so the result is
bit-identical to building each vertex alone (``tests/carry_oracle.py``).

Sampling stays distribution-identical to a from-scratch HPAT
(property-tested) and is a two-level inverse transform: one uniform
chooses among the covered blocks by their masses, a second the edge
inside the chosen block — the boundary block's candidates are a *prefix*
of its time-descending edges — by ``c``. :meth:`VertexIncrementalHPAT.sample`
is the scalar specification of the epoch pack's draw: same two uniforms,
same arithmetic, same edge (``tests/test_epoch_pack.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.weights import WeightModel
from repro.exceptions import EmptyCandidateSetError, NotSupportedError
from repro.graph.edge_stream import EdgeStream
from repro.graph.temporal_graph import TemporalGraph
from repro.sampling.counters import CostCounters
from repro.sampling.prefix_sum import draw_in_range, its_search


class _Block:
    """One time-contiguous run of a vertex's edges (any size), newest first.

    ``c`` holds the per-edge prefix masses (``c[k]`` = mass of the newest
    ``k`` edges) — the block's one sampling structure, and with ``dst``
    and ``times`` exactly the segment :meth:`VertexIncrementalHPAT.segments`
    hands the epoch pack. Arrays are read-only row views into matrices
    shared with same-size batch-mates (built only by :func:`_carry_append`).
    """

    __slots__ = ("size", "dst", "times", "weights", "c")

    def __init__(self, dst, times, weights, c):
        self.size = dst.size
        self.dst = dst
        self.times = times
        self.weights = weights
        self.c = c

    def candidate_count(self, t: float) -> int:
        """Edges of this block with time strictly greater than t."""
        # Reversed *view* (ascending): O(log size), no per-query allocation.
        return self.size - int(self.times[::-1].searchsorted(t, side="right"))

    def total_weight(self, s: int) -> float:
        return float(self.c[s])

    def sample_prefix(
        self, s: int, rng: np.random.Generator, counters: Optional[CostCounters]
    ) -> int:
        """Sample among this block's newest s edges ∝ weight (local index):
        inverse transform over ``c``, the rule (``c[a] < r ≤ c[a+1]``) of
        the epoch pack's in-segment bisect."""
        r = draw_in_range(rng, 0.0, self.c[s])
        return its_search(self.c, r, 0, s, counters)

    def nbytes(self) -> int:
        return int(self.dst.nbytes + self.times.nbytes + self.weights.nbytes
                   + self.c.nbytes)


def _static_weights(model: WeightModel, times: np.ndarray, t_ref, first_rank
                    ) -> np.ndarray:
    """Static weights of edges in stream order.

    ``t_ref`` (the vertex's frozen reference time) and ``first_rank``
    (stream rank of position 0) are scalars for one vertex or per-edge
    arrays for a batch; the arithmetic per edge is the same either way.
    """
    kind = model.kind
    if kind == "uniform":
        return np.ones_like(times)
    if kind == "linear_rank":
        # Rank = 1-based position in stream order; stable under appends.
        return (first_rank + np.arange(times.size)).astype(np.float64)
    if kind == "linear_time":
        return times - t_ref + 1.0
    if kind == "exponential_decay":
        # Decay falls off as edges recede from the frozen reference
        # (t_ref = earliest edge): exp((t_min - t_i)/scale), matching
        # the static builder. The shared exp() fall-through below
        # carries the *growth* sign — using it for decay silently
        # inverted the bias on streaming builds.
        return np.exp((t_ref - times) / model.scale)
    return np.exp((times - t_ref) / model.scale)


def _carry_append(model: WeightModel, verts, starts: np.ndarray,
                  ends: np.ndarray, dst: np.ndarray, times: np.ndarray) -> None:
    """Append edges ``[starts[g], ends[g])`` (ascending time) to carry
    forest ``verts[g]``, for all groups ``g`` at once.

    No vertex changes before every block of the batch is built, so a
    stream-order violation in any group leaves all of them untouched.
    """
    lows, highs = starts.tolist(), ends.tolist()
    firsts, lasts = times[starts].tolist(), times[ends - 1].tolist()
    # Carry plan: absorb front blocks no larger than the running size, so
    # sizes grow geometrically and an edge is re-indexed O(log d) times.
    refs, ranks = [], []  # per group: frozen reference time, rank offset
    plans = []  # per group: (absorbed front blocks, merged edges)
    classes: Dict[int, List[int]] = {}  # final block size -> groups
    for g, vert in enumerate(verts):
        if vert._t_newest is not None and firsts[g] < vert._t_newest:
            raise NotSupportedError(
                f"streaming updates must not precede existing edges "
                f"(got {firsts[g]} < {vert._t_newest})"
            )
        refs.append(firsts[g] if vert._t_ref is None else vert._t_ref)
        ranks.append(vert.num_edges + 1 - lows[g])
        size = highs[g] - lows[g]
        merged = absorbed = 0
        for b in vert.blocks:
            if b.size > size:
                break
            merged += b.size + size
            size += b.size
            absorbed += 1
        plans.append((absorbed, merged))
        classes.setdefault(size, []).append(g)
    # Weights for the whole batch, then every group newest-first.
    if len(verts) == 1:
        weights = _static_weights(model, times, refs[0], ranks[0])
        dst, times, weights = dst[::-1], times[::-1], weights[::-1]
    else:
        counts = ends - starts
        weights = _static_weights(model, times, np.repeat(refs, counts),
                                  np.repeat(ranks, counts))
        flip = np.repeat(starts + ends - 1, counts) - np.arange(times.size)
        dst, times, weights = dst[flip], times[flip], weights[flip]
    # Size-class build. Prefix sums are per row: a global cumsum minus
    # offsets would cancel (``exponential`` weights span e^83).
    built: Dict[int, _Block] = {}
    for size, groups in classes.items():
        pieces = []
        for g in groups:
            lo, hi = lows[g], highs[g]
            pieces.append((dst[lo:hi], times[lo:hi], weights[lo:hi]))
            pieces += [(b.dst, b.times, b.weights)
                       for b in verts[g].blocks[: plans[g][0]]]
        d, t, w = (np.concatenate(col).reshape(len(groups), size)
                   for col in zip(*pieces))
        c = np.zeros((len(groups), size + 1))
        np.cumsum(w, axis=1, out=c[:, 1:])
        for arr in (d, t, w, c):
            arr.setflags(write=False)
        built.update(zip(groups, map(_Block, d, t, w, c)))
    # Install: the only place a vertex changes.
    for g, vert in enumerate(verts):
        absorbed, merged = plans[g]
        vert.blocks[:absorbed] = [built[g]]
        vert.num_edges += highs[g] - lows[g]
        vert.merged_edges += merged
        vert._t_ref, vert._t_newest = refs[g], lasts[g]


class VertexIncrementalHPAT:
    """Streaming HPAT for one vertex's out-edges.

    Parameters
    ----------
    weight_model:
        Static weight definition. The per-vertex reference time for the
        time-dependent kinds is frozen at the *first* edge seen, so
        weights of already-indexed edges never change when new edges
        arrive (probability ratios are reference-invariant; see
        :mod:`repro.core.weights`).
    """

    __slots__ = ("weight_model", "blocks", "num_edges", "_t_ref", "_t_newest",
                 "merged_edges")

    def __init__(self, weight_model: WeightModel):
        self.weight_model = weight_model
        self.blocks: List[_Block] = []  # newest first
        self.num_edges = 0
        self._t_ref: Optional[float] = None
        self._t_newest: Optional[float] = None
        self.merged_edges = 0  # total edges re-indexed by carries (cost oracle)

    def append_batch(self, dst, times) -> None:
        """Append edges with times ≥ everything already present.

        ``times`` must be ascending within the batch; violating the
        stream order raises :class:`NotSupportedError` (the paper's
        engine does not support out-of-order mutation, Section 4.4).
        The one-group call into the batch-wide builder.
        """
        dst = np.asarray(dst, dtype=np.int64)
        times = np.asarray(times, dtype=np.float64)
        if dst.size == 0:
            return
        if times.size > 1 and np.any(times[:-1] > times[1:]):
            raise NotSupportedError("batch times must be ascending")
        _carry_append(self.weight_model, [self], np.array([0]),
                      np.array([dst.size]), dst, times)

    # -- queries ---------------------------------------------------------------

    def candidate_count(self, t: Optional[float]) -> int:
        if t is None:
            return self.num_edges
        count = 0
        for b in self.blocks:  # newest first
            c = b.candidate_count(t)
            count += c
            if c < b.size:
                break
        return count

    def sample(
        self,
        candidate_size: int,
        rng: np.random.Generator,
        counters: Optional[CostCounters] = None,
    ) -> Tuple[int, float]:
        """Sample among the newest ``candidate_size`` edges ∝ static weight.

        Returns ``(destination, time)`` of the sampled edge.
        """
        s = int(candidate_size)
        if s <= 0 or s > self.num_edges:
            raise EmptyCandidateSetError(
                f"candidate size {s} invalid for {self.num_edges} edges"
            )
        # Cumulative weights over covered blocks (newest first) — the ITS
        # over trunks, lifted to the block forest.
        covered: List[Tuple[_Block, int]] = []
        cum: List[float] = [0.0]
        remaining = s
        for b in self.blocks:
            take = min(remaining, b.size)
            covered.append((b, take))
            cum.append(cum[-1] + b.total_weight(take))
            remaining -= take
            if remaining == 0:
                break
        total = cum[-1]
        if not (total > 0):
            raise EmptyCandidateSetError("zero-weight candidate set")
        r = draw_in_range(rng, 0.0, total)
        lo_b, hi_b = 0, len(covered)
        while hi_b - lo_b > 1:
            mid = (lo_b + hi_b) // 2
            if counters is not None:
                counters.record_probe()
            if cum[mid] < r:
                lo_b = mid
            else:
                hi_b = mid
        block, take = covered[lo_b]
        local = block.sample_prefix(take, rng, counters)
        return int(block.dst[local]), float(block.times[local])

    def edges_desc(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All edges newest-first: ``(dst, times, weights)`` — test oracle."""
        if not self.blocks:
            z = np.zeros(0)
            return z.astype(np.int64), z, z
        return (
            np.concatenate([b.dst for b in self.blocks]),
            np.concatenate([b.times for b in self.blocks]),
            np.concatenate([b.weights for b in self.blocks]),
        )

    def segments(self) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray, int]]:
        """Newest-first ``(dst, times, mass, exponent)`` per block.

        ``mass[k]`` is the mass of the block's newest ``k`` edges (so one
        entry more than edges) and an edge weighs ``mass · 2^exponent``
        (always 0 here) — the shape
        :class:`repro.streaming.snapshot.EpochView` packs, shared with
        :meth:`repro.kernels.decay.DecayRadixForest.segments`.
        """
        return [(b.dst, b.times, b.c, 0) for b in self.blocks]

    def num_blocks(self) -> int:
        return len(self.blocks)

    def nbytes(self) -> int:
        return sum(b.nbytes() for b in self.blocks)

    # -- atomicity ---------------------------------------------------------

    def snapshot(self) -> tuple:
        """O(num_blocks) state capture for transactional appends.

        Cheap because :class:`_Block` instances are immutable once
        built — an append only ever replaces the absorbed front of the
        list with one *new* block — so a shallow copy of the block list
        pins the entire pre-batch structure.
        """
        return (
            list(self.blocks), self.num_edges, self._t_ref, self._t_newest,
            self.merged_edges,
        )

    def restore(self, state: tuple) -> None:
        """Rewind to a :meth:`snapshot` (discards appended extents)."""
        (self.blocks, self.num_edges, self._t_ref, self._t_newest,
         self.merged_edges) = state

    def view(self) -> "VertexIncrementalHPAT":
        """A frozen copy-on-write capture for epoch-snapshot reads.

        Blocks are immutable once built and an append only ever edits
        the live *list*, so sharing the block objects under a
        private list pins this vertex's entire structure in
        O(num_blocks). The view answers the full query API but is
        never appended to.
        """
        frozen = VertexIncrementalHPAT.__new__(VertexIncrementalHPAT)
        frozen.weight_model = self.weight_model
        frozen.blocks = list(self.blocks)
        frozen.num_edges = self.num_edges
        frozen._t_ref = self._t_ref
        frozen._t_newest = self._t_newest
        frozen.merged_edges = self.merged_edges
        return frozen


class IncrementalHPAT:
    """Graph-level streaming HPAT: one block forest per active vertex.

    ``apply_batch`` is **atomic**: either every edge of the batch is
    indexed or none is. A failure mid-batch — a stream-order violation
    in a later vertex group, or an injected ``streaming_apply`` fault —
    rewinds every vertex already touched to its pre-batch snapshot and
    re-raises, so a sampler never observes a half-applied batch.
    """

    def __init__(self, weight_model: WeightModel,
                 graph: Optional[TemporalGraph] = None, fault_injector=None,
                 factorized: Optional[bool] = None):
        self.weight_model = weight_model
        self.vertices: Dict[int, VertexIncrementalHPAT] = {}
        self.num_edges = 0
        #: Use the BINGO-style factorized radix forest
        #: (:class:`repro.kernels.decay.DecayRadixForest`) instead of the
        #: carry-merge block forest. Defaults to on exactly when the
        #: weight factorizes (``exponential_decay``); forcing it on for
        #: any other kind raises at first vertex creation.
        self.factorized = (
            weight_model.kind == "exponential_decay"
            if factorized is None else bool(factorized)
        )
        #: Optional :class:`repro.resilience.faults.FaultInjector`
        #: evaluated at the ``streaming_apply`` site once per vertex
        #: group, so plans can fail a batch mid-apply deterministically.
        self.fault_injector = fault_injector
        #: Batches rolled back by a mid-apply failure (telemetry).
        self.rollbacks = 0
        #: Vertices touched since the last :meth:`clear_dirty` — the
        #: copy-on-write delta epoch snapshots re-pin (everything else
        #: aliases the previous epoch's frozen views).
        self._dirty: set = set()
        if graph is not None and graph.num_edges:
            self.apply_batch(graph.to_stream())

    def apply_batch(self, batch: EdgeStream) -> Dict[int, Optional[tuple]]:
        """Apply one time-ordered batch of new edges (paper's update unit).

        Atomic: groups the batch by source, snapshots each touched
        forest, builds the whole batch at once; any failure restores
        every snapshot (and drops vertices this batch created) before
        re-raising. Returns the undo record ``{vertex: pre-batch
        snapshot, or None if created here}`` for :meth:`restore_vertices`.
        """
        undo: Dict[int, Optional[tuple]] = {}
        n = len(batch)
        if not n:
            return undo
        if batch.weight is not None:
            raise NotSupportedError(
                "the incremental index computes static weights from the "
                "weight model; user edge weights are only supported on "
                "static builds"
            )
        src, dst, times = batch.src, batch.dst, batch.time
        if n > 1:
            order = np.argsort(src, kind="stable")
            src, dst, times = src[order], dst[order], times[order]
        cuts = np.flatnonzero(src[1:] != src[:-1]) + 1
        starts = np.concatenate(([0], cuts))
        ends = np.concatenate((cuts, [n]))
        late = times[1:] < times[:-1]
        late[cuts - 1] = False  # a drop across a group boundary is no violation
        try:
            if late.any():
                raise NotSupportedError("batch times must be ascending")
            verts = []
            for v, lo, hi in zip(src[starts].tolist(), starts.tolist(),
                                 ends.tolist()):
                if self.fault_injector is not None:
                    self.fault_injector.check("streaming_apply")
                vert = self.vertices.get(v)
                if vert is None:
                    undo[v] = None
                    vert = self.vertices[v] = self._new_vertex()
                else:
                    undo[v] = vert.snapshot()
                if self.factorized:
                    vert.append_batch(dst[lo:hi], times[lo:hi])
                else:
                    verts.append(vert)
            if verts:
                _carry_append(self.weight_model, verts, starts, ends, dst, times)
        except BaseException:
            self.restore_vertices(undo, 0)
            raise
        self.num_edges += n
        self._dirty.update(undo)
        return undo

    def _new_vertex(self):
        """A fresh per-vertex index of the configured flavour."""
        if self.factorized:
            from repro.kernels.decay import DecayRadixForest

            return DecayRadixForest(self.weight_model)
        return VertexIncrementalHPAT(self.weight_model)

    def update_work(self) -> int:
        """Total edge-indexing work so far (the Figure 13d cost oracle).

        Every edge is indexed once on arrival, plus once per carry-merge
        re-index (``merged_edges``). The factorized decay forest never
        merges, so its work is exactly ``num_edges`` — the O(1)-buckets
        claim the kernel-fusion bench asserts against this oracle.
        """
        return self.num_edges + sum(
            v.merged_edges for v in self.vertices.values()
        )

    def candidate_count(self, v: int, t: Optional[float]) -> int:
        vert = self.vertices.get(v)
        return vert.candidate_count(t) if vert is not None else 0

    def sample(
        self,
        v: int,
        candidate_size: int,
        rng: np.random.Generator,
        counters: Optional[CostCounters] = None,
    ) -> Tuple[int, float]:
        vert = self.vertices.get(v)
        if vert is None:
            raise EmptyCandidateSetError(f"vertex {v} has no out-edges")
        return vert.sample(candidate_size, rng, counters)

    def nbytes(self) -> int:
        return sum(v.nbytes() for v in self.vertices.values())

    # -- durability hooks --------------------------------------------------

    def restore_vertices(self, undo: Dict[int, Optional[tuple]],
                         edges_removed: int) -> None:
        """Undo a batch from :meth:`apply_batch`'s undo record — its own
        mid-apply failures, or a caller whose durability step (WAL
        append) failed after the in-memory apply succeeded."""
        for v, state in undo.items():
            if state is None:
                self.vertices.pop(v, None)
            else:
                self.vertices[v].restore(state)
        self.num_edges -= int(edges_removed)
        self.rollbacks += 1

    # -- epoch snapshots ---------------------------------------------------

    def dirty_vertices(self) -> frozenset:
        """Vertices whose structure changed since :meth:`clear_dirty`."""
        return frozenset(self._dirty)

    def clear_dirty(self) -> None:
        self._dirty.clear()
