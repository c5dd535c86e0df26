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

**Float range.** An edge weighs ``mass · 2^exp``, one integer exponent
per block. ``exp`` is 0 whenever the block's raw weights are normal
float64 values — every kind but the exponential two, and those until a
vertex's edges span ≈709 scale units — so the masses are the raw
weights. Past that the exponent comes from the block's heaviest edge,
and a carry stops before a block with a nonzero exponent would span
more than ``_SPAN`` scale units, so its lightest edge still has a
normal mass: ``exponential_decay``'s newest edges are its lightest, and
a candidate prefix may hold nothing else. A batch whose own edges span
more goes in as several appends.

Sampling stays distribution-identical to a from-scratch HPAT
(property-tested) and is a two-level inverse transform: one uniform
chooses among the covered blocks by their masses — rescaled to the
heaviest covered exponent — a second the edge inside the chosen block —
the boundary block's candidates are a *prefix* of its time-descending
edges — by ``c``. :meth:`VertexIncrementalHPAT.sample` is the scalar
specification of the epoch pack's draw: same two uniforms, same
arithmetic, same edge (``tests/test_epoch_pack.py``).
"""

from __future__ import annotations

from math import ldexp
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.weights import WeightModel
from repro.exceptions import EmptyCandidateSetError, NotSupportedError
from repro.graph.edge_stream import EdgeStream
from repro.graph.temporal_graph import TemporalGraph
from repro.sampling.counters import CostCounters
from repro.sampling.prefix_sum import draw_in_range, its_search

#: Widest span, in scale units, of a block with a nonzero exponent: its
#: lightest edge then weighs more than 2^-996 of its heaviest, a normal
#: float64 mass.
_SPAN = 690.0
_TINY, _HUGE = np.finfo(np.float64).tiny, np.finfo(np.float64).max
_LN2 = np.log(2.0)


class _Block:
    """One time-contiguous run of a vertex's edges (any size), newest first.

    ``c`` holds the per-edge prefix masses (``c[k]`` = mass of the newest
    ``k`` edges) — the block's one sampling structure, and with ``dst``,
    ``times`` and ``exp`` (an edge weighs ``mass · 2^exp``) exactly the
    segment :meth:`VertexIncrementalHPAT.segments` hands the epoch pack.
    Arrays are read-only row views into matrices shared with same-size
    batch-mates (built only by :func:`_carry_append`).
    """

    __slots__ = ("size", "dst", "times", "weights", "c", "exp")

    def __init__(self, dst, times, weights, c, exp):
        self.size = dst.size
        self.dst = dst
        self.times = times
        self.weights = weights
        self.c = c
        self.exp = exp

    def candidate_count(self, t: float) -> int:
        """Edges of this block with time strictly greater than t."""
        # Reversed *view* (ascending): O(log size), no per-query allocation.
        return self.size - int(self.times[::-1].searchsorted(t, side="right"))

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


def _static_weights(model: WeightModel, times: np.ndarray, t_ref, first_rank):
    """Static weights of edges in stream order, their natural logs and
    the mask of the weights that are not normal float64 values — both
    ``None`` when every weight is normal.

    ``t_ref`` (the vertex's frozen reference time) and ``first_rank``
    (stream rank of position 0) are scalars for one vertex or per-edge
    arrays for a batch; the arithmetic per edge is the same either way.
    """
    kind = model.kind
    if kind == "uniform":
        return np.ones_like(times), None, None
    if kind == "linear_rank":
        # Rank = 1-based position in stream order; stable under appends.
        ranks = (first_rank + np.arange(times.size)).astype(np.float64)
        return ranks, None, None
    if kind == "linear_time":
        return times - t_ref + 1.0, None, None
    if kind == "exponential_decay":
        # Decay falls off as edges recede from the frozen reference
        # (t_ref = earliest edge), matching the static builder.
        logs = (t_ref - times) / model.scale
        normal = logs.min() > -708.0
    else:
        logs = (times - t_ref) / model.scale
        normal = logs.max() < 709.0
    if normal:  # e^x is a normal float64 well inside (-708, 709)
        return np.exp(logs), None, None
    with np.errstate(over="ignore", under="ignore"):
        weights = np.exp(logs)
    out = ~((weights >= _TINY) & (weights <= _HUGE))
    if not out.any():
        return weights, None, None
    return weights, logs, out


def _rescale(group, front, logs):
    """One block's ``(dst, times, weights)`` pieces — its new edges, then
    the absorbed ``front`` blocks — at one exponent, the floor of the
    heaviest edge's log2: ``(exp, pieces)``. ``logs`` holds the new
    edges' natural-log weights when they are not all normal float64
    values (their raw weights are then unusable), else ``None``."""
    parts = [(group[0][2], 0)]
    if logs is not None:
        log2s = logs / _LN2
        top = int(np.floor(log2s.max()))
        parts = [(np.exp2(log2s - top), top)]
    parts += [(b.weights, b.exp) for b in front]
    exp = max(k + int(np.frexp(w.max())[1]) for w, k in parts) - 1
    return exp, [(d, t, np.ldexp(w, k - exp))
                 for (d, t, _), (w, k) in zip(group, parts)]


def _packed_groups(starts: np.ndarray, ends: np.ndarray):
    """Edge indices of groups ``[starts[g], ends[g])`` back to back, and
    the groups' bounds in that order."""
    sizes = ends - starts
    packed_ends = np.cumsum(sizes)
    packed_starts = packed_ends - sizes
    keep = np.repeat(starts - packed_starts, sizes) + np.arange(packed_ends[-1])
    return keep, packed_starts, packed_ends


def _carry_append(model: WeightModel, verts, starts: np.ndarray,
                  ends: np.ndarray, dst: np.ndarray, times: np.ndarray) -> None:
    """Append edges ``[starts[g], ends[g])`` (ascending time) to carry
    forest ``verts[g]``, for all groups ``g`` at once.

    No vertex changes before every block of the batch is built, so a
    stream-order violation in any group leaves all of them untouched. A
    group whose raw weights leave float64's normal range and whose edges
    span more than ``_SPAN`` scale units goes in as two appends: its
    longest prefix within the span, then the rest (which cannot violate
    the stream order).
    """
    lows, highs = starts.tolist(), ends.tolist()
    firsts, lasts = times[starts].tolist(), times[ends - 1].tolist()
    # Per group: frozen reference time, rank offset.
    refs = [f if v._t_ref is None else v._t_ref for f, v in zip(firsts, verts)]
    ranks = [v.num_edges + 1 - lo for v, lo in zip(verts, lows)]
    if len(verts) == 1:
        weights, logs, out = _static_weights(model, times, refs[0], ranks[0])
    else:
        counts = ends - starts
        weights, logs, out = _static_weights(
            model, times, np.repeat(refs, counts), np.repeat(ranks, counts))
    span = _SPAN * model.scale
    odd = [False] * len(verts)  # per group: a raw weight is not normal
    if out is not None:
        odd = np.logical_or.reduceat(out, starts).tolist()
        over = [g for g in range(len(verts))
                if odd[g] and lasts[g] > firsts[g] + span]
        if over:
            heads = ends.copy()
            for g in over:
                heads[g] = lows[g] + np.searchsorted(
                    times[lows[g]:highs[g]], firsts[g] + span, side="right")
            for part, lo, hi in ((verts, starts, heads), (
                    [verts[g] for g in over], heads[over], ends[over])):
                keep, lo, hi = _packed_groups(lo, hi)
                _carry_append(model, part, lo, hi, dst[keep], times[keep])
            return
    # Carry plan: absorb front blocks no larger than the running size, so
    # sizes grow geometrically and an edge is re-indexed O(log d) times,
    # and once the block needs an exponent, none past the span.
    plans = []  # per group: (absorbed front blocks, merged edges, scaled)
    classes: Dict[int, List[int]] = {}  # final block size -> groups
    for g, vert in enumerate(verts):
        if vert._t_newest is not None and firsts[g] < vert._t_newest:
            raise NotSupportedError(
                f"streaming updates must not precede existing edges "
                f"(got {firsts[g]} < {vert._t_newest})"
            )
        size = highs[g] - lows[g]
        merged = absorbed = 0
        scaled = odd[g]
        for b in vert.blocks:
            if b.size > size or ((scaled or b.exp)
                                 and lasts[g] > b.times[-1] + span):
                break
            scaled = scaled or b.exp != 0
            merged += b.size + size
            size += b.size
            absorbed += 1
        plans.append((absorbed, merged, scaled))
        classes.setdefault(size, []).append(g)
    # Every group newest-first.
    if len(verts) == 1:
        flip = slice(None, None, -1)
    else:
        flip = np.repeat(starts + ends - 1, counts) - np.arange(times.size)
    dst, times, weights = dst[flip], times[flip], weights[flip]
    if logs is not None:
        logs = logs[flip]
    # Size-class build. Prefix sums are per row: a global cumsum minus
    # offsets would cancel (``exponential`` weights span e^83).
    built: Dict[int, _Block] = {}
    for size, groups in classes.items():
        pieces, exps = [], []
        for g in groups:
            lo, hi = lows[g], highs[g]
            absorbed, _, scaled = plans[g]
            front = verts[g].blocks[:absorbed]
            group = [(dst[lo:hi], times[lo:hi], weights[lo:hi])]
            group += [(b.dst, b.times, b.weights) for b in front]
            exp = 0
            if scaled:
                exp, group = _rescale(group, front,
                                      logs[lo:hi] if odd[g] else None)
            exps.append(exp)
            pieces += group
        d, t, w = (np.concatenate(col).reshape(len(groups), size)
                   for col in zip(*pieces))
        c = np.zeros((len(groups), size + 1))
        np.cumsum(w, axis=1, out=c[:, 1:])
        for arr in (d, t, w, c):
            arr.setflags(write=False)
        built.update(zip(groups, map(_Block, d, t, w, c, exps)))
    # Install: the only place a vertex changes.
    for g, vert in enumerate(verts):
        absorbed, merged, _ = plans[g]
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
        # Running totals of the whole covered blocks (newest first) as
        # ``total · 2^kmax``, kmax the largest exponent so far — the
        # additions of the pack's ``seg_cum`` — then every total and the
        # boundary block's partial mass rescaled to the heaviest covered
        # exponent: the ITS over trunks, lifted to the block forest.
        whole: List[Tuple[float, int]] = []
        total, kmax = 0.0, self.blocks[0].exp
        remaining = s
        for b in self.blocks:
            if remaining < b.size:
                break
            k = max(kmax, b.exp)
            total, kmax = ldexp(total, kmax - k) + ldexp(b.c[-1], b.exp - k), k
            whole.append((total, kmax))
            remaining -= b.size
            if not remaining:
                break
        k_star = kmax
        if remaining:
            part = self.blocks[len(whole)]
            k_star = max(kmax, part.exp)
        cum = [0.0] + [ldexp(t, k - k_star) for t, k in whole]
        if remaining:
            cum.append(cum[-1] + ldexp(part.c[remaining], part.exp - k_star))
        total = cum[-1]
        if not (total > 0):
            raise EmptyCandidateSetError("zero-weight candidate set")
        r = draw_in_range(rng, 0.0, total)
        lo_b, hi_b = 0, len(cum) - 1
        while hi_b - lo_b > 1:
            mid = (lo_b + hi_b) // 2
            if counters is not None:
                counters.record_probe()
            if cum[mid] < r:
                lo_b = mid
            else:
                hi_b = mid
        block = self.blocks[lo_b]
        take = remaining if lo_b == len(whole) else block.size
        local = block.sample_prefix(take, rng, counters)
        return int(block.dst[local]), float(block.times[local])

    def edges_desc(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All edges newest-first: ``(dst, times, weights)`` — test oracle.
        Weights past float64's range come back as ``inf`` or 0."""
        if not self.blocks:
            z = np.zeros(0)
            return z.astype(np.int64), z, z
        with np.errstate(over="ignore", under="ignore"):
            return (
                np.concatenate([b.dst for b in self.blocks]),
                np.concatenate([b.times for b in self.blocks]),
                np.concatenate([np.ldexp(b.weights, b.exp) for b in self.blocks]),
            )

    def segments(self) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray, int]]:
        """Newest-first ``(dst, times, mass, exponent)`` per block.

        ``mass[k]`` is the mass of the block's newest ``k`` edges (so one
        entry more than edges) and an edge weighs ``mass · 2^exponent`` —
        the shape :class:`repro.streaming.snapshot.EpochView` packs.
        """
        return [(b.dst, b.times, b.c, b.exp) for b in self.blocks]

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
                 graph: Optional[TemporalGraph] = None, fault_injector=None):
        self.weight_model = weight_model
        self.vertices: Dict[int, VertexIncrementalHPAT] = {}
        self.num_edges = 0
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
            for v in src[starts].tolist():
                if self.fault_injector is not None:
                    self.fault_injector.check("streaming_apply")
                vert = self.vertices.get(v)
                if vert is None:
                    undo[v] = None
                    vert = self.vertices[v] = VertexIncrementalHPAT(
                        self.weight_model)
                else:
                    undo[v] = vert.snapshot()
                verts.append(vert)
            _carry_append(self.weight_model, verts, starts, ends, dst, times)
        except BaseException:
            self.restore_vertices(undo, 0)
            raise
        self.num_edges += n
        self._dirty.update(undo)
        return undo

    def update_work(self) -> int:
        """Total edge-indexing work so far (the Figure 13d cost oracle).

        Every edge is indexed once on arrival, plus once per carry-merge
        re-index (``merged_edges``).
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
