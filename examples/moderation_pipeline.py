"""Live graph churn: streaming arrivals + moderation deletions + queries.

A realistic serving scenario stitched from the paper's streaming support
(§3.5) and its future-work deletions (§4.4):

* interactions arrive in time-ordered batches (a social/messaging feed);
* a moderation process *removes* edges (spam) and entire accounts;
* recommendation queries (temporal walks) run continuously against the
  live graph and must never traverse removed content;
* a query session caches prepared indices across repeated query shapes.

The deletion engine lives here, next to its only caller, not in the
library: "Other cases such as deleting or changing vertices or edges are
not supported. We plan to add support for these features to TEA in the
future." (§4.4). :class:`TombstoneHPAT` adds that support on top of the
static HPAT, without giving up its sampling complexity:

* a deleted edge gets a **tombstone** and its stored weight is logically
  zero. Until the owning vertex is rebuilt, sampling uses *tombstone
  rejection*: draw from the stale HPAT, retry on a dead edge. Because
  live edges keep their original weights, the accepted draw follows
  exactly the live-restricted distribution (rejection preserves
  conditionals) — property-tested.
* when a vertex's dead fraction crosses ``rebuild_threshold``, its slice
  of the HPAT (prefix sums + level tables) is rebuilt **in place** with
  the dead weights at zero. The flat layout never changes — table sizes
  depend only on the (physical) degree — so a per-vertex rebuild is a
  local O(d log d) refresh, and zero-weight edges are unreachable by
  construction (the ITS boundaries give them measure zero).
* a bounded retry budget falls back to one exact live-weight scan
  (cost-accounted), so adversarially tombstone-heavy prefixes stay
  correct even just below the rebuild threshold.

Vertex deletion is edge deletion of the vertex's out-edges plus
tombstoning it as a walk target (walks simply treat it as a dead end).

**Epoch pinning.** Each deletion advances an ``epoch`` counter and is
recorded in a deletion log ``(epoch, vertex, position, original
weight)``. :meth:`TombstoneHPAT.pin` freezes the current epoch: the
returned :class:`TombstonePin` answers ``alive_count``/``sample`` as of
that epoch — edges deleted *after* the pin are treated as alive at
their original weight — while in-place vertex rebuilds (which would
destroy older epochs' reachability) are deferred until the last pin is
released. A pinned reader is bit-identical to one that ran before the
post-pin deletions happened, which is what lets walk traffic proceed
isolated from a concurrent mutation stream.

Run:  python examples/moderation_pipeline.py
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro import TemporalGraph, Workload, exponential_walk
from repro.core import builder
from repro.core.aux_index import AuxiliaryIndex
from repro.core.builder import _fill_levels, _prefix_fill, build_hpat, hpat_layout
from repro.core.hpat import HierarchicalPAT
from repro.engines.base import Engine
from repro.engines.session import TeaSession
from repro.exceptions import EmptyCandidateSetError
from repro.graph.generators import temporal_powerlaw
from repro.sampling.counters import CostCounters
from repro.sampling.prefix_sum import build_prefix_sums, draw_in_range, its_search
from repro.telemetry import MemoryReport
from repro.walks.apps import unbiased_walk
from repro.walks.spec import WalkSpec

MAX_TOMBSTONE_RETRIES = 32


@dataclass
class DeletionStats:
    """Bookkeeping for one :class:`TombstoneHPAT`."""

    deletions: int = 0
    vertex_rebuilds: int = 0
    tombstone_retries: int = 0
    fallback_scans: int = 0
    deferred_rebuilds: int = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "deletions": self.deletions,
            "vertex_rebuilds": self.vertex_rebuilds,
            "tombstone_retries": self.tombstone_retries,
            "fallback_scans": self.fallback_scans,
            "deferred_rebuilds": self.deferred_rebuilds,
        }


class TombstoneHPAT:
    """HPAT with tombstone deletions and per-vertex lazy rebuilds."""

    def __init__(
        self,
        graph: TemporalGraph,
        weights: np.ndarray,
        rebuild_threshold: float = 0.25,
        with_aux_index: bool = True,
    ):
        if not (0.0 < rebuild_threshold <= 1.0):
            raise ValueError("rebuild_threshold must be in (0, 1]")
        self.graph = graph
        self.weights = np.array(weights, dtype=np.float64)  # mutable copy
        self.rebuild_threshold = float(rebuild_threshold)
        self.hpat: HierarchicalPAT = build_hpat(graph, self.weights)
        if with_aux_index:
            self.hpat.aux = AuxiliaryIndex(graph.max_degree())
        # Rebuilds write in place; the builder returns fresh arrays, so
        # they are writable already. Keep explicit for clarity.
        self.hpat.c.setflags(write=True)
        self.hpat.prob.setflags(write=True)
        self.hpat.alias.setflags(write=True)
        self.dead = np.zeros(graph.num_edges, dtype=bool)
        # Per-vertex sorted lists of dead positions (local indices), for
        # O(log) alive-count queries over candidate prefixes.
        self._dead_positions: Dict[int, List[int]] = {}
        self._stale_dead: Dict[int, int] = {}  # dead-but-not-rebuilt count
        self.stats = DeletionStats()
        #: Mutation epoch: advances once per accepted deletion.
        self.epoch = 0
        # Deletion log (epoch, vertex, position, original weight) —
        # what a pinned reader needs to resurrect post-pin deletions.
        self._log: List[tuple] = []
        self._active_pins = 0
        self._deferred_rebuilds: set = set()

    # -- mutation ------------------------------------------------------------

    def delete_position(self, v: int, position: int) -> None:
        """Tombstone the ``position``-th newest out-edge of vertex v."""
        d = self.graph.out_degree(v)
        if not (0 <= position < d):
            raise IndexError(f"vertex {v} has no out-edge position {position}")
        pos = int(self.graph.indptr[v]) + position
        if self.dead[pos]:
            return
        self.epoch += 1
        self._log.append((self.epoch, v, position, float(self.weights[pos])))
        self.dead[pos] = True
        self.weights[pos] = 0.0
        bisect.insort(self._dead_positions.setdefault(v, []), position)
        self._stale_dead[v] = self._stale_dead.get(v, 0) + 1
        self.stats.deletions += 1
        if self._stale_dead[v] / d >= self.rebuild_threshold:
            if self._active_pins:
                # A rebuild zeroes dead edges out of the shared level
                # tables — it would tear reachability out from under
                # every pinned epoch. Defer until the last pin releases.
                if v not in self._deferred_rebuilds:
                    self._deferred_rebuilds.add(v)
                    self.stats.deferred_rebuilds += 1
            else:
                self._rebuild_vertex(v)

    def delete_edge(self, u: int, v: int, t: float) -> bool:
        """Tombstone the edge (u, v, t); returns False if absent/already dead."""
        nbrs, times = self.graph.neighbors(u)
        matches = np.flatnonzero((nbrs == v) & (times == t))
        deleted = False
        for position in matches:
            pos = int(self.graph.indptr[u]) + int(position)
            if not self.dead[pos]:
                self.delete_position(u, int(position))
                deleted = True
        return deleted

    def delete_vertex_out_edges(self, v: int) -> int:
        """Tombstone every out-edge of v (vertex deletion as a walk source)."""
        count = 0
        for position in range(self.graph.out_degree(v)):
            pos = int(self.graph.indptr[v]) + position
            if not self.dead[pos]:
                self.delete_position(v, position)
                count += 1
        return count

    def _rebuild_vertex(self, v: int) -> None:
        """Refresh one vertex's prefix sums and level tables in place."""
        g = self.graph
        lo, hi = int(g.indptr[v]), int(g.indptr[v + 1])
        d = hi - lo
        if d == 0:
            return
        w = self.weights[lo:hi]
        # Prefix sums: segment [lo + v, hi + v + 1), rebuilt in place.
        indptr = np.array([0, d], dtype=np.int64)
        _prefix_fill(indptr, w, self.hpat.c[lo + v : hi + v + 1], 0, 1)
        # Level tables: this vertex's contiguous region of the flat arrays.
        lvl_base, lvl_ptr, cells = hpat_layout(np.array([d], dtype=np.int64))
        if cells:
            start = self.hpat.level_table_start(v, 1)
            _fill_levels(indptr, np.where(w > 0, w, 0.0), lvl_base, lvl_ptr,
                         self.hpat.prob[start : start + cells],
                         self.hpat.alias[start : start + cells], 0, 1)
        self._stale_dead[v] = 0
        self.stats.vertex_rebuilds += 1

    # -- queries ---------------------------------------------------------------

    def alive_count(self, v: int, candidate_size: int) -> int:
        """Live candidates within the newest ``candidate_size`` edges of v."""
        dead_here = self._dead_positions.get(v)
        if not dead_here:
            return int(candidate_size)
        return int(candidate_size) - bisect.bisect_left(dead_here, candidate_size)

    def is_dead(self, v: int, position: int) -> bool:
        return bool(self.dead[int(self.graph.indptr[v]) + position])

    # -- sampling --------------------------------------------------------------

    def sample(
        self,
        v: int,
        candidate_size: int,
        rng: np.random.Generator,
        counters: Optional[CostCounters] = None,
    ) -> int:
        """Sample a *live* edge index in ``[0, candidate_size)`` ∝ weight."""
        s = int(candidate_size)
        if self.alive_count(v, s) <= 0:
            raise EmptyCandidateSetError(
                f"vertex {v}: no live candidates in prefix of {s}"
            )
        lo = int(self.graph.indptr[v])
        for _ in range(MAX_TOMBSTONE_RETRIES):
            idx = self.hpat.sample(v, s, rng, counters)
            if not self.dead[lo + idx]:
                return idx
            self.stats.tombstone_retries += 1
            if counters is not None:
                counters.record_trial(False)
        # Exact fallback: one live-weight scan (rare; cost-accounted).
        self.stats.fallback_scans += 1
        if counters is not None:
            counters.record_scan(s)
        w = self.weights[lo : lo + s]
        prefix = build_prefix_sums(w)
        if not (prefix[s] > 0):
            raise EmptyCandidateSetError(f"vertex {v}: zero live weight")
        r = draw_in_range(rng, 0.0, prefix[s])
        return its_search(prefix, r, 0, s, counters)

    def nbytes(self) -> int:
        return int(self.hpat.nbytes() + self.weights.nbytes + self.dead.nbytes)

    # -- epoch pinning ---------------------------------------------------------

    def pin(self) -> "TombstonePin":
        """Freeze the current epoch for isolated reads.

        While any pin is alive, in-place vertex rebuilds are deferred
        (queued, replayed on last release), so the level tables a
        pinned reader rejection-samples from stay exactly as they were.
        """
        self._active_pins += 1
        return TombstonePin(self)

    def _release_pin(self) -> None:
        self._active_pins -= 1
        if self._active_pins == 0 and self._deferred_rebuilds:
            deferred, self._deferred_rebuilds = self._deferred_rebuilds, set()
            for v in sorted(deferred):
                if self._stale_dead.get(v, 0):
                    self._rebuild_vertex(v)


class TombstonePin:
    """Reads against one frozen deletion epoch (see ``TombstoneHPAT.pin``).

    Answers the same ``alive_count``/``sample`` contract as the live
    index, but as of the pin's epoch: edges deleted afterwards are
    *resurrected* — counted alive and sampled at the original weight
    recorded in the deletion log. Results are bit-identical to running
    the same reads before the post-pin deletions happened. Release the
    pin (or use it as a context manager) so deferred rebuilds can run.
    """

    __slots__ = ("_owner", "epoch", "_log_len", "_released")

    def __init__(self, owner: TombstoneHPAT):
        self._owner = owner
        self.epoch = owner.epoch
        self._log_len = len(owner._log)
        self._released = False

    def release(self) -> None:
        if not self._released:
            self._released = True
            self._owner._release_pin()

    def __enter__(self) -> "TombstonePin":
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def _revived(self, v: int) -> Dict[int, float]:
        """position → original weight for post-pin deletions of v."""
        out: Dict[int, float] = {}
        for _epoch, u, position, w in self._owner._log[self._log_len:]:
            if u == v:
                out[position] = w
        return out

    def alive_count(self, v: int, candidate_size: int) -> int:
        s = int(candidate_size)
        alive = self._owner.alive_count(v, s)
        return alive + sum(1 for p in self._revived(v) if p < s)

    def sample(
        self,
        v: int,
        candidate_size: int,
        rng: np.random.Generator,
        counters: Optional[CostCounters] = None,
    ) -> int:
        """Sample a live-at-pin edge index in ``[0, candidate_size)``."""
        owner = self._owner
        s = int(candidate_size)
        revived = self._revived(v)
        if owner.alive_count(v, s) + sum(1 for p in revived if p < s) <= 0:
            raise EmptyCandidateSetError(
                f"vertex {v}: no candidates live at epoch {self.epoch} "
                f"in prefix of {s}"
            )
        lo = int(owner.graph.indptr[v])
        for _ in range(MAX_TOMBSTONE_RETRIES):
            idx = owner.hpat.sample(v, s, rng, counters)
            if not owner.dead[lo + idx] or idx in revived:
                return idx
            owner.stats.tombstone_retries += 1
            if counters is not None:
                counters.record_trial(False)
        # Exact fallback over the pin-time weights: live weights with
        # post-pin deletions patched back to their logged originals.
        owner.stats.fallback_scans += 1
        if counters is not None:
            counters.record_scan(s)
        w = owner.weights[lo : lo + s].copy()
        for position, orig in revived.items():
            if position < s:
                w[position] = orig
        prefix = build_prefix_sums(w)
        if not (prefix[s] > 0):
            raise EmptyCandidateSetError(
                f"vertex {v}: zero weight live at epoch {self.epoch}"
            )
        r = draw_in_range(rng, 0.0, prefix[s])
        return its_search(prefix, r, 0, s, counters)


class MutableTeaEngine(Engine):
    """TEA with tombstone deletions and lazy per-vertex rebuilds.

    Wraps :class:`TombstoneHPAT` in the standard engine interface so
    walks and deletions interleave: deleted edges are never traversed,
    candidate sets that are fully tombstoned become dead ends, and
    everything else behaves exactly like ``TeaEngine``. :meth:`pin`
    freezes the current deletion epoch and returns a handle whose walks
    are bit-identical no matter how many deletions land afterwards.
    """

    has_candidate_index = True
    name = "tea-mutable"

    def __init__(
        self,
        graph: TemporalGraph,
        spec: WalkSpec,
        rebuild_threshold: float = 0.25,
    ):
        super().__init__(graph, spec)
        self.rebuild_threshold = float(rebuild_threshold)
        self.index: Optional[TombstoneHPAT] = None
        # When set, candidate/sample reads go through this pinned epoch
        # instead of the live index (see MutableEnginePin.run).
        self._pin_index: Optional[TombstonePin] = None

    def _prepare(self) -> None:
        self.candidate_sizes = builder.search_candidate_sets(self.graph)
        weights = self.spec.weight_model.compute(self.graph)
        self.index = TombstoneHPAT(
            self.graph, weights, rebuild_threshold=self.rebuild_threshold
        )

    # -- mutation ------------------------------------------------------------

    def delete_edge(self, u: int, v: int, t: float) -> bool:
        """Delete the edge (u, v, t); walks can no longer traverse it."""
        self.prepare()
        return self.index.delete_edge(u, v, t)

    def delete_vertex(self, v: int) -> int:
        """Delete all of v's out-edges (walks arriving at v dead-end)."""
        self.prepare()
        return self.index.delete_vertex_out_edges(v)

    @property
    def deletion_stats(self):
        self.prepare()
        return self.index.stats

    # -- epoch pinning -------------------------------------------------------

    @property
    def epoch(self) -> int:
        """Current deletion epoch (one per accepted deletion)."""
        self.prepare()
        return self.index.epoch

    def pin(self) -> "MutableEnginePin":
        """Freeze the current epoch for isolated walk traffic.

        Walks run through the returned handle see exactly the edges
        alive now, at their current weights, however many deletions
        arrive meanwhile — and are bit-identical to running the same
        workload on the engine before those deletions. Release the
        handle (context manager) to let deferred rebuilds proceed.
        """
        self.prepare()
        return MutableEnginePin(self, self.index.pin())

    # -- engine interface --------------------------------------------------------

    def _alive_index(self):
        return self._pin_index if self._pin_index is not None else self.index

    def _initial_candidates(self, v: int) -> int:
        s = super()._initial_candidates(v)
        return s if self._alive_index().alive_count(v, s) > 0 else 0

    def _next_candidates(self, edge_pos, v, t, counters) -> int:
        s = super()._next_candidates(edge_pos, v, t, counters)
        return s if self._alive_index().alive_count(v, s) > 0 else 0

    def sample_edge(self, v, candidate_size, walker_time, rng, counters):
        return self._alive_index().sample(v, candidate_size, rng, counters)

    def memory_report(self) -> MemoryReport:
        report = super().memory_report()
        if self.index is not None:
            report.add("tombstone_index", self.index.nbytes())
        return report


class MutableEnginePin:
    """A walkable handle over one frozen deletion epoch.

    Thin adapter: :meth:`run` executes the engine's normal walk
    machinery with candidate/sample reads redirected through the
    underlying :class:`TombstonePin` for the duration of the call.
    """

    def __init__(self, engine: MutableTeaEngine, index_pin: TombstonePin):
        self._engine = engine
        self._index_pin = index_pin

    @property
    def epoch(self) -> int:
        return self._index_pin.epoch

    def run(self, workload, **kwargs):
        """Run a workload against the pinned epoch (engine ``run`` API)."""
        engine = self._engine
        previous = engine._pin_index
        engine._pin_index = self._index_pin
        try:
            return engine.run(workload, **kwargs)
        finally:
            engine._pin_index = previous

    def release(self) -> None:
        self._index_pin.release()

    def __enter__(self) -> "MutableEnginePin":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


def moderation_with_deletions() -> None:
    rng = np.random.default_rng(0)
    graph = TemporalGraph.from_stream(
        temporal_powerlaw(200, 8000, alpha=0.9, time_horizon=300.0, seed=21)
    )
    engine = MutableTeaEngine(graph, exponential_walk(scale=50.0),
                              rebuild_threshold=0.25)
    engine.prepare()

    spammer = int(np.argmax(graph.degrees()))
    print(f"graph: {graph}")
    print(f"moderation target: vertex {spammer} "
          f"(degree {graph.out_degree(spammer)})\n")

    workload = Workload(walks_per_vertex=3, max_length=10,
                        start_vertices=list(range(40)))

    before = engine.run(workload, seed=1)
    visits_before = sum(
        1 for p in before.paths for v in p.vertices[1:] if v == spammer
    )

    # Moderation round 1: remove a third of the spammer's posts.
    removed = 0
    for position in range(0, graph.out_degree(spammer), 3):
        engine.index.delete_position(spammer, position)
        removed += 1
    mid = engine.run(workload, seed=1)

    # Moderation round 2: take the whole account down.
    engine.delete_vertex(spammer)
    after = engine.run(workload, seed=1)
    visits_after = sum(
        1 for p in after.paths for v in p.vertices[1:] if v == spammer
    )
    arrived_after = sum(
        1 for p in after.paths
        for (a, _), (b, _) in zip(p.hops, p.hops[1:]) if a == spammer
    )

    stats = engine.deletion_stats.snapshot()
    print(f"deleted {removed} edges, then the remaining account:")
    print(f"  walk steps before/mid/after: "
          f"{before.total_steps}/{mid.total_steps}/{after.total_steps}")
    print(f"  walks leaving the spammer after takedown: {arrived_after} (expected 0)")
    print(f"  deletion machinery: {stats}")
    assert arrived_after == 0


def query_session() -> None:
    graph = TemporalGraph.from_stream(
        temporal_powerlaw(300, 12_000, alpha=0.9, time_horizon=300.0, seed=22)
    )
    session = TeaSession(graph, max_engines=4)
    windows = [None, (0.0, 150.0), (150.0, 300.0)]
    workload = Workload(max_length=15, max_walks=100)
    print("\nserving 12 queries over 3 window shapes (engine cache at work):")
    for i in range(12):
        window = windows[i % len(windows)]
        spec = (unbiased_walk(time_window=window)
                if window else unbiased_walk())
        result = session.query(spec, workload, seed=i)
        print(f"  q{i:02d} window={str(window):18s} steps={result.total_steps:5d} "
              f"prep={result.prepare_seconds * 1e3:5.1f} ms")
    print(f"session stats: {session.stats.snapshot()}")
    print(f"resident index memory: {session.resident_index_bytes() / 1024:.0f} KiB")


def main() -> None:
    moderation_with_deletions()
    query_session()


if __name__ == "__main__":
    main()
