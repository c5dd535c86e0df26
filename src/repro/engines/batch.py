"""Vectorised batch walk execution for the TEA engine.

The scalar walk loop pays interpreter overhead per step; this executor
advances an entire *frontier* of walkers per iteration, keeping TEA's
exact sampling semantics. One iteration is the three passes of
:mod:`repro.kernels` — **select** (candidate total, ``r ∈ (0, total]``,
ITS over the trunks of the binary decomposition), **alias** (one draw
inside every selected trunk), **scatter** (advance, record, retire
exhausted walkers) — compiled C loops where the system ``cc`` built them,
numpy passes otherwise, plus vectorised node2vec β rejection
(static-adjacency membership by one ``searchsorted`` over the graph's
sorted :meth:`~repro.graph.temporal_graph.TemporalGraph.static_keys`),
re-drawing only the rejected lanes.
Every walk draws from its own counter-based stream, so under the
compiled backend an iteration over the in-memory index is one call, and
a request of any size walks in :data:`FRONTIER_LANES`-lane slices —
one frontier per slice, bit-identical to one frontier over every lane —
so a round's transient memory is one slice's, not the request's.

Distribution-equivalent to :class:`~repro.engines.tea.TeaEngine`
(property-tested); typically ~10× faster per step in CPython, which is
what lets benchmarks run the paper's full R·|V| workloads.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

import numpy as np

from repro.core import builder
from repro.engines.base import Engine, FrontierResult, Workload
from repro.graph.temporal_graph import TemporalGraph
from repro.kernels import (
    KernelScratch,
    WalkState,
    publish_backend,
    resolve_backend,
    sample_batch as _kernel_sample_batch,
)
from repro.rng import LaneRng, spawn_seeds
from repro.sampling.counters import CostCounters
from repro.telemetry import (
    MemoryReport,
    MetricsRegistry,
    NULL_PROFILER,
    NULL_SPAN,
)
from repro.walks.spec import Node2VecParameter, WalkSpec

_MAX_BETA_ROUNDS = 16

#: Lanes one frontier advances at a time (:meth:`BatchTeaEngine._walk_seeds`).
#: A wider request walks in slices of this many lanes, so its lane
#: columns, ``LaneRng`` keys and counters and kernel scratch (≈81 B a
#: lane) are live for one slice, not for every walk of the request.
#: Process peak (VmHWM) after six ``corpus_exp`` rounds (972 k lanes,
#: 175.4 MiB prepared engine, 2 shared vCPUs) by width: 16 384 → 197.5
#: MiB, 32 768 → 197.7, 65 536 → 197.6, 131 072 → 197.7, one frontier
#: → 245.1; 16 384 had the slowest best round. Walks, counters and
#: stream consumption never depend on it.
FRONTIER_LANES = 65_536

#: Padded cells (lanes × widest candidate set) one row group of the exact
#: β fallback holds (:meth:`BatchTeaEngine._beta_fallback_batch`). Its
#: two float64 matrices and their index temporaries then stay within a
#: few tens of MiB however many lanes fall back at a hub; the lanes are
#: drawn alike in any grouping.
BETA_FALLBACK_CELLS = 1 << 18


def hpat_sample_batch(
    index,
    vs: np.ndarray,
    ss: np.ndarray,
    rng: np.random.Generator,
    counters: Optional[CostCounters] = None,
    *,
    backend="auto",
    scratch: Optional[KernelScratch] = None,
) -> np.ndarray:
    """Vectorised HPAT draws for parallel arrays of (vertex, candidate size).

    The standalone form of the frontier kernel, used by the GNN
    neighborhood sampler (:mod:`repro.gnn`); uniforms come straight from
    ``rng``. Returns per-query edge indices local to each vertex's
    adjacency; every ``ss`` entry must be >= 1. ``backend`` names a
    kernel backend (or is a resolved
    :class:`~repro.kernels.KernelBackend`; all are bit-identical) and
    ``scratch`` carries the reusable staging buffers across calls.
    """
    return _kernel_sample_batch(resolve_backend(backend), index, vs, ss, rng,
                                counters, scratch=scratch)


class BatchTeaEngine(Engine):
    """Frontier-vectorised TEA (HPAT sampling, exact semantics)."""

    has_candidate_index = True
    name = "tea-batch"

    def __init__(self, graph: TemporalGraph, spec: WalkSpec,
                 kernel_backend="auto"):
        super().__init__(graph, spec)
        self.index = None
        self.kernel = resolve_backend(kernel_backend)

    def _prepare(self) -> None:
        pre = builder.preprocess(self.graph, self.spec.weight_model,
                                 recorder=self.recorder)
        self.index = pre.index
        self.candidate_sizes = pre.candidate_sizes

    def prepare(self) -> None:
        super().prepare()
        if self.spec.dynamic_parameter is not None:
            # β may read the graph's static adjacency: built here, once,
            # so forked workers inherit it and no two threads race to
            # build it.
            self.graph.static_keys()

    @classmethod
    def from_prepared(
        cls,
        graph: TemporalGraph,
        spec: WalkSpec,
        index,
        candidate_sizes: np.ndarray,
        kernel_backend="auto",
    ) -> "BatchTeaEngine":
        """Wrap an already-built index without re-running preprocessing.

        The entry point for an index built elsewhere (a separate
        ``preprocess``): ``graph`` must already be
        spec-restricted and ``index``/``candidate_sizes`` are adopted
        as-is (memory-mapped arrays included), so construction costs no
        array copies and no index build.
        """
        engine = object.__new__(cls)
        engine.graph = graph
        engine.spec = spec
        engine._prepared = True
        engine.index = index
        engine.candidate_sizes = candidate_sizes
        engine.kernel = resolve_backend(kernel_backend)
        return engine

    # Scalar fallback keeps the Engine contract usable (tests, user code).
    def sample_edge(self, v, candidate_size, walker_time, rng, counters):
        return self.index.sample(v, candidate_size, rng, counters)

    # -- vectorised kernels ----------------------------------------------------

    def _sample_batch(
        self, vs: np.ndarray, ss: np.ndarray, draw: LaneRng,
        lanes: np.ndarray, counters: CostCounters,
        scratch: Optional[KernelScratch] = None,
    ) -> np.ndarray:
        """HPAT draws for parallel arrays of (vertex, candidate size),
        row ``i`` on lane ``lanes[i]`` of ``draw``.

        Runs the engine's resolved kernel backend; ``scratch`` (one per
        frontier run) makes steady-state iterations allocation-free.
        """
        return _kernel_sample_batch(self.kernel, self.index, vs, ss, None,
                                    counters, draw=draw, lanes=lanes,
                                    scratch=scratch)

    def _beta_values(self, beta, prev: np.ndarray, cand: np.ndarray) -> np.ndarray:
        """β(prev, cand) per pair: vectorised for node2vec, one scalar
        call each for a custom ``Dynamic_parameter``."""
        g = self.graph
        if isinstance(beta, Node2VecParameter):
            return beta.values(g, prev, cand)
        return np.fromiter(
            (beta(g, int(p), int(c)) for p, c in zip(prev, cand)),
            dtype=np.float64, count=prev.size,
        )

    def _beta_fallback_batch(
        self, vs: np.ndarray, ss: np.ndarray, prevs: np.ndarray,
        beta, lane_rng, lanes: np.ndarray, counters: CostCounters,
    ) -> np.ndarray:
        """Exact β-adjusted draws for lanes that exhausted the rejection
        budget — the vectorised twin of
        :meth:`~repro.engines.base.Engine._beta_exact_draw`.

        Weight·β prefix sums are built **row-wise** over a padded
        ``(lanes, max_s)`` matrix, never as one flat cumsum: per-lane
        float accumulation order must not depend on which other lanes
        happen to share the fallback batch, or output would vary with
        chunking/scheduling. One uniform per lane (same stream
        consumption as the scalar path) turns into ``r ∈ (0, total]``
        and a per-row prefix comparison replaces the bisection. The
        lanes go in row groups of at most :data:`BETA_FALLBACK_CELLS`
        padded cells, which bounds the matrices and changes no draw.
        """
        rows = max(1, BETA_FALLBACK_CELLS // int(ss.max()))
        return np.concatenate([
            self._beta_fallback_rows(
                vs[lo:lo + rows], ss[lo:lo + rows], prevs[lo:lo + rows],
                beta, lane_rng, lanes[lo:lo + rows], counters)
            for lo in range(0, vs.size, rows)
        ])

    def _beta_fallback_rows(
        self, vs: np.ndarray, ss: np.ndarray, prevs: np.ndarray,
        beta, lane_rng, lanes: np.ndarray, counters: CostCounters,
    ) -> np.ndarray:
        """One row group of :meth:`_beta_fallback_batch`."""
        g = self.graph
        model = self.spec.weight_model
        p = vs.size
        max_s = int(ss.max())
        wb = np.zeros((p, max_s), dtype=np.float64)
        for i in range(p):
            si = int(ss[i])
            wb[i, :si] = model.prefix(g, int(vs[i]), si)
            counters.record_scan(si)
        valid = np.arange(max_s)[None, :] < ss[:, None]
        rows, cols = np.nonzero(valid & (prevs[:, None] >= 0))
        if rows.size:
            cand = g.nbr[g.indptr[vs[rows]] + cols]
            wb[rows, cols] *= self._beta_values(beta, prevs[rows], cand)
        # Lanes without a previous vertex keep β ≡ beta_max — a per-lane
        # constant that cancels under the normalised draw below.
        prefix = np.zeros((p, max_s + 1), dtype=np.float64)
        np.cumsum(wb, axis=1, out=prefix[:, 1:])
        totals = prefix[:, -1]
        r = totals - lane_rng.uniform(lanes) * totals  # (0, total] per lane
        choice = (prefix < r[:, None]).sum(axis=1) - 1
        return np.clip(choice, 0, ss - 1)

    @contextmanager
    def _frontier_scope(self, profiler):
        """Per-run resources of one frontier loop (seam 2 of 2; the
        index provider :meth:`_sample_batch` is the other), entered once
        around the loop. The in-memory index needs none; the out-of-core
        engine routes its trunk store's phases to ``profiler`` here.
        """
        yield

    # -- frontier kernel ---------------------------------------------------------

    def _run_frontier(
        self,
        starts: np.ndarray,
        max_length: int,
        stop_probability: float,
        lane_rng: LaneRng,
        counters: CostCounters,
        keep_hops: bool,
        registry: Optional[MetricsRegistry] = None,
        profiler=NULL_PROFILER,
    ) -> FrontierResult:
        """Advance every walk in ``starts`` to completion, vectorised;
        walk ``i`` draws from lane ``i`` of ``lane_rng``.

        The one frontier loop of every storage tier: :meth:`run`,
        :meth:`run_lanes` and the parallel executor's chunks
        (:mod:`repro.parallel`) all run exactly this, once per
        :data:`FRONTIER_LANES`-lane slice (:meth:`_walk_seeds`), in
        memory or against a trunk store — engines differ only in the two
        seams :meth:`_sample_batch` and :meth:`_frontier_scope`.
        Hops land in columnar ``(num, width)`` arrays — all lanes active
        at iteration ``k`` have taken ``k`` hops, so recording is one
        scatter per iteration instead of a Python append per lane. The
        columns double when a walk reaches their edge
        (:meth:`FrontierResult.make_room`), so they cost the hops taken,
        not ``max_length``.

        ``profiler`` is passed explicitly (never read from ``self`` here)
        because the thread backend shares one engine instance across
        worker threads — each chunk profiles into its own instance.
        Phase cost is charged per frontier *iteration*, not per step, so
        the bookkeeping stays far under the <5% overhead budget.

        ``registry``, when given, receives the ``batch.frontier_size``
        histogram: one observation per iteration of this call, so a
        sliced request observes every iteration of every slice.
        """
        g = self.graph
        beta = self.spec.dynamic_parameter
        beta_max = beta.beta_max if beta is not None else 1.0
        frontier_hist = (
            registry.histogram(
                "batch.frontier_size", "active walkers per frontier iteration"
            )
            if registry is not None
            else None
        )
        num = starts.size
        out = FrontierResult.empty(starts, max_length, keep_hops)

        # One scratch arena per frontier run: thread-safe (locals only)
        # and sized once at peak frontier width.
        scratch = KernelScratch()

        cur = starts.copy()
        prev = np.full(num, -1, dtype=np.int64)
        s = (g.indptr[cur + 1] - g.indptr[cur]).astype(np.int64)
        steps_left = np.full(num, max_length, dtype=np.int64)
        active = (s > 0) & (steps_left > 0)
        scatter = self.kernel.scatter
        # A run over the in-memory index is one backend call per iteration
        # — chosen by what the run *is*, never by size or option.
        fuse = (self.kernel.hop is not None
                and type(self)._sample_batch is BatchTeaEngine._sample_batch
                and (beta is None or isinstance(beta, Node2VecParameter)))

        def bind():
            """The walk state over ``out``'s current hop columns and the
            fused hop bound to it (``None``: the drivers orchestrate)."""
            state = WalkState(g.indptr, g.nbr, g.etime, self.candidate_sizes,
                              cur, prev, s, steps_left, out.hop_vertex,
                              out.hop_time)
            if not fuse:
                return state, None
            return state, self.kernel.hop(
                self.index, state, lane_rng, stop_probability,
                None if beta is None else (
                    g.static_keys(), g.num_vertices, 1.0 / beta.p,
                    1.0 / beta.q, beta_max, _MAX_BETA_ROUNDS), scratch)

        walk, hop = bind()

        def fused_advance(lanes: np.ndarray, iteration: int) -> np.ndarray:
            """:func:`advance`, the backend drawing and scattering too; lanes
            that spent the rejection budget take the exact fallback here."""
            with profiler.phase("hop"):
                if frontier_hist is not None:
                    frontier_hist.observe(lanes.size)
                lanes, spent = hop(lanes, iteration, counters)
                if spent.size:
                    vs = cur[spent]
                    idx = self._beta_fallback_batch(
                        vs, s[spent], prev[spent], beta, lane_rng, spent,
                        counters)
                    lanes = np.concatenate(
                        [lanes, scatter(walk, spent, vs, idx, iteration, scratch)])
            return lanes

        def advance(lanes: np.ndarray, iteration: int) -> np.ndarray:
            """One frontier iteration over ``lanes``; returns survivors.

            Closes over the walk-state arrays (``cur``/``prev``/``s``/
            ``steps_left``/hop columns). ``lanes`` is this loop's own
            array — the scatter pass may compact it in place.
            """
            with profiler.phase("gather"):
                if frontier_hist is not None:
                    frontier_hist.observe(lanes.size)
                if stop_probability:
                    survive = lane_rng.uniform(lanes) >= stop_probability
                    lanes = lanes[survive]
                    if not lanes.size:
                        return lanes
                counters.steps += lanes.size
                vs = cur[lanes]
                ss = s[lanes]
            with profiler.phase("draw"):
                if beta is None:
                    idx_out = self._sample_batch(vs, ss, lane_rng, lanes,
                                                 counters, scratch)
                else:
                    idx_out = beta_rounds(lanes, vs, ss)
            with profiler.phase("scatter"):
                lanes = scatter(walk, lanes, vs, idx_out, iteration, scratch)
            return lanes

        def beta_rounds(lanes, vs, ss) -> np.ndarray:
            """Algorithm 2 lines 18–22 for the whole lane set: draw,
            accept with probability β/β_max, re-draw the rejected."""
            pending = np.arange(lanes.size)
            idx_out = np.empty(lanes.size, dtype=np.int64)
            # Invariants of the rejection rounds, gathered once: edge
            # offsets, predecessors, and whether any lane still lacks
            # one (only on a lane's first hop).
            base = g.indptr[vs]
            lane_prev = prev[lanes]
            all_prev = bool((lane_prev >= 0).all())
            for _ in range(_MAX_BETA_ROUNDS):
                round_lanes = lanes[pending]
                drawn = self._sample_batch(vs[pending], ss[pending], lane_rng,
                                           round_lanes, counters, scratch)
                idx_out[pending] = drawn
                cand = g.nbr[base[pending] + drawn]
                pv = lane_prev[pending]
                if all_prev:
                    b = self._beta_values(beta, pv, cand)
                else:
                    has_prev = pv >= 0
                    b = np.full(pending.size, beta_max)
                    if has_prev.any():
                        b[has_prev] = self._beta_values(
                            beta, pv[has_prev], cand[has_prev])
                accept = lane_rng.uniform(round_lanes) * beta_max <= b
                counters.rejection_trials += pending.size
                counters.edges_evaluated += pending.size
                counters.rejected += int((~accept).sum())
                pending = pending[~accept]
                if not pending.size:
                    break
            # Rare lanes that exhausted the rejection budget fall back
            # to the exact β-adjusted scan, all lanes at once.
            if pending.size:
                idx_out[pending] = self._beta_fallback_batch(
                    vs[pending], ss[pending], lane_prev[pending],
                    beta, lane_rng, lanes[pending], counters,
                )
            return idx_out

        frontier = np.flatnonzero(active)
        with self._frontier_scope(profiler):
            iteration = 0
            while frontier.size:
                if keep_hops and iteration == out.hop_vertex.shape[1]:
                    # A walk reached the edge of the hop columns.
                    out.make_room(iteration + 1, max_length)
                    walk, hop = bind()
                frontier = (advance if hop is None else fused_advance)(
                    frontier, iteration)
                iteration += 1

        out.lengths = max_length - steps_left
        return out

    # -- lane-seeded execution ---------------------------------------------------

    def _walk_seeds(
        self,
        starts: np.ndarray,
        seeds: np.ndarray,
        max_length: int,
        stop_probability: float,
        counters: CostCounters,
        keep_hops: bool,
        registry: Optional[MetricsRegistry] = None,
        profiler=NULL_PROFILER,
    ) -> FrontierResult:
        """Walk ``starts``, walk ``i`` keyed on ``seeds[i]``, in
        :data:`FRONTIER_LANES`-lane slices — the one in-process executor
        of :meth:`run`, :meth:`run_lanes` and every parallel chunk.

        Each slice is its own :meth:`_run_frontier` over its own
        ``LaneRng(seeds[lo:hi])``, so the walks, counters and stream
        consumption are those of one frontier over every lane; only the
        lane columns, streams and scratch of one slice are live at once.
        """
        num = starts.size
        if num <= FRONTIER_LANES:
            # One slice: its result is the run's, so kept hop columns
            # are never held twice.
            return self._run_frontier(
                starts, max_length, stop_probability, LaneRng(seeds),
                counters, keep_hops, registry, profiler=profiler)
        out = FrontierResult.empty(starts, max_length, keep_hops)
        for lo in range(0, num, FRONTIER_LANES):
            hi = lo + FRONTIER_LANES
            out.place(lo, self._run_frontier(
                starts[lo:hi], max_length, stop_probability,
                LaneRng(seeds[lo:hi]), counters, keep_hops, registry,
                profiler=profiler), max_length)
        return out

    def _walk_chunks(
        self,
        starts: np.ndarray,
        seeds: np.ndarray,
        max_length: int,
        stop_probability: float,
        counters: CostCounters,
        keep_hops: bool,
        registry: Optional[MetricsRegistry],
        span=NULL_SPAN,
        profiler=NULL_PROFILER,
    ) -> FrontierResult:
        """Where a request's walks run once every walk has its seed:
        here inline, slice after slice (:meth:`_walk_seeds`). The
        parallel engine (:mod:`repro.parallel`) overrides only this, to
        run its chunks on a worker pool; ``span`` is the run's open
        ``walk`` span (a null span under :meth:`run_lanes`)."""
        span.set("chunks", -(-starts.size // FRONTIER_LANES))
        return self._walk_seeds(starts, seeds, max_length, stop_probability,
                                counters, keep_hops, registry,
                                profiler=profiler)

    def _walk_lanes(self, starts, seeds, max_length, stop_probability,
                    keep_hops, counters, registry) -> FrontierResult:
        return self._walk_chunks(starts, seeds, max_length, stop_probability,
                                 counters, keep_hops, registry)

    def _walk(self, starts, workload: Workload, rng, counters, registry,
              keep_hops, span) -> FrontierResult:
        # One seed per walk, drawn before any slice or chunk exists:
        # run(seed) walks what run_lanes walks on these seeds.
        return self._walk_chunks(
            starts, spawn_seeds(rng, starts.size), workload.max_length,
            workload.stop_probability, counters, keep_hops, registry,
            span=span, profiler=self.profiler,
        )

    def publish_telemetry(self, registry: MetricsRegistry) -> None:
        publish_backend(registry, self.kernel)

    def memory_report(self) -> MemoryReport:
        report = super().memory_report()
        if self.index is not None:
            for name, nbytes in self.index.memory_breakdown().items():
                report.add(f"index_{name}", nbytes)
        return report
