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
a request of any size walks in slices — one frontier per slice,
bit-identical to one frontier over every lane, on as many threads as the
process has CPUs — so a round's transient memory is
:data:`FRONTIER_LANES` lanes' worth, not the request's.

Distribution-equivalent to :class:`~repro.engines.tea.TeaEngine`
(property-tested); typically ~10× faster per step in CPython, which is
what lets benchmarks run the paper's full R·|V| workloads.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
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
from repro.rng import LaneRng
from repro.sampling.counters import CostCounters
from repro.telemetry import (
    MemoryReport,
    MetricsRegistry,
    NULL_PROFILER,
    NULL_SPAN,
    PhaseProfiler,
)
from repro.walks.spec import Node2VecParameter, WalkSpec

_MAX_BETA_ROUNDS = 16

#: Lanes live at once, across every thread of a request
#: (:meth:`BatchTeaEngine._walk_chunks`). A wider request walks in slices
#: of ``FRONTIER_LANES // threads`` lanes with at most ``threads`` of them
#: in flight, so its lane columns, ``LaneRng`` keys and counters and kernel
#: scratch (≈81 B a lane) are live for this many lanes, not for every walk
#: of the request. Process peak (VmHWM) after six ``corpus_exp`` rounds
#: (972 k lanes, 175.4 MiB prepared engine, 2 shared vCPUs, one slice in
#: flight) by width: 16 384 → 197.5 MiB, 32 768 → 197.7, 65 536 → 197.6,
#: 131 072 → 197.7, one frontier → 245.1. Two threads add ≈5.5 MiB with
#: two 32 768-lane slices in flight and ≈10 with two 65 536-lane ones:
#: each worker thread's malloc arena keeps its slices' pages. Walks,
#: counters and stream consumption never depend on it.
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


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the
    platform has one (a cpuset-limited container sees its share, not the
    host's), else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class BatchTeaEngine(Engine):
    """Frontier-vectorised TEA (HPAT sampling, exact semantics)."""

    has_candidate_index = True
    name = "tea-batch"
    #: Whether a request wider than :data:`FRONTIER_LANES` walks its
    #: slices on threads (:meth:`_walk_chunks`); an engine whose shared
    #: state depends on the order of the slices walks them one by one.
    slices_on_threads = True

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
        """Per-run resources of one frontier loop (seam 2 of 3), entered
        once around the loop. The in-memory index needs none; the
        out-of-core engine routes its trunk store's phases to
        ``profiler`` here.
        """
        yield

    def _fused_step(self, walk: WalkState, lane_rng: LaneRng,
                    stop_probability: float, node2vec, scratch: KernelScratch):
        """The backend's whole iteration, bound to one run (seam 3 of 3):
        ``step(lanes, iteration, counters) -> (lanes, spent)``, or
        ``None`` when the drivers orchestrate :meth:`_sample_batch` (seam
        1 of 3). ``node2vec`` is ``None`` or the β operands of
        ``KernelBackend.hop``. Over the in-memory index that is the
        backend's fused hop.
        """
        if self.kernel.hop is None:
            return None
        return self.kernel.hop(self.index, walk, lane_rng, stop_probability,
                               node2vec, scratch)

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
        (:mod:`repro.parallel`) all run exactly this, once per slice
        (:meth:`_walk_chunks`), in memory or against a trunk store —
        engines differ only in the three seams :meth:`_sample_batch`,
        :meth:`_frontier_scope` and :meth:`_fused_step`. Slices of one
        request may run it on several threads at once: it writes only
        its own arrays and the ``counters``/``registry``/``profiler`` it
        is handed, and reads the engine.
        Hops land in columnar ``(num, width)`` arrays — all lanes active
        at iteration ``k`` have taken ``k`` hops, so recording is one
        scatter per iteration instead of a Python append per lane. The
        columns double when a walk reaches their edge
        (:meth:`FrontierResult.make_room`), so they cost the hops taken,
        not ``max_length``.

        ``profiler`` is passed explicitly (never read from ``self`` here)
        because threaded slices and the thread backend share one engine
        instance across threads — each profiles into its own instance.
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
        # A lane-keyed run is one backend call per iteration wherever the
        # engine's fused step binds — chosen by what the run *is*, never
        # by size or option.
        fuse = beta is None or isinstance(beta, Node2VecParameter)

        def bind():
            """The walk state over ``out``'s current hop columns and the
            fused step bound to it (``None``: the drivers orchestrate)."""
            state = WalkState(g.indptr, g.nbr, g.etime, self.candidate_sizes,
                              cur, prev, s, steps_left, out.hop_vertex,
                              out.hop_time)
            if not fuse:
                return state, None
            return state, self._fused_step(
                state, lane_rng, stop_probability,
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
        # Counted here, on the thread that walked: finalize folds the sum.
        out.length_counts = np.bincount(out.lengths)
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
        :data:`FRONTIER_LANES`-lane slices one after another on this
        thread — the executor of every parallel chunk, of the
        out-of-core engine and of any request of one slice.

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

    def _walk_threads(
        self,
        starts: np.ndarray,
        seeds: np.ndarray,
        max_length: int,
        stop_probability: float,
        counters: CostCounters,
        keep_hops: bool,
        registry: Optional[MetricsRegistry],
        profiler,
        threads: int,
    ) -> FrontierResult:
        """:meth:`_walk_seeds` in ``FRONTIER_LANES // threads``-lane
        slices on a pool of ``threads`` threads that lives for this call.

        Only the calling thread writes ``out``: it places each slice as
        soon as that slice completes and only then submits the next, so
        at most ``threads`` slices — :data:`FRONTIER_LANES` lanes — are
        live at once. Each slice counts, observes and profiles into its
        own :class:`CostCounters`, :class:`MetricsRegistry` and recorder,
        folded here in slice order, so walks, counters and stream
        consumption are the same at any thread count.
        """
        width = FRONTIER_LANES // threads
        out = FrontierResult.empty(starts, max_length, keep_hops)
        folds = {}

        def walk(lo: int):
            part = (CostCounters(),
                    None if registry is None else MetricsRegistry(),
                    PhaseProfiler.bare() if profiler.enabled else NULL_PROFILER)
            return lo, part, self._run_frontier(
                starts[lo:lo + width], max_length, stop_probability,
                LaneRng(seeds[lo:lo + width]), part[0], keep_hops, part[1],
                profiler=part[2])

        def settle(pending):
            """Place the finished slices of ``pending``; the rest go on."""
            done, rest = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                lo, part, result = future.result()
                folds[lo] = part
                out.place(lo, result, max_length)
            return rest

        with ThreadPoolExecutor(threads, "walk-slice") as pool:
            pending = set()
            for lo in range(0, starts.size, width):
                if len(pending) == threads:
                    pending = settle(pending)
                pending.add(pool.submit(walk, lo))
            while pending:
                pending = settle(pending)
        for lo in sorted(folds):
            slice_counters, slice_registry, recorder = folds[lo]
            counters.merge(slice_counters)
            if registry is not None:
                registry.merge(slice_registry)
            if profiler.enabled:
                profiler.absorb(recorder.snapshot())
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
        """Where a request's walks run once every walk has its seed.

        A request of at most :data:`FRONTIER_LANES` lanes is one slice,
        walked inline (:meth:`_walk_seeds`). A wider one walks its
        slices on one thread per usable CPU (:meth:`_walk_threads`), or
        inline on a one-CPU process or an engine without
        :attr:`slices_on_threads`. The parallel engine
        (:mod:`repro.parallel`) overrides only this, to run its chunks on
        a worker pool, each chunk inline. ``span`` is the run's open
        ``walk`` span (a null span under :meth:`run_lanes`): ``chunks``
        counts the slices, ``threads`` the threads they ran on."""
        threads = 1
        if self.slices_on_threads and starts.size > FRONTIER_LANES:
            threads = min(usable_cpus(), FRONTIER_LANES)
        span.set("chunks", -(-starts.size // (FRONTIER_LANES // threads)))
        span.set("threads", threads)
        if threads == 1:
            return self._walk_seeds(starts, seeds, max_length,
                                    stop_probability, counters, keep_hops,
                                    registry, profiler=profiler)
        return self._walk_threads(starts, seeds, max_length, stop_probability,
                                  counters, keep_hops, registry, profiler,
                                  threads)

    def _walk_lanes(self, starts, seeds, max_length, stop_probability,
                    keep_hops, counters, registry) -> FrontierResult:
        return self._walk_chunks(starts, seeds, max_length, stop_probability,
                                 counters, keep_hops, registry)

    def _walk(self, starts, workload: Workload, rng, counters, registry,
              keep_hops, span) -> FrontierResult:
        # One seed per walk, drawn before any slice or chunk exists (the
        # backend's spawn_seeds): run(seed) walks what run_lanes walks on
        # these seeds.
        return self._walk_chunks(
            starts, self.kernel.seeds(rng, starts.size), workload.max_length,
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
