"""Engine interface and the shared temporal walk loop (Algorithm 2).

Every engine implements two primitives:

* :meth:`Engine.prepare` — preprocessing (structure construction);
* :meth:`Engine.sample_edge` — one draw from a candidate prefix.

The walk loop itself — candidate tracking, the Dynamic_parameter
rejection (Algorithm 2 lines 18–22), path recording, termination — is
shared, so engine comparisons isolate exactly the sampling strategy, as
the paper's experiments do. It exists once at each level:

* :meth:`Engine.run` is the only prepare → walk → finalize skeleton;
  engines plug their walk phase in through the :meth:`Engine._walk`
  hook, which returns a columnar :class:`FrontierResult`;
* :meth:`Engine._step` is the only scalar step; :meth:`Engine._walk_one`
  loops over it, and the default ``_walk`` / :meth:`Engine.run_lanes`
  loop over that.

Two loop behaviours differ by engine flag:

* ``has_candidate_index``: TEA precomputes |Γt(v)| per edge during
  preprocessing (Section 4.2), so candidate-set lookup during the walk is
  O(1); baselines binary-search the adjacency per step (Section 5.1:
  "both GraphWalker and KnightKing use binary search to search candidate
  edge sets on sampling, while TEA does not").
* ``time_divisor``: the modeled parallelism of the paper's 8-node
  KnightKing cluster (walks are embarrassingly parallel; reported wall
  time divides by node count — documented in EXPERIMENTS.md).
"""

from __future__ import annotations

import abc
import copy
from dataclasses import dataclass
from itertools import repeat
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.graph.temporal_graph import TemporalGraph
from repro.rng import RngLike, make_rng
from repro.sampling.counters import CostCounters
from repro.sampling.fullscan import full_scan_sample
from repro.telemetry import (
    LATENCY_BUCKETS,
    MemoryReport,
    MetricsRegistry,
    NULL_PROFILER,
    PhaseProfiler,
    Span,
    build_run_report,
)
from repro.telemetry.clock import now as _now
from repro.telemetry.events import current_run_id
from repro.walks.spec import WalkSpec
from repro.walks.walker import BLOCK_WALKS, Walker, WalkPath, walk_paths

# After this many Dynamic_parameter rejections within one step, switch
# from rejection to one exact β-adjusted scan (an adaptive strategy: the
# mixture of "accepted within budget" and "exact fallback" samples the
# target distribution exactly, while bounding worst-case work for
# pathological β skews).
BETA_REJECTION_BUDGET = 16


@dataclass(frozen=True)
class Workload:
    """Walk workload: the paper's R (walks per vertex) and L (max length).

    ``start_vertices`` restricts the walk sources (Table 4 uses every
    vertex; our scaled benches subsample via ``max_walks`` to keep
    pure-Python wall times sane — the per-walk cost model is unaffected).
    ``stop_probability`` adds a geometric per-step termination chance on
    top of the length cap — the lazy/restarting walk shape PageRank-style
    applications use.

    Walks are laid out start-major: the ``walks_per_vertex`` walks of
    the ``k``-th start are walks ``k·R .. k·R + R − 1``, so neighbouring
    lanes of a frontier read the same adjacency. A ``max_walks``
    subsample keeps that order.
    """

    walks_per_vertex: int = 1
    max_length: int = 80
    start_vertices: Optional[Sequence[int]] = None
    max_walks: Optional[int] = None
    stop_probability: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.stop_probability < 1.0):
            raise ValueError("stop_probability must be in [0, 1)")

    def resolve_starts(self, num_vertices: int, rng: np.random.Generator) -> np.ndarray:
        if self.start_vertices is not None:
            starts = np.asarray(self.start_vertices, dtype=np.int64)
        else:
            starts = np.arange(num_vertices, dtype=np.int64)
        starts = np.repeat(starts, self.walks_per_vertex)
        if self.max_walks is not None and starts.size > self.max_walks:
            starts = starts[np.sort(
                rng.choice(starts.size, size=self.max_walks, replace=False))]
        return starts

    def describe(self) -> str:
        cap = f", max_walks={self.max_walks}" if self.max_walks else ""
        return f"R={self.walks_per_vertex}, L={self.max_length}{cap}"


#: Hop columns a batch of walks starts with, however long it may get.
_HOP_COLUMNS = 32


@dataclass
class FrontierResult:
    """Columnar outcome of one batch of walks — what every engine's
    walk phase produces.

    Hops are recorded per *column* (step index) into dense ``(num_walks,
    width)`` arrays — every lane active at iteration ``k`` has taken
    exactly ``k`` hops, so the frontier loop scatters once per iteration
    instead of appending per lane. Walk ``i``'s valid hops are
    ``hop_vertex[i, :lengths[i]]`` / ``hop_time[i, :lengths[i]]``; the
    width is at least the longest walk and at most ``max_length``.
    ``hop_vertex``/``hop_time`` are ``None`` when hop recording was off.
    ``length_counts[k]`` is how many walks took ``k`` hops, counted by
    the frontier run that walked them and summed by :meth:`place`
    (``None``: not counted; :meth:`observe_lengths` counts then).
    """

    starts: np.ndarray
    lengths: np.ndarray
    hop_vertex: Optional[np.ndarray] = None
    hop_time: Optional[np.ndarray] = None
    length_counts: Optional[np.ndarray] = None

    @classmethod
    def empty(cls, starts: np.ndarray, max_length: int,
              keep_hops: bool) -> "FrontierResult":
        """Zero-length walks from ``starts``; hop columns (only if kept)
        start ``min(max_length, 32)`` wide and grow by :meth:`make_room`."""
        num = starts.size
        hop_vertex = hop_time = None
        if keep_hops:
            width = min(max_length, _HOP_COLUMNS)
            hop_vertex = np.zeros((num, width), dtype=np.int64)
            hop_time = np.zeros((num, width), dtype=np.float64)
        return cls(starts, np.zeros(num, dtype=np.int64), hop_vertex, hop_time)

    def make_room(self, hops: int, max_length: int) -> None:
        """Widen the hop columns to hold ``hops <= max_length`` hops: they
        double until they do, never past ``max_length``."""
        width = have = self.hop_vertex.shape[1]
        while width < hops:
            width = min(2 * max(width, 1), max_length)
        if width > have:
            wider = ((0, 0), (0, width - have))
            self.hop_vertex = np.pad(self.hop_vertex, wider)
            self.hop_time = np.pad(self.hop_time, wider)

    def place(self, lo: int, part, max_length: int) -> None:
        """Copy ``part``'s walks — its ``lengths`` and, when both sides
        keep them, its hop columns — into rows ``lo:lo + len(part)``,
        widening the columns by :meth:`make_room` first, and add its
        ``length_counts`` to this result's. ``part`` is a slice's
        :class:`FrontierResult` or a parallel chunk's result."""
        hi = lo + part.lengths.size
        self.lengths[lo:hi] = part.lengths
        # The longer of the two count arrays takes the other's counts.
        mine, theirs = self.length_counts, part.length_counts
        if mine is None or mine.size < theirs.size:
            mine, theirs = theirs.copy(), mine
        if theirs is not None:
            mine[:theirs.size] += theirs
        self.length_counts = mine
        if self.hop_vertex is not None and part.hop_vertex is not None:
            width = part.hop_vertex.shape[1]
            self.make_room(width, max_length)
            self.hop_vertex[lo:hi, :width] = part.hop_vertex
            self.hop_time[lo:hi, :width] = part.hop_time

    def record(self, i: int, hops: List[Tuple[int, Optional[float]]],
               max_length: int) -> None:
        """Store walk ``i`` of at most ``max_length`` hops from a walker's
        hop list (start hop first)."""
        n = len(hops) - 1
        self.lengths[i] = n
        if n and self.hop_vertex is not None:
            self.make_room(n, max_length)
            self.hop_vertex[i, :n], self.hop_time[i, :n] = zip(*hops[1:])

    @property
    def total_steps(self) -> int:
        return int(self.lengths.sum())

    def blocks(self) -> Iterator[Tuple[np.ndarray, ...]]:
        """``(starts, lengths, vertices, times)`` per block of
        ``BLOCK_WALKS`` walks: the taken hops flattened walk by walk (CSR
        order), never a padded or whole-batch copy. Needs the hops."""
        steps = np.arange(self.hop_vertex.shape[1])
        for lo in range(0, self.starts.size, BLOCK_WALKS):
            block = slice(lo, lo + BLOCK_WALKS)
            lengths = self.lengths[block]
            taken = steps < lengths[:, None]
            yield (self.starts[block], lengths,
                   self.hop_vertex[block][taken], self.hop_time[block][taken])

    def materialise_paths(self) -> List[WalkPath]:
        """Build :class:`WalkPath` objects from the columnar arrays (none
        when hop recording was off). Runs once per batch after the walk
        phase, never inside it."""
        paths: List[WalkPath] = []
        if self.hop_vertex is not None:
            for block in self.blocks():
                paths += walk_paths(*block)
        return paths

    def observe_lengths(self, histogram) -> None:
        """Fold walk lengths into ``histogram`` one distinct value at a
        time: ``length_counts`` where the walks were counted, else the
        lengths counted by value here (never sorted)."""
        counts = self.length_counts
        if counts is None:
            counts = np.bincount(self.lengths)
        for value, n in enumerate(counts.tolist()):
            if n:
                histogram.observe_n(value, n)


class RunTimer(NamedTuple):
    """Root-frame seconds by name: the ``EngineResult.timer`` view."""

    seconds: Dict[str, float]


@dataclass
class EngineResult:
    """Everything one engine run produced. ``spans`` are this run's root
    spans ``prepare``, ``walk`` and ``finalize`` (with their children),
    whichever recorder recorded them. ``num_walks`` counts the run's
    starts, so it holds when ``paths`` was not recorded."""

    engine: str
    spec: str
    workload: str
    paths: List[WalkPath]
    num_walks: int
    counters: CostCounters
    spans: List[Span]
    memory: MemoryReport
    time_divisor: float = 1.0
    registry: Optional[MetricsRegistry] = None
    run_id: Optional[str] = None

    @property
    def timer(self) -> RunTimer:
        return RunTimer({span.name: span.duration for span in self.spans})

    @property
    def total_steps(self) -> int:
        return self.counters.steps

    @property
    def prepare_seconds(self) -> float:
        return self.timer.seconds.get("prepare", 0.0)

    @property
    def walk_seconds(self) -> float:
        return self.timer.seconds.get("walk", 0.0) / self.time_divisor

    @property
    def total_seconds(self) -> float:
        """Preprocessing + walking (the paper includes preprocessing in
        TEA's reported totals — Section 5.2)."""
        return self.prepare_seconds + self.walk_seconds

    def summary(self) -> dict:
        return {
            "engine": self.engine,
            "spec": self.spec,
            "workload": self.workload,
            "walks": self.num_walks,
            "steps": self.total_steps,
            "prepare_s": round(self.prepare_seconds, 4),
            "walk_s": round(self.walk_seconds, 4),
            "total_s": round(self.total_seconds, 4),
            "edges_per_step": round(self.counters.edges_per_step, 2),
            "io_blocks": self.counters.io_blocks,
            "memory_bytes": self.memory.total,
        }

    def run_report(self, meta: Optional[dict] = None) -> dict:
        """The schema-versioned JSON run-report document for this run."""
        base = {
            "engine": self.engine,
            "spec": self.spec,
            "workload": self.workload,
            "time_divisor": self.time_divisor,
        }
        if self.run_id is not None:
            base["run_id"] = self.run_id
        if meta:
            base.update(meta)
        registry = self.registry if self.registry is not None else MetricsRegistry()
        return build_run_report(registry, self.spans, meta=base)


class Engine(abc.ABC):
    """Shared walk loop; subclasses supply preprocessing and sampling."""

    name: str = "engine"
    has_candidate_index = False
    time_divisor: float = 1.0

    #: The attached phase profiler, the switch for the hot-loop phases:
    #: NULL by default (no per-phase cost); the CLI's --profile attaches
    #: a real PhaseProfiler before run(). Hot loops receive it explicitly
    #: (never via self mid-run — the thread backend shares one engine
    #: across workers).
    profiler = NULL_PROFILER
    #: The recorder of the run in progress (NULL outside :meth:`run`), so
    #: _prepare implementations can emit child spans via self.recorder.
    recorder = NULL_PROFILER

    def __init__(self, graph: TemporalGraph, spec: WalkSpec):
        # Edges_interval: the application may restrict the walk to a
        # temporal subgraph before any preprocessing (Algorithm 2, Main).
        self.graph = spec.restrict(graph)
        self.spec = spec
        self._prepared = False
        self.candidate_sizes: Optional[np.ndarray] = None

    # -- subclass interface -------------------------------------------------

    @abc.abstractmethod
    def _prepare(self) -> None:
        """Build sampling structures. Called once, timed as 'prepare'."""

    @abc.abstractmethod
    def sample_edge(
        self, v: int, candidate_size: int, walker_time: Optional[float],
        rng: np.random.Generator, counters: CostCounters,
    ) -> int:
        """Draw an edge index in ``[0, candidate_size)`` of vertex v.

        ``walker_time`` is the arrival time at v — engines whose weights
        are dynamic (full-scan, CTDNE) need it; static-weight engines
        ignore it.
        """

    def memory_report(self) -> MemoryReport:
        """Bytes of every structure this engine holds (Figure 9/12b): the
        graph's CSR and caches, the candidate sizes, a subclass's index."""
        report = MemoryReport()
        for name, nbytes in self.graph.memory_breakdown().items():
            report.add(name, nbytes)
        if self.candidate_sizes is not None:
            report.add("candidate_index", self.candidate_sizes.nbytes)
        return report

    def publish_telemetry(self, registry: MetricsRegistry) -> None:
        """Engine-specific end-of-run metrics (cache stats, shard info).

        Called once by :meth:`run` after the walk phase; subclasses
        override to add their structures' telemetry on top of the
        standard sampling/io/walk metrics the shared loop emits.
        """

    # -- shared machinery ------------------------------------------------------

    def prepare(self) -> None:
        if not self._prepared:
            self._prepare()
            if not self.has_candidate_index:
                # Each step's candidate_count probes these caches: built
                # here, their one-time cost is preprocessing.
                with self.recorder.span("prepare.candidate_search", edges=self.graph.num_edges):
                    self.graph._offset_keys(keep_times=True)
            self._prepared = True

    def with_spec(self, spec: WalkSpec) -> "Engine":
        """A prepared sibling bound to ``spec``, which may differ only in β:
        :meth:`prepare` reads the window and static weights alone (β is
        applied at walk time, Algorithm 2 lines 18–22), so the sibling shares
        the restricted graph, index, candidate sizes and kernel. It starts
        with no profiler attached."""
        if (spec.time_window, spec.weight_model) != (
                self.spec.time_window, self.spec.weight_model):
            raise ValueError("with_spec: time window and weight model must match")
        self.prepare()
        sibling = copy.copy(self)
        sibling.spec = spec
        sibling.profiler = NULL_PROFILER
        return sibling

    def _initial_candidates(self, v: int) -> int:
        return self.graph.out_degree(v)

    def _next_candidates(
        self, edge_pos: int, v: int, t: float, counters: CostCounters
    ) -> int:
        if self.has_candidate_index and self.candidate_sizes is not None:
            return int(self.candidate_sizes[edge_pos])
        # Binary search over v's time-sorted adjacency, probe-accounted.
        d = self.graph.out_degree(v)
        if d:
            counters.record_probe(max(1, d.bit_length()))
        return self.graph.candidate_count(v, t)

    def _beta_exact_draw(
        self, v: int, s: int, prev: Optional[int], beta,
        rng: np.random.Generator, counters: CostCounters,
    ) -> int:
        """One exact draw ∝ weight·β over the candidate prefix (O(s))."""
        g = self.graph
        lo = int(g.indptr[v])
        w = self.spec.weight_model.prefix(g, v, s)
        betas = np.fromiter(
            (beta(g, prev, int(g.nbr[lo + j])) for j in range(s)),
            dtype=np.float64, count=s,
        )
        return full_scan_sample(w * betas, s, rng, counters)

    def _step(
        self, v: int, s: int, t: Optional[float], prev: Optional[int],
        rng: np.random.Generator, counters: CostCounters,
    ) -> Tuple[int, int, float, int]:
        """One Algorithm 2 step (lines 18–22) from vertex ``v``.

        Samples from the candidate prefix ``[0, s)`` and accepts against
        the Dynamic_parameter (applications without one always accept);
        after :data:`BETA_REJECTION_BUDGET` refusals, one exact
        β-adjusted scan. Returns ``(edge position, next vertex, arrival
        time, β trials)``.
        """
        g = self.graph
        beta = self.spec.dynamic_parameter
        base = int(g.indptr[v])
        trials = 0
        if beta is None:
            pos = base + self.sample_edge(v, s, t, rng, counters)
        else:
            for trials in range(1, BETA_REJECTION_BUDGET + 1):
                pos = base + self.sample_edge(v, s, t, rng, counters)
                ok = rng.random() * beta.beta_max <= beta(g, prev, int(g.nbr[pos]))
                counters.record_trial(ok)
                if ok:
                    break
            else:
                pos = base + self._beta_exact_draw(v, s, prev, beta, rng, counters)
        return pos, int(g.nbr[pos]), float(g.etime[pos]), trials

    def _walk_one(
        self,
        start: int,
        max_length: int,
        rng: np.random.Generator,
        counters: CostCounters,
        stop_probability: float = 0.0,
        observer=None,
    ) -> Walker:
        """Walk from ``start`` to termination.

        ``observer(step_seconds, beta_trials)``, when given, is called
        after every step; it must not draw from ``rng``.
        """
        walker = Walker(start)
        v = start
        s = self._initial_candidates(v)
        while walker.num_edges < max_length and s > 0:
            if stop_probability and rng.random() < stop_probability:
                break
            step_t0 = _now() if observer is not None else 0.0
            counters.record_step()
            pos, v, t, trials = self._step(
                v, s, walker.current_time, walker.previous_vertex, rng, counters
            )
            walker.advance(v, t)
            s = self._next_candidates(pos, v, t, counters)
            if observer is not None:
                observer(_now() - step_t0, trials)
        return walker

    def _walk_scalar(
        self, starts: np.ndarray, rngs, max_length: int,
        stop_probability: float, counters: CostCounters, keep_hops: bool,
        registry: Optional[MetricsRegistry] = None,
    ) -> FrontierResult:
        """One :meth:`_walk_one` per start; walk ``i`` draws from the
        ``i``-th generator of ``rngs``.

        With a ``registry`` the run recorder's sampled walks open a
        ``walk.one`` span and feed the per-step histograms.
        """
        recorder = self.recorder
        observer = None
        if registry is not None and recorder.sample_walk(0):
            step_hist = registry.histogram(
                "walk.step_seconds", "per-step latency (traced walks)",
                **LATENCY_BUCKETS,
            )
            trials_hist = registry.histogram(
                "sampling.trials_per_step",
                "β rejection trials per step (traced walks)",
            )

            def observer(seconds: float, trials: int) -> None:
                step_hist.observe(seconds)
                trials_hist.observe(trials)

        out = FrontierResult.empty(starts, max_length, keep_hops)
        for i, (u, rng) in enumerate(zip(starts.tolist(), rngs)):
            if observer is not None and recorder.sample_walk(i):
                with recorder.span("walk.one", walk=i, start_vertex=u) as span:
                    walker = self._walk_one(
                        u, max_length, rng, counters, stop_probability, observer
                    )
                    span.set("length", walker.num_edges)
                    span.set("end_vertex", walker.current_vertex)
            else:
                walker = self._walk_one(
                    u, max_length, rng, counters, stop_probability
                )
            out.record(i, walker.hops, max_length)
        return out

    def _walk(
        self, starts: np.ndarray, workload: Workload,
        rng: np.random.Generator, counters: CostCounters,
        registry: MetricsRegistry, keep_hops: bool, span,
    ) -> FrontierResult:
        """The walk phase of :meth:`run`: advance every start to
        termination, charging ``counters``. ``span`` is the open
        ``walk`` span. The default is the scalar loop over one shared
        generator; frontier engines override it.
        """
        return self._walk_scalar(
            starts, repeat(rng), workload.max_length,
            workload.stop_probability, counters, keep_hops, registry,
        )

    def run_lanes(
        self,
        starts: np.ndarray,
        seeds: np.ndarray,
        max_length: int,
        stop_probability: float = 0.0,
        keep_hops: bool = True,
        counters: Optional[CostCounters] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> FrontierResult:
        """Walk ``starts`` with explicit per-walk lane seeds.

        Walk ``i``'s sampled path is a pure function of ``(starts[i],
        seeds[i])`` — independent of which other walks share the call,
        their order, or how the caller partitions a workload into
        ``run_lanes`` calls. This is the coalescing contract the serving
        batcher (:mod:`repro.serve`) is built on: batched requests are
        bit-identical to solo runs. Engines implement it in
        :meth:`_walk_lanes`.
        """
        self.prepare()
        starts = np.ascontiguousarray(starts, dtype=np.int64)
        seeds = np.ascontiguousarray(seeds)
        if starts.size != seeds.size:
            raise ValueError("starts and seeds must be equal length")
        return self._walk_lanes(
            starts, seeds, int(max_length), float(stop_probability),
            bool(keep_hops),
            counters if counters is not None else CostCounters(), registry,
        )

    def _walk_lanes(
        self, starts: np.ndarray, seeds: np.ndarray, max_length: int,
        stop_probability: float, keep_hops: bool, counters: CostCounters,
        registry: Optional[MetricsRegistry],
    ) -> FrontierResult:
        """:meth:`run_lanes` behind its argument checks — the lane-seeded
        twin of :meth:`_walk`. The scalar default gives every lane its
        own generator seeded from its lane seed."""
        return self._walk_scalar(
            starts, (np.random.default_rng(seed) for seed in seeds.tolist()),
            max_length, stop_probability, counters, keep_hops,
        )

    def run(
        self,
        workload: Workload,
        seed: RngLike = 0,
        record_paths: bool = True,
        sink=None,
        registry: Optional[MetricsRegistry] = None,
    ) -> EngineResult:
        """Run the workload; returns paths plus cost/time/memory accounts.

        The one prepare → walk → finalize skeleton (Algorithm 2's Main)
        of every engine; subclasses plug in through :meth:`_prepare`,
        :meth:`_walk` and :meth:`publish_telemetry`. A frontier engine
        keys walk ``i`` on the ``i``-th seed of one
        :func:`~repro.rng.spawn_seeds` draw, so ``run(seed)`` walks what
        :meth:`run_lanes` and the parallel engine walk on those seeds.

        ``sink`` is an optional open :class:`repro.walks.sink.WalkSink`;
        the walk phase's columns are written to it in finalize (blocks
        of 1,024 walks, the paper's §4.1 policy) — pass
        ``record_paths=False`` alongside to build no ``WalkPath`` objects.

        ``registry`` collects this run's metrics (one is created when
        not supplied — every run returns a populated registry on the
        result). The run's root spans ``prepare``, ``walk`` and
        ``finalize`` are frames of one recorder: the attached
        :attr:`profiler` (set its ``walk_sample_every=N`` to also trace
        1-in-N walks of a scalar engine with per-step latency
        histograms), else a fresh :meth:`PhaseProfiler.bare` that keeps
        only the roots and spans.
        """
        registry = registry if registry is not None else MetricsRegistry()
        recorder = self.recorder = (
            self.profiler if self.profiler.enabled else PhaseProfiler.bare())
        try:
            with recorder.span("prepare", engine=self.name) as prepare:
                self.prepare()
            # The run's own bookkeeping sits inside the phases, so they
            # cover its wall time however short the prepare phase is.
            with recorder.span("walk", engine=self.name) as walk:
                rng = make_rng(seed)
                counters = CostCounters()
                starts = workload.resolve_starts(self.graph.num_vertices, rng)
                walk.set("walks", int(starts.size))
                outcome = self._walk(
                    starts, workload, rng, counters, registry,
                    record_paths or sink is not None, walk,
                )
            with recorder.span("finalize", engine=self.name) as finalize:
                outcome.observe_lengths(
                    registry.histogram("walk.length", "edges per completed walk")
                )
                paths = outcome.materialise_paths() if record_paths else []
                if sink is not None:
                    sink.write(outcome)
                memory = self.memory_report()
                counters.publish(registry)
                registry.counter("walk.walks", "walks executed").inc(int(starts.size))
                registry.gauge("memory.bytes", "engine structure bytes").set(memory.total)
                self.publish_telemetry(registry)
        finally:
            self.recorder = NULL_PROFILER
        return EngineResult(
            engine=self.name,
            spec=self.spec.describe(),
            workload=workload.describe(),
            paths=paths,
            num_walks=int(starts.size),
            counters=counters,
            spans=[prepare, walk, finalize],
            memory=memory,
            time_divisor=self.time_divisor,
            registry=registry,
            run_id=current_run_id(),
        )
