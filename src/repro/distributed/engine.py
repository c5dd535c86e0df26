"""BSP distributed walk engine: KnightKing's execution model, TEA's sampler.

Execution proceeds in supersteps. Each worker holds a queue of resident
walkers; in a superstep it advances every resident walker by one edge
(sampling from its *local* HPAT shard — every vertex's index lives
wholly on its owner, because PAT/HPAT are per-vertex structures), then
walkers whose new vertex belongs elsewhere are shipped as messages and
join the destination worker's queue for the next superstep. This is
exactly KnightKing's walker-centric BSP loop with the rejection sampler
swapped for TEA's hybrid sampling — the integration the paper's
Section 4.4 proposes as future work.

The cluster is simulated in-process with explicit cost accounting:

* compute: per-worker sampling steps per superstep — a superstep's
  modeled duration is its *busiest* worker (BSP barrier);
* communication: one message per cross-partition hop, charged a
  configurable per-message latency;
* modeled makespan = Σ over supersteps of (max worker steps ×
  step_cost + outgoing messages × message_cost / workers).

Sampling statistics are identical to the single-node engine (tested):
distribution depends only on the per-vertex index, which sharding does
not change. Each superstep advances a walker with the single-node
engine's own step (:meth:`repro.engines.base.Engine._step`), and the run
as a whole goes through :meth:`repro.engines.base.Engine.run` — the
superstep loop is that skeleton's walk phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.distributed.partition import PARTITIONERS, edge_cut, partition_load
from repro.engines.base import FrontierResult, Workload
from repro.engines.tea import TeaEngine
from repro.graph.temporal_graph import TemporalGraph
from repro.rng import RngLike, make_rng, spawn
from repro.sampling.counters import CostCounters
from repro.telemetry import MemoryReport, MetricsRegistry, Tracer
from repro.walks.spec import WalkSpec

DEFAULT_STEP_COST = 1.0  # model units per sampling step
DEFAULT_MESSAGE_COST = 0.2  # model units per walker migration


@dataclass
class DistributedStats:
    """Accounting for one distributed run."""

    num_workers: int
    supersteps: int = 0
    steps_per_worker: np.ndarray = field(default_factory=lambda: np.zeros(0))
    messages: int = 0
    modeled_makespan: float = 0.0
    edge_cut: int = 0
    load: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def total_steps(self) -> int:
        return int(self.steps_per_worker.sum())

    @property
    def compute_balance(self) -> float:
        """max/mean worker steps — 1.0 is perfect balance."""
        mean = self.steps_per_worker.mean() if self.steps_per_worker.size else 0.0
        if mean == 0:
            return 1.0
        return float(self.steps_per_worker.max() / mean)

    @property
    def migration_rate(self) -> float:
        """Fraction of steps that crossed a partition boundary."""
        return self.messages / self.total_steps if self.total_steps else 0.0

    def snapshot(self) -> dict:
        return {
            "workers": self.num_workers,
            "supersteps": self.supersteps,
            "total_steps": self.total_steps,
            "messages": self.messages,
            "migration_rate": round(self.migration_rate, 4),
            "compute_balance": round(self.compute_balance, 3),
            "modeled_makespan": round(self.modeled_makespan, 2),
            "edge_cut": self.edge_cut,
        }


class _Worker:
    """One simulated worker: a vertex shard plus its walker queue.

    Each worker owns a private :class:`CostCounters` — the per-worker
    discipline that makes the shared-counter thread hazard structurally
    impossible (see the note in :mod:`repro.sampling.counters`); the
    engine folds them at the barrier via their merge path.
    """

    __slots__ = ("worker_id", "counters", "queue")

    def __init__(self, worker_id: int):
        self.worker_id = worker_id
        self.counters = CostCounters()
        self.queue: List[int] = []  # walker ids resident this superstep


@dataclass
class _WalkerState:
    hops: List[Tuple[int, Optional[float]]]
    remaining: int

    @property
    def vertex(self) -> int:
        return self.hops[-1][0]

    @property
    def time(self) -> Optional[float]:
        return self.hops[-1][1]

    @property
    def prev_vertex(self) -> Optional[int]:
        return self.hops[-2][0] if len(self.hops) > 1 else None


class _BspDriver(TeaEngine):
    """:meth:`Engine.run`'s skeleton around a cluster's superstep loop.

    A default :class:`TeaEngine` (one global HPAT build — see
    :meth:`DistributedTeaEngine.prepare`) whose walk phase is the
    cluster's BSP loop and whose scalar step every worker shares.
    """

    name = "tea-distributed"

    def __init__(self, graph: TemporalGraph, spec: WalkSpec,
                 cluster: "DistributedTeaEngine"):
        super().__init__(graph, spec)
        self._cluster = cluster

    def _prepare(self) -> None:
        super()._prepare()
        cluster = self._cluster
        cluster.owners = cluster._partition_fn(self.graph, cluster.num_workers)

    def _walk(self, starts, workload: Workload, rng, counters, registry,
              keep_hops, span) -> FrontierResult:
        span.set("workers", self._cluster.num_workers)
        return self._cluster._supersteps(
            starts, workload.max_length, counters, keep_hops
        )

    def publish_telemetry(self, registry: MetricsRegistry) -> None:
        stats = self._cluster.stats
        registry.counter(
            "distributed.worker_steps", "sampling steps across workers"
        ).inc(stats.total_steps)
        for key, value in stats.snapshot().items():
            registry.gauge(f"distributed.{key}", "cluster-level run stat").set(value)


class DistributedTeaEngine:
    """Simulated multi-worker TEA (HPAT sampling inside KnightKing's BSP).

    Parameters
    ----------
    num_workers:
        Simulated cluster size.
    partitioner:
        ``"hash"``, ``"range"``, ``"degree"``, or a callable
        ``(graph, num_workers) -> owners`` array.
    step_cost / message_cost:
        Model-unit charges for a sampling step and a walker migration;
        the modeled makespan uses them (see module docstring).
    """

    def __init__(
        self,
        graph: TemporalGraph,
        spec: WalkSpec,
        num_workers: int = 4,
        partitioner="hash",
        step_cost: float = DEFAULT_STEP_COST,
        message_cost: float = DEFAULT_MESSAGE_COST,
    ):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = int(num_workers)
        if callable(partitioner):
            self._partition_fn = partitioner
            self.partitioner_name = getattr(partitioner, "__name__", "custom")
        else:
            try:
                self._partition_fn = PARTITIONERS[partitioner]
            except KeyError:
                raise ValueError(
                    f"unknown partitioner {partitioner!r}; "
                    f"choose from {sorted(PARTITIONERS)} or pass a callable"
                ) from None
            self.partitioner_name = partitioner
        self.step_cost = float(step_cost)
        self.message_cost = float(message_cost)
        self.owners: Optional[np.ndarray] = None
        self.stats: Optional[DistributedStats] = None
        self._driver = _BspDriver(graph, spec, self)
        self.graph = self._driver.graph
        self.spec = spec
        self._worker_rngs: list = []

    @property
    def index(self):
        return self._driver.index

    @property
    def candidate_sizes(self) -> Optional[np.ndarray]:
        return self._driver.candidate_sizes

    # -- preprocessing -------------------------------------------------------

    def prepare(self) -> None:
        """Partition vertices and build the (sharded) HPAT.

        The HPAT is a per-vertex structure, so one global build is
        byte-identical to concatenating per-worker shard builds; workers
        simply index into their own vertices' slices. (Tested against
        per-shard construction in the test suite.)
        """
        self._driver.prepare()

    # -- execution -------------------------------------------------------------

    def run(self, workload: Workload, seed: RngLike = 0,
            record_paths: bool = True,
            registry: Optional[MetricsRegistry] = None,
            tracer: Optional[Tracer] = None):
        """Run the workload in BSP supersteps; returns ``(paths, stats,
        counters, timer)``.

        ``registry``, when given, receives the run's metrics plus the
        cluster-level ``distributed.*`` gauges.
        """
        rng = make_rng(seed)
        # Worker streams are spawned before the starts are resolved from
        # the same generator (which the driver's run continues).
        self._worker_rngs = spawn(rng, self.num_workers)
        result = self._driver.run(
            workload, seed=rng, record_paths=record_paths,
            registry=registry, tracer=tracer,
        )
        self.last_registry = result.registry
        return result.paths, self.stats, result.counters, result.timer

    def _supersteps(self, starts: np.ndarray, max_length: int,
                    counters: CostCounters, keep_hops: bool) -> FrontierResult:
        """The BSP loop: every resident walker one edge per superstep."""
        g = self.graph
        workers = [_Worker(w) for w in range(self.num_workers)]
        walkers = [
            _WalkerState(hops=[(u, None)], remaining=max_length)
            for u in starts.tolist()
        ]
        for wid, state in enumerate(walkers):
            workers[self.owners[state.vertex]].queue.append(wid)

        self.stats = stats = DistributedStats(
            num_workers=self.num_workers,
            steps_per_worker=np.zeros(self.num_workers, dtype=np.int64),
            edge_cut=edge_cut(g, self.owners),
            load=partition_load(g, self.owners, self.num_workers),
        )
        while any(worker.queue for worker in workers):
            stats.supersteps += 1
            superstep_steps = np.zeros(self.num_workers, dtype=np.int64)
            outgoing: Dict[int, List[int]] = {w: [] for w in range(self.num_workers)}
            messages_this_step = 0
            for worker in workers:
                wrng = self._worker_rngs[worker.worker_id]
                queue, worker.queue = worker.queue, []
                for wid in queue:
                    state = walkers[wid]
                    if not self._advance(state, wrng, worker.counters):
                        continue  # walk finished
                    superstep_steps[worker.worker_id] += 1
                    dest = int(self.owners[state.vertex])
                    if dest != worker.worker_id:
                        messages_this_step += 1
                        worker.counters.record_io(64)  # walker state ships
                    outgoing[dest].append(wid)
            for w, arrivals in outgoing.items():
                workers[w].queue.extend(arrivals)
            stats.steps_per_worker += superstep_steps
            stats.messages += messages_this_step
            stats.modeled_makespan += (
                float(superstep_steps.max()) * self.step_cost
                + messages_this_step * self.message_cost / self.num_workers
            )

        # Fold the per-worker accounts at the barrier.
        for worker in workers:
            counters.merge(worker.counters)
        out = FrontierResult.empty(starts, max_length, keep_hops)
        for wid, state in enumerate(walkers):
            out.record(wid, state.hops)
        return out

    def _advance(self, state: _WalkerState, rng,
                 counters: CostCounters) -> bool:
        """One walk step on the owning worker; False when the walk ends."""
        if state.remaining <= 0:
            return False
        g = self.graph
        v = state.vertex
        t = state.time
        s = g.out_degree(v) if t is None else g.candidate_count(v, t)
        if s <= 0:
            return False
        counters.record_step()
        _, v2, t2, _ = self._driver._step(
            v, s, t, state.prev_vertex, rng, counters
        )
        state.hops.append((v2, t2))
        state.remaining -= 1
        return True

    # -- reporting -------------------------------------------------------------

    def memory_report_per_worker(self) -> List[MemoryReport]:
        """Shard sizes: each worker holds its vertices' slice of the index."""
        self.prepare()
        g = self.graph
        reports = []
        degrees = g.degrees()
        total_index = self.index.nbytes()
        for w in range(self.num_workers):
            mine = self.owners == w
            share = degrees[mine].sum() / max(1, g.num_edges)
            report = MemoryReport()
            report.add("index_shard", int(total_index * share))
            report.add("graph_shard", int(g.nbytes() * share))
            reports.append(report)
        return reports
