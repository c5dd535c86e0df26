"""Simulated distributed TEA — the paper's §4.4 future work.

Section 4.4: "TEA can not support distributed random walk and sampling.
One possible solution could be replacing the rejection sampling of
KnightKing by our PAT or HPAT in order to support distributed
execution." This module simulates exactly that solution for
``test_distributed_scaling.py``: vertices are partitioned across
workers, each worker owns the HPAT shards of its vertices (construction
is per-vertex, so sharding is clean), and walkers migrate between
workers in BSP supersteps like KnightKing's walker-centric engine — with
the per-step sampler swapped for TEA's hybrid.

Everything runs in one process with explicit accounting:

* compute: per-worker sampling steps per superstep — a superstep's
  modeled duration is its *busiest* worker (BSP barrier);
* communication: one message per cross-partition hop;
* modeled makespan = Σ over supersteps of (max worker steps ×
  :data:`STEP_COST` + messages × :data:`MESSAGE_COST` / workers).

Sampling statistics are identical to the single-node engine (tested in
``tests/test_distributed.py``): the distribution depends only on the
per-vertex index, which sharding does not change. Each superstep
advances a walker with the single-node engine's own step
(:meth:`repro.engines.base.Engine._step`), and the run as a whole goes
through :meth:`repro.engines.base.Engine.run` — the superstep loop is
that skeleton's walk phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.engines.base import FrontierResult, Workload
from repro.engines.tea import TeaEngine
from repro.graph.temporal_graph import TemporalGraph
from repro.rng import RngLike, make_rng, spawn
from repro.sampling.counters import CostCounters
from repro.walks.spec import WalkSpec

STEP_COST = 1.0  # model units per sampling step
MESSAGE_COST = 0.2  # model units per walker migration


# -- partitioners --------------------------------------------------------------
#
# A partition assigns every vertex to one worker, which then owns that
# vertex's adjacency and HPAT shard. Quality shows up as load balance
# (per-worker edge counts bound per-superstep compute) and communication
# (a walker migrates whenever an edge crosses partitions).

def _validate(num_workers: int) -> None:
    if num_workers < 1:
        raise ValueError("num_workers must be >= 1")


def hash_partition(graph: TemporalGraph, num_workers: int) -> np.ndarray:
    """Owner = vertex id modulo workers (KnightKing's default)."""
    _validate(num_workers)
    return np.arange(graph.num_vertices, dtype=np.int64) % num_workers


def range_partition(graph: TemporalGraph, num_workers: int) -> np.ndarray:
    """Contiguous id ranges with roughly equal *edge* counts per worker."""
    _validate(num_workers)
    n, m = graph.num_vertices, graph.num_edges
    owners = np.zeros(n, dtype=np.int64)
    target = max(1, m // num_workers)
    worker = 0
    edges_here = 0
    for v in range(n):
        owners[v] = worker
        edges_here += graph.out_degree(v)
        if edges_here >= target and worker < num_workers - 1:
            worker += 1
            edges_here = 0
    return owners


def degree_balanced_partition(graph: TemporalGraph, num_workers: int) -> np.ndarray:
    """Greedy longest-processing-time bin packing on vertex degrees:
    best load balance of the three, no locality."""
    _validate(num_workers)
    owners = np.zeros(graph.num_vertices, dtype=np.int64)
    loads = np.zeros(num_workers, dtype=np.int64)
    degrees = graph.degrees()
    for v in np.argsort(degrees)[::-1]:
        w = int(np.argmin(loads))
        owners[v] = w
        loads[w] += degrees[v] + 1  # +1 so isolated vertices also spread
    return owners


PARTITIONERS = {
    "hash": hash_partition,
    "range": range_partition,
    "degree": degree_balanced_partition,
}


def partition_load(graph: TemporalGraph, owners: np.ndarray, num_workers: int) -> np.ndarray:
    """Per-worker edge counts under a partition (load-balance metric)."""
    return np.bincount(owners, weights=graph.degrees().astype(np.float64),
                       minlength=num_workers).astype(np.int64)


def edge_cut(graph: TemporalGraph, owners: np.ndarray) -> int:
    """Number of edges whose endpoints live on different workers."""
    if graph.num_edges == 0:
        return 0
    src = np.repeat(np.arange(graph.num_vertices), np.diff(graph.indptr))
    return int((owners[src] != owners[graph.nbr]).sum())


# -- the simulated cluster -----------------------------------------------------

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
    """One simulated worker: a vertex shard plus its walker queue, with
    a private :class:`CostCounters` folded into the run's at the
    barrier."""

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


class DistributedTeaEngine:
    """Simulated multi-worker TEA (HPAT sampling inside KnightKing's BSP).

    ``partitioner`` is ``"hash"``, ``"range"``, ``"degree"``, or a
    callable ``(graph, num_workers) -> owners`` array.
    """

    def __init__(self, graph: TemporalGraph, spec: WalkSpec,
                 num_workers: int = 4, partitioner="hash"):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = int(num_workers)
        if callable(partitioner):
            self._partition_fn = partitioner
        elif partitioner in PARTITIONERS:
            self._partition_fn = PARTITIONERS[partitioner]
        else:
            raise ValueError(
                f"unknown partitioner {partitioner!r}; "
                f"choose from {sorted(PARTITIONERS)} or pass a callable"
            )
        self.owners: Optional[np.ndarray] = None
        self.stats: Optional[DistributedStats] = None
        self._driver = _BspDriver(graph, spec, self)
        self.graph = self._driver.graph
        self._worker_rngs: list = []

    @property
    def index(self):
        return self._driver.index

    def prepare(self) -> None:
        """Partition vertices and build the HPAT.

        The HPAT is a per-vertex structure, so one global build is
        byte-identical to concatenating per-worker shard builds; workers
        simply index into their own vertices' slices.
        """
        self._driver.prepare()

    def run(self, workload: Workload, seed: RngLike = 0,
            record_paths: bool = True):
        """Run the workload in BSP supersteps; returns ``(paths, stats,
        counters, timer)``."""
        rng = make_rng(seed)
        # Worker streams are spawned before the starts are resolved from
        # the same generator (which the driver's run continues).
        self._worker_rngs = spawn(rng, self.num_workers)
        result = self._driver.run(workload, seed=rng, record_paths=record_paths)
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
                float(superstep_steps.max()) * STEP_COST
                + messages_this_step * MESSAGE_COST / self.num_workers
            )

        # Fold the per-worker accounts at the barrier.
        for worker in workers:
            counters.merge(worker.counters)
        out = FrontierResult.empty(starts, max_length, keep_hops)
        for wid, state in enumerate(walkers):
            out.record(wid, state.hops, max_length)
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
