"""Chunk-parallel frontier walk execution (multi-core single node).

:class:`ParallelBatchTeaEngine` runs the exact
:class:`~repro.engines.batch.BatchTeaEngine` frontier kernel, but over
*chunks* of the workload's start vertices served from a shared work
queue to a pool of workers. The index is prepared once, in the parent;
every backend then runs :func:`~repro.parallel.worker.execute_chunk` on
this one engine object — threads and inline chunks share it, forked
process workers inherit it — so no worker copies, exports or rebuilds
the index.

Design invariants:

* **Determinism** — every *walk* owns a seed planned up front
  (:mod:`repro.parallel.chunks`) and is advanced by a counter-based
  lane stream (:class:`~repro.rng.LaneRng`), so results are
  bit-identical across worker counts, backends, chunk sizes (fixed or
  adaptive), pool generations, and scheduling orders for a fixed
  ``seed``. ``--workers 1`` is the reference run, not a special case.
* **Warm pools** — worker pools are *engine-lifetime* resources
  (:mod:`repro.parallel.pool`): the first run pays pool spin-up once,
  later runs find the pool warm (``parallel.pool_startup_seconds ==
  0``). Supervision recycles a broken/hung pool instead of assuming one
  pool per attempt. :meth:`close` (or garbage collection) releases
  everything.
* **Adaptive chunking** — without an explicit ``chunk_size`` the
  planner calibrates from a short probe (or the previous run's
  measured per-walk cost) and sizes chunks to
  ``chunk_target_ms`` (default ~75ms) of work each, so dispatch
  overhead is amortised while the queue still load-balances.
* **Per-worker telemetry** — each chunk carries private
  :class:`~repro.sampling.counters.CostCounters`, registry, and tracer;
  the engine folds all of them at the join barrier through their
  associative merge paths, then adds the ``parallel.*`` metrics
  (workers, chunks, queue wait, pool startup/attach, per-worker step
  totals).
* **Backends** — ``process`` (forked workers, true multi-core; each
  inherits the prepared engine copy-on-write, and the walk never writes
  its pages), ``thread`` (the kernels release the GIL for long stretches
  of a chunk), or ``serial`` (inline: the in-process executor of
  :class:`~repro.engines.batch.BatchTeaEngine` under supervision, chunk
  by chunk). ``auto`` picks ``process`` where ``fork`` exists, and
  ``process`` falls back to ``thread`` where it does not.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import BrokenExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from typing import Dict, List, Optional

import numpy as np

from repro.engines.base import FrontierResult, Workload
from repro.engines.batch import BatchTeaEngine
from repro.exceptions import WorkerCrashError
from repro.graph.temporal_graph import TemporalGraph
from repro.parallel.chunks import (
    DEFAULT_CHUNK_TARGET_MS,
    PROBE_WALKS,
    ChunkPlan,
    adaptive_chunk_size,
    plan_chunks,
    plan_for_seeds,
    rechunk,
)
from repro.parallel.pool import WarmWorkerPool
from repro.parallel.worker import (
    ChunkResult,
    ChunkTask,
    _process_chunk,
    execute_chunk,
)
from repro.rng import LaneRng
from repro.sampling.counters import CostCounters
from repro.telemetry import LATENCY_BUCKETS, MetricsRegistry, events
from repro.telemetry.clock import monotonic as _monotonic
from repro.telemetry.events import current_run_id
from repro.walks.spec import WalkSpec

BACKENDS = ("auto", "process", "thread", "serial")

#: Default per-chunk retry budget (additional attempts after the first).
DEFAULT_CHUNK_RETRIES = 2


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the
    platform has one (a cpuset-limited container sees its share, not the
    host's), else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class ParallelBatchTeaEngine(BatchTeaEngine):
    """Work-queue parallel TEA: the frontier kernel per chunk, merged.

    Parameters
    ----------
    workers:
        Pool size (>= 1); defaults to the CPUs this process may run on.
        The effective pool never exceeds the number of chunks.
    chunk_size:
        Start vertices per chunk. ``None`` (default) engages the
        adaptive planner; per-walk seeding makes both settings
        bit-identical, so pin it only to make chunk *counts*
        reproducible (e.g. telemetry assertions).
    chunk_target_ms:
        Work per chunk the adaptive planner aims for (default
        :data:`~repro.parallel.chunks.DEFAULT_CHUNK_TARGET_MS`).
        Ignored when ``chunk_size`` is given.
    backend:
        ``auto`` | ``process`` | ``thread`` | ``serial``.
    share_mode:
        Only ``inherit`` (process workers walk the engine they fork
        from); any other value is refused. Kept for callers that still
        pass it; it sets nothing.
    """

    name = "tea-parallel"

    def __init__(
        self,
        graph: TemporalGraph,
        spec: WalkSpec,
        workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
        backend: str = "auto",
        share_mode: str = "inherit",
        retries: int = DEFAULT_CHUNK_RETRIES,
        chunk_timeout: Optional[float] = None,
        fault_injector=None,
        chunk_target_ms: Optional[float] = None,
        kernel_backend="auto",
    ):
        super().__init__(graph, spec, kernel_backend=kernel_backend)
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
        if share_mode != "inherit":
            raise ValueError(f"share_mode must be 'inherit', got {share_mode!r}")
        self.workers = _usable_cpus() if workers is None else int(workers)
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers!r}")
        self.chunk_size = int(chunk_size) if chunk_size else None
        if chunk_target_ms is not None and float(chunk_target_ms) <= 0:
            raise ValueError("chunk_target_ms must be > 0")
        self.chunk_target_ms = (
            float(chunk_target_ms) if chunk_target_ms is not None else None
        )
        self.backend = backend
        #: Per-chunk retry budget: a chunk may fail (crash, hang, broken
        #: pool) this many times beyond its first attempt before the run
        #: aborts with :class:`WorkerCrashError`.
        self.retries = int(retries)
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        #: Seconds a single chunk may run before the supervisor declares
        #: it hung (``None`` disables the watchdog). Applies to the
        #: process and thread backends' future waits.
        self.chunk_timeout = chunk_timeout
        #: Optional :class:`repro.resilience.faults.FaultInjector`
        #: every chunk checks (``chunk`` site), in whichever backend.
        self.fault_injector = fault_injector
        #: The backend the last run actually executed on (for reports
        #: and tests): set by :meth:`run`.
        self.last_backend: Optional[str] = None
        #: Supervision ledger of the last run: ``chunk_retries`` (chunk
        #: executions repeated after a failure) and ``degraded`` (the
        #: backends fallen back to, in order).
        self.last_events: Dict[str, object] = {"chunk_retries": 0, "degraded": []}
        #: Pool ledger of the last run: warm serves (``reuses``), pool
        #: builds and their cost (``builds`` / ``startup_seconds`` /
        #: ``attach_seconds``, the workers' initializer time).
        self.last_pool: Dict[str, float] = {
            "reuses": 0, "builds": 0,
            "startup_seconds": 0.0, "attach_seconds": 0.0,
        }
        # Engine-lifetime execution resources (see close()).
        self._pools: Dict[str, WarmWorkerPool] = {}
        #: Measured seconds per walk (calibration memory): seeded by the
        #: probe, refined after every run from actual chunk walls.
        self._per_walk_seconds: Optional[float] = None

    # -- context -----------------------------------------------------------

    def _resolve_backend(self, workers_used: int) -> str:
        if self.backend == "auto":
            if workers_used <= 1:
                return "serial"
            return "process" if _fork_available() else "thread"
        if self.backend == "process" and not _fork_available():
            return "thread"
        return self.backend

    def _prepare(self) -> None:
        super()._prepare()
        # Build the static adjacency once in the parent (any dynamic
        # parameter may consult it): forked workers then inherit it
        # instead of each lazily rebuilding, and the thread backend
        # avoids a concurrent-build race inside the kernel.
        if (
            self.spec.dynamic_parameter is not None
            and self.graph.num_vertices
            and self.graph._static_indptr is None
        ):
            self.graph._build_static_adjacency()

    def _pool(self, kind: str) -> WarmWorkerPool:
        pool = self._pools.get(kind)
        if pool is None:
            pool = WarmWorkerPool(
                kind, self.workers, engine=self if kind == "process" else None)
            self._pools[kind] = pool
        return pool

    def _note_pool(self, reused: bool, pool: WarmWorkerPool) -> None:
        if reused:
            self.last_pool["reuses"] += 1
        else:
            self.last_pool["builds"] += 1
            self.last_pool["startup_seconds"] += pool.startup_seconds
            self.last_pool["attach_seconds"] += pool.attach_seconds

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Release the warm pools.

        Idempotent; also invoked by ``__del__`` so dropped engines do
        not leak worker processes. After close the engine remains
        usable — the next run simply pays startup again.
        """
        for pool in self._pools.values():
            pool.close()
        self._pools = {}

    def __del__(self):  # noqa: D105 — best-effort resource release
        try:
            self.close()
        except Exception:
            pass

    # -- planning ----------------------------------------------------------

    def _probe(self, plan: ChunkPlan, workload: Workload) -> Optional[float]:
        """Measure per-walk seconds on a small prefix of the workload.

        Runs the first :data:`~repro.parallel.chunks.PROBE_WALKS` walks
        inline with their *actual* lane seeds and discards the result:
        no counters, no paths, no draw from the run's root generator —
        so calibration is invisible to determinism and telemetry
        conservation.
        """
        n = min(PROBE_WALKS, plan.num_walks)
        if n <= 0:
            return None
        t0 = _monotonic()
        self._run_frontier(
            plan.starts[:n], workload.max_length, workload.stop_probability,
            LaneRng(plan.seeds[:n]), CostCounters(), False,
        )
        return (_monotonic() - t0) / n

    def _plan(self, starts: np.ndarray, workload: Workload,
              rng: np.random.Generator) -> ChunkPlan:
        """Draw per-walk seeds, then pick the partition.

        Seeds are drawn before (and independently of) the chunk-size
        decision, which is what makes fixed and adaptive plans walk
        bit-identical paths.
        """
        plan = plan_chunks(starts, self.chunk_size or max(1, starts.size), rng)
        if self.chunk_size:
            return plan
        per_walk = self._per_walk_seconds
        if per_walk is None:
            with self.profiler.phase("probe"):
                per_walk = self._probe(plan, workload)
        return rechunk(plan, self._chunk_size_for(starts.size, per_walk))

    def _make_task(self, plan: ChunkPlan, chunk_id: int, attempt: int,
                   rp: Dict[str, object]) -> ChunkTask:
        lo, hi = plan.chunk(chunk_id)
        return ChunkTask(
            chunk_id=chunk_id,
            starts=plan.starts[lo:hi],
            seeds=plan.seeds[lo:hi],
            max_length=rp["max_length"],
            stop_probability=rp["stop_probability"],
            keep_hops=rp["keep_hops"],
            run_id=rp["run_id"],
            profile=rp["profile"],
            attempt=attempt,
        )

    # -- execution ---------------------------------------------------------
    #
    # The supervised executor. One attempt = one pass over the
    # currently-pending chunks through the active backend's warm pool
    # (or inline for serial); the supervisor classifies every failed
    # chunk as "crash" (the future raised), "hang" (the per-chunk
    # timeout expired), or "broken" (the pool itself died, e.g. a worker
    # process exited hard) and requeues it under the retry budget.
    # "hang"/"broken" condemn the pool — mark_broken() recycles it on
    # its next use — and degrade the backend one level down the chain
    # process -> thread -> serial: a pool that killed or lost a worker
    # is not trusted with the retry. Determinism survives all of this —
    # a walk's randomness is keyed by its planned seed, never by the
    # attempt, the pool generation, or the backend that finally ran it.

    def _degradation_chain(self, backend: str) -> List[str]:
        chain = ["process", "thread", "serial"]
        return chain[chain.index(backend):] if backend in chain else ["serial"]

    def _collect(self, futures):
        """Wait on ``(future, chunk_id)`` pairs; classify failures.

        Returns ``(done, failed, pool_hurt)`` where ``done`` maps
        chunk_id -> ChunkResult, ``failed`` lists
        ``(chunk_id, reason, exc)``, and ``pool_hurt`` means the pool
        hung or broke (it must be recycled, and shutdown must not block
        on it).
        """
        done: Dict[int, ChunkResult] = {}
        failed = []
        broken = hung = False
        for fut, cid in futures:
            try:
                if broken:
                    # A broken pool poisons every unfinished future with
                    # BrokenExecutor; salvage the ones that completed.
                    done[cid] = fut.result(timeout=0)
                else:
                    done[cid] = fut.result(timeout=self.chunk_timeout)
            except FuturesTimeoutError as exc:
                hung = True
                fut.cancel()
                failed.append((cid, "hang", exc))
            except BrokenExecutor as exc:
                broken = True
                failed.append((cid, "broken", exc))
            except Exception as exc:  # noqa: BLE001 — worker raised
                failed.append((cid, "crash", exc))
        return done, failed, broken or hung

    def _attempt_serial(self, chunk_ids, plan, rp, attempts):
        done: Dict[int, ChunkResult] = {}
        failed = []
        for cid in chunk_ids:
            task = self._make_task(plan, cid, attempts[cid], rp)
            task.enqueue_ts = _monotonic()
            try:
                done[cid] = execute_chunk(self, task)
            except Exception as exc:  # noqa: BLE001
                failed.append((cid, "crash", exc))
        return done, failed

    def _attempt_thread(self, chunk_ids, plan, rp, attempts):
        pool = self._pool("thread")
        executor, reused = pool.ensure()
        self._note_pool(reused, pool)
        futures = []
        for cid in chunk_ids:
            task = self._make_task(plan, cid, attempts[cid], rp)
            task.enqueue_ts = _monotonic()
            futures.append((executor.submit(execute_chunk, self, task), cid))
        done, failed, pool_hurt = self._collect(futures)
        if pool_hurt:
            # A hung thread cannot be killed: condemn the pool (its
            # daemonic join happens at interpreter exit) so the next
            # attempt — and the next run — gets a fresh one.
            pool.mark_broken("hang")
        return done, failed

    def _attempt_process(self, chunk_ids, plan, rp, attempts):
        pool = self._pool("process")
        executor, reused = pool.ensure()
        self._note_pool(reused, pool)
        futures = []
        unsubmitted = []
        for cid in chunk_ids:
            task = self._make_task(plan, cid, attempts[cid], rp)
            task.enqueue_ts = _monotonic()
            try:
                futures.append((executor.submit(_process_chunk, task), cid))
            except BrokenExecutor as exc:
                # A worker died while we were still submitting:
                # everything not yet in flight fails as "broken".
                unsubmitted.append((cid, "broken", exc))
        done, failed, pool_hurt = self._collect(futures)
        failed.extend(unsubmitted)
        if pool_hurt or unsubmitted:
            pool.mark_broken("worker_death_or_hang")
        return done, failed

    def _execute_chunks(
        self, plan: ChunkPlan, backend: str, workers_used: int,
        rp: Dict[str, object],
    ) -> List[ChunkResult]:
        pending: List[int] = list(range(plan.num_chunks))
        if backend == "serial" or workers_used <= 1:
            chain = ["serial"]
        else:
            chain = self._degradation_chain(backend)

        attempts = {cid: 0 for cid in pending}
        results: Dict[int, ChunkResult] = {}
        level = 0
        while pending:
            active = chain[level]
            self.last_backend = active
            if active == "process":
                done, failed = self._attempt_process(pending, plan, rp, attempts)
            elif active == "thread":
                done, failed = self._attempt_thread(pending, plan, rp, attempts)
            else:
                done, failed = self._attempt_serial(pending, plan, rp, attempts)
            results.update(done)
            if not failed:
                break
            degrade = False
            pending = []
            for cid, reason, exc in failed:
                attempts[cid] += 1
                if attempts[cid] > self.retries:
                    raise WorkerCrashError(
                        f"chunk {cid} failed {attempts[cid]} times "
                        f"(last failure: {reason}); retry budget "
                        f"({self.retries}) exhausted",
                        chunk_id=cid, attempts=attempts[cid],
                    ) from exc
                self.last_events["chunk_retries"] += 1
                events.emit(
                    "chunk.retry", chunk_id=cid, attempt=attempts[cid],
                    reason=reason, error=type(exc).__name__,
                )
                pending.append(cid)
                if reason in ("hang", "broken"):
                    degrade = True
            if degrade and level < len(chain) - 1:
                level += 1
                self.last_events["degraded"].append(chain[level])
                events.emit(
                    "backend.degraded",
                    from_backend=chain[level - 1], to_backend=chain[level],
                )
        # Chunk order, regardless of which attempt produced each result:
        # the fold below is then deterministic.
        return [results[cid] for cid in sorted(results)]

    # -- the shared core of run() and run_lanes() --------------------------

    def _workers_for(self, plan: ChunkPlan) -> int:
        """The effective pool never exceeds the number of chunks."""
        return max(1, min(self.workers, plan.num_chunks))

    def _chunk_size_for(self, num_walks: int,
                        per_walk: Optional[float]) -> int:
        if self.chunk_size:
            return self.chunk_size
        return adaptive_chunk_size(
            num_walks, self.workers, per_walk,
            self.chunk_target_ms if self.chunk_target_ms is not None
            else DEFAULT_CHUNK_TARGET_MS,
        )

    def _run_plan(
        self, plan: ChunkPlan, max_length: int, stop_probability: float,
        keep_hops: bool, counters: CostCounters,
        registry: Optional[MetricsRegistry], profile: bool = False,
    ):
        """Execute ``plan`` under supervision and stitch the chunks.

        Everything :meth:`run` and :meth:`run_lanes` have in common once
        the per-walk seeds are fixed: resolve the backend, execute (with
        retry/degradation), refine the calibration memory, adopt worker
        events, fold per-chunk counters/registries, and stitch the
        chunk slices into one columnar result. Returns ``(frontier,
        chunk results)``.
        """
        self.last_events = {"chunk_retries": 0, "degraded": []}
        self.last_pool = {"reuses": 0, "builds": 0,
                          "startup_seconds": 0.0, "attach_seconds": 0.0}
        workers_used = self._workers_for(plan)
        backend = self._resolve_backend(workers_used)
        self.last_backend = backend
        rp = {
            "max_length": int(max_length),
            "stop_probability": float(stop_probability),
            "keep_hops": bool(keep_hops),
            "run_id": current_run_id(),
            "profile": profile,
        }
        t0 = _monotonic()
        results = self._execute_chunks(plan, backend, workers_used, rp)
        self._dispatch_seconds = _monotonic() - t0

        # Refine the calibration memory from what was actually
        # measured: the next adaptive plan skips the probe.
        if plan.num_walks and results:
            total_wall = sum(res.wall_seconds for res in results)
            if total_wall > 0:
                self._per_walk_seconds = total_wall / plan.num_walks

        # Adopt events shipped back from forked process workers (thread
        # and serial chunks emitted into the shared parent log already).
        parent_log = events.current()
        if parent_log is not None:
            for res in results:
                if res.events:
                    parent_log.extend(res.events)

        # Fold at the barrier, in chunk order. Merge is associative, so
        # this equals any completion order — but a fixed order keeps
        # reports stable.
        for res in results:
            counters.merge(res.counters)
            if registry is not None:
                registry.merge(res.registry)
        frontier = FrontierResult.empty(plan.starts, rp["max_length"], keep_hops)
        for res in results:
            frontier.place(plan.chunk(res.chunk_id)[0], res, rp["max_length"])
        return frontier, results

    def _walk_lanes(self, starts, seeds, max_length, stop_probability,
                    keep_hops, counters, registry) -> FrontierResult:
        """Chunk-parallel :meth:`BatchTeaEngine._walk_lanes`.

        The caller supplies per-walk seeds; the engine only decides the
        partition (fixed ``chunk_size`` or the adaptive planner's
        calibration memory) and the backend. Because every walk's
        randomness is keyed on its own seed, the result is bit-identical
        to the serial ``run_lanes`` — across worker counts, backends,
        chunkings, retries, and degradations — which lets the serving
        batcher coalesce requests onto this engine without changing any
        response. Chunk failures go through the same supervised
        retry/degradation path as :meth:`run`.
        """
        plan = plan_for_seeds(
            starts, seeds,
            self._chunk_size_for(starts.size, self._per_walk_seconds),
        )
        frontier, _ = self._run_plan(
            plan, max_length, stop_probability, keep_hops, counters, registry,
        )
        if registry is not None:
            self._publish_supervision(registry)
        return frontier

    def _walk(self, starts, workload: Workload, rng, counters, registry,
              keep_hops, span) -> FrontierResult:
        profiler = self.profiler
        plan = self._plan(starts, workload, rng)
        frontier, results = self._run_plan(
            plan, workload.max_length, workload.stop_probability, keep_hops,
            counters, registry, profile=profiler.enabled,
        )
        workers_used = self._workers_for(plan)
        span.set("workers", workers_used)
        span.set("chunks", plan.num_chunks)
        span.set("backend", self._resolve_backend(workers_used))  # as planned
        if self.last_events["degraded"]:
            span.set("degraded_to", self.last_backend)
        if self.tracer.enabled:
            for res in results:
                span.children.extend(res.spans)

        # Absorb per-chunk profiles under the walk phase. Chunks ran
        # concurrently, so their summed inclusive time can exceed the
        # walk frame's wall time — subtract each chunk's root inclusive
        # from walk's *self* so the supervision overhead stays honest
        # (rendering clamps a negative remainder at zero).
        if profiler.enabled:
            total_queue_wait = 0.0
            for res in results:
                total_queue_wait += res.queue_wait_seconds
                snap = res.profile
                if not snap:
                    continue
                profiler.absorb(snap, prefix=("walk",))
                chunk_root = sum(
                    cell["inclusive_s"]
                    for joined, cell in snap.get("phases", {}).items()
                    if ";" not in joined
                )
                profiler.add_seconds(("walk",), 0.0, calls=0,
                                     self_seconds=-chunk_root)
            profiler.add_seconds(("walk", "queue_wait"), total_queue_wait,
                                 calls=len(results))
            if self.last_pool["builds"]:
                profiler.add_seconds(
                    ("walk", "pool_startup"),
                    float(self.last_pool["startup_seconds"]),
                    calls=int(self.last_pool["builds"]),
                )
        self._publish_parallel_metrics(registry, results, workers_used, plan)
        return frontier

    def _publish_parallel_metrics(
        self,
        registry: MetricsRegistry,
        results: List[ChunkResult],
        workers_used: int,
        plan: ChunkPlan,
    ) -> None:
        registry.gauge("parallel.workers", "worker pool size").set(workers_used)
        registry.counter("parallel.chunks", "chunks executed").inc(plan.num_chunks)
        registry.gauge(
            "parallel.chunk_size", "walks per chunk the planner chose"
        ).set(int(np.diff(plan.bounds).max()) if plan.num_chunks else 1)
        # The per-chunk registries already folded their queue-wait
        # observations into parallel.queue_wait_seconds via merge();
        # touch it here so the metric exists even for zero-chunk runs.
        # Since the pool is warmed before chunks are enqueued, this
        # measures only unclaimed-queue time — spin-up and the workers'
        # initializers land in the two pool gauges below.
        registry.histogram(
            "parallel.queue_wait_seconds",
            "delay between chunk enqueue and execution start",
            **LATENCY_BUCKETS,
        )
        registry.gauge(
            "parallel.pool_startup_seconds",
            "seconds this run spent building worker pools (0 = warm reuse)",
        ).set(float(self.last_pool["startup_seconds"]))
        registry.gauge(
            "parallel.attach_seconds",
            "summed per-worker initializer seconds of pools built this run",
        ).set(float(self.last_pool["attach_seconds"]))
        registry.counter(
            "parallel.pool_reuse",
            "chunk passes served by an already-warm pool",
        ).inc(int(self.last_pool["reuses"]))
        per_worker: Dict[str, int] = {}
        busy: Dict[str, float] = {}
        for res in results:
            per_worker[res.worker_label] = (
                per_worker.get(res.worker_label, 0) + res.total_steps
            )
            busy[res.worker_label] = (
                busy.get(res.worker_label, 0.0) + res.wall_seconds
            )
        steps_hist = registry.histogram(
            "parallel.worker_steps", "sampling steps per worker (fold of chunks)"
        )
        for steps in per_worker.values():
            steps_hist.observe(steps)
        # A lower bound on the walk phase is its busiest worker's chunk
        # time; the rest is dispatch (submit, IPC, result pickling, idle
        # gaps) — an absolute cost that means the same on any host.
        registry.gauge(
            "parallel.dispatch_overhead_seconds",
            "chunk-execution wall beyond the busiest worker's chunk seconds",
        ).set(max(0.0, self._dispatch_seconds - max(busy.values(), default=0.0)))
        self._publish_supervision(registry)

    def _publish_supervision(self, registry: MetricsRegistry) -> None:
        # Supervision ledger: always exported so dashboards can alert on
        # transitions from zero, not on metric appearance.
        registry.counter(
            "parallel.chunk_retries",
            "chunk executions repeated after a crash/hang/broken pool",
        ).inc(int(self.last_events["chunk_retries"]))
        registry.counter(
            "resilience.degraded",
            "backend degradations (process->thread->serial) this run",
        ).inc(len(self.last_events["degraded"]))
        if self.fault_injector is not None:
            self.fault_injector.publish(registry)
