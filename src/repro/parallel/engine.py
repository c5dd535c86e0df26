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

* **Determinism** — every *walk* owns a seed drawn before any chunk
  is planned and is advanced by a counter-based lane stream
  (:class:`~repro.rng.LaneRng`), so results are bit-identical across
  worker counts, backends, chunk plans, pool generations, and
  scheduling orders for a fixed ``seed``. ``--workers 1`` is the
  reference run, not a special case.
* **Warm pools** — worker pools are *engine-lifetime* resources
  (:mod:`repro.parallel.pool`): the first run pays pool spin-up once,
  later runs find the pool warm (``parallel.pool_startup_seconds ==
  0``). Supervision recycles a broken/hung pool instead of assuming one
  pool per attempt. :meth:`close` (or garbage collection) releases
  everything.
* **One plan** — :class:`~repro.engines.batch.BatchTeaEngine` draws
  the seeds and stitches the result; this engine overrides only where
  the chunks run (:meth:`_walk_chunks`). Without an explicit
  ``chunk_size`` the lanes are cut into the fewest equal chunks of at
  most one :data:`~repro.engines.batch.FRONTIER_LANES` slice that
  number a multiple of the workers (:func:`~repro.parallel.chunks.chunk_bounds`):
  a function of the lane and worker counts alone, so cold and warm
  runs, ``run`` and ``run_lanes`` plan alike.
* **Per-worker telemetry** — each chunk carries private
  :class:`~repro.sampling.counters.CostCounters`, registry, and tracer;
  the engine folds all of them at the join barrier through their
  associative merge paths, then adds the ``parallel.*`` metrics
  (workers, chunks, queue wait, pool startup/attach, per-worker step
  totals).
* **Backends** — ``process`` (forked workers, true multi-core; each
  inherits the prepared engine copy-on-write, and the walk never writes
  its pages), ``thread`` (the kernels release the GIL for long stretches
  of a chunk), or ``serial`` (an executor that runs each chunk as it is
  submitted: the in-process executor of
  :class:`~repro.engines.batch.BatchTeaEngine` under supervision, chunk
  by chunk). ``auto`` picks ``process`` where ``fork`` exists, and
  ``process`` falls back to ``thread`` where it does not.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import BrokenExecutor, Future
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import replace
from typing import Dict, List, Optional

import numpy as np

from repro.engines.base import FrontierResult
from repro.engines.batch import BatchTeaEngine
from repro.exceptions import WorkerCrashError
from repro.graph.temporal_graph import TemporalGraph
from repro.parallel.chunks import chunk_bounds
from repro.parallel.pool import WarmWorkerPool
from repro.parallel.worker import (
    ChunkResult,
    ChunkTask,
    _process_chunk,
    execute_chunk,
)
from repro.telemetry import (
    LATENCY_BUCKETS,
    NULL_PROFILER,
    MetricsRegistry,
    events,
)
from repro.telemetry.clock import monotonic as _monotonic
from repro.telemetry.events import current_run_id
from repro.telemetry.spans import NULL_SPAN
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


class _InlineExecutor:
    """The serial backend's executor: runs each call as it is submitted
    and hands back a future that is already resolved."""

    def submit(self, fn, *args) -> Future:
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:  # noqa: BLE001 — the supervisor classifies it
            future.set_exception(exc)
        return future


class ParallelBatchTeaEngine(BatchTeaEngine):
    """Work-queue parallel TEA: the frontier kernel per chunk, merged.

    Parameters
    ----------
    workers:
        Pool size (>= 1); defaults to the CPUs this process may run on.
        The effective pool never exceeds the number of chunks.
    chunk_size:
        Lanes per chunk. ``None`` (default) plans one slice-wide share
        per worker (:func:`~repro.parallel.chunks.chunk_bounds`);
        per-walk seeding makes both settings bit-identical, so pin it
        only to force a many-chunk plan on a small request (retry and
        telemetry tests).
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
        self._new_ledgers()
        # Engine-lifetime execution resources (see close()).
        self._pools: Dict[str, WarmWorkerPool] = {}

    # -- context -----------------------------------------------------------

    def _resolve_backend(self, workers_used: int) -> str:
        if self.backend == "auto":
            if workers_used <= 1:
                return "serial"
            return "process" if _fork_available() else "thread"
        if self.backend == "process" and not _fork_available():
            return "thread"
        return self.backend

    def _pool(self, kind: str) -> WarmWorkerPool:
        pool = self._pools.get(kind)
        if pool is None:
            pool = WarmWorkerPool(
                kind, self.workers, engine=self if kind == "process" else None)
            self._pools[kind] = pool
        return pool

    def _new_ledgers(self) -> None:
        """Empty the last run's supervision ledger (retried chunks, the
        backends degraded to, in order) and pool ledger (warm reuses, pool
        builds, their startup and worker-initializer seconds)."""
        self.last_events: Dict[str, object] = {"chunk_retries": 0, "degraded": []}
        self.last_pool: Dict[str, float] = {
            "reuses": 0, "builds": 0, "startup_seconds": 0.0, "attach_seconds": 0.0}

    def _note_pool(self, reused: bool, pool: WarmWorkerPool) -> None:
        if reused:
            self.last_pool["reuses"] += 1
        else:
            self.last_pool["builds"] += 1
            self.last_pool["startup_seconds"] += pool.startup_seconds
            self.last_pool["attach_seconds"] += pool.attach_seconds

    # -- lifecycle ---------------------------------------------------------

    def with_spec(self, spec: WalkSpec) -> "ParallelBatchTeaEngine":
        """The base sibling, with pools and ledgers of its own: a forked
        worker walks the engine that owns its pool, so a pool shared with
        this engine would walk the sibling's chunks under this spec."""
        sibling = super().with_spec(spec)
        sibling._pools = {}
        sibling._new_ledgers()
        return sibling

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

    # -- execution ---------------------------------------------------------
    #
    # The supervised executor. One attempt = one pass over the
    # currently-pending chunks through the active backend's warm pool
    # (or the inline executor for serial); the supervisor classifies
    # every failed chunk as "crash" (the future raised), "hang" (the
    # per-chunk timeout expired), or "broken" (the pool itself died, e.g.
    # a worker process exited hard) and requeues it under the retry
    # budget. "hang"/"broken" condemn the pool — mark_broken() recycles
    # it on its next use — and degrade the backend one level down the
    # chain process -> thread -> serial: a pool that killed or lost a
    # worker is not trusted with the retry. Determinism survives all of
    # this — a walk's randomness is keyed by its seed, never by the
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

    def _attempt(self, backend: str, tasks: List[ChunkTask]):
        """Submit ``tasks`` to ``backend``'s executor and collect them."""
        pool = None
        if backend == "serial":
            executor, call = _InlineExecutor(), (execute_chunk, self)
        else:
            pool = self._pool(backend)
            executor, reused = pool.ensure()
            self._note_pool(reused, pool)
            call = ((_process_chunk,) if backend == "process"
                    else (execute_chunk, self))
        futures = []
        unsubmitted = []
        for task in tasks:
            task = replace(task, enqueue_ts=_monotonic())
            try:
                futures.append((executor.submit(*call, task), task.chunk_id))
            except BrokenExecutor as exc:
                # A worker died while we were still submitting:
                # everything not yet in flight fails as "broken".
                unsubmitted.append((task.chunk_id, "broken", exc))
        done, failed, pool_hurt = self._collect(futures)
        failed.extend(unsubmitted)
        if pool is not None and (pool_hurt or unsubmitted):
            # A hung thread cannot be killed and a dead worker poisons
            # its pool: condemn it (a thread pool's daemonic join happens
            # at interpreter exit) so the next attempt — and the next
            # run — gets a fresh one.
            pool.mark_broken("hang" if backend == "thread"
                             else "worker_death_or_hang")
        return done, failed

    def _execute_chunks(self, tasks: List[ChunkTask], backend: str,
                        workers_used: int) -> List[ChunkResult]:
        pending: List[int] = [task.chunk_id for task in tasks]
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
            done, failed = self._attempt(active, [
                replace(tasks[cid], attempt=attempts[cid]) for cid in pending])
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

    # -- where the chunks run ------------------------------------------------

    def _walk_chunks(self, starts, seeds, max_length, stop_probability,
                     counters, keep_hops, registry, span=NULL_SPAN,
                     profiler=NULL_PROFILER) -> FrontierResult:
        """Run :func:`~repro.parallel.chunks.chunk_bounds`' chunks on the
        pool under supervision, then fold and stitch them.

        :meth:`run` and :meth:`run_lanes` both arrive here with one seed
        per walk, so the result is bit-identical to the inline engine's
        across worker counts, backends, chunk plans, retries and
        degradations — which is what lets the serving batcher coalesce
        requests onto this engine without changing any response.
        """
        self._new_ledgers()
        bounds = chunk_bounds(starts.size, self.workers, self.chunk_size)
        workers_used = max(1, min(self.workers, bounds.size - 1))
        backend = self._resolve_backend(workers_used)
        self.last_backend = backend
        run_id = current_run_id()
        tasks = [
            ChunkTask(
                chunk_id=cid, starts=starts[lo:hi], seeds=seeds[lo:hi],
                max_length=max_length, stop_probability=stop_probability,
                keep_hops=keep_hops, run_id=run_id, profile=profiler.enabled,
            )
            for cid, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]))
        ]
        t0 = _monotonic()
        results = self._execute_chunks(tasks, backend, workers_used)
        self._dispatch_seconds = _monotonic() - t0

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
        frontier = FrontierResult.empty(starts, max_length, keep_hops)
        for res in results:
            counters.merge(res.counters)
            if registry is not None:
                registry.merge(res.registry)
            frontier.place(int(bounds[res.chunk_id]), res, max_length)

        span.set("workers", workers_used)
        span.set("chunks", len(tasks))
        span.set("backend", backend)  # as planned
        if self.last_events["degraded"]:
            span.set("degraded_to", self.last_backend)
        if span is not NULL_SPAN:
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
        if registry is not None:
            self._publish_parallel_metrics(registry, results, workers_used,
                                           bounds)
        return frontier

    def _publish_parallel_metrics(
        self,
        registry: MetricsRegistry,
        results: List[ChunkResult],
        workers_used: int,
        bounds: np.ndarray,
    ) -> None:
        registry.gauge("parallel.workers", "worker pool size").set(workers_used)
        registry.counter("parallel.chunks", "chunks executed").inc(bounds.size - 1)
        registry.gauge(
            "parallel.chunk_size", "lanes in the plan's widest chunk"
        ).set(int(np.diff(bounds).max()))
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
