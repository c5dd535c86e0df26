"""Warm, persistent worker pools for the parallel walk executor.

:class:`WarmWorkerPool` makes the pool an *engine-lifetime* resource, so
a run does not pay worker spawn before its first chunk moves:

* **startup once** — the executor is created on first use and kept; a
  second ``run()`` finds it warm and pays ~zero startup
  (``parallel.pool_startup_seconds == 0`` is the reuse contract the
  scaling bench demonstrates).
* **inherit, never rebuild** — process workers are forked from the
  engine that owns the pool and walk that engine as they inherited it
  (:mod:`repro.parallel.worker`); the initializer only stores it. Warmup
  pings force every worker into existence *before* chunks are enqueued,
  which is also what lets ``queue_wait_seconds`` measure only genuine
  queue time.
* **recycle on harm** — the supervisor marks a pool broken after a hang
  or a dead worker (:meth:`mark_broken`); the next :meth:`ensure` call
  forks a fresh generation. Degradation (process → thread → serial) and
  retries never assume a fresh pool.

Lifecycle telemetry: ``pool.start`` / ``pool.reuse`` / ``pool.recycle``
/ ``pool.shutdown`` events, plus the startup/initializer timings the
engine republishes as ``parallel.pool_startup_seconds`` /
``parallel.attach_seconds``.
"""

from __future__ import annotations

import multiprocessing
import weakref
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

from repro.parallel.worker import _process_init, _warmup_ping
from repro.telemetry import events
from repro.telemetry.clock import monotonic as _monotonic

#: Seconds to wait for the warmup pings before giving up on measuring
#: initializer time (the pool still works; the metric just reads 0).
WARMUP_TIMEOUT = 30.0


class WarmWorkerPool:
    """A process or thread executor that outlives ``run()`` calls.

    ``kind`` is ``"process"`` or ``"thread"``; ``engine`` (process pools
    only) is what every forked worker walks. The pool keeps only a weak
    reference to it, so dropping the engine's last user reference still
    runs its ``close()`` and shuts the pool down.
    """

    def __init__(self, kind: str, workers: int, engine=None):
        if kind not in ("process", "thread"):
            raise ValueError(f"kind must be 'process' or 'thread', got {kind!r}")
        self.kind = kind
        self.workers = int(workers)
        self._engine_ref = weakref.ref(engine) if engine is not None else None
        self.executor = None
        self.broken = False
        #: Pool builds so far (1 after first ensure; +1 per recycle).
        self.generation = 0
        #: Wall seconds the most recent build spent (executor creation
        #: plus warmup); 0.0 reported for reused-warm serves.
        self.startup_seconds = 0.0
        #: Summed per-worker initializer seconds of the most recent
        #: build (reported by the warmup pings).
        self.attach_seconds = 0.0

    @property
    def warm(self) -> bool:
        """True when :meth:`ensure` would reuse the live executor."""
        return self.executor is not None and not self.broken

    def ensure(self):
        """Return ``(executor, reused)``; builds or rebuilds if needed."""
        if self.warm:
            events.emit("pool.reuse", pool=self.kind,
                        generation=self.generation)
            return self.executor, True
        if self.executor is not None:
            # Broken executor from a previous generation: detach without
            # waiting (a hung worker must not block the rebuild).
            self.executor.shutdown(wait=False, cancel_futures=True)
            self.executor = None
        t0 = _monotonic()
        attach = 0.0
        if self.kind == "process":
            executor = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_process_init,
                initargs=(self._engine_ref,),
            )
            # Warmup: one ping per worker slot forces every process to
            # fork (and so to run its initializer) before any real chunk
            # is enqueued. Each ping reports its worker's initializer
            # cost; sum over distinct pids — a fast worker may answer
            # several pings.
            try:
                pings = [executor.submit(_warmup_ping)
                         for _ in range(self.workers)]
                seen = {}
                for ping in pings:
                    pid, seconds = ping.result(timeout=WARMUP_TIMEOUT)
                    seen[pid] = seconds
                attach = float(sum(seen.values()))
            except Exception:
                # A worker died during warmup; the supervisor will see
                # BrokenExecutor on the first real submit and recycle.
                attach = 0.0
        else:
            executor = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="walk"
            )
        self.executor = executor
        self.broken = False
        self.generation += 1
        self.startup_seconds = _monotonic() - t0
        self.attach_seconds = attach
        events.emit(
            "pool.start", pool=self.kind, workers=self.workers,
            generation=self.generation,
            startup_seconds=round(self.startup_seconds, 6),
            attach_seconds=round(self.attach_seconds, 6),
        )
        return self.executor, False

    def mark_broken(self, reason: str) -> None:
        """Condemn the current generation; the next ensure() rebuilds.

        Shutdown never waits: the pool is being condemned precisely
        because a worker hung or died, so joining it could deadlock.
        """
        if self.broken:
            return
        self.broken = True
        events.emit("pool.recycle", pool=self.kind, reason=reason,
                    generation=self.generation)

    def close(self, wait: bool = True) -> None:
        """Dispose the executor (end of the owning engine's life); join
        its workers when ``wait`` and the pool is not broken."""
        if self.executor is None:
            return
        self.executor.shutdown(wait=wait and not self.broken,
                               cancel_futures=True)
        self.executor = None
        events.emit("pool.shutdown", pool=self.kind,
                    generation=self.generation)
