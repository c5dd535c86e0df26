"""Request queue, admission control, and the coalescing batcher.

The daemon's concurrency model is deliberately simple: HTTP handler
threads *park* requests in a bounded :class:`RequestQueue` and block on
a per-request event; one :class:`Batcher` thread drains the queue,
groups compatible requests by :meth:`~repro.serve.protocol.WalkRequest.
batch_key`, and hands each group to the executor as a single frontier
run. Walk engines are not re-entrant (shared scratch arenas), so a
single consumer is both the safety argument and the batching
opportunity. Batching is *natural*: the batcher blocks only while the
queue is empty and then takes everything already parked, so whatever
arrived while one batch ran is the next batch — an idle daemon serves a
lone request at once, a busy one coalesces, and there is no window to
tune (docs/serving.md has the measurements).

Admission control is the queue bound: a full queue rejects at submit
time (the HTTP layer maps this to 429) rather than buffering unbounded
work. Telemetry conservation is the invariant the stress tests assert:

    serve.received == serve.served + serve.rejected + serve.failed

``received``/``rejected`` are counted inside the queue lock (handler
threads race on submit); ``served``/``failed`` only ever move in the
batcher thread.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import List, Optional

from repro.serve.protocol import WalkRequest
from repro.telemetry import events
from repro.telemetry.clock import monotonic
from repro.telemetry.registry import LATENCY_BUCKETS, MetricsRegistry
from repro.walks.spec import WalkSpec


@dataclass
class PendingRequest:
    """A parked request: the handler thread waits on ``done``."""

    request: WalkRequest
    request_id: str
    spec: WalkSpec
    done: threading.Event = field(default_factory=threading.Event)
    response: Optional[dict] = None
    error: Optional[BaseException] = None
    admitted_at: float = 0.0  # monotonic stamp set by RequestQueue.submit

    def batch_key(self):
        return self.request.batch_key(self.spec)

    def resolve(self, response: Optional[dict], error: Optional[BaseException]):
        self.response = response
        self.error = error
        self.done.set()


class RequestQueue:
    """Bounded FIFO with atomic admission accounting."""

    def __init__(self, max_depth: int = 64, registry: Optional[MetricsRegistry] = None):
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.max_depth = int(max_depth)
        self._cond = threading.Condition()
        self._items: "deque[PendingRequest]" = deque()
        self._closed = False
        self._paused = False
        registry = registry if registry is not None else MetricsRegistry()
        self._received = registry.counter(
            "serve.received", "requests that reached admission control"
        )
        self._rejected = registry.counter(
            "serve.rejected", "requests rejected by admission control (429)"
        )
        self._depth = registry.gauge("serve.queue_depth", "parked requests", agg="max")

    def submit(self, pending: PendingRequest) -> bool:
        """Admit or reject; both outcomes counted under the lock."""
        with self._cond:
            self._received.inc()
            if self._closed or len(self._items) >= self.max_depth:
                self._rejected.inc()
                return False
            pending.admitted_at = monotonic()
            self._items.append(pending)
            self._depth.set(len(self._items))
            self._cond.notify()
            return True

    def take(self, max_items: int, timeout: float = 0.2) -> List[PendingRequest]:
        """Pop everything already parked, up to ``max_items``; blocks
        (up to ``timeout``) only while there is nothing to hand out.

        A paused queue never hands out items: the flag is checked under
        the same lock as :meth:`submit`, so once :meth:`pause` returns,
        requests park deterministically until :meth:`resume` — tests
        rely on this to stage exact batch compositions."""
        with self._cond:
            if self._paused or not self._items:
                self._cond.wait(timeout)
            if self._paused or not self._items:
                return []
            batch = [
                self._items.popleft()
                for _ in range(min(max_items, len(self._items)))
            ]
            self._depth.set(len(self._items))
            return batch

    def pause(self) -> None:
        """Park the queue: admitted requests are held, not handed out."""
        with self._cond:
            self._paused = True
            self._cond.notify_all()

    def resume(self) -> None:
        with self._cond:
            self._paused = False
            self._cond.notify_all()

    def close(self) -> None:
        """Stop admitting; wakes any waiting take()."""
        with self._cond:
            self._closed = True
            self._paused = False
            self._cond.notify_all()

    def depth(self) -> int:
        with self._cond:
            return len(self._items)


class Batcher(threading.Thread):
    """Single consumer thread: drain → group by batch key → execute.

    ``pause()``/``resume()`` gate draining (tests use this to fill the
    queue deterministically); :meth:`stop` performs a bounded-join
    shutdown, draining whatever is already parked so no admitted
    request is abandoned.
    """

    def __init__(
        self,
        queue: RequestQueue,
        executor,
        max_batch: int = 64,
        registry: Optional[MetricsRegistry] = None,
    ):
        super().__init__(name="serve-batcher", daemon=True)
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.queue = queue
        self.executor = executor
        self.max_batch = int(max_batch)
        registry = registry if registry is not None else MetricsRegistry()
        self._served = registry.counter("serve.served", "requests answered 200")
        self._failed = registry.counter("serve.failed", "requests failed in execution")
        self._batches = registry.counter("serve.batches", "frontier runs executed")
        self._coalesced = registry.counter(
            "serve.coalesced", "requests that shared a batch with another"
        )
        self._batch_size = registry.histogram(
            "serve.batch_size", "requests coalesced per frontier run"
        )
        self._queue_wait = registry.histogram(
            "serve.queue_wait_seconds",
            "admission to hand-off to the executor, per request",
            **LATENCY_BUCKETS,
        )
        self._execute = registry.histogram(
            "serve.execute_seconds", "executor time per frontier run",
            **LATENCY_BUCKETS,
        )
        self._stopping = threading.Event()

    # -- control -----------------------------------------------------------

    def pause(self) -> None:
        """Hold admitted requests in the queue (delegates to the queue's
        lock-synchronised gate, so the pause is deterministic)."""
        self.queue.pause()

    def resume(self) -> None:
        self.queue.resume()

    def stop(self, timeout: float = 10.0) -> bool:
        """Close admission, drain, and join; True iff the join was clean."""
        self._stopping.set()
        self.queue.close()
        self.join(timeout)
        return not self.is_alive()

    # -- main loop ---------------------------------------------------------

    def run(self) -> None:
        while True:
            batch = self.queue.take(self.max_batch, timeout=0.1)
            if not batch:
                if self._stopping.is_set() and self.queue.depth() == 0:
                    break
                continue
            self._execute_groups(batch)

    def _execute_groups(self, batch: List[PendingRequest]) -> None:
        groups: "dict[tuple, List[PendingRequest]]" = {}
        for pending in batch:
            groups.setdefault(pending.batch_key(), []).append(pending)
        for group in groups.values():
            self._batches.inc()
            self._batch_size.observe(len(group))
            if len(group) > 1:
                self._coalesced.inc(len(group))
            events.emit(
                "serve.batch",
                requests=len(group),
                walks=sum(p.request.num_walks for p in group),
            )
            handed = monotonic()
            for pending in group:
                self._queue_wait.observe(handed - pending.admitted_at)
            error: Optional[BaseException] = None
            try:
                self.executor.execute(group)
            except BaseException as exc:  # noqa: BLE001 - resolve waiters
                error = exc
            self._execute.observe(monotonic() - handed)
            outcome = self._served if error is None else self._failed
            for pending in group:
                outcome.inc()
                pending.resolve(pending.response if error is None else None, error)
