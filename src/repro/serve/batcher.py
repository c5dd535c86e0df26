"""Parked requests, admission control, and natural batching.

The daemon's one loop thread (:mod:`repro.serve.server`) *parks* each
walk query it parses with :meth:`Batcher.submit`; after each ``select``
round, :meth:`Batcher.run` takes everything parked, groups it by
:meth:`~repro.serve.protocol.WalkRequest.batch_key` and hands each
group to the executor as one frontier run. Walk engines are not
re-entrant (shared scratch arenas), so one thread is both the safety
argument and the batching opportunity. Batching is *natural*: whatever
arrived while one batch ran is the next batch, so there is no window to
tune (docs/serving.md has the measurements). Admission control is the
parked bound: a full list rejects at submit (the HTTP layer answers
429). Every counter moves on the loop thread, so between two rounds

    serve.received == serve.served + serve.rejected + serve.failed
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from repro.serve.protocol import WalkRequest
from repro.telemetry import events
from repro.telemetry.clock import now
from repro.telemetry.registry import LATENCY_BUCKETS, MetricsRegistry
from repro.walks.spec import WalkSpec


@dataclass
class PendingRequest:
    """A parked request; the batcher fills ``response`` or ``error``."""

    request: WalkRequest
    request_id: str
    spec: WalkSpec
    response: Optional[dict] = None
    error: Optional[BaseException] = None
    admitted_at: float = 0.0  # clock stamp set by Batcher.submit
    #: The HTTP layer's handle for the answer (its connection and timing).
    reply: Any = None

    def batch_key(self):
        return self.request.batch_key(self.spec)


class Batcher:
    """A bounded FIFO of parked requests, executed as natural batches."""

    def __init__(self, executor, max_depth: int = 64, max_batch: int = 64,
                 registry: Optional[MetricsRegistry] = None):
        if max_depth < 1 or max_batch < 1:
            raise ValueError("max_depth and max_batch must be >= 1")
        self.executor = executor
        self.max_depth = int(max_depth)
        self.max_batch = int(max_batch)
        self.parked: List[PendingRequest] = []
        reg = registry if registry is not None else MetricsRegistry()
        self._received = reg.counter(
            "serve.received", "requests that reached admission control")
        self._rejected = reg.counter(
            "serve.rejected", "requests rejected by admission control (429)")
        self._depth = reg.gauge("serve.queue_depth", "parked requests", agg="max")
        self._served = reg.counter("serve.served", "requests answered 200")
        self._failed = reg.counter("serve.failed", "requests failed in execution")
        self._batches = reg.counter("serve.batches", "frontier runs executed")
        self._coalesced = reg.counter(
            "serve.coalesced", "requests that shared a batch with another")
        self._batch_size = reg.histogram(
            "serve.batch_size", "requests coalesced per frontier run")
        self._queue_wait = reg.histogram(
            "serve.queue_wait_seconds",
            "admission to hand-off to the executor, per request", **LATENCY_BUCKETS)
        self._execute = reg.histogram(
            "serve.execute_seconds", "executor time per frontier run",
            **LATENCY_BUCKETS)

    def submit(self, pending: PendingRequest) -> bool:
        """Park ``pending`` unless the bound is reached; both counted."""
        self._received.inc()
        if len(self.parked) >= self.max_depth:
            self._rejected.inc()
            return False
        pending.admitted_at = now()
        self.parked.append(pending)
        self._depth.set(len(self.parked))
        return True

    def depth(self) -> int:
        return len(self.parked)

    def run(self) -> List[PendingRequest]:
        """Execute the oldest ``max_batch`` parked requests and return
        them, each with a response or an error (a failed group fails
        each of its requests, not the loop)."""
        batch = self.parked[:self.max_batch]
        del self.parked[:self.max_batch]
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
            handed = now()
            for pending in group:
                self._queue_wait.observe(handed - pending.admitted_at)
            try:
                self.executor.execute(group)
                self._served.inc(len(group))
            except Exception as exc:  # noqa: BLE001 - answer, don't die
                self._failed.inc(len(group))
                for pending in group:
                    pending.response, pending.error = None, exc
            self._execute.observe(now() - handed)
        return batch
