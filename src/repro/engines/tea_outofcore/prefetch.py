"""Async trunk prefetcher: overlap disk I/O with sampling compute.

ThunderRW's lesson (VLDB '21) applied to the disk tier: the batched
out-of-core engine knows, after advancing the frontier, which vertices
the *next* iteration will sample — so the trunk ranges they will touch
can be read while the current iteration's alias draws and β tests are
still running on the main thread.

One daemon worker thread serves a double-buffered request queue
(``maxsize=2``: the job in service plus one queued behind it — deeper
queues only grow the window for stale predictions). A job is columnar:
per region, the sorted pool keys (one frame per region file) of one
step's predicted trunks with their ``lo`` / length columns. The worker touches nothing but the
read-only memory-maps (:meth:`TrunkStore._fetch`: coalesce, then one
gather per file into a staging matrix, GIL released); every result is
handed back to the sampling thread, which admits it into the pool at
the next :meth:`drain`. The pool and all counters therefore stay
single-threaded — the same discipline as the parallel executor's
per-worker telemetry.

Accounting is conservation-checked (tested, exported):
``prefetch.issued == prefetch.hits + prefetch.wasted + in_flight`` —
every submitted frame key (an alias trunk is two: prob and alias)
ends in exactly one bucket: consumed by the sampler
(hit), warmed but never used (wasted), or still queued when the run
ended (in flight). Worker busy time is exported as
``ooc.io_overlap_seconds``: I/O the walk did not wait for.
"""

from __future__ import annotations

import queue
import threading
from collections import deque
from typing import Iterable, Optional

import numpy as np

from repro.core.outofcore import TrunkStore
from repro.sampling.counters import CostCounters
from repro.telemetry.clock import now as _clock_now

#: Request-queue depth: the job in service plus one behind it.
QUEUE_DEPTH = 2


class AsyncPrefetcher:
    """Thread-based read-ahead for a :class:`TrunkStore`.

    ``submit`` filters and enqueues one step's predicted ranges;
    ``drain`` (sampling thread, non-blocking) admits finished blocks
    into the cache pinned, so the coalesced miss reads of the very step
    that needs them cannot evict them first. ``close`` joins the worker
    and settles the conservation ledger on the store.
    """

    def __init__(self, store: TrunkStore):
        self.store = store
        self._requests: "queue.Queue" = queue.Queue(maxsize=QUEUE_DEPTH)
        self._results: "queue.Queue" = queue.Queue()
        # Key columns of the jobs submitted but not yet answered, oldest
        # first (one worker: answers arrive in submission order).
        self._outstanding: deque = deque()
        self._in_flight = 0
        self._busy_seconds = 0.0
        self._stop = False
        #: Set by the worker on an unhandled error (checksum failure,
        #: exhausted retries, injected fault): the engine sees it and
        #: falls back to synchronous reads — a dead prefetcher must
        #: degrade, never vanish.
        self.failed = False
        self._thread: Optional[threading.Thread] = None

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._worker, name="tea-ooc-prefetch", daemon=True
        )
        self._thread.start()

    # -- sampling-thread API ---------------------------------------------------

    def submit(self, requests: Iterable[tuple]) -> None:
        """Enqueue one step's predictions — ``(region, los, his)``
        columns, at most one entry per region — skipping anything already resident, awaited, or
        requested, and anything too wide for a pool frame. A full queue
        drops the job — the walk is outrunning the disk and stale
        predictions would only waste reads — but drops are *counted*
        (``prefetch.dropped``), so the accounting stays conserved and
        the backpressure visible."""
        if self.failed:
            return
        store = self.store
        job = []
        for region, los, his in requests:
            los = np.asarray(los, dtype=np.int64)
            lens = np.asarray(his, dtype=np.int64) - los
            if not los.size:
                continue
            keys = store.frame_keys(region, los, lens)
            first = np.unique(keys[:, 0], return_index=True)[1]
            keys, los, lens = keys[first], los[first], lens[first]
            keep = (lens <= store.frame_entries(int(lens.max()))) & (
                store.cache.find(keys.ravel()).reshape(keys.shape) < 0
            ).any(axis=1)
            if self._outstanding:
                keep &= ~np.isin(keys[:, 0], np.concatenate(self._outstanding))
            if keep.any():
                job.append((region, keys[keep], los[keep], lens[keep]))
        if not job:
            return
        keys = np.concatenate([part[1].ravel() for part in job])
        try:
            self._requests.put_nowait(job)
        except queue.Full:
            store.note_prefetch_dropped(keys.size)
            return
        self._outstanding.append(keys)
        store.note_prefetch_issued(keys.size)

    def drain(
        self,
        counters: Optional[CostCounters] = None,
        wait: bool = False,
        timeout: float = 5.0,
    ) -> None:
        """Admit every finished job (sampling thread).

        Non-blocking by default. With ``wait=True`` the drain blocks
        (bounded by ``timeout``) until every outstanding job has
        settled: the submissions were predicted for the very next
        ``read_batch``, which would otherwise re-read the same trunk
        ranges synchronously while the worker's late results arrive as
        wasted duplicates. Waiting out the residual I/O makes the
        hit/wasted split a property of the access pattern, not of
        thread scheduling — the overlap win (the worker started during
        the previous step's compute) is kept either way.

        A finished job's regions are admitted pinned, and its backing
        runs charged to the walk's own counters
        (:meth:`TrunkStore.admit_prefetched`). A job the worker skipped
        (the run is over) or failed on settles as in-flight: issued,
        never produced. After a failure the engine sees ``failed``
        and reads synchronously from here on — where the same error, if
        persistent, surfaces on the sampling thread instead of
        vanishing.
        """
        deadline = (_clock_now() + timeout) if wait else 0.0
        while True:
            try:
                kind, payload = self._results.get_nowait()
            except queue.Empty:
                if not wait or not self._outstanding or self.failed:
                    return
                remaining = deadline - _clock_now()
                if remaining <= 0:
                    return
                try:
                    kind, payload = self._results.get(
                        timeout=min(remaining, 0.05)
                    )
                except queue.Empty:
                    continue
            keys = self._outstanding.popleft()
            if kind == "done":
                for part in payload:
                    self.store.admit_prefetched(*part, counters)
                continue
            self._in_flight += keys.size
            if kind == "failed":
                self.store.note_prefetch_failure()

    def close(self, counters: Optional[CostCounters] = None) -> None:
        """Stop the worker, admit its last results, settle the ledger."""
        if self._thread is None:
            return
        self._stop = True
        self._requests.put(None)
        self._thread.join()
        self._thread = None
        self.drain(counters)
        # Anything still unaccounted was submitted but never produced.
        in_flight = self._in_flight + sum(k.size for k in self._outstanding)
        self._outstanding.clear()
        self._in_flight = 0
        self.store.finalize_prefetch(in_flight, self._busy_seconds)

    # -- worker thread ---------------------------------------------------------

    def _worker(self) -> None:
        while True:
            job = self._requests.get()
            if job is None:
                return
            if self._stop or self.failed:
                # The run is over (or the worker already failed): answer
                # the job unread so it is settled as in-flight, not
                # silently dropped.
                self._results.put(("skipped", None))
                continue
            try:
                injector = self.store.fault_injector
                if injector is not None:
                    injector.check("prefetch")
                t0 = _clock_now()
                out = [
                    (keys, lens, *self.store._fetch(region, los, lens))
                    for region, keys, los, lens in job
                ]
                self._busy_seconds += _clock_now() - t0
            except Exception as exc:  # noqa: BLE001 — a dying worker
                # thread is the silent-failure mode this guards against.
                self.failed = True
                self._results.put(("failed", repr(exc)))
                continue
            self._results.put(("done", out))
