"""Batched streaming execution: walk while the graph grows, durably.

The paper's streaming setting (Section 3.5): updates arrive as
time-ordered batches of *new* edges; PAT/HPAT are extended incrementally
(carry-merge of trunk hierarchies, Figure 7) instead of rebuilt.
:class:`StreamingTeaEngine` owns an
:class:`~repro.core.incremental.IncrementalHPAT` — per vertex a carry
forest of blocks, each block its edges and their prefix masses (the
paper's in-trunk alias tables stay with the static
:mod:`repro.core.hpat`) — and interleaves ``apply_batch`` calls with
temporal walks over everything ingested so far. A burst (``run_walks``)
runs on the current epoch's packed columns, a single ``walk`` directly
on the block forest — the scalar specification of the same two-uniform
draw — so no global rebuild ever happens between batches.

On top of the paper's in-memory maintenance this engine layers the two
production properties ROADMAP item 3 asks for:

**Durability** (opt-in via ``wal_dir``). Every accepted batch is applied
to the index and then appended to a CRC-framed write-ahead log
(:mod:`repro.streaming.wal`) — log-after-apply, so a batch the index
*rejects* (stream-order violation, injected fault) is never logged, and
a batch whose WAL append fails is rolled back out of the index before
the error propagates. Either way, "accepted" and "will survive a crash"
are the same set of batches. Opening an engine on an existing
``wal_dir`` recovers it: load the checkpoint (if any) batch-by-batch,
replay the WAL suffix record-by-record, truncate any torn tail. Because
both paths reproduce the original batch boundaries, the recovered index
is *structurally* identical to the never-crashed one — walks are
bit-identical, not merely distribution-identical.

**Snapshot isolation.** Each accepted batch advances ``epoch`` and
publishes an immutable :class:`~repro.streaming.snapshot.EpochView`
(copy-on-write: only vertices the batch touched are re-pinned). Readers
call :meth:`pin` and walk the view; a pinned epoch's results are
byte-stable no matter how much ingest happens meanwhile. The newest
``retain_epochs`` views stay pinnable by id; older ones are retired
(readers holding a reference keep it alive — retirement only bounds the
id-lookup window).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional

import numpy as np

from repro.core.incremental import IncrementalHPAT
from repro.exceptions import EpochRetiredError, NotSupportedError
from repro.graph.edge_stream import EdgeStream
from repro.rng import RngLike, make_rng
from repro.sampling.counters import CostCounters
from repro.streaming.snapshot import (
    EpochReads,
    EpochView,
    load_checkpoint,
    walk_index,
    write_checkpoint,
)
from repro.streaming.wal import DEFAULT_SEGMENT_BYTES, WriteAheadLog
from repro.telemetry import LATENCY_BUCKETS, MetricsRegistry, clock, events
from repro.walks.spec import WalkSpec
from repro.walks.walker import WalkPath


class StreamingTeaEngine:
    """Incremental-HPAT walk engine for edge streams.

    Applications with a Dynamic parameter (node2vec's β) are not
    supported in streaming mode — β needs the static adjacency oracle,
    which would itself need incremental maintenance; the paper's
    streaming evaluation (Figure 13d) uses the weight-only applications.

    Parameters
    ----------
    wal_dir:
        Directory for the write-ahead log + checkpoint manifest. ``None``
        (default) keeps the engine purely in-memory — PR 4 semantics.
        Pointing it at a non-empty directory *recovers* the engine from
        the durable state before accepting new batches.
    segment_bytes / group_commit:
        WAL tuning (see :class:`~repro.streaming.wal.WriteAheadLog`).
    retain_epochs:
        How many recent epoch views stay pinnable by id.
    """

    def __init__(self, spec: WalkSpec, registry: Optional[MetricsRegistry] = None,
                 fault_injector=None, wal_dir=None,
                 segment_bytes: int = DEFAULT_SEGMENT_BYTES,
                 group_commit: int = 1, retain_epochs: int = 4):
        if spec.has_dynamic_parameter:
            raise NotSupportedError(
                "streaming mode supports weight-only applications "
                "(no Dynamic_parameter)"
            )
        if retain_epochs <= 0:
            raise ValueError("retain_epochs must be positive")
        self.spec = spec
        self.fault_injector = fault_injector
        self.index = IncrementalHPAT(spec.weight_model,
                                     fault_injector=fault_injector)
        self.counters = CostCounters()
        # Ingestion telemetry accumulates here; walk-side counters join
        # it on telemetry_snapshot() so repeated snapshots never
        # double-count.
        self.registry = registry if registry is not None else MetricsRegistry()
        # Looked up once: a 1-edge batch is ~50 us, four lookups show.
        self._stage_seconds = [
            self.registry.histogram(
                f"streaming.{stage}_seconds", "seconds per accepted batch "
                "(apply = index_apply + wal_append + publish)",
                **LATENCY_BUCKETS)
            for stage in ("apply", "index_apply", "wal_append", "publish")
        ]
        # Read side, shared by every published view (same reason).
        self._reads = EpochReads(self.registry)
        #: Monotone batch counter; every accepted batch advances it and
        #: publishes a frozen view under the new id.
        self.epoch = 0
        self._retain_epochs = int(retain_epochs)
        self._views: "OrderedDict[int, EpochView]" = OrderedDict()
        self._current_view = EpochView.capture(0, self.index,
                                               reads=self._reads)
        self._views[0] = self._current_view
        # Accepted batches in arrival order — the checkpoint source, with
        # its batch boundaries. O(E) like the index.
        self._history: List[EdgeStream] = []
        self.wal: Optional[WriteAheadLog] = None
        self.recovered_batches = 0
        self.recovered_edges = 0
        if wal_dir is not None:
            self._recover(wal_dir, segment_bytes, group_commit)

    # -- durability --------------------------------------------------------

    @property
    def durable(self) -> bool:
        return self.wal is not None

    def _recover(self, wal_dir, segment_bytes: int, group_commit: int) -> None:
        """Rebuild from checkpoint + WAL, then open the log for appends.

        Order matters: the :class:`WriteAheadLog` constructor repairs a
        torn tail *first*, so the subsequent replay only ever sees
        durable frames.
        """
        t0 = clock.now()
        wal = WriteAheadLog(wal_dir, segment_bytes=segment_bytes,
                            group_commit=group_commit,
                            fault_injector=self.fault_injector)
        start = None
        loaded = load_checkpoint(wal_dir)
        if loaded is not None:
            manifest, src, dst, times, batch_sizes = loaded
            bounds = np.concatenate([[0], np.cumsum(batch_sizes)])
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                self._apply_to_index(EdgeStream.from_arrays(
                    src[lo:hi], dst[lo:hi], times[lo:hi], require_sorted=True
                ))
                self.epoch += 1
            self.recovered_batches += int(batch_sizes.size)
            self.recovered_edges += int(src.size)
            start = (manifest["wal"]["segment"], manifest["wal"]["offset"])
        for _lsn, src, dst, times in WriteAheadLog.replay(wal_dir, start=start):
            self._apply_to_index(EdgeStream.from_arrays(
                src, dst, times, require_sorted=True))
            self.epoch += 1
            self.recovered_batches += 1
            self.recovered_edges += int(src.size)
        self.wal = wal
        self._publish_epoch()
        elapsed = clock.now() - t0
        if self.recovered_batches or wal.truncated_tail_bytes:
            events.emit(
                "streaming.recovered", batches=int(self.recovered_batches),
                edges=int(self.recovered_edges), epoch=int(self.epoch),
                truncated_tail_bytes=int(wal.truncated_tail_bytes),
                seconds=elapsed,
            )

    def checkpoint(self) -> dict:
        """Persist the full history + manifest, then trim old WAL segments.

        Bounds recovery: replay restarts from the manifest's WAL
        position instead of the beginning of time. Returns the manifest.
        """
        if self.wal is None:
            raise NotSupportedError(
                "checkpoint requires a durable engine (wal_dir)"
            )
        self.wal.sync()
        src, dst, times = (
            np.concatenate([np.zeros(0, dtype)]
                           + [getattr(batch, name) for batch in self._history])
            for name, dtype in (("src", np.int64), ("dst", np.int64),
                                ("time", np.float64)))
        batch_sizes = np.array([len(batch) for batch in self._history],
                               dtype=np.int64)
        manifest = write_checkpoint(
            self.wal.directory, src, dst, times, batch_sizes,
            epoch=self.epoch, wal_position=self.wal.position,
            fault_injector=self.fault_injector,
        )
        self.wal.trim_before(manifest["wal"]["segment"])
        self.registry.counter("streaming.checkpoints", "checkpoints written").inc()
        return manifest

    def close(self) -> None:
        """Release what the engine holds beyond its index: the log, and
        the cached pack (a closed engine often outlives its use; a view
        a reader still holds rebuilds the pack on its next burst)."""
        self._reads.cached = None
        if self.wal is not None:
            self.wal.close()

    def __enter__(self) -> "StreamingTeaEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- ingestion ---------------------------------------------------------

    def _apply_to_index(self, batch: EdgeStream) -> dict:
        """Apply + record history, no WAL write (the recovery path;
        :meth:`apply_batch` logs after it). Returns the index's undo
        record."""
        undo = self.index.apply_batch(batch)
        self._history.append(batch)
        return undo

    def apply_batch(self, batch: EdgeStream, sync: Optional[bool] = None) -> None:
        """Ingest one time-ordered batch of new edges.

        Atomic *and* durability-consistent: a batch the index rejects is
        rolled back in memory and never logged (PR 4 semantics); a batch
        the WAL fails to persist is undone from the index before the
        error propagates. A batch this method returns from is applied,
        logged, and published as a new epoch. ``sync`` forces (or, with
        ``False``, defers) the fsync barrier for this batch.
        """
        if not len(batch):
            return
        t0 = clock.now()
        try:
            undo = self._apply_to_index(batch)
        except BaseException as exc:
            self._count_rollback(batch, exc)
            raise
        t_applied = clock.now()
        if self.wal is not None:
            try:
                self.wal.append_edges(batch.src, batch.dst, batch.time,
                                      sync=sync)
            except BaseException as exc:
                # The index accepted the batch but it will not survive a
                # crash: undo it so acceptance == durability.
                self._history.pop()
                self.index.restore_vertices(undo, len(batch))
                self._count_rollback(batch, exc)
                raise
        t_logged = clock.now()
        self.epoch += 1
        self._publish_epoch()
        t_published = clock.now()
        self.registry.counter("streaming.batches", "update batches applied").inc()
        self.registry.counter("streaming.edges", "edges ingested").inc(len(batch))
        self.registry.histogram(
            "streaming.batch_edges", "edges per update batch"
        ).observe(len(batch))
        # Stage clocks partition the accepted batch; rollbacks are not timed.
        for hist, seconds in zip(self._stage_seconds, (
                t_published - t0, t_applied - t0, t_logged - t_applied,
                t_published - t_logged)):
            hist.observe(seconds)

    def _count_rollback(self, batch: EdgeStream, exc: BaseException) -> None:
        self.registry.counter(
            "resilience.rollbacks",
            "streaming batches rolled back by mid-apply failures",
        ).inc()
        events.emit("streaming.rollback", edges=len(batch),
                    error=type(exc).__name__)

    def add_multiple_edges(self, src, dst, times,
                           sync: Optional[bool] = None) -> dict:
        """Vectorised bulk ingest: array columns in, one epoch out.

        The whole column set becomes a single incremental-HPAT batch
        (one argsort, one per-vertex group append, one WAL record) —
        the high-throughput path the ingest benchmark measures against
        a per-edge ``apply_batch`` loop. Timestamps must already be
        ascending (:meth:`EdgeStream.from_arrays` validates; violations
        raise :class:`~repro.exceptions.GraphFormatError` rather than
        being re-sorted, because silently reordering a stream is how
        you corrupt a replay).
        """
        batch = EdgeStream.from_arrays(src, dst, times, require_sorted=True)
        self.apply_batch(batch, sync=sync)
        return {"edges": len(batch), "epoch": self.epoch,
                "num_edges": self.num_edges}

    def ingest(self, stream: EdgeStream, batch_size: int) -> int:
        """Ingest a whole stream in fixed-size batches; returns batch count."""
        count = 0
        for batch in stream.batches(batch_size):
            self.apply_batch(batch)
            count += 1
        return count

    @property
    def num_edges(self) -> int:
        return self.index.num_edges

    def active_vertices(self) -> List[int]:
        """Vertices that currently have out-edges: the current epoch's
        sorted ids, sorted once per epoch."""
        return self._current_view.active_vertices()

    # -- epochs ------------------------------------------------------------

    def _publish_epoch(self) -> None:
        view = EpochView.capture(self.epoch, self.index,
                                 previous=self._current_view,
                                 reads=self._reads)
        self._current_view = view
        self._views[view.epoch] = view
        while len(self._views) > self._retain_epochs:
            self._views.popitem(last=False)

    def pin(self, epoch: Optional[int] = None) -> EpochView:
        """Pin an epoch for isolated reads (default: the current one).

        The returned view is immutable — walks over it are byte-stable
        however much ingest happens concurrently. Pinning by id only
        works inside the retention window; older ids raise
        :class:`~repro.exceptions.EpochRetiredError`.
        """
        if epoch is None:
            return self._current_view
        view = self._views.get(int(epoch))
        if view is None:
            raise EpochRetiredError(
                f"epoch {int(epoch)} is outside the retention window "
                f"(oldest pinnable: {next(iter(self._views))}, "
                f"current: {self.epoch})"
            )
        return view

    # -- walking -----------------------------------------------------------

    def walk(
        self,
        start: int,
        max_length: int,
        seed: RngLike = None,
    ) -> WalkPath:
        """One temporal walk over everything ingested so far."""
        rng = make_rng(seed)
        return walk_index(self.index, int(start), int(max_length), rng,
                          self.counters)

    def run_walks(
        self,
        starts,
        max_length: int = 80,
        seed: RngLike = 0,
    ) -> List[WalkPath]:
        """Walks from each start vertex over the current epoch (see
        :meth:`EpochView.run_walks`)."""
        return self.pin().run_walks(starts, max_length, seed, self.counters)

    def nbytes(self) -> int:
        return self.index.nbytes()

    def telemetry_snapshot(self) -> MetricsRegistry:
        """Fresh registry: ingestion metrics + current walk counters.

        The engine's own registry only accumulates ingestion events;
        the sampling counters are folded into the *copy*, so calling
        this repeatedly never double-publishes them.
        """
        snapshot = MetricsRegistry().merge(self.registry)
        self.counters.publish(snapshot)
        snapshot.gauge("streaming.index_bytes", "incremental HPAT bytes").set(
            self.index.nbytes()
        )
        snapshot.gauge("streaming.num_edges", "edges ingested so far").set(
            self.num_edges
        )
        snapshot.gauge("streaming.epoch", "current published epoch").set(
            self.epoch
        )
        snapshot.gauge(
            "streaming.retained_epochs", "epoch views pinnable by id"
        ).set(len(self._views))
        if self.wal is not None:
            snapshot.counter(
                "wal.appended_records", "WAL records appended since open"
            ).inc(self.wal.appended_records)
            snapshot.counter(
                "wal.appended_bytes", "WAL bytes appended since open"
            ).inc(self.wal.appended_bytes)
            snapshot.counter("wal.fsyncs", "fsync barriers run").inc(
                self.wal.fsyncs
            )
            snapshot.counter("wal.rotations", "segment rotations").inc(
                self.wal.rotations
            )
            snapshot.gauge(
                "wal.truncated_tail_bytes", "torn bytes dropped at open"
            ).set(self.wal.truncated_tail_bytes)
            snapshot.gauge(
                "streaming.recovered_batches", "batches replayed at open"
            ).set(self.recovered_batches)
        return snapshot
