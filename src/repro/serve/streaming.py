"""Live-ingest serving: the daemon's bridge to a streaming engine.

:class:`StreamService` wraps one :class:`~repro.streaming.batch.
StreamingTeaEngine` for the HTTP front-end. The daemon calls it only
from its one loop thread, so writes (``/stream/ingest``; the
incremental HPAT is a single-mutator structure) are serialised by
construction, and reads (``/stream/walk``, ``/stream/recommend``) pin
an immutable :class:`~repro.streaming.snapshot.EpochView`, whose
arrays are frozen at publish time.

That pin is the serving-side isolation contract: a request carrying
``"epoch": N`` gets bit-identical walks no matter how much ingest has
happened since epoch N was published (within the engine's retention
window; older epochs answer 410). Requests without an epoch pin the
newest view — never a half-applied batch.
"""

from __future__ import annotations

from typing import Optional

from repro.exceptions import (
    EpochRetiredError,
    GraphFormatError,
    NotSupportedError,
    ServeError,
)
from repro.rng import make_rng, spawn_seeds
from repro.serve.protocol import (
    MAX_WALKS_PER_REQUEST, SERVE_SCHEMA, _require, rank_frontier, valid_ids,
    valid_int, walk_lists,
)
from repro.telemetry.registry import MetricsRegistry


class StreamService:
    """Validated JSON handlers over one streaming engine."""

    def __init__(self, engine, registry: Optional[MetricsRegistry] = None):
        self.engine = engine
        self.registry = registry if registry is not None else MetricsRegistry()
        self._ingested = self.registry.counter(
            "serve.stream_edges", "edges accepted via /stream/ingest"
        )
        self._walked = self.registry.counter(
            "serve.stream_walks", "walks served from pinned epochs"
        )

    # -- GET /stream/epoch -------------------------------------------------

    def epoch_info(self) -> dict:
        view = self.engine.pin()
        return {
            "schema": SERVE_SCHEMA,
            "epoch": int(view.epoch),
            "num_edges": int(view.num_edges),
            "retained_epochs": len(self.engine._views),
            "durable": bool(self.engine.durable),
        }

    # -- POST /stream/ingest -----------------------------------------------

    def ingest(self, payload) -> dict:
        _require(isinstance(payload, dict), "request body must be a JSON object")
        columns = []
        for key in ("src", "dst", "time"):
            col = payload.get(key)
            _require(
                isinstance(col, (list, tuple)) and len(col) > 0,
                f"'{key}' must be a non-empty list",
            )
            _require(
                all(isinstance(x, (int, float)) and not isinstance(x, bool)
                    for x in col),
                f"'{key}' entries must be numbers",
            )
            columns.append(col)
        src, dst, times = columns
        _require(
            len(src) == len(dst) == len(times),
            "'src', 'dst' and 'time' must have equal lengths",
        )
        sync = payload.get("sync")
        _require(
            sync is None or isinstance(sync, bool),
            "'sync' must be a boolean when given",
        )
        try:
            out = self.engine.add_multiple_edges(src, dst, times, sync=sync)
        except (GraphFormatError, NotSupportedError) as exc:
            # Malformed columns or a stream-order violation: the batch
            # was rejected atomically — the client's fault.
            raise ServeError(str(exc))
        self._ingested.inc(out["edges"])
        return {
            "schema": SERVE_SCHEMA,
            "kind": "stream_ingest",
            "edges": int(out["edges"]),
            "epoch": int(out["epoch"]),
            "num_edges": int(out["num_edges"]),
        }

    # -- POST /stream/walk | /stream/recommend -----------------------------

    def walk(self, payload, kind: str) -> dict:
        _require(isinstance(payload, dict), "request body must be a JSON object")
        starts = valid_ids(payload)
        _require(
            len(starts) <= MAX_WALKS_PER_REQUEST,
            f"request exceeds {MAX_WALKS_PER_REQUEST} walks",
        )
        max_length = valid_int(payload, "max_length", 20)
        seed = valid_int(payload, "seed", 0, low=0)
        epoch = payload.get("epoch")
        _require(epoch is None or isinstance(epoch, int),
                 "'epoch' must be an integer when given")
        top_k = valid_int(payload, "top_k", 5)
        try:
            view = self.engine.pin(epoch)
        except EpochRetiredError as exc:
            raise ServeError(str(exc), status=410)
        frontier = view.run_lanes(
            starts, spawn_seeds(make_rng(seed), len(starts)), max_length)
        self._walked.inc(len(starts))
        lengths = frontier.lengths.tolist()
        walks, times = walk_lists(frontier, 0, len(starts), lengths)
        response = {
            "schema": SERVE_SCHEMA,
            "kind": f"stream_{kind}",
            "epoch": int(view.epoch),
            "num_edges": int(view.num_edges),
            "num_walks": len(starts),
            "lengths": lengths,
            "walks": walks,
            "times": times,
        }
        if kind == "recommend":
            response["recommendations"] = rank_frontier(
                frontier, 0, len(starts), top_k)
        return response

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        self.engine.close()
