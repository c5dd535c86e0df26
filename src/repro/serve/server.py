"""The `repro serve` daemon: HTTP front-end over the batching core.

Stdlib-only serving: a :class:`~http.server.ThreadingHTTPServer` parks
each POSTed query in the bounded :class:`~repro.serve.batcher.
RequestQueue` and blocks the handler thread on the request's event;
the single :class:`~repro.serve.batcher.Batcher` thread coalesces and
executes. GET endpoints expose health, Prometheus metrics, and a JSON
stats snapshot.

Endpoints
---------
``POST /walk``        run temporal random walks (paths + lengths)
``POST /recommend``   walks aggregated into a visit-count top-k
``POST /gnn/sample``  temporal neighbor blocks (per-request, inline)
``GET  /healthz``     liveness + uptime + engine kind + kernel backend
``GET  /metrics``     Prometheus text exposition
``GET  /stats``       session/queue/counter snapshot (JSON)

With a streaming engine attached (``streaming=`` / ``repro serve
--streaming-app``) four more come up, backed by
:class:`~repro.serve.streaming.StreamService`:

``POST /stream/ingest``     append an edge batch, advancing the epoch
``POST /stream/walk``       walk a pinned (or the newest) epoch view
``POST /stream/recommend``  same walks, aggregated into a top-k
``GET  /stream/epoch``      current epoch / edge count / durability

Every query gets its own 16-hex request id which doubles as the event
log ``run_id`` for its ``serve.request``/``serve.response`` span — one
id per request regardless of how the batcher groups them.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from repro.engines.session import TeaSession
from repro.exceptions import ServeError, TeaError
from repro.graph.temporal_graph import TemporalGraph
from repro.kernels import publish_backend
from repro.serve.batcher import Batcher, PendingRequest, RequestQueue
from repro.serve.executor import BatchExecutor
from repro.serve.protocol import MAX_BODY_BYTES, WalkRequest
from repro.serve.streaming import StreamService
from repro.telemetry import events
from repro.telemetry.clock import monotonic, now
from repro.telemetry.exporters import to_prometheus
from repro.telemetry.registry import LATENCY_BUCKETS, MetricsRegistry


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Small JSON requests/responses over keep-alive: Nagle + delayed
    # ACK would add multi-ms stalls per roundtrip on loopback.
    disable_nagle_algorithm = True

    # The service object rides on the server instance.
    @property
    def service(self) -> "WalkService":
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, fmt, *args):  # silence stderr chatter
        pass

    # -- helpers -----------------------------------------------------------

    def _send_json(self, status: int, payload: dict) -> None:
        self._send_text(status, json.dumps(payload), "application/json")

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        body = text.encode()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self):
        raw = self.headers.get("Content-Length", "")
        length = int(raw) if raw.isascii() and raw.isdigit() else -1
        if not 0 <= length <= MAX_BODY_BYTES:
            # The body stays unread, so drop the connection after the
            # answer rather than parse leftovers as the next request.
            self.close_connection = True
            if length < 0:
                raise ServeError("missing or malformed Content-Length")
            raise ServeError(
                f"request body exceeds {MAX_BODY_BYTES} bytes", status=413
            )
        try:
            return json.loads(self.rfile.read(length) or b"null")
        except (ValueError, UnicodeDecodeError):
            raise ServeError("request body is not valid JSON")

    # -- GET ---------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        service = self.service
        if self.path == "/healthz":
            self._send_json(200, {
                "status": "ok",
                "uptime_seconds": round(service.uptime_seconds(), 3),
                "engine": service.session.engine_kind,
                "kernel_backend": service.kernel_backend,
            })
        elif self.path == "/metrics":
            self._send_text(
                200, to_prometheus(service.registry), "text/plain; version=0.0.4"
            )
        elif self.path == "/stats":
            self._send_json(200, service.stats())
        elif self.path == "/stream/epoch":
            if service.stream is None:
                self._send_json(404, {"error": "no streaming engine attached"})
            else:
                self._send_json(200, service.stream.epoch_info())
        else:
            self._send_json(404, {"error": f"unknown path {self.path}"})

    # -- POST --------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        service = self.service
        if self.path in ("/walk", "/recommend"):
            self._serve_walk(self.path[1:])
        elif self.path == "/gnn/sample":
            if self._serve_inline("gnn_sample", service.executor.gnn_sample):
                service.gnn_served.inc()
        elif self.path in ("/stream/ingest", "/stream/walk", "/stream/recommend"):
            self._serve_stream(self.path.rsplit("/", 1)[1])
        else:
            self._send_json(404, {"error": f"unknown path {self.path}"})

    def _serve_walk(self, kind: str) -> None:
        service = self.service
        t0 = now()
        request_id = events.new_run_id()
        try:
            request = WalkRequest.from_json(self._read_json(), kind=kind)
            pending = PendingRequest(
                request=request, request_id=request_id, spec=request.spec()
            )
        except ServeError as exc:
            self._finish(request_id, exc.status, {"error": str(exc)}, t0, kind)
            return
        events.emit(
            "serve.request",
            run_id=request_id,
            endpoint=kind,
            app=request.app,
            num_walks=request.num_walks,
        )
        if not service.queue.submit(pending):
            status, error = 429, "queue full"
        elif not pending.done.wait(service.request_timeout):
            status, error = 504, "request timed out"
        elif pending.error is None:
            self._finish(request_id, 200, pending.response, t0, kind)
            return
        else:
            error = pending.error
            status = error.status if isinstance(error, ServeError) else 500
        self._finish(
            request_id, status, {"error": str(error), "run_id": request_id},
            t0, kind,
        )

    def _serve_stream(self, verb: str) -> None:
        """Streaming endpoints run inline: ingest must not be coalesced
        (it mutates), and pinned-view walks are lock-free reads."""
        stream = self.service.stream

        def handle(payload):
            if stream is None:
                raise ServeError("no streaming engine attached", status=404)
            if verb == "ingest":
                return stream.ingest(payload)
            return stream.walk(payload, kind=verb)

        self._serve_inline(f"stream_{verb}", handle)

    def _serve_inline(self, endpoint: str, handle) -> bool:
        """Answer ``handle(body)`` on the handler thread; True iff 200."""
        t0 = now()
        request_id = events.new_run_id()
        events.emit("serve.request", run_id=request_id, endpoint=endpoint)
        status = 200
        try:
            response = handle(self._read_json())
            response["run_id"] = request_id
        except TeaError as exc:
            status = exc.status if isinstance(exc, ServeError) else 500
            response = {"error": str(exc)}
        self._finish(request_id, status, response, t0, endpoint)
        return status == 200

    def _finish(
        self, request_id: str, status: int, payload: dict, t0: float, kind: str
    ) -> None:
        self.service.latency.observe(now() - t0)
        events.emit(
            "serve.response", run_id=request_id, endpoint=kind, status=status
        )
        self._send_json(status, payload)


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    # Batched serving resolves many responses at once; the reconnect
    # burst that follows must not overflow the listen backlog (the
    # stdlib default of 5 turns dropped SYNs into 1 s retransmit
    # stalls).
    request_queue_size = 128

    def __init__(self, addr, handler, service: "WalkService"):
        super().__init__(addr, handler)
        self.service = service


class WalkService:
    """A complete walk-serving daemon over one prepared temporal graph.

    Composes the hot-state session, bounded queue, coalescing batcher,
    and HTTP front-end; usable as a context manager (``with
    WalkService(graph) as svc: ...``) which guarantees the bounded-join
    shutdown path.

    ``batching=False`` degrades the batcher to one-request batches
    (identical execution path, no coalescing) — the serving benchmark's
    control arm.
    """

    def __init__(
        self,
        graph: TemporalGraph,
        engine: str = "tea-batch",
        engine_kwargs: Optional[dict] = None,
        max_engines: int = 8,
        max_bytes: Optional[int] = None,
        queue_depth: int = 64,
        max_batch: int = 64,
        batching: bool = True,
        host: str = "127.0.0.1",
        port: int = 0,
        request_timeout: float = 60.0,
        registry: Optional[MetricsRegistry] = None,
        streaming=None,
    ):
        self.registry = registry if registry is not None else MetricsRegistry()
        # Optional live-ingest lane: a StreamingTeaEngine served through
        # the /stream/* endpoints (epoch-pinned reads, serialised writes).
        self.stream = (
            StreamService(streaming, registry=self.registry)
            if streaming is not None else None
        )
        self.session = TeaSession(
            graph,
            max_engines=max_engines,
            engine=engine,
            engine_kwargs=engine_kwargs,
            max_bytes=max_bytes,
        )
        #: What the batch engines' hops run on (``None`` for the scalar
        #: ``tea`` kind, which has no kernel) — /healthz and /metrics.
        self.kernel_backend = None if engine == "tea" else publish_backend(
            self.registry, self.session.engine_kwargs.get("kernel_backend", "auto"))
        self.batching = bool(batching)
        if not self.batching:
            max_batch = 1
        self.queue = RequestQueue(max_depth=queue_depth, registry=self.registry)
        self.executor = BatchExecutor(self.session, registry=self.registry)
        self.batcher = Batcher(
            self.queue,
            self.executor,
            max_batch=max_batch,
            registry=self.registry,
        )
        self.latency = self.registry.histogram(
            "serve.latency_seconds", "request latency (admission to response)",
            **LATENCY_BUCKETS,
        )
        self.gnn_served = self.registry.counter(
            "serve.gnn_served", "GNN sample requests answered 200"
        )
        self.request_timeout = float(request_timeout)
        self.host = host
        self._requested_port = int(port)
        self.port: Optional[int] = None
        self._httpd: Optional[_Server] = None
        self._thread: Optional[threading.Thread] = None
        self._started_at: Optional[float] = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "WalkService":
        if self._httpd is not None:
            raise ServeError("service already started", status=500)
        self._httpd = _Server((self.host, self._requested_port), _Handler, self)
        self.port = self._httpd.server_address[1]
        self.batcher.start()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="serve-http", daemon=True
        )
        self._thread.start()
        self._started_at = monotonic()
        events.emit(
            "serve.start",
            host=self.host,
            port=self.port,
            engine=self.session.engine_kind,
            batching=self.batching,
        )
        return self

    def close(self, timeout: float = 10.0) -> bool:
        """Bounded shutdown; True iff every thread joined in time."""
        clean = True
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout)
            clean = clean and not self._thread.is_alive()
            self._thread = None
        if self.batcher.is_alive():
            clean = self.batcher.stop(timeout) and clean
        else:
            self.queue.close()
        if self.stream is not None:
            self.stream.close()
        self.session.close()
        events.emit("serve.stop", clean=clean)
        return clean

    def __enter__(self) -> "WalkService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- introspection -----------------------------------------------------

    def uptime_seconds(self) -> float:
        if self._started_at is None:
            return 0.0
        return monotonic() - self._started_at

    def stats(self) -> dict:
        reg = self.registry
        streaming = (
            None if self.stream is None else self.stream.epoch_info()
        )
        return {
            "streaming": streaming,
            "engine": self.session.engine_kind,
            "batching": self.batching,
            "session": self.session.stats.snapshot(),
            "resident_index_bytes": self.session.resident_index_bytes(),
            "cached_engines": len(self.session),
            "queue_depth": self.queue.depth(),
            "counters": {
                name: reg.counter_value(f"serve.{name}")
                for name in (
                    "received", "served", "rejected", "failed",
                    "batches", "coalesced", "retries", "gnn_served",
                )
            },
        }
