"""The `repro serve` daemon: one ``selectors`` loop over the batching core.

Stdlib-only serving on a single thread. Each ``select`` round the loop
accepts, reads what is readable, frames every complete HTTP/1.1 request
(keep-alive, ``Connection: close``, the 400/413 ``Content-Length``
contract), decodes and validates it, and either answers it at once
(GETs, ``/gnn/sample``, ``/stream/*``, every 4xx) or parks it with the
:class:`~repro.serve.batcher.Batcher`. After the round, everything
parked is one natural batch, executed on the same thread; each answer
is encoded and written through its connection's output buffer, which
is retried only when the socket is writable, so a slow reader never
stalls the loop. A request costs no thread hand-off.

A connection has at most one request in flight: bytes pipelined behind
a parked request wait in its input buffer until that request is
answered, so answers leave in request order.

Endpoints (docs/serving.md): ``POST /walk``, ``/recommend``,
``/gnn/sample``; ``GET /healthz``, ``/metrics``, ``/stats``; and, with
a streaming engine attached (``streaming=`` / ``repro serve
--streaming-app``), ``POST /stream/ingest``, ``/stream/walk``,
``/stream/recommend`` and ``GET /stream/epoch`` through
:class:`~repro.serve.streaming.StreamService`.

Every query gets its own 16-hex request id which doubles as the event
log ``run_id`` for its ``serve.request``/``serve.response`` span — one
id per request regardless of how the batcher groups them.
"""

from __future__ import annotations

import json
import selectors
import socket
import threading
from http import HTTPStatus
from typing import Optional

from repro.engines.session import TeaSession
from repro.exceptions import ServeError, TeaError
from repro.graph.temporal_graph import TemporalGraph
from repro.kernels import publish_backend
from repro.serve.batcher import Batcher, PendingRequest
from repro.serve.executor import BatchExecutor
from repro.serve.protocol import MAX_BODY_BYTES, WalkRequest
from repro.serve.streaming import StreamService
from repro.telemetry import events
from repro.telemetry.clock import monotonic as _monotonic, now
from repro.telemetry.exporters import to_prometheus
from repro.telemetry.registry import LATENCY_BUCKETS, MetricsRegistry

READ, WRITE = selectors.EVENT_READ, selectors.EVENT_WRITE

#: Largest request line + headers the daemon buffers (431 beyond).
MAX_HEAD_BYTES = 64 << 10


def _frame(buf: bytearray):
    """Split the first complete request off ``buf``: ``(method, path,
    body, keep_alive)``, or ``None`` while it is incomplete. Malformed
    framing raises :class:`ServeError`; the connection must then close,
    because where the next request starts is unknown."""
    end = buf.find(b"\r\n\r\n")
    if end < 0:
        if len(buf) > MAX_HEAD_BYTES:
            raise ServeError("request head too large", status=431)
        return None
    request_line, *lines = buf[:end].decode("latin-1").split("\r\n")
    parts = request_line.split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ServeError("malformed request line")
    method, path, version = parts
    headers = {}
    for line in lines:
        name, colon, value = line.partition(":")
        if not colon or not name or name != name.strip():
            raise ServeError("malformed header line")
        headers[name.lower()] = value.strip()
    raw = headers.get("content-length", "" if method == "POST" else "0")
    length = int(raw) if raw.isascii() and raw.isdigit() else -1
    if length < 0:
        raise ServeError("missing or malformed Content-Length")
    if length > MAX_BODY_BYTES:
        raise ServeError(f"request body exceeds {MAX_BODY_BYTES} bytes", status=413)
    if len(buf) < end + 4 + length:
        return None
    body = bytes(buf[end + 4:end + 4 + length])
    del buf[:end + 4 + length]
    connection = headers.get("connection", "").lower()
    keep_alive = connection != "close" and (
        version == "HTTP/1.1" or connection == "keep-alive")
    return method, path, body, keep_alive


def _json(body: bytes):
    try:
        return json.loads(body or b"null")
    except (ValueError, RecursionError):
        raise ServeError("request body is not valid JSON")


def _response(status: int, payload, close: bool,
              content_type: str = "application/json") -> bytes:
    body = payload.encode() if isinstance(payload, str) else json.dumps(payload).encode()
    head = (f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
            f"Content-Type: {content_type}\r\nContent-Length: {len(body)}\r\n")
    return (head + ("Connection: close\r\n\r\n" if close else "\r\n")).encode() + body


class _Conn:
    """One client connection's buffers and state."""

    __slots__ = ("sock", "inbuf", "outbuf", "parked", "closing", "mask")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.inbuf = bytearray()
        self.outbuf = bytearray()
        self.parked = False   # a request of this connection awaits its batch
        self.closing = False  # read nothing more; close once answered
        self.mask = 0         # events registered with the selector


class WalkService:
    """A complete walk-serving daemon over one prepared temporal graph.

    Composes the hot-state session, the batcher and the one-thread HTTP
    loop; usable as a context manager (``with WalkService(graph) as
    svc: ...``) which guarantees the bounded shutdown path.

    ``batching=False`` executes one request per frontier run (same
    path, ``max_batch=1``) — the serving benchmark's control arm.
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
        registry: Optional[MetricsRegistry] = None,
        streaming=None,
    ):
        self.registry = registry if registry is not None else MetricsRegistry()
        # Optional live-ingest lane: a StreamingTeaEngine served through
        # the /stream/* endpoints (epoch-pinned reads, serialised writes).
        self.stream = None if streaming is None else StreamService(
            streaming, registry=self.registry)
        self.session = TeaSession(graph, max_engines=max_engines, engine=engine,
                                  engine_kwargs=engine_kwargs, max_bytes=max_bytes)
        #: What the batch engines' hops run on (``None`` for the scalar
        #: ``tea`` kind, which has no kernel) — /healthz and /metrics.
        self.kernel_backend = None if engine == "tea" else publish_backend(
            self.registry, self.session.engine_kwargs.get("kernel_backend", "auto"))
        self.batching = bool(batching)
        self.executor = BatchExecutor(self.session, registry=self.registry)
        self.batcher = Batcher(
            self.executor, max_depth=queue_depth,
            max_batch=max_batch if self.batching else 1, registry=self.registry)
        reg = self.registry
        self.latency = reg.histogram(
            "serve.latency_seconds", "POST latency, framing to answer encoded",
            **LATENCY_BUCKETS)
        self.parse = reg.histogram(
            "serve.parse_seconds", "POST framing + JSON decode + validation",
            **LATENCY_BUCKETS)
        self.encode = reg.histogram(
            "serve.encode_seconds", "POST answer JSON encode + framing",
            **LATENCY_BUCKETS)
        self.gnn_served = reg.counter(
            "serve.gnn_served", "GNN sample requests answered 200")
        self._inline = {"/gnn/sample": self.executor.gnn_sample}
        if self.stream is not None:
            self._inline.update({
                "/stream/ingest": self.stream.ingest,
                "/stream/walk": lambda p: self.stream.walk(p, kind="walk"),
                "/stream/recommend": lambda p: self.stream.walk(p, kind="recommend"),
            })
        self.host = host
        self._requested_port = int(port)
        self.port: Optional[int] = None
        self._conns: "dict[socket.socket, _Conn]" = {}
        self._thread: Optional[threading.Thread] = None
        self._paused = self._stopping = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "WalkService":
        if self._thread is not None:
            raise ServeError("service already started", status=500)
        # Batched serving answers many requests at once; the reconnect
        # burst that can follow must not overflow the listen backlog.
        self._listener = socket.create_server(
            (self.host, self._requested_port), backlog=128)
        self._listener.setblocking(False)
        self.port = self._listener.getsockname()[1]
        # Other threads (pause/resume/close) wake the loop through this pair.
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, READ, self._accept)
        self._selector.register(self._wake_r, READ, lambda: self._wake_r.recv(4096))
        self._thread = threading.Thread(
            target=self._serve, name="serve-loop", daemon=True)
        self._started_at = _monotonic()
        self._thread.start()
        events.emit("serve.start", host=self.host, port=self.port,
                    engine=self.session.engine_kind, batching=self.batching)
        return self

    def pause(self) -> None:
        """Hold parked requests: one parked after this returns is not
        executed until :meth:`resume` (the loop keeps reading, so the
        parked list fills and admission answers 429)."""
        self._paused = True

    def resume(self) -> None:
        self._paused = False
        self._wake()

    def close(self, timeout: float = 10.0) -> bool:
        """Bounded shutdown: stop accepting, answer every admitted
        request, flush for at most half of ``timeout``; True iff the loop
        thread finished in time."""
        clean = True
        if self._thread is not None:
            self._flush_deadline = _monotonic() + timeout / 2
            self._stopping = True
            self._wake()
            self._thread.join(timeout)
            clean = not self._thread.is_alive()
            self._thread = None
            # Closed here, not by the loop: a wake sent after the loop
            # exited must still find the pair open.
            self._wake_r.close()
            self._wake_w.close()
        if self.stream is not None:
            self.stream.close()
        self.session.close()
        events.emit("serve.stop", clean=clean)
        return clean

    def __enter__(self) -> "WalkService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    def _wake(self) -> None:
        if self._thread is not None:
            self._wake_w.send(b"\0")

    # -- the loop ------------------------------------------------------------

    def _serve(self) -> None:
        while not self._stopping:
            runnable = self.batcher.depth() and not self._paused
            self._dispatch(self._selector.select(0 if runnable else None))
            if self.batcher.depth() and not self._paused:
                self._run_batch()
        # Shutdown: accept nothing, answer what was admitted, flush, close.
        self._selector.unregister(self._listener)
        self._listener.close()
        for conn in list(self._conns.values()):
            conn.closing = True
            self._update(conn)
        while self.batcher.depth():
            self._run_batch()
        while self._conns and _monotonic() < self._flush_deadline:
            self._dispatch(self._selector.select(self._flush_deadline - _monotonic()))
        for conn in list(self._conns.values()):
            self._drop(conn)
        self._selector.close()

    def _dispatch(self, ready) -> None:
        for key, mask in ready:
            if not isinstance(key.data, _Conn):
                key.data()
            elif mask & WRITE:
                self._on_writable(key.data)
            else:
                self._on_readable(key.data)

    def _run_batch(self) -> None:
        for pending in self.batcher.run():
            conn, t0 = pending.reply
            conn.parked = False
            error = pending.error
            if error is None:
                status, payload = 200, pending.response
            else:
                status = error.status if isinstance(error, ServeError) else 500
                payload = {"error": str(error), "run_id": pending.request_id}
            self._finish(conn, pending.request_id, status, payload, t0,
                         pending.request.kind)
            self._process(conn)  # whatever was pipelined behind it

    # -- connections ---------------------------------------------------------

    def _accept(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except (BlockingIOError, ConnectionAbortedError):
                return
            sock.setblocking(False)
            # Small JSON requests/responses over keep-alive: Nagle +
            # delayed ACK would add multi-ms stalls per roundtrip.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = self._conns[sock] = _Conn(sock)
            self._update(conn)

    def _update(self, conn: _Conn) -> None:
        """Register what ``conn`` waits for: writability while output is
        buffered, else readability until it is closing; a closing
        connection with nothing owed is closed."""
        if conn.sock not in self._conns:
            return
        if conn.outbuf:
            mask = WRITE
        elif not conn.closing:
            mask = READ
        elif conn.parked:
            mask = 0
        else:
            return self._drop(conn)
        if mask != conn.mask:
            if not conn.mask:
                self._selector.register(conn.sock, mask, conn)
            elif mask:
                self._selector.modify(conn.sock, mask, conn)
            else:
                self._selector.unregister(conn.sock)
            conn.mask = mask

    def _drop(self, conn: _Conn) -> None:
        if self._conns.pop(conn.sock, None) is not None:
            if conn.mask:
                self._selector.unregister(conn.sock)
            conn.sock.close()
            conn.inbuf, conn.outbuf = bytearray(), bytearray()

    def _on_readable(self, conn: _Conn) -> None:
        try:
            data = conn.sock.recv(1 << 16)
        except BlockingIOError:
            return
        except OSError:
            return self._drop(conn)
        if data:
            conn.inbuf += data
            self._process(conn)
        else:  # the peer is done sending; answer what it asked, then close
            conn.closing = True
            self._update(conn)

    def _on_writable(self, conn: _Conn) -> None:
        self._send(conn, b"")
        if not conn.outbuf:
            self._process(conn)
        self._update(conn)

    def _send(self, conn: _Conn, data: bytes) -> None:
        """Append ``data`` to ``conn``'s output and write what the socket
        takes now; the rest waits for writability."""
        if conn.sock not in self._conns:
            return  # the peer left while its request was parked
        conn.outbuf += data
        try:
            del conn.outbuf[:conn.sock.send(conn.outbuf)]
        except BlockingIOError:
            pass
        except OSError:
            self._drop(conn)

    # -- requests ------------------------------------------------------------

    def _process(self, conn: _Conn) -> None:
        """Answer or park the complete requests buffered on ``conn``, in
        order, stopping at a parked one or at unflushed output."""
        while not (conn.parked or conn.closing or conn.outbuf):
            t0 = now()
            try:
                framed = _frame(conn.inbuf)
            except ServeError as exc:
                conn.closing = True
                self._send(conn, _response(exc.status, {"error": str(exc)}, True))
                break
            if framed is None:
                break
            method, path, body, keep_alive = framed
            conn.closing = not keep_alive
            try:
                self._route(conn, method, path, body, t0)
            except Exception as exc:  # noqa: BLE001 - a bug answers 500
                self._finish(conn, events.new_run_id(), 500,
                             {"error": str(exc)}, t0, path)
        self._update(conn)

    def _route(self, conn: _Conn, method: str, path: str, body: bytes,
               t0: float) -> None:
        status, payload = 200, None
        if method == "GET":
            if path == "/healthz":
                payload = {
                    "status": "ok",
                    "uptime_seconds": round(_monotonic() - self._started_at, 3),
                    "engine": self.session.engine_kind,
                    "kernel_backend": self.kernel_backend,
                }
            elif path == "/metrics":
                return self._send(conn, _response(
                    200, to_prometheus(self.registry), conn.closing,
                    "text/plain; version=0.0.4"))
            elif path == "/stats":
                payload = self.stats()
            elif path == "/stream/epoch" and self.stream is not None:
                payload = self.stream.epoch_info()
        elif method != "POST":
            status, payload = 405, {"error": f"unsupported method {method}"}
        elif path in ("/walk", "/recommend"):
            return self._serve_walk(conn, path[1:], body, t0)
        elif path in self._inline:
            return self._serve_inline(conn, path, body, t0)
        if payload is None:
            status, payload = 404, {"error": (
                "no streaming engine attached"
                if path.startswith("/stream/") and self.stream is None
                else f"unknown path {path}")}
        self._send(conn, _response(status, payload, conn.closing))

    def _serve_walk(self, conn: _Conn, kind: str, body: bytes, t0: float) -> None:
        request_id = events.new_run_id()
        try:
            request = WalkRequest.from_json(
                _json(body), kind=kind, num_vertices=self.session.graph.num_vertices)
            pending = PendingRequest(
                request=request, request_id=request_id, spec=request.spec(),
                reply=(conn, t0))
        except ServeError as exc:
            self.parse.observe(now() - t0)
            return self._finish(conn, request_id, exc.status, {"error": str(exc)},
                                t0, kind)
        self.parse.observe(now() - t0)
        events.emit("serve.request", run_id=request_id, endpoint=kind,
                    app=request.app, num_walks=request.num_walks)
        if self.batcher.submit(pending):
            conn.parked = True
        else:
            self._finish(conn, request_id, 429,
                         {"error": "queue full", "run_id": request_id}, t0, kind)

    def _serve_inline(self, conn: _Conn, path: str, body: bytes, t0: float) -> None:
        """Answer ``/gnn/sample`` and ``/stream/*`` on the loop between
        batches: GNN blocks are never coalesced, ingest mutates, and a
        pinned-epoch read is one burst over frozen columns."""
        endpoint = path[1:].replace("/", "_")
        request_id = events.new_run_id()
        events.emit("serve.request", run_id=request_id, endpoint=endpoint)
        status = 200
        try:
            try:
                payload = _json(body)
            finally:
                self.parse.observe(now() - t0)
            response = self._inline[path](payload)
            response["run_id"] = request_id
        except TeaError as exc:
            status = exc.status if isinstance(exc, ServeError) else 500
            response = {"error": str(exc)}
        if status == 200 and path == "/gnn/sample":
            self.gnn_served.inc()
        self._finish(conn, request_id, status, response, t0, endpoint)

    def _finish(self, conn: _Conn, request_id: str, status: int, payload: dict,
                t0: float, kind: str) -> None:
        """Encode and send one POST's answer, timing the encode and the
        request (framing → answer encoded)."""
        t = now()
        data = _response(status, payload, conn.closing)
        done = now()
        self.encode.observe(done - t)
        self.latency.observe(done - t0)
        events.emit("serve.response", run_id=request_id, endpoint=kind, status=status)
        self._send(conn, data)

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        reg = self.registry
        return {
            "streaming": None if self.stream is None else self.stream.epoch_info(),
            "engine": self.session.engine_kind,
            "batching": self.batching,
            "session": self.session.stats.snapshot(),
            "resident_index_bytes": self.session.resident_index_bytes(),
            "cached_engines": len(self.session),
            "queue_depth": self.batcher.depth(),
            "connections": len(self._conns),
            "output_buffered_bytes": sum(
                len(c.outbuf) for c in self._conns.values()),
            "counters": {
                name: reg.counter_value(f"serve.{name}")
                for name in (
                    "received", "served", "rejected", "failed",
                    "batches", "coalesced", "retries", "gnn_served",
                )
            },
        }
