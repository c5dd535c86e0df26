"""Natural batching, columnar response assembly, and the request path's
edges: what the daemon takes from its queue and when, that a response
built from array slices is byte-for-byte the per-walk one, that a bad
``Content-Length`` is answered rather than fatal, and that the stage
histograms and the daemon's event log count what they should.
"""

import json
import socket
import threading
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cli
from repro.engines.base import FrontierResult
from repro.graph.datasets import load_dataset
from repro.serve import (
    BatchExecutor, PendingRequest, ServeClient, WalkRequest, WalkService,
)
from repro.serve.batcher import Batcher, RequestQueue
from repro.serve.protocol import MAX_BODY_BYTES
from repro.streaming import StreamingTeaEngine
from repro.telemetry import events as telemetry_events
from repro.telemetry.events import EventLog
from repro.telemetry.registry import MetricsRegistry
from repro.walks.apps import unbiased_walk
from tests import serve_encode_oracle


def _pending(seed=0, **kwargs):
    request = WalkRequest(kind="walk", starts=(1, 2), seed=seed, **kwargs)
    return PendingRequest(
        request=request, request_id=f"{seed:016x}", spec=request.spec()
    )


# -- (a) RequestQueue.take ----------------------------------------------------

class TestTake:
    def _parked(self, k, **kwargs):
        queue = RequestQueue(**kwargs)
        items = [_pending(i) for i in range(k)]
        assert all(queue.submit(p) for p in items)
        return queue, items

    def test_everything_parked_is_handed_out_without_waiting(self, monkeypatch):
        queue, items = self._parked(5)

        def no_wait(timeout=None):
            raise AssertionError("take() waited although requests were parked")

        monkeypatch.setattr(queue._cond, "wait", no_wait)
        assert queue.take(64, timeout=5.0) == items
        assert queue.depth() == 0

    def test_max_items_caps_a_batch_in_fifo_order(self):
        queue, items = self._parked(5)
        assert queue.take(3) == items[:3]
        assert queue.take(3) == items[3:]

    def test_empty_queue_blocks_until_the_first_arrival(self):
        queue = RequestQueue()
        assert queue.take(4, timeout=0.01) == []
        late = _pending(7)
        threading.Timer(0.05, queue.submit, args=(late,)).start()
        assert queue.take(4, timeout=5.0) == [late]

    def test_paused_queue_hands_out_nothing_until_resumed(self):
        queue, items = self._parked(3)
        queue.pause()
        assert queue.take(64, timeout=0.01) == []
        assert queue.depth() == 3
        queue.resume()
        assert queue.take(64, timeout=5.0) == items

    def test_closed_queue_rejects_but_still_drains(self):
        queue, items = self._parked(2)
        queue.pause()
        queue.close()  # also lifts the pause: shutdown must drain
        assert not queue.submit(_pending(9))
        assert queue.take(64, timeout=5.0) == items
        assert queue.take(64, timeout=0.01) == []


# -- (b) what arrives while a batch runs is the next batch --------------------

class _GatedExecutor:
    """Holds the batcher inside ``execute`` until released."""

    def __init__(self):
        self.group_sizes = []
        self.entered = threading.Event()
        self.release = threading.Event()

    def execute(self, group):
        self.group_sizes.append(len(group))
        self.entered.set()
        assert self.release.wait(10.0), "executor never released"
        for pending in group:
            pending.response = {}


def test_requests_parked_during_a_batch_coalesce_into_the_next():
    registry = MetricsRegistry()
    queue = RequestQueue(registry=registry)
    executor = _GatedExecutor()
    batcher = Batcher(queue, executor, registry=registry)
    batcher.start()
    try:
        first = _pending(0)
        queue.submit(first)
        assert executor.entered.wait(10.0), "lone request was not taken at once"
        parked = [_pending(i) for i in (1, 2, 3)]
        for pending in parked:
            queue.submit(pending)
        assert queue.depth() == 3  # parked: the batcher is inside execute
        executor.release.set()
        for pending in [first] + parked:
            assert pending.done.wait(10.0)
    finally:
        executor.release.set()
        assert batcher.stop(timeout=10.0)
    assert executor.group_sizes == [1, 3]
    assert registry.counter_value("serve.served") == 4
    waits = registry.histogram("serve.queue_wait_seconds")
    runs = registry.histogram("serve.execute_seconds")
    assert (waits.count, runs.count) == (4, 2)
    assert 0.0 <= waits.min <= waits.max < 10.0


def test_stage_histograms_are_served_on_metrics(small_graph):
    with WalkService(small_graph, engine="tea-batch") as service:
        client = ServeClient(port=service.port)
        for i in range(3):
            client.walk(starts=[1 + i], seed=i, max_length=4)
        metrics = client.metrics()
        served = client.stats()["counters"]["served"]
    assert f"tea_serve_queue_wait_seconds_count {served}" in metrics
    assert "tea_serve_execute_seconds_count 3" in metrics
    assert "tea_serve_received" in metrics


# -- (c) columnar encode == per-walk oracle, byte for byte --------------------

@st.composite
def _frontier_and_requests(draw):
    """Two requests sharing one FrontierResult; few distinct vertices so
    starts reappear as hops and visit counts tie."""
    max_length = draw(st.integers(1, 6))
    keep_hops = draw(st.booleans())
    pendings, starts = [], []
    for r in range(2):
        request = WalkRequest(
            kind=draw(st.sampled_from(["walk", "recommend"])),
            starts=tuple(draw(st.lists(st.integers(0, 6), min_size=1, max_size=4))),
            walks_per_vertex=draw(st.integers(1, 3)),
            max_length=max_length,
            record_paths=draw(st.booleans()),
            top_k=draw(st.integers(1, 10)),
        )
        pendings.append(PendingRequest(
            request=request, request_id=f"{r:016x}", spec=request.spec()
        ))
        starts.append(request.expanded_starts())
    starts = np.concatenate(starts)
    num = starts.size
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lengths = rng.integers(0, max_length + 1, num)
    if draw(st.booleans()):
        lengths[rng.integers(0, num)] = 0
    frontier = FrontierResult(starts, lengths.astype(np.int64))
    if keep_hops:
        # Filled past each walk's length too: slicing must mask it.
        frontier.hop_vertex = rng.integers(0, 7, (num, max_length))
        frontier.hop_time = rng.normal(0.0, 1e3, (num, max_length))
    return frontier, pendings


class TestColumnarEncodeEqualsPerWalk:
    @settings(max_examples=200, deadline=None)
    @given(_frontier_and_requests())
    def test_json_bytes_equal(self, case):
        frontier, pendings = case
        executor = BatchExecutor(types.SimpleNamespace(engine_kind="tea-batch"))
        lo = 0
        for pending in pendings:
            hi = lo + pending.request.num_walks
            got = executor._encode(pending, frontier, lo, hi, batched_with=2)
            want = serve_encode_oracle.encode(
                pending, frontier, lo, hi, 2, "tea-batch"
            )
            assert json.dumps(got) == json.dumps(want)
            lo = hi

    def test_ties_rank_by_vertex_and_top_k_may_exceed_the_visit_set(self):
        request = WalkRequest(kind="recommend", starts=(0,), walks_per_vertex=3,
                              max_length=3, top_k=10)
        frontier = FrontierResult(
            request.expanded_starts(), np.array([3, 2, 0]),
            np.array([[5, 0, 2], [2, 5, 9], [9, 9, 9]]), np.zeros((3, 3)),
        )
        assert BatchExecutor._recommend(request, frontier, 0, 3) == [[2, 2], [5, 2]]


@st.composite
def _stream_frontier(draw):
    """A frontier as a pinned epoch hands it back, the query that asked
    for it, and its kind."""
    max_length = draw(st.integers(1, 6))
    starts = draw(st.lists(st.integers(0, 6), min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lengths = rng.integers(0, max_length + 1, len(starts))
    if draw(st.booleans()):
        lengths[:] = 0
    frontier = FrontierResult(
        np.array(starts), lengths.astype(np.int64),
        rng.integers(0, 7, (len(starts), max_length)),
        rng.normal(0.0, 1e3, (len(starts), max_length)))
    payload = {"starts": starts, "max_length": max_length,
               "top_k": draw(st.integers(1, 10))}
    return frontier, payload, draw(st.sampled_from(["walk", "recommend"]))


class TestStreamEncodeEqualsPerPath:
    @settings(max_examples=200, deadline=None)
    @given(_stream_frontier())
    def test_json_bytes_equal(self, case):
        from repro.serve.streaming import StreamService

        frontier, payload, kind = case
        view = types.SimpleNamespace(
            epoch=3, num_edges=17, run_lanes=lambda *args: frontier)
        service = StreamService(types.SimpleNamespace(pin=lambda epoch: view))
        want = serve_encode_oracle.stream_encode(
            view, frontier.materialise_paths(), kind, payload["starts"],
            payload["top_k"])
        assert json.dumps(service.walk(payload, kind)) == json.dumps(want)

    @pytest.mark.parametrize("kind", ["walk", "recommend"])
    def test_a_request_walks_as_run_walks_does_with_its_seed(self, kind):
        from repro.graph.generators import temporal_powerlaw
        from repro.serve.streaming import StreamService

        engine = StreamingTeaEngine(unbiased_walk())
        engine.ingest(temporal_powerlaw(num_vertices=30, num_edges=400, seed=1,
                                        time_horizon=50.0), 100)
        payload = {"starts": engine.active_vertices()[:9] + [99], "seed": 11,
                   "max_length": 8, "top_k": 4}
        view = engine.pin()
        want = serve_encode_oracle.stream_encode(
            view, view.run_walks(payload["starts"], 8, seed=11), kind,
            payload["starts"], 4)
        assert json.dumps(StreamService(engine).walk(payload, kind)) == json.dumps(want)
        assert max(want["lengths"]) > 1 and want["lengths"][-1] == 0


# -- malformed Content-Length -------------------------------------------------

def _raw_post(port, path, content_length, body=b""):
    """One POST over a bare socket; returns everything until the server
    closes the connection (a hung or killed handler times out instead)."""
    head = f"POST {path} HTTP/1.1\r\nHost: t\r\n"
    if content_length is not None:
        head += f"Content-Length: {content_length}\r\n"
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
        sock.sendall(head.encode() + b"\r\n" + body)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


@pytest.fixture(scope="module")
def streaming_service():
    with WalkService(
        load_dataset("tiny", seed=3), engine="tea-batch",
        streaming=StreamingTeaEngine(unbiased_walk()),
    ) as service:
        yield service


@pytest.mark.parametrize("path", [
    "/walk", "/recommend", "/gnn/sample",
    "/stream/ingest", "/stream/walk", "/stream/recommend",
])
@pytest.mark.parametrize("content_length, status", [
    ("abc", 400), ("-1", 400), (None, 400), ("1e3", 400),
    (str(MAX_BODY_BYTES + 1), 413),
])
def test_bad_content_length_is_answered_and_the_connection_closed(
        streaming_service, path, content_length, status):
    reply = _raw_post(streaming_service.port, path, content_length, b"{}")
    assert reply.startswith(f"HTTP/1.1 {status} ".encode()), reply[:80]
    assert b'"error"' in reply
    # The daemon is unharmed and its books still balance.
    client = ServeClient(port=streaming_service.port)
    assert client.walk(starts=[1], max_length=3)["num_walks"] == 1
    counters = client.stats()["counters"]
    assert counters["received"] == (
        counters["served"] + counters["rejected"] + counters["failed"])


# -- the daemon's event log ---------------------------------------------------

def test_trim_keeps_the_newest_and_counts_the_rest():
    log = EventLog()
    for i in range(12):
        log.emit("tick", i=i)
    log.trim(20)
    assert len(log) == 12 and log.dropped == 0
    log.trim(5)
    log.trim(5)
    assert [e["i"] for e in log.events] == [7, 8, 9, 10, 11] and log.dropped == 7


@pytest.mark.parametrize("events_out", [False, True])
def test_daemon_buffers_events_only_on_request_and_only_a_tail(
        events_out, tmp_path, monkeypatch, capsys):
    """Drives ``repro serve`` in-process: each idle ``time.sleep`` of its
    main loop is the hook where a client sends 6 requests (>= 3 events
    each); the third one interrupts the daemon."""
    monkeypatch.setattr(cli, "SERVE_EVENT_TAIL", 8)
    sizes, client = [], []

    def serve_then_interrupt(_seconds):
        if not client:
            out = capsys.readouterr().out
            port = int(out.split("http://127.0.0.1:")[1].split()[0])
            client.append(ServeClient(port=port))
        log = telemetry_events.current()
        sizes.append(None if log is None else len(log))  # as trimmed
        if len(sizes) == 3:
            raise KeyboardInterrupt
        for i in range(6):
            client[0].walk(starts=[1], seed=i, max_length=3)

    monkeypatch.setattr(
        cli, "time", types.SimpleNamespace(sleep=serve_then_interrupt))
    argv = ["serve", "--dataset", "tiny", "--port", "0"]
    path = tmp_path / "events.jsonl"
    if events_out:
        argv += ["--events-out", str(path)]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    if events_out:
        assert sizes[1:] == [8, 8]  # >= 18 emitted per round, 8 kept
        assert "older dropped" in out and len(EventLog.read(path)) >= 8
    else:
        assert sizes == [None] * 3
        assert not path.exists()


# -- inline endpoints (answered on the handler thread) ------------------------

def test_inline_endpoints_answer_over_http(streaming_service):
    client = ServeClient(port=streaming_service.port)
    status, out = client.post("/stream/ingest", {
        "src": [0, 1, 2], "dst": [1, 2, 0], "time": [1.0, 2.0, 3.0]})
    assert (status, out["edges"], out["kind"]) == (200, 3, "stream_ingest")
    status, walk = client.post("/stream/walk", {"starts": [0], "max_length": 3})
    assert status == 200 and walk["walks"][0][0] == 0 and len(walk["run_id"]) == 16
    status, rec = client.post("/stream/recommend", {"starts": [0], "top_k": 2})
    assert status == 200 and len(rec["recommendations"]) <= 2
    status, bad = client.post("/stream/walk", {"starts": []})
    assert status == 400 and "starts" in bad["error"]
    served = client.stats()["counters"]["gnn_served"]
    assert client.gnn_sample([1, 2], [50.0, 60.0])["kind"] == "gnn_sample"
    assert client.post("/gnn/sample", {"nodes": []})[0] == 400
    assert client.stats()["counters"]["gnn_served"] == served + 1


def test_stream_endpoints_without_an_engine_are_404_and_leave_the_connection_usable(
        small_graph):
    with WalkService(small_graph, engine="tea-batch") as service:
        client = ServeClient(port=service.port)
        status, out = client.post("/stream/walk", {"starts": [1]})
        assert (status, out["error"]) == (404, "no streaming engine attached")
        # Same keep-alive socket: the refused body was read, not left behind.
        assert client.walk(starts=[1], max_length=3)["num_walks"] == 1
