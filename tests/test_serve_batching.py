"""Natural batching, columnar response assembly, and the request path's
edges: what the serving loop takes from its parked list and when, that
a response built from array slices is byte-for-byte the per-walk one,
that a bad ``Content-Length`` is answered rather than fatal, and that
the stage histograms and the daemon's event log count what they should.
"""

import http.client
import json
import socket
import threading
import time
import types
from contextlib import closing

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
from repro.serve.batcher import Batcher
from repro.serve.protocol import MAX_BODY_BYTES
from repro.streaming import StreamingTeaEngine
from repro.telemetry import events as telemetry_events
from repro.telemetry.clock import monotonic
from repro.telemetry.events import EventLog
from repro.telemetry.registry import MetricsRegistry
from repro.walks.apps import unbiased_walk
from tests import serve_encode_oracle


def _pending(seed=0, **kwargs):
    request = WalkRequest(kind="walk", starts=(1, 2), seed=seed, **kwargs)
    return PendingRequest(
        request=request, request_id=f"{seed:016x}", spec=request.spec()
    )


# -- (a) what the loop takes from its parked list, and when ----------------

def _post_walk(port, seed, **kwargs):
    with closing(ServeClient(port=port)) as client:
        return client.walk(starts=[1 + seed], seed=seed, max_length=4, **kwargs)


def _wait_for_depth(service, depth):
    deadline = time.monotonic() + 10.0
    while service.batcher.depth() < depth:
        assert time.monotonic() < deadline, "requests never parked"
        time.sleep(0.002)


def _in_threads(fn, n):
    threads = [threading.Thread(target=fn, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    return threads


class _Recorder:
    """An executor that answers ``{}`` and records its group sizes."""

    def __init__(self):
        self.group_sizes = []

    def execute(self, group):
        self.group_sizes.append(len(group))
        for pending in group:
            pending.response = {}


class TestTake:
    def _parked(self, k, **kwargs):
        batcher = Batcher(_Recorder(), **kwargs)
        items = [_pending(i) for i in range(k)]
        assert all(batcher.submit(p) for p in items)
        return batcher, items

    def test_everything_parked_is_handed_out_without_waiting(self):
        batcher, items = self._parked(5)
        assert batcher.run() == items
        assert batcher.depth() == 0 and batcher.run() == []
        assert batcher.executor.group_sizes == [5]

    def test_max_items_caps_a_batch_in_fifo_order(self):
        batcher, items = self._parked(5, max_batch=3)
        assert batcher.run() == items[:3]
        assert batcher.run() == items[3:]

    def test_the_bound_rejects_and_counts(self):
        registry = MetricsRegistry()
        batcher, _ = self._parked(2, max_depth=2, registry=registry)
        assert not batcher.submit(_pending(9))
        assert [registry.counter_value(f"serve.{name}") for name in
                ("received", "rejected")] == [3, 1]

    def test_empty_queue_blocks_until_the_first_arrival(self, small_graph):
        """An idle loop sleeps in ``select`` (no polling: its thread burns
        no CPU), and a lone arrival is served as a batch of one."""
        with WalkService(small_graph, engine="tea-batch") as service:
            _post_walk(service.port, 0)  # warm the engine
            clock = time.pthread_getcpuclockid(service._thread.ident)
            cpu0 = time.clock_gettime(clock)
            time.sleep(0.3)
            assert time.clock_gettime(clock) - cpu0 < 0.03
            assert _post_walk(service.port, 1)["batched_with"] == 1

    def test_paused_queue_hands_out_nothing_until_resumed(self, small_graph):
        with WalkService(small_graph, engine="tea-batch") as service:
            service.pause()
            answers = {}
            threads = _in_threads(
                lambda i: answers.setdefault(i, _post_walk(service.port, i)), 3)
            _wait_for_depth(service, 3)
            time.sleep(0.05)
            assert service.batcher.depth() == 3 and not answers
            service.resume()
            for t in threads:
                t.join(10.0)
        assert [answers[i]["batched_with"] for i in range(3)] == [3, 3, 3]

    def test_closed_queue_rejects_but_still_drains(self, small_graph):
        """Closing a paused service answers every admitted request, then
        accepts nothing more."""
        service = WalkService(small_graph, engine="tea-batch").start()
        service.pause()
        answers = []

        def post(i):
            with closing(ServeClient(port=service.port)) as client:
                answers.append(
                    client.post("/walk", {"starts": [1 + i], "seed": i})[0])

        threads = _in_threads(post, 2)
        _wait_for_depth(service, 2)
        assert service.close(timeout=10.0)
        for t in threads:
            t.join(10.0)
        assert answers == [200, 200]
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", service.port), timeout=2.0)


# -- (b) what arrives while a batch runs is the next batch --------------------

class _GatedExecutor:
    """Holds the loop inside ``execute`` until released."""

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


def _raw_walk(seed):
    body = json.dumps({"starts": [1 + seed], "seed": seed}).encode()
    return (b"POST /walk HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(body)
            + body)


def test_requests_parked_during_a_batch_coalesce_into_the_next(small_graph):
    executor = _GatedExecutor()
    with WalkService(small_graph, engine="tea-batch") as service:
        service.batcher.executor = executor
        socks = [socket.create_connection(("127.0.0.1", service.port), timeout=10)
                 for _ in range(4)]
        socks[0].sendall(_raw_walk(0))
        assert executor.entered.wait(10.0), "lone request was not taken at once"
        for i in (1, 2, 3):  # queued in the kernel while the loop executes
            socks[i].sendall(_raw_walk(i))
        executor.release.set()
        for sock in socks:
            assert sock.recv(4096).startswith(b"HTTP/1.1 200 ")
            sock.close()
        registry = service.registry
        assert executor.group_sizes == [1, 3]
        assert registry.counter_value("serve.served") == 4
        waits = registry.histogram("serve.queue_wait_seconds")
        runs = registry.histogram("serve.execute_seconds")
        assert (waits.count, runs.count) == (4, 2)
        assert 0.0 <= waits.min <= waits.max < 10.0


STAGES = ("parse", "queue_wait", "execute", "encode")


def test_stage_histograms_are_served_on_metrics(small_graph):
    with WalkService(small_graph, engine="tea-batch") as service, \
            closing(ServeClient(port=service.port)) as client:
        for i in range(3):
            client.walk(starts=[1 + i], seed=i, max_length=4)
        metrics = client.metrics()
        served = client.stats()["counters"]["served"]
    assert f"tea_serve_queue_wait_seconds_count {served}" in metrics
    for stage in STAGES:
        assert f"tea_serve_{stage}_seconds_count 3" in metrics
    assert "tea_serve_received" in metrics


def test_one_request_moves_each_stage_histogram_once(small_graph):
    with WalkService(small_graph, engine="tea-batch") as service, \
            closing(ServeClient(port=service.port)) as client:
        client.walk(starts=[1], max_length=4)
        client.healthz()  # a GET is not a timed request
        hists = [service.registry.histogram(f"serve.{stage}_seconds")
                 for stage in STAGES + ("latency",)]
        before = [h.count for h in hists]
        client.walk(starts=[2], max_length=4)
        assert [h.count - b for h, b in zip(hists, before)] == [1] * 5


def test_stage_sums_account_for_the_latency(small_graph):
    """One closed-loop client, so every batch is one request: parse +
    queue wait + execute + encode is a request's whole latency."""
    with WalkService(small_graph, engine="tea-batch") as service, \
            closing(ServeClient(port=service.port)) as client:
        for i in range(200):
            client.walk(starts=[1 + i % 20], seed=i, max_length=8)
        reg = service.registry
        stages = sum(reg.histogram(f"serve.{s}_seconds").total for s in STAGES)
        latency = reg.histogram("serve.latency_seconds").total
    assert abs(stages - latency) <= 0.1 * latency, (stages, latency)


def test_one_serving_thread(small_graph):
    before = set(threading.enumerate())
    with WalkService(small_graph, engine="tea-batch") as service:
        conns = [http.client.HTTPConnection("127.0.0.1", service.port, timeout=10)
                 for _ in range(4)]
        for conn in conns:  # four keep-alive connections, all left open
            conn.request("GET", "/healthz")
            assert conn.getresponse().read()
        with closing(ServeClient(port=service.port)) as client:
            assert client.stats()["connections"] == 5
        new = set(threading.enumerate()) - before
        assert [t.name for t in new] == ["serve-loop"]
        for conn in conns:
            conn.close()


def test_a_wake_after_the_loop_exited_finds_the_pair_open(small_graph):
    """``close()`` sets ``_stopping`` and then wakes the loop, which may
    already have seen the flag and exited: that wake must not land on a
    closed socket."""
    service = WalkService(small_graph, engine="tea-batch").start()
    loop = service._thread
    service._flush_deadline = monotonic() + 5.0
    service._stopping = True
    service._wake()
    loop.join(10.0)
    assert not loop.is_alive()
    service._wake()  # close()'s own wake, had the loop won the race
    assert service.close()


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
    with closing(ServeClient(port=streaming_service.port)) as client:
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
    client[0].close()
    out = capsys.readouterr().out
    if events_out:
        assert sizes[1:] == [8, 8]  # >= 18 emitted per round, 8 kept
        assert "older dropped" in out and len(EventLog.read(path)) >= 8
    else:
        assert sizes == [None] * 3
        assert not path.exists()


# -- inline endpoints (answered on the loop between batches) ------------------------

def test_inline_endpoints_answer_over_http(streaming_service):
    with closing(ServeClient(port=streaming_service.port)) as client:
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
    with WalkService(small_graph, engine="tea-batch") as service, \
            closing(ServeClient(port=service.port)) as client:
        status, out = client.post("/stream/walk", {"starts": [1]})
        assert (status, out["error"]) == (404, "no streaming engine attached")
        # Same keep-alive socket: the refused body was read, not left behind.
        assert client.walk(starts=[1], max_length=3)["num_walks"] == 1
