"""Concurrency stress: conservation, per-request run ids, bounded join.

Hammers a live daemon from >= 8 client threads (including a phase with
the service paused so the admission bound actually rejects), then
asserts the invariants the serving layer guarantees under load:

* telemetry conservation — ``serve.received == served + rejected +
  failed`` exactly, even with racing submits;
* one event-log run id per request, all unique, with a matching
  ``serve.response`` for every ``serve.request``;
* shutdown joins the loop thread within its bound (no deadlock).
"""

import json
import threading
import time

import pytest

from repro.serve import ServeClient, WalkService
from repro.telemetry import events as telemetry_events
from repro.telemetry.events import EventLog

CLIENT_THREADS = 8
REQUESTS_PER_THREAD = 6


@pytest.fixture()
def event_log():
    log = EventLog()
    previous = telemetry_events.install(log)
    yield log
    telemetry_events.install(previous)


def test_stress_conservation_and_run_ids(small_graph, event_log):
    statuses = []
    lock = threading.Lock()
    with WalkService(small_graph, engine="tea-batch", queue_depth=6) as service:
        client = ServeClient(port=service.port)

        def _hammer(worker):
            for i in range(REQUESTS_PER_THREAD):
                endpoint = "/recommend" if (worker + i) % 3 == 0 else "/walk"
                status, payload = client.post(
                    endpoint,
                    {
                        "starts": [1 + (worker + i) % 20],
                        "walks_per_vertex": 2,
                        "seed": worker * 1000 + i,
                        "max_length": 6,
                    },
                )
                with lock:
                    statuses.append((status, payload.get("run_id")))

        threads = [
            threading.Thread(target=_hammer, args=(w,))
            for w in range(CLIENT_THREADS)
        ]

        # Phase 1: pause execution so the queue fills and rejects.
        service.pause()
        for t in threads:
            t.start()
        deadline = time.monotonic() + 10.0
        while service.batcher.depth() < service.batcher.max_depth:
            assert time.monotonic() < deadline, "queue never filled"
            time.sleep(0.002)
        time.sleep(0.1)
        # Phase 2: drain everything.
        service.resume()
        for t in threads:
            t.join(timeout=60.0)
            assert not t.is_alive(), "client thread wedged"

        total = CLIENT_THREADS * REQUESTS_PER_THREAD
        assert len(statuses) == total
        ok = sum(1 for s, _ in statuses if s == 200)
        rejected = sum(1 for s, _ in statuses if s == 429)
        failed = sum(1 for s, _ in statuses if s not in (200, 429))
        assert rejected >= 1, "admission control never rejected"
        assert failed == 0, statuses

        # Conservation, exactly.
        counters = client.stats()["counters"]
        assert counters["received"] == total
        assert counters["received"] == (
            counters["served"] + counters["rejected"] + counters["failed"]
        )
        assert counters["served"] == ok
        assert counters["rejected"] == rejected
        assert counters["failed"] == 0

        # Run ids: one per request, unique, request/response paired.
        served_ids = [rid for s, rid in statuses if s == 200]
        assert len(set(served_ids)) == len(served_ids)
        requests = [e for e in event_log.events if e["kind"] == "serve.request"]
        responses = [e for e in event_log.events if e["kind"] == "serve.response"]
        assert len(requests) == total
        request_ids = [e["run_id"] for e in requests]
        assert len(set(request_ids)) == total, "run ids not unique per request"
        response_by_id = {e["run_id"]: e["status"] for e in responses}
        assert set(request_ids) <= set(response_by_id), "unanswered request"
        assert set(served_ids) <= set(request_ids)
        for rid in served_ids:
            assert response_by_id[rid] == 200

        # Bounded, clean shutdown while still inside the context.
        t0 = time.monotonic()
        assert service.close(timeout=10.0) is True
        assert time.monotonic() - t0 < 10.0


def test_shutdown_drains_parked_requests(small_graph):
    """Requests admitted before shutdown still get answers: close()
    drains the queue rather than abandoning waiters."""
    with WalkService(small_graph, engine="tea-batch", queue_depth=8) as service:
        client = ServeClient(port=service.port)
        service.pause()
        results = []

        def _go(i):
            results.append(
                client.post("/walk", {"starts": [i + 1], "seed": i, "max_length": 4})
            )

        threads = [threading.Thread(target=_go, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        deadline = time.monotonic() + 10.0
        while service.batcher.depth() < 4:
            assert time.monotonic() < deadline
            time.sleep(0.005)
        # close() stops accepting and answers what was admitted, even
        # while paused, before the loop thread exits.
        assert service.close(timeout=10.0) is True
        for t in threads:
            t.join(timeout=10.0)
            assert not t.is_alive()
        assert [s for s, _ in results] == [200, 200, 200, 200]


def test_stress_events_are_serialisable(small_graph, event_log, tmp_path):
    """The serving event stream round-trips through JSONL."""
    with WalkService(small_graph, engine="tea-batch") as service:
        client = ServeClient(port=service.port)
        for i in range(3):
            client.walk(starts=[1 + i], seed=i, max_length=4)
    path = tmp_path / "events.jsonl"
    count = event_log.write(path)
    assert count >= 3 * 2  # request + response per query, at least
    parsed = EventLog.read(path)
    kinds = {e["kind"] for e in parsed}
    assert {"serve.start", "serve.request", "serve.batch",
            "serve.response", "serve.stop"} <= kinds
    for event in parsed:
        json.dumps(event)  # every field JSON-clean
