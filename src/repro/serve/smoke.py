"""Serving smoke: idle wait + parity + rejection + clean shutdown in < 30 s.

Run with ``make serve-smoke`` (gated in ``make test``). Boots a real
daemon on a loopback port and checks the four properties the serving
layer must never lose:

1. **No idle wait** — 50 sequential requests from one client each
   leave the queue in under a millisecond (median of
   ``serve.queue_wait_seconds``): an idle daemon holds nothing back;
2. **Batching parity** — a staged 4-request batch returns walks
   bit-identical to the same queries run solo;
3. **Admission control** — with the batcher paused and the queue full,
   excess requests get 429 and the conservation identity
   ``received == served + rejected + failed`` holds;
4. **Clean shutdown** — ``close()`` joins every thread within its
   bound and reports it.
"""

from __future__ import annotations

import threading
import time

from repro.graph.generators import temporal_powerlaw
from repro.graph.temporal_graph import TemporalGraph
from repro.serve import ServeClient, WalkService


def _wait_until(condition, what: str) -> None:
    deadline = time.monotonic() + 10.0
    while not condition():
        if time.monotonic() > deadline:
            raise AssertionError(what)
        time.sleep(0.005)


def _stage_batch(service: WalkService, client: ServeClient, requests):
    """Park ``requests`` together, then release them as one batch."""
    service.batcher.pause()
    results = {}

    def _go(idx, kwargs):
        results[idx] = client.walk(**kwargs)

    threads = [
        threading.Thread(target=_go, args=(idx, kwargs))
        for idx, kwargs in enumerate(requests)
    ]
    for t in threads:
        t.start()
    _wait_until(lambda: service.queue.depth() >= len(requests),
                "requests never queued")
    service.batcher.resume()
    for t in threads:
        t.join(timeout=30.0)
    assert len(results) == len(requests), "a staged request never resolved"
    return results


def main() -> None:
    graph = TemporalGraph.from_stream(
        temporal_powerlaw(
            num_vertices=80, num_edges=1600, alpha=0.8,
            time_horizon=200.0, seed=11,
        )
    )
    service = WalkService(graph, engine="tea-batch", queue_depth=4).start()
    client = ServeClient(port=service.port)
    try:
        assert client.healthz()["status"] == "ok"

        # 1. no idle wait: a lone sequential client never queues (first,
        # while the histogram holds nothing else).
        for i in range(50):
            client.walk(starts=[1 + i % 40], seed=i, max_length=4)
        waits = service.registry.histogram("serve.queue_wait_seconds")
        fast = sum(n for bound, n in zip(waits.bounds, waits.counts) if bound <= 1e-3)
        assert fast > 25, f"median idle queue wait >= 1 ms ({fast}/50 under)"

        # 2. batching parity: staged batch vs solo runs, bit-identical.
        queries = [
            dict(starts=[3 + i], walks_per_vertex=3, seed=700 + i, max_length=8)
            for i in range(4)
        ]
        batched = _stage_batch(service, client, queries)
        assert all(r["batched_with"] == 4 for r in batched.values()), (
            "staged requests did not coalesce"
        )
        for idx, kwargs in enumerate(queries):
            solo = client.walk(**kwargs)
            assert solo["walks"] == batched[idx]["walks"], "walk parity broken"
            assert solo["times"] == batched[idx]["times"], "time parity broken"
            assert solo["lengths"] == batched[idx]["lengths"]

        # 3. admission control: overfill the paused queue, expect 429s.
        service.batcher.pause()
        statuses = []

        def _push(i):
            status, _ = client.post(
                "/walk", {"starts": [i], "seed": i, "max_length": 4}
            )
            statuses.append(status)

        threads = [threading.Thread(target=_push, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        _wait_until(lambda: service.queue.depth() >= service.queue.max_depth,
                    "queue never filled")
        # Parked submits hold the depth at max; stragglers must reject.
        _wait_until(lambda: len(statuses) >= 8 - service.queue.max_depth,
                    "rejections never arrived")
        service.batcher.resume()
        for t in threads:
            t.join(timeout=30.0)
        assert statuses.count(429) == 8 - service.queue.max_depth, statuses
        assert statuses.count(200) == service.queue.max_depth, statuses

        counters = client.stats()["counters"]
        assert counters["received"] == (
            counters["served"] + counters["rejected"] + counters["failed"]
        ), counters
        assert counters["rejected"] >= 4
        assert waits.count == counters["served"], (waits.count, counters)
        metrics = client.metrics()
        for name in ("received", "queue_wait_seconds", "execute_seconds"):
            assert f"tea_serve_{name}" in metrics, name

    finally:
        # 4. clean shutdown with a bounded join.
        clean = service.close(timeout=10.0)
    assert clean, "shutdown did not join within its bound"
    print(
        "serve smoke OK: parity x4, "
        f"rejected={counters['rejected']}, served={counters['served']}, "
        f"idle queue wait < 1 ms x{fast}/50, shutdown clean"
    )


if __name__ == "__main__":
    main()
