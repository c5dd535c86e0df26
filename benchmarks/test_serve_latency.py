"""Serving latency/throughput: request batching on versus off.

Not a paper figure: this bench gates the `repro serve` batching work.
Boots two real daemons (loopback HTTP, identical graph and engine) and
pushes the SAME request volume from concurrent client threads:

* **batching off** — the batcher degrades to one-request batches: each
  query pays its own frontier run, serialised on the daemon's one loop
  thread (the honest no-coalescing baseline, not a different code
  path);
* **batching on** — concurrent compatible queries coalesce into shared
  lane-seeded frontier runs (ThunderRW-style interleaving at the
  serving layer).

Per-request wall latencies are measured client-side; p50/p99 and QPS
for both arms land in ``bench_results/history/serve_latency.jsonl`` via
:mod:`repro.benchhistory`, so ``repro bench compare`` gates
regressions. Acceptance, on what coalescing itself saves:

* executor time per served request (``serve.execute_seconds`` total ÷
  requests) with batching on is at most half of what it is with
  batching off — one frontier run shared by many requests;
* batching-on QPS is at least batching-off QPS.

The QPS ratio ``batching_speedup`` is recorded but not gated: a fused
hop made a lone request ~2x cheaper, and both arms pay the same
per-request HTTP parse and JSON encode, which batching cannot amortise.
"""

import threading
import time

import numpy as np
import pytest

from benchmarks.conftest import BENCH_SCALE, record_history, write_json_result
from repro.graph.generators import temporal_powerlaw
from repro.graph.temporal_graph import TemporalGraph
from repro.serve import ServeClient, WalkService

CLIENT_THREADS = 12
REQUESTS_PER_THREAD = 12
TOTAL = CLIENT_THREADS * REQUESTS_PER_THREAD

#: Mid-size queries (128 walks each): per-STEP kernel overhead dominates
#: at this width and amortises across coalesced lanes, which is exactly
#: the serving regime batching exists for (many users, modest queries).
QUERY = dict(
    walks_per_vertex=4,
    max_length=16,
    app="unbiased",
    record_paths=False,  # measure serving, not JSON rendering
)
STARTS_PER_REQUEST = 32

_results = {}


@pytest.fixture(scope="module")
def serve_graph():
    # Dense-in-time graph so walks survive many hops (the per-step
    # frontier loop is where batching amortises).
    return TemporalGraph.from_stream(
        temporal_powerlaw(
            num_vertices=int(500 * BENCH_SCALE) or 100,
            num_edges=int(200000 * BENCH_SCALE) or 20000,
            alpha=0.6, time_horizon=20000.0, seed=17,
        )
    )


def _drive(service):
    """Push TOTAL requests from CLIENT_THREADS threads; returns
    (per-request latencies in seconds, total wall seconds, executor
    seconds spent on them)."""
    client = ServeClient(port=service.port, timeout=120.0)
    # Warm the engine cache so both arms measure serving, not prepare():
    # the session keys engines by walk spec, so warm QUERY's.
    client.walk(starts=[1], seed=0, max_length=4, record_paths=False,
                app=QUERY["app"])
    execute = service.registry.histogram("serve.execute_seconds")
    execute_before = execute.total
    latencies = []
    lock = threading.Lock()

    def _worker(worker_id):
        mine = []
        for i in range(REQUESTS_PER_THREAD):
            base = worker_id * 31 + i * 7
            starts = [1 + (base + 3 * k) % 400 for k in range(STARTS_PER_REQUEST)]
            t0 = time.perf_counter()
            client.walk(starts=starts, seed=worker_id * 1000 + i, **QUERY)
            mine.append(time.perf_counter() - t0)
        with lock:
            latencies.extend(mine)

    threads = [threading.Thread(target=_worker, args=(w,))
               for w in range(CLIENT_THREADS)]
    wall_t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - wall_t0
    assert len(latencies) == TOTAL
    return np.asarray(latencies), wall, execute.total - execute_before


def _arm(graph, batching):
    with WalkService(
        graph,
        engine="tea-batch",
        batching=batching,
        # With closed-loop clients at most CLIENT_THREADS requests are
        # ever in flight; whatever parks while one batch runs is the next.
        max_batch=CLIENT_THREADS,
        queue_depth=TOTAL + CLIENT_THREADS,
    ) as service:
        # Best-of-2: the ratio under test is a property of the serving
        # architecture, not of whatever else the host is running.
        best = None
        for _ in range(2):
            run = _drive(service)
            if best is None or run[1] < best[1]:
                best = run
        latencies, wall, execute_s = best
        counters = ServeClient(port=service.port).stats()["counters"]
    assert counters["rejected"] == 0, "bench must not trip admission control"
    assert counters["failed"] == 0
    return {
        "qps": TOTAL / wall,
        "p50_ms": float(np.percentile(latencies, 50) * 1e3),
        "p99_ms": float(np.percentile(latencies, 99) * 1e3),
        "mean_ms": float(latencies.mean() * 1e3),
        "execute_ms_per_request": execute_s / TOTAL * 1e3,
        "wall_s": wall,
        "batches": counters["batches"],
        "coalesced": counters["coalesced"],
    }


def test_serve_latency_batching(benchmark, serve_graph):
    solo, batched = benchmark.pedantic(
        lambda: (_arm(serve_graph, batching=False),
                 _arm(serve_graph, batching=True)),
        rounds=1, iterations=1)
    speedup = batched["qps"] / solo["qps"]
    _results.update(solo=solo, batched=batched, speedup=speedup)
    benchmark.extra_info.update(
        batching_speedup=round(speedup, 2),
        execute_ms_per_request_solo=round(solo["execute_ms_per_request"], 3),
        execute_ms_per_request_batched=round(
            batched["execute_ms_per_request"], 3))

    assert batched["coalesced"] > 0, "batching arm never coalesced"
    on, off = batched["execute_ms_per_request"], solo["execute_ms_per_request"]
    assert on <= 0.5 * off, (
        f"batching-on executor time {on:.3f} ms per request is more than "
        f"half of batching-off's {off:.3f} ms"
    )
    assert batched["qps"] >= solo["qps"], (
        f"batching-on QPS {batched['qps']:.0f} is below batching-off QPS "
        f"{solo['qps']:.0f}"
    )


@pytest.fixture(scope="module", autouse=True)
def report():
    yield
    if not _results:
        return
    solo, batched = _results["solo"], _results["batched"]
    payload = {
        "total_requests": TOTAL,
        "client_threads": CLIENT_THREADS,
        "solo": solo,
        "batched": batched,
        "batching_speedup": _results["speedup"],
    }
    write_json_result("serve_latency", payload)
    record_history(
        "serve_latency",
        {
            "queries_per_sec_batched": round(batched["qps"], 1),
            "queries_per_sec_solo": round(solo["qps"], 1),
            "latency_p50_ms_batched": round(batched["p50_ms"], 3),
            "latency_p99_ms_batched": round(batched["p99_ms"], 3),
            "latency_p50_ms_solo": round(solo["p50_ms"], 3),
            "latency_p99_ms_solo": round(solo["p99_ms"], 3),
            "execute_ms_per_request_batched": round(
                batched["execute_ms_per_request"], 4),
            "execute_ms_per_request_solo": round(
                solo["execute_ms_per_request"], 4),
            "batching_speedup": round(_results["speedup"], 2),
        },
        engine="tea-batch",
        client_threads=CLIENT_THREADS,
        total_requests=TOTAL,
        bench_scale=BENCH_SCALE,
    )
    print(
        f"\nserve_latency: solo {solo['qps']:.0f} qps "
        f"(p50 {solo['p50_ms']:.2f}ms p99 {solo['p99_ms']:.2f}ms) | "
        f"batched {batched['qps']:.0f} qps "
        f"(p50 {batched['p50_ms']:.2f}ms p99 {batched['p99_ms']:.2f}ms) | "
        f"{_results['speedup']:.2f}x | executor ms/request "
        f"{solo['execute_ms_per_request']:.3f} solo, "
        f"{batched['execute_ms_per_request']:.3f} batched"
    )
