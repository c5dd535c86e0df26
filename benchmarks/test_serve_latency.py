"""Serving latency/throughput: request batching on versus off.

Not a paper figure: this bench gates the `repro serve` batching work.
Boots two real daemons (loopback HTTP, identical graph and engine) and
pushes the SAME request volume from concurrent client threads:

* **batching off** — the batcher degrades to one-request batches: each
  query pays its own frontier run, serialised through the single
  executor thread (the honest no-coalescing baseline, not a different
  code path);
* **batching on** — concurrent compatible queries coalesce into shared
  lane-seeded frontier runs (ThunderRW-style interleaving at the
  serving layer).

Per-request wall latencies are measured client-side; p50/p99 and QPS
for both arms land in ``bench_results/history/serve_latency.jsonl`` via
:mod:`repro.benchhistory`, so ``repro bench compare`` gates
regressions. Acceptance (ISSUE 9): batching-on sustains >= 2x the QPS
of batching-off at equal volume.
"""

import sys
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


@pytest.fixture(scope="module", autouse=True)
def fast_thread_switching():
    """Both arms pay two thread handoffs per request (handler ->
    batcher -> handler); at the default 5 ms GIL switch interval that
    handoff noise swamps the execution costs the bench compares."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(0.0005)
    yield
    sys.setswitchinterval(previous)


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
    (per-request latencies in seconds, total wall seconds)."""
    client = ServeClient(port=service.port, timeout=120.0)
    # Warm the engine cache so both arms measure serving, not prepare().
    client.walk(starts=[1], seed=0, max_length=4, record_paths=False)
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
    return np.asarray(latencies), wall


def _arm(graph, batching):
    with WalkService(
        graph,
        engine="tea-batch",
        batching=batching,
        # With closed-loop clients at most CLIENT_THREADS requests are
        # ever in flight; whatever parks while one batch runs is the next.
        max_batch=CLIENT_THREADS,
        queue_depth=TOTAL + CLIENT_THREADS,
        request_timeout=120.0,
    ) as service:
        # Best-of-2: the ratio under test is a property of the serving
        # architecture, not of whatever else the host is running.
        best = None
        for _ in range(2):
            latencies, wall = _drive(service)
            if best is None or wall < best[1]:
                best = (latencies, wall)
        latencies, wall = best
        counters = ServeClient(port=service.port).stats()["counters"]
    assert counters["rejected"] == 0, "bench must not trip admission control"
    assert counters["failed"] == 0
    return {
        "qps": TOTAL / wall,
        "p50_ms": float(np.percentile(latencies, 50) * 1e3),
        "p99_ms": float(np.percentile(latencies, 99) * 1e3),
        "mean_ms": float(latencies.mean() * 1e3),
        "wall_s": wall,
        "batches": counters["batches"],
        "coalesced": counters["coalesced"],
    }


@pytest.mark.benchmark
def test_serve_latency_batching_speedup(serve_graph):
    solo = _arm(serve_graph, batching=False)
    batched = _arm(serve_graph, batching=True)
    speedup = batched["qps"] / solo["qps"]
    _results.update(solo=solo, batched=batched, speedup=speedup)

    assert batched["coalesced"] > 0, "batching arm never coalesced"
    assert speedup >= 2.0, (
        f"batching-on QPS {batched['qps']:.0f} is only {speedup:.2f}x "
        f"batching-off QPS {solo['qps']:.0f} (need >= 2x)"
    )


@pytest.mark.benchmark
def test_record_serve_latency_history():
    assert _results, "speedup bench must run first"
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
        f"{_results['speedup']:.2f}x"
    )
