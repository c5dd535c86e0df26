"""Ingest throughput — bulk columnar path vs per-edge apply loop.

Not a paper figure: the paper reports incremental maintenance cost per
batch (Figure 13d); this bench characterises the durable-ingest ISSUE's
acceptance bar instead. Three arms over the same edge stream:

* ``bulk``      — one ``add_multiple_edges`` call (one argsort, one
                  per-vertex group append, one WAL record);
* ``batched``   — ``apply_batch`` per 1,000-edge batch (the streaming
                  steady state);
* ``per_edge``  — ``apply_batch`` per single edge (the naive loop the
                  bulk path must beat ≥5x on edges/sec, measured on a
                  prefix so the run stays tractable — the prefix's
                  smaller index makes the gate conservative).

A fourth arm reads what was ingested: ``pinned_walks_per_sec`` is
``READ_STARTS`` walks of length ``READ_LENGTH`` on the batched engine's
newest epoch, every round on an epoch published just before it by a
one-edge batch (the first read of an epoch pays its pack; see
docs/streaming.md).

Every arm is timed as the fastest of ``ROUNDS`` runs on fresh engines,
the three ingest arms taking turns inside each round so a slow phase of
a shared host lands on all of them alike.
Each run appends ``edges_per_sec_*`` and ``pinned_walks_per_sec`` to
``bench_results/history/ingest_throughput.jsonl`` so
``repro bench compare --bench ingest_throughput`` gates regressions.
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import (
    BENCH_SCALE,
    record_history,
    write_json_result,
    write_result,
)
from repro.core.weights import WeightModel
from repro.graph.generators import temporal_powerlaw
from repro.streaming.batch import StreamingTeaEngine
from repro.walks.spec import WalkSpec
from tests.stream_oracle import vertex_candidate_count

NUM_EDGES = int(24_000 * BENCH_SCALE)
PER_EDGE_PREFIX = int(3_000 * BENCH_SCALE)
BATCH_SIZE = 1_000
READ_STARTS = 2_000
READ_LENGTH = 20
#: Each arm is the fastest of this many runs: single shots of a 0.2 s arm
#: spread ±30 % on a shared box, which a 10 % compare gate cannot resolve.
ROUNDS = 5

_metrics = {}


def _spec() -> WalkSpec:
    return WalkSpec(
        name="ingest-bench",
        weight_model=WeightModel("exponential_decay", scale=40.0),
    )


def _stream():
    return temporal_powerlaw(
        num_vertices=max(200, NUM_EDGES // 60),
        num_edges=NUM_EDGES,
        seed=17,
        time_horizon=500.0,
    )


def _best(arms):
    """``{arm: (fastest of ROUNDS runs on fresh engines, last engine)}``,
    the arms taking turns inside each round."""
    best = {arm: (float("inf"), None) for arm in arms}
    for _ in range(ROUNDS):
        for arm, run in arms.items():
            engine = StreamingTeaEngine(_spec())
            t0 = time.perf_counter()
            run(engine)
            best[arm] = (min(best[arm][0], time.perf_counter() - t0), engine)
    return best


def _run_arms():
    stream = _stream()
    prefix = stream[:PER_EDGE_PREFIX]

    def per_edge_loop(engine):
        for i in range(len(prefix)):
            engine.apply_batch(prefix[i : i + 1])

    best = _best({
        "bulk": lambda e: e.add_multiple_edges(stream.src, stream.dst, stream.time),
        "batched": lambda e: e.ingest(stream, batch_size=BATCH_SIZE),
        "per_edge": per_edge_loop,
    })
    (bulk_s, bulk), (batched_s, batched) = best["bulk"], best["batched"]
    per_edge_s = best["per_edge"][0]

    # Same edges at the same weights. The carry blocks follow the batch
    # boundaries, so walks agree in distribution, not bit for bit.
    assert bulk.active_vertices() == batched.active_vertices()
    for v in bulk.active_vertices():
        one, many = bulk.index.vertices[v], batched.index.vertices[v]
        for a, b in zip(one.edges_desc(), many.edges_desc()):
            assert np.array_equal(a, b), "bulk and batched ingest diverged"
        for t in (None, 125.0, 250.0, 375.0):
            assert vertex_candidate_count(one, t) == vertex_candidate_count(many, t)

    read_starts = np.random.default_rng(5).choice(
        batched.active_vertices(), READ_STARTS)
    last = stream[-1:]
    read_s = float("inf")
    for seed in range(ROUNDS):
        # A new epoch, so every round is a first read and pays the pack.
        batched.add_multiple_edges(last.src, last.dst, last.time + seed + 1.0)
        view = batched.pin()
        t0 = time.perf_counter()
        paths = view.run_walks(read_starts, max_length=READ_LENGTH, seed=seed)
        read_s = min(read_s, time.perf_counter() - t0)
        assert len(paths) == READ_STARTS

    return {
        "pinned_walks_per_sec": READ_STARTS / max(read_s, 1e-9),
        "edges_per_sec_bulk": len(stream) / max(bulk_s, 1e-9),
        "edges_per_sec_batched": len(stream) / max(batched_s, 1e-9),
        "edges_per_sec_per_edge": len(prefix) / max(per_edge_s, 1e-9),
        "bulk_s": bulk_s,
        "batched_s": batched_s,
        "per_edge_s": per_edge_s,
    }


def test_ingest_throughput(benchmark):
    metrics = benchmark.pedantic(_run_arms, rounds=1, iterations=1)
    _metrics.update(metrics)
    benchmark.extra_info.update({k: round(v, 2) for k, v in metrics.items()})
    speedup = metrics["edges_per_sec_bulk"] / metrics["edges_per_sec_per_edge"]
    assert speedup >= 5.0, (
        f"bulk ingest only {speedup:.1f}x over the per-edge loop "
        f"({metrics['edges_per_sec_bulk']:,.0f} vs "
        f"{metrics['edges_per_sec_per_edge']:,.0f} edges/s); gate is 5x"
    )


@pytest.fixture(scope="module", autouse=True)
def report():
    yield
    if not _metrics:
        return
    speedup = (
        _metrics["edges_per_sec_bulk"] / _metrics["edges_per_sec_per_edge"]
    )
    lines = [
        "ingest throughput (edges/sec, higher is better)",
        f"  bulk add_multiple_edges : {_metrics['edges_per_sec_bulk']:>12,.0f}"
        f"  ({NUM_EDGES} edges in {_metrics['bulk_s'] * 1e3:.1f} ms)",
        f"  batched (B={BATCH_SIZE})      : "
        f"{_metrics['edges_per_sec_batched']:>12,.0f}",
        f"  per-edge apply loop     : "
        f"{_metrics['edges_per_sec_per_edge']:>12,.0f}"
        f"  ({PER_EDGE_PREFIX}-edge prefix)",
        f"  bulk / per-edge speedup : {speedup:>12.1f}x  (gate: >= 5x)",
        f"  pinned walks/s          : {_metrics['pinned_walks_per_sec']:>12,.0f}"
        f"  ({READ_STARTS} starts x length {READ_LENGTH}, pack included)",
    ]
    write_result("ingest_throughput", "\n".join(lines))
    write_json_result(
        "ingest_throughput",
        {k: round(v, 3) for k, v in _metrics.items()},
    )
    record_history(
        "ingest_throughput",
        {
            "edges_per_sec_bulk": round(_metrics["edges_per_sec_bulk"], 1),
            "edges_per_sec_batched": round(
                _metrics["edges_per_sec_batched"], 1
            ),
            "edges_per_sec_per_edge": round(
                _metrics["edges_per_sec_per_edge"], 1
            ),
            "pinned_walks_per_sec": round(_metrics["pinned_walks_per_sec"], 1),
        },
        num_edges=NUM_EDGES,
        batch_size=BATCH_SIZE,
    )
