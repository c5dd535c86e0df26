"""Fast invariant check for the out-of-core engines (``make ooc-smoke``).

``python -m repro.engines.tea_outofcore.smoke`` runs the gate the
Makefile wires into ``make test`` (the ooc twin of ``scaling-smoke``):

* step parity — at ``max_length=1`` the step count is determined by the
  starts alone (every walk whose start has candidates takes exactly one
  step), so scalar and batched engines must agree *exactly*, whatever
  their RNG consumption order;
* cache sanity — at an ample budget the re-entry cache must serve a
  healthy fraction of lookups on a hub-heavy power-law graph;
* coalescing — the batched engine must finish the same workload in
  strictly fewer backing read operations than the scalar engine at an
  equal cache budget;
* prefetch conservation — ``issued == hits + wasted + in_flight``;
* determinism — two same-seed batched runs produce identical paths.

``make ooc-smoke`` runs a sixth, structural gate beside these —
``tests/test_ooc_batch.py::TestWidthIndependence``: one frontier
iteration makes the same number of Python-level calls at 1 k and at
16 k lanes, which keeps per-range loops out of the read path.
"""

from __future__ import annotations

from repro.engines.base import Workload

#: Minimum lookup hit rate expected from the re-entry cache on the
#: smoke graph at an ample budget (hubs dominate power-law walk mass).
#: A lookup is one whole trunk per lane and step, so every miss here is
#: the first touch of a trunk; the per-range cache this replaced looked
#: the same bytes up twice and scored 0.5 on this graph, the pool 0.33.
CACHE_HIT_FLOOR = 0.25

SMOKE_CACHE_BYTES = 1 << 20

def ooc_smoke() -> dict:
    """Run every invariant; raises ``AssertionError`` on violation."""
    from repro.engines.tea_outofcore import (
        BatchTeaOutOfCoreEngine,
        TeaOutOfCoreEngine,
    )
    from repro.graph.datasets import load_dataset
    from repro.walks.apps import exponential_walk

    graph = load_dataset("growth", scale=0.25, seed=7)
    spec = exponential_walk(scale=2.0)

    # Step parity at max_length=1: deterministic, RNG-independent.
    parity_wl = Workload(walks_per_vertex=2, max_length=1)
    scalar_steps = TeaOutOfCoreEngine(
        graph, spec, cache_bytes=SMOKE_CACHE_BYTES
    ).run(parity_wl, seed=0, record_paths=False).counters.steps
    batch_steps = BatchTeaOutOfCoreEngine(
        graph, spec, cache_bytes=SMOKE_CACHE_BYTES
    ).run(parity_wl, seed=0, record_paths=False).counters.steps
    assert batch_steps == scalar_steps, (
        f"step parity violated at max_length=1: batched took {batch_steps}, "
        f"scalar took {scalar_steps}"
    )

    # Full workload: coalescing, cache, prefetch and determinism checks.
    workload = Workload(walks_per_vertex=2, max_length=40)
    scalar = TeaOutOfCoreEngine(graph, spec, cache_bytes=SMOKE_CACHE_BYTES)
    scalar_result = scalar.run(workload, seed=0, record_paths=False)
    scalar_ops = scalar.index.store.read_ops

    batch = BatchTeaOutOfCoreEngine(
        graph, spec, cache_bytes=SMOKE_CACHE_BYTES, prefetch=True
    )
    batch_result = batch.run(workload, seed=0, record_paths=False)
    store = batch.index.store
    assert store.read_ops < scalar_ops, (
        f"coalescing failed: batched used {store.read_ops} backing reads, "
        f"scalar used {scalar_ops} at the same cache budget"
    )
    hit_rate = store.cache.stats.hit_rate
    assert hit_rate >= CACHE_HIT_FLOOR, (
        f"cache hit rate {hit_rate:.3f} below the {CACHE_HIT_FLOOR} floor"
    )
    settled = store.prefetch_hits + store.prefetch_wasted + store.prefetch_in_flight
    assert store.prefetch_issued == settled, (
        f"prefetch conservation violated: issued {store.prefetch_issued} != "
        f"hits {store.prefetch_hits} + wasted {store.prefetch_wasted} + "
        f"in_flight {store.prefetch_in_flight}"
    )

    # Determinism: same seed, same paths.
    first = BatchTeaOutOfCoreEngine(
        graph, spec, cache_bytes=SMOKE_CACHE_BYTES
    ).run(workload, seed=3)
    second = BatchTeaOutOfCoreEngine(
        graph, spec, cache_bytes=SMOKE_CACHE_BYTES
    ).run(workload, seed=3)
    assert [w.hops for w in first.paths] == [w.hops for w in second.paths], (
        "batched ooc engine is not deterministic at a fixed seed"
    )

    summary = {
        "parity_steps": int(scalar_steps),
        "scalar_read_ops": int(scalar_ops),
        "batch_read_ops": int(store.read_ops),
        "cache_hit_rate": round(hit_rate, 4),
        "prefetch_issued": int(store.prefetch_issued),
        "prefetch_hits": int(store.prefetch_hits),
        "prefetch_wasted": int(store.prefetch_wasted),
        "prefetch_in_flight": int(store.prefetch_in_flight),
        "scalar_steps": int(scalar_result.counters.steps),
        "batch_steps": int(batch_result.counters.steps),
    }
    print("ooc smoke (growth@0.25)")
    for key, value in summary.items():
        print(f"  {key}: {value}")
    print(
        f"read ops {store.read_ops} < scalar {scalar_ops}; "
        f"hit rate {hit_rate:.2f}; prefetch conserved"
    )
    return summary


if __name__ == "__main__":  # pragma: no cover - CLI entry
    ooc_smoke()
