"""Figure 14 companion — batched out-of-core path: cache-size sweep.

The scalar ``tea-ooc`` reader (``tests/ooc_oracle.py``) pays one
synchronous trunk read per walker step — a batch of one through the
columnar read path;
``tea-ooc-batch`` advances the whole frontier per step, serves the
step's trunks from the frame pool in a constant number of array passes
and coalesces the misses into large backing reads. This sweep runs both
engines over cache budgets and records the grid to
``bench_results/ooc_cache.json``.

Asserted shape (the tentpole's acceptance bar):

* batched is >= 3x faster than scalar in the walk phase at the same
  cache budget (frontier vectorisation + coalescing);
* batched issues strictly fewer backing read operations than scalar at
  the same budget (coalescing is a strict win on operations even when
  logical bytes match).
"""

import json

import pytest

from benchmarks.conftest import (
    BENCH_EXP_SCALE,
    BENCH_R,
    BENCH_SCALE,
    RESULTS_DIR,
    record_history,
)
from repro.engines import BatchTeaOutOfCoreEngine, Workload
from repro.walks.apps import temporal_node2vec
from tests.ooc_oracle import TeaOutOfCoreEngine

TRUNK_SIZE = 10  # the paper's choice for twitter under 16 GB
CACHE_SWEEP = (("no-cache", 0), ("cache-256KiB", 256 << 10),
               ("cache-4MiB", 4 << 20))
SPEEDUP_FLOOR = 3.0


def _row(engine_name, cache_label, cache_bytes, result, store):
    stats = store.cache.stats
    return {
        "engine": engine_name,
        "cache": cache_label,
        "cache_bytes": cache_bytes,
        "walk_seconds": result.timer.seconds["walk"],
        "total_seconds": result.total_seconds,
        "steps": result.total_steps,
        "io_bytes": result.counters.io_bytes,
        "io_blocks": result.counters.io_blocks,
        "read_ops": store.read_ops,
        "cache_hit_rate": stats.hit_rate,
        "cache_bytes_served": stats.bytes_served,
    }


def test_ooc_cache_sweep(benchmark, datasets, tmp_path):
    graph = datasets["growth"]
    spec = temporal_node2vec(p=0.5, q=2.0, scale=BENCH_EXP_SCALE)
    # Figure 14 drives a walker per vertex times R; the batched engine's
    # win grows with frontier density (fixed per-iteration overhead is
    # amortised over more lanes), so the sweep uses a dense frontier.
    workload = Workload(walks_per_vertex=4 * BENCH_R, max_length=80)
    rows = []

    def run():
        for cache_label, cache_bytes in CACHE_SWEEP:
            scalar = TeaOutOfCoreEngine(
                graph, spec, trunk_size=TRUNK_SIZE,
                storage_dir=str(tmp_path / f"s-{cache_label}"),
                cache_bytes=cache_bytes,
            )
            result = scalar.run(workload, seed=9, record_paths=False)
            rows.append(_row("tea-ooc", cache_label, cache_bytes, result,
                             scalar.index.store))
            batch = BatchTeaOutOfCoreEngine(
                graph, spec, trunk_size=TRUNK_SIZE,
                storage_dir=str(tmp_path / f"b-{cache_label}"),
                cache_bytes=cache_bytes,
            )
            result = batch.run(workload, seed=9, record_paths=False)
            rows.append(_row("tea-ooc-batch", cache_label, cache_bytes,
                             result, batch.index.store))
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)

    by_key = {(r["engine"], r["cache"]): r for r in rows}
    speedups = {}
    for cache_label, cache_bytes in CACHE_SWEEP:
        scalar = by_key[("tea-ooc", cache_label)]
        batch = by_key[("tea-ooc-batch", cache_label)]
        speedups[cache_label] = scalar["walk_seconds"] / batch["walk_seconds"]
        # Coalescing: strictly fewer backing reads at every equal budget.
        assert batch["read_ops"] < scalar["read_ops"], (
            cache_label, batch["read_ops"], scalar["read_ops"])
    # The headline bar at the headline budget.
    assert speedups["cache-4MiB"] >= SPEEDUP_FLOOR, speedups

    doc = {
        "experiment": "ooc_cache",
        "dataset": "growth",
        "dataset_scale": BENCH_SCALE,
        "trunk_size": TRUNK_SIZE,
        "workload": workload.describe(),
        "app": "temporal_node2vec(p=0.5, q=2.0)",
        "seed": 9,
        "rows": rows,
        "walk_speedup_batch_vs_scalar": speedups,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    out_path = RESULTS_DIR / "ooc_cache.json"
    out_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"\n===== ooc_cache =====\n-> {out_path}")
    for row in rows:
        print(
            f"{row['engine']:>14} {row['cache']:>13} "
            f"walk={row['walk_seconds']:.3f}s read_ops={row['read_ops']} "
            f"io={row['io_bytes'] / 1024**2:.1f}MiB "
            f"hit_rate={row['cache_hit_rate']:.3f}"
        )
    print("walk speedup batch/scalar: "
          + "  ".join(f"{k}={v:.2f}x" for k, v in speedups.items()))
    # History: the headline numbers `repro bench compare` gates on.
    headline = by_key[("tea-ooc-batch", "cache-4MiB")]
    record_history(
        "ooc_cache",
        {
            "speedup_cache_4MiB": speedups["cache-4MiB"],
            "batch_walk_s": headline["walk_seconds"],
            # A count of backing reads, lower is better — not
            # ``..._ops``, which the history gate reads as a throughput.
            "batch_backing_reads": float(headline["read_ops"]),
            # Renamed from ``cache_hit_ratio`` when the cache unit became
            # the whole trunk (one lookup where there were two): the two
            # ratios are not comparable, so `repro bench compare` must
            # not line them up.
            "trunk_hit_ratio": headline["cache_hit_rate"],
        },
        dataset="growth", scale=BENCH_SCALE, trunk_size=TRUNK_SIZE,
    )
