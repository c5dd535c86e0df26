"""Fused sampling-kernel throughput and factorized decay-bias cost.

Not a paper figure: this bench gates the kernel-fusion work itself.

* **Sampling throughput** — the fused numpy backend versus the
  pre-fusion (``legacy``) kernel kept in ``tests/legacy_kernel.py``,
  drawing through :func:`repro.kernels.sample_batch` on a fig2-style
  skewed workload
  (power-law temporal graph, exponential recency weights, lane counts
  matching real frontier widths under the executor's ~75ms chunk
  target). Acceptance: >= 1.5x aggregate speedup. Both kernels burn
  identical RNG streams, so the comparison is pure compute. The
  compiled ``c`` backend (whatever ``auto`` resolves to) is timed on the
  same bursts — ``c_speedup_n*`` is numpy time over its time — and every
  backend gets a 128-lane ``sample_batch_us`` row: the serving-width
  call, where ``LaneRng`` and call overhead, not the passes, dominate.
  ``hop_us_*`` / ``n2v_hop_us_*`` is what a whole lane-keyed iteration
  costs at that width (exponential / node2vec p=4, q=1/4): the three
  driver phases under ``numpy``, the one fused ``hop`` phase under
  ``c`` — the row ROADMAP's <= 20 us @ 128 lanes is judged on.

* **Streaming decay-bias maintenance** — appending E edges in B
  batches under ``exponential_decay``: the BINGO-style radix forest
  (O(1) buckets touched per batch) versus the carry forest (re-indexes
  on overflow) versus a full trunk rebuild per batch (the naive
  baseline every incremental scheme must beat). Acceptance: factorized
  update strictly cheaper than the rebuild, with zero merge work.

Both series land in ``bench_results/history/kernel_fusion.jsonl`` so
``repro bench compare`` can gate regressions.
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import BENCH_SCALE, record_history, write_json_result
from repro.core import builder
from repro.core.weights import WeightModel
from repro.engines.batch import BatchTeaEngine
from repro.graph.generators import temporal_powerlaw
from repro.graph.temporal_graph import TemporalGraph
from repro.kernels import KernelScratch, resolve_backend, sample_batch
from repro.rng import LaneRng
from repro.sampling.counters import CostCounters
from repro.telemetry import PhaseProfiler
from repro.walks.apps import exponential_walk, temporal_node2vec
from tests import legacy_kernel

# Frontier widths seen in practice: the parallel executor's adaptive
# chunking (75ms target) hands the kernel batches of hundreds to a few
# thousand lanes.
LANE_COUNTS = (1000, 2000, 4000)
#: The serve daemon's frontier width (one row per backend, in µs).
NARROW = 128
_fusion = {}
_decay = {}
_hops = {}


@pytest.fixture(scope="module")
def skewed_graph():
    """Fig2-style workload: power-law degrees."""
    return TemporalGraph.from_stream(
        temporal_powerlaw(
            num_vertices=int(2000 * BENCH_SCALE) or 200,
            num_edges=int(400000 * BENCH_SCALE) or 4000,
            alpha=1.2, time_horizon=500.0, seed=5,
        )
    )


@pytest.fixture(scope="module")
def skewed_index(skewed_graph):
    """... with skewed recency weights."""
    pre = builder.preprocess(skewed_graph, WeightModel("exponential", scale=20.0))
    return pre.index


def _best_of(fn, repeats=5):
    """Minimum wall time over ``repeats`` trials (1-core noise guard)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_kernel_fusion_throughput(benchmark, skewed_index):
    index = skewed_index
    deg = np.diff(index.indptr)
    rng = np.random.default_rng(0)
    lively = np.flatnonzero(deg >= min(64, max(2, int(deg.max() // 4))))
    legacy = legacy_kernel.BACKEND
    fused = resolve_backend("numpy")
    compiled = resolve_backend("auto")

    def measure():
        rows = {}
        for n in LANE_COUNTS + (NARROW,):
            vs = lively[rng.integers(0, lively.size, size=n)].astype(np.int64)
            ss = np.maximum((deg[vs] * rng.random(n)).astype(np.int64), 1)
            lanes = np.arange(n, dtype=np.int64)
            scratch = KernelScratch()
            reps = max(5, 50000 // n)

            def burst(backend, sc):
                for _ in range(reps):
                    sample_batch(
                        backend, index, vs, ss, None,
                        draw=LaneRng(lanes.astype(np.uint64) + 7),
                        lanes=lanes, scratch=sc,
                    )

            t_leg = _best_of(lambda: burst(legacy, None)) / reps
            t_fus = _best_of(lambda: burst(fused, scratch)) / reps
            t_c = _best_of(lambda: burst(compiled, KernelScratch())) / reps
            rows[n] = {"legacy_s": t_leg, "fused_s": t_fus, "c_s": t_c,
                       "speedup": t_leg / t_fus, "c_speedup": t_fus / t_c}
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    _fusion["narrow"] = rows.pop(NARROW)
    _fusion["compiled"] = compiled.name
    _fusion.update(rows)
    benchmark.extra_info.update(
        {f"n={n}": f"{row['speedup']:.2f}x" for n, row in rows.items()}
    )
    total_legacy = sum(row["legacy_s"] for row in rows.values())
    total_fused = sum(row["fused_s"] for row in rows.values())
    aggregate = total_legacy / total_fused
    _fusion["aggregate"] = aggregate
    assert aggregate >= 1.5, (
        f"fused backend must be >=1.5x the pre-fusion kernel on the "
        f"fig2-style workload, got {aggregate:.2f}x "
        f"({ {n: round(r['speedup'], 2) for n, r in rows.items()} })"
    )


def test_hop_per_iteration(benchmark, skewed_graph):
    """Mean walk-phase time per iteration of a 128-lane, 2-hop lane-keyed
    run (iteration 0: every lane; iteration 1: the survivors, β live)."""
    deg = np.diff(skewed_graph.indptr)
    rng = np.random.default_rng(3)
    starts = rng.choice(np.flatnonzero(deg >= 8), size=NARROW)
    seeds = rng.integers(0, 2**63, NARROW).astype(np.uint64)
    phases = ("hop", "gather", "draw", "scatter")

    def per_iteration_us(engine):
        best = float("inf")
        for _ in range(300):
            profiler = PhaseProfiler(calibrate=False)
            engine._run_frontier(starts, 2, 0.0, None, CostCounters(), True,
                                 profiler=profiler, lane_rng=LaneRng(seeds))
            cells = [cell for path, cell in profiler.phases.items()
                     if path[-1] in phases]
            best = min(best, sum(c[1] for c in cells) / max(c[0] for c in cells))
        return best * 1e6

    def measure():
        rows = {}
        for prefix, spec in (("", exponential_walk(scale=20.0)),
                             ("n2v_", temporal_node2vec(p=4.0, q=0.25, scale=20.0))):
            for name in dict.fromkeys(("numpy", resolve_backend("auto").name)):
                engine = BatchTeaEngine(skewed_graph, spec, kernel_backend=name)
                engine.prepare()
                rows[f"{prefix}hop_us_{name}"] = per_iteration_us(engine)
        return rows

    _hops.update(benchmark.pedantic(measure, rounds=1, iterations=1))
    benchmark.extra_info.update({k: round(v, 1) for k, v in _hops.items()})


def test_factorized_decay_streaming(benchmark):
    from repro.core.incremental import VertexIncrementalHPAT
    from repro.kernels.decay import DecayRadixForest

    wm = WeightModel("exponential_decay", scale=5.0)
    # Floor the stream size: below ~40k edges the radix forest's
    # per-batch bookkeeping rivals a numpy exp+cumsum over the whole
    # (small) array and the comparison measures python overhead.
    num_edges = max(int(40000 * BENCH_SCALE), 40000)
    num_batches = 80
    rng = np.random.default_rng(23)
    times = np.sort(rng.uniform(0.0, 400.0, size=num_edges))
    dst = rng.integers(0, 512, size=num_edges).astype(np.int64)
    cuts = np.linspace(0, num_edges, num_batches + 1).astype(int)
    batches = [(dst[lo:hi], times[lo:hi])
               for lo, hi in zip(cuts[:-1], cuts[1:]) if hi > lo]

    def stream(make, append):
        state = make()
        t0 = time.perf_counter()
        for d, t in batches:
            append(state, d, t)
        return state, time.perf_counter() - t0

    def rebuild_append(state, d, t):
        # Full trunk rebuild per batch: recompute every weight and its
        # prefix sums from scratch — the cost incremental schemes avoid.
        state["dst"] = np.concatenate([state["dst"], d])
        state["times"] = np.concatenate([state["times"], t])
        w = np.exp((state["times"][-1] - state["times"]) / wm.scale)
        state["cum"] = np.concatenate([[0.0], np.cumsum(w)])

    def measure():
        radix, radix_s = stream(lambda: DecayRadixForest(wm),
                                lambda f, d, t: f.append_batch(d, t))
        carry, carry_s = stream(lambda: VertexIncrementalHPAT(wm),
                                lambda f, d, t: f.append_batch(d, t))
        _, rebuild_s = stream(
            lambda: {"dst": np.zeros(0, np.int64),
                     "times": np.zeros(0, np.float64)},
            rebuild_append,
        )
        return {
            "radix_s": radix_s, "carry_s": carry_s, "rebuild_s": rebuild_s,
            "radix_merged": radix.merged_edges,
            "carry_merged": carry.merged_edges,
            "radix_buckets_touched": radix.buckets_touched,
            "radix_blocks": radix.num_blocks(),
        }

    stats = benchmark.pedantic(measure, rounds=1, iterations=1)
    _decay.update(stats)
    _decay["num_edges"] = num_edges
    _decay["num_batches"] = num_batches
    benchmark.extra_info.update({
        "radix_vs_rebuild": f"{stats['rebuild_s'] / stats['radix_s']:.1f}x",
        "buckets_touched": stats["radix_buckets_touched"],
    })
    # The factorized update must beat rebuilding trunks outright, with
    # zero merge work (the O(1)-buckets-per-batch claim: touched bucket
    # count is bounded by batches + covered octave range, not edges).
    assert stats["radix_s"] < stats["rebuild_s"], (
        f"factorized append ({stats['radix_s']:.3f}s) must be strictly "
        f"below per-batch trunk rebuild ({stats['rebuild_s']:.3f}s)"
    )
    assert stats["radix_merged"] == 0
    assert stats["carry_merged"] > 0
    assert stats["radix_buckets_touched"] <= num_batches + stats["radix_blocks"]


@pytest.fixture(scope="module", autouse=True)
def report():
    yield
    if "aggregate" not in _fusion or "radix_s" not in _decay:
        return
    payload = {
        "sampling": {str(n): _fusion[n] for n in LANE_COUNTS},
        f"sampling_{NARROW}": _fusion["narrow"],
        "aggregate_speedup": _fusion["aggregate"],
        "decay_streaming": dict(_decay),
    }
    print(
        f"\n===== kernel_fusion =====\n"
        f"fused vs legacy: {_fusion['aggregate']:.2f}x aggregate "
        f"({ {n: round(_fusion[n]['speedup'], 2) for n in LANE_COUNTS} })\n"
        f"{_fusion['compiled']} vs fused: "
        f"{ {n: round(_fusion[n]['c_speedup'], 2) for n in LANE_COUNTS} }; "
        f"{NARROW}-lane sample_batch "
        f"{ {k[:-2]: round(v * 1e6, 1) for k, v in _fusion['narrow'].items() if k.endswith('_s')} } us\n"
        f"{NARROW}-lane iteration { {k: round(v, 1) for k, v in _hops.items()} } us\n"
        f"decay stream: radix {_decay['radix_s']:.3f}s, carry "
        f"{_decay['carry_s']:.3f}s, rebuild {_decay['rebuild_s']:.3f}s"
    )
    write_json_result("kernel_fusion", payload)
    metrics = {**_hops, "fused_speedup": _fusion["aggregate"],
               "decay_radix_s": _decay["radix_s"],
               "decay_carry_s": _decay["carry_s"],
               "decay_rebuild_s": _decay["rebuild_s"]}
    for n in LANE_COUNTS:
        metrics[f"speedup_n{n}"] = _fusion[n]["speedup"]
        metrics[f"c_speedup_n{n}"] = _fusion[n]["c_speedup"]
    for name, key in (("legacy", "legacy_s"), ("numpy", "fused_s"),
                      (_fusion["compiled"], "c_s")):
        metrics[f"sample_batch_us_{name}"] = _fusion["narrow"][key] * 1e6
    record_history(
        "kernel_fusion", metrics,
        backend=_fusion["compiled"],
        lane_counts=list(LANE_COUNTS),
        decay_edges=_decay["num_edges"],
        decay_batches=_decay["num_batches"],
        buckets_touched=_decay["radix_buckets_touched"],
    )
