"""Figure 13a/b/c/e — preprocessing phases and their thread scaling.

Paper: all three preprocessing phases (candidate-set search, HPAT
construction, auxiliary-index generation) are embarrassingly parallel;
16 threads give ≈12.8× on a 16-core box, HPAT construction is ~80% of
preprocessing and index generation ~5%.

Here: the same three phases, timed per dataset at 1 worker and at
``min(16, cpu)`` workers (thread chunks over precomputed disjoint output
ranges, like the paper's lock-free scheme; the compiled alias and
prefix-sum builders release the GIL, so the chunks run in parallel).
The reproduced shape is the *phase breakdown* (HPAT construction
dominates, index generation is a trailing few percent); scaling factors
are asserted only when the machine actually has multiple cores — on a
single-core box the sweep measures pure coordination overhead and is
reported as such (see EXPERIMENTS.md).
"""

import os

import pytest

from benchmarks.conftest import BENCH_EXP_SCALE, format_series, write_result
from repro.core.builder import preprocess
from repro.core.weights import WeightModel

CPUS = os.cpu_count() or 1
MAX_WORKERS = max(2, min(16, CPUS))

_phases = {}


@pytest.mark.parametrize("dataset", ["growth", "edit", "delicious", "twitter"])
@pytest.mark.parametrize("workers", [1, MAX_WORKERS])
def test_fig13_phases(benchmark, datasets, dataset, workers):
    graph = datasets[dataset]
    model = WeightModel("exponential", scale=BENCH_EXP_SCALE)

    def run():
        return preprocess(graph, model, workers=workers)

    pre = benchmark.pedantic(run, rounds=1, iterations=1)
    snap = pre.report.snapshot()
    _phases[(dataset, workers)] = snap
    benchmark.extra_info.update(snap)
    # Figure 13's structural claims: HPAT construction dominates, the
    # auxiliary index is a small trailing phase.
    assert snap["index_build_s"] > snap["aux_index_s"]
    assert snap["index_build_s"] >= 0.3 * snap["total_s"]


def test_fig13e_thread_sweep(benchmark, datasets):
    """Preprocessing time vs worker count on the largest dataset.

    The paper measures 12.8× from 1→16 threads on a 16-core machine.
    Scaling is asserted only when cores are available; a single-core run
    still exercises the parallel code path and records the overhead.
    """
    graph = datasets["twitter"]
    model = WeightModel("exponential", scale=BENCH_EXP_SCALE)
    sweep = {}

    def run():
        for workers in sorted({1, 2, 4, 8, MAX_WORKERS}):
            pre = preprocess(graph, model, workers=workers)
            sweep[workers] = pre.report.total_seconds
        return sweep

    benchmark.pedantic(run, rounds=1, iterations=1)
    if CPUS >= 4:
        best = min(w for w in sweep if w > 1 and sweep[w] == min(
            v for k, v in sweep.items() if k > 1))
        assert sweep[best] < sweep[1], "multi-core run must beat serial"
    text = format_series(
        {"preprocess_s": {str(k): v for k, v in sweep.items()}},
        x_label="workers",
        title=(
            f"Figure 13e: preprocessing time vs workers "
            f"(twitter analogue, machine has {CPUS} core(s); "
            f"paper: 12.8x at 16 threads on 16 cores)"
        ),
    )
    write_result("fig13e_thread_sweep", text)


@pytest.fixture(scope="module", autouse=True)
def report():
    yield
    if not _phases:
        return
    series = {}
    for (dataset, workers), snap in sorted(_phases.items()):
        label = f"{dataset}@{workers}w"
        series[label] = {
            "candidate_search": snap["candidate_search_s"],
            "hpat_build": snap["index_build_s"],
            "aux_index": snap["aux_index_s"],
            "total": snap["total_s"],
        }
    text = format_series(
        series,
        x_label="phase",
        title="Figure 13a-c: preprocessing phase seconds (dataset@workers)",
    )
    write_result("fig13_construction", text)
