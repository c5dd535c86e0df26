"""Figure 11 — piecewise breakdown: HPAT, then HPAT + auxiliary index.

Paper: on temporal node2vec, HPAT alone is 5.4×–1,788× faster than the
GraphWalker baseline; the auxiliary index adds a further 2.75×–3.45× by
making trunk lookup O(1) instead of O(log D).

Here: the same three configurations (baseline, HPAT without index, HPAT
with index). The index's contribution at our scale is visible in the
per-step probe counts (the O(log D) trunk-finding work it removes),
which is what the assertion checks; wall-clock deltas ride on top.
"""

import pytest

from benchmarks.conftest import BENCH_EXP_SCALE, BENCH_R, format_series, write_result
from repro.engines import GraphWalkerEngine, TeaEngine, Workload
from repro.walks.apps import temporal_node2vec

CONFIGS = {
    "graphwalker": lambda g, s: GraphWalkerEngine(g, s),
    "hpat": lambda g, s: TeaEngine(g, s, use_aux_index=False),
    "hpat+index": lambda g, s: TeaEngine(g, s, use_aux_index=True),
}

_time = {name: {} for name in CONFIGS}
_cost = {name: {} for name in CONFIGS}


@pytest.mark.parametrize("dataset", ["growth", "edit", "delicious", "twitter"])
@pytest.mark.parametrize("config", list(CONFIGS))
def test_fig11_breakdown(benchmark, datasets, dataset, config):
    graph = datasets[dataset]
    spec = temporal_node2vec(p=0.5, q=2.0, scale=BENCH_EXP_SCALE)
    workload = Workload(walks_per_vertex=BENCH_R, max_length=80)

    def run():
        return CONFIGS[config](graph, spec).run(workload, seed=3, record_paths=False)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    _time[config][dataset] = result.total_seconds
    _cost[config][dataset] = result.counters.edges_per_step
    benchmark.extra_info["edges_per_step"] = _cost[config][dataset]


@pytest.fixture(scope="module", autouse=True)
def report():
    yield
    if not all(len(_cost[c]) == 4 for c in CONFIGS):
        return
    for dataset in _cost["hpat"]:
        # The index strictly removes per-step work (Section 3.4).
        assert _cost["hpat+index"][dataset] < _cost["hpat"][dataset], dataset
        assert _cost["hpat+index"][dataset] < _cost["graphwalker"][dataset]
    text = "\n\n".join(
        [
            format_series(
                _time, x_label="dataset",
                title="Figure 11 (runtime seconds): GraphWalker vs HPAT vs HPAT+index",
            ),
            format_series(
                _cost, x_label="dataset",
                title="Figure 11 (edges evaluated per step)",
            ),
        ]
    )
    write_result("fig11_breakdown", text)
