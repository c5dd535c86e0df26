"""Figure 10 — TEA vs single-node KnightKing vs CTDNE (temporal node2vec).

Paper: TEA is up to 5,627× faster than single-node KnightKing and up to
8,816× faster than CTDNE (a model implementation with no system-level
optimisations).

Here: same three engines. CTDNE's per-edge interpreter-speed weight
evaluation makes it the slowest by wall clock even at our scale; the
cost model captures the rest of the gap (see EXPERIMENTS.md).
"""

import pytest

from benchmarks.conftest import BENCH_EXP_SCALE, BENCH_R, write_result
from repro.compare import ExperimentRow, format_rows
from repro.engines import CtdneEngine, KnightKingEngine, TeaEngine, Workload
from repro.walks.apps import temporal_node2vec

ENGINES = {
    "tea": lambda g, s: TeaEngine(g, s),
    "knightking-1node": lambda g, s: KnightKingEngine(g, s, nodes=1),
    "ctdne": lambda g, s: CtdneEngine(g, s),
}

_rows = []


@pytest.mark.parametrize("dataset", ["growth", "edit", "delicious", "twitter"])
@pytest.mark.parametrize("engine", list(ENGINES))
def test_fig10_other_engines(benchmark, datasets, dataset, engine):
    graph = datasets[dataset]
    spec = temporal_node2vec(p=0.5, q=2.0, scale=BENCH_EXP_SCALE)
    workload = Workload(walks_per_vertex=BENCH_R, max_length=80)

    def run():
        return ENGINES[engine](graph, spec).run(workload, seed=2, record_paths=False)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    row = ExperimentRow.from_result(dataset, result)
    row.engine = engine
    _rows.append(row)
    benchmark.extra_info["total_s"] = result.total_seconds


@pytest.fixture(scope="module", autouse=True)
def report():
    yield
    if len(_rows) < 12:
        return
    by_key = {(r.dataset, r.engine): r for r in _rows}
    lines = [
        "Figure 10: TEA vs K-1-node vs CTDNE (temporal node2vec, seconds)",
        "",
        format_rows(
            _rows,
            columns=("dataset", "engine", "walk_seconds", "total_seconds",
                     "edges_per_step"),
        ),
        "",
    ]
    for dataset in ("growth", "edit", "delicious", "twitter"):
        tea = by_key[(dataset, "tea")]
        kk = by_key[(dataset, "knightking-1node")]
        ct = by_key[(dataset, "ctdne")]
        lines.append(
            f"  {dataset:10s} TEA cost-model speedup: "
            f"{kk.edges_per_step / tea.edges_per_step:6.1f}x over K-1-node, "
            f"{ct.edges_per_step / tea.edges_per_step:6.1f}x over CTDNE; "
            f"walk-time speedup {kk.walk_seconds / tea.walk_seconds:5.2f}x / "
            f"{ct.walk_seconds / tea.walk_seconds:5.2f}x"
        )
        # Paper shape: both baselines cost more per step than TEA, and
        # CTDNE's naive evaluation is the slowest walker by wall clock.
        assert tea.edges_per_step < kk.edges_per_step
        assert tea.edges_per_step < ct.edges_per_step
        assert ct.walk_seconds > tea.walk_seconds
    write_result("fig10_other_engines", "\n".join(lines))
