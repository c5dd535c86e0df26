"""Figure 9 — memory usage of TEA (HPAT) vs GraphWalker vs KnightKing.

Paper: TEA's HPAT costs the most memory (78 GB on twitter, vs 36.5 GB
GraphWalker and 45 GB single-node KnightKing), with the HPAT index at
82.5%–91.2% of TEA's footprint — the deliberate space-for-speed trade.

Here: exact byte accounting of every structure each engine holds, same
three engines, same ordering assertions (TEA largest, index-dominated).
"""

import pytest

from benchmarks.conftest import BENCH_EXP_SCALE, format_series, write_result
from repro.engines import GraphWalkerEngine, KnightKingEngine, TeaEngine
from repro.walks.apps import temporal_node2vec

ENGINES = {
    "tea (HPAT)": lambda g, s: TeaEngine(g, s),
    "graphwalker": lambda g, s: GraphWalkerEngine(g, s),
    "knightking": lambda g, s: KnightKingEngine(g, s),
}

_memory = {name: {} for name in ENGINES}
_index_fraction = {}


@pytest.mark.parametrize("dataset", ["growth", "edit", "delicious", "twitter"])
def test_fig9_memory(benchmark, datasets, dataset):
    graph = datasets[dataset]
    spec = temporal_node2vec(scale=BENCH_EXP_SCALE)

    def run():
        reports = {}
        for name, factory in ENGINES.items():
            engine = factory(graph, spec)
            engine.prepare()
            reports[name] = engine.memory_report()
        return reports

    reports = benchmark.pedantic(run, rounds=1, iterations=1)
    for name, report in reports.items():
        _memory[name][dataset] = report.total / 1024**2  # MiB
    tea_report = reports["tea (HPAT)"]
    index_bytes = sum(
        v for k, v in tea_report.components.items() if k.startswith("index_")
    )
    _index_fraction[dataset] = index_bytes / tea_report.total
    benchmark.extra_info["tea_mib"] = _memory["tea (HPAT)"][dataset]

    # Paper shape: TEA holds the most memory; its index dominates.
    assert reports["tea (HPAT)"].total > reports["graphwalker"].total
    assert reports["tea (HPAT)"].total > reports["knightking"].total
    assert _index_fraction[dataset] > 0.5


@pytest.fixture(scope="module", autouse=True)
def report():
    yield
    if not all(_memory[n] for n in ENGINES):
        return
    text = format_series(
        _memory,
        x_label="dataset",
        title=(
            "Figure 9: memory usage (MiB) — paper shape: TEA largest "
            "(index-dominated), baselines smaller"
        ),
    )
    fractions = "\n".join(
        f"  {d}: HPAT index = {f:.1%} of TEA memory (paper: 82.5%-91.2%)"
        for d, f in sorted(_index_fraction.items())
    )
    write_result("fig9_memory", text + "\n" + fractions)
