"""Ablation — PAT trunkSize and the paper's ⌊√D⌋ rule (§3.2).

The paper argues trunkSize should balance the two ITS stages: selecting
among D/trunkSize trunk boundaries costs O(log(D/trunkSize)) and the
partial-trunk interior costs O(log trunkSize), so ⌊√D⌋ equalises them
in memory; out of core the rule flips to "as small as fits". This bench
sweeps fixed trunk sizes against the per-vertex √ rule and checks the
U-shape: extreme trunk sizes cost more probes per step than the rule.
"""

import pytest

from benchmarks.conftest import BENCH_EXP_SCALE, BENCH_R, format_series, write_result
from repro.engines import TeaEngine, Workload
from repro.walks.apps import exponential_walk

TRUNK_SIZES = [2, 8, None, 64, 256]  # None = the paper's per-vertex √D rule

_cost = {}
_memory = {}
_ooc_resident = {}


@pytest.mark.parametrize("trunk_size", TRUNK_SIZES,
                         ids=lambda t: "sqrt-rule" if t is None else f"ts={t}")
def test_trunk_size_ablation(benchmark, datasets, trunk_size):
    graph = datasets["twitter"]
    spec = exponential_walk(scale=BENCH_EXP_SCALE)
    workload = Workload(walks_per_vertex=BENCH_R, max_length=80)

    def run():
        engine = TeaEngine(graph, spec, structure="pat", trunk_size=trunk_size)
        return engine.run(workload, seed=8, record_paths=False)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    label = "sqrt-rule" if trunk_size is None else f"ts={trunk_size}"
    _cost[label] = result.counters.edges_per_step
    _memory[label] = result.memory.total / 1024**2
    # Out-of-core resident state scales as |E|/trunkSize (§3.2's other
    # half: "as small as possible while the prefix array fits").
    engine = TeaEngine(graph, spec, structure="pat", trunk_size=trunk_size)
    engine.prepare()
    import numpy as np

    nt = np.ceil(graph.degrees() / engine.index.trunk_sizes).sum() + graph.num_vertices
    _ooc_resident[label] = float(nt * 8 / 1024)
    benchmark.extra_info.update(edges_per_step=_cost[label])


@pytest.fixture(scope="module", autouse=True)
def report():
    yield
    if len(_cost) < len(TRUNK_SIZES):
        return
    # The paper's rule sits at (or near) the bottom of the U: strictly
    # better than both extremes of the sweep.
    assert _cost["sqrt-rule"] < _cost["ts=2"]
    assert _cost["sqrt-rule"] < _cost["ts=256"]
    # OOC residency shrinks as trunkSize grows (the flip side of the rule).
    assert _ooc_resident["ts=256"] < _ooc_resident["ts=2"]
    text = format_series(
        {"edges_per_step": _cost, "memory_mib": _memory,
         "ooc_resident_kib": _ooc_resident},
        x_label="trunkSize",
        title=(
            "Ablation: PAT trunkSize sweep (twitter analogue) — the §3.2 "
            "sqrt rule balances trunk-selection vs in-trunk ITS"
        ),
    )
    write_result("trunk_size_ablation", text)
