"""Figure 12 — HPAT vs PAT vs ITS vs full alias method (runtime & memory).

Paper (temporal node2vec): the alias method is fastest only on the
smallest dataset (1.38× over HPAT at 51.7× the memory) and OOMs on every
other dataset; HPAT is otherwise fastest, PAT second (1.43×–2.97× behind
HPAT), ITS last (PAT 1.22×–1.89× over ITS). Memory: ITS ≈ PAT < HPAT
(≈1.95× PAT) ≪ alias.

Here: identical four configurations via ``TeaEngine(structure=...)``.
The alias structure is given a memory budget scaled like the paper's
94 GB machine (÷1000 data scale ⇒ we grant 1 GiB): growth fits, the
other three raise the simulated OOM that Figure 12 reports. Its need is
Σ d², so at ``REPRO_BENCH_SCALE`` = s, where degrees shrink by s, the
budget shrinks by s² and the same three OOM (12 B a table cell since
``alias`` is int32; at s = 1: growth needs 160 MiB of 1 024, edit 1 772;
at s = 0.25: growth 18 MiB of 64, edit 135).
"""

import math

import pytest

from benchmarks.conftest import (
    BENCH_EXP_SCALE,
    BENCH_R,
    BENCH_SCALE,
    format_series,
    write_result,
)
from repro.compare import ExperimentRow, run_engines
from repro.engines import TeaEngine, Workload
from repro.walks.apps import temporal_node2vec

#: 1 GiB at full bench scale — the paper's 94 GB scaled by ~1/100.
ALIAS_BUDGET = int((1 << 30) * BENCH_SCALE**2)

STRUCTURES = {
    "alias": lambda g, s: TeaEngine(g, s, structure="alias",
                                    alias_budget_bytes=ALIAS_BUDGET),
    "hpat": lambda g, s: TeaEngine(g, s, structure="hpat"),
    "pat": lambda g, s: TeaEngine(g, s, structure="pat"),
    "its": lambda g, s: TeaEngine(g, s, structure="its"),
}

_rows = []


@pytest.mark.parametrize("dataset", ["growth", "edit", "delicious", "twitter"])
def test_fig12_sampling_methods(benchmark, datasets, dataset):
    graph = datasets[dataset]
    spec = temporal_node2vec(p=0.5, q=2.0, scale=BENCH_EXP_SCALE)
    workload = Workload(walks_per_vertex=BENCH_R, max_length=80)

    def run():
        return run_engines(graph, spec, STRUCTURES, workload, seed=4,
                           dataset=dataset)

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    _rows.extend(rows)
    by_engine = {r.engine: r for r in rows}

    # Paper shape: alias OOMs everywhere but the smallest dataset.
    if dataset == "growth":
        assert not by_engine["alias"].oom
        # The alias method's per-draw cost is the floor.
        assert by_engine["alias"].edges_per_step <= by_engine["hpat"].edges_per_step
    else:
        assert by_engine["alias"].oom, dataset
    # Sampling-cost ordering: HPAT < PAT < ITS per step.
    assert (
        by_engine["hpat"].edges_per_step
        < by_engine["pat"].edges_per_step
        < by_engine["its"].edges_per_step
    ), dataset
    # Memory ordering: ITS <= PAT < HPAT (paper: HPAT ≈ 1.95× PAT).
    assert by_engine["its"].memory_bytes <= by_engine["pat"].memory_bytes
    assert by_engine["pat"].memory_bytes < by_engine["hpat"].memory_bytes
    if not by_engine["alias"].oom:
        assert by_engine["alias"].memory_bytes > by_engine["hpat"].memory_bytes


@pytest.fixture(scope="module", autouse=True)
def report():
    yield
    if len(_rows) < 16:
        return
    runtime = {name: {} for name in STRUCTURES}
    memory = {name: {} for name in STRUCTURES}
    for row in _rows:
        runtime[row.engine][row.dataset] = (
            float("nan") if row.oom else row.total_seconds
        )
        memory[row.engine][row.dataset] = (
            float("nan") if row.oom else row.memory_bytes / 1024**2
        )
    text = "\n\n".join(
        [
            format_series(runtime, x_label="dataset",
                          title="Figure 12a: runtime (seconds; OOM = over budget)"),
            format_series(memory, x_label="dataset",
                          title="Figure 12b: memory (MiB)"),
        ]
    )
    write_result("fig12_sampling_methods", text)
