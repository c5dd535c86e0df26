"""Extension ablation — vectorised frontier executor vs scalar walk loop.

Not a paper figure: this measures the engineering choice this library
adds on top of the paper's design so a Python deployment is actually
usable at scale. Same HPAT index, same sampling distribution (equivalence
is property-tested); the only difference is advancing the whole walker
frontier per numpy pass instead of one walker step per interpreter
iteration.
"""

import pytest

from benchmarks.conftest import BENCH_EXP_SCALE, format_series, write_result
from repro.engines import BatchTeaEngine, TeaEngine, Workload
from repro.walks.apps import exponential_walk, temporal_node2vec

_rates = {"tea-scalar (us/step)": {}, "tea-batch (us/step)": {}}
_speedup = {}


@pytest.mark.parametrize("dataset", ["growth", "edit", "delicious", "twitter"])
@pytest.mark.parametrize("engine", ["tea-scalar", "tea-batch"])
def test_batch_executor(benchmark, datasets, dataset, engine):
    graph = datasets[dataset]
    spec = temporal_node2vec(p=0.5, q=2.0, scale=BENCH_EXP_SCALE)
    workload = Workload(walks_per_vertex=4, max_length=80)
    factory = TeaEngine if engine == "tea-scalar" else BatchTeaEngine

    def run():
        return factory(graph, spec).run(workload, seed=0, record_paths=False)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    rate = 1e6 * result.walk_seconds / max(result.total_steps, 1)
    _rates[f"{engine} (us/step)"][dataset] = rate
    benchmark.extra_info.update(us_per_step=rate, steps=result.total_steps)


@pytest.fixture(scope="module", autouse=True)
def report():
    yield
    scalar = _rates["tea-scalar (us/step)"]
    batch = _rates["tea-batch (us/step)"]
    if len(scalar) < 4 or len(batch) < 4:
        return
    for dataset in scalar:
        _speedup[dataset] = scalar[dataset] / batch[dataset]
        assert _speedup[dataset] > 3.0, (dataset, _speedup[dataset])
    text = format_series(
        {**_rates, "speedup": _speedup},
        x_label="dataset",
        title="Ablation: vectorised frontier executor vs scalar walk loop "
              "(temporal node2vec)",
    )
    write_result("batch_executor", text)
