"""Extension ablation — distributed TEA (the paper's §4.4 future work).

Not a paper figure: the paper lists distributed execution as future work
and sketches the solution (KnightKing's walker-centric BSP engine with
rejection sampling replaced by PAT/HPAT). This bench characterises that
design in the simulated cluster:

* modeled makespan vs worker count (scaling curve);
* partitioner ablation: hash vs range vs degree-balanced — the
  trade-off between load balance (compute_balance) and communication
  (migration rate).
"""

import pytest

from benchmarks.conftest import BENCH_EXP_SCALE, format_series, write_result
from benchmarks.distributed import DistributedTeaEngine
from repro.engines import Workload
from repro.walks.apps import exponential_walk

_scaling = {}
_partition = {}


@pytest.mark.parametrize("workers", [1, 2, 4, 8, 16])
def test_distributed_scaling(benchmark, datasets, workers):
    graph = datasets["growth"]
    spec = exponential_walk(scale=BENCH_EXP_SCALE)
    workload = Workload(walks_per_vertex=2, max_length=80)

    def run():
        engine = DistributedTeaEngine(
            graph, spec, num_workers=workers, partitioner="degree"
        )
        return engine.run(workload, seed=0, record_paths=False)

    _, stats, _, _ = benchmark.pedantic(run, rounds=1, iterations=1)
    _scaling[workers] = stats
    benchmark.extra_info.update(stats.snapshot())


@pytest.mark.parametrize("partitioner", ["hash", "range", "degree"])
def test_partitioner_ablation(benchmark, datasets, partitioner):
    graph = datasets["growth"]
    spec = exponential_walk(scale=BENCH_EXP_SCALE)
    workload = Workload(walks_per_vertex=2, max_length=80)

    def run():
        engine = DistributedTeaEngine(
            graph, spec, num_workers=8, partitioner=partitioner
        )
        return engine.run(workload, seed=0, record_paths=False)

    _, stats, _, _ = benchmark.pedantic(run, rounds=1, iterations=1)
    _partition[partitioner] = stats
    benchmark.extra_info.update(stats.snapshot())


@pytest.fixture(scope="module", autouse=True)
def report():
    yield
    if len(_scaling) < 5 or len(_partition) < 3:
        return
    # Scaling shape: modeled makespan strictly improves with workers.
    makespans = [(_scaling[w].modeled_makespan, w) for w in sorted(_scaling)]
    assert makespans[0][0] > makespans[-1][0]
    assert _scaling[8].modeled_makespan < _scaling[1].modeled_makespan / 3
    # Degree-balanced packing must balance compute at least as well as hash.
    assert _partition["degree"].compute_balance <= _partition["hash"].compute_balance + 0.05

    text = "\n\n".join(
        [
            format_series(
                {
                    "modeled_makespan": {
                        f"W={w}": _scaling[w].modeled_makespan for w in sorted(_scaling)
                    },
                    "migration_rate": {
                        f"W={w}": _scaling[w].migration_rate for w in sorted(_scaling)
                    },
                },
                x_label="workers",
                title="Distributed TEA (§4.4 future work): scaling with workers",
            ),
            format_series(
                {
                    "compute_balance": {
                        p: s.compute_balance for p, s in _partition.items()
                    },
                    "migration_rate": {
                        p: s.migration_rate for p, s in _partition.items()
                    },
                    "edge_cut": {
                        p: float(s.edge_cut) for p, s in _partition.items()
                    },
                },
                x_label="partitioner",
                title="Partitioner ablation at 8 workers",
            ),
        ]
    )
    write_result("distributed_scaling", text)
