"""Out-of-core execution: sampling with disk-resident trunks.

When the index exceeds memory, TEA falls back to PAT with small trunks,
keeps only trunk-boundary prefix sums resident, and reads exactly one
trunk per sampling step — O(trunkSize) bytes of I/O per step versus
GraphWalker's O(degree) full-neighborhood loads (paper Sections 3.2,
4.1; Figure 14). This example runs both out-of-core engines on the same
workload and prints the I/O ledger.

Run:  python examples/out_of_core.py
"""

from repro import (
    BatchTeaOutOfCoreEngine,
    GraphWalkerEngine,
    Workload,
    load_dataset,
    temporal_node2vec,
)
from repro.telemetry import format_bytes


def main() -> None:
    graph = load_dataset("growth", seed=0)
    spec = temporal_node2vec(p=0.5, q=2.0)
    workload = Workload(max_length=80, max_walks=150)

    tea = BatchTeaOutOfCoreEngine(graph, spec, trunk_size=10)
    gw = GraphWalkerEngine(graph, spec, out_of_core=True)

    tea_result = tea.run(workload, seed=9)
    gw_result = gw.run(workload, seed=9)

    print(f"graph: {graph}\nworkload: {workload.describe()}\n")
    header = f"{'engine':18s} {'walk time':>10s} {'I/O blocks':>11s} {'I/O bytes':>12s} {'resident mem':>13s}"
    print(header)
    print("-" * len(header))
    for result in (tea_result, gw_result):
        print(
            f"{result.engine:18s} "
            f"{result.walk_seconds:9.3f}s "
            f"{result.counters.io_blocks:11d} "
            f"{format_bytes(result.counters.io_bytes):>12s} "
            f"{format_bytes(result.memory.total):>13s}"
        )

    ratio = gw_result.counters.io_bytes / max(1, tea_result.counters.io_bytes)
    print(
        f"\nGraphWalker reads {ratio:.1f}x more bytes per workload: it loads "
        f"each vertex's full neighbor list (O(D)), TEA one trunk (O(trunkSize))."
    )
    print(
        f"TEA resident state is only the trunk-boundary prefix sums: "
        f"{format_bytes(tea.index.resident_nbytes())}."
    )


if __name__ == "__main__":
    main()
