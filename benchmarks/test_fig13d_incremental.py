"""Figure 13d — incremental HPAT update vs rebuild from scratch.

Paper: appending a batch to a vertex whose degree far exceeds the batch
is enormously cheaper incrementally (8,975× at degree 10⁶ / batch 100;
79.3× at batch 10,000); when degree ≲ batch the two converge (speedup
→ 1 at degree 1, ≈1.8× at degree == batch).

Here: same grid shape — batch sizes {100, 10,000} × vertex degrees
{1, 100, 10k, 100k} (10⁵ already shows the regime). The two regime
thresholds are asserted on the paper's cost model, not on this VM's
clock: the ratio of edges indexed by a rebuild to edges indexed by the
append (``update_work``: arrivals plus carry re-indexing), which is exact
and repeatable — 101 and 1 001 at batch 100, 11 at 10⁵ / 10⁴, 0.5–0.67
in the degenerate cells, and (d + b) / b = 10 001 at the paper's
10⁶ / 100 (paper: 8 975×), 101 at 10⁶ / 10⁴ (paper: 79.3×). The
wall-clock ratio is reported beside it and must grow with degree; its
size depends on what a block holds — prefix masses only, so a rebuild is
one O(d) cumsum, not the O(d log d) table build the paper times.
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import format_series, write_result
from repro.core.incremental import VertexIncrementalHPAT
from repro.core.weights import WeightModel

DEGREES = [1, 100, 10_000, 100_000]
BATCHES = [100, 10_000]

_speedups = {f"batch={b}": {} for b in BATCHES}
_work_ratios = {f"batch={b}": {} for b in BATCHES}


def _work(vert: VertexIncrementalHPAT) -> int:
    """One vertex's share of ``IncrementalHPAT.update_work()``."""
    return vert.num_edges + vert.merged_edges


def _timed_update(degree: int, batch: int):
    rng = np.random.default_rng(degree + batch)
    model = WeightModel("exponential", scale=1000.0)
    base_times = np.sort(rng.uniform(0.0, 1000.0, degree))
    new_times = np.sort(rng.uniform(1000.0, 1001.0, batch))

    vert = VertexIncrementalHPAT(model)
    if degree:
        vert.append_batch(np.arange(degree), base_times)
    work_before = _work(vert)
    t0 = time.perf_counter()
    vert.append_batch(np.arange(batch), new_times)
    incremental_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    rebuilt = VertexIncrementalHPAT(model)
    rebuilt.append_batch(
        np.arange(degree + batch), np.concatenate([base_times, new_times])
    )
    rebuild_s = time.perf_counter() - t0
    return incremental_s, rebuild_s, _work(rebuilt) / (_work(vert) - work_before)


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("degree", DEGREES)
def test_fig13d_incremental_update(benchmark, degree, batch):
    result = benchmark.pedantic(
        _timed_update, args=(degree, batch), rounds=1, iterations=1
    )
    incremental_s, rebuild_s, work_ratio = result
    speedup = rebuild_s / max(incremental_s, 1e-9)
    _speedups[f"batch={batch}"][f"deg={degree}"] = speedup
    _work_ratios[f"batch={batch}"][f"deg={degree}"] = work_ratio
    benchmark.extra_info.update(
        incremental_s=incremental_s, rebuild_s=rebuild_s, speedup=speedup,
        work_ratio=work_ratio,
    )
    if degree >= 100 * batch:
        # Paper's headline regime: degree ≫ batch ⇒ large speedup.
        assert work_ratio > 10, (degree, batch, work_ratio)
    if degree <= batch // 10:
        # Degenerate regime: rebuild ≈ incremental (speedup near 1).
        assert work_ratio < 5, (degree, batch, work_ratio)


@pytest.fixture(scope="module", autouse=True)
def report():
    yield
    if not all(len(v) == len(DEGREES) for v in _speedups.values()):
        return
    text = format_series(
        _speedups,
        x_label="vertex degree",
        title=(
            "Figure 13d: carry-forest append, wall-clock speedup over rebuild "
            "(blocks hold prefix masses only)\n"
            "paper: 8,975x at degree 1e6/batch 100; ~1x when degree <= batch"
        ),
    ) + "\n\n" + format_series(
        _work_ratios,
        x_label="vertex degree",
        title="edges indexed, rebuild / append (update_work; asserted: "
              "> 10 at degree >= 100 batch, < 5 at degree <= batch / 10)",
    )
    for label, series in _speedups.items():
        values = [series[f"deg={d}"] for d in DEGREES]
        assert values[-1] > values[0], f"{label}: speedup must grow with degree"
    write_result("fig13d_incremental", text)
