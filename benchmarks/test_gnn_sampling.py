"""Extension ablation — GNN neighborhood sampling throughput (§4.4).

The paper predicts TGNN training sampling "could benefit enormously"
from TEA. This bench measures a TGN-style 2-hop block-sampling workload
(recency-biased, no future peeking) served by the HPAT kernel against a
reference per-query scan sampler, across the dataset analogues.
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import format_series, write_result
from repro.gnn import TemporalNeighborSampler
from repro.rng import make_rng

RECENCY_SCALE = 20.0
FANOUTS = [10, 5]
BATCH = 512

_tea_ms = {}
_naive_ms = {}


def _naive_block(graph, nodes, times, k, rng):
    total = 0
    for v, t in zip(nodes, times):
        nbrs, etimes = graph.neighbors(int(v))
        past = etimes < t
        cand = nbrs[past]
        if cand.size == 0:
            continue
        w = np.exp((etimes[past] - etimes[past].max()) / RECENCY_SCALE)
        rng.choice(cand, size=k, p=w / w.sum())
        total += k
    return total


@pytest.mark.parametrize("dataset", ["growth", "edit", "delicious", "twitter"])
def test_gnn_sampling_throughput(benchmark, datasets, dataset):
    graph = datasets[dataset]
    stream = graph.to_stream()
    mid = len(stream) // 2
    nodes = stream.src[mid : mid + BATCH]
    times = stream.time[mid : mid + BATCH]

    sampler = TemporalNeighborSampler(graph, recency_scale=RECENCY_SCALE, seed=0)

    def run():
        t0 = time.perf_counter()
        blocks = sampler.sample_blocks(nodes, times, FANOUTS)
        tea = time.perf_counter() - t0
        rng = make_rng(1)
        t0 = time.perf_counter()
        _naive_block(graph, nodes, times, FANOUTS[0], rng)
        naive = time.perf_counter() - t0
        return tea, naive, blocks

    tea_s, naive_s, blocks = benchmark.pedantic(run, rounds=1, iterations=1)
    # No-future-peeking is non-negotiable.
    for block in blocks:
        seed_rep = np.repeat(block.seed_times, block.fanout).reshape(block.times.shape)
        assert np.all(block.times[block.mask] < seed_rep[block.mask])
    _tea_ms[dataset] = tea_s * 1e3
    _naive_ms[dataset] = naive_s * 1e3
    benchmark.extra_info.update(tea_ms=_tea_ms[dataset], naive_ms=_naive_ms[dataset])


@pytest.fixture(scope="module", autouse=True)
def report():
    yield
    if len(_tea_ms) < 4:
        return
    speedup = {d: _naive_ms[d] / _tea_ms[d] for d in _tea_ms}
    # TEA must win on every dataset; note the naive baseline only does
    # 1 hop while TEA does 2, so the real gap is larger than reported.
    for d, s in speedup.items():
        assert s > 1.0, (d, s)
    write_result(
        "gnn_sampling",
        format_series(
            {"tea 2-hop (ms)": _tea_ms, "naive 1-hop (ms)": _naive_ms,
             "speedup (>=)": speedup},
            x_label="dataset",
            title=(
                "Extension (§4.4): TGN-style neighborhood sampling, "
                f"batch={BATCH}, fanouts={FANOUTS}, recency exp({RECENCY_SCALE:g})"
            ),
        ),
    )
