"""Section 5.2 "Parameters Sensitivity" — walk count R and length L.

Paper: runtime at R=2 is 1.91×–2.14× that of R=1 (work is linear in the
number of walks); L=80 takes 4.7×–5.9× longer than L=10.

Here: the same two sweeps on the growth analogue. R-scaling reproduces
directly (walks are independent). L-scaling saturates earlier because
scaled-down candidate sets exhaust sooner — the measured ratio is
reported against the paper's band (see EXPERIMENTS.md).
"""

import pytest

from benchmarks.conftest import BENCH_EXP_SCALE, format_series, write_result
from repro.engines import TeaEngine, Workload
from repro.walks.apps import temporal_node2vec

_r_walk_seconds = {}
_r_steps = {}
_l_steps = {}


@pytest.mark.parametrize("r", [1, 2, 3])
def test_param_r_scaling(benchmark, datasets, r):
    graph = datasets["growth"]
    spec = temporal_node2vec(p=0.5, q=2.0, scale=BENCH_EXP_SCALE)
    engine = TeaEngine(graph, spec)
    engine.prepare()

    def run():
        return engine.run(Workload(walks_per_vertex=r, max_length=80), seed=6,
                          record_paths=False)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    _r_walk_seconds[r] = result.walk_seconds
    _r_steps[r] = result.total_steps
    benchmark.extra_info["steps"] = result.total_steps


@pytest.mark.parametrize("length", [1, 2, 4, 8, 80])
def test_param_l_scaling(benchmark, datasets, length):
    graph = datasets["growth"]
    spec = temporal_node2vec(p=0.5, q=2.0, scale=BENCH_EXP_SCALE)
    engine = TeaEngine(graph, spec)
    engine.prepare()

    def run():
        return engine.run(
            Workload(walks_per_vertex=4, max_length=length), seed=6,
            record_paths=False,
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    _l_steps[length] = result.total_steps


@pytest.fixture(scope="module", autouse=True)
def report():
    yield
    if len(_r_walk_seconds) < 3 or len(_l_steps) < 5:
        return
    # Paper: R=2 runs 1.91x-2.14x longer than R=1 — work is linear in
    # the number of walks. Sub-second wall times are too noisy on shared
    # hardware, so the assertion uses the deterministic step counts and
    # the seconds are reported alongside.
    r_ratio = _r_steps[2] / _r_steps[1]
    assert 1.7 < r_ratio < 2.3, r_ratio
    assert _r_steps[3] > _r_steps[2] > _r_steps[1]
    # L matters until temporal exhaustion: steps grow with L, then
    # saturate. At 1/1000 dataset scale walks exhaust earlier than the
    # paper's L=80 (whose own 4.7-5.9x for an 8x L increase already shows
    # saturation); the shape is growth-then-plateau.
    assert _l_steps[1] < _l_steps[2] < _l_steps[4]
    assert _l_steps[4] <= _l_steps[8] <= _l_steps[80]
    text = "\n\n".join(
        [
            format_series(
                {"walk_seconds": {f"R={k}": v for k, v in _r_walk_seconds.items()}},
                x_label="walks per vertex",
                title="Parameter sensitivity: R (paper: R=2 is ~2x R=1)",
            ),
            format_series(
                {"total_steps": {f"L={k}": float(v) for k, v in _l_steps.items()}},
                x_label="max length",
                title="Parameter sensitivity: L (paper: L=80 is 4.7-5.9x L=10)",
            ),
        ]
    )
    write_result("param_sensitivity", text)
