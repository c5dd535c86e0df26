"""What ``corpus_exp`` and ``ooc_exp`` share: the graph recipe, the
set-up rule, the round loop, the sampler checks and the traced rounds.

Both workloads call ``engine.run(Workload(...), seed, record_paths=False)``
on the same twitter-analogue graph with the exponential walk of
``benchmarks/conftest.py`` (decay scale 6.0); they differ only in the
engine behind the call.
"""

from __future__ import annotations

import gc
import time
from typing import Callable, Dict, List, Tuple

from repro.engines.base import Workload
from repro.graph.datasets import DATASETS
from repro.walks.apps import exponential_walk

from bench_e2e import checks
from bench_e2e.common import (
    EXP_SCALE, WARMUP_UNITS, SpeedProbe, fast_rate, median, peak_rss_mib,
    round_seed, timed, timed_units,
)
from bench_e2e.spans import Recorder

MAX_LENGTH = 80
SETUPS = 3
#: Walks whose every hop is checked against the raw edge list.
PATH_CHECK_WALKS = 2_000
#: Traced and untraced rounds of a traced pass (alternating, same seeds).
TRACED_UNITS = 5


def spec():
    return exponential_walk(scale=EXP_SCALE)


def generate(seed: int, scale: float):
    """The workload's input. Generation is the benchmark's cost, not the
    program's, so it is outside ``setup_s``."""
    return DATASETS["twitter"].generate(seed=seed, scale=scale)


def median_setup(build: Callable[[], object], probe: SpeedProbe) -> Tuple[float, object]:
    """Median time (at nominal machine speed) of ``SETUPS`` complete
    set-ups on fresh objects; returns the last engine built. The previous
    engine is dropped first so peak memory is one engine, not three."""
    engine = None
    times = []
    before = probe()
    for _ in range(SETUPS):
        engine = None
        gc.collect()
        seconds, engine = timed(build)
        after = probe()
        times.append(seconds / SpeedProbe.slowdown(before, after))
        before = after
    return median(times), engine


def run_rounds(engine, workload: Workload, seed: int, seconds: float,
               probe: SpeedProbe) -> Tuple[List[float], List[float]]:
    """Identical-work rounds for ``seconds``; work unit = walk step."""
    def unit(i: int) -> float:
        result = engine.run(workload, seed=round_seed(seed, i), record_paths=False)
        return result.total_steps
    return timed_units(unit, seconds, probe)


def measure(label: str, stream, build: Callable[[], object], workload: Workload,
            seed: int, seconds: float, draws: int) -> Tuple[Dict[str, float], checks.Ops]:
    """The untraced run of both workloads: set-ups, rounds, checks."""
    probe = SpeedProbe()
    setup_s, engine = median_setup(build, probe)
    times, steps = run_rounds(engine, workload, seed, seconds, probe)
    metrics = {
        "throughput_per_s": fast_rate(times, steps),
        "latency_p50_ms": median(times) * 1e3,
        "peak_rss_mb": peak_rss_mib(),
        "setup_s": setup_s,
    }
    ops = checks.Ops()
    ops.done(len(times))
    check_engine(ops, label, engine, stream, seed, draws)
    return metrics, ops


def check_engine(ops: checks.Ops, label: str, engine, stream, seed: int,
                 draws: int) -> None:
    """Path validity on a sample of walks plus the first-hop chi-squared
    test at the hub vertices, through the engine's public ``run``."""
    oracle = checks.EdgeOracle(stream.src, stream.dst, stream.time,
                               engine.graph.num_vertices)
    sample = engine.run(
        Workload(walks_per_vertex=1, max_length=MAX_LENGTH,
                 max_walks=PATH_CHECK_WALKS),
        seed=seed, record_paths=True,
    )
    checks.check_paths(ops, label, oracle,
                       checks.walkpaths_to_walks(sample.paths), MAX_LENGTH)
    for u in oracle.hub_starts():
        first = engine.run(
            Workload(walks_per_vertex=draws, max_length=1, start_vertices=[u]),
            seed=seed + u, record_paths=True,
        )
        checks.check_first_hop(ops, label, oracle, u, EXP_SCALE,
                               *checks.first_hops(first.paths))


def trace_rounds(rec: Recorder, engine, workload: Workload, seed: int) -> Dict[str, float]:
    """Alternate untraced and traced rounds on the same seeds.

    A traced round is one trace: ``round`` > ``engines.run`` >
    {``engines.prepare``, ``engines.walk``} where the two children are
    the intervals ``EngineResult.timer`` reports; the self time of
    ``engines.run`` is what the engine spends around the frontier loop
    (start resolution, histograms, memory report, telemetry publish).
    """
    for i in range(WARMUP_UNITS):
        engine.run(workload, seed=round_seed(seed, i), record_paths=False)
    plain: List[float] = []
    traced: List[float] = []
    walk: List[float] = []
    finalize: List[float] = []
    first = None
    for i in range(TRACED_UNITS):
        round_id = WARMUP_UNITS + i
        gc.collect()
        seconds, _ = timed(lambda: engine.run(
            workload, seed=round_seed(seed, round_id), record_paths=False))
        plain.append(seconds)
        gc.collect()
        with rec.span("round", seed=round_seed(seed, round_id)) as root:
            with rec.span("engines.run") as sp:
                result = engine.run(workload, seed=round_seed(seed, round_id),
                                    record_paths=False)
                prepare_s = result.prepare_seconds
                walk_s = result.timer.seconds["walk"]
                rec.add("engines.prepare", sp["start"], prepare_s)
                rec.add("engines.walk", sp["start"] + prepare_s, walk_s,
                        steps=result.total_steps)
            root["counts"]["steps"] = result.total_steps
        wall = root["end"] - root["start"]
        traced.append(wall)
        walk.append(walk_s)
        finalize.append(wall - prepare_s - walk_s)
        first = first or result
    counters = first.counters
    frontier = first.registry.histogram("batch.frontier_size")
    walks = first.registry.counter_value("walk.walks")
    steps = max(1, counters.steps)
    return {
        "engines.walk_s": median(walk),
        "engines.finalize_s": median(finalize),
        "engines.walk_share": median(walk) / median(traced),
        "engines.frontier_iterations": frontier.count,
        "engines.mean_frontier_width": frontier.mean,
        "engines.steps_per_walk": counters.steps / max(1, walks),
        # The paper's machine-independent axis; exact for a given seed.
        "kernels.edges_evaluated_per_step": counters.edges_evaluated / steps,
        "kernels.alias_draws_per_step": counters.alias_draws / steps,
        "kernels.probes_per_step": counters.binary_search_probes / steps,
        "bench.trace_overhead_ratio": median(traced) / median(plain),
        "bench.span_coverage": rec.coverage("round"),
    }


def best_of(fn: Callable[[], object], repeats: int) -> float:
    """Fastest wall time of ``repeats`` calls."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best
