"""``stream_ingest``: durable ingest with pinned-epoch reads beside it.

Why it exists: the write-ahead log, the incremental HPAT and the epoch
publish do all the work here; the batch kernels and HTTP do none. Reads
run on a pinned epoch between the writes (about a quarter of the loop),
so a gain for ingest that costs the readers, or the reverse, is visible.

One schedule = a time-sorted power-law stream ingested with
``add_multiple_edges`` in fixed batches into a ``StreamingTeaEngine`` with
a WAL, a burst of ``pin().run_walks`` after every ``READ_EVERY``-th batch,
then ``checkpoint()``, ``close()`` and a reopen of the same directory (=
recovery). Batches take tens of milliseconds and grow with the state, so
they are not identical units. The noise rule becomes: run the whole
schedule several times in fresh WAL directories and take, for every
batch index and every read burst, the fastest of the runs.
``throughput_per_s`` = edges / sum of those minima; ``latency_p50_ms`` =
median over the batch indices of the same minima (the plain median over
every batch of every run spread 22 % across seeds in a noisy hour, the
minima 10 %); ``setup_s`` = median recovery time (what an operator pays
on restart).
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.core.incremental import IncrementalHPAT
from repro.graph.edge_stream import EdgeStream
from repro.graph.generators import temporal_powerlaw
from repro.streaming import StreamingTeaEngine
from repro.streaming.wal import WriteAheadLog
from repro.walks.apps import exponential_walk

from bench_e2e import checks
from bench_e2e.common import (
    EXP_SCALE, SpeedProbe, dir_bytes, fresh_dir, median, peak_rss_mib, unprobed,
)
from bench_e2e.spans import NullRecorder, Recorder

NAME = "stream_ingest"
WHY = ("WAL + incremental HPAT + epoch publish do all the work, kernels and "
       "HTTP none; pinned reads beside the writes expose a gain that costs the other side")

GROUP_COMMIT = 8
READ_EVERY = 3
READ_LENGTH = 20
MIN_SCHEDULES = 3
#: Batch index after which an epoch is pinned for the isolation check.
PIN_AFTER = 2


@dataclass(frozen=True)
class Size:
    vertices: int
    edges: int
    batch: int
    read_starts: int   # walks per read burst (reads ~25 % of the loop)
    chi2_draws: int


FULL = Size(vertices=2_000, edges=30_000, batch=1_000, read_starts=2_000,
            chi2_draws=checks.CHI2_DRAWS)
QUICK = Size(vertices=500, edges=5_000, batch=500, read_starts=200,
             chi2_draws=4_000)


def spec():
    return exponential_walk(scale=EXP_SCALE)


def generate(seed: int, size: Size) -> EdgeStream:
    return temporal_powerlaw(
        num_vertices=size.vertices, num_edges=size.edges, alpha=0.9,
        time_horizon=500.0, seed=seed, integer_times=False,
    )


def _batches(stream: EdgeStream, size: Size):
    for lo in range(0, len(stream), size.batch):
        hi = lo + size.batch
        yield stream.src[lo:hi], stream.dst[lo:hi], stream.time[lo:hi]


def _hops(paths) -> list:
    return [p.hops for p in paths]


@dataclass
class Schedule:
    """Timings and check material of one complete schedule."""

    batch_s: List[float]
    read_s: List[float]
    pin_s: List[float]
    checkpoint_s: float
    checkpoint_bytes: int
    recover_s: float
    wal_fsyncs: int
    wal_bytes: int
    state_bytes: int


def run_schedule(stream: EdgeStream, size: Size, seed: int, ops: checks.Ops,
                 rec: Recorder, probe=unprobed) -> Tuple[Schedule, StreamingTeaEngine]:
    """One schedule in a fresh WAL directory; returns its timings and the
    *recovered* engine (closed by the caller). ``probe`` runs after every
    read burst and around the recovery; the times between two probe runs
    are put at nominal machine speed (as measured with ``unprobed``)."""
    directory = fresh_dir("stream-wal")
    engine = StreamingTeaEngine(spec(), wal_dir=str(directory),
                                group_commit=GROUP_COMMIT)
    rng = np.random.default_rng(seed)
    batch_s: List[float] = []
    read_s: List[float] = []
    pin_s: List[float] = []
    pending: List[float] = []  # batch times since the last probe run
    pinned = pinned_walks = None

    def call(name: str, fn, **counts):
        with rec.span(name, **counts) as sp:
            out = fn()
        return sp["end"] - sp["start"], out

    before = probe()
    for i, (src, dst, times) in enumerate(_batches(stream, size)):
        gc.collect()
        with rec.span("batch", index=i):
            seconds, _ = call("streaming.add_multiple_edges",
                              lambda: engine.add_multiple_edges(src, dst, times),
                              edges=len(src))
            pending.append(seconds)
            if i % READ_EVERY == READ_EVERY - 1:
                pin, view = call("streaming.pin", engine.pin)
                starts = rng.choice(view.active_vertices(), size.read_starts)
                read, _ = call(
                    "streaming.pinned_walks",
                    lambda: view.run_walks(starts, max_length=READ_LENGTH, seed=seed + i),
                    walks=size.read_starts)
        if i % READ_EVERY == READ_EVERY - 1:
            after = probe()
            slow = SpeedProbe.slowdown(before, after)
            batch_s += [t / slow for t in pending]
            pin_s.append(pin / slow)
            read_s.append(read / slow)
            pending = []
            before = after
        if i == PIN_AFTER:
            pinned = engine.pin()
            pinned_walks = _hops(pinned.run_walks(
                pinned.active_vertices()[:50], max_length=READ_LENGTH, seed=seed))
    if pending:
        slow = SpeedProbe.slowdown(before, probe())
        batch_s += [t / slow for t in pending]

    # An epoch pinned early must answer the same after every later batch.
    ops.check("stream.pinned_epoch_stable", pinned_walks == _hops(pinned.run_walks(
        pinned.active_vertices()[:50], max_length=READ_LENGTH, seed=seed)))

    probe_starts = engine.active_vertices()[:200]
    walks_before = _hops(engine.pin().run_walks(
        probe_starts, max_length=READ_LENGTH, seed=seed))
    state_bytes = engine.nbytes()
    wal_fsyncs, wal_bytes = engine.wal.fsyncs, engine.wal.appended_bytes
    wal_dir_bytes = dir_bytes(directory)
    checkpoint_s, _ = call("streaming.checkpoint", engine.checkpoint)
    checkpoint_bytes = dir_bytes(directory) - wal_dir_bytes
    engine.close()

    before = probe()
    recover_s, recovered = call(
        "streaming.recover",
        lambda: StreamingTeaEngine(spec(), wal_dir=str(directory),
                                   group_commit=GROUP_COMMIT),
        edges=len(stream))
    recover_s /= SpeedProbe.slowdown(before, probe())
    ops.check("stream.recovered_edge_count", recovered.num_edges == len(stream),
              f"{recovered.num_edges} != {len(stream)}")
    walks_after = _hops(recovered.pin().run_walks(
        probe_starts, max_length=READ_LENGTH, seed=seed))
    ops.check("stream.recovered_walks_identical", walks_before == walks_after)
    return Schedule(batch_s, read_s, pin_s, checkpoint_s, checkpoint_bytes,
                    recover_s, wal_fsyncs, wal_bytes, state_bytes), recovered


def check_sampler(ops: checks.Ops, engine: StreamingTeaEngine, stream: EdgeStream,
                  size: Size, seed: int) -> None:
    """Path validity and first-hop chi-squared for the pinned-epoch sampler."""
    oracle = checks.EdgeOracle(stream.src, stream.dst, stream.time, size.vertices)
    view = engine.pin()
    sample = view.run_walks(view.active_vertices(), max_length=READ_LENGTH, seed=seed)
    checks.check_paths(ops, NAME, oracle, checks.walkpaths_to_walks(sample), READ_LENGTH)
    for u in oracle.hub_starts():
        first = view.run_walks(np.full(size.chi2_draws, u), max_length=1, seed=seed + u)
        checks.check_first_hop(ops, NAME, oracle, u, EXP_SCALE,
                               *checks.first_hops(first))


def _floor(schedules: List[Schedule], field: str) -> np.ndarray:
    """Per index, the fastest of the schedules."""
    return np.min([getattr(s, field) for s in schedules], axis=0)


def measure(seed: int, seconds: float, quick: bool) -> Tuple[Dict[str, float], checks.Ops]:
    size = QUICK if quick else FULL
    stream = generate(seed, size)
    ops = checks.Ops()
    schedules: List[Schedule] = []
    recovered = None
    probe = SpeedProbe()
    deadline = time.perf_counter() + seconds
    while len(schedules) < MIN_SCHEDULES or time.perf_counter() < deadline:
        if recovered is not None:
            recovered.close()
        schedule, recovered = run_schedule(stream, size, seed, ops, NullRecorder(), probe)
        schedules.append(schedule)
        ops.done(len(schedule.batch_s) + len(schedule.read_s))
    batch_floor = _floor(schedules, "batch_s")
    metrics = {
        "throughput_per_s": len(stream) / (
            batch_floor.sum() + _floor(schedules, "read_s").sum()),
        "latency_p50_ms": median(batch_floor.tolist()) * 1e3,
        "peak_rss_mb": peak_rss_mib(),
        "setup_s": median([s.recover_s for s in schedules]),
    }
    check_sampler(ops, recovered, stream, size, seed)
    recovered.close()
    return metrics, ops


def trace(rec: Recorder, seed: int, quick: bool) -> Tuple[Dict[str, float], checks.Ops]:
    size = QUICK if quick else FULL
    stream = generate(seed, size)
    ops = checks.Ops()
    plain, recovered = run_schedule(stream, size, seed, ops, NullRecorder())
    recovered.close()
    traced, recovered = run_schedule(stream, size, seed, ops, rec)
    ops.done(2 * (len(traced.batch_s) + len(traced.read_s)))
    both = plain.batch_s + traced.batch_s
    decile = max(1, len(traced.batch_s) // 10)
    durable_p50 = median(both)

    # The same batches into a bare incremental index (no WAL, no epochs)
    # and into a bare write-ahead log: the two floors under a durable batch.
    index = IncrementalHPAT(spec().weight_model)
    apply_s = []
    for src, dst, times in _batches(stream, size):
        batch = EdgeStream.from_arrays(src, dst, times, require_sorted=True)
        with rec.span("core.incremental_apply", edges=len(src)) as sp:
            index.apply_batch(batch)
        apply_s.append(sp["end"] - sp["start"])
        index.clear_dirty()
    append_s = []
    with WriteAheadLog(fresh_dir("stream-bare-wal"), group_commit=GROUP_COMMIT) as wal:
        for src, dst, times in _batches(stream, size):
            with rec.span("streaming.wal_append", edges=len(src)) as sp:
                wal.append_edges(src, dst, times)
            append_s.append(sp["end"] - sp["start"])

    reads = sum(traced.read_s) + sum(traced.pin_s)
    out = {
        "streaming.apply_ms_p50": median(apply_s) * 1e3,
        "streaming.wal_append_ms_p50": median(append_s) * 1e3,
        "streaming.publish_ms_p50": (durable_p50 - median(apply_s) - median(append_s)) * 1e3,
        "streaming.wal_fsyncs": traced.wal_fsyncs,
        "streaming.wal_bytes_per_edge": traced.wal_bytes / len(stream),
        "streaming.batch_ms_first_decile": float(np.mean(traced.batch_s[:decile])) * 1e3,
        "streaming.batch_ms_last_decile": float(np.mean(traced.batch_s[-decile:])) * 1e3,
        "streaming.pin_us": median(traced.pin_s) * 1e6,
        "streaming.pinned_walk_ms_p50": median(plain.read_s + traced.read_s) * 1e3,
        "streaming.read_share": reads / (reads + sum(traced.batch_s)),
        "streaming.checkpoint_s": traced.checkpoint_s,
        "streaming.checkpoint_bytes": traced.checkpoint_bytes,
        "streaming.recover_edges_per_s": len(stream) / traced.recover_s,
        "streaming.state_bytes_per_edge": traced.state_bytes / len(stream),
        "bench.trace_overhead_ratio": (
            (sum(traced.batch_s) + reads) / (sum(plain.batch_s) + sum(plain.read_s)
                                             + sum(plain.pin_s))),
        "bench.span_coverage": rec.coverage("batch"),
    }
    check_sampler(ops, recovered, stream, size, seed)
    recovered.close()
    return out, ops
