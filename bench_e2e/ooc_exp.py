"""``ooc_exp``: the paper's Figure 14 shape — the same corpus call with the
index on disk and a cache far smaller than the working set.

Why it exists: it is the "larger than the program's cache" twin of
``corpus_exp``. With a 1 MiB block cache the hit ratio sits near 0.6, so
``core.outofcore`` / ``block_cache`` / ``prefetch`` dominate the round and
the sampling kernel is a sliver. A change that only speeds the in-memory
kernel should not move this workload; fewer ``core.read_ops`` only helps
if ``core.cache_hit_ratio`` does not fall.

Reads are served by the OS page cache (the store was written seconds
earlier), so this measures the program's out-of-core code path, not a
disk.

Unit = one ``BatchTeaOutOfCoreEngine.run`` round; work unit = walk step;
set-up = ``from_stream`` + PAT build + ``TrunkStore.persist`` + open.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.core.builder import build_pat
from repro.core.outofcore import TrunkStore
from repro.engines.base import Workload
from repro.engines.tea_outofcore import (
    DEFAULT_OOC_TRUNK_SIZE, BatchTeaOutOfCoreEngine,
)
from repro.graph.edge_stream import EdgeStream
from repro.graph.temporal_graph import TemporalGraph

from bench_e2e import checks, rounds
from bench_e2e.common import dir_bytes, fresh_dir, round_seed
from bench_e2e.spans import Recorder

NAME = "ooc_exp"
WHY = ("same corpus call, index on disk, 1 MiB cache << working set: "
       "trunk store, block cache and prefetch dominate, the kernel is a sliver")

CACHE_BYTES = 1 << 20
#: A cache the whole store fits in: the same engine's rate without misses.
FIT_CACHE_BYTES = 64 << 20
#: Ranges in the direct ``TrunkStore.read_batch`` probe.
READ_PROBE_RANGES = 4_096
NOTE = "ooc_exp: trunk reads are served by the OS page cache, not a disk"
GUARD_EDGES = 100


@dataclass(frozen=True)
class Size:
    scale: float
    walks_per_vertex: int  # ~0.6 s rounds at full size
    chi2_draws: int


FULL = Size(scale=4.0, walks_per_vertex=3, chi2_draws=checks.CHI2_DRAWS)
QUICK = Size(scale=0.3, walks_per_vertex=3, chi2_draws=4_000)


def generate(seed: int, scale: float) -> EdgeStream:
    """The twitter analogue plus one *guard* vertex: a source-only vertex
    with the highest id and ``GUARD_EDGES`` out-edges.

    Without it the engine dies on some seeds (21 at full size):
    ``BatchTeaOutOfCoreEngine._on_frontier_advance`` scans up to 8 trunk
    boundaries past ``tr_indptr[v]`` for every lane, also for vertices
    with fewer trunks, and for the last vertices of the id range that
    runs off the end of ``tr_prefix`` (IndexError). A workload may not
    have failing operations and ``src/`` is not this PR's to fix, so the
    guard's 11 boundaries pad the end of the array; no walk can reach it.
    """
    stream = rounds.generate(seed, scale)
    rng = np.random.default_rng([seed, GUARD_EDGES])
    guard = stream.num_vertices()
    return stream.concat(EdgeStream(
        np.full(GUARD_EDGES, guard),
        rng.integers(0, guard, GUARD_EDGES),
        rng.uniform(*stream.time_range(), GUARD_EDGES),
    ))


def _workload(size: Size) -> Workload:
    return Workload(walks_per_vertex=size.walks_per_vertex,
                    max_length=rounds.MAX_LENGTH)


def _engine(graph, directory, cache_bytes: int = CACHE_BYTES):
    return BatchTeaOutOfCoreEngine(
        graph, rounds.spec(), cache_bytes=cache_bytes, prefetch=True,
        storage_dir=str(directory),
    )


def _build(stream):
    engine = _engine(TemporalGraph.from_stream(stream), fresh_dir("ooc-store"))
    engine.prepare()
    return engine


def measure(seed: int, seconds: float, quick: bool) -> Tuple[Dict[str, float], checks.Ops]:
    size = QUICK if quick else FULL
    stream = generate(seed, size.scale)
    return rounds.measure(NAME, stream, lambda: _build(stream), _workload(size),
                          seed, seconds, size.chi2_draws)


def trace(rec: Recorder, seed: int, quick: bool) -> Tuple[Dict[str, float], checks.Ops]:
    size = QUICK if quick else FULL
    spec = rounds.spec()
    stream = generate(seed, size.scale)
    workload = _workload(size)
    out: Dict[str, float] = {}

    # Set-up, phase by phase through the public builders the engine's
    # own prepare() calls, then the engine itself on a second directory.
    directory = fresh_dir("ooc-trace-store")
    with rec.span("setup"):
        with rec.span("graph.from_stream", edges=len(stream)) as sp:
            graph = TemporalGraph.from_stream(stream)
        out["graph.from_stream_s"] = sp["end"] - sp["start"]
        with rec.span("core.build_pat"):
            pat = build_pat(graph, spec.weight_model.compute(graph),
                            trunk_size=DEFAULT_OOC_TRUNK_SIZE)
        with rec.span("core.trunkstore_persist") as sp:
            TrunkStore.persist(pat, directory)
        out["core.trunkstore_persist_s"] = sp["end"] - sp["start"]
    out["core.store_bytes"] = dir_bytes(directory)
    out.update(_read_probe(rec, directory, graph, seed))
    del pat

    engine = _engine(graph, fresh_dir("ooc-store"))
    with rec.span("engines.prepare"):
        engine.prepare()
    store = engine.index.store
    stats = engine.cache_stats
    out.update(rounds.trace_rounds(rec, engine, workload, seed))
    # Cache, read and prefetch counters accumulate over every round run
    # so far on this store (warm-up, untraced and traced alike); report
    # them per round.
    n_rounds = rounds.WARMUP_UNITS + 2 * rounds.TRACED_UNITS
    out["core.cache_bytes"] = store.cache.nbytes
    out["core.cache_hit_ratio"] = stats.hit_rate
    out["core.cache_evictions"] = stats.evictions / n_rounds
    out["core.read_ops"] = store.read_ops / n_rounds
    out["core.read_bytes"] = stats.bytes_in / n_rounds
    out["core.prefetch_hit_ratio"] = (
        store.prefetch_hits / store.prefetch_issued if store.prefetch_issued else 0.0)
    out["core.prefetch_wasted"] = store.prefetch_wasted / n_rounds
    out["core.io_overlap_s"] = store.prefetch_overlap_seconds / n_rounds

    fit = _engine(graph, fresh_dir("ooc-fit-store"), FIT_CACHE_BYTES)
    fit.prepare()
    with rec.span("engines.fit_rounds"):
        # One pass over the seed cycle fills the cache, the second is timed.
        for i in range(2 * rounds.WARMUP_UNITS):
            fit.run(workload, seed=round_seed(seed, i), record_paths=False)
        steps = 0
        seconds = 0.0
        for i in range(rounds.TRACED_UNITS):
            result = fit.run(workload, seed=round_seed(seed, i), record_paths=False)
            steps += result.total_steps
            seconds += result.walk_seconds
    out["core.fit_steps_per_s"] = steps / seconds

    ops = checks.Ops()
    rounds.check_engine(ops, NAME, engine, stream, seed, size.chi2_draws)
    return out, ops


def _read_probe(rec: Recorder, directory, graph, seed: int) -> Dict[str, float]:
    """``TrunkStore.read_batch`` called directly on a seeded list of
    alias-trunk ranges: first with an empty block cache (every range is a
    backing read), then again (every range is a cache hit)."""
    rng = np.random.default_rng(seed)
    degrees = np.diff(graph.indptr)
    sources = np.flatnonzero(degrees >= DEFAULT_OOC_TRUNK_SIZE)
    vs = rng.choice(sources, size=min(READ_PROBE_RANGES, sources.size), replace=False)
    trunk = rng.integers(0, degrees[vs] // DEFAULT_OOC_TRUNK_SIZE)
    los = graph.indptr[vs] + trunk * DEFAULT_OOC_TRUNK_SIZE
    his = los + DEFAULT_OOC_TRUNK_SIZE
    out = {}
    with TrunkStore(directory, cache_bytes=FIT_CACHE_BYTES) as store:
        for temperature in ("cold", "warm"):
            with rec.span(f"core.read_batch_{temperature}", ranges=vs.size) as sp:
                store.read_batch("pa", los, his, None)
            out[f"core.read_batch_{temperature}_us"] = (
                (sp["end"] - sp["start"]) / vs.size * 1e6)
    return out
