"""Ingest smoke: durable streaming invariants, end to end, in seconds.

``python -m repro.streaming.smoke`` is the Makefile's ``ingest-smoke``
gate (the durable-ingest ISSUE's acceptance criteria, executable):

* **Bulk equivalence** — ``add_multiple_edges`` over whole columns must
  produce the same index state and bit-identical walks as the same
  edges applied through ``apply_batch``, and must be meaningfully
  faster than a per-edge apply loop (the full ≥5x bar lives in
  ``benchmarks/test_ingest_throughput.py``; the smoke asserts >2x so a
  regression can't hide between bench runs).
* **Durability roundtrip** — a WAL-backed engine closed and reopened
  recovers the identical epoch and walks bit-identical to the original,
  before and after a checkpoint trims the log; the ingested forest's
  ``update_work()`` and ``nbytes()`` equal their recorded constants.
* **Epoch isolation** — walks pinned to epoch N return byte-identical
  results while later epochs ingest, and the current view advances.
* **Read bursts** — a burst of walks on a pinned epoch packs that epoch
  once (a second burst on it packs nothing, N epochs read pack N
  times, publishing and recovery pack nothing), advances its frontier
  at most ``max_length`` times, and charges steps and probes per
  iteration.
* **Scrub contract** — ``scrub_wal`` reports the log and checkpoint
  clean after all of the above.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

def _smoke_spec():
    from repro.walks.apps import exponential_walk

    return exponential_walk(scale=20.0)


def _decay_spec():
    # Bit-identity across different batchings needs the factorized decay
    # forest (batch-boundary-canonical); growth-kind carry forests only
    # promise distribution equivalence across batchings.
    from repro.walks.spec import WalkSpec, WeightModel

    return WalkSpec(
        name="ingest-decay",
        weight_model=WeightModel("exponential_decay", scale=20.0),
    )


def _smoke_stream():
    from repro.graph.generators import temporal_powerlaw

    return temporal_powerlaw(
        num_vertices=60, num_edges=1200, seed=13, time_horizon=80.0
    )


def bulk_equivalence_smoke(verbose: bool) -> dict:
    """Bulk columns == batched stream, and clearly faster than per-edge."""
    from repro.streaming.batch import StreamingTeaEngine

    stream = _smoke_stream()
    spec = _decay_spec()

    bulk = StreamingTeaEngine(spec)
    t0 = time.perf_counter()
    out = bulk.add_multiple_edges(stream.src, stream.dst, stream.time)
    bulk_seconds = time.perf_counter() - t0
    assert out["edges"] == len(stream) and bulk.num_edges == len(stream)

    batched = StreamingTeaEngine(spec)
    batched.ingest(stream, batch_size=200)
    starts = bulk.active_vertices()[:12]
    bulk_walks = [w.hops for w in bulk.run_walks(starts, max_length=15, seed=2)]
    # The factorized decay forest is batch-boundary-canonical, so the
    # bulk index and the batched index must walk identically.
    batched_walks = [
        w.hops for w in batched.run_walks(starts, max_length=15, seed=2)
    ]
    assert bulk_walks == batched_walks, (
        "ingest smoke: bulk and batched ingest walked differently"
    )

    per_edge = StreamingTeaEngine(spec)
    t0 = time.perf_counter()
    for i in range(len(stream)):
        per_edge.apply_batch(stream[i : i + 1])
    edge_seconds = time.perf_counter() - t0
    speedup = edge_seconds / max(bulk_seconds, 1e-9)
    assert speedup > 2.0, (
        f"ingest smoke: bulk path only {speedup:.1f}x over per-edge apply "
        f"(bulk {bulk_seconds * 1e3:.1f} ms, per-edge {edge_seconds * 1e3:.1f} ms)"
    )
    return {"bulk_speedup": round(speedup, 1),
            "bulk_edges_per_sec": int(len(stream) / max(bulk_seconds, 1e-9))}


def durability_smoke(verbose: bool) -> dict:
    """Close/reopen recovers identical walks, through a checkpoint too."""
    from repro.streaming.batch import StreamingTeaEngine

    stream = _smoke_stream()
    spec = _smoke_spec()
    with tempfile.TemporaryDirectory(prefix="tea-ingest-") as tmp:
        wal_dir = Path(tmp) / "wal"
        with StreamingTeaEngine(spec, wal_dir=wal_dir, group_commit=8) as eng:
            eng.ingest(stream, batch_size=150)
            # Recorded from the sequential per-vertex builder: however
            # construction is scheduled, the forest it leaves must not move.
            work_bytes = (eng.index.update_work(), eng.nbytes())
            assert work_bytes == (3501, 39336), (
                f"ingest smoke: forest (update_work, nbytes) moved: {work_bytes}")
            epoch = eng.epoch
            starts = eng.active_vertices()[:12]
            want = [w.hops for w in eng.run_walks(starts, max_length=15, seed=4)]
        with StreamingTeaEngine(spec, wal_dir=wal_dir) as recovered:
            assert recovered.epoch == epoch, (
                f"ingest smoke: recovered epoch {recovered.epoch} != {epoch}"
            )
            assert not recovered.registry.histogram(
                "streaming.epoch_pack_seconds").count, (
                "ingest smoke: recovery packed the epoch it published")
            got = [w.hops for w in
                   recovered.run_walks(starts, max_length=15, seed=4)]
            assert got == want, "ingest smoke: recovery diverged"
            manifest = recovered.checkpoint()
        with StreamingTeaEngine(spec, wal_dir=wal_dir) as again:
            got = [w.hops for w in again.run_walks(starts, max_length=15, seed=4)]
            assert got == want, "ingest smoke: post-checkpoint recovery diverged"
        return {"recovered_epoch": int(epoch),
                "checkpoint_edges": int(manifest["num_edges"])}


def isolation_smoke(verbose: bool) -> dict:
    """Pinned-epoch walks are byte-stable under concurrent ingest."""
    from repro.streaming.batch import StreamingTeaEngine

    stream = _smoke_stream()
    spec = _smoke_spec()
    engine = StreamingTeaEngine(spec, retain_epochs=8)
    half = len(stream) // 2
    engine.apply_batch(stream[:half])
    pinned = engine.pin()
    starts = pinned.active_vertices()[:12]
    before = [w.hops for w in pinned.run_walks(starts, max_length=15, seed=6)]
    for batch in stream[half:].batches(100):
        engine.apply_batch(batch)
    after = [w.hops for w in pinned.run_walks(starts, max_length=15, seed=6)]
    assert before == after, (
        "ingest smoke: pinned epoch changed under concurrent ingest"
    )
    current = engine.pin()
    assert current.epoch > pinned.epoch and current.num_edges == len(stream)
    live = [w.hops for w in current.run_walks(starts, max_length=15, seed=6)]
    assert live != before, (
        "ingest smoke: current epoch did not observe the new edges"
    )
    return {"pinned_epoch": int(pinned.epoch),
            "current_epoch": int(current.epoch)}


def read_burst_smoke(verbose: bool) -> dict:
    """Bursts pack an epoch once and advance it at most max_length times."""
    from repro.streaming.batch import StreamingTeaEngine

    stream = _smoke_stream()
    engine = StreamingTeaEngine(_smoke_spec(), retain_epochs=8)
    engine.ingest(stream, batch_size=200)
    packs = engine.registry.histogram("streaming.epoch_pack_seconds")
    bursts = engine.registry.histogram("streaming.pinned_walk_seconds")
    widths = engine.registry.histogram("streaming.frontier_size")
    assert packs.count == 0, "ingest smoke: publishing an epoch packed it"
    starts = engine.active_vertices()
    max_length = 15
    engine.run_walks(starts, max_length=max_length, seed=8)
    iterations = widths.count
    engine.run_walks(starts, max_length=max_length, seed=9)
    assert (packs.count, bursts.count) == (1, 2), (
        f"ingest smoke: two bursts on one epoch packed {packs.count} times"
    )
    assert 0 < iterations <= max_length and widths.max <= len(starts), (
        f"ingest smoke: {iterations} frontier iterations for "
        f"max_length={max_length}"
    )
    steps, probes = engine.counters.steps, engine.counters.binary_search_probes
    assert 0 < steps <= 2 * len(starts) * max_length and probes >= steps, (
        f"ingest smoke: burst charged {steps} steps, {probes} probes"
    )
    for epoch in (2, 3, 4):
        engine.pin(epoch).run_walks(starts, max_length=max_length, seed=8)
    assert (packs.count, bursts.count) == (4, 5), (
        f"ingest smoke: three more epochs read, {packs.count - 1} more packs"
    )
    return {"epoch_pack_ms": round(packs.total / packs.count * 1e3, 2),
            "frontier_iterations": int(iterations)}


def scrub_smoke(verbose: bool) -> dict:
    """scrub_wal reports a healthy store clean, with a manifest attached."""
    from repro.streaming.batch import StreamingTeaEngine
    from repro.streaming.wal import scrub_wal

    stream = _smoke_stream()
    spec = _smoke_spec()
    with tempfile.TemporaryDirectory(prefix="tea-scrub-") as tmp:
        with StreamingTeaEngine(spec, wal_dir=tmp) as eng:
            eng.ingest(stream, batch_size=300)
            eng.checkpoint()
            eng.apply_batch(stream[0:0])
        report = scrub_wal(tmp)
        assert report["clean"], f"ingest smoke: scrub found {report['corrupt']}"
        assert report.get("manifest", {}).get("ok"), (
            "ingest smoke: scrub did not validate the checkpoint manifest"
        )
        return {"scrub_frames": int(report["frames_checked"]),
                "scrub_segments": int(report["segments"])}


SMOKES = (
    ("bulk_equivalence", bulk_equivalence_smoke),
    ("durability", durability_smoke),
    ("isolation", isolation_smoke),
    ("read_burst", read_burst_smoke),
    ("scrub", scrub_smoke),
)


def ingest_smoke(verbose: bool = True) -> dict:
    """Run every ingest gate; raises ``AssertionError`` on violation."""
    summary: dict = {}
    for name, fn in SMOKES:
        summary.update(fn(verbose))
        if verbose:
            print(f"  {name}: ok")
    if verbose:
        print("ingest smoke")
        for key, value in summary.items():
            print(f"  {key}: {value}")
    return summary


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="durable streaming ingest smoke gates"
    )
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    ingest_smoke(verbose=not args.quiet)
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
