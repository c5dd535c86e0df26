"""Chaos smoke: every resilience failure mode, end to end, in seconds.

``python -m repro.resilience.smoke`` runs the gate the Makefile wires
into ``make test`` (``chaos-smoke``). Each scenario injects one failure
mode through :class:`~repro.resilience.faults.FaultInjector` and
asserts the engine's *contract* under it:

* **crash** — a process worker dies hard (``os._exit``) on one chunk;
  the supervisor requeues it and the run completes **bit-identical** to
  the fault-free run;
* **hang** — a worker sleeps past the chunk timeout; the supervisor
  degrades the backend one level and still produces the bit-identical
  result, recording ``resilience.degraded``;
* **transient I/O** — trunk reads fail with
  :class:`~repro.exceptions.TransientIOError` twice; the retry policy
  backs off, succeeds, and the walk matches the fault-free run;
* **corruption** — a flipped bit in a persisted trunk page is caught by
  checksum-verified reads (:class:`~repro.exceptions.ChecksumError`)
  and located by :func:`~repro.core.outofcore.scrub_store`;
* **rollback** — a fault mid ``apply_batch`` leaves the incremental
  HPAT exactly at its pre-batch state, and the retried batch lands
  identically to a never-faulted ingest;
* **wal_crash** — the durable-ingest crash-consistency gate: the WAL
  tail is truncated at *every* byte offset (every possible
  ``os._exit`` point) and each recovery must walk bit-identically to a
  never-crashed engine holding the same durable batch prefix;
* **torn_append** — an injected ``wal_append`` failure rolls the
  already-applied batch back out of the index, so the accepted set and
  the durable set never diverge, and ``scrub_wal`` stays clean;
* **checkpoint_fault** — a failed ``checkpoint_write`` leaves the
  previous manifest and the untrimmed WAL authoritative; the retried
  checkpoint and subsequent recovery are unaffected.

All injections are seeded/selector-driven — the smoke is deterministic
apart from scheduling, and runs on the ``tiny`` synthetic dataset.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from repro.engines.base import Workload
from repro.exceptions import ChecksumError, TransientIOError
from repro.resilience import FaultInjector, RetryPolicy

#: Chunk timeout for the hang scenario: far above a healthy tiny-graph
#: chunk (~ms), far below the injected hang.
HANG_TIMEOUT = 0.25
HANG_SECONDS = 1.0


def _hops(result):
    return [w.hops for w in result.paths]


def _smoke_graph():
    from repro.graph.datasets import load_dataset

    return load_dataset("tiny", seed=7)


def _smoke_spec():
    from repro.walks.apps import exponential_walk

    return exponential_walk(scale=2.0)


def crash_scenario(verbose: bool) -> dict:
    """(a) Crashed worker: chunks requeued, result bit-identical."""
    from repro.parallel.engine import ParallelBatchTeaEngine

    graph, spec = _smoke_graph(), _smoke_spec()
    workload = Workload(walks_per_vertex=1, max_length=15)

    def engine(injector):
        return ParallelBatchTeaEngine(
            graph, spec, workers=2, chunk_size=16, backend="process",
            retries=2, fault_injector=injector,
        )

    baseline = engine(None).run(workload, seed=0)
    injector = FaultInjector.from_plan({"rules": [
        {"site": "chunk", "kind": "worker_crash",
         "chunks": [1], "attempts": [0]},
    ]})
    chaotic = engine(injector)
    result = chaotic.run(workload, seed=0)
    assert _hops(result) == _hops(baseline), (
        "crash scenario: retried run diverged from the fault-free run"
    )
    retries = chaotic.last_events["chunk_retries"]
    assert retries >= 1, "crash scenario: no chunk was retried"
    return {"crash_chunk_retries": int(retries),
            "crash_final_backend": chaotic.last_backend}


def hang_scenario(verbose: bool) -> dict:
    """(b) Hung worker: timeout trips, backend degrades, result holds."""
    from repro.parallel.engine import ParallelBatchTeaEngine

    graph, spec = _smoke_graph(), _smoke_spec()
    workload = Workload(walks_per_vertex=1, max_length=15)

    def engine(injector):
        return ParallelBatchTeaEngine(
            graph, spec, workers=2, chunk_size=16, backend="thread",
            retries=2, chunk_timeout=HANG_TIMEOUT, fault_injector=injector,
        )

    baseline = engine(None).run(workload, seed=0)
    injector = FaultInjector.from_plan({"rules": [
        {"site": "chunk", "kind": "worker_hang",
         "chunks": [0], "attempts": [0], "seconds": HANG_SECONDS},
    ]})
    chaotic = engine(injector)
    result = chaotic.run(workload, seed=0)
    assert _hops(result) == _hops(baseline), (
        "hang scenario: degraded run diverged from the fault-free run"
    )
    degraded = chaotic.last_events["degraded"]
    assert degraded, "hang scenario: timeout did not degrade the backend"
    metric = result.registry.counter(
        "resilience.degraded",
        "backend degradations (process->thread->serial) this run",
    ).value
    assert metric >= 1, "hang scenario: resilience.degraded not recorded"
    return {"hang_degraded_to": degraded[-1],
            "hang_chunk_retries": int(chaotic.last_events["chunk_retries"])}


def transient_io_scenario(verbose: bool) -> dict:
    """(c) Transient trunk-read errors retried with backoff, then succeed."""
    from repro.engines.tea_outofcore import TeaOutOfCoreEngine

    graph, spec = _smoke_graph(), _smoke_spec()
    workload = Workload(walks_per_vertex=1, max_length=15)

    baseline = TeaOutOfCoreEngine(graph, spec).run(workload, seed=0)
    injector = FaultInjector.from_plan({"rules": [
        {"site": "trunk_read", "kind": "io_error", "max_triggers": 2},
    ]})
    policy = RetryPolicy(max_retries=3, base_delay=0.001, seed=0)
    chaotic = TeaOutOfCoreEngine(
        graph, spec, retry_policy=policy, fault_injector=injector,
    )
    result = chaotic.run(workload, seed=0)
    assert _hops(result) == _hops(baseline), (
        "transient-io scenario: retried run diverged from the fault-free run"
    )
    retries = chaotic.index.store.io_retries
    assert retries >= 1, "transient-io scenario: no retry happened"
    assert injector.total_fired == 2, (
        f"transient-io scenario: expected 2 injected faults, "
        f"got {injector.total_fired}"
    )
    return {"io_retries": int(retries)}


def corruption_scenario(verbose: bool) -> dict:
    """(d) A flipped bit on disk: verified reads raise, scrub locates it."""
    from repro.core.outofcore import TrunkStore, scrub_store
    from repro.engines.tea_outofcore import TeaOutOfCoreEngine

    graph, spec = _smoke_graph(), _smoke_spec()
    workload = Workload(walks_per_vertex=1, max_length=10)
    with tempfile.TemporaryDirectory(prefix="tea-chaos-") as tmp:
        engine = TeaOutOfCoreEngine(graph, spec, storage_dir=tmp)
        engine.run(workload, seed=0)
        engine.index.store.close()

        target = Path(tmp) / "prob.bin"
        flip_offset = min(4096, target.stat().st_size // 2)
        with open(target, "r+b") as fh:
            fh.seek(flip_offset)
            byte = fh.read(1)
            fh.seek(flip_offset)
            fh.write(bytes([byte[0] ^ 0x01]))

        report = scrub_store(tmp)
        assert not report["clean"], "corruption scenario: scrub missed the flip"
        located = [
            r for r in report["corrupt"]
            if r["file"] == "prob.bin" and r.get("page") is not None
            and r["offset_bytes"] <= flip_offset
            < r["offset_bytes"] + 8192
        ]
        assert located, (
            f"corruption scenario: scrub did not locate the corrupt page "
            f"(flip at byte {flip_offset}, report {report['corrupt']})"
        )

        store = TrunkStore(tmp, verify_checksums=True).open()
        try:
            elem = flip_offset // 8
            try:
                store.read_alias_trunk(elem, elem + 1, None)
            except ChecksumError:
                pass
            else:
                raise AssertionError(
                    "corruption scenario: verified read did not raise "
                    "ChecksumError on the corrupt page"
                )
        finally:
            store.close()
        return {"corrupt_pages_located": len(located),
                "scrub_pages_checked": int(report["pages_checked"])}


def rollback_scenario(verbose: bool) -> dict:
    """(e) Mid-batch streaming failure: index rewinds to pre-batch state."""
    from repro.graph.edge_stream import EdgeStream
    from repro.streaming.batch import StreamingTeaEngine

    def batches():
        first = EdgeStream([0, 1, 2, 0], [1, 2, 0, 2], [1.0, 2.0, 3.0, 4.0])
        second = EdgeStream([0, 1, 3, 2], [3, 0, 1, 1], [5.0, 6.0, 7.0, 8.0])
        return first, second

    spec = _smoke_spec()
    first, second = batches()
    engine = StreamingTeaEngine(spec)
    engine.apply_batch(first)
    before = {
        v: tuple(a.copy() for a in vert.edges_desc())
        for v, vert in engine.index.vertices.items()
    }
    edges_before = engine.num_edges

    # Fault on the second vertex group of the second batch (the apply
    # site has already been called 0 times — batch 1 ran uninjected).
    engine.index.fault_injector = FaultInjector.from_plan({"rules": [
        {"site": "streaming_apply", "kind": "io_error", "calls": [1]},
    ]})
    try:
        engine.apply_batch(second)
    except TransientIOError:
        pass
    else:
        raise AssertionError("rollback scenario: injected fault did not fire")

    assert engine.num_edges == edges_before, (
        "rollback scenario: num_edges changed despite the rollback"
    )
    assert set(engine.index.vertices) == set(before), (
        "rollback scenario: vertex set changed despite the rollback"
    )
    for v, (dst, times, weights) in before.items():
        got = engine.index.vertices[v].edges_desc()
        assert (
            np.array_equal(got[0], dst)
            and np.array_equal(got[1], times)
            and np.array_equal(got[2], weights)
        ), f"rollback scenario: vertex {v} state changed despite the rollback"
    rollbacks = engine.index.rollbacks
    assert rollbacks == 1, (
        f"rollback scenario: expected 1 rollback, got {rollbacks}"
    )

    # Retrying the batch after clearing the fault must land exactly as a
    # never-faulted ingest: atomicity means the failure left no residue.
    engine.index.fault_injector = None
    engine.apply_batch(second)
    reference = StreamingTeaEngine(spec)
    ref_first, ref_second = batches()
    reference.apply_batch(ref_first)
    reference.apply_batch(ref_second)
    assert set(engine.index.vertices) == set(reference.index.vertices)
    for v, vert in reference.index.vertices.items():
        ref = vert.edges_desc()
        got = engine.index.vertices[v].edges_desc()
        assert all(np.array_equal(g, r) for g, r in zip(got, ref)), (
            f"rollback scenario: retried ingest diverged at vertex {v}"
        )
    return {"rollbacks": int(rollbacks),
            "edges_after_retry": int(engine.num_edges)}


def _ingest_stream():
    from repro.graph.generators import temporal_powerlaw

    return temporal_powerlaw(
        num_vertices=24, num_edges=96, seed=11, time_horizon=50.0
    )


def wal_crash_scenario(verbose: bool) -> dict:
    """(f) Crash at *every* WAL byte offset: recovery matches the
    never-crashed store built from the same durable prefix, bit for bit.
    """
    import shutil

    from repro.streaming.batch import StreamingTeaEngine
    from repro.streaming.wal import SEGMENT_MAGIC, WriteAheadLog, list_segments

    spec = _smoke_spec()
    stream = _ingest_stream()
    batches = list(stream.batches(24))
    with tempfile.TemporaryDirectory(prefix="tea-wal-") as tmp:
        wal_dir = Path(tmp) / "wal"
        with StreamingTeaEngine(spec, wal_dir=wal_dir) as engine:
            for batch in batches:
                engine.apply_batch(batch, sync=True)
        segments = list_segments(wal_dir)
        assert len(segments) == 1, "scenario assumes a single tiny segment"
        _, seg_path = segments[0]
        data = seg_path.read_bytes()
        # Frame start offsets, so each truncation maps to its durable
        # prefix (number of complete frames strictly before the cut).
        frame_starts = [
            lsn[1] for lsn, _s, _d, _t in WriteAheadLog.replay(wal_dir)
        ]
        starts = sorted({int(b.src[0]) for b in batches})[:8]
        # Reference engines per durable-prefix length, built fresh
        # in memory (never crashed, never recovered).
        references = []
        for k in range(len(batches) + 1):
            ref = StreamingTeaEngine(spec)
            for batch in batches[:k]:
                ref.apply_batch(batch)
            references.append(
                [w.hops for w in ref.run_walks(starts, max_length=12, seed=3)]
            )
        checked = 0
        for cut in range(len(SEGMENT_MAGIC), len(data) + 1):
            crash_dir = Path(tmp) / f"crash-{cut}"
            crash_dir.mkdir()
            (crash_dir / seg_path.name).write_bytes(data[:cut])
            durable = sum(1 for off in frame_starts
                          if off + 8 <= cut and _frame_fits(data, off, cut))
            with StreamingTeaEngine(spec, wal_dir=crash_dir) as recovered:
                assert recovered.recovered_batches == durable, (
                    f"cut {cut}: recovered {recovered.recovered_batches} "
                    f"batches, durable prefix is {durable}"
                )
                got = [w.hops for w in
                       recovered.run_walks(starts, max_length=12, seed=3)]
            assert got == references[durable], (
                f"cut {cut}: post-recovery walks diverged from the "
                f"never-crashed store with {durable} batches"
            )
            checked += 1
            shutil.rmtree(crash_dir)
        return {"wal_crash_offsets_checked": int(checked),
                "wal_crash_batches": len(batches)}


def _frame_fits(data: bytes, off: int, cut: int) -> bool:
    """Whole frame starting at ``off`` survives a truncation at ``cut``."""
    import struct

    if off + 8 > cut:
        return False
    (length,) = struct.unpack_from("<I", data, off)
    return off + 8 + length <= cut


def torn_append_scenario(verbose: bool) -> dict:
    """(g) WAL append fails mid-ingest: the applied batch is rolled back
    out of the index (acceptance == durability), and recovery sees only
    the durable prefix.
    """
    from repro.streaming.batch import StreamingTeaEngine
    from repro.streaming.wal import scrub_wal

    spec = _smoke_spec()
    stream = _ingest_stream()
    batches = list(stream.batches(24))
    with tempfile.TemporaryDirectory(prefix="tea-torn-") as tmp:
        injector = FaultInjector.from_plan({"rules": [
            {"site": "wal_append", "kind": "io_error", "calls": [2]},
        ]})
        engine = StreamingTeaEngine(spec, wal_dir=tmp,
                                    fault_injector=injector)
        engine.apply_batch(batches[0])
        engine.apply_batch(batches[1])
        edges_before = engine.num_edges
        epoch_before = engine.epoch
        try:
            engine.apply_batch(batches[2])
        except TransientIOError:
            pass
        else:
            raise AssertionError("torn-append scenario: fault did not fire")
        assert engine.num_edges == edges_before, (
            "torn-append scenario: undurable batch left edges in the index"
        )
        assert engine.epoch == epoch_before, (
            "torn-append scenario: undurable batch advanced the epoch"
        )
        # Retry (injector exhausted) must land as if nothing happened.
        engine.apply_batch(batches[2])
        walks = [w.hops for w in engine.run_walks(
            engine.active_vertices()[:6], max_length=12, seed=5)]
        engine.close()
        report = scrub_wal(tmp)
        assert report["clean"], f"torn-append scenario: scrub found {report}"
        reference = StreamingTeaEngine(spec)
        for batch in batches[:3]:
            reference.apply_batch(batch)
        ref_walks = [w.hops for w in reference.run_walks(
            reference.active_vertices()[:6], max_length=12, seed=5)]
        assert walks == ref_walks, (
            "torn-append scenario: retried ingest diverged from clean ingest"
        )
        rollbacks = engine.index.rollbacks
        return {"torn_append_rollbacks": int(rollbacks),
                "torn_append_frames": int(report["frames_checked"])}


def checkpoint_fault_scenario(verbose: bool) -> dict:
    """(h) Checkpoint write fails: the old manifest and untrimmed WAL
    stay authoritative, and recovery is unaffected.
    """
    from repro.streaming.batch import StreamingTeaEngine
    from repro.streaming.snapshot import load_manifest

    spec = _smoke_spec()
    stream = _ingest_stream()
    batches = list(stream.batches(24))
    with tempfile.TemporaryDirectory(prefix="tea-ckpt-") as tmp:
        injector = FaultInjector.from_plan({"rules": [
            {"site": "checkpoint_write", "kind": "io_error", "calls": [0]},
        ]})
        engine = StreamingTeaEngine(spec, wal_dir=tmp,
                                    fault_injector=injector)
        for batch in batches[:2]:
            engine.apply_batch(batch)
        try:
            engine.checkpoint()
        except TransientIOError:
            pass
        else:
            raise AssertionError("checkpoint scenario: fault did not fire")
        assert load_manifest(tmp) is None, (
            "checkpoint scenario: failed checkpoint left a manifest"
        )
        # Second attempt succeeds; more ingest rides on top of it.
        manifest = engine.checkpoint()
        for batch in batches[2:]:
            engine.apply_batch(batch)
        walks = [w.hops for w in engine.run_walks(
            engine.active_vertices()[:6], max_length=12, seed=7)]
        engine.close()
        recovered = StreamingTeaEngine(spec, wal_dir=tmp)
        got = [w.hops for w in recovered.run_walks(
            recovered.active_vertices()[:6], max_length=12, seed=7)]
        recovered.close()
        assert got == walks, (
            "checkpoint scenario: recovery through a checkpoint diverged"
        )
        return {"checkpoint_epoch": int(manifest["epoch"]),
                "checkpoint_recovered_batches": int(recovered.recovered_batches)}


SCENARIOS = (
    ("crash", crash_scenario),
    ("hang", hang_scenario),
    ("transient_io", transient_io_scenario),
    ("corruption", corruption_scenario),
    ("rollback", rollback_scenario),
    ("wal_crash", wal_crash_scenario),
    ("torn_append", torn_append_scenario),
    ("checkpoint_fault", checkpoint_fault_scenario),
)


def chaos_smoke(verbose: bool = True) -> dict:
    """Run every scenario; raises ``AssertionError`` on violation."""
    summary: dict = {}
    for name, fn in SCENARIOS:
        summary.update(fn(verbose))
        if verbose:
            print(f"  {name}: ok")
    if verbose:
        print("chaos smoke (tiny)")
        for key, value in summary.items():
            print(f"  {key}: {value}")
    return summary


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="resilience chaos smoke: inject every failure mode"
    )
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    chaos_smoke(verbose=not args.quiet)
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
