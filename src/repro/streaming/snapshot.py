"""Epoch snapshots and checkpoint manifests for streaming ingest.

Two jobs live here, both about serving reads against a *stable*
version of the stream (the TVA blueprint in PAPERS.md):

**Epoch views.** Every applied batch advances the engine's epoch and
publishes an immutable :class:`EpochView` — a copy-on-write capture of
the incremental index. Vertices untouched since the previous epoch
share their frozen view object with it; touched vertices get a fresh
O(num_blocks) pin (immutable blocks make that a shallow capture — see
``VertexIncrementalHPAT.view``). A walk that pins epoch N is bit-identical
whether ingest is idle or mid-batch for epoch N+1, because nothing the
view references ever mutates. A burst of walks reads a view through
its *pack* — the same segments concatenated into a few flat columns on
the first burst, so that every walker advances one hop per array
operation instead of one Python hop at a time (docs/streaming.md,
"Reading a pinned epoch").

**Checkpoint manifests.** Replaying a WAL from the beginning costs
O(total batches ever ingested) in disk scanning; a checkpoint bounds
that by persisting the full durable edge history as compact columns
(``checkpoint-<epoch>.bin``: magic, edge/batch counts, src/dst/time
arrays, batch-size array) plus an atomically renamed ``MANIFEST.json``
recording the checkpoint's CRC32, its epoch, and the WAL position it
covers. The batch-size column matters for bit-identity: the carry
forest's block structure depends on the exact batch boundaries the
edges arrived in, so recovery replays the checkpoint *batch by batch*
— reproducing the identical index a never-crashed engine holds — then
replays only WAL records at or after the manifest position; segments
before it are trimmed. Manifest writes are crash-safe by construction:
checkpoint tmp → fsync → rename → manifest tmp → fsync → rename →
directory fsync, so a crash leaves either the old (manifest,
checkpoint) pair or the new one, never a torn hybrid. A CRC mismatch
on load therefore means real disk corruption (the WAL prefix it
covered has been trimmed), and recovery raises rather than guessing.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.engines.base import FrontierResult
from repro.exceptions import ChecksumError, EmptyCandidateSetError
from repro.rng import LaneRng, RngLike, make_rng, spawn_seeds
from repro.sampling.counters import CostCounters
from repro.telemetry import LATENCY_BUCKETS, MetricsRegistry, clock, events
from repro.walks.walker import Walker, WalkPath

#: Schema stamp for the checkpoint manifest.
MANIFEST_SCHEMA = "tea-repro/streaming-checkpoint/v1"
MANIFEST_NAME = "MANIFEST.json"
CHECKPOINT_MAGIC = b"TEACKPT1"


# ---------------------------------------------------------------------------
# Epoch views
# ---------------------------------------------------------------------------


class _EpochPack:
    """One epoch's sampling state as flat columns — immutable once built.

    Columns hold every vertex's segments back to back, vertices in id
    order, segments newest first, edges newest first inside a segment
    (so ``times`` descends along a whole vertex). A segment is one
    carry-forest block, as ``segments()`` hands it out — a block *is*
    its segment, it holds nothing the pack does not read; an edge weighs
    ``mass · 2^exponent``.

    * per edge: ``dst``, ``times``;
    * per edge and once more per segment: ``mass`` — segment ``s`` owns
      entries ``seg_start[s] + s + k``, the mass of its newest ``k``
      edges, ``k = 0 .. size``;
    * per segment: ``seg_start`` (edge offset), ``seg_oldest`` (time of
      its last edge), ``seg_exp``, and the running total of the vertex's
      segments up to and including this one as ``seg_cum · 2^seg_kmax``,
      ``seg_kmax`` being the largest exponent so far — never a flat
      per-vertex sum, which under/overflows once an exponential stream spans
      more than ~709 scale units;
    * per vertex: ``ids`` (sorted) and ``row_seg`` (segment offset); an
      id that is not in ``ids`` names the dead row ``len(row_seg) - 2``,
      which owns no segment.

    Every column ends in a pad entry, so a bisect that has converged on
    the end of its range still reads inside the array.
    """

    __slots__ = ("dst", "times", "mass", "seg_start", "seg_oldest",
                 "seg_exp", "seg_cum", "seg_kmax", "row_seg", "ids")

    def __init__(self, ids: np.ndarray, vertices: Dict[int, object]):
        rows = ids.size
        per_vertex = [vertices[v].segments() for v in ids.tolist()]
        segments = [seg for segs in per_vertex for seg in segs]
        dst, times, mass, exps = zip(*segments) if segments else ((),) * 4
        self.dst = np.concatenate(dst + (np.zeros(1, dtype=np.int64),))
        self.times = np.concatenate(times + (np.full(1, -np.inf),))
        self.mass = np.concatenate(mass + (np.zeros(1),))
        count = len(segments)
        # Two pad entries: the pad segment's own (empty) extent.
        self.seg_start = np.zeros(count + 2, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, dst), dtype=np.int64, count=count),
                  out=self.seg_start[1:-1])
        self.seg_start[-1] = self.seg_start[-2]
        ends = self.seg_start[1:-1]
        self.seg_oldest = np.append(self.times[ends - 1], -np.inf)
        self.seg_exp = np.array(exps + (0,), dtype=np.int64)
        # Rows 0..rows-1 are the vertices, row ``rows`` is the dead one.
        self.row_seg = np.full(rows + 2, count, dtype=np.int64)
        self.row_seg[0] = 0
        np.cumsum(np.fromiter(map(len, per_vertex), dtype=np.int64, count=rows),
                  out=self.row_seg[1:rows + 1])
        self.ids = np.append(ids, np.iinfo(np.int64).max)
        # Running totals, the k-th segment of every vertex in one step:
        # the same additions in the same order as the scalar samplers'
        # ``cum`` lists, each rescaled by an exact power of two.
        self.seg_cum = np.append(self.mass[ends + np.arange(count)], 0.0)
        self.seg_kmax = self.seg_exp.copy()
        at, stop = self.row_seg[:rows], self.row_seg[1:rows + 1]
        while True:
            more = at + 1 < stop
            at, stop = at[more] + 1, stop[more]
            if not at.size:
                break
            kmax = np.maximum(self.seg_kmax[at - 1], self.seg_exp[at])
            self.seg_cum[at] = (
                np.ldexp(self.seg_cum[at - 1], self.seg_kmax[at - 1] - kmax)
                + np.ldexp(self.seg_cum[at], self.seg_exp[at] - kmax))
            self.seg_kmax[at] = kmax

    def candidates(self, v: np.ndarray, t: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """Per lane, the candidate set of vertex ``v`` after time ``t``
        as ``(first, edge, take, probes)``: segments ``[first, edge)``
        whole, then the ``take`` newest edges of segment ``edge`` —
        exactly the edges with time > t. An id that owns no row
        (inactive, negative, past the largest) lands on the dead row
        and gets the empty set.
        """
        row = np.searchsorted(self.ids, v)  # at most the pad, the dead row
        row = np.where(self.ids[row] == v, row, self.ids.size - 1)
        first, end = self.row_seg[row], self.row_seg[row + 1]
        edge, probes = _bisect(first, end, lambda i: self.seg_oldest[i] > t)
        lo = self.seg_start[edge]
        # Past the vertex's last segment there is nothing to cut into.
        hi = np.where(edge < end, self.seg_start[edge + 1], lo)
        cut, n = _bisect(lo, hi, lambda i: self.times[i] > t)
        return first, edge, cut - lo, probes + n

    def draw(self, first: np.ndarray, edge: np.ndarray, take: np.ndarray,
             u: np.ndarray) -> Tuple[np.ndarray, int]:
        """Per lane, one edge of a non-empty candidate set drawn ∝ weight
        from the uniforms ``u[0]`` (segment) and ``u[1]`` (edge in it):
        ``(edge offset, probes)``.

        Level one weighs the whole segments' running total against the
        boundary segment's partial mass, both rescaled to the heavier
        exponent, so the comparison happens in range however far the
        exponents lie apart; level two is inverse transform over the
        chosen segment's masses.
        """
        whole = edge > first
        before = np.maximum(edge - 1, 0)
        k_whole = np.where(whole, self.seg_kmax[before], _ABSENT)
        k_part = np.where(take > 0, self.seg_exp[edge], _ABSENT)
        k_star = np.maximum(k_whole, k_part)
        m_whole = np.ldexp(np.where(whole, self.seg_cum[before], 0.0),
                           k_whole - k_star)
        total = m_whole + np.ldexp(
            self.mass[self.seg_start[edge] + edge + take], k_part - k_star)
        if not (total > 0).all():
            raise EmptyCandidateSetError("zero-weight candidate set")
        r = total - u[0] * total  # in (0, total], as draw_in_range
        in_part = m_whole < r
        seg, probes = _bisect(
            np.where(in_part, edge, first), edge,
            # Probes never leave the lane's own segments, whose exponents
            # are <= k_star: a draw among the whole segments stops at
            # ``edge - 1`` at the latest (that probe *is* ``m_whole``, and
            # r <= m_whole), one in the boundary segment probes ``edge``.
            lambda i: np.ldexp(self.seg_cum[i], self.seg_kmax[i] - k_star) < r)
        lo = self.seg_start[seg]
        size = np.where(in_part, take, self.seg_start[seg + 1] - lo)
        lo += seg  # the segment's first mass entry, that of zero edges
        r = self.mass[lo + size]
        r -= u[1] * r
        at, n = _bisect(lo + 1, lo + size + 1, lambda i: self.mass[i] < r)
        return at - seg - 1, probes + n

    def walk(self, out: FrontierResult, rng: LaneRng, max_length: int,
             frontier_size, counters: Optional[CostCounters] = None) -> None:
        """Advance every walk of ``out`` — walk ``i`` on ``rng``'s stream
        ``i`` — to its end or ``max_length`` hops, each live walker one
        hop per iteration, the hops of an iteration scattered into
        ``out`` at once. ``out``'s hop columns double when a walk
        outgrows them, so they cost what the longest walk took, not
        what the caller allowed."""
        lane = np.arange(out.starts.size)
        v = out.starts
        t = np.full(lane.size, -np.inf)
        for hop in range(max_length):
            first, edge, take, probes = self.candidates(v, t)
            live = (edge > first) | (take > 0)
            lane, first, edge, take = (
                a[live] for a in (lane, first, edge, take))
            if not lane.size:
                break
            frontier_size.observe(lane.size)
            out.make_room(hop + 1, max_length)
            at, n = self.draw(first, edge, take, rng.uniform_block(lane, 2))
            v, t = self.dst[at], self.times[at]
            out.hop_vertex[lane, hop] = v
            out.hop_time[lane, hop] = t
            out.lengths[lane] = hop + 1
            if counters is not None:
                counters.steps += lane.size
                counters.record_probe((probes + n) * lane.size)


def _bisect(lo: np.ndarray, hi: np.ndarray, go_right) -> Tuple[np.ndarray, int]:
    """Per lane, the first index of ``[lo, hi)`` where ``go_right(index)``
    is false (``hi`` when there is none), and the probes that took.

    ``go_right`` maps an index array to a boolean array and must be
    true on a prefix of each range. All lanes step together, so the
    widest range sets the probe count; a lane that has converged keeps
    probing its own ``hi`` — an entry past its range, hence the pads —
    which can only push ``lo`` one past ``hi``, undone at the end.
    """
    probes = int((hi - lo).max(initial=0)).bit_length()
    for _ in range(probes):
        mid = (lo + hi) >> 1
        right = go_right(mid)
        lo = np.where(right, mid + 1, lo)
        hi = np.where(right, hi, mid)
    return np.minimum(lo, hi), probes


#: Exponent of a mass that is absent from a sum: ``ldexp(0.0, _ABSENT - k)``
#: is 0 for any real exponent ``k``, and any real exponent beats it in a max.
_ABSENT = np.int64(-(1 << 40))


class EpochReads:
    """What the views of one engine share on the read side: the engine's
    histograms, looked up once, and its one cached pack.

    A pack is O(edges), and every retained or reader-held view could
    hold one; an engine keeps only that of the epoch packed last — the
    epoch its readers are on. ``cached`` is ``(view, pack)`` or ``None``,
    replaced by a single attribute store of an immutable tuple: lock-free
    readers racing on it at worst pack an epoch twice, equal both times.
    """

    __slots__ = ("pack_seconds", "walk_seconds", "frontier_size", "cached")

    def __init__(self, registry: MetricsRegistry):
        self.pack_seconds = registry.histogram(
            "streaming.epoch_pack_seconds", "seconds to pack an epoch into "
            "flat columns, on its first burst of walks", **LATENCY_BUCKETS)
        self.walk_seconds = registry.histogram(
            "streaming.pinned_walk_seconds", "seconds per burst of walks on "
            "a pinned epoch (its pack included, when the burst built it)",
            **LATENCY_BUCKETS)
        self.frontier_size = registry.histogram(
            "streaming.frontier_size", "live walkers per iteration of a "
            "pinned-epoch burst")
        self.cached: Optional[Tuple["EpochView", _EpochPack]] = None


class EpochView:
    """An immutable, walkable capture of the streaming index at one epoch.

    Holds frozen per-vertex views (shared with neighbouring epochs for
    untouched vertices) and answers the same read API as the live
    engine: candidate counts, weighted prefix sampling, and whole
    temporal walks. Safe to use from any thread while ingest proceeds.

    Bursts of walks (:meth:`run_lanes`, :meth:`run_walks`) advance every
    walker together over a packed copy of the epoch (:class:`_EpochPack`),
    built by the first burst and kept in the engine's :class:`EpochReads`
    until another epoch is packed. The view never changes, so the pack
    is a pure function of it: rebuilt, it is the same pack.
    """

    __slots__ = ("epoch", "num_edges", "_vertices", "_reads", "_ids")

    def __init__(self, epoch: int, num_edges: int, vertices: Dict[int, object],
                 reads: Optional[EpochReads] = None):
        self.epoch = int(epoch)
        self.num_edges = int(num_edges)
        self._vertices = vertices
        self._reads = reads if reads is not None else EpochReads(MetricsRegistry())
        self._ids: Optional[np.ndarray] = None

    @classmethod
    def capture(cls, epoch: int, index, previous: Optional["EpochView"] = None,
                reads: Optional[EpochReads] = None) -> "EpochView":
        """Freeze ``index`` (an ``IncrementalHPAT``) as of now.

        Copy-on-write against ``previous``: only vertices in the
        index's dirty set since the last capture are re-pinned; the
        rest alias the previous epoch's frozen objects. Nothing is
        packed here — a batch pays for the pin alone.
        """
        if previous is None:
            vertices = {v: vert.view() for v, vert in index.vertices.items()}
        else:
            vertices = dict(previous._vertices)
            for v in index.dirty_vertices():
                vert = index.vertices.get(v)
                if vert is None:
                    vertices.pop(v, None)
                else:
                    vertices[v] = vert.view()
        index.clear_dirty()
        return cls(epoch, index.num_edges, vertices, reads)

    # -- reads -------------------------------------------------------------

    def _sorted_ids(self) -> np.ndarray:
        if self._ids is None:
            ids = np.array(sorted(self._vertices), dtype=np.int64)
            ids.setflags(write=False)
            self._ids = ids
        return self._ids

    def active_vertices(self) -> List[int]:
        return self._sorted_ids().tolist()

    def candidate_count(self, v: int, t: Optional[float]) -> int:
        vert = self._vertices.get(v)
        return vert.candidate_count(t) if vert is not None else 0

    def sample(self, v: int, candidate_size: int, rng,
               counters: Optional[CostCounters] = None) -> Tuple[int, float]:
        vert = self._vertices.get(v)
        if vert is None:
            raise EmptyCandidateSetError(f"vertex {v} has no out-edges")
        return vert.sample(candidate_size, rng, counters)

    def walk(self, start: int, max_length: int, seed: RngLike = None,
             counters: Optional[CostCounters] = None) -> WalkPath:
        """One temporal walk over exactly this epoch's edges."""
        rng = make_rng(seed)
        return walk_index(self, int(start), int(max_length), rng, counters)

    def run_walks(self, starts, max_length: int = 80, seed: RngLike = 0,
                  counters: Optional[CostCounters] = None) -> List[WalkPath]:
        """Walks from each start; walk ``i`` runs on the ``i``-th stream
        spawned from ``seed`` (see :meth:`run_lanes`)."""
        starts = np.asarray(starts, dtype=np.int64)
        seeds = spawn_seeds(make_rng(seed), starts.size)
        return self.run_lanes(starts, seeds, max_length,
                              counters).materialise_paths()

    def packed(self) -> _EpochPack:
        """The epoch as flat columns: the engine's cached pack when it is
        this epoch's, else built now and cached in its place."""
        cached = self._reads.cached
        if cached is not None and cached[0] is self:
            return cached[1]
        t0 = clock.now()
        pack = _EpochPack(self._sorted_ids(), self._vertices)
        self._reads.cached = (self, pack)
        self._reads.pack_seconds.observe(clock.now() - t0)
        return pack

    def run_lanes(self, starts, seeds, max_length: int,
                  counters: Optional[CostCounters] = None) -> FrontierResult:
        """Walk every start to its end, all walkers one hop at a time.

        Walk ``i`` draws from its own counter-based stream keyed on
        ``seeds[i]``, so it depends on the epoch's content, its start
        and its seed only — not on which walks share the burst. A start
        or a sampled destination without out-edges in this epoch
        (inactive, negative, past the largest id) is a dead end.

        Per iteration and live lane: the candidate count by two bisects
        (boundary segment by oldest time, then strictly-newer edges
        inside it), a two-level inverse-transform draw (segment, with
        the covered masses rescaled to the heaviest covered exponent as
        :meth:`VertexIncrementalHPAT.sample` does, then edge by in-segment
        prefix mass), and one scatter into the columnar result, whose
        hop columns are as wide as the longest walk needed (at most
        ``max_length``; read them through ``lengths``).
        """
        t0 = clock.now()
        pack = self.packed()
        starts = np.asarray(starts, dtype=np.int64)
        max_length = int(max_length)
        out = FrontierResult.empty(starts, max_length, keep_hops=True)
        pack.walk(out, LaneRng(seeds), max_length,
                  self._reads.frontier_size, counters)
        self._reads.walk_seconds.observe(clock.now() - t0)
        return out

    def nbytes(self) -> int:
        return sum(v.nbytes() for v in self._vertices.values())

    def __repr__(self) -> str:
        return (f"EpochView(epoch={self.epoch}, |E|={self.num_edges}, "
                f"|V|={len(self._vertices)})")


def walk_index(index, start: int, max_length: int, rng,
               counters: Optional[CostCounters] = None) -> WalkPath:
    """The scalar temporal-walk loop over any candidate/sample index.

    Behind the single-walk ``walk()`` of the live engine and of a frozen
    view; bursts go through :meth:`EpochView.run_lanes`, which draws
    from the same distribution (tested against this loop). It is that
    loop's specification: two uniforms a hop with the pack's arithmetic,
    so drawing lane ``i`` of ``LaneRng(seeds)`` it takes lane ``i``'s
    hops bit for bit.
    """
    walker = Walker(int(start))
    v = walker.start_vertex
    while walker.num_edges < max_length:
        s = index.candidate_count(v, walker.current_time)
        if s <= 0:
            break
        if counters is not None:
            counters.record_step()
        v2, t2 = index.sample(v, s, rng, counters)
        walker.advance(v2, t2)
        v = v2
    return walker.finish()


# ---------------------------------------------------------------------------
# Checkpoint manifests
# ---------------------------------------------------------------------------


def checkpoint_name(epoch: int) -> str:
    return f"checkpoint-{epoch:08d}.bin"


def _fsync_directory(directory: Path) -> None:
    """Make a rename durable (POSIX: fsync the containing directory)."""
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-fsync
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_checkpoint(directory, src, dst, times, batch_sizes, epoch: int,
                     wal_position: Tuple[int, int],
                     fault_injector=None) -> dict:
    """Persist the full edge history + manifest; returns the manifest.

    The checkpoint body is columnar (``u64 n``, ``u64 k``, then int64
    src, int64 dst, float64 time, int64 batch sizes — the ``k`` batch
    lengths summing to ``n``, preserving the original batch
    boundaries); its CRC32 goes into the manifest, not the file, so a
    torn body and a stale manifest can never agree. Write order is the
    crash-safe one: checkpoint tmp → fsync → rename → manifest tmp →
    fsync → rename → directory fsync.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if fault_injector is not None:
        fault_injector.check("checkpoint_write")
    src = np.ascontiguousarray(src, dtype=np.int64)
    dst = np.ascontiguousarray(dst, dtype=np.int64)
    times = np.ascontiguousarray(times, dtype=np.float64)
    batch_sizes = np.ascontiguousarray(batch_sizes, dtype=np.int64)
    if int(batch_sizes.sum()) != int(src.size):
        raise ValueError(
            f"batch_sizes sum to {int(batch_sizes.sum())}, expected "
            f"{int(src.size)} edges"
        )
    payload = b"".join((
        struct.pack("<QQ", src.size, batch_sizes.size),
        src.tobytes(), dst.tobytes(), times.tobytes(),
        batch_sizes.tobytes(),
    ))
    crc = zlib.crc32(payload)
    name = checkpoint_name(epoch)
    tmp = directory / (name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, directory / name)
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "epoch": int(epoch),
        "num_edges": int(src.size),
        "num_batches": int(batch_sizes.size),
        "checkpoint": name,
        "checkpoint_crc": int(crc),
        "checkpoint_bytes": len(CHECKPOINT_MAGIC) + len(payload),
        "wal": {"segment": int(wal_position[0]), "offset": int(wal_position[1])},
    }
    mtmp = directory / (MANIFEST_NAME + ".tmp")
    with open(mtmp, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(mtmp, directory / MANIFEST_NAME)
    _fsync_directory(directory)
    events.emit("checkpoint.write", epoch=int(epoch),
                num_edges=int(src.size),
                checkpoint_bytes=int(manifest["checkpoint_bytes"]))
    return manifest


def load_manifest(directory) -> Optional[dict]:
    """The current manifest, or ``None`` when no checkpoint exists."""
    path = Path(directory) / MANIFEST_NAME
    if not path.exists():
        return None
    try:
        manifest = json.loads(path.read_text())
    except ValueError as exc:
        raise ChecksumError(f"checkpoint manifest is not valid JSON: {exc}",
                            path=path)
    required = {"schema", "epoch", "num_edges", "num_batches", "checkpoint",
                "checkpoint_crc", "checkpoint_bytes", "wal"}
    missing = required - set(manifest)
    if missing:
        raise ChecksumError(
            f"checkpoint manifest missing fields: {sorted(missing)}",
            path=path,
        )
    return manifest


def load_checkpoint(directory) -> Optional[
        Tuple[dict, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Load and CRC-verify the checkpoint; ``None`` when absent.

    Returns ``(manifest, src, dst, times, batch_sizes)``. Raises
    :class:`~repro.exceptions.ChecksumError` when the manifest and the
    checkpoint body disagree (bit rot, a stale manifest): the WAL
    prefix the checkpoint covered has been trimmed, so there is no
    safe fallback and recovery must surface the corruption.
    """
    directory = Path(directory)
    manifest = load_manifest(directory)
    if manifest is None:
        return None
    path = directory / manifest["checkpoint"]
    if not path.exists():
        raise ChecksumError(
            f"manifest references missing checkpoint {manifest['checkpoint']}",
            path=path,
        )
    data = path.read_bytes()
    if len(data) != manifest["checkpoint_bytes"]:
        raise ChecksumError(
            f"checkpoint {path.name}: {len(data)} bytes on disk, manifest "
            f"says {manifest['checkpoint_bytes']}",
            path=path,
        )
    if data[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise ChecksumError(f"checkpoint {path.name}: bad magic", path=path)
    payload = data[len(CHECKPOINT_MAGIC):]
    actual = zlib.crc32(payload)
    if actual != manifest["checkpoint_crc"]:
        raise ChecksumError(
            f"checkpoint {path.name}: CRC mismatch",
            path=path, expected=manifest["checkpoint_crc"], actual=actual,
        )
    n, k = struct.unpack_from("<QQ", payload, 0)
    expect = 16 + n * 24 + k * 8
    if len(payload) != expect:
        raise ChecksumError(
            f"checkpoint {path.name}: {n} edges / {k} batches need {expect} "
            f"payload bytes, found {len(payload)}",
            path=path,
        )
    off = 16
    src = np.frombuffer(payload, dtype=np.int64, count=n, offset=off)
    off += 8 * n
    dst = np.frombuffer(payload, dtype=np.int64, count=n, offset=off)
    off += 8 * n
    times = np.frombuffer(payload, dtype=np.float64, count=n, offset=off)
    off += 8 * n
    batch_sizes = np.frombuffer(payload, dtype=np.int64, count=k, offset=off)
    if int(batch_sizes.sum()) != int(n):
        raise ChecksumError(
            f"checkpoint {path.name}: batch sizes sum to "
            f"{int(batch_sizes.sum())}, expected {n}",
            path=path,
        )
    return manifest, src, dst, times, batch_sizes


def verify_checkpoint(directory) -> Optional[dict]:
    """Scrub helper: manifest + checkpoint integrity as a report dict.

    Returns ``None`` when the directory has no manifest; otherwise a
    dict with ``ok`` and a ``corrupt`` list shaped like the trunk-store
    scrub records.
    """
    directory = Path(directory)
    if not (directory / MANIFEST_NAME).exists():
        return None
    corrupt: List[dict] = []
    manifest = None
    try:
        loaded = load_checkpoint(directory)
        if loaded is not None:
            manifest = loaded[0]
    except ChecksumError as exc:
        corrupt.append({
            "file": Path(exc.path).name if exc.path else MANIFEST_NAME,
            "page": None, "offset_bytes": 0, "reason": str(exc),
        })
    return {
        "ok": not corrupt,
        "epoch": None if manifest is None else manifest["epoch"],
        "num_edges": None if manifest is None else manifest["num_edges"],
        "corrupt": corrupt,
    }
