"""Write-ahead log for streaming edge batches.

Durability for the streaming engine is a classic WAL: every accepted
edge batch is serialised as one CRC32-framed record appended to a
segment file, so a crashed process (``os._exit`` at any instruction)
can be recovered to exactly the durable prefix of its ingest history.
The design points:

* **Framing.** Each record is ``[u32 length][u32 crc][kind + payload]``
  (little-endian); ``crc`` covers the body (kind byte + payload) and
  ``length`` counts it. A record is *durable* iff every byte of it
  reached the log; a partial tail — torn by a crash mid-``write`` — is
  detected on replay by a short header, an out-of-range length, or a
  CRC mismatch, and truncated away (the torn batch was never
  acknowledged as durable, so dropping it is the correct outcome).
* **Segments.** Records append to ``wal-<seq>.log`` files, rotated once
  a segment exceeds ``segment_bytes``. Rotation bounds the cost of a
  checkpoint trim (whole old segments are unlinked) and keeps replay
  I/O sequential. Every segment starts with an 8-byte magic header.
* **Group commit.** Appends always ``flush()`` (so an ``os._exit``
  crash of *this process* loses nothing the OS already has), but
  ``fsync`` — the machine-crash barrier — is batched: one fsync per
  ``group_commit`` appends, amortising the dominant durability cost
  across a burst of batches. ``sync()`` forces the barrier.
* **Torn-tail truncation.** Only the *last* segment may end in a torn
  record; a bad frame in an earlier segment (valid segments follow it)
  is real corruption and raises :class:`~repro.exceptions.
  WalCorruptionError` instead of silently dropping committed data.

The fault-injection sites ``wal_append`` and ``wal_fsync`` fire before
the respective syscalls, so chaos plans can kill an append or a commit
deterministically (see ``make chaos-smoke``, a selection of tier-1 tests).
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.exceptions import WalCorruptionError
from repro.telemetry import events

#: Magic bytes opening every segment file (8 bytes, versioned).
SEGMENT_MAGIC = b"TEAWAL01"

#: Record kinds. Edge batches are the only mutating record; the kind
#: byte leaves room for future record types without a format bump.
KIND_EDGE_BATCH = 1

#: ``[u32 length][u32 crc]`` — length counts the body (kind + payload).
_FRAME_HEADER = struct.Struct("<II")

#: Sanity cap on one record's body; a torn header that happens to parse
#: as a huge length must not trigger a giant allocation.
MAX_FRAME_BYTES = 1 << 28

#: Default segment rotation threshold.
DEFAULT_SEGMENT_BYTES = 4 << 20

_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".log"


def segment_name(seq: int) -> str:
    return f"{_SEGMENT_PREFIX}{seq:08d}{_SEGMENT_SUFFIX}"


def list_segments(directory) -> List[Tuple[int, Path]]:
    """All ``(seq, path)`` WAL segments in ``directory``, seq-ascending."""
    directory = Path(directory)
    found = []
    if not directory.is_dir():
        return found
    for path in directory.iterdir():
        name = path.name
        if name.startswith(_SEGMENT_PREFIX) and name.endswith(_SEGMENT_SUFFIX):
            try:
                seq = int(name[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)])
            except ValueError:
                continue
            found.append((seq, path))
    return sorted(found)


def encode_edge_batch(src, dst, times) -> bytes:
    """Serialise one edge batch as a record body (kind + columns)."""
    src = np.ascontiguousarray(src, dtype=np.int64)
    dst = np.ascontiguousarray(dst, dtype=np.int64)
    times = np.ascontiguousarray(times, dtype=np.float64)
    n = src.size
    return b"".join((
        bytes([KIND_EDGE_BATCH]),
        struct.pack("<Q", n),
        src.tobytes(),
        dst.tobytes(),
        times.tobytes(),
    ))


def decode_edge_batch(body: bytes):
    """Inverse of :func:`encode_edge_batch`; returns ``(src, dst, times)``."""
    if not body or body[0] != KIND_EDGE_BATCH:
        raise WalCorruptionError(
            f"unknown WAL record kind {body[0] if body else None!r}"
        )
    (n,) = struct.unpack_from("<Q", body, 1)
    expect = 1 + 8 + n * (8 + 8 + 8)
    if len(body) != expect:
        raise WalCorruptionError(
            f"edge-batch record claims {n} edges but has {len(body)} bytes "
            f"(expected {expect})"
        )
    off = 9
    src = np.frombuffer(body, dtype=np.int64, count=n, offset=off)
    off += 8 * n
    dst = np.frombuffer(body, dtype=np.int64, count=n, offset=off)
    off += 8 * n
    times = np.frombuffer(body, dtype=np.float64, count=n, offset=off)
    return src, dst, times


def _scan_segment(path: Path) -> Tuple[List[Tuple[int, bytes]], int, Optional[str]]:
    """Scan one segment: ``(frames, valid_end_offset, problem)``.

    ``frames`` is the list of ``(offset, body)`` for every intact
    record; ``valid_end_offset`` is the byte offset the log is valid up
    to (truncation point for a torn tail); ``problem`` describes why
    scanning stopped early (``None`` when the file is fully valid).
    """
    data = path.read_bytes()
    if len(data) < len(SEGMENT_MAGIC):
        return [], 0, "short segment header"
    if data[: len(SEGMENT_MAGIC)] != SEGMENT_MAGIC:
        return [], 0, "bad segment magic"
    frames: List[Tuple[int, bytes]] = []
    off = len(SEGMENT_MAGIC)
    size = len(data)
    while off < size:
        if off + _FRAME_HEADER.size > size:
            return frames, off, "torn frame header"
        length, crc = _FRAME_HEADER.unpack_from(data, off)
        if length == 0 or length > MAX_FRAME_BYTES:
            return frames, off, f"invalid frame length {length}"
        body_end = off + _FRAME_HEADER.size + length
        if body_end > size:
            return frames, off, "torn frame body"
        body = data[off + _FRAME_HEADER.size : body_end]
        if zlib.crc32(body) != crc:
            return frames, off, "frame CRC mismatch"
        frames.append((off, body))
        off = body_end
    return frames, off, None


class WriteAheadLog:
    """Append-only, CRC-framed, segment-rotated edge-batch log.

    One writer at a time (the streaming engine's ingest path is
    single-mutator by design); readers replay closed state, never a
    live file. Opening an existing directory scans it, truncates a torn
    tail in the last segment, and positions the writer at the repaired
    end — the open itself is the recovery of the *log*; replaying its
    records into an index is the caller's job (see
    :meth:`StreamingTeaEngine.recover <repro.streaming.batch.
    StreamingTeaEngine>`).
    """

    def __init__(
        self,
        directory,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        group_commit: int = 1,
        fault_injector=None,
        start_segment: int = 0,
    ):
        if segment_bytes <= 0:
            raise ValueError("segment_bytes must be positive")
        if group_commit <= 0:
            raise ValueError("group_commit must be positive")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.segment_bytes = int(segment_bytes)
        self.group_commit = int(group_commit)
        self.fault_injector = fault_injector
        self._fh = None
        self._seq = int(start_segment)
        self._offset = 0
        self._unsynced = 0
        #: Telemetry (read by the engine): totals since open.
        self.appended_records = 0
        self.appended_bytes = 0
        self.fsyncs = 0
        self.rotations = 0
        #: Bytes dropped from a torn tail at open (0 for a clean log).
        self.truncated_tail_bytes = 0
        self._open_tail()

    # -- lifecycle ---------------------------------------------------------

    def _open_tail(self) -> None:
        """Open for appending: repair + continue the last segment."""
        segments = list_segments(self.directory)
        if not segments:
            self._seq = max(self._seq, 0)
            self._start_segment(self._seq)
            return
        last_seq, last_path = segments[-1]
        _, valid_end, problem = _scan_segment(last_path)
        size = last_path.stat().st_size
        if problem is not None and valid_end < size:
            self.truncated_tail_bytes = size - valid_end
            events.emit(
                "wal.truncated_tail", segment=last_path.name,
                dropped_bytes=int(self.truncated_tail_bytes),
                reason=problem,
            )
            with open(last_path, "r+b") as fh:
                fh.truncate(valid_end)
                fh.flush()
                os.fsync(fh.fileno())
        if valid_end < len(SEGMENT_MAGIC):
            # The whole segment (even its magic) was torn: rewrite it.
            self._start_segment(last_seq)
            return
        self._seq = last_seq
        self._fh = open(last_path, "ab")
        self._offset = valid_end

    def _start_segment(self, seq: int) -> None:
        if self._fh is not None:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._fh.close()
            self.rotations += 1
            events.emit("wal.rotate", segment=segment_name(seq))
        self._seq = seq
        path = self.directory / segment_name(seq)
        self._fh = open(path, "wb")
        self._fh.write(SEGMENT_MAGIC)
        self._fh.flush()
        self._offset = len(SEGMENT_MAGIC)

    def close(self) -> None:
        if self._fh is not None:
            self.sync()
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- writing -----------------------------------------------------------

    @property
    def position(self) -> Tuple[int, int]:
        """``(segment_seq, offset)`` of the end of the log."""
        return (self._seq, self._offset)

    def append_edges(self, src, dst, times, sync: Optional[bool] = None) -> dict:
        """Append one edge batch; returns its LSN dict.

        Always flushed to the OS (process-crash durable); fsynced when
        the group-commit counter fills or ``sync=True``. The returned
        dict carries ``segment``/``offset`` (where the record starts)
        and ``synced`` (whether the machine-crash barrier ran).
        """
        if self._fh is None:
            raise WalCorruptionError("write-ahead log is closed")
        if self.fault_injector is not None:
            self.fault_injector.check("wal_append")
        body = encode_edge_batch(src, dst, times)
        frame = _FRAME_HEADER.pack(len(body), zlib.crc32(body)) + body
        if self._offset + len(frame) > self.segment_bytes \
                and self._offset > len(SEGMENT_MAGIC):
            self._start_segment(self._seq + 1)
        lsn = {"segment": self._seq, "offset": self._offset}
        self._fh.write(frame)
        self._fh.flush()
        self._offset += len(frame)
        self.appended_records += 1
        self.appended_bytes += len(frame)
        self._unsynced += 1
        synced = False
        if sync or (sync is None and self._unsynced >= self.group_commit):
            self.sync()
            synced = True
        lsn["synced"] = synced
        return lsn

    def sync(self) -> None:
        """Force the fsync barrier (group commit's flush point)."""
        if self._fh is None or self._unsynced == 0:
            return
        if self.fault_injector is not None:
            self.fault_injector.check("wal_fsync")
        os.fsync(self._fh.fileno())
        self.fsyncs += 1
        committed, self._unsynced = self._unsynced, 0
        events.emit("wal.fsync", records=int(committed),
                    segment=int(self._seq))

    # -- replay ------------------------------------------------------------

    @staticmethod
    def replay(directory, start: Optional[Tuple[int, int]] = None,
               ) -> Iterator[Tuple[Tuple[int, int], np.ndarray, np.ndarray, np.ndarray]]:
        """Yield ``(lsn, src, dst, times)`` for every durable record.

        ``start`` skips records before ``(segment, offset)`` — the
        checkpoint manifest's WAL position. A torn tail in the last
        segment is silently ignored (the writer truncates it on
        reopen); a bad frame anywhere else raises
        :class:`WalCorruptionError`.
        """
        segments = list_segments(directory)
        start_seg, start_off = start if start is not None else (-1, 0)
        for index, (seq, path) in enumerate(segments):
            if seq < start_seg:
                continue
            frames, valid_end, problem = _scan_segment(path)
            if problem is not None and index != len(segments) - 1:
                raise WalCorruptionError(
                    f"{path.name}: {problem} at offset {valid_end} but later "
                    f"segments exist — the log is corrupt, not torn"
                )
            for off, body in frames:
                if seq == start_seg and off < start_off:
                    continue
                src, dst, times = decode_edge_batch(body)
                yield (seq, off), src, dst, times

    def trim_before(self, segment: int) -> int:
        """Unlink whole segments with seq < ``segment`` (checkpoint trim)."""
        removed = 0
        for seq, path in list_segments(self.directory):
            if seq < segment and seq != self._seq:
                path.unlink()
                removed += 1
        if removed:
            events.emit("wal.trim", removed_segments=int(removed),
                        keep_from=int(segment))
        return removed


def scrub_wal(directory) -> dict:
    """Integrity-scan a WAL directory (the ``repro scrub`` WAL core).

    Checks every frame of every segment (CRC + length), distinguishing
    a repairable torn tail (last segment only — reported, not counted
    as corruption) from mid-log corruption, and verifies the checkpoint
    manifest when present (see :func:`repro.streaming.snapshot.
    verify_checkpoint`). Returns a report dict shaped like
    :func:`repro.core.outofcore.scrub_store`'s: ``clean`` /
    ``corrupt`` / counts.
    """
    from repro.streaming.snapshot import verify_checkpoint

    directory = Path(directory)
    report = {
        "directory": str(directory),
        "segments": 0,
        "frames_checked": 0,
        "torn_tail": None,
        "corrupt": [],
        "clean": True,
    }
    segments = list_segments(directory)
    report["segments"] = len(segments)
    for index, (seq, path) in enumerate(segments):
        frames, valid_end, problem = _scan_segment(path)
        for off, body in frames:
            report["frames_checked"] += 1
            try:
                decode_edge_batch(body)
            except WalCorruptionError as exc:
                report["corrupt"].append({
                    "file": path.name, "page": None, "offset_bytes": int(off),
                    "reason": f"undecodable record: {exc}",
                })
        if problem is not None:
            size = path.stat().st_size
            record = {
                "file": path.name, "page": None,
                "offset_bytes": int(valid_end),
                "reason": f"{problem} ({size - valid_end} trailing bytes)",
            }
            if index == len(segments) - 1:
                # Torn tail: repairable, the writer truncates on reopen.
                report["torn_tail"] = record
            else:
                report["corrupt"].append(record)
    manifest_report = verify_checkpoint(directory)
    if manifest_report is not None:
        report["manifest"] = manifest_report
        report["corrupt"].extend(manifest_report["corrupt"])
    report["clean"] = not report["corrupt"]
    return report
