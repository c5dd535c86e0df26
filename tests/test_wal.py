"""Write-ahead log + checkpoint: framing, recovery, corruption handling."""

import struct

import numpy as np
import pytest

from repro.exceptions import ChecksumError, WalCorruptionError
from repro.streaming.wal import (
    SEGMENT_MAGIC,
    WriteAheadLog,
    encode_edge_batch,
    decode_edge_batch,
    list_segments,
    scrub_wal,
)
from repro.streaming.snapshot import (
    load_checkpoint,
    load_manifest,
    verify_checkpoint,
    write_checkpoint,
)


def _batch(n: int, t0: float = 0.0):
    src = np.arange(n, dtype=np.int64)
    dst = np.arange(n, dtype=np.int64) + 1
    times = t0 + np.arange(n, dtype=np.float64)
    return src, dst, times


def _append_batches(directory, batches, **kwargs):
    with WriteAheadLog(directory, **kwargs) as wal:
        for n, t0 in batches:
            wal.append_edges(*_batch(n, t0), sync=True)
    return [(_batch(n, t0)) for n, t0 in batches]


class TestFraming:
    def test_append_replay_roundtrip(self, tmp_path):
        want = _append_batches(tmp_path, [(3, 0.0), (5, 10.0), (1, 20.0)])
        got = list(WriteAheadLog.replay(tmp_path))
        assert len(got) == 3
        for (w_src, w_dst, w_t), (_lsn, src, dst, times) in zip(want, got):
            np.testing.assert_array_equal(src, w_src)
            np.testing.assert_array_equal(dst, w_dst)
            np.testing.assert_array_equal(times, w_t)

    def test_encode_decode_roundtrip(self):
        src, dst, times = _batch(7, 3.0)
        out = decode_edge_batch(encode_edge_batch(src, dst, times))
        np.testing.assert_array_equal(out[0], src)
        np.testing.assert_array_equal(out[1], dst)
        np.testing.assert_array_equal(out[2], times)

    def test_rotation_and_positions(self, tmp_path):
        with WriteAheadLog(tmp_path, segment_bytes=256) as wal:
            for i in range(8):
                wal.append_edges(*_batch(4, float(i)))
            assert wal.rotations > 0
        segments = list_segments(tmp_path)
        assert len(segments) == wal.rotations + 1
        lsns = [lsn for lsn, *_ in WriteAheadLog.replay(tmp_path)]
        assert lsns == sorted(lsns)
        assert len(lsns) == 8

    def test_group_commit_batches_fsyncs(self, tmp_path):
        with WriteAheadLog(tmp_path, group_commit=4) as eager:
            pass
        with WriteAheadLog(tmp_path, group_commit=4) as wal:
            for i in range(8):
                wal.append_edges(*_batch(2, float(i)))
            assert wal.fsyncs == 2  # one barrier per 4 appends

    def test_trim_before_drops_old_segments(self, tmp_path):
        with WriteAheadLog(tmp_path, segment_bytes=256) as wal:
            for i in range(8):
                wal.append_edges(*_batch(4, float(i)))
            keep = wal.position[0]
            wal.trim_before(keep)
        remaining = [seq for seq, _ in list_segments(tmp_path)]
        assert min(remaining) == keep
        # Replay of the surviving suffix still decodes cleanly.
        assert all(
            src.size == 4 for _lsn, src, _d, _t in WriteAheadLog.replay(
                tmp_path, start=(keep, 0)
            )
        )


class TestCrashRecovery:
    """The satellite property test: truncate at *every* byte offset."""

    def test_replay_at_every_truncation_offset(self, tmp_path):
        from repro.graph.edge_stream import EdgeStream
        from repro.streaming.batch import StreamingTeaEngine
        from repro.walks.apps import exponential_walk

        batches = [(3, 0.0), (6, 10.0), (2, 20.0), (5, 30.0)]
        _append_batches(tmp_path, batches)
        # What a never-crashed engine holding each durable prefix walks.
        spec = exponential_walk(scale=2.0)
        never_crashed = []
        for k in range(len(batches) + 1):
            engine = StreamingTeaEngine(spec)
            for n, t0 in batches[:k]:
                engine.apply_batch(EdgeStream(*_batch(n, t0)))
            never_crashed.append(
                [w.hops for w in engine.run_walks(range(4), 12, seed=3)])
        assert len(never_crashed[-1][0]) > 2
        (seq, path), = [
            (seq, p) for seq, p in list_segments(tmp_path)
        ]
        data = path.read_bytes()

        # Frame start offsets, from the replay's own accounting.
        frame_starts = [
            lsn[1] for lsn, _s, _d, _t in WriteAheadLog.replay(tmp_path)
        ]
        assert len(frame_starts) == len(batches)

        def durable_frames(cut: int) -> int:
            count = 0
            for off in frame_starts:
                if off + 8 > cut:
                    break
                length = struct.unpack_from("<I", data, off)[0]
                if off + 8 + length > cut:
                    break
                count += 1
            return count

        for cut in range(len(SEGMENT_MAGIC), len(data) + 1):
            path.write_bytes(data[:cut])
            want = durable_frames(cut)
            # A fresh writer open repairs the torn tail in place ...
            with WriteAheadLog(tmp_path) as wal:
                torn = wal.truncated_tail_bytes
            assert torn == cut - (
                frame_starts[want] if want < len(frame_starts) else cut
            )
            # ... and replay yields exactly the durable prefix.
            recovered = list(WriteAheadLog.replay(tmp_path))
            assert len(recovered) == want, f"cut={cut}"
            for (n, t0), (_lsn, src, _dst, times) in zip(batches, recovered):
                assert src.size == n and times[0] == t0
            # The engine, opened on the torn log itself, repairs it,
            # replays the durable prefix and walks bit-identically.
            path.write_bytes(data[:cut])
            with StreamingTeaEngine(spec, wal_dir=tmp_path) as engine:
                assert engine.recovered_batches == want, f"cut={cut}"
                assert [w.hops for w in engine.run_walks(range(4), 12, seed=3)
                        ] == never_crashed[want], f"cut={cut}"
        # Restore for any later assertions.
        path.write_bytes(data)

    def test_mid_log_corruption_raises(self, tmp_path):
        # Corruption in a non-last segment is *not* a repairable tear:
        # replay must refuse rather than silently drop durable records.
        with WriteAheadLog(tmp_path, segment_bytes=256) as wal:
            for i in range(8):
                wal.append_edges(*_batch(4, float(i)), sync=True)
        segments = list_segments(tmp_path)
        assert len(segments) > 1
        _seq, path = segments[0]
        data = bytearray(path.read_bytes())
        data[len(SEGMENT_MAGIC) + 12] ^= 0xFF  # payload byte of frame 0
        path.write_bytes(bytes(data))
        with pytest.raises(WalCorruptionError):
            list(WriteAheadLog.replay(tmp_path))
        report = scrub_wal(tmp_path)
        assert not report["clean"]
        assert report["corrupt"]

    def test_bad_frame_in_last_segment_is_a_tear(self, tmp_path):
        # In the last segment a CRC mismatch marks the tear point: the
        # suffix is discarded on reopen, the prefix survives.
        _append_batches(tmp_path, [(4, 0.0), (4, 10.0), (4, 20.0)])
        starts = [lsn[1] for lsn, *_ in WriteAheadLog.replay(tmp_path)]
        (_seq, path), = list_segments(tmp_path)
        data = bytearray(path.read_bytes())
        data[starts[1] + 12] ^= 0xFF
        path.write_bytes(bytes(data))
        recovered = list(WriteAheadLog.replay(tmp_path))
        assert len(recovered) == 1
        with WriteAheadLog(tmp_path) as wal:
            assert wal.truncated_tail_bytes == len(data) - starts[1]

    def test_scrub_clean_and_torn_tail(self, tmp_path):
        _append_batches(tmp_path, [(4, 0.0), (4, 10.0)])
        report = scrub_wal(tmp_path)
        assert report["clean"] and report["frames_checked"] == 2
        (_seq, path), = list_segments(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:-3])  # tear the tail
        report = scrub_wal(tmp_path)
        assert report["clean"]  # torn tail is repairable, not corruption
        assert report["torn_tail"] is not None


class TestCheckpoint:
    def _write(self, tmp_path, n=10, batches=(4, 6)):
        src, dst, times = _batch(n)
        sizes = np.asarray(batches, dtype=np.int64)
        return write_checkpoint(
            tmp_path, src, dst, times, sizes, epoch=len(batches),
            wal_position=(2, 128),
        )

    def test_roundtrip(self, tmp_path):
        manifest = self._write(tmp_path)
        assert load_manifest(tmp_path) == manifest
        loaded = load_checkpoint(tmp_path)
        assert loaded is not None
        got_manifest, src, dst, times, sizes = loaded
        assert got_manifest["epoch"] == 2
        assert got_manifest["wal"] == {"segment": 2, "offset": 128}
        assert src.size == 10 and sizes.tolist() == [4, 6]
        np.testing.assert_array_equal(times, np.arange(10, dtype=np.float64))

    def test_missing_is_none(self, tmp_path):
        assert load_manifest(tmp_path) is None
        assert load_checkpoint(tmp_path) is None
        assert verify_checkpoint(tmp_path) is None

    def test_corrupt_checkpoint_raises_and_scrubs(self, tmp_path):
        manifest = self._write(tmp_path)
        path = tmp_path / manifest["checkpoint"]
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ChecksumError):
            load_checkpoint(tmp_path)
        report = verify_checkpoint(tmp_path)
        assert report is not None and not report["ok"]
        full = scrub_wal(tmp_path)
        assert not full["clean"]
