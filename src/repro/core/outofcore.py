"""Out-of-core PAT execution (paper Sections 3.2, 4.1, Figure 14).

When the index cannot fit in memory TEA falls back from HPAT to the
smaller PAT and keeps only the *trunk-granularity* prefix sums resident
(size |E| / trunkSize); the per-trunk alias tables and per-edge prefix
sums live on disk and are loaded per sampling step:

* candidate boundary inside a trunk → load that trunk's slice of the
  per-edge prefix-sum array (the candidate total, and the ITS when the
  draw lands in this partial trunk, both come out of it);
* complete trunk selected → load that trunk's alias table
  (O(trunkSize) bytes of I/O).

Either way a step reads O(trunkSize) bytes — versus GraphWalker's O(D)
(it must load the vertex's whole neighbor list to rebuild the dynamic
distribution). That I/O asymmetry is the entire story of Figure 14.

:class:`TrunkStore` persists a built PAT to three flat binary files and
reopens them as memory-maps; loaded trunks are kept for re-entry in a
:class:`~repro.core.frame_pool.FramePool`, and every backing read is
accounted through :class:`~repro.sampling.counters.CostCounters` in I/O
blocks so the benchmark reports a machine-independent I/O volume
alongside wall time.
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.core.frame_pool import FramePool
from repro.core.pat import PersistentAliasTable
from repro.exceptions import ChecksumError
from repro.sampling.counters import BLOCK_BYTES, CostCounters
from repro.telemetry import BYTES_BUCKETS, NULL_PROFILER, Histogram, events

PathLike = Union[str, os.PathLike]

#: Logical bytes per entry of each store region: per-edge prefix sums
#: ("c", one float64) and alias-table trunks ("pa", prob + alias).
_REGION_WIDTH = {"c": 8, "pa": 16}

#: Elements (all store files use 8-byte elements) per checksum page:
#: 1024 elements = 8 KiB pages, fine-grained enough to localise a
#: corrupt trunk, coarse enough that the manifest stays tiny.
CHECKSUM_PAGE_ELEMS = 1024

#: Bytes per element of every store file (float64 / int64 throughout).
_ELEM_BYTES = 8

_CHECKSUM_MANIFEST = "checksums.json"

#: Files backing each logical region, in slice order, and the low key
#: bits that tell their pool frames apart.
_REGION_FILES = {"c": ("c",), "pa": ("prob", "alias")}
_FILE_TAGS = {"c": np.array([0]), "pa": np.array([1, 2])}


def _crc_pages(data: bytes, page_bytes: int) -> np.ndarray:
    """CRC32 of each fixed-size page of ``data`` (last page may be short)."""
    view = memoryview(data)
    n = (len(view) + page_bytes - 1) // page_bytes
    out = np.empty(max(n, 0), dtype=np.uint32)
    for k in range(n):
        out[k] = zlib.crc32(view[k * page_bytes : (k + 1) * page_bytes])
    return out


#: Bits of a pool key holding a range's length; ranges are trunk-sized
#: by contract, so a longer one is a caller bug, not a cache miss.
_KEY_LEN_BITS = 20


def coalesce_runs(los: np.ndarray, his: np.ndarray):
    """Merge lo-ascending ``[lo, hi)`` ranges into maximal backing runs.

    Overlapping or exactly adjacent ranges (``next.lo <= run.hi``) join
    the current run. Returns ``(first, run_lo, run_hi)`` arrays, one
    entry per run: ``first`` is the row of the run's first member (rows
    ``first[k] .. first[k+1]-1`` belong to run ``k``) and each run is
    one backing read whose span covers every member range.
    """
    if not los.size:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty
    reach = np.maximum.accumulate(his)
    starts = np.ones(los.size, dtype=bool)
    starts[1:] = los[1:] > reach[:-1]
    first = np.flatnonzero(starts)
    return first, los[first], reach[np.append(first[1:] - 1, los.size - 1)]


def _observe_values(hist, values: np.ndarray) -> None:
    """One batched histogram update: a fold per *distinct* value."""
    distinct, counts = values, np.ones(1, dtype=np.int64)
    if values.size > 1:  # a batch of one is its own dedupe
        distinct, counts = np.unique(values, return_counts=True)
    for value, n in zip(distinct.tolist(), counts.tolist()):
        hist.observe_n(value, n)


class TrunkStore:
    """Disk-resident PAT payload: per-edge prefix sums + alias arrays.

    ``persist`` writes ``c.bin``, ``prob.bin`` and ``alias.bin`` into a
    directory; ``open`` maps them read-only. The maps are accessed only in
    trunk-sized ranges by :class:`OutOfCorePAT`, which accounts each
    access as disk I/O.

    There is one read path, :meth:`read_batch`: a whole frontier step's
    ranges are deduplicated, looked up in the :class:`FramePool`
    (``cache``), and the misses — sorted, so adjacent/overlapping ranges
    **coalesce** into single backing runs — are gathered from the maps
    in one fancy-index pass per file and admitted. Nothing is read
    ahead of the step that needs it (paper §4.1 has no read-ahead).

    Pool frames are ``max trunk + 1`` elements wide — one C-slice trunk
    (``trunk + 1`` prefix sums), or one *file* of an alias trunk: its
    prob row and its alias row (int64 bits) take a frame each, admitted
    side by side, and the trunk is a hit when both are resident.
    ``persist`` records the PAT's widest trunk in the manifest; a store
    persisted without it sizes its pool from the first batch it serves.
    Wider ranges, and every range when ``cache_bytes`` is below one
    frame, bypass the pool and are served from the gather itself.
    """

    #: Always 0: the store reads nothing ahead. These four names remain
    #: only because the end-to-end benchmark's instrument
    #: (``bench_e2e/ooc_exp.py``, which changes only with the benchmark
    #: itself) still reads them.
    prefetch_hits = prefetch_issued = prefetch_wasted = 0
    prefetch_overlap_seconds = 0

    def __init__(self, directory: PathLike, cache_bytes: int = 0,
                 retry_policy=None, verify_checksums: bool = False,
                 fault_injector=None):
        self.directory = Path(directory)
        self._c: Optional[np.ndarray] = None
        self._prob: Optional[np.ndarray] = None
        self._alias: Optional[np.ndarray] = None
        #: Resilience wiring (see :mod:`repro.resilience`): transient
        #: read failures retry under ``retry_policy``; when
        #: ``verify_checksums`` every load is page-CRC-verified against
        #: the persisted manifest; ``fault_injector`` hooks the
        #: ``trunk_read`` site into every backing run.
        self.retry_policy = retry_policy
        self.verify_checksums = bool(verify_checksums)
        self.fault_injector = fault_injector
        self.io_retries = 0
        self._retry_lock = threading.Lock()
        self._crc: Optional[dict] = None
        self._page_elems = CHECKSUM_PAGE_ELEMS
        # Paper §4.1's re-entry optimisation: reuse prior loaded data.
        self.cache = FramePool(cache_bytes)
        # Phase attribution (ooc.cache / ooc.read / ooc.decode): NULL by
        # default; the owning engine's frontier loop routes the profiler
        # it was handed here (_frontier_scope), the one way in.
        self.profiler = NULL_PROFILER
        # Standalone histogram of bytes per trunk load (cache misses
        # only); merged into a run's registry by publish_telemetry.
        self.read_bytes_hist = Histogram(
            "ooc.trunk_read_bytes", "bytes per trunk payload load", **BYTES_BUCKETS
        )
        # Bytes per *backing* run after coalescing.
        self.coalesced_hist = Histogram(
            "ooc.coalesced_read_bytes", "bytes per coalesced backing read",
            **BYTES_BUCKETS,
        )
        #: Backing-store read operations (coalesced runs). The coalescing
        #: win is this number shrinking, not io_bytes.
        self.read_ops = 0

    @classmethod
    def persist(cls, pat: PersistentAliasTable, directory: PathLike,
                cache_bytes: int = 0, **kwargs) -> "TrunkStore":
        store = cls(directory, cache_bytes=cache_bytes, **kwargs)
        store.directory.mkdir(parents=True, exist_ok=True)
        page_bytes = CHECKSUM_PAGE_ELEMS * _ELEM_BYTES
        manifest = {
            "version": 1,
            "algorithm": "crc32",
            "page_elems": CHECKSUM_PAGE_ELEMS,
            "max_trunk": int(pat.trunk_sizes.max(initial=1)),
            "files": {},
        }
        arrays = {
            "c": pat.c.astype(np.float64),
            "prob": pat.prob.astype(np.float64),
            "alias": pat.alias.astype(np.int64),
        }
        for name, arr in arrays.items():
            arr.tofile(store.directory / f"{name}.bin")
            # Per-page CRC32 sidecar: the integrity ground truth that
            # verified reads and ``repro scrub`` check against.
            _crc_pages(arr.tobytes(), page_bytes).tofile(
                store.directory / f"{name}.crc"
            )
            manifest["files"][name] = int(arr.size)
        (store.directory / _CHECKSUM_MANIFEST).write_text(json.dumps(manifest))
        return store

    def open(self) -> "TrunkStore":
        # Plain ndarray views of the maps: the gathers below index them
        # with fancy indices, which np.memmap would route through its
        # Python-level subclass hooks. The view keeps the map alive.
        self._c, self._prob, self._alias = (
            np.asarray(np.memmap(self.directory / f"{name}.bin", dtype=dtype, mode="r"))
            for name, dtype in (("c", np.float64), ("prob", np.float64),
                                ("alias", np.int64))
        )
        manifest_path = self.directory / _CHECKSUM_MANIFEST
        if manifest_path.exists():
            manifest = json.loads(manifest_path.read_text())
            self._page_elems = int(manifest.get("page_elems", CHECKSUM_PAGE_ELEMS))
            if "max_trunk" in manifest and not self.cache.width:
                self.cache.set_width(int(manifest["max_trunk"]) + 1)
            self._crc = {
                name: np.fromfile(self.directory / f"{name}.crc", dtype=np.uint32)
                for name in ("c", "prob", "alias")
                if (self.directory / f"{name}.crc").exists()
            }
        if self.verify_checksums and not self._crc:
            raise ChecksumError(
                f"checksum verification requested but {self.directory} has "
                f"no checksum manifest (store persisted by an older version?)",
                path=manifest_path,
            )
        return self

    def close(self) -> None:
        self._c = self._prob = self._alias = None

    def __enter__(self) -> "TrunkStore":
        return self.open()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- backing loads ---------------------------------------------------------

    def _region_maps(self, region: str):
        return (self._c,) if region == "c" else (self._prob, self._alias)

    def _fetch(self, region: str, los: np.ndarray, lens: np.ndarray):
        """Gather lo-ascending ranges from the maps, one run at a time
        as far as the backing store is concerned: ``(staging,
        run_bytes)``. No accounting and no pool access.

        Resilience wiring: the ``trunk_read`` fault site fires once per
        backing run; transient failures (including injected
        ``io_error`` faults) retry the whole gather under
        :attr:`retry_policy`; when :attr:`verify_checksums` is set every
        distinct CRC page under the ranges is checked once, before its
        bytes are served, raising :class:`ChecksumError` on mismatch.
        """
        first, run_lo, run_hi = coalesce_runs(los, los + lens)
        if self.retry_policy is None:
            staging = self._gather(region, los, lens, first)
        else:
            staging = self.retry_policy.call(
                self._gather, region, los, lens, first,
                on_retry=self._on_io_retry,
            )
        return staging, (run_hi - run_lo) * _REGION_WIDTH[region]

    def _on_io_retry(self, attempt: int, exc: BaseException) -> None:
        with self._retry_lock:
            self.io_retries += 1
        events.emit("io.retry", site="trunk_read", attempt=int(attempt),
                    error=type(exc).__name__)

    def _gather(self, region: str, los, lens, first) -> np.ndarray:
        """``(ranges, files, widest)`` float64 staging matrix: row ``i``
        holds ``[los[i], los[i] + lens[i])`` of each region file (alias
        indices as their int64 bits), padded by repeating its last
        element — an owned copy that stays valid after :meth:`close`."""
        tokens = ()
        if self.fault_injector is not None:
            tokens = [self.fault_injector.check("trunk_read") for _ in first]
        idx = los[:, None] + np.minimum(np.arange(lens.max()), lens[:, None] - 1)
        names = _REGION_FILES[region]
        out = np.empty((los.size, len(names)) + idx.shape[1:], dtype=np.float64)
        for plane, (name, mm) in enumerate(zip(names, self._region_maps(region))):
            if self.verify_checksums:
                got = self._gather_verified(name, mm, idx, first, tokens)
            else:
                got = mm[idx]
                self._corrupt(got, first, lens[first], tokens)
            out[:, plane] = got.view(np.float64)
            tokens = ()  # injected corruption lands on the first file only
        return out

    @staticmethod
    def _corrupt(buf: np.ndarray, rows, valid, tokens) -> None:
        """Flip the bit each fired ``corrupt_block`` token addresses,
        inside the valid prefix of its run's first row of ``buf``."""
        raw = buf.view(np.uint8)
        for row, n, token in zip(rows, valid, tokens):
            if token is not None:
                raw[row, token % (int(n) * _ELEM_BYTES)] ^= np.uint8(1 << (token % 8))

    def _gather_verified(self, name: str, mm, idx, first, tokens) -> np.ndarray:
        """Serve ``mm[idx]`` out of whole, CRC-checked pages. Injected
        corruption lands on the loaded pages *before* verification,
        which is exactly how real bit rot between persist and read
        presents."""
        page = self._page_elems
        pages, where = np.unique((idx // page).ravel(), return_inverse=True)
        where = where.reshape(idx.shape)
        valid = np.minimum(page, mm.size - pages * page)
        buf = mm[np.minimum(pages[:, None] * page + np.arange(page), mm.size - 1)]
        rows = where[first, 0]
        self._corrupt(buf, rows, valid[rows], tokens)
        crc = (self._crc or {}).get(name)
        path = self.directory / f"{name}.bin"
        if crc is None:
            raise ChecksumError(f"no checksum sidecar for {path}", path=path)
        for k, number in enumerate(pages.tolist()):
            actual = zlib.crc32(buf[k, : valid[k]].tobytes())
            expected = int(crc[number])
            if actual != expected:
                raise ChecksumError(
                    f"checksum mismatch in {path} page {number} "
                    f"(expected {expected:#010x}, got {actual:#010x})",
                    path=path, page=number, expected=expected, actual=actual,
                )
        return buf[where, idx % page]

    def scrub(self) -> dict:
        """Verify every page of every store file against the manifest.

        Returns a report dict with ``pages_checked``, ``corrupt`` (a
        list of ``{file, page, offset_bytes, expected, actual}``
        records), and ``clean``. Raises :class:`ChecksumError` only
        when the store has no checksum manifest at all — page
        mismatches are *reported*, not raised, so one scrub pass
        locates every corrupt page.
        """
        opened_here = self._c is None
        if opened_here:
            self.open()
        try:
            if not self._crc:
                raise ChecksumError(
                    f"{self.directory} has no checksum manifest to scrub "
                    f"against", path=self.directory / _CHECKSUM_MANIFEST,
                )
            page_bytes = self._page_elems * _ELEM_BYTES
            report = {"directory": str(self.directory), "pages_checked": 0,
                      "corrupt": [], "clean": True}
            for name in ("c", "prob", "alias"):
                mm = {"c": self._c, "prob": self._prob, "alias": self._alias}[name]
                crc = self._crc.get(name)
                if crc is None:
                    report["corrupt"].append(
                        {"file": f"{name}.bin", "page": None,
                         "reason": "missing checksum sidecar"}
                    )
                    continue
                actual = _crc_pages(np.asarray(mm).tobytes(), page_bytes)
                report["pages_checked"] += int(actual.size)
                if actual.size != crc.size:
                    # A truncated (or grown) file is corruption too.
                    report["corrupt"].append(
                        {"file": f"{name}.bin", "page": None,
                         "reason": f"page count {actual.size} != "
                                   f"manifest {crc.size} (truncated file?)"}
                    )
                n = min(actual.size, crc.size)
                for page in np.flatnonzero(actual[:n] != crc[:n]):
                    report["corrupt"].append({
                        "file": f"{name}.bin",
                        "page": int(page),
                        "offset_bytes": int(page) * page_bytes,
                        "expected": int(crc[page]),
                        "actual": int(actual[page]),
                    })
            report["clean"] = not report["corrupt"]
            return report
        finally:
            if opened_here:
                self.close()

    # -- accounted reads ------------------------------------------------------

    def frame_keys(self, region: str, los: np.ndarray, lens: np.ndarray) -> np.ndarray:
        """``(ranges, files)`` pool keys of ``[lo, lo + len)`` ranges: one
        frame per region file, ``(lo, len, file)`` packed into one int64,
        so sorting keys sorts by ``lo``. Bounds are checked here, once,
        before anything indexes the maps."""
        size = self._region_maps(region)[0].size
        # lo >= 0, 1 <= len < 2^bits, lo + len <= size: each term is
        # negative exactly when its bound is broken, and so is their OR.
        if ((los | (lens - 1) | (size - los - lens)
             | ((1 << _KEY_LEN_BITS) - 1 - lens)) < 0).any():
            raise IndexError(
                f"range outside region {region!r} of {size} elements "
                f"(or longer than {1 << _KEY_LEN_BITS})"
            )
        return ((los << _KEY_LEN_BITS | lens) << 2)[:, None] | _FILE_TAGS[region]

    def frame_entries(self, widest: int) -> int:
        """Elements one pool frame holds. A store persisted without its
        trunk width sizes the pool from the first batch it serves."""
        if not self.cache.width:
            self.cache.set_width(widest + 1)
        return self.cache.width

    def _account_runs(self, run_bytes: np.ndarray,
                      counters: Optional[CostCounters]) -> None:
        if counters is not None:
            counters.io_bytes += int(run_bytes.sum())
            counters.io_blocks += int((-(-run_bytes // BLOCK_BYTES)).sum())
        self.read_ops += run_bytes.size
        _observe_values(self.coalesced_hist, run_bytes)

    def read_batch(self, region: str, los, his,
                   counters: Optional[CostCounters]):
        """Serve a whole frontier step's ranges in one accounted pass.

        Duplicate ranges collapse to one lookup; misses are **coalesced**
        — overlapping or exactly adjacent ``[lo, hi)`` ranges are one
        backing run spanning their union — so a step needing k ranges
        costs at most k (and typically far fewer) read operations.
        Returns ``(payload, lengths, inverse)``: range ``i`` is
        ``payload[inverse[i], ..., :lengths[inverse[i]]]`` — a read-only
        matrix with one row per distinct range, shaped ``(rows, widest)``
        for ``"c"`` and ``(rows, 2, widest)`` (prob, alias bits) for
        ``"pa"``; columns past a row's length are padding.
        """
        los = np.asarray(los, dtype=np.int64).ravel()
        lens = np.asarray(his, dtype=np.int64).ravel() - los
        pool = self.cache
        files = len(_REGION_FILES[region])
        if not los.size:
            empty = np.zeros((0, files, 0))
            return (empty[:, 0] if files == 1 else empty), lens, lens
        profiler = self.profiler
        with profiler.phase("ooc.cache"):
            keys = self.frame_keys(region, los, lens)
            inverse = np.zeros(1, dtype=np.int64)
            if los.size > 1:  # a batch of one is its own dedupe
                _, first, inverse = np.unique(
                    keys[:, 0], return_index=True, return_inverse=True)
                keys, los, lens = keys[first], los[first], lens[first]
            widest = int(lens.max())
            fits = lens <= self.frame_entries(widest)
            frames = pool.touch(np.where(fits[:, None], keys, -1).ravel())
            frames = frames.reshape(keys.shape)
            hit = (frames >= 0).all(axis=1)  # every file's frame resident
            payload = np.empty((los.size, files, widest), dtype=np.float64)
            span = min(widest, pool.width)
            payload[hit, :, :span] = pool.slab[frames[hit], :span]
        if not hit.all():
            miss = np.flatnonzero(~hit)
            with profiler.phase("ooc.read"):
                staging, run_bytes = self._fetch(region, los[miss], lens[miss])
            with profiler.phase("ooc.decode"):
                self._account_runs(run_bytes, counters)
                _observe_values(self.read_bytes_hist,
                                lens[miss] * _REGION_WIDTH[region])
                payload[miss, :, : staging.shape[2]] = staging
                keep = miss[fits[miss]]
                self._admit(keys[keep], lens[keep], staging[fits[miss]])
        payload.setflags(write=False)
        return (payload[:, 0] if files == 1 else payload), lens, inverse

    def _admit(self, keys, lens, staging) -> None:
        """Admit ``(ranges, files, n)`` staging rows, one frame per file,
        a range's frames side by side (so a pool too full for the batch
        turns whole ranges away, not their halves)."""
        self.cache.admit(
            keys.ravel(), staging.reshape(keys.size, staging.shape[2]),
            np.repeat(lens * _ELEM_BYTES, keys.shape[1]))

    def publish_telemetry(self, registry) -> None:
        """Cache hit/miss/bytes counters plus the trunk-load histogram."""
        self.cache.stats.publish(registry, prefix="cache")
        registry.gauge("cache.resident_bytes", "bytes held by the cache").set(
            self.cache.nbytes
        )
        registry.counter(
            "ooc.read_ops", "backing reads (coalesced cache-miss runs)"
        ).inc(self.read_ops)
        for hist in (self.read_bytes_hist, self.coalesced_hist):
            registry.histogram(hist.name, hist.help, **BYTES_BUCKETS).merge_from(hist)
        if self.io_retries:
            registry.counter(
                "resilience.io_retries",
                "transient trunk-store read failures retried",
            ).inc(self.io_retries)
        if self.fault_injector is not None:
            self.fault_injector.publish(registry)


def scrub_store(directory: PathLike) -> dict:
    """Integrity-scan a persisted trunk store (the ``repro scrub`` core).

    Opens the store read-only, verifies every page of every region file
    against the persisted CRC32 manifest, and returns the report dict
    of :meth:`TrunkStore.scrub`.
    """
    return TrunkStore(directory).scrub()


class OutOfCorePAT:
    """PAT sampling with trunk payloads on disk.

    Memory-resident state is exactly what the paper keeps: per-vertex
    trunk sizes and the prefix sums *at trunk boundaries*
    (|E|/trunkSize + |V| floats); the sampler that reads it is
    :func:`repro.engines.tea_outofcore.batch.ooc_sample_batch`.

    The unit read from disk is the paper's: a whole trunk. A step reads
    at most the **C-slice trunk** holding its candidate boundary
    (prefix sums ``C[k·ts .. min((k+1)·ts, d)]`` of trunk ``k = s // ts``:
    the candidate total *and* the partial-trunk ITS come out of it) and
    the winning complete trunk's **alias trunk**.
    """

    __slots__ = ("indptr", "trunk_sizes", "tr_indptr", "tr_prefix", "store")

    def __init__(self, pat: PersistentAliasTable, store: TrunkStore):
        self.indptr = pat.indptr
        self.trunk_sizes = pat.trunk_sizes
        self.store = store
        # Trunk-boundary prefix sums, flat per vertex: vertex v has
        # nt_v = ceil(d/ts) + 1 boundary values (0, C[ts], C[2ts], ..., C[d]).
        n = self.indptr.size - 1
        degrees = np.diff(self.indptr)
        nt = np.zeros(n, dtype=np.int64)
        nz = degrees > 0
        nt[nz] = -(-degrees[nz] // self.trunk_sizes[nz]) + 1
        self.tr_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(nt, out=self.tr_indptr[1:])
        # Boundary j of vertex v sits at C-layout position
        # indptr[v] + v + min(j·ts, d): one position array, one gather.
        k = np.arange(self.tr_indptr[-1]) - np.repeat(self.tr_indptr[:-1], nt)
        bounds = np.minimum(k * np.repeat(self.trunk_sizes, nt), np.repeat(degrees, nt))
        self.tr_prefix = pat.c[
            np.repeat(self.indptr[:-1] + np.arange(n), nt) + bounds
        ].astype(np.float64, copy=False)

    def resident_nbytes(self) -> int:
        """Bytes held in memory (what Figure 14's 16 GB budget constrains):
        the boundary prefix sums plus the pool's index columns (the pool
        slab itself is the ``cache_bytes`` budget, reported apart)."""
        return int(
            self.tr_prefix.nbytes
            + self.tr_indptr.nbytes
            + self.trunk_sizes.nbytes
            + self.indptr.nbytes
            + self.store.cache.index_nbytes()
        )

    def check_lanes(self, vs: np.ndarray, ss: np.ndarray) -> None:
        """``0 <= v < V`` and ``1 <= s <= deg(v)`` for every lane, once
        per call and before any key or offset is computed: numpy wraps
        a negative index silently, and a wrapped index is a wrong walk,
        not a crash."""
        if not vs.size:
            return
        if vs.min() < 0 or vs.max() >= self.indptr.size - 1:
            raise IndexError(
                f"vertex outside [0, {self.indptr.size - 1}) in a sampling batch")
        if ss.min() < 1 or (ss > self.indptr[vs + 1] - self.indptr[vs]).any():
            raise IndexError("candidate size outside [1, degree] in a sampling batch")

    def c_trunks(self, vs, ss, ts):
        """``[lo, hi)`` of the C-slice trunk holding boundary ``ss`` of
        each ``vs`` (trunk ``ss // ts``), in C-layout positions."""
        base = self.indptr[vs] + vs
        start = ss // ts * ts
        degrees = self.indptr[vs + 1] - self.indptr[vs]
        return base + start, base + np.minimum(start + ts, degrees) + 1
