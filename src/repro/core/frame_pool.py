"""Fixed-frame trunk pool — §4.1's re-entry reuse, held in flat arrays.

Paper §4.1: "each to-be-loaded data will use the prior loaded data
re-entry [1] to minimize the disk I/O" (CLIP's loaded-data reuse, ATC
'17). Random walks revisit hub trunks constantly, so keeping recently
loaded trunks resident converts most loads into hits.

:class:`FramePool` is that cache as one ``(frames, width)`` float64 slab
plus a handful of per-frame columns — no Python object per block, so a
whole frontier step is looked up, admitted and evicted in a constant
number of array passes. The policy is the scan-resistant **segmented
LRU** the per-block cache it replaced used (kept as
``tests/block_cache_oracle.py``): an admitted frame starts on
*probation*; a second touch makes it *protected*, and admissions only
ever displace probation frames, so one step's cold scan cannot flush
the hub trunks the walk keeps returning to. Recency is a per-frame
stamp; a batch is stamped in request order, which makes the pool agree
with the sequential oracle fed the same batches (lookups first, then
admissions). The slab is the byte budget.

:meth:`FramePool.touch` and :meth:`FramePool.admit` are the policy's
specification and the no-``cc`` path. Under the ``c`` kernel backend
:meth:`TrunkStore.read_batch <repro.core.outofcore.TrunkStore.read_batch>`
runs ``hop.c``'s ``pool_read`` / ``pool_admit`` instead, in place on the
same columns, with the same decisions, stamps and statistics (the
frames' order included: victims and demotions are taken oldest first).
Neither path is re-entrant: a pool has one caller at a time, which holds
because a store has one sampling thread (nothing reads ahead).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from repro.telemetry import events

#: Fraction of the frames the protected segment may occupy; the rest is
#: probation head-room for not-yet-promoted admissions (classic SLRU
#: sizing: hot reuse dominates without starving new trunks of a trial).
DEFAULT_PROTECTED_RATIO = 0.8

_ELEM_BYTES = 8


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    bytes_in: int = 0
    bytes_evicted: int = 0
    #: Logical bytes returned from cache hits — together with
    #: ``bytes_in`` this makes hit rate *by bytes* computable, not just
    #: by lookup count.
    bytes_served: int = 0
    #: Probation → protected promotions (second-touch admissions).
    promotions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def snapshot(self) -> dict:
        """Full-precision view; round at display time, not here."""
        return {**asdict(self), "hit_rate": self.hit_rate}

    def pretty(self) -> str:
        """Display rendering (the only place the hit rate is rounded)."""
        return (
            f"hits={self.hits} misses={self.misses} evictions={self.evictions} "
            f"bytes_in={self.bytes_in} bytes_evicted={self.bytes_evicted} "
            f"hit_rate={self.hit_rate:.4f}"
        )

    def publish(self, registry, prefix: str = "cache") -> None:
        """Report into a :class:`~repro.telemetry.MetricsRegistry`."""
        registry.counter(f"{prefix}.hits", "cache hits").inc(self.hits)
        registry.counter(f"{prefix}.misses", "cache misses").inc(self.misses)
        registry.counter(f"{prefix}.evictions", "cache evictions").inc(self.evictions)
        registry.counter(f"{prefix}.bytes_in", "bytes admitted").inc(self.bytes_in)
        registry.counter(f"{prefix}.bytes_evicted", "bytes evicted").inc(
            self.bytes_evicted
        )
        registry.counter(
            f"{prefix}.bytes_served", "logical bytes returned from hits"
        ).inc(self.bytes_served)
        registry.counter(
            f"{prefix}.promotions", "probation-to-protected promotions"
        ).inc(self.promotions)
        registry.gauge(f"{prefix}.hit_rate", "hits / (hits + misses)").set(
            self.hit_rate
        )


class FramePool:
    """Byte-budgeted SLRU pool of fixed-width float64 frames.

    Keys are non-negative int64s, unique within each call. The pool
    starts unsized: :meth:`set_width` fixes the frame width (in 8-byte
    elements) and allocates ``capacity_bytes // frame bytes`` frames —
    a budget below one frame, like ``capacity_bytes <= 0``, leaves
    every lookup a miss and every admission refused.

    Frames ``[0, used)`` are resident; a frame is only ever reused by
    the admission that evicts it, so ``used`` never shrinks outside
    :meth:`clear`. The key index is a sorted copy of the resident keys
    that each admission updates by one merge: O(frames) memory, never a
    Python object per block.
    """

    def __init__(self, capacity_bytes: int):
        self.capacity_bytes = int(capacity_bytes)
        self.stats = CacheStats()
        self.set_width(0)

    def set_width(self, width: int) -> None:
        """(Re)allocate an empty pool of ``width``-element frames."""
        self.width = int(width)
        self.frames = (
            max(self.capacity_bytes, 0) // (self.width * _ELEM_BYTES)
            if self.width > 0 else 0
        )
        # Never demote the last protected frame (the oracle's guard).
        self.protected_frames = max(
            int(self.capacity_bytes * DEFAULT_PROTECTED_RATIO)
            // max(self.width * _ELEM_BYTES, 1), 1)
        n = self.frames
        # np.empty: untouched frames never become resident pages.
        self.slab = np.empty((n, self.width), dtype=np.float64)
        self.key = np.zeros(n, dtype=np.int64)
        self.length = np.zeros(n, dtype=np.int64)  # logical payload bytes
        self.stamp = np.zeros(n, dtype=np.int64)
        self.protected = np.zeros(n, dtype=bool)
        # The key index: entries [0, used) are the resident keys, sorted.
        self._sorted_keys = np.zeros(n, dtype=np.int64)
        self._sorted_frames = np.zeros(n, dtype=np.int64)
        self.clear()

    def clear(self) -> None:
        self.used = 0
        self._clock = 0
        self.protected[:] = False

    @property
    def enabled(self) -> bool:
        return self.capacity_bytes > 0

    @property
    def nbytes(self) -> int:
        """Physical bytes of the resident frames (<= ``capacity_bytes``)."""
        return self.used * self.width * _ELEM_BYTES

    def index_nbytes(self) -> int:
        """Resident metadata: the per-frame columns and the key index."""
        return int(
            self.key.nbytes + self.length.nbytes + self.stamp.nbytes
            + self.protected.nbytes + 2 * self.used * _ELEM_BYTES
        )

    # -- lookups -------------------------------------------------------------

    def find(self, keys: np.ndarray) -> np.ndarray:
        """Frame of each key, ``-1`` where absent (a non-counting peek)."""
        if not self.used:
            return np.full(keys.shape, -1, dtype=np.int64)
        index = self._sorted_keys[: self.used]
        pos = np.minimum(np.searchsorted(index, keys), self.used - 1)
        return np.where(index[pos] == keys, self._sorted_frames[pos], -1)

    def touch(self, keys: np.ndarray) -> np.ndarray:
        """Counting lookup: frames of ``keys`` (``-1`` = miss).

        Hits are restamped in request order; a hit on a probation frame
        promotes it (protected overflow demotes its oldest frames back
        to probation's fresh end).
        """
        frames = self.find(keys)
        hit = frames[frames >= 0]
        stats = self.stats
        stats.hits += hit.size
        stats.misses += keys.size - hit.size
        if not hit.size:
            return frames
        stats.bytes_served += int(self.length[hit].sum())
        self.stamp[hit] = self._ticks(hit.size)
        fresh = hit[~self.protected[hit]]
        if fresh.size:
            self.protected[fresh] = True
            stats.promotions += fresh.size
            events.emit("cache.promoted", count=int(fresh.size),
                        nbytes=int(self.length[fresh].sum()))
            guarded = np.flatnonzero(self.protected[: self.used])
            over = guarded.size - self.protected_frames
            if over > 0:
                demoted = self._oldest(guarded, over)
                self.protected[demoted] = False
                self.stamp[demoted] = self._ticks(over)
        return frames

    # -- mutation ------------------------------------------------------------

    def admit(self, keys: np.ndarray, rows: np.ndarray,
              nbytes: np.ndarray) -> np.ndarray:
        """Admit ``rows[i]`` (``n <= width`` elements) under the ``i``-th
        key of ``keys``, row-major; returns the mask of rows admitted by
        this call. A 2-D ``keys`` is one range per row — a range's files,
        admitted or turned away together.

        Keys already resident are skipped (the store's payload is
        immutable, so the frame already holds these bytes). Victims are
        the oldest probation frames, reused oldest first after the free
        frames. Ranges that find no frames — more distinct misses than
        free and evictable frames — are the earliest ones, whole,
        exactly the ranges a sequence of single admissions would have
        displaced again, and are accounted the same way (admitted, then
        evicted).
        """
        files = keys.shape[1] if keys.ndim == 2 else 1
        keys = keys.ravel()
        admitted = np.zeros(keys.size, dtype=bool)
        if not self.frames or not keys.size:
            return admitted
        new = np.flatnonzero(self.find(keys) < 0)
        room = self.frames - self.used
        probation = np.flatnonzero(~self.protected[: self.used])
        turned = 0
        if new.size > room + probation.size:  # up to a range's end
            ranges = new // files
            turned = np.searchsorted(
                ranges, ranges[new.size - room - probation.size - 1], "right")
        take, turned_away = new[turned:], new[:turned]
        free = min(room, take.size)
        victims = (self._oldest(probation, take.size - free)
                   if take.size > free else np.zeros(0, dtype=np.int64))
        stats = self.stats
        stats.bytes_in += int(nbytes[new].sum())
        gone = victims.size + turned_away.size
        if gone:
            gone_bytes = int(self.length[victims].sum()
                             + nbytes[turned_away].sum())
            stats.evictions += gone
            stats.bytes_evicted += gone_bytes
            events.emit("cache.evicted", count=int(gone), nbytes=gone_bytes)
        if not take.size:
            return admitted
        used = self.used
        slots = np.concatenate(
            [np.arange(used, used + free, dtype=np.int64), victims])
        # The index follows in O(frames + batch), no re-sort: drop the
        # victims' keys, merge the newcomers in.
        stay = np.ones(used, dtype=bool)
        stay[np.searchsorted(self._sorted_keys[:used], self.key[victims])] = False
        order = np.argsort(keys[take])
        merged = self._sorted_keys[:used][stay]
        at = np.searchsorted(merged, keys[take][order])
        self._sorted_keys[: used + free] = np.insert(merged, at, keys[take][order])
        self._sorted_frames[: used + free] = np.insert(
            self._sorted_frames[:used][stay], at, slots[order])
        cols = min(rows.shape[1], self.width)  # past a row's length: padding
        self.slab[slots, :cols] = rows[take, :cols]
        self.key[slots] = keys[take]
        self.length[slots] = nbytes[take]
        self.stamp[slots] = self._ticks(take.size)
        self.protected[slots] = False
        self.used += free
        admitted[take] = True
        return admitted

    # -- internals -----------------------------------------------------------

    def _ticks(self, n: int) -> np.ndarray:
        """The next ``n`` recency stamps, ascending."""
        self._clock += n
        return np.arange(self._clock - n + 1, self._clock + 1, dtype=np.int64)

    def _oldest(self, frames: np.ndarray, k: int) -> np.ndarray:
        """The ``k`` least recently stamped of ``frames``, oldest first."""
        if k < frames.size:
            frames = frames[np.argpartition(self.stamp[frames], k - 1)[:k]]
        return frames[np.argsort(self.stamp[frames])]
