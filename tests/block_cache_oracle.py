"""Test oracle: the per-block SLRU cache ``core/frame_pool.py`` replaced.

This is ``src/repro/core/block_cache.py`` as it stood before the
out-of-core read path went columnar — an ``OrderedDict`` of ndarrays per
segment, one Python object per block — kept, like ``carry_oracle.py``,
because the old path is the reference the new one is tested against and
never a product option. ``tests/test_frame_pool.py`` feeds it and
:class:`~repro.core.frame_pool.FramePool` the same batches and compares
resident sets and statistics. Only the statistics dataclass is shared
with the pool; the policy code below is unchanged.

Policy recap: a byte-budgeted scan-resistant segmented LRU. New blocks
enter *probation*; a second touch promotes them to *protected*
(capped at ``protected_ratio`` of the budget, overflow demoted back to
probation's fresh end). Eviction takes the oldest unpinned probation
entry, else the oldest unpinned protected one; pinned entries are never
evicted and may push ``nbytes`` over the budget until unpinned.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Hashable, Optional

from repro.core.frame_pool import DEFAULT_PROTECTED_RATIO, CacheStats
from repro.telemetry import events


class _Entry:
    __slots__ = ("value", "nbytes", "pinned")

    def __init__(self, value, nbytes: int, pinned: bool = False):
        self.value = value
        self.nbytes = nbytes
        self.pinned = pinned


class BlockCache:
    """Byte-budgeted scan-resistant SLRU cache of numpy array blocks.

    Keys are arbitrary hashables (the stores use ``(region, lo, hi)``);
    values are loaded arrays or tuples of arrays, frozen read-only on
    admission. ``capacity_bytes <= 0`` disables caching entirely (every
    get misses, nothing is stored), which gives benchmarks a clean off
    switch.

    Pinned entries are never evicted; pinned bytes still count against
    the budget, so heavy pinning can transiently push ``nbytes`` above
    ``capacity_bytes`` until the pins are released (:meth:`unpin`
    re-runs eviction). ``on_evict(key)`` — when set — fires for every
    eviction, letting the prefetcher account warmed-but-unused blocks.
    """

    def __init__(
        self,
        capacity_bytes: int,
        protected_ratio: float = DEFAULT_PROTECTED_RATIO,
        on_evict: Optional[Callable[[Hashable], None]] = None,
    ):
        if not (0.0 < protected_ratio < 1.0):
            raise ValueError("protected_ratio must be in (0, 1)")
        self.capacity_bytes = int(capacity_bytes)
        self.protected_capacity = int(self.capacity_bytes * protected_ratio)
        self.on_evict = on_evict
        self._probation: "OrderedDict[Hashable, _Entry]" = OrderedDict()
        self._protected: "OrderedDict[Hashable, _Entry]" = OrderedDict()
        self._bytes = 0
        self._protected_bytes = 0
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._probation) + len(self._protected)

    def __contains__(self, key: Hashable) -> bool:
        """Non-counting peek (the prefetcher's already-resident check)."""
        return key in self._probation or key in self._protected

    @property
    def nbytes(self) -> int:
        return self._bytes

    @property
    def enabled(self) -> bool:
        return self.capacity_bytes > 0

    # -- lookups -------------------------------------------------------------

    def get(self, key: Hashable):
        if self.capacity_bytes <= 0:
            self.stats.misses += 1
            return None
        entry = self._protected.get(key)
        if entry is not None:
            self._protected.move_to_end(key)
            self.stats.hits += 1
            self.stats.bytes_served += entry.nbytes
            return entry.value
        entry = self._probation.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        # Second touch: promote out of probation. A one-pass scan only
        # ever populates probation, so it cannot displace this entry
        # again — that is the scan resistance.
        del self._probation[key]
        self._protected[key] = entry
        self._protected_bytes += entry.nbytes
        self.stats.promotions += 1
        events.emit("cache.promoted", key=str(key), nbytes=int(entry.nbytes))
        self._demote_overflow()
        self.stats.hits += 1
        self.stats.bytes_served += entry.nbytes
        return entry.value

    # -- mutation ------------------------------------------------------------

    @staticmethod
    def _nbytes(value) -> int:
        if isinstance(value, tuple):
            return int(sum(v.nbytes for v in value))
        return int(value.nbytes)

    @staticmethod
    def _freeze(value) -> None:
        """Make the admitted block(s) read-only. Callers receive the
        cached array itself on every hit, so a writable block would let
        one caller silently corrupt all future hits."""
        members = value if isinstance(value, tuple) else (value,)
        for arr in members:
            arr.setflags(write=False)

    def put(self, key: Hashable, value, pin: bool = False) -> None:
        """Store an array (or tuple of arrays) under ``key``.

        ``pin=True`` admits the entry pinned (prefetch in flight); it
        stays unevictable until :meth:`unpin`.
        """
        if not self.enabled:
            return
        nbytes = self._nbytes(value)
        if nbytes > self.capacity_bytes:
            return  # oversized blocks are not worth evicting everything for
        self._discard(key)
        self._freeze(value)
        self._probation[key] = _Entry(value, nbytes, pinned=pin)
        self._bytes += nbytes
        self.stats.bytes_in += nbytes
        self._evict_to_budget()

    def pin(self, key: Hashable) -> bool:
        entry = self._probation.get(key) or self._protected.get(key)
        if entry is None:
            return False
        entry.pinned = True
        return True

    def unpin(self, key: Hashable) -> bool:
        entry = self._probation.get(key) or self._protected.get(key)
        if entry is None:
            return False
        entry.pinned = False
        self._evict_to_budget()
        return True

    def clear(self) -> None:
        self._probation.clear()
        self._protected.clear()
        self._bytes = 0
        self._protected_bytes = 0

    # -- internals -----------------------------------------------------------

    def _discard(self, key: Hashable) -> None:
        """Silent removal (overwrite path): no eviction accounting."""
        entry = self._probation.pop(key, None)
        if entry is None:
            entry = self._protected.pop(key, None)
            if entry is not None:
                self._protected_bytes -= entry.nbytes
        if entry is not None:
            self._bytes -= entry.nbytes

    def _demote_overflow(self) -> None:
        """Shrink protected to its cap by demoting LRU entries back to
        probation's MRU end (SLRU's second chance — they are not
        evicted, just exposed to probation churn again)."""
        while self._protected_bytes > self.protected_capacity and len(self._protected) > 1:
            key, entry = self._protected.popitem(last=False)
            self._protected_bytes -= entry.nbytes
            self._probation[key] = entry

    def _evict_to_budget(self) -> None:
        while self._bytes > self.capacity_bytes:
            victim = self._pick_victim()
            if victim is None:
                return  # everything left is pinned: transient overflow
            segment, key = victim
            entry = segment.pop(key)
            self._bytes -= entry.nbytes
            if segment is self._protected:
                self._protected_bytes -= entry.nbytes
            self.stats.evictions += 1
            self.stats.bytes_evicted += entry.nbytes
            events.emit("cache.evicted", key=str(key), nbytes=int(entry.nbytes))
            if self.on_evict is not None:
                self.on_evict(key)

    def _pick_victim(self):
        """Oldest unpinned probation entry, else oldest unpinned
        protected entry, else None."""
        for segment in (self._probation, self._protected):
            for key, entry in segment.items():
                if not entry.pinned:
                    return segment, key
        return None
