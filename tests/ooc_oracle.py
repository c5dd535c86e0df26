"""Test oracle: the scalar out-of-core reader (the ``tea-ooc`` engine).

This is the one-lane-at-a-time path ``repro.core.outofcore`` and
``repro.engines.tea_outofcore`` shipped before the batched engine became
the only out-of-core reader: a walker step reads the C-slice trunk
holding its candidate boundary and the winning alias trunk, each as a
``read_batch`` of one, and draws with the scalar primitives of
``repro.sampling``. It is kept, like ``block_cache_oracle.py`` and
``carry_oracle.py``, because the old path is the reference the product
path is tested against and never a product option:
``tests/test_ooc_batch.py`` chi-squares both against Equation 3, and
``tests/test_outofcore.py`` holds :func:`sample` draw for draw to the
in-memory :class:`~repro.core.pat.PersistentAliasTable`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.outofcore import OutOfCorePAT, TrunkStore
from repro.engines.base import Engine
from repro.engines.tea_outofcore import (
    DEFAULT_OOC_TRUNK_SIZE,
    BatchTeaOutOfCoreEngine,
)
from repro.exceptions import EmptyCandidateSetError
from repro.sampling.alias import alias_draw
from repro.sampling.counters import CostCounters
from repro.sampling.prefix_sum import draw_in_range, its_search


def read_c(store: TrunkStore, lo: int, hi: int,
           counters: Optional[CostCounters]) -> np.ndarray:
    """Prefix sums ``[lo, hi)`` of the C region: a batch of one."""
    return store.read_batch("c", lo, hi, counters)[0][0]


def read_alias_trunk(store: TrunkStore, lo: int, hi: int,
                     counters: Optional[CostCounters]):
    """``(prob, alias)`` of the alias trunk ``[lo, hi)``: a batch of one."""
    payload = store.read_batch("pa", lo, hi, counters)[0]
    return payload[0, 0], payload[0, 1].view(np.int64)


def candidate_weight(index: OutOfCorePAT, v: int, candidate_size: int,
                     counters=None) -> float:
    """Total weight of the candidate prefix (may need one disk read)."""
    ts = int(index.trunk_sizes[v])
    if candidate_size % ts == 0:
        return float(index.tr_prefix[index.tr_indptr[v] + candidate_size // ts])
    lo, hi = index.c_trunks(v, candidate_size, ts)
    return float(read_c(index.store, lo, hi, counters)[candidate_size % ts])


def sample(index: OutOfCorePAT, v: int, candidate_size: int,
           rng: np.random.Generator,
           counters: Optional[CostCounters] = None) -> int:
    """Sample an edge index in ``[0, candidate_size)`` of vertex v.

    Mirrors :meth:`PersistentAliasTable.sample` draw for draw, with
    trunk payloads read (and accounted) from the store.
    """
    s = int(candidate_size)
    if s <= 0:
        raise EmptyCandidateSetError(f"vertex {v}: empty candidate set")
    if not 0 <= v < index.indptr.size - 1 or s > index.indptr[v + 1] - index.indptr[v]:
        raise IndexError(f"vertex {v}: candidate size {s} outside [1, degree]")
    ts = int(index.trunk_sizes[v])
    full, rem = divmod(s, ts)
    tb = index.tr_indptr[v]
    full_weight = float(index.tr_prefix[tb + full])
    total, c_trunk = full_weight, None
    if rem:
        # The candidate boundary falls inside the partial trunk: its
        # exact prefix weight lives on disk, in the trunk's C slice.
        c_trunk = read_c(index.store, *index.c_trunks(v, s, ts), counters)
        total = float(c_trunk[rem])
    if not (total > 0):
        raise EmptyCandidateSetError(f"vertex {v}: zero-weight candidate set")
    r = draw_in_range(rng, 0.0, total)
    if full and r <= full_weight:
        lo_j, hi_j = 0, full
        while hi_j - lo_j > 1:
            mid = (lo_j + hi_j) // 2
            if counters is not None:
                counters.record_probe()
            if index.tr_prefix[tb + mid] < r:
                lo_j = mid
            else:
                hi_j = mid
        trunk = lo_j
        edge_lo = int(index.indptr[v]) + trunk * ts
        prob, alias = read_alias_trunk(index.store, edge_lo, edge_lo + ts, counters)
        local = alias_draw(prob, alias, rng, 0, ts, counters)
        return trunk * ts + int(local)
    if counters is not None:
        counters.record_probe()
    return full * ts + its_search(c_trunk, r, 0, rem, counters)


class TeaOutOfCoreEngine(Engine):
    """PAT sampling against a :class:`TrunkStore` on disk, one synchronous
    trunk read per walker step, on the scalar walk loop.

    The index is the batched engine's own build (same candidate search,
    PAT and spill), so the two differ only in how they read it.
    """

    has_candidate_index = True
    name = "tea-ooc"

    def __init__(self, graph, spec, trunk_size: int = DEFAULT_OOC_TRUNK_SIZE,
                 storage_dir: Optional[str] = None, cache_bytes: int = 0,
                 retry_policy=None, verify_checksums: bool = False,
                 fault_injector=None):
        super().__init__(graph, spec)
        self.trunk_size = int(trunk_size)
        self._build = BatchTeaOutOfCoreEngine(
            graph, spec, trunk_size=trunk_size, storage_dir=storage_dir,
            cache_bytes=cache_bytes, retry_policy=retry_policy,
            verify_checksums=verify_checksums, fault_injector=fault_injector)
        self.index: Optional[OutOfCorePAT] = None

    def _prepare(self) -> None:
        self._build.recorder = self.recorder
        self._build.prepare()
        self.index = self._build.index
        self.candidate_sizes = self._build.candidate_sizes
        # Store reads charge their ooc.* phases to the engine profiler.
        self.index.store.profiler = self.profiler

    @property
    def cache_stats(self):
        self.prepare()
        return self.index.store.cache.stats

    def publish_telemetry(self, registry) -> None:
        self.index.store.publish_telemetry(registry)

    def memory_report(self):
        report = super().memory_report()
        if self.index is not None:
            report.add("resident_trunk_prefix", self.index.resident_nbytes())
            if self.index.store.cache.enabled:
                report.add("reentry_cache", self.index.store.cache.nbytes)
        return report

    def sample_edge(self, v, candidate_size, walker_time, rng, counters):
        return sample(self.index, v, candidate_size, rng, counters)
