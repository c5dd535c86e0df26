"""TEA's out-of-core mode: PAT with disk-resident trunks (Section 4.1).

When HPAT exceeds memory TEA falls back to PAT, keeps only the
trunk-boundary prefix sums resident, and loads exactly one trunk's
payload per sampling step — O(trunkSize) bytes of I/O versus
GraphWalker's O(D). The workflow mirrors GraphWalker's out-of-core loop
otherwise (the paper reuses its walk-update strategy), so the Figure 14
comparison isolates the per-step I/O volume.

``trunk_size`` defaults to the paper's memory-limited rule: small and
fixed (10 for twitter under 16 GB) so the resident prefix array is
|E| / trunkSize entries.
"""

from __future__ import annotations

import tempfile
from typing import Optional

from repro.core.builder import build_pat, search_candidate_sets
from repro.core.outofcore import OutOfCorePAT, TrunkStore
from repro.engines.base import Engine
from repro.graph.temporal_graph import TemporalGraph
from repro.telemetry import MemoryReport
from repro.walks.spec import WalkSpec

DEFAULT_OOC_TRUNK_SIZE = 10


def build_ooc_index(graph, spec, trunk_size, storage_dir, cache_bytes, tracer,
                    retry_policy=None, verify_checksums=False,
                    fault_injector=None):
    """Build and spill the PAT, returning the disk-backed index.

    The shared preparation path of both out-of-core engines (scalar and
    batched): candidate search, weights, PAT build, trunk spill to
    ``storage_dir`` (a fresh temporary directory when ``None``). Returns
    ``(index, candidate_sizes, tmpdir)`` — ``tmpdir`` is the owning
    :class:`tempfile.TemporaryDirectory` handle or ``None``, which the
    engine must keep alive for the store's lifetime.

    ``retry_policy`` / ``verify_checksums`` / ``fault_injector`` wire
    the resilience layer into the store's read path (see
    :mod:`repro.resilience`); persist always writes the per-page CRC32
    manifest, so verification is a pure read-side choice.
    """
    with tracer.span("prepare.candidate_search"):
        candidate_sizes = search_candidate_sets(graph)
    with tracer.span("prepare.weights"):
        weights = spec.weight_model.compute(graph)
    with tracer.span("prepare.index_build", structure="pat",
                     trunk_size=trunk_size):
        pat = build_pat(graph, weights, trunk_size=trunk_size)
    tmpdir = None
    directory = storage_dir
    if directory is None:
        tmpdir = tempfile.TemporaryDirectory(prefix="tea-ooc-")
        directory = tmpdir.name
    with tracer.span("prepare.trunk_spill", cache_bytes=cache_bytes):
        store = TrunkStore.persist(
            pat, directory, cache_bytes=cache_bytes,
            retry_policy=retry_policy, verify_checksums=verify_checksums,
            fault_injector=fault_injector,
        ).open()
        index = OutOfCorePAT(pat, store)
    # The full PAT arrays are now disk-resident; the in-memory copy dies
    # with this frame.
    return index, candidate_sizes, tmpdir


class OutOfCoreReporting:
    """What both out-of-core engines report about their disk-backed
    index (``self.index``): cache statistics, store telemetry and the
    resident footprint. Mixed in ahead of the engine base class."""

    @property
    def cache_stats(self):
        """Re-entry cache hit/miss statistics (paper §4.1's optimisation)."""
        self.prepare()
        return self.index.store.cache.stats

    def publish_telemetry(self, registry) -> None:
        """Cache + prefetch + coalescing counters, resident footprint."""
        super().publish_telemetry(registry)
        self.index.store.publish_telemetry(registry)
        registry.gauge(
            "ooc.resident_bytes", "memory-resident trunk-boundary prefix bytes"
        ).set(self.index.resident_nbytes())
        registry.gauge("ooc.trunk_size", "configured trunk size").set(
            self.trunk_size
        )

    def memory_report(self) -> MemoryReport:
        # Engine's report, not BatchTeaEngine's HPAT breakdown: the index
        # here is the disk-backed PAT, whose resident side is the
        # boundary prefixes (plus the pool, when there is one).
        report = Engine.memory_report(self)
        if self.index is not None:
            report.add("resident_trunk_prefix", self.index.resident_nbytes())
            if self.index.store.cache.enabled:
                report.add("reentry_cache", self.index.store.cache.nbytes)
        return report


class TeaOutOfCoreEngine(OutOfCoreReporting, Engine):
    """PAT sampling against a :class:`TrunkStore` on disk."""

    has_candidate_index = True
    name = "tea-ooc"

    def __init__(
        self,
        graph: TemporalGraph,
        spec: WalkSpec,
        trunk_size: int = DEFAULT_OOC_TRUNK_SIZE,
        storage_dir: Optional[str] = None,
        cache_bytes: int = 0,
        retry_policy=None,
        verify_checksums: bool = False,
        fault_injector=None,
    ):
        super().__init__(graph, spec)
        self.trunk_size = int(trunk_size)
        self._storage_dir = storage_dir
        self._tmpdir = None
        self.cache_bytes = int(cache_bytes)
        self.retry_policy = retry_policy
        self.verify_checksums = bool(verify_checksums)
        self.fault_injector = fault_injector
        self.index: Optional[OutOfCorePAT] = None

    def _prepare(self) -> None:
        self.index, self.candidate_sizes, self._tmpdir = build_ooc_index(
            self.graph, self.spec, self.trunk_size,
            self._storage_dir, self.cache_bytes, self.tracer,
            retry_policy=self.retry_policy,
            verify_checksums=self.verify_checksums,
            fault_injector=self.fault_injector,
        )
        # Store reads charge their ooc.* phases to the engine profiler.
        self.index.store.profiler = self.profiler

    def sample_edge(self, v, candidate_size, walker_time, rng, counters):
        return self.index.sample(v, candidate_size, rng, counters)
