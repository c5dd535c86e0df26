"""TEA's out-of-core mode: PAT with disk-resident trunks (paper §4.1,
Figure 14), walked a whole frontier at a time.

When HPAT exceeds memory TEA falls back to PAT, keeps only the
trunk-boundary prefix sums resident, and loads exactly one trunk's
payload per sampling step — O(trunkSize) bytes of I/O versus
GraphWalker's O(D). ``trunk_size`` defaults to the paper's
memory-limited rule: small and fixed (10 for twitter under 16 GB) so the
resident prefix array is |E| / trunkSize entries.

The engine advances the whole frontier per iteration, which turns the
I/O pattern itself into an optimisation surface:

* a lane reads whole trunks only — the C-slice trunk holding its
  candidate boundary and the winning alias trunk — and every lane's
  trunks for the step are served by one :meth:`TrunkStore.read_batch`
  call per region: duplicates collapse, adjacent/overlapping ranges
  **coalesce** into single large backing reads, and the payload comes
  back as one matrix the sampler indexes (no per-block loop);
* the scan-resistant frame pool keeps hub trunks resident while the
  coalesced cold reads churn through probation only.

A step is the PAT draw of paper §3.2 — trunk-boundary ITS, in-trunk
alias draw, partial-trunk search. Under the ``c`` kernel backend its
per-lane arithmetic runs in three compiled loops between the store's
reads (``ooc_plan`` / ``ooc_select`` / ``ooc_alias`` in ``hop.c``); the
numpy lockstep below is their specification and the no-``cc`` path,
and both issue the same reads in the same order; without β that whole
sequence is one ``ooc_step`` call (``_fused_step``). The
one-lane-at-a-time reader it replaced is kept as a test oracle
(``tests/ooc_oracle.py``), and the two are chi-squared tested against
each other and against Equation 3.

The frontier loop is :meth:`BatchTeaEngine._run_frontier` itself; this
engine supplies only its three seams — the index provider
(``_sample_batch`` → :func:`ooc_sample_batch`, drawing per lane like the
in-memory kernel), the per-run scope (``_frontier_scope``: the store's
profiler) and the fused step (``_fused_step``: ``ooc_step``) — so
whatever the loop offers, ``run_lanes`` included, works on disk too.
Like paper §4.1 it reads no trunk ahead of its step: every read is the
sampling thread's own, served through the re-entry cache.
"""

from __future__ import annotations

import tempfile
from contextlib import contextmanager
from typing import Optional

import numpy as np

from repro.core.builder import build_pat, search_candidate_sets
from repro.core.outofcore import OutOfCorePAT, TrunkStore
from repro.engines import batch as in_memory
from repro.engines.base import Engine
from repro.engines.batch import BatchTeaEngine
from repro.graph.temporal_graph import TemporalGraph
from repro.kernels import KernelBackend, KernelScratch
from repro.rng import LaneRng
from repro.sampling.counters import CostCounters
from repro.telemetry import MemoryReport
from repro.walks.spec import WalkSpec

DEFAULT_OOC_TRUNK_SIZE = 10

#: Default re-entry cache budget (paper §4.1's re-entry optimisation).
DEFAULT_OOC_CACHE_BYTES = 4 << 20


def ooc_sample_batch(
    index: OutOfCorePAT,
    vs: np.ndarray,
    ss: np.ndarray,
    rng: Optional[np.random.Generator],
    counters: Optional[CostCounters] = None,
    *,
    draw=None,
    lanes: Optional[np.ndarray] = None,
    kernel: Optional[KernelBackend] = None,
    scratch: Optional[KernelScratch] = None,
) -> np.ndarray:
    """Vectorised PAT-over-TrunkStore draws for (vertex, size) arrays.

    Per lane: complete-trunk ITS over the resident boundary prefix sums,
    alias draw inside the winning trunk, or partial-trunk ITS over a
    disk slice — with every disk access routed through
    :meth:`TrunkStore.read_batch` so the whole frontier's trunks dedupe
    and coalesce. Lanes are validated first (``IndexError`` unless
    ``0 <= v < V`` and ``1 <= s <= deg``, before any read). Probe counts
    for the lockstep boundary search are exact; partial-trunk search
    probes are the usual batched approximation (cf.
    :func:`repro.engines.batch.hpat_sample_batch`).

    Row ``i`` takes its (up to three) uniforms from lane ``lanes[i]`` of
    the :class:`~repro.rng.LaneRng` ``draw``, like the in-memory kernel,
    or straight from ``rng`` when no ``draw`` is given.

    The per-lane arithmetic runs in ``kernel``'s compiled out-of-core
    members when it has them, ``draw`` is a ``LaneRng`` and the index's
    arrays bind (``scratch`` memoises the binding); otherwise in numpy
    lockstep, below — the specification the compiled members reproduce
    bit for bit: draws, stream counters, costs, and the same
    ``read_batch`` calls in the same order.
    """
    n = vs.size
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if (isinstance(draw, LaneRng) and kernel is not None
            and kernel.ooc_plan is not None):
        vs, ss, lanes = (np.ascontiguousarray(a, dtype=np.int64)
                         for a in (vs, ss, lanes))
        scratch = KernelScratch() if scratch is None else scratch
        plan = kernel.ooc_plan(index, vs, ss, scratch)
        if plan is not None:
            return _compiled_draw(kernel, index, vs, ss, draw, lanes, counters,
                                  plan, scratch)
    store = index.store
    if draw is None:  # the next uniforms of rng, in call order
        lanes = np.arange(n, dtype=np.int64)
        uniform = lambda rows: rng.random(rows.size)  # noqa: E731
    else:
        uniform = draw.uniform
    ss = ss.astype(np.int64)
    index.check_lanes(vs, ss)
    ts = index.trunk_sizes[vs].astype(np.int64)
    full = ss // ts
    rem = ss - full * ts
    tb = index.tr_indptr[vs]

    # Candidate totals: trunk-aligned prefixes are resident; a ragged
    # boundary lives on disk inside its C-slice trunk — one batch read
    # that also holds everything the partial-trunk search needs.
    full_weight = index.tr_prefix[tb + full]
    totals = full_weight.copy()
    ragged = np.flatnonzero(rem)
    if ragged.size:
        c_trunks, _, c_row = store.read_batch(
            "c", *index.c_trunks(vs[ragged], ss[ragged], ts[ragged]), counters)
        totals[ragged] = c_trunks[c_row, rem[ragged]]

    r = totals - uniform(lanes) * totals  # draws in (0, total]
    in_full = (full > 0) & (r <= full_weight)
    out = np.empty(n, dtype=np.int64)

    if in_full.any():
        rows = np.flatnonzero(in_full)
        # Trunk-boundary ITS in lockstep over the resident tr_prefix,
        # all lanes halving together.
        lo_j = np.zeros(rows.size, dtype=np.int64)
        hi_j = full[rows].copy()
        act = (hi_j - lo_j) > 1
        while act.any():
            if counters is not None:
                counters.record_probe(int(act.sum()))
            mid = (lo_j + hi_j) // 2
            go_up = act & (index.tr_prefix[tb[rows] + mid] < r[rows])
            lo_j[go_up] = mid[go_up]
            go_dn = act & ~go_up
            hi_j[go_dn] = mid[go_dn]
            act = (hi_j - lo_j) > 1
        trunk = lo_j
        w = ts[rows]
        edge_lo = (index.indptr[vs[rows]] + trunk * w).astype(np.int64)
        tables, _, t_row = store.read_batch("pa", edge_lo, edge_lo + w, counters)
        cell = (uniform(lanes[rows]) * w).astype(np.int64)
        cell = np.minimum(cell, w - 1)
        take = uniform(lanes[rows]) < tables[t_row, 0, cell]
        local = np.where(take, cell, tables[t_row, 1, cell].view(np.int64))
        out[rows] = trunk * w + local
        if counters is not None:
            counters.alias_draws += rows.size
            counters.edges_evaluated += rows.size

    if not in_full.all():
        rows = np.flatnonzero(~in_full)
        # The draw fell past the complete trunks: ITS inside the partial
        # trunk's C slice [full·ts, s] (rem > 0 here: aligned lanes
        # always satisfy r <= full_weight, so every such lane is ragged
        # and its trunk is already in hand). its_search's contract is
        # slice[a] < r <= slice[a+1]: a compare-count over the <= ts+1
        # entries up to the boundary.
        k = rem[rows]
        span = int(k.max()) + 1
        mine = c_trunks[c_row[np.searchsorted(ragged, rows)], :span]
        below = (mine < r[rows, None]) & (np.arange(span) <= k[:, None])
        out[rows] = full[rows] * ts[rows] + below.sum(axis=1) - 1
        if counters is not None:
            m = np.maximum(k, 2)
            probes = np.ceil(np.log2(m)).astype(np.int64) + 1
            counters.record_probe(int(probes.sum()))
    return out


def _compiled_draw(kernel: KernelBackend, index: OutOfCorePAT, vs, ss,
                   draw: LaneRng, lanes, counters, plan, scratch) -> np.ndarray:
    """:func:`ooc_sample_batch` through ``kernel``'s compiled members:
    the numpy path's reads, in its order, around two per-lane loops."""
    store = index.store
    ragged, c_lo, c_hi = plan
    c_trunks, c_row = np.zeros((0, 0)), ragged  # ragged is empty here
    if ragged.size:
        c_trunks, _, c_row = store.read_batch("c", c_lo, c_hi, counters)
    out, deep, pa_lo, pa_hi, probes = kernel.ooc_select(
        index, vs, ss, draw, lanes, c_trunks, c_row, scratch)
    if deep.size:
        tables, _, t_row = store.read_batch("pa", pa_lo, pa_hi, counters)
        kernel.ooc_alias(index, vs, lanes, draw, deep, tables, t_row, out,
                         scratch)
    if counters is not None:
        counters.record_probe(probes)
        counters.alias_draws += deep.size
        counters.edges_evaluated += deep.size
    return out


class BatchTeaOutOfCoreEngine(BatchTeaEngine):
    """Batched frontier execution against a disk-resident PAT.

    ``retry_policy`` / ``verify_checksums`` / ``fault_injector`` wire the
    resilience layer into the store's read path (see
    :mod:`repro.resilience`); persist always writes the per-page CRC32
    manifest, so verification is a pure read-side choice.

    ``prefetch`` sets nothing. It is still accepted because the
    end-to-end benchmark's instrument (``bench_e2e/ooc_exp.py``, which
    changes only with the benchmark itself) passes ``prefetch=True``.
    """

    has_candidate_index = True
    name = "tea-ooc-batch"
    #: The frame pool's hits, evictions and ``read_ops`` are defined by
    #: the order of the slices, so they walk one after another.
    slices_on_threads = False

    def __init__(
        self,
        graph: TemporalGraph,
        spec: WalkSpec,
        trunk_size: int = DEFAULT_OOC_TRUNK_SIZE,
        storage_dir: Optional[str] = None,
        cache_bytes: int = DEFAULT_OOC_CACHE_BYTES,
        prefetch=None,
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

    def _prepare(self) -> None:
        recorder = self.recorder
        with recorder.span("prepare.candidate_search"):
            self.candidate_sizes = search_candidate_sets(self.graph)
        with recorder.span("prepare.weights"):
            weights = self.spec.weight_model.compute(self.graph)
        with recorder.span("prepare.index_build", structure="pat",
                           trunk_size=self.trunk_size):
            pat = build_pat(self.graph, weights, trunk_size=self.trunk_size)
        directory = self._storage_dir
        if directory is None:
            # Owned for the store's lifetime; removed with the engine.
            self._tmpdir = tempfile.TemporaryDirectory(prefix="tea-ooc-")
            directory = self._tmpdir.name
        with recorder.span("prepare.trunk_spill", cache_bytes=self.cache_bytes):
            store = TrunkStore.persist(
                pat, directory, cache_bytes=self.cache_bytes,
                retry_policy=self.retry_policy,
                verify_checksums=self.verify_checksums,
                fault_injector=self.fault_injector,
            ).open()
            # The full PAT arrays are now disk-resident; the in-memory
            # copy dies with this frame.
            self.index = OutOfCorePAT(pat, store)

    # -- reporting -------------------------------------------------------------

    @property
    def cache_stats(self):
        """Re-entry cache hit/miss statistics (paper §4.1's optimisation)."""
        self.prepare()
        return self.index.store.cache.stats

    def publish_telemetry(self, registry) -> None:
        """Cache + coalescing counters, resident footprint."""
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

    # -- vectorised kernel -----------------------------------------------------

    def sample_edge(self, v, candidate_size, walker_time, rng, counters):
        """The Engine contract as a batch of one lane."""
        return int(ooc_sample_batch(self.index, np.array([v]),
                                    np.array([candidate_size]), rng, counters)[0])

    def _sample_batch(
        self, vs: np.ndarray, ss: np.ndarray, draw: LaneRng,
        lanes: np.ndarray, counters: CostCounters,
        scratch: Optional[KernelScratch] = None,
    ) -> np.ndarray:
        """Trunk-store draws (``scratch`` holds the compiled members'
        binding; this sampler's staging lives in the frame pool)."""
        return ooc_sample_batch(self.index, vs, ss, None, counters,
                                draw=draw, lanes=lanes, kernel=self.kernel,
                                scratch=scratch)

    def _fused_step(self, walk, lane_rng, stop_probability, node2vec, scratch):
        """``ooc_step`` on every usable CPU unless β, fault injection or
        checksum verification (the last two live in the numpy read path)
        keep the sequence."""
        store = self.index.store
        if (node2vec is not None or self.kernel.ooc_step is None
                or store.fault_injector is not None or store.verify_checksums):
            return None
        return self.kernel.ooc_step(self.index, walk, lane_rng,
                                    stop_probability, scratch,
                                    in_memory.usable_cpus())

    @contextmanager
    def _frontier_scope(self, profiler):
        # Route the store's ooc.* phases to this loop's profiler and its
        # pool passes to this engine's kernel.
        store = self.index.store
        prev = store.profiler, store.kernel
        store.profiler, store.kernel = profiler, self.kernel
        try:
            yield
        finally:
            store.profiler, store.kernel = prev
