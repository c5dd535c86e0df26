"""GraphWalker-strategy baseline (paper Sections 1, 4.3, 5).

GraphWalker is a static-graph out-of-core walk engine. Applied to
temporal walks (the paper's comparison):

* **static weights** (linear, uniform): it precomputes per-vertex prefix
  sums and samples by ITS — O(log D) per step;
* **dynamic weights** (exponential, node2vec): the weight depends on the
  walker's arrival time, so it *rebuilds the distribution per step* by
  scanning every candidate edge (full-scan sampling) — O(D) per step,
  the 19,046 edges/step of Figure 2.

Candidate sets are binary-searched per step (it has no candidate index).

``out_of_core=True`` models GraphWalker's disk mode (Figure 14): the
edge weights are read from a disk-backed file, and every step charges
the I/O of loading the vertex's *entire* neighbor list (destination,
time and weight per edge: O(D) bytes) before sampling, mirroring its
load-then-sample design.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Optional

import numpy as np

from repro.core.its_index import ITSIndex
from repro.engines.base import Engine
from repro.graph.temporal_graph import TemporalGraph
from repro.telemetry import MemoryReport
from repro.sampling.fullscan import full_scan_sample
from repro.walks.spec import WalkSpec

_STATIC_KINDS = ("uniform", "linear_rank", "linear_time")


class GraphWalkerEngine(Engine):
    """Full-scan / ITS baseline, optionally out-of-core."""

    def __init__(
        self,
        graph: TemporalGraph,
        spec: WalkSpec,
        out_of_core: bool = False,
        storage_dir: Optional[str] = None,
    ):
        super().__init__(graph, spec)
        self.out_of_core = bool(out_of_core)
        self._storage_dir = storage_dir
        self._tmpdir = None
        self.weights: Optional[np.ndarray] = None
        self.index: Optional[ITSIndex] = None
        self._disk_w = None
        self.name = "graphwalker-ooc" if out_of_core else "graphwalker"

    @property
    def _static(self) -> bool:
        return self.spec.weight_model.kind in _STATIC_KINDS

    def _prepare(self) -> None:
        with self.recorder.span("prepare.weights", kind=self.spec.weight_model.kind):
            self.weights = self.spec.weight_model.compute(self.graph)
        if self._static and not self.out_of_core:
            with self.recorder.span("prepare.index_build", structure="its"):
                self.index = ITSIndex.build(self.graph, self.weights)
        if self.out_of_core:
            with self.recorder.span("prepare.adjacency_spill"):
                directory = self._storage_dir
                if directory is None:
                    self._tmpdir = tempfile.TemporaryDirectory(prefix="graphwalker-")
                    directory = self._tmpdir.name
                directory = Path(directory)
                directory.mkdir(parents=True, exist_ok=True)
                self.weights.tofile(directory / "w.bin")
                self._disk_w = np.memmap(directory / "w.bin", dtype=np.float64, mode="r")

    def sample_edge(self, v, candidate_size, walker_time, rng, counters):
        s = int(candidate_size)
        lo = int(self.graph.indptr[v])
        if self.out_of_core:
            # Load the whole neighbor list — GraphWalker's I/O unit.
            d = self.graph.out_degree(v)
            counters.record_io(d * 24)  # dst + time + weight per edge
            return full_scan_sample(self._disk_w[lo : lo + s], s, rng, counters)
        if self._static:
            return self.index.sample(v, s, rng, counters)
        # Dynamic weights: rebuild the distribution by scanning candidates
        # (user edge weights, when present, multiply the temporal part).
        t_ref = walker_time if walker_time is not None else float(
            self.graph.etime[lo] if s else 0.0
        )
        d = self.graph.out_degree(v)
        ew = None if self.graph.eweight is None else self.graph.eweight[lo : lo + d]

        def weight_fn(times):
            w = self.spec.weight_model.weight_of_time(times, t_ref)
            return w if ew is None else w * ew[: times.size]

        return full_scan_sample(
            self.weights, s, rng, counters,
            weight_fn=weight_fn,
            times_time_desc=self.graph.etime[lo : lo + d],
        )

    def publish_telemetry(self, registry) -> None:
        registry.gauge(
            "engine.out_of_core", "1 when the adjacency is disk-resident"
        ).set(1 if self.out_of_core else 0)
        registry.gauge(
            "engine.static_sampling", "1 when static weights allow ITS"
        ).set(1 if self._static else 0)

    def memory_report(self) -> MemoryReport:
        report = super().memory_report()
        if self.out_of_core:
            # Disk-resident adjacency is not memory; only CSR offsets stay.
            return report
        if self.weights is not None:
            report.add("weights", self.weights.nbytes)
        if self.index is not None:
            report.add("prefix_sums", self.index.nbytes())
        return report
