"""The TEA engine (paper Sections 3–4).

Preprocessing (Section 4.2): candidate-edge-set search for every edge,
static weight computation (the Equation 3 rewrite), PAT/HPAT
construction, auxiliary index generation. Runtime (Algorithm 2): O(1)
candidate lookup via the per-edge candidate index, hybrid ITS+alias
sampling on the chosen structure, rejection only for the Dynamic
parameter (node2vec's β).

The ``structure`` knob selects the sampling index, making the paper's
ablations engine configurations:

=============  =============================  =======================
structure      per-step complexity            space
=============  =============================  =======================
``hpat``       O(log log D)  (+O(1) w/ aux)   O(D log D) per vertex
``pat``        O(log(D / trunkSize))          O(D)
``its``        O(log D)                       O(D)
``alias``      O(1)                           O(D²) → SimulatedOOM
=============  =============================  =======================
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core import builder
from repro.core.alias_index import DEFAULT_BUDGET_BYTES, FullAliasIndex
from repro.core.weights import WeightModel
from repro.engines.base import Engine
from repro.graph.temporal_graph import TemporalGraph
from repro.telemetry import MemoryReport
from repro.sampling.counters import CostCounters
from repro.walks.spec import WalkSpec

STRUCTURES = ("hpat", "pat", "its", "alias")


class TeaEngine(Engine):
    """TEA with a selectable sampling structure (default HPAT + index)."""

    has_candidate_index = True

    def __init__(
        self,
        graph: TemporalGraph,
        spec: WalkSpec,
        structure: str = "hpat",
        use_aux_index: bool = True,
        trunk_size: Optional[int] = None,
        alias_budget_bytes: int = DEFAULT_BUDGET_BYTES,
    ):
        super().__init__(graph, spec)
        if structure not in STRUCTURES:
            raise ValueError(f"structure must be one of {STRUCTURES}, got {structure!r}")
        self.structure = structure
        self.use_aux_index = bool(use_aux_index)
        self.trunk_size = trunk_size
        self.alias_budget_bytes = int(alias_budget_bytes)
        self.index = None
        self.weights: Optional[np.ndarray] = None
        self.construction_report = None
        suffix = structure if structure != "hpat" else (
            "hpat" if use_aux_index else "hpat-noindex"
        )
        self.name = f"tea-{suffix}"

    def _prepare(self) -> None:
        if self.structure == "alias":
            with self.recorder.span("prepare.candidate_search"):
                self.candidate_sizes = builder.search_candidate_sets(self.graph)
            with self.recorder.span("prepare.weights"):
                self.weights = self.spec.weight_model.compute(self.graph)
            with self.recorder.span("prepare.index_build", structure="alias"):
                self.index = FullAliasIndex.build(
                    self.graph, self.weights, budget_bytes=self.alias_budget_bytes
                )
            return
        pre = builder.preprocess(
            self.graph,
            self.spec.weight_model,
            structure=self.structure,
            with_aux_index=self.use_aux_index,
            trunk_size=self.trunk_size,
            recorder=self.recorder,
        )
        self.index = pre.index
        self.weights = pre.weights
        self.candidate_sizes = pre.candidate_sizes
        self.construction_report = pre.report

    def sample_edge(self, v, candidate_size, walker_time, rng, counters):
        if self.structure == "hpat":
            return self.index.sample(
                v, candidate_size, rng, counters, use_index=self.use_aux_index
            )
        return self.index.sample(v, candidate_size, rng, counters)

    def publish_telemetry(self, registry) -> None:
        if self.construction_report is not None:
            rep = self.construction_report
            registry.gauge("build.workers", "preprocessing workers").set(rep.workers)
            registry.gauge(
                "build.candidate_search_seconds", "candidate-set search time"
            ).set(rep.candidate_search_seconds)
            registry.gauge("build.weight_seconds", "weight computation time").set(
                rep.weight_seconds
            )
            registry.gauge("build.index_seconds", "PAT/HPAT/ITS build time").set(
                rep.index_build_seconds
            )
            registry.gauge("build.aux_index_seconds", "aux index build time").set(
                rep.aux_index_seconds
            )

    def memory_report(self) -> MemoryReport:
        report = super().memory_report()
        if self.index is None:
            return report
        if hasattr(self.index, "memory_breakdown"):
            for name, nbytes in self.index.memory_breakdown().items():
                report.add(f"index_{name}", nbytes)
        else:
            report.add("index", self.index.nbytes())
        return report
