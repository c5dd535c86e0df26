"""Query sessions: Algorithm 2's Main loop as a service.

The paper's Main (Algorithm 2) serves *queries*: each query extracts a
temporal subgraph with ``Edges_interval``, preprocesses it, then walks.
In a serving setting many queries share windows and weight definitions,
so rebuilding per query wastes the dominant preprocessing cost.
:class:`TeaSession` keeps an LRU of prepared engines keyed by
``(time window, weight model, dynamic parameter)`` — repeat queries
skip preprocessing entirely, and the cache budgets (entry count and
optional resident-index bytes) bound memory. The index is keyed by
``(time window, weight model)`` alone: β is applied at walk time by
rejection, so engines that differ only in β are siblings
(:meth:`~repro.engines.base.Engine.with_spec`) sharing one prepared
index.

The session is the state the :mod:`repro.serve` daemon keeps hot
between requests: prepared HPATs and warm worker pools (when the
``tea-parallel`` engine kind is selected) live for the lifetime of a
cache entry, not a single query.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.engines.base import EngineResult, Workload
from repro.engines.batch import BatchTeaEngine
from repro.engines.tea import TeaEngine
from repro.graph.temporal_graph import TemporalGraph
from repro.rng import RngLike
from repro.telemetry import events
from repro.walks.spec import WalkSpec

#: Engine kinds a session can build, mirroring the CLI's ``--engine``
#: names for the in-core engines.
ENGINE_KINDS = ("tea", "tea-batch", "tea-parallel")


@dataclass
class SessionStats:
    queries: int = 0
    engine_hits: int = 0
    engine_builds: int = 0
    index_builds: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        return self.engine_hits / self.queries if self.queries else 0.0

    def snapshot(self) -> Dict[str, float]:
        return {
            "queries": self.queries,
            "engine_hits": self.engine_hits,
            "engine_builds": self.engine_builds,
            "index_builds": self.index_builds,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 3),
        }


def _spec_key(spec: WalkSpec) -> Tuple:
    """Engines are reusable across specs that share window + weights +
    β hook (the index depends only on window and weights, but the engine
    object carries the spec, so the dynamic parameter joins the key).

    The weight model and dynamic parameter are frozen dataclasses, so
    they key directly: two :class:`~repro.walks.spec.CustomParameter`
    instances wrapping *different* functions hash and compare as
    different entries even when their ``beta_max`` agrees — a
    name/attribute-based key would alias them onto one engine.
    ``spec.name`` is deliberately excluded: it is a label, not
    structure.
    """
    return (spec.time_window, spec.weight_model, spec.dynamic_parameter)


class TeaSession:
    """A multi-query TEA service over one temporal graph.

    Parameters
    ----------
    max_engines:
        LRU capacity: distinct prepared (window, weights, β) engines
        kept alive simultaneously. Engines with equal (window, weights)
        share one index, however many β they serve.
    engine:
        Engine kind to build per cache entry: ``"tea"`` (scalar),
        ``"tea-batch"`` (vectorised frontier, the default), or
        ``"tea-parallel"`` (chunk-parallel with warm pools and
        supervised retry — the serving configuration).
    engine_kwargs:
        Extra constructor arguments forwarded to the engine class
        (e.g. ``workers=4, backend="process"`` for ``tea-parallel``).
    max_bytes:
        Optional resident-index budget. After each build the LRU is
        trimmed until the cached engines' distinct indices fit the
        budget — but the most recent engine is never evicted, so a
        budget smaller than a single index degrades to "cache exactly
        one engine" rather than thrashing to zero.
    """

    def __init__(
        self,
        graph: TemporalGraph,
        max_engines: int = 8,
        engine: str = "tea-batch",
        engine_kwargs: Optional[Dict] = None,
        max_bytes: Optional[int] = None,
    ):
        if max_engines < 1:
            raise ValueError("max_engines must be >= 1")
        if engine not in ENGINE_KINDS:
            raise ValueError(
                f"unknown engine kind {engine!r}; expected one of {ENGINE_KINDS}"
            )
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        self.graph = graph
        self.max_engines = int(max_engines)
        self.engine_kind = engine
        self.engine_kwargs = dict(engine_kwargs or {})
        self.max_bytes = max_bytes
        self._engines: "OrderedDict[Tuple, object]" = OrderedDict()
        self._lock = threading.RLock()
        self.stats = SessionStats()

    # -- engine cache ------------------------------------------------------

    def _build_engine(self, spec: WalkSpec):
        if self.engine_kind == "tea":
            return TeaEngine(self.graph, spec, **self.engine_kwargs)
        if self.engine_kind == "tea-batch":
            return BatchTeaEngine(self.graph, spec, **self.engine_kwargs)
        from repro.parallel.engine import ParallelBatchTeaEngine

        return ParallelBatchTeaEngine(self.graph, spec, **self.engine_kwargs)

    def _evict_lru(self, count: bool = True) -> None:
        key, engine = self._engines.popitem(last=False)
        if count:
            self.stats.evictions += 1
            events.emit("session.evict", engine_kind=self.engine_kind)
        close = getattr(engine, "close", None)
        if close is not None:
            close()

    def _trim(self) -> None:
        while len(self._engines) > self.max_engines:
            self._evict_lru()
        if self.max_bytes is not None:
            while (
                len(self._engines) > 1
                and self.resident_index_bytes() > self.max_bytes
            ):
                self._evict_lru()

    def _engine_for(self, spec: WalkSpec):
        key = _spec_key(spec)
        engine = self._engines.get(key)
        if engine is not None:
            self._engines.move_to_end(key)
            self.stats.engine_hits += 1
            return engine
        # A cached engine that differs only in β lends its index.
        donor = next((e for k, e in self._engines.items() if k[:2] == key[:2]), None)
        engine = self._build_engine(spec) if donor is None else donor.with_spec(spec)
        self.stats.index_builds += donor is None
        engine.prepare()
        self.stats.engine_builds += 1
        self._engines[key] = engine
        self._trim()
        return engine

    # -- queries -----------------------------------------------------------

    def query(
        self,
        spec: WalkSpec,
        workload: Workload,
        seed: RngLike = 0,
        record_paths: bool = True,
    ) -> EngineResult:
        """Run one walk query; preprocessing is cached across queries.

        Queries are serialised under the session lock: cached engines
        reuse per-engine scratch arenas and are not re-entrant.
        """
        with self._lock:
            self.stats.queries += 1
            engine = self._engine_for(spec)
            return engine.run(workload, seed=seed, record_paths=record_paths)

    def engine_for(self, spec: WalkSpec):
        """Fetch (building if needed) the prepared engine for ``spec``.

        The serving batcher uses this to run lane-seeded frontier calls
        directly; it counts as a query for hit-rate accounting. The
        caller must serialise its own use of the returned engine.
        """
        with self._lock:
            self.stats.queries += 1
            return self._engine_for(spec)

    # -- accounting / lifecycle --------------------------------------------

    def resident_index_bytes(self) -> int:
        """Bytes held by the cached engines' indices, each counted once."""
        indexes = {id(engine.index): engine.index
                   for engine in self._engines.values()
                   if getattr(engine, "index", None) is not None}
        return sum(index.nbytes() for index in indexes.values())

    def close(self) -> None:
        """Evict every cached engine, releasing the pools they hold."""
        with self._lock:
            while self._engines:
                self._evict_lru(count=False)

    def __enter__(self) -> "TeaSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self._engines)
