"""Batch execution: one frontier run per coalesced request group.

The executor turns a group of parked requests (all sharing a batch key,
hence one prepared engine) into a single lane-seeded frontier run:

1. fetch the prepared engine from the :class:`~repro.engines.session.
   TeaSession` (LRU of hot HPATs / warm pools);
2. concatenate every request's expanded starts and per-request lane
   seeds (``spawn_seeds`` over the request's own seed — identical to a
   solo run, which is the whole parity argument);
3. run ``engine.run_lanes`` — every engine has one; the frontier and
   chunk-parallel engines vectorise it, the ``tea`` kind walks lane by
   lane;
4. split the columnar result back into per-request responses.

The parallel path runs through the supervised chunk executor, so the
PR 4 resilience machinery (retry, backend degradation) operates under
the server; chunk retries surface as the ``serve.retries`` counter.
"""

from __future__ import annotations

import threading
from typing import List, Optional

import numpy as np

from repro.engines.batch import FrontierResult
from repro.engines.session import TeaSession
from repro.exceptions import ServeError
from repro.serve.batcher import PendingRequest
from repro.serve.protocol import SERVE_SCHEMA, rank_frontier, walk_lists
from repro.telemetry.registry import MetricsRegistry


class BatchExecutor:
    """Executes coalesced request groups against a :class:`TeaSession`."""

    def __init__(self, session: TeaSession, registry: Optional[MetricsRegistry] = None):
        self.session = session
        self.registry = registry
        self._retries = (
            registry.counter(
                "serve.retries", "chunk retries absorbed while serving"
            )
            if registry is not None
            else None
        )
        self._gnn_samplers: dict = {}
        self._gnn_lock = threading.Lock()

    # -- walk / recommend --------------------------------------------------

    def execute(self, group: List[PendingRequest]) -> None:
        """Run one frontier pass for ``group``; fills each response."""
        spec = group[0].spec
        engine = self.session.engine_for(spec)
        starts = np.concatenate([p.request.expanded_starts() for p in group])
        seeds = np.concatenate([p.request.lane_seeds() for p in group])
        max_length = group[0].request.max_length
        stop_probability = group[0].request.stop_probability
        keep_hops = any(
            p.request.record_paths or p.request.kind == "recommend" for p in group
        )
        frontier = engine.run_lanes(
            starts,
            seeds,
            max_length,
            stop_probability=stop_probability,
            keep_hops=keep_hops,
            registry=self.registry,
        )
        last_events = getattr(engine, "last_events", None)
        if self._retries is not None and last_events:
            self._retries.inc(int(last_events.get("chunk_retries", 0)))
        offset = 0
        for pending in group:
            n = pending.request.num_walks
            pending.response = self._encode(
                pending, frontier, offset, offset + n, batched_with=len(group)
            )
            offset += n

    def _encode(
        self,
        pending: PendingRequest,
        frontier: FrontierResult,
        lo: int,
        hi: int,
        batched_with: int,
    ) -> dict:
        request = pending.request
        lengths = frontier.lengths[lo:hi].tolist()
        response = {
            "schema": SERVE_SCHEMA,
            "kind": request.kind,
            "run_id": pending.request_id,
            "num_walks": int(hi - lo),
            "lengths": lengths,
            "batched_with": int(batched_with),
            "engine": self.session.engine_kind,
        }
        if request.record_paths and frontier.hop_vertex is not None:
            response["walks"], response["times"] = walk_lists(
                frontier, lo, hi, lengths)
        if request.kind == "recommend":
            response["recommendations"] = self._recommend(
                request, frontier, lo, hi
            )
        return response

    @staticmethod
    def _recommend(request, frontier: FrontierResult, lo: int, hi: int) -> list:
        """Visit-count top-k over the request's walks, starts excluded."""
        if frontier.hop_vertex is None:
            return []
        return rank_frontier(frontier, lo, hi, request.top_k)

    # -- GNN sampling ------------------------------------------------------

    def gnn_sample(self, payload) -> dict:
        """Serve one temporal-neighbor-block query (never coalesced)."""
        from repro.gnn.sampler import TemporalNeighborSampler

        if not isinstance(payload, dict):
            raise ServeError("request body must be a JSON object")
        nodes = payload.get("nodes")
        if not isinstance(nodes, (list, tuple)) or not nodes:
            raise ServeError("'nodes' must be a non-empty list of vertex ids")
        times = payload.get("times")
        if not isinstance(times, (list, tuple)) or len(times) != len(nodes):
            raise ServeError("'times' must align with 'nodes'")
        fanouts = payload.get("fanouts", [10])
        if not isinstance(fanouts, (list, tuple)) or not fanouts:
            raise ServeError("'fanouts' must be a non-empty list")
        seed = payload.get("seed", 0)
        if not isinstance(seed, int):
            raise ServeError("'seed' must be an integer")
        recency_scale = payload.get("recency_scale")
        key = float(recency_scale) if recency_scale is not None else None
        with self._gnn_lock:
            sampler = self._gnn_samplers.get(key)
            if sampler is None:
                sampler = TemporalNeighborSampler(
                    self.session.graph, recency_scale=key, seed=0
                )
                self._gnn_samplers[key] = sampler
            blocks = sampler.sample_blocks(
                [int(v) for v in nodes],
                [float(t) for t in times],
                [int(k) for k in fanouts],
                rng=np.random.default_rng(seed),
            )
        return {
            "schema": SERVE_SCHEMA,
            "kind": "gnn_sample",
            "blocks": [
                {
                    "seeds": block.seeds.tolist(),
                    "seed_times": block.seed_times.tolist(),
                    "neighbors": block.neighbors.tolist(),
                    "times": block.times.tolist(),
                    "mask": block.mask.astype(int).tolist(),
                }
                for block in blocks
            ],
        }
