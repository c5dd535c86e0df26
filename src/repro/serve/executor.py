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

import math
from typing import List, Optional

import numpy as np

from repro.engines.batch import FrontierResult
from repro.engines.session import TeaSession
from repro.serve.batcher import PendingRequest
from repro.serve.protocol import (
    MAX_WALKS_PER_REQUEST, SERVE_SCHEMA, _number, _require, rank_frontier,
    valid_ids, valid_int, walk_lists,
)
from repro.telemetry.registry import MetricsRegistry


class BatchExecutor:
    """Executes coalesced request groups against a :class:`TeaSession`."""

    def __init__(self, session: TeaSession, registry: Optional[MetricsRegistry] = None):
        self.session = session
        self.registry = registry
        self._retries = None if registry is None else registry.counter(
            "serve.retries", "chunk retries absorbed while serving")
        self._gnn_samplers: dict = {}

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

        _require(isinstance(payload, dict), "request body must be a JSON object")
        nodes = valid_ids(payload, "nodes", self.session.graph.num_vertices)
        times = payload.get("times")
        _require(isinstance(times, (list, tuple)) and len(times) == len(nodes),
                 "'times' must align with 'nodes'")
        times = [_number(t, "times") for t in times]
        fanouts = payload.get("fanouts", [10])
        _require(isinstance(fanouts, (list, tuple)) and len(fanouts) > 0 and all(
            isinstance(k, int) and not isinstance(k, bool) and k >= 1
            for k in fanouts), "'fanouts' must be a non-empty list of positive integers")
        _require(len(nodes) * math.prod(fanouts) <= MAX_WALKS_PER_REQUEST,
                 f"request exceeds {MAX_WALKS_PER_REQUEST} sampled neighbours")
        seed = valid_int(payload, "seed", 0, low=0)
        key = payload.get("recency_scale")
        if key is not None:
            key = _number(key, "recency_scale", positive=True)
        sampler = self._gnn_samplers.get(key)
        if sampler is None:
            sampler = TemporalNeighborSampler(
                self.session.graph, recency_scale=key, seed=0
            )
            self._gnn_samplers[key] = sampler
        blocks = sampler.sample_blocks(
            nodes, times, fanouts, rng=np.random.default_rng(seed))
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
