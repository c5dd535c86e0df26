"""Request/response schema for the walk service.

One wire format, three request kinds:

* ``walk`` — run temporal random walks from the given start vertices
  and return the sampled paths (or just lengths);
* ``recommend`` — same walk execution, aggregated server-side into a
  visit-count top-k per the e-commerce recommendation recipe;
* ``gnn_sample`` — temporal neighbor blocks from the GNN sampler
  (served per-request, never coalesced: the sampler draws from one
  generator, so sharing a batch would entangle request randomness).

The batching contract lives here too: a request's randomness is fully
determined by its own ``seed``. :meth:`WalkRequest.lane_seeds` derives
one counter-based lane seed per walk from it (exactly what a solo run
uses), so the batcher may concatenate any set of requests sharing a
:meth:`WalkRequest.batch_key` into one frontier run and every request
still receives bit-identical walks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.engines.session import _spec_key
from repro.exceptions import ServeError
from repro.rng import make_rng, spawn_seeds
from repro.walks.apps import (
    DEFAULT_EXP_SCALE,
    exponential_walk,
    linear_walk,
    temporal_node2vec,
    unbiased_walk,
)
from repro.walks.spec import WalkSpec

#: Schema stamp included in every response envelope.
SERVE_SCHEMA = "tea-repro/serve/v1"

#: Hard per-request cap on walks (and on a GNN query's sampled
#: neighbours, ``len(nodes) × Π fanouts``): a single request may not
#: monopolise the loop (admission control bounds queue *depth*; this
#: bounds width).
MAX_WALKS_PER_REQUEST = 100_000

#: Largest request body the daemon reads (413 beyond): room for a
#: million-edge ``/stream/ingest`` batch, far above any walk query.
MAX_BODY_BYTES = 64 << 20

APPS = ("linear", "exponential", "node2vec", "unbiased")


def build_spec(
    app: str,
    scale: Optional[float] = None,
    p: Optional[float] = None,
    q: Optional[float] = None,
    time_window: Optional[Tuple[float, float]] = None,
) -> WalkSpec:
    """Build the :class:`WalkSpec` for a request's application knobs."""
    if app == "linear":
        return linear_walk(time_window=time_window)
    if app == "unbiased":
        return unbiased_walk(time_window=time_window)
    if app == "exponential":
        return exponential_walk(
            scale=scale if scale is not None else DEFAULT_EXP_SCALE,
            time_window=time_window,
        )
    if app == "node2vec":
        return temporal_node2vec(
            p=p if p is not None else 0.5,
            q=q if q is not None else 2.0,
            scale=scale if scale is not None else DEFAULT_EXP_SCALE,
            time_window=time_window,
        )
    raise ServeError(f"unknown app {app!r}; expected one of {APPS}")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ServeError(message)


def _number(value, name: str, positive: bool = False) -> float:
    """``value`` as a float (``> 0`` when ``positive``), or a 400."""
    _require(isinstance(value, (int, float)) and not isinstance(value, bool)
             and (value > 0 or not positive),
             f"'{name}' must be a {'positive ' if positive else ''}number")
    return float(value)


def valid_int(payload: dict, key: str, default: int, low: int = 1) -> int:
    """The integer field ``key`` (``default`` when absent), at least ``low``."""
    value = payload.get(key, default)
    _require(isinstance(value, int) and not isinstance(value, bool) and value >= low,
             f"'{key}' must be an integer >= {low}")
    return value


def valid_ids(payload: dict, key: str = "starts", limit: int = 1 << 63) -> list:
    """The vertex ids under ``key`` (a walk query's ``starts``, static or
    streaming; a GNN query's ``nodes``), each in ``[0, limit)``."""
    ids = payload.get(key)
    _require(isinstance(ids, (list, tuple)) and len(ids) > 0 and all(
        isinstance(v, int) and not isinstance(v, bool) and 0 <= v < limit
        for v in ids), f"'{key}' must be a non-empty list of vertex ids in [0, {limit})")
    return ids


def walk_lists(frontier, lo: int, hi: int, lengths: list) -> Tuple[list, list]:
    """``(walks, times)`` of walks ``lo..hi`` of a columnar frontier as
    JSON lists: one ``tolist`` per array slice, then list slicing by
    ``lengths`` (``frontier.lengths[lo:hi].tolist()``) — never a Python
    call per hop. A walk lists its start first; its times are arrivals."""
    starts = frontier.starts[lo:hi].tolist()
    hop_vertex = frontier.hop_vertex[lo:hi].tolist()
    hop_time = frontier.hop_time[lo:hi].tolist()
    return (
        [[start] + row[:n] for start, row, n in zip(starts, hop_vertex, lengths)],
        [row[:n] for row, n in zip(hop_time, lengths)],
    )


def rank_frontier(frontier, lo: int, hi: int, top_k: int) -> list:
    """``[[vertex, visits], ...]``: the ``top_k`` vertices most visited by
    the taken hops of walks ``lo..hi``, their own starts excluded. Ties
    rank by vertex id (``np.unique`` sorts ascending, the sort on −count
    is stable), so the ranking is deterministic — the chaos test
    compares it bit-for-bit across retries."""
    hops = frontier.hop_vertex[lo:hi]
    taken = np.arange(hops.shape[1]) < frontier.lengths[lo:hi, None]
    vertices, counts = np.unique(hops[taken], return_counts=True)
    keep = ~np.isin(vertices, frontier.starts[lo:hi])
    vertices, counts = vertices[keep], counts[keep]
    top = np.argsort(-counts, kind="stable")[:top_k]
    return np.stack([vertices[top], counts[top]], axis=1).tolist()


@dataclass(frozen=True)
class WalkRequest:
    """One validated walk/recommend query.

    ``starts`` are the request's start vertices; each is walked
    ``walks_per_vertex`` times, so the request contributes
    ``len(starts) * walks_per_vertex`` lanes to whichever batch it
    joins.
    """

    kind: str  # "walk" | "recommend"
    starts: Tuple[int, ...]
    app: str = "exponential"
    walks_per_vertex: int = 1
    max_length: int = 20
    stop_probability: float = 0.0
    seed: int = 0
    scale: Optional[float] = None
    p: Optional[float] = None
    q: Optional[float] = None
    time_window: Optional[Tuple[float, float]] = None
    record_paths: bool = True
    top_k: int = 5

    # -- construction ------------------------------------------------------

    @classmethod
    def from_json(cls, payload, kind: str = "walk",
                  num_vertices: int = 1 << 63) -> "WalkRequest":
        """Validate a decoded JSON body against a graph of
        ``num_vertices``; raises :class:`ServeError` (→ 400)."""
        _require(isinstance(payload, dict), "request body must be a JSON object")
        starts = valid_ids(payload, limit=num_vertices)
        app = payload.get("app", "exponential")
        _require(app in APPS, f"'app' must be one of {APPS}, got {app!r}")
        wpv = valid_int(payload, "walks_per_vertex", 1)
        stop_p = _number(payload.get("stop_probability", 0.0), "stop_probability")
        _require(0.0 <= stop_p < 1.0, "'stop_probability' must be in [0, 1)")
        window = payload.get("time_window")
        if window is not None:
            _require(
                isinstance(window, (list, tuple)) and len(window) == 2,
                "'time_window' must be a [lo, hi] pair",
            )
            window = tuple(_number(t, "time_window") for t in window)
        _require(
            len(starts) * wpv <= MAX_WALKS_PER_REQUEST,
            f"request exceeds {MAX_WALKS_PER_REQUEST} walks",
        )
        knobs = {key: _number(payload[key], key, positive=True)
                 for key in ("scale", "p", "q") if payload.get(key) is not None}
        return cls(
            kind=kind,
            starts=tuple(int(v) for v in starts),
            app=app,
            walks_per_vertex=wpv,
            max_length=valid_int(payload, "max_length", 20),
            stop_probability=stop_p,
            seed=valid_int(payload, "seed", 0, low=0),
            time_window=window,
            record_paths=bool(payload.get("record_paths", True)),
            top_k=valid_int(payload, "top_k", 5),
            **knobs,
        )

    # -- batching contract -------------------------------------------------

    def spec(self) -> WalkSpec:
        return build_spec(
            self.app, scale=self.scale, p=self.p, q=self.q,
            time_window=self.time_window,
        )

    @property
    def num_walks(self) -> int:
        return len(self.starts) * self.walks_per_vertex

    def expanded_starts(self) -> np.ndarray:
        """Start vertex per lane, ``walks_per_vertex`` lanes per start."""
        starts = np.asarray(self.starts, dtype=np.int64)
        return np.repeat(starts, self.walks_per_vertex)

    def lane_seeds(self) -> np.ndarray:
        """Per-lane counter seeds — the same derivation a solo run uses,
        so batch composition cannot perturb any lane's draws."""
        return spawn_seeds(make_rng(self.seed), self.num_walks)

    def batch_key(self, spec: Optional[WalkSpec] = None) -> Tuple:
        """Coalescing key: requests sharing it run in one frontier pass.

        The spec key covers (window, weight model, dynamic parameter);
        ``max_length`` and ``stop_probability`` join because they shape
        the frontier loop itself. ``record_paths``/``top_k``/``kind``
        stay out — they are post-processing and must not fragment
        batches.
        """
        spec = spec if spec is not None else self.spec()
        return (_spec_key(spec), self.max_length, self.stop_probability)
