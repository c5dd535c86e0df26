"""In-memory temporal graph in time-descending CSR form.

Every sampler in this library relies on one structural fact (paper
Sections 3.2–3.4): if each vertex's out-edges are sorted by *decreasing*
timestamp, then the candidate edge set

    Γt(u) = { (u, v_i, t_i) ∈ N(u) : t_i > t }

is a **prefix** of u's adjacency list, identified by a single integer (its
length). :class:`TemporalGraph` materialises exactly that layout from an
:class:`~repro.graph.edge_stream.EdgeStream`:

* ``indptr[v] : indptr[v+1]`` delimits v's out-edges in the flat arrays;
* ``nbr`` holds destination vertices, ``etime`` the timestamps, both in
  time-descending order within each vertex segment (ties keep stream
  order, newest stream position first, so prefix semantics stay stable
  under streaming appends).

The static undirected adjacency needed by temporal node2vec's β parameter
(distance d(w, v) ∈ {0, 1, 2}) is one sorted key array,
:meth:`TemporalGraph.static_keys`, built lazily and cached.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.exceptions import GraphFormatError
from repro.graph.edge_stream import EdgeStream


class TemporalGraph:
    """A temporal graph frozen into time-descending CSR arrays.

    Construct via :meth:`from_stream`. All arrays are read-only; streaming
    updates produce a *new* graph (see :mod:`repro.streaming.batch`) or use
    the incremental index (:mod:`repro.core.incremental`) which avoids
    rebuilding.
    """

    __slots__ = (
        "num_vertices",
        "num_edges",
        "indptr",
        "nbr",
        "etime",
        "_neg_etime",
        "_static_cache",
        "_stream",
        "_keys_cache",
        "_distinct_times",
        "eweight",
    )

    def __init__(self, indptr: np.ndarray, nbr: np.ndarray, etime: np.ndarray,
                 stream: Optional[EdgeStream] = None,
                 eweight: Optional[np.ndarray] = None):
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.nbr = np.asarray(nbr, dtype=np.int64)
        self.etime = np.asarray(etime, dtype=np.float64)
        if self.indptr.ndim != 1 or self.indptr.size == 0:
            raise GraphFormatError("indptr must be a non-empty 1-D array")
        if self.indptr[0] != 0 or self.indptr[-1] != self.nbr.size:
            raise GraphFormatError("indptr must start at 0 and end at |E|")
        if self.nbr.shape != self.etime.shape:
            raise GraphFormatError("nbr and etime must have equal shapes")
        self.num_vertices = int(self.indptr.size - 1)
        self.num_edges = int(self.nbr.size)
        # Negated times are ascending within each vertex segment, which lets
        # candidate_count() be a single searchsorted call.
        self._neg_etime = -self.etime
        self._static_cache: Optional[np.ndarray] = None
        self._stream = stream
        self._keys_cache = None
        self._distinct_times: Optional[np.ndarray] = None
        # Optional per-edge user weights (same CSR order as etime); the
        # effective sampling weight is eweight * WeightModel(f(t)).
        if eweight is not None:
            eweight = np.asarray(eweight, dtype=np.float64)
            if eweight.shape != self.etime.shape:
                raise GraphFormatError("eweight must align with the edge arrays")
        self.eweight = eweight
        for a in (self.indptr, self.nbr, self.etime, self._neg_etime):
            a.setflags(write=False)
        if self.eweight is not None:
            self.eweight.setflags(write=False)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_stream(cls, stream: EdgeStream, num_vertices: Optional[int] = None) -> "TemporalGraph":
        """Build the time-descending CSR from an edge stream.

        ``num_vertices`` may exceed the largest id in the stream to reserve
        isolated vertices (useful when streaming will add edges later).
        """
        n = stream.num_vertices() if num_vertices is None else int(num_vertices)
        if num_vertices is not None and stream.num_vertices() > n:
            raise GraphFormatError(
                f"stream references vertex >= num_vertices={n}"
            )
        m = len(stream)
        indptr = np.zeros(n + 1, dtype=np.int64)
        if m:
            counts = np.bincount(stream.src, minlength=n)
            np.cumsum(counts, out=indptr[1:])
        nbr = np.empty(m, dtype=np.int64)
        etime = np.empty(m, dtype=np.float64)
        eweight = None
        if m:
            # Stable sort by (src asc, time desc). The stream is time-
            # ascending, so reversing it makes time descending; a stable
            # sort on src then preserves that within each vertex.
            order = np.argsort(stream.src[::-1], kind="stable")
            nbr[:] = stream.dst[::-1][order]
            etime[:] = stream.time[::-1][order]
            if stream.weight is not None:
                eweight = stream.weight[::-1][order]
        return cls(indptr, nbr, etime, stream=stream, eweight=eweight)

    @classmethod
    def from_edges(cls, edges, num_vertices: Optional[int] = None) -> "TemporalGraph":
        """Convenience: build from an iterable of ``(u, v, t)`` triples."""
        return cls.from_stream(EdgeStream.from_edges(edges), num_vertices)

    # -- basic queries -----------------------------------------------------

    def out_degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def degrees(self) -> np.ndarray:
        """Out-degree of every vertex."""
        return np.diff(self.indptr)

    def max_degree(self) -> int:
        d = self.degrees()
        return int(d.max()) if d.size else 0

    def mean_degree(self) -> float:
        return self.num_edges / self.num_vertices if self.num_vertices else 0.0

    def neighbors(self, v: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(destinations, times)`` of v's out-edges, newest first."""
        lo, hi = self.indptr[v], self.indptr[v + 1]
        return self.nbr[lo:hi], self.etime[lo:hi]

    def edge_at(self, v: int, j: int) -> Tuple[int, float]:
        """The j-th newest out-edge of v as ``(destination, time)``."""
        pos = self.indptr[v] + j
        if not (self.indptr[v] <= pos < self.indptr[v + 1]):
            raise IndexError(f"vertex {v} has no out-edge index {j}")
        return int(self.nbr[pos]), float(self.etime[pos])

    # -- candidate edge sets -------------------------------------------------

    def candidate_count(self, v: int, t: Optional[float]) -> int:
        """Size of Γt(v): out-edges of v with time strictly greater than t.

        ``t=None`` means "no temporal constraint" (the first step of a walk
        starting at v) and returns the full out-degree. Because edges are
        time-descending, Γt(v) is exactly the first ``candidate_count(v, t)``
        entries of :meth:`neighbors`.
        """
        lo, hi = self.indptr[v], self.indptr[v + 1]
        if t is None:
            return int(hi - lo)
        # etime[lo:hi] descends, so -etime ascends; edges with time > t are
        # those with -time < -t.
        return int(np.searchsorted(self._neg_etime[lo:hi], -t, side="left"))

    def _offset_keys(self) -> Tuple[np.ndarray, int]:
        """Cached exact keys for batched candidate searches:
        ``(keys, U)``, U the number of distinct edge times.

        Edge e of vertex v gets the int64 key ``v·(U+1) + (U − rank)``,
        ``rank`` the index of its time among the distinct times. Keys
        ascend inside each segment (times descend) and segments own
        disjoint ranges, so one global ``searchsorted`` answers per-vertex
        queries for any number of (vertex, time) pairs — exactly, however
        close two times are.
        """
        if self._keys_cache is None:
            uniq, rank = np.unique(self.etime, return_inverse=True)
            keys = np.repeat(np.arange(self.num_vertices, dtype=np.int64)
                             * (uniq.size + 1), np.diff(self.indptr))
            keys += uniq.size
            keys -= rank
            self._keys_cache = (keys, uniq.size)
        return self._keys_cache

    def _count_newer(self, vertices: np.ndarray, newer: np.ndarray) -> np.ndarray:
        """|Γt(v)| per lane, given ``newer`` = how many distinct edge
        times are strictly greater than the lane's t."""
        keys, count = self._offset_keys()
        query = vertices * (count + 1) + newer
        shape = query.shape
        # Probed in ascending order the search walks the keys front to
        # back: ≈4× faster than random probes into a 10⁶-edge graph,
        # which pays for the sort and then some. The sorted queries'
        # buffer takes the answers back in lane order.
        order = np.argsort(query, axis=None)
        query = query.ravel()[order]
        found = np.searchsorted(keys, query, side="right")
        query[order] = found
        del order, found
        return query.reshape(shape) - self.indptr[vertices]

    def candidate_counts_batch(self, vertices, times) -> np.ndarray:
        """|Γt(v)| for parallel arrays of (vertex, time) queries.

        Vectorised: one global ``searchsorted`` over the cached exact
        keys. Query times outside the graph's range saturate (later than
        everything → 0 candidates; earlier → full degree).
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        times = np.asarray(times, dtype=np.float64)
        if self.num_edges == 0:
            return np.zeros(vertices.shape, dtype=np.int64)
        if self._distinct_times is None:
            self._distinct_times = np.unique(self.etime)
        uniq = self._distinct_times
        return self._count_newer(
            vertices, uniq.size - np.searchsorted(uniq, times, side="right"))

    def candidate_counts_per_edge(self, lo: int = 0,
                                  hi: Optional[int] = None) -> np.ndarray:
        """For every edge (u, v, t) in CSR order (``[lo, hi)`` of them),
        |Γt(v)| at its head.

        This is the "searching candidate edge sets" preprocessing phase of
        paper Section 4.2: when a walker traverses edge (u, v, t) it will
        next sample from Γt(v), so the engine precomputes the candidate-set
        size for every edge.
        """
        if self.num_edges == 0:
            return np.zeros(0, dtype=np.int64)
        keys, count = self._offset_keys()
        # An edge's own key ends in U − rank, and U − rank − 1 distinct
        # times are newer than its own.
        own = keys[lo:hi] % (count + 1)
        own -= 1
        return self._count_newer(self.nbr[lo:hi], own)

    # -- static adjacency (node2vec support) ---------------------------------

    def static_keys(self) -> np.ndarray:
        """The static undirected adjacency as sorted, distinct int64 keys
        ``u·|V| + v``: one per ordered pair adjacent once time and
        direction are ignored.

        Built on first use, cached and read-only — every engine and
        Dynamic_parameter on this graph reads this one array.
        """
        if self._static_cache is None:
            span = np.int64(self.num_vertices)
            src = np.repeat(np.arange(self.num_vertices, dtype=np.int64),
                            np.diff(self.indptr))
            keys = np.unique(np.concatenate([src * span + self.nbr,
                                             self.nbr * span + src]))
            keys.setflags(write=False)
            self._static_cache = keys
        return self._static_cache

    def has_static_edge(self, u: int, v: int) -> bool:
        """True if u and v are adjacent ignoring time and direction.

        Temporal node2vec's β(u,v) (Equation 4) needs the *static* distance
        between the previous vertex and a candidate; this is its d==1 test.
        """
        keys = self.static_keys()
        key = u * self.num_vertices + v
        k = int(np.searchsorted(keys, key))
        return k < keys.size and int(keys[k]) == key

    def static_degree(self, v: int) -> int:
        lo, hi = np.searchsorted(self.static_keys(),
                                 [v * self.num_vertices, (v + 1) * self.num_vertices])
        return int(hi - lo)

    # -- misc ----------------------------------------------------------------

    def to_stream(self) -> EdgeStream:
        """Recover a time-ascending edge stream (rebuilt if not retained)."""
        if self._stream is not None:
            return self._stream
        src = np.repeat(np.arange(self.num_vertices), np.diff(self.indptr))
        return EdgeStream(src, self.nbr, self.etime, weight=self.eweight)

    def nbytes(self) -> int:
        """Bytes held by the CSR arrays (excludes lazy static adjacency)."""
        n = int(self.indptr.nbytes + self.nbr.nbytes + self.etime.nbytes)
        if self.eweight is not None:
            n += int(self.eweight.nbytes)
        return n

    def __repr__(self) -> str:
        return (
            f"TemporalGraph(|V|={self.num_vertices}, |E|={self.num_edges}, "
            f"mean_deg={self.mean_degree():.2f}, max_deg={self.max_degree()})"
        )
