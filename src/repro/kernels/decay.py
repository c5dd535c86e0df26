"""BINGO-style factorized time-decay bias for streaming updates.

The ``exponential_decay`` weight (``exp((t_min(u) - t_i)/scale)``,
:mod:`repro.core.weights`) is a pure function of the edge's own
timestamp, so it factors: write ``log2 w_i = f_i`` and split it into a
radix-bucket id ``b_i = floor(f_i / OCTAVES)`` and a bounded mantissa
``relw_i = 2^(f_i - b_i·OCTAVES) ∈ [1, 2^OCTAVES)``. All edges sharing
a bucket are within a fixed weight ratio, and — because ``f`` is
monotone in time — each bucket covers a **time-contiguous run** of the
stream. The decay factor ``2^(b·OCTAVES)`` is applied as a per-bucket
multiplicative correction at draw time (exact: a power-of-two ldexp),
never baked into stored tables.

That is the BINGO trade (PAPERS.md) adapted to TEA's block forest: the
carry-merge forest of :mod:`repro.core.incremental` re-indexes every
edge O(log d) times to keep per-block alias tables weight-coherent,
because raw ``exp`` weights span the stream's full dynamic range. Here
a batch append only extends the newest bucket (amortised O(batch) via
capacity doubling) or opens new ones — O(buckets touched) work, no
trunk rebuilds, and no under/overflow however long the stream runs:

* **append**: bucket ids are non-increasing in time, so a batch maps
  to a few id-runs; each run appends to the front bucket or creates a
  new front bucket. Prefix sums over the mantissas extend
  incrementally.
* **draw**: ITS over the covered buckets' corrected suffix totals
  (scaled relative to the heaviest covered bucket, so the comparison
  is performed in-range), then exact ITS over the winning bucket's
  mantissa prefix sums. Distribution-identical to a from-scratch HPAT
  over the same candidate prefix (property-tested, chi-squared).

Sampling cost is O(log buckets + log bucket-size) probes — the same
shape as the block forest — while updates drop from O(batch + carries)
to O(batch).
"""

from __future__ import annotations

from math import ldexp
from typing import List, Optional, Tuple

import numpy as np

from repro.core.weights import WeightModel
from repro.exceptions import EmptyCandidateSetError, NotSupportedError
from repro.sampling.counters import CostCounters
from repro.sampling.prefix_sum import draw_in_range, its_search

#: log2-width of one radix bucket: edges in a bucket are within a
#: 2^8 = 256x weight ratio, and a stream spanning T time units touches
#: ~T / (8·scale·ln2) buckets total.
BUCKET_OCTAVES = 8

_LN2 = 0.6931471805599453


def decay_split(times: np.ndarray, t_ref: float, scale: float
                ) -> Tuple[np.ndarray, np.ndarray]:
    """Factor ``exp((t_ref - t)/scale)`` into ``(bucket_id, mantissa)``.

    ``weight = ldexp(mantissa, bucket_id · BUCKET_OCTAVES)`` exactly,
    with ``mantissa ∈ [1, 2^BUCKET_OCTAVES)`` — no intermediate ever
    under- or overflows, which is the point: the raw weight of an edge
    ``10^4`` scale-units past ``t_ref`` is ``exp(-10^4)`` ≈ 0 in
    float64, but its bucket id and mantissa stay exact.
    """
    f = (t_ref - np.asarray(times, dtype=np.float64)) / (scale * _LN2)
    bid = np.floor(f / BUCKET_OCTAVES).astype(np.int64)
    relw = np.exp2(f - bid.astype(np.float64) * BUCKET_OCTAVES)
    return bid, relw


class _RadixBucket:
    """One log-scale radix bucket: a time-contiguous edge run.

    Arrays are capacity-doubled and store edges **oldest-first** (the
    stream's arrival order), so appends write at the end; ``cum`` keeps
    the mantissa prefix sums (``cum[j] = Σ relw[:j]``), extended
    incrementally — the newest ``take`` edges are the suffix
    ``[n - take, n)`` with mantissa mass ``cum[n] - cum[n - take]``.
    """

    __slots__ = ("bid", "n", "dst", "times", "relw", "cum")

    def __init__(self, bid: int):
        self.bid = int(bid)
        self.n = 0
        self.dst = np.empty(0, dtype=np.int64)
        self.times = np.empty(0, dtype=np.float64)
        self.relw = np.empty(0, dtype=np.float64)
        self.cum = np.zeros(1, dtype=np.float64)

    @property
    def exponent(self) -> int:
        """The bucket's power-of-two correction factor, as an exponent."""
        return self.bid * BUCKET_OCTAVES

    def append(self, dst: np.ndarray, times: np.ndarray,
               relw: np.ndarray) -> None:
        m = int(dst.size)
        need = self.n + m
        if need > self.dst.size:
            cap = max(need, 2 * self.dst.size, 8)
            for name in ("dst", "times", "relw"):
                old = getattr(self, name)
                buf = np.empty(cap, dtype=old.dtype)
                buf[: self.n] = old[: self.n]
                setattr(self, name, buf)
            cum = np.empty(cap + 1, dtype=np.float64)
            cum[: self.n + 1] = self.cum[: self.n + 1]
            self.cum = cum
        self.dst[self.n:need] = dst
        self.times[self.n:need] = times
        self.relw[self.n:need] = relw
        np.cumsum(relw, out=self.cum[self.n + 1: need + 1])
        self.cum[self.n + 1: need + 1] += self.cum[self.n]
        self.n = need

    def newer_than(self, t: float) -> int:
        """Edges of this bucket with time strictly greater than ``t``."""
        return self.n - int(
            np.searchsorted(self.times[: self.n], t, side="right")
        )

    def suffix_mass(self, take: int) -> float:
        """Mantissa mass of the newest ``take`` edges."""
        return float(self.cum[self.n] - self.cum[self.n - take])

    def sample_suffix(
        self, take: int, rng, counters: Optional[CostCounters]
    ) -> int:
        """Exact ITS over the newest ``take`` edges ∝ mantissa."""
        lo = self.n - take
        base = float(self.cum[lo])
        r = base + draw_in_range(rng, 0.0, self.suffix_mass(take))
        return its_search(self.cum[: self.n + 1], r, lo, self.n, counters)

    def nbytes(self) -> int:
        return int(self.dst.nbytes + self.times.nbytes + self.relw.nbytes
                   + self.cum.nbytes)

    def pin(self) -> "_RadixBucket":
        """A frozen alias of this bucket at its current fill.

        Shares the backing arrays (live appends only write at indices
        ≥ the live ``n``, and capacity growth reallocates rather than
        moving the filled prefix) but owns its ``n``, so the clone is
        immune to both future appends *and* ``restore()`` rewinding the
        live bucket's fill.
        """
        b = _RadixBucket.__new__(_RadixBucket)
        b.bid = self.bid
        b.n = self.n
        b.dst = self.dst
        b.times = self.times
        b.relw = self.relw
        b.cum = self.cum
        return b


class DecayRadixForest:
    """Streaming index for one vertex under factorized exponential decay.

    API-compatible with
    :class:`repro.core.incremental.VertexIncrementalHPAT` (append,
    candidate queries, prefix sampling, snapshot/restore), selected by
    :class:`repro.core.incremental.IncrementalHPAT` whenever the weight
    model is ``exponential_decay``. ``merged_edges`` is always 0 —
    nothing is ever re-indexed — and ``buckets_touched`` /
    ``reindexed_edges`` expose the O(buckets)-per-append cost oracle the
    kernel-fusion bench asserts against the carry forest.
    """

    __slots__ = ("weight_model", "buckets", "num_edges", "_t_ref",
                 "_t_newest", "merged_edges", "buckets_touched",
                 "reindexed_edges")

    def __init__(self, weight_model: WeightModel):
        if weight_model.kind != "exponential_decay":
            raise NotSupportedError(
                "DecayRadixForest factorizes exponential_decay weights only"
            )
        self.weight_model = weight_model
        self.buckets: List[_RadixBucket] = []  # newest first (bid ascending)
        self.num_edges = 0
        self._t_ref: Optional[float] = None
        self._t_newest: Optional[float] = None
        self.merged_edges = 0  # API parity with the carry forest: never merges
        self.buckets_touched = 0  # cost oracle: buckets written per append
        self.reindexed_edges = 0  # cost oracle: edges indexed (each once)

    def append_batch(self, dst, times) -> None:
        """Append edges with times ≥ everything already present."""
        dst = np.asarray(dst, dtype=np.int64)
        times = np.asarray(times, dtype=np.float64)
        if dst.size == 0:
            return
        if times.size > 1 and np.any(times[:-1] > times[1:]):
            raise NotSupportedError("batch times must be ascending")
        if self._t_newest is not None and times[0] < self._t_newest:
            raise NotSupportedError(
                f"streaming updates must not precede existing edges "
                f"(got {times[0]} < {self._t_newest})"
            )
        if self._t_ref is None:
            self._t_ref = float(times[0])
        self._t_newest = float(times[-1])
        bid, relw = decay_split(times, self._t_ref, self.weight_model.scale)
        # Bucket ids are non-increasing along the (ascending-time) batch:
        # split it into id-runs, oldest run first, so each run lands on
        # the then-front bucket or opens a new front bucket.
        bounds = np.flatnonzero(np.diff(bid)) + 1
        edges = np.concatenate([[0], bounds, [bid.size]])
        for lo, hi in zip(edges[:-1], edges[1:]):
            b = int(bid[lo])
            if self.buckets and self.buckets[0].bid == b:
                bucket = self.buckets[0]
            else:
                bucket = _RadixBucket(b)
                self.buckets.insert(0, bucket)
            bucket.append(dst[lo:hi], times[lo:hi], relw[lo:hi])
            self.buckets_touched += 1
        self.reindexed_edges += int(dst.size)
        self.num_edges += int(dst.size)

    # -- queries ---------------------------------------------------------------

    def candidate_count(self, t: Optional[float]) -> int:
        if t is None:
            return self.num_edges
        count = 0
        for b in self.buckets:  # newest first
            c = b.newer_than(t)
            count += c
            if c < b.n:
                break
        return count

    def sample(
        self,
        candidate_size: int,
        rng,
        counters: Optional[CostCounters] = None,
    ) -> Tuple[int, float]:
        """Sample among the newest ``candidate_size`` edges ∝ decay weight.

        ITS over per-bucket corrected suffix masses — each bucket's
        mantissa mass times its power-of-two decay correction, rescaled
        so the heaviest covered bucket sits at 2^0 (buckets more than
        ~2^-1074 lighter underflow to zero probability, exactly as
        their raw weights would) — then an exact mantissa ITS inside
        the winning bucket.
        """
        s = int(candidate_size)
        if s <= 0 or s > self.num_edges:
            raise EmptyCandidateSetError(
                f"candidate size {s} invalid for {self.num_edges} edges"
            )
        covered: List[Tuple[_RadixBucket, int]] = []
        masses: List[float] = []
        exponents: List[int] = []
        remaining = s
        for b in self.buckets:
            take = min(remaining, b.n)
            covered.append((b, take))
            masses.append(b.suffix_mass(take))
            exponents.append(b.exponent)
            remaining -= take
            if remaining == 0:
                break
        k_star = max(exponents)
        cum: List[float] = [0.0]
        for mass, e in zip(masses, exponents):
            cum.append(cum[-1] + ldexp(mass, e - k_star))
        total = cum[-1]
        if not (total > 0):
            raise EmptyCandidateSetError("zero-weight candidate set")
        r = draw_in_range(rng, 0.0, total)
        lo_b, hi_b = 0, len(covered)
        while hi_b - lo_b > 1:
            mid = (lo_b + hi_b) // 2
            if counters is not None:
                counters.record_probe()
            if cum[mid] < r:
                lo_b = mid
            else:
                hi_b = mid
        bucket, take = covered[lo_b]
        j = bucket.sample_suffix(take, rng, counters)
        return int(bucket.dst[j]), float(bucket.times[j])

    def edges_desc(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All edges newest-first: ``(dst, times, weights)`` — test oracle.

        Weights are reconstructed global decay weights; buckets far
        below the reference underflow to 0.0 exactly as the raw
        ``exp`` computation would.
        """
        if not self.buckets:
            z = np.zeros(0)
            return z.astype(np.int64), z, z
        dsts, ts, ws = [], [], []
        for b in self.buckets:
            dsts.append(b.dst[: b.n][::-1])
            ts.append(b.times[: b.n][::-1])
            with np.errstate(under="ignore"):
                ws.append(np.ldexp(b.relw[: b.n][::-1], b.exponent))
        return np.concatenate(dsts), np.concatenate(ts), np.concatenate(ws)

    def segments(self) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray, int]]:
        """Newest-first ``(dst, times, mass, exponent)`` per bucket.

        ``mass[k]`` is the mantissa mass of the bucket's newest ``k``
        edges (so one entry more than edges; :meth:`_RadixBucket.
        suffix_mass` for every ``k`` at once) and an edge weighs
        ``mantissa · 2^exponent`` — the shape
        :class:`repro.streaming.snapshot.EpochView` packs, shared with
        the carry forest's ``segments()``.
        """
        return [
            (b.dst[:b.n][::-1], b.times[:b.n][::-1],
             b.cum[b.n] - b.cum[:b.n + 1][::-1], b.exponent)
            for b in self.buckets
        ]

    def num_blocks(self) -> int:
        return len(self.buckets)

    def nbytes(self) -> int:
        return sum(b.nbytes() for b in self.buckets)

    # -- atomicity ---------------------------------------------------------

    def snapshot(self) -> tuple:
        """O(num_buckets) capture for transactional appends.

        Buckets mutate in place, but only *beyond* their current fill
        ``n`` (append-only arrays; capacity growth copies the filled
        prefix), so the pre-batch state is exactly (bucket list, fill
        levels): restoring truncates each surviving bucket back and
        drops buckets the failed batch created.
        """
        return (
            list(self.buckets), [b.n for b in self.buckets],
            self.num_edges, self._t_ref, self._t_newest,
            self.buckets_touched, self.reindexed_edges,
        )

    def restore(self, state: tuple) -> None:
        (self.buckets, fills, self.num_edges, self._t_ref, self._t_newest,
         self.buckets_touched, self.reindexed_edges) = state
        for b, n in zip(self.buckets, fills):
            b.n = n

    def view(self) -> "DecayRadixForest":
        """A frozen copy-on-write capture for epoch-snapshot reads.

        Unlike :meth:`snapshot`/:meth:`restore` — which rewind the
        *live* buckets' fill in place — a view pins each bucket via
        :meth:`_RadixBucket.pin`, so concurrent appends and rollbacks
        on the live forest can never move what the view observes.
        """
        frozen = DecayRadixForest.__new__(DecayRadixForest)
        frozen.weight_model = self.weight_model
        frozen.buckets = [b.pin() for b in self.buckets]
        frozen.num_edges = self.num_edges
        frozen._t_ref = self._t_ref
        frozen._t_newest = self._t_newest
        frozen.merged_edges = self.merged_edges
        frozen.buckets_touched = self.buckets_touched
        frozen.reindexed_edges = self.reindexed_edges
        return frozen
