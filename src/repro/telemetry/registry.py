"""Mergeable metrics: counters, gauges, and log-scale histograms.

The registry is the single sink for *what happened*: every engine,
sampler, cache, and streaming batch counts into it (where the time went
is the phase recorder's, :class:`~repro.telemetry.PhaseProfiler`).
Design constraints, in order:

* **per-step cheap** — ``Counter.inc`` is one attribute add and
  ``Histogram.observe`` is one C-level ``bisect`` over precomputed
  bucket bounds, so the scalar walk loop can afford them;
* **mergeable** — registries are plain objects with an associative
  :meth:`MetricsRegistry.merge`, so the parallel builders and the
  parallel walk executor give every worker its *own*
  registry and fold them together at the end (no locks in hot paths —
  see the thread-safety note on
  :class:`~repro.sampling.counters.CostCounters`);
* **exportable** — :mod:`repro.telemetry.exporters` renders one registry
  as Prometheus text exposition, a schema-versioned JSON run report, or
  a human table.

Metric names are dotted (``sampling.steps``, ``cache.hits``,
``walk.length``); exporters sanitise them per format. The catalogue of
names the stack emits lives in ``docs/observability.md``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Union

import numpy as np

Number = Union[int, float]

_GAUGE_AGGS = ("last", "sum", "max", "min")


class Counter:
    """Monotonically increasing named value."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value: Number = 0

    def inc(self, n: Number = 1) -> None:
        self.value += n


class Gauge:
    """Point-in-time named value with a declared merge aggregation.

    ``agg`` decides what :meth:`MetricsRegistry.merge` does when two
    registries both carry the gauge: ``"last"`` (the merged-in value
    wins), ``"sum"``, ``"max"``, or ``"min"``. All four are associative,
    which keeps registry merging order-insensitive up to ``"last"``'s
    explicit ordering semantics.
    """

    __slots__ = ("name", "help", "agg", "value")

    def __init__(self, name: str, help: str = "", agg: str = "last"):
        if agg not in _GAUGE_AGGS:
            raise ValueError(f"agg must be one of {_GAUGE_AGGS}, got {agg!r}")
        self.name = name
        self.help = help
        self.agg = agg
        self.value: Optional[Number] = None

    def set(self, value: Number) -> None:
        self.value = value

    def update(self, value: Optional[Number]) -> None:
        """Fold one incoming value in, honouring the aggregation."""
        if value is None:
            return
        if self.value is None or self.agg == "last":
            self.value = value
        elif self.agg == "sum":
            self.value += value
        elif self.agg == "max":
            self.value = max(self.value, value)
        else:  # min
            self.value = min(self.value, value)


class Histogram:
    """Log-scale (geometric) histogram.

    Bucket *i* covers values ``<= start * growth**i``; one overflow
    bucket catches the rest and a dedicated underflow bucket catches
    values ``<= 0``. The defaults (start=1, growth=2, 32 buckets) suit
    the integer quantities the walk loop observes — walk length,
    rejection trials per step, trunk bytes loaded; sub-second latencies
    use ``start=1e-6`` (see :data:`LATENCY_BUCKETS`).

    ``observe`` is one ``bisect_left`` over the precomputed bounds —
    cheap enough to call per sampling step.
    """

    __slots__ = ("name", "help", "start", "growth", "bounds", "counts",
                 "zero_count", "count", "total", "min", "max")

    def __init__(self, name: str, help: str = "", start: float = 1.0,
                 growth: float = 2.0, buckets: int = 32):
        if start <= 0 or growth <= 1:
            raise ValueError("start must be > 0 and growth > 1")
        self.name = name
        self.help = help
        self.start = float(start)
        self.growth = float(growth)
        self.bounds: List[float] = [start * growth ** i for i in range(int(buckets))]
        self.counts: List[int] = [0] * (len(self.bounds) + 1)  # + overflow
        self.zero_count = 0
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: Number) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value <= 0:
            self.zero_count += 1
            return
        self.counts[bisect_left(self.bounds, value)] += 1

    def observe_n(self, value: Number, n: int) -> None:
        """Record ``value`` ``n`` times in one update.

        Hot loops that see few distinct values (e.g. walk lengths)
        accumulate a ``Counter`` locally and fold it in here, paying one
        bisect per distinct value instead of one call per observation.
        """
        self.count += n
        self.total += value * n
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value <= 0:
            self.zero_count += n
            return
        self.counts[bisect_left(self.bounds, value)] += n

    def observe_array(self, values: np.ndarray) -> None:
        """``observe`` every element of an integer array in a few array
        passes — a bucket index per element, a count per bucket, no sort."""
        if not values.size:
            return
        positive = values[values > 0]
        self.fold(values.size, int(values.sum()), values.size - positive.size,
                  int(values.min()), int(values.max()),
                  np.bincount(np.searchsorted(self.bounds, positive),
                              minlength=len(self.counts)).tolist())

    def fold(self, count: int, total: Number, zero_count: int, low: Number,
             high: Number, counts: List[int]) -> None:
        """Add ``count`` observations given as their sum, how many were
        ``<= 0``, the least and greatest, and how many fell in each bucket
        (``counts`` may run past the overflow bucket with zeros)."""
        if not count:
            return
        self.count += count
        self.total += total
        self.zero_count += zero_count
        self.min = min(self.min, low)
        self.max = max(self.max, high)
        for i, n in enumerate(counts[:len(self.counts)]):
            self.counts[i] += n

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def scheme(self) -> tuple:
        return (self.start, self.growth, len(self.bounds))

    def bucket_bounds(self) -> List[float]:
        """Finite upper bounds; the implicit last bucket is +Inf."""
        return list(self.bounds)

    def merge_from(self, other: "Histogram") -> None:
        if other.scheme() != self.scheme():
            raise ValueError(
                f"histogram {self.name!r}: incompatible bucket schemes "
                f"{self.scheme()} vs {other.scheme()}"
            )
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.zero_count += other.zero_count
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": None if self.count == 0 else self.min,
            "max": None if self.count == 0 else self.max,
            "start": self.start,
            "growth": self.growth,
            "zero_count": self.zero_count,
            "bounds": self.bucket_bounds(),
            "counts": list(self.counts),
        }


#: Histogram kwargs suited to sub-second latencies (1 µs … ~4.7 s).
LATENCY_BUCKETS = {"start": 1e-6, "growth": 2.0, "buckets": 23}

#: Histogram kwargs suited to byte volumes (64 B … ~4 GiB).
BYTES_BUCKETS = {"start": 64.0, "growth": 4.0, "buckets": 13}


class MetricsRegistry:
    """Named bag of counters, gauges, and histograms.

    Accessors are get-or-create and idempotent; asking for an existing
    name with a different metric kind raises. Workers each hold their
    own registry and the owner folds them with :meth:`merge` — merge is
    associative (tested), so fold order does not matter.
    """

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- get-or-create accessors -------------------------------------------

    def _check_free(self, name: str, kind: dict) -> None:
        for store, label in ((self._counters, "counter"),
                             (self._gauges, "gauge"),
                             (self._histograms, "histogram")):
            if store is not kind and name in store:
                raise ValueError(f"metric {name!r} already registered as a {label}")

    def counter(self, name: str, help: str = "") -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            self._check_free(name, self._counters)
            metric = self._counters[name] = Counter(name, help)
        return metric

    def gauge(self, name: str, help: str = "", agg: str = "last") -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            self._check_free(name, self._gauges)
            metric = self._gauges[name] = Gauge(name, help, agg=agg)
        return metric

    def histogram(self, name: str, help: str = "", **scheme) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            self._check_free(name, self._histograms)
            metric = self._histograms[name] = Histogram(name, help, **scheme)
        return metric

    # -- convenience ---------------------------------------------------------

    def inc(self, name: str, n: Number = 1) -> None:
        self.counter(name).inc(n)

    def observe(self, name: str, value: Number, **scheme) -> None:
        self.histogram(name, **scheme).observe(value)

    def set_gauge(self, name: str, value: Number, agg: str = "last") -> None:
        self.gauge(name, agg=agg).set(value)

    # -- views ---------------------------------------------------------------

    def counters(self) -> Iterable[Counter]:
        return self._counters.values()

    def gauges(self) -> Iterable[Gauge]:
        return self._gauges.values()

    def histograms(self) -> Iterable[Histogram]:
        return self._histograms.values()

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def __contains__(self, name: str) -> bool:
        return (name in self._counters or name in self._gauges
                or name in self._histograms)

    def counter_value(self, name: str) -> Number:
        return self._counters[name].value if name in self._counters else 0

    def gauge_value(self, name: str) -> Optional[Number]:
        return self._gauges[name].value if name in self._gauges else None

    # -- merging -------------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other`` into self; returns self. Associative."""
        for c in other._counters.values():
            self.counter(c.name, c.help).inc(c.value)
        for g in other._gauges.values():
            self.gauge(g.name, g.help, agg=g.agg).update(g.value)
        for h in other._histograms.values():
            mine = self.histogram(h.name, h.help, start=h.start,
                                  growth=h.growth, buckets=len(h.bounds))
            mine.merge_from(h)
        return self

    def snapshot(self) -> dict:
        """Plain-dict view (the JSON report's metrics sections)."""
        return {
            "counters": {c.name: c.value for c in self._counters.values()},
            "gauges": {g.name: g.value for g in self._gauges.values()},
            "histograms": {h.name: h.snapshot() for h in self._histograms.values()},
        }
