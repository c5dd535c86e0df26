"""Nested span tracing (the structured successor to ``PhaseTimer``).

A :class:`Span` is one timed region with attributes and children; a
:class:`Tracer` maintains the active-span stack, collects finished root
spans, and decides which walks get traced. ``prepare`` and ``walk`` are
root spans; preprocessing emits child spans (candidate search, weight
computation, index build, aux-index build, trunk spill), and a
configurable 1-in-N sampling rate bounds per-walk tracing overhead: only
sampled walks open a ``walk.one`` span and pay for per-step timing.

The tracer is deliberately single-threaded (one stack); parallel workers
each get their own tracer/registry and results are merged — the same
per-worker discipline as :class:`~repro.telemetry.MetricsRegistry`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from repro.telemetry.clock import now as _now


class Span:
    """One timed region: name, wall-clock bounds, attributes, children."""

    __slots__ = ("name", "start", "end", "attributes", "children")

    def __init__(self, name: str, start_time: Optional[float] = None, **attributes):
        # The clock parameter is deliberately NOT called ``start`` so
        # that ``start`` stays usable as an ordinary span attribute.
        self.name = name
        self.start = _now() if start_time is None else start_time
        self.end: Optional[float] = None
        self.attributes: Dict[str, object] = dict(attributes)
        self.children: List["Span"] = []

    def set(self, key: str, value) -> "Span":
        self.attributes[key] = value
        return self

    def close(self, end: Optional[float] = None) -> "Span":
        if self.end is None:
            self.end = _now() if end is None else end
        return self

    @property
    def duration(self) -> float:
        if self.end is None:
            return 0.0
        return self.end - self.start

    def walk(self) -> Iterator["Span"]:
        """Depth-first iteration over this span and its descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self, origin: float = 0.0) -> dict:
        """JSON-ready form; times are seconds relative to ``origin``."""
        out = {
            "name": self.name,
            "start": self.start - origin,
            "duration": self.duration,
        }
        if self.attributes:
            out["attributes"] = dict(self.attributes)
        if self.children:
            out["children"] = [c.to_dict(origin) for c in self.children]
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.duration * 1e3:.3f} ms, children={len(self.children)})"


class _NullSpan:
    """Shared no-op span handed out by disabled tracers."""

    __slots__ = ()

    def set(self, key, value):
        return self

    @property
    def duration(self) -> float:
        return 0.0


NULL_SPAN = _NullSpan()


class Tracer:
    """Span collector with an active stack and per-walk sampling.

    Parameters
    ----------
    enabled:
        When False every ``span()`` is a no-op yielding a shared null
        span — the off switch costs one attribute check.
    walk_sample_every:
        Per-walk trace sampling: 0 disables walk-level spans entirely;
        N >= 1 traces one walk in every N (walk indices where
        ``index % N == 0``), which keeps tracing overhead proportional
        to 1/N.
    """

    def __init__(self, enabled: bool = True, walk_sample_every: int = 0):
        self.enabled = bool(enabled)
        self.walk_sample_every = int(walk_sample_every)
        self.roots: List[Span] = []
        self._stack: List[Span] = []

    @contextmanager
    def span(self, name: str, **attributes):
        if not self.enabled:
            yield NULL_SPAN
            return
        span = Span(name, **attributes)
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            span.close()

    def sample_walk(self, walk_index: int) -> bool:
        """Should this walk get its own span (and per-step timing)?"""
        if not self.enabled or self.walk_sample_every <= 0:
            return False
        return walk_index % self.walk_sample_every == 0

    # -- views ---------------------------------------------------------------

    def phase_seconds(self) -> Dict[str, float]:
        """Root-span durations keyed by name (the ``PhaseTimer`` view).

        Repeated root names accumulate, matching the old timer's
        semantics for sequential re-entry.
        """
        out: Dict[str, float] = {}
        for root in self.roots:
            out[root.name] = out.get(root.name, 0.0) + root.duration
        return out

    def find(self, name: str) -> List[Span]:
        """All finished spans with the given name, depth-first order."""
        return [s for root in self.roots for s in root.walk() if s.name == name]

    def to_dicts(self) -> List[dict]:
        """JSON-ready roots; times relative to the earliest root start."""
        if not self.roots:
            return []
        origin = min(root.start for root in self.roots)
        return [root.to_dict(origin) for root in self.roots]

    def merge(self, other: "Tracer") -> "Tracer":
        """Adopt another tracer's finished roots (per-worker fold)."""
        self.roots.extend(other.roots)
        return self


#: Shared disabled tracer: safe to hand to any engine as the default —
#: it never records, so sharing the instance is free of cross-talk.
NULL_TRACER = Tracer(enabled=False)
