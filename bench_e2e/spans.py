"""In-memory span recorder for the traced benchmark pass.

The benchmark wraps every call it makes into a layer of ``src/repro`` in
a span: name (``<layer>.<call>``), start, end, the span that caused it,
one trace id per unit of work (round, request, batch) and the counts
observed at the same boundary. Spans stay in memory and are written as
JSONL when the run ends. A span's *self time* is its duration minus the
part of it covered by its direct children.

Spans whose interval was read from a result field (``EngineResult.timer``)
rather than measured around a call are added with :meth:`Recorder.add`
and carry ``derived: true``.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Recorder:
    """Collects spans; safe to use from several client threads at once
    (each thread has its own open-span stack)."""

    def __init__(self, clock=time.perf_counter):
        self.spans: List[dict] = []
        self._clock = clock
        self._lock = threading.Lock()
        self._local = threading.local()
        self._traces = 0

    def _stack(self) -> List[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new(self, name: str, start: float, end: Optional[float],
             counts: dict, derived: bool) -> dict:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            if parent is None:
                trace = self._traces
                self._traces += 1
            else:
                trace = parent["trace"]
            span = {
                "id": len(self.spans),
                "parent": None if parent is None else parent["id"],
                "trace": trace,
                "name": name,
                "start": start,
                "end": end,
                "counts": dict(counts),
            }
            if derived:
                span["derived"] = True
            self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, **counts) -> Iterator[dict]:
        """Time the body. A span opened with no span open on this thread
        starts a new trace. The yielded dict's ``counts`` may be filled
        in by the body."""
        span = self._new(name, self._clock(), None, counts, derived=False)
        stack = self._stack()
        stack.append(span)
        try:
            yield span
        finally:
            span["end"] = self._clock()
            stack.pop()

    def add(self, name: str, start: float, seconds: float, **counts) -> dict:
        """Record an interval the program reported (not measured here) as
        a child of the currently open span."""
        return self._new(name, start, start + seconds, counts, derived=True)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the durations of its direct children."""
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def self_time_by_name(self) -> Dict[str, float]:
        own = self.self_times()
        out: Dict[str, float] = {}
        for s in self.spans:
            out[s["name"]] = out.get(s["name"], 0.0) + own[s["id"]]
        return out

    def coverage(self, root_name: str) -> float:
        """Share of the ``root_name`` spans' wall time that their
        descendants account for (1 - root self time / root wall)."""
        own = self.self_times()
        wall = unattributed = 0.0
        for s in self.spans:
            if s["name"] == root_name:
                wall += s["end"] - s["start"]
                unattributed += own[s["id"]]
        return 1.0 - unattributed / wall if wall else 0.0

    def write_jsonl(self, path, **stamp) -> int:
        """Append every span (plus ``self_s`` and the ``stamp`` fields) to
        ``path``, one JSON object per line; returns the span count."""
        own = self.self_times()
        with open(path, "a") as fh:
            for s in self.spans:
                fh.write(json.dumps({**stamp, **s, "self_s": own[s["id"]]}))
                fh.write("\n")
        return len(self.spans)


class NullRecorder(Recorder):
    """The untraced pass: ``span`` still times its body (callers read
    ``start``/``end`` off the yielded dict) but nothing is kept."""

    @contextmanager
    def span(self, name: str, **counts) -> Iterator[dict]:
        span = {"start": self._clock(), "end": None, "counts": {}}
        try:
            yield span
        finally:
            span["end"] = self._clock()

    def add(self, name: str, start: float, seconds: float, **counts) -> None:
        return None
