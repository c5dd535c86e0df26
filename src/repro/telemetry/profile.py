"""The one phase recorder: run phases, spans and the per-phase profile.

Every timed region of a run is a frame on one :class:`PhaseProfiler`
stack:

* ``with recorder.phase("gather"):`` charges ``[calls, inclusive, self]``
  to the frame's full stack path, flamegraph-style — the phase table and
  the collapsed stacks;
* ``with recorder.span("prepare.weights", kind=...) as span:`` does the
  same and also keeps a :class:`Span` (wall bounds, attributes,
  children) under the innermost open span. Spans are kept for the run
  roots (``prepare``, ``walk``, ``finalize``), ``prepare.*``,
  ``walk.chunk`` and the sampled ``walk.one`` walks (one in
  ``walk_sample_every``, :meth:`PhaseProfiler.sample_walk`); they are
  the span tree of the JSON run report.

The profiler times itself: a calibration loop at construction measures
the per-frame bookkeeping cost on this host, and ``overhead_seconds``
reports ``events × per-event cost`` — the measurement error is itself
measured. :func:`sample_rusage` readings bracket the profile, so
page-fault and RSS deltas sit next to the phase table (I/O-bound phases
show up as major faults, the ThunderRW discipline).
:meth:`PhaseProfiler.bare` is the recorder without either: what a run
records its roots and spans into when no profiler is attached, and what
each parallel chunk ships back.

A recorder is **single-threaded by design** — one stack. Parallel
workers each record their chunk into their own and the parent folds the
snapshots in under its open ``walk`` frame (:meth:`PhaseProfiler.absorb`),
the same per-worker discipline as the metrics registry.
:data:`NULL_PROFILER` (also :data:`NULL_SPAN`) is the one off switch:
profiler, frame and span at once, costing one method call per
instrumented site.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, Tuple

from repro.telemetry.clock import now as _now

#: Enter/exit cycles the construction-time calibration loop runs to
#: estimate per-event bookkeeping cost. 256 pairs cost ~100 µs once.
CALIBRATION_EVENTS = 256

#: Phase paths are stored as tuples of names; rendered joined by ";"
#: (the collapsed-stack separator flamegraph tools expect).
PathKey = Tuple[str, ...]


class Span:
    """One kept frame: name, wall-clock bounds, attributes, children."""

    __slots__ = ("name", "start", "end", "attributes", "children")

    def __init__(self, name: str, attributes: Dict[str, object]):
        self.name = name
        self.start = 0.0
        self.end: Optional[float] = None
        self.attributes = attributes
        self.children: List["Span"] = []

    def set(self, key: str, value) -> "Span":
        self.attributes[key] = value
        return self

    @property
    def duration(self) -> float:
        return 0.0 if self.end is None else self.end - self.start

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


class _Null:
    """The off switch: a stateless profiler, frame and span in one, so
    one shared instance serves every engine. Opening a phase or span,
    entering it and setting an attribute hand back the null object;
    every other call does nothing and answers False."""

    __slots__ = ()
    enabled = False
    walk_sample_every = 0

    def phase(self, *args, **kwargs) -> "_Null":
        return self

    def __exit__(self, *args, **kwargs) -> bool:
        return False

    span = set = __enter__ = phase
    sample_walk = add_seconds = absorb = __exit__


NULL_PROFILER = NULL_SPAN = _Null()


class _Frame:
    """One open frame: charges its path on exit; a span frame also
    closes its :class:`Span` (which ``with`` hands out in its place)."""

    __slots__ = ("recorder", "path", "span", "start", "child_seconds")

    def __init__(self, recorder: "PhaseProfiler", path: PathKey):
        self.recorder = recorder
        self.path = path
        self.span: Optional[Span] = None
        self.start = 0.0
        self.child_seconds = 0.0

    def __enter__(self):
        self.recorder._stack.append(self)
        self.start = _now()
        if self.span is None:
            return self
        self.span.start = self.start
        return self.span

    def __exit__(self, *exc):
        end = _now()
        rec = self.recorder
        rec._stack.pop()
        inclusive = end - self.start
        rec._add(self.path, 1, inclusive, inclusive - self.child_seconds)
        rec.events += 1
        if rec._stack:
            rec._stack[-1].child_seconds += inclusive
        if self.span is not None:
            self.span.end = end
        return False


class PhaseProfiler:
    """Stack-based recorder of phases and spans.

    ``phases`` maps a path tuple to ``[calls, inclusive_s, self_s]``;
    ``roots`` holds the finished root spans. Self time can go *negative*
    for a frame whose absorbed children overlap in real time (parallel
    chunks folded under one ``walk`` frame); rendering clamps it at zero.
    """

    enabled = True
    #: A :meth:`bare` recorder keeps these: no rusage bracket, no
    #: overhead estimate.
    rusage_start = None
    per_event_seconds = 0.0

    def __init__(self, calibrate: bool = True):
        self._reset()
        self.rusage_start = sample_rusage()
        #: Seconds of bookkeeping per frame enter/exit pair, measured on
        #: this host (the process-wide cached value when not calibrating).
        self.per_event_seconds = (
            _calibrate_per_event() if calibrate else _PER_EVENT_CACHE or 0.0
        )

    @classmethod
    def bare(cls) -> "PhaseProfiler":
        """A recorder that neither calibrates nor samples rusage."""
        recorder = cls.__new__(cls)
        recorder._reset()
        return recorder

    def _reset(self) -> None:
        self.phases: Dict[PathKey, List[float]] = {}
        self.roots: List[Span] = []
        self.events = 0
        #: Trace one walk in every N (``walk_index % N == 0``); 0 traces none.
        self.walk_sample_every = 0
        self._stack: List[_Frame] = []

    # -- recording ---------------------------------------------------------

    def phase(self, name: str) -> _Frame:
        """Open a phase; use as ``with recorder.phase("gather"):``."""
        prefix = self._stack[-1].path if self._stack else ()
        return _Frame(self, prefix + (name,))

    def span(self, name: str, **attributes) -> _Frame:
        """Open a phase that also keeps a :class:`Span` with
        ``attributes``; ``with`` yields the span."""
        frame = self.phase(name)
        frame.span = Span(name, attributes)
        parent = self._open_span()
        (parent.children if parent is not None else self.roots).append(frame.span)
        return frame

    def sample_walk(self, walk_index: int) -> bool:
        """Should this walk get its own ``walk.one`` span (and per-step
        timing)? Walk 0 is sampled whenever any walk is."""
        every = self.walk_sample_every
        return every > 0 and walk_index % every == 0

    def _open_span(self) -> Optional[Span]:
        for frame in reversed(self._stack):
            if frame.span is not None:
                return frame.span
        return None

    def _add(self, path: PathKey, calls: int, inclusive: float,
             self_seconds: float) -> None:
        cell = self.phases.get(path)
        if cell is None:
            self.phases[path] = [calls, inclusive, self_seconds]
        else:
            cell[0] += calls
            cell[1] += inclusive
            cell[2] += self_seconds

    def add_seconds(self, path, seconds: float, calls: int = 1) -> None:
        """Charge externally-measured seconds to ``path`` under the open
        frame, as a leaf that overlaps it: the open frame's self time is
        unchanged (the parallel engine's per-chunk queue waits, which
        overlap other chunks' execution)."""
        prefix = self._stack[-1].path if self._stack else ()
        self._add(prefix + tuple(path), calls, seconds, seconds)

    def absorb(self, snapshot: dict) -> None:
        """Fold a worker recorder's :meth:`snapshot` in under the open
        frame: its rows nest under that frame's path, its root rows count
        as time inside the frame (so they come out of its self time) and
        its root spans join the innermost open span. Associative like the
        registry merge: chunks in any completion order fold alike."""
        open_frame = self._stack[-1] if self._stack else None
        prefix = open_frame.path if open_frame is not None else ()
        for joined, cell in snapshot["phases"].items():
            path = tuple(joined.split(";"))
            self._add(prefix + path, cell["calls"], cell["inclusive_s"],
                      cell["self_s"])
            if open_frame is not None and len(path) == 1:
                open_frame.child_seconds += cell["inclusive_s"]
        parent = self._open_span()
        (parent.children if parent is not None else self.roots).extend(
            snapshot.get("spans", ()))
        self.events += int(snapshot.get("events", 0))

    # -- views -------------------------------------------------------------

    @property
    def overhead_seconds(self) -> float:
        """Estimated profiler bookkeeping cost included in this profile."""
        return self.events * self.per_event_seconds

    def root_seconds(self) -> float:
        """Sum of inclusive time over root phases (≈ profiled wall time)."""
        return sum(
            cell[1] for path, cell in self.phases.items() if len(path) == 1
        )

    def phase_seconds(self, name: str) -> float:
        """Inclusive seconds of every path ending in ``name``."""
        return sum(
            cell[1] for path, cell in self.phases.items() if path[-1] == name
        )

    def snapshot(self) -> dict:
        """Picklable form (ships from workers): the JSON-ready phase
        table, the root :class:`Span` objects and the event count."""
        return {
            "phases": {
                ";".join(path): {
                    "calls": int(cell[0]),
                    "inclusive_s": cell[1],
                    "self_s": cell[2],
                }
                for path, cell in sorted(self.phases.items())
            },
            "spans": list(self.roots),
            "events": self.events,
        }

    # -- rendering ---------------------------------------------------------

    def collapsed_stacks(self) -> str:
        """Flamegraph-compatible collapsed-stack text (self time, µs).

        One line per path: ``root;child;leaf <count>`` where the count
        is integer microseconds of *self* time (clamped at zero — see
        the class note on absorbed children).
        """
        lines = []
        for path, cell in sorted(self.phases.items()):
            micros = int(round(max(cell[2], 0.0) * 1e6))
            lines.append(f"{';'.join(path)} {micros}")
        return "\n".join(lines) + ("\n" if lines else "")

    def format_table(self, wall_seconds: Optional[float] = None) -> str:
        """Human phase table: inclusive/self/calls/share, plus footers
        for coverage (vs ``wall_seconds``), overhead, and rusage."""
        total = self.root_seconds()
        lines = [
            f"{'phase':<40} {'calls':>8} {'incl_s':>10} {'self_s':>10} {'share':>7}"
        ]
        for path, cell in sorted(self.phases.items()):
            label = "  " * (len(path) - 1) + path[-1]
            share = (cell[1] / total * 100.0) if total else 0.0
            lines.append(
                f"{label:<40} {int(cell[0]):>8} {cell[1]:>10.4f} "
                f"{max(cell[2], 0.0):>10.4f} {share:>6.1f}%"
            )
        lines.append(
            f"profiled: {total:.4f}s over {self.events} phase events; "
            f"estimated profiler overhead {self.overhead_seconds * 1e3:.3f} ms"
        )
        if wall_seconds:
            lines.append(
                f"coverage: {total / wall_seconds * 100.0:.1f}% of "
                f"{wall_seconds:.4f}s wall"
            )
        if self.rusage_start is not None:
            a, b = self.rusage_start, sample_rusage()
            # ru_maxrss is a per-process peak, in KiB (bytes on macOS).
            max_rss_kib = b.ru_maxrss // (1024 if sys.platform == "darwin" else 1)
            lines.append(
                f"rusage: maxrss={max_rss_kib} KiB "
                f"majflt={b.ru_majflt - a.ru_majflt} "
                f"minflt={b.ru_minflt - a.ru_minflt} "
                f"utime={b.ru_utime - a.ru_utime:.3f}s "
                f"stime={b.ru_stime - a.ru_stime:.3f}s"
            )
        return "\n".join(lines)


def sample_rusage():
    """``getrusage(RUSAGE_SELF)`` (max RSS, page faults, CPU time), or
    ``None`` where unavailable (Windows)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return None
    return resource.getrusage(resource.RUSAGE_SELF)


# ---------------------------------------------------------------------------
# Overhead calibration
# ---------------------------------------------------------------------------

_PER_EVENT_CACHE: Optional[float] = None


def _calibrate_per_event() -> float:
    """Measure this host's per-phase bookkeeping cost (cached).

    Runs a throwaway recorder through ``CALIBRATION_EVENTS`` enter/exit
    pairs and divides. Cached per process so ``calibrate=False``
    profilers (which read the cache) and repeated CLI runs never pay it
    twice.
    """
    global _PER_EVENT_CACHE
    if _PER_EVENT_CACHE is None:
        probe = PhaseProfiler.bare()
        t0 = _now()
        for _ in range(CALIBRATION_EVENTS):
            with probe.phase("calibrate"):
                pass
        _PER_EVENT_CACHE = (_now() - t0) / CALIBRATION_EVENTS
    return _PER_EVENT_CACHE
