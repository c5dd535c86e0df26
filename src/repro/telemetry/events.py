"""Structured JSONL event log with a per-run ``run_id``.

The resilience and cache layers count what happened (retries,
degradations, evictions) but counters cannot answer *when* or *in what
order* — which is the question during an incident. This module turns
those counters into a correlatable timeline: one :class:`EventLog` per
run, installed process-wide, collecting dict events that all carry the
same ``run_id``:

* ``emit(kind, **fields)`` — the module-level fire-and-forget hook the
  instrumented layers call. When no log is installed it is one global
  read and a ``None`` check, so always-on instrumentation stays free.
* The parallel executor propagates the run: thread/serial workers
  share the parent's installed log directly; forked process workers
  inherit it (fork start method) and ship the events recorded during a
  chunk back inside the :class:`~repro.parallel.worker.ChunkResult`,
  where the engine folds them into the parent log at the barrier.

Event kinds and one documented example line each live in
``docs/observability.md``. Every event carries ``ts`` (epoch seconds),
``run_id``, ``pid``, and ``kind``; emitters add site-specific fields.
"""

from __future__ import annotations

import json
import os
import uuid
from typing import List, Optional

from repro.telemetry.clock import wall as _wall


def new_run_id() -> str:
    """A fresh 16-hex-char run correlation id."""
    return uuid.uuid4().hex[:16]


class EventLog:
    """In-memory buffer of structured events, serialisable as JSONL.

    Appends are plain ``list.append`` — atomic under the GIL, so thread
    workers emit into the shared parent log without locking. Forked
    process workers get a copy-on-write snapshot; their new events ship
    back explicitly (see :mod:`repro.parallel.worker`).
    """

    def __init__(self, run_id: Optional[str] = None):
        self.run_id = run_id if run_id is not None else new_run_id()
        self.events: List[dict] = []
        self.dropped = 0

    def __len__(self) -> int:
        return len(self.events)

    def emit(self, kind: str, **fields) -> dict:
        event = {
            "ts": _wall(),
            "run_id": self.run_id,
            "pid": os.getpid(),
            "kind": kind,
        }
        event.update(fields)
        self.events.append(event)
        return event

    def extend(self, events) -> None:
        """Adopt events shipped back from a worker process."""
        self.events.extend(events)

    def trim(self, keep: int) -> None:
        """Forget all but the newest ``keep`` events, counting the rest
        in ``dropped`` — how a process without an end (the serve daemon)
        bounds its log. One trimming thread at a time; emitters need not
        pause (the slice delete is atomic under the GIL)."""
        excess = len(self.events) - keep
        if excess > 0:
            del self.events[:excess]
            self.dropped += excess

    def kinds(self) -> List[str]:
        return [e["kind"] for e in self.events]

    def lines(self):
        """JSONL rendering, one compact line per event, time-ordered."""
        for event in sorted(self.events, key=lambda e: e.get("ts", 0.0)):
            yield json.dumps(event, sort_keys=True)

    def write(self, path) -> int:
        """Write the log as JSONL; returns the number of events written."""
        with open(path, "w") as fh:
            for line in self.lines():
                fh.write(line + "\n")
        return len(self.events)

    @staticmethod
    def read(path) -> List[dict]:
        """Parse a JSONL event file back into dicts (blank lines skipped)."""
        out = []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    out.append(json.loads(line))
        return out


# ---------------------------------------------------------------------------
# Process-wide installation
# ---------------------------------------------------------------------------
#
# One active log per process keeps the emit sites trivially cheap and
# means forked workers inherit the installed log for free. install()
# returns the previous log so callers can restore it (nesting runs).

_CURRENT: Optional[EventLog] = None


def install(log: Optional[EventLog]) -> Optional[EventLog]:
    """Install ``log`` as the process-wide event sink; returns the old one."""
    global _CURRENT
    previous = _CURRENT
    _CURRENT = log
    return previous


def current() -> Optional[EventLog]:
    """The installed event log, or ``None``."""
    return _CURRENT


def current_run_id() -> Optional[str]:
    """The installed log's run id, or ``None`` when no log is active."""
    return _CURRENT.run_id if _CURRENT is not None else None


def emit(kind: str, **fields) -> Optional[dict]:
    """Emit into the installed log; a no-op returning ``None`` without one."""
    log = _CURRENT
    if log is None:
        return None
    return log.emit(kind, **fields)
