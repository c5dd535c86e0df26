"""Per-run phase seconds: the ``EngineResult.timer`` accumulator.

Spans carry attributes and the profiler attributes cost inside a phase,
but a disabled :class:`~repro.telemetry.Tracer` records nothing and the
profiler is off by default; this is the always-on wall-clock total per
run phase that ``prepare_seconds`` / ``walk_seconds`` read. Engines
fill it from exactly one place, :meth:`repro.engines.base.Engine._phase`,
which opens each phase once — so there is no nesting to account for.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator

from repro.telemetry.clock import now as _now


@dataclass
class PhaseTimer:
    """Accumulates wall-clock seconds per named phase; sequential
    re-entry of a name adds up."""

    seconds: Dict[str, float] = field(default_factory=dict)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        start = _now()
        try:
            yield
        finally:
            self.seconds[name] = self.seconds.get(name, 0.0) + (_now() - start)

    @property
    def total(self) -> float:
        return sum(self.seconds.values())

    def snapshot(self) -> Dict[str, float]:
        out = dict(self.seconds)
        out["total"] = self.total
        return out
