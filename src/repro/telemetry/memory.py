"""Memory accounting: structure bytes (Figures 9/12b).

:class:`MemoryReport` holds the exact ``nbytes`` of every array a
structure owns. The paper compares engines by the bytes their sampling
structures occupy; accounting exactly avoids the interpreter noise that
dominates process RSS in Python. (The OS-level view — max RSS, page
faults, CPU time — is the phase profiler's rusage bracket,
:func:`repro.telemetry.profile.sample_rusage`.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


def format_bytes(n: int) -> str:
    """Human-readable bytes (KiB/MiB/GiB)."""
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if value < 1024.0 or unit == "TiB":
            return f"{value:.2f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024.0
    return f"{value:.2f} TiB"


@dataclass
class MemoryReport:
    """Per-component byte counts for one engine configuration."""

    components: Dict[str, int] = field(default_factory=dict)

    def add(self, name: str, nbytes: int) -> "MemoryReport":
        self.components[name] = self.components.get(name, 0) + int(nbytes)
        return self

    @property
    def total(self) -> int:
        return sum(self.components.values())

    def fraction(self, name: str) -> float:
        """Share of the total held by one component (e.g. the paper's
        observation that the HPAT index is 82.5%–91.2% of TEA's memory)."""
        total = self.total
        return self.components.get(name, 0) / total if total else 0.0

    def pretty(self) -> str:
        lines = [f"total: {format_bytes(self.total)}"]
        for name, nbytes in sorted(self.components.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {name}: {format_bytes(nbytes)}")
        return "\n".join(lines)
