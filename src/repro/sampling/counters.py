"""Cost accounting shared by every sampler and engine.

The paper's headline efficiency metric (Figure 2) is the *average sampling
cost*: edges evaluated per sampling step. Wall-clock comparisons between a
C++ engine and pure Python are meaningless, so every sampler in this
library increments a :class:`CostCounters` as it works, and benchmarks
report both wall time and this model. Conventions:

* full-scan: +|Γ| edge evaluations per step (it touches every candidate);
* rejection: +1 per trial (each trial evaluates one edge's weight);
* ITS binary search: +1 per probe (each probe compares one prefix entry);
* PAT/HPAT: +1 per trunk-boundary probe, +1 for the in-trunk alias draw.

I/O counters serve the out-of-core experiments (Figure 14): a *block* is
one disk read of :data:`BLOCK_BYTES` bytes.

**Thread safety.** A ``CostCounters`` is plain mutable state with
read-modify-write increments; sharing one instance across concurrently
executing walkers silently loses updates (``+=`` is not atomic once the
GIL yields between the load and the store, and free-threaded builds
drop even that accident of protection). Every parallel path in this
repo therefore gives each worker its *own* counters and folds them with
:meth:`CostCounters.merge` (or :meth:`CostCounters.merge_all` over a
whole worker set) at the end — the parallel walk executor's per-chunk counters
(:mod:`repro.parallel`), and the telemetry registry's merge path
(:meth:`publish` into per-worker
:class:`~repro.telemetry.MetricsRegistry` instances) all follow this
discipline. Do not share one instance across threads or processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

BLOCK_BYTES = 4096


@dataclass
class CostCounters:
    """Mutable tally of sampling work. Cheap to pass around; NOT
    thread-safe — use one per worker and :meth:`merge` (see the module
    docstring)."""

    steps: int = 0
    edges_evaluated: int = 0
    rejection_trials: int = 0
    rejected: int = 0
    binary_search_probes: int = 0
    alias_draws: int = 0
    io_blocks: int = 0
    io_bytes: int = 0

    def record_step(self) -> None:
        self.steps += 1

    def record_scan(self, num_edges: int) -> None:
        self.edges_evaluated += int(num_edges)

    def record_trial(self, accepted: bool) -> None:
        self.rejection_trials += 1
        self.edges_evaluated += 1
        if not accepted:
            self.rejected += 1

    def record_probe(self, n: int = 1) -> None:
        self.binary_search_probes += int(n)
        self.edges_evaluated += int(n)

    def record_alias_draw(self) -> None:
        self.alias_draws += 1
        self.edges_evaluated += 1

    def record_io(self, nbytes: int) -> None:
        nbytes = int(nbytes)
        self.io_bytes += nbytes
        self.io_blocks += -(-nbytes // BLOCK_BYTES)

    # -- derived metrics ---------------------------------------------------

    @property
    def edges_per_step(self) -> float:
        """Figure 2's metric: average edges evaluated per sampling step."""
        return self.edges_evaluated / self.steps if self.steps else 0.0

    @property
    def acceptance_ratio(self) -> float:
        """The paper's ε for rejection sampling (accepted / trials)."""
        if not self.rejection_trials:
            return 1.0
        return 1.0 - self.rejected / self.rejection_trials

    def merge(self, other: "CostCounters") -> "CostCounters":
        """Accumulate ``other`` into self (for multi-walker aggregation)."""
        self.steps += other.steps
        self.edges_evaluated += other.edges_evaluated
        self.rejection_trials += other.rejection_trials
        self.rejected += other.rejected
        self.binary_search_probes += other.binary_search_probes
        self.alias_draws += other.alias_draws
        self.io_blocks += other.io_blocks
        self.io_bytes += other.io_bytes
        return self

    @classmethod
    def merge_all(cls, parts: Iterable["CostCounters"]) -> "CostCounters":
        """Fold a worker set's counters into a fresh instance.

        Merge is associative and commutative (every field is a sum), so
        the fold is deterministic whatever order workers finished in.
        """
        out = cls()
        for part in parts:
            out.merge(part)
        return out

    def publish(self, registry, prefix: str = "sampling") -> None:
        """Map every field onto telemetry registry counters/gauges.

        Call once per finished run (repeated publishes re-add the
        totals, which is exactly right when each worker publishes its
        own counters into its own registry before the merge).
        """
        registry.counter(f"{prefix}.steps", "sampling steps taken").inc(self.steps)
        registry.counter(
            f"{prefix}.edges_evaluated", "edges examined (Figure 2 numerator)"
        ).inc(self.edges_evaluated)
        registry.counter(
            f"{prefix}.rejection_trials", "rejection trials attempted"
        ).inc(self.rejection_trials)
        registry.counter(f"{prefix}.rejected", "rejection trials refused").inc(
            self.rejected
        )
        registry.counter(
            f"{prefix}.binary_search_probes", "prefix/boundary probes"
        ).inc(self.binary_search_probes)
        registry.counter(f"{prefix}.alias_draws", "in-trunk alias draws").inc(
            self.alias_draws
        )
        registry.counter("io.blocks", "4 KiB disk blocks loaded").inc(self.io_blocks)
        registry.counter("io.bytes", "bytes loaded from disk").inc(self.io_bytes)
        registry.gauge(
            f"{prefix}.edges_per_step", "Figure 2 metric: edges/step"
        ).set(self.edges_per_step)
        registry.gauge(
            f"{prefix}.acceptance_ratio", "rejection acceptance ratio ε"
        ).set(self.acceptance_ratio)

    def snapshot(self) -> dict:
        """Plain-dict view for reports."""
        return {
            "steps": self.steps,
            "edges_evaluated": self.edges_evaluated,
            "edges_per_step": self.edges_per_step,
            "rejection_trials": self.rejection_trials,
            "acceptance_ratio": self.acceptance_ratio,
            "binary_search_probes": self.binary_search_probes,
            "alias_draws": self.alias_draws,
            "io_blocks": self.io_blocks,
            "io_bytes": self.io_bytes,
        }
