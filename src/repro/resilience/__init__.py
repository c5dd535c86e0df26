"""Resilience layer: fault injection and retry policies.

Long-running walk systems must degrade gracefully — GraphWalker restarts
out-of-core walks, KnightKing tolerates stragglers — and this package
gives the reproduction the same posture, testably:

* :mod:`repro.resilience.faults` — a seeded, deterministic
  :class:`FaultInjector` driven by declarative JSON fault plans, hooked
  into trunk-store reads, prefetch admission, chunk-worker entry, and
  streaming batch apply;
* :mod:`repro.resilience.retry` — :class:`RetryPolicy` with
  transient/fatal classification, a retry budget, and exponential
  backoff with seeded jitter (used by the trunk store).

See ``docs/robustness.md`` for failure-mode semantics, the fault plan
format, and the tests that hold each failure mode to its contract
(``make chaos-smoke`` runs them).
"""

from repro.resilience.faults import (
    DEFAULT_HANG_SECONDS,
    DEFAULT_SLOW_SECONDS,
    KINDS,
    SITES,
    FaultInjector,
    FaultRule,
    load_fault_injector,
)
from repro.resilience.retry import TRANSIENT_ERRNOS, RetryPolicy, is_transient

__all__ = [
    "DEFAULT_HANG_SECONDS",
    "DEFAULT_SLOW_SECONDS",
    "FaultInjector",
    "FaultRule",
    "KINDS",
    "RetryPolicy",
    "SITES",
    "TRANSIENT_ERRNOS",
    "is_transient",
    "load_fault_injector",
]
