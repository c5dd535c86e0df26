"""Clock helpers: the only sanctioned time source in ``repro``.

No module under ``src/repro/`` but this one may call ``time.time()`` /
``time.perf_counter()`` / ``time.monotonic()`` directly (enforced by
``tools/lint_clocks.py``); they import these wrappers instead. Funnelling
every timestamp through one module buys three things:

* the profiler's self-timing calibration measures the *same* clock the
  instrumented code uses, so reported overhead is honest;
* tests can monkeypatch one symbol to make timing deterministic;
* a future switch to a cheaper clock (``clock_gettime_ns`` coarse
  variants) is a one-line change instead of a grep-and-pray sweep.

``now()`` is the high-resolution monotonic phase clock (what the phase
recorder differences); ``monotonic()`` is the coarser scheduling
clock (queue waits, deadlines); ``wall()`` is epoch wall time (event
timestamps that must be comparable across processes).
"""

from __future__ import annotations

import time

#: High-resolution monotonic clock for phase/span durations.
now = time.perf_counter

#: Monotonic scheduling clock (queue waits, watchdog deadlines).
monotonic = time.monotonic

#: Epoch wall clock, for cross-process-comparable event timestamps.
wall = time.time

__all__ = ["now", "monotonic", "wall"]
