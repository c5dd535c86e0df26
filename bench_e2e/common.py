"""Shared plumbing: paths, noise rules, process memory, scratch space.

Sizes across the workload modules are constants calibrated once on the
seed commit (see ``calibration.md``) and frozen: the benchmark reads no
environment variable and has no tuning flag.
"""

from __future__ import annotations

import gc
import os
import shutil
import statistics
import time
from pathlib import Path
from typing import Callable, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Every file the benchmark writes (WAL dirs, trunk stores, sinks) lands
#: under this per-process directory inside the checkout; it is removed
#: at exit.
WORK = ROOT / ".bench_e2e_work" / str(os.getpid())

#: Set in this process before numpy loads, and inherited by children.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: Decay scale of the exponential walk, as in ``benchmarks/conftest.py``.
EXP_SCALE = 6.0
WARMUP_UNITS = 3
#: Round ``i`` of a run with seed ``S`` uses seed ``S*1000 + i % 5``, so
#: every run executes the same sequence of rounds.
SEED_CYCLE = 5


def round_seed(seed: int, i: int) -> int:
    return seed * 1000 + i % SEED_CYCLE


def fresh_dir(name: str) -> Path:
    """An empty directory ``WORK/<name>``."""
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def peak_rss_mib(pid="self") -> float:
    """``VmHWM`` of a process in MiB (the kernel's own high-water mark)."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def fastest_third(times: Sequence[float]) -> List[int]:
    """Indices of the fastest third of the units (at least one).

    Co-tenant noise on a shared box only ever adds time, so the fast
    tail is the part of a run that repeats; the mean over it is what
    ``throughput_per_s`` divides by.
    """
    order = sorted(range(len(times)), key=times.__getitem__)
    return order[: max(1, len(times) // 3)]


def fast_rate(times: Sequence[float], work: Sequence[float]) -> float:
    """Work per second over the fastest third of the units."""
    pick = fastest_third(times)
    return sum(work[i] for i in pick) / sum(times[i] for i in pick)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, round(q / 100.0 * len(ordered) + 0.5) - 1))
    return float(ordered[rank])


class SpeedProbe:
    """A fixed numpy + pure-Python computation whose wall time says how
    fast this box is *right now*.

    Measured on the seed commit: co-tenants slow this 2-vCPU VM by up to
    2x for minutes at a time (no steal time is reported, so CPU time does
    not help), which put the run-to-run spread of raw wall-clock
    throughput at 16-43 %. The same slow-down hits this probe, so every
    timed unit is bracketed by two probe runs and reported at *nominal
    machine speed*: ``time * NOMINAL_S / mean(probe before, probe
    after)``. On a quiet box the factor is ~1 and the numbers are plain
    wall-clock; on a busy one the spread falls 3-5x (``calibration.md``).
    The probe shares no code with ``src/repro``, so no change to the
    program can move it.
    """

    #: Probe wall time on the calibration box when nothing else runs.
    NOMINAL_S = 0.110
    _N = 1 << 17
    _PY_LOOPS = 150_000

    def __init__(self) -> None:
        import numpy as np

        self._np = np
        rng = np.random.default_rng(0)
        self._values = rng.random(self._N)
        self._index = rng.integers(0, self._N, self._N)
        self._keys = np.sort(rng.random(self._N))
        self._out = np.empty(self._N)

    def __call__(self) -> float:
        """Run the probe once; returns its wall time in seconds."""
        np = self._np
        t0 = time.perf_counter()
        for _ in range(3):  # gather, scan, search, compact, scatter, draw
            got = self._values[self._index]
            np.cumsum(got)
            np.searchsorted(self._keys, got)
            mask = got > 0.5
            self._out[self._index[mask]] = got[mask]
            np.random.default_rng(1).random(self._N)
        table: dict = {}
        for i in range(self._PY_LOOPS):  # interpreter-bound half
            table[i & 1023] = table.get(i & 1023, 0) + i
        [x * 2 for x in range(self._PY_LOOPS)]
        return time.perf_counter() - t0

    @classmethod
    def slowdown(cls, before: float, after: float) -> float:
        """How many times slower than nominal the box ran between two
        probe runs; divide a wall time by it."""
        return (before + after) / 2.0 / cls.NOMINAL_S


def unprobed() -> float:
    """Stands in for a :class:`SpeedProbe` where times are wanted as
    measured (the traced pass): slow-down 1, no work done."""
    return SpeedProbe.NOMINAL_S


def timed(fn: Callable[[], object]) -> Tuple[float, object]:
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def timed_units(unit: Callable[[int], float], seconds: float,
                probe: SpeedProbe) -> Tuple[List[float], List[float]]:
    """Run ``unit(i)`` (returns the work it did) ``WARMUP_UNITS`` times off the
    record, then for ``seconds``; ``gc.collect()`` before every unit with
    the collector left on, a probe run between units. Returns ``(times,
    work)`` of the measured units, times at nominal machine speed. Unit
    ``i`` continues the numbering after the warm-up so the seed cycle is
    one sequence."""
    for i in range(WARMUP_UNITS):
        gc.collect()
        unit(i)
    times: List[float] = []
    work: List[float] = []
    deadline = time.perf_counter() + seconds
    i = WARMUP_UNITS
    before = probe()
    while not times or time.perf_counter() < deadline:
        gc.collect()
        t0 = time.perf_counter()
        done = unit(i)
        seconds_taken = time.perf_counter() - t0
        after = probe()
        times.append(seconds_taken / SpeedProbe.slowdown(before, after))
        work.append(done)
        before = after
        i += 1
    return times, work
