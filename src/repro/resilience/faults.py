"""Deterministic, seeded fault injection for chaos testing.

Every failure mode the resilience layer handles — transient I/O errors,
slow reads, corrupted trunk pages, crashed workers, hung workers — must
be reproducible in CI, or the handling code rots untested. A
:class:`FaultInjector` is built from a declarative *fault plan* and
wired into the risky layers at named **sites**:

``trunk_read``
    Every backing-store load in :class:`~repro.core.outofcore.TrunkStore`
    (both the sampling thread and the prefetch worker route through it).
``prefetch``
    The prefetch worker's batch service loop, before any read is issued.
``chunk``
    The chunk-worker entry point of the parallel executor; keyed by
    ``(chunk_id, attempt)`` so a plan can crash exactly one chunk's
    first attempt and let its retry succeed.
``streaming_apply``
    Per-vertex-group admission inside the incremental HPAT's
    ``apply_batch`` (exercises the atomic-rollback path).
``wal_append``
    The write-ahead log's record append, before any byte is written
    (exercises the apply-then-log rollback: the batch must vanish from
    the index when its durability write fails).
``wal_fsync``
    The WAL's group-commit fsync barrier, before the syscall.
``checkpoint_write``
    Checkpoint + manifest persistence, before the checkpoint file is
    written (a failed checkpoint must leave the previous manifest and
    the untrimmed WAL fully usable).

A plan is JSON (inline, or a file path) of the form::

    {"seed": 7, "rules": [
      {"site": "trunk_read", "kind": "io_error",
       "probability": 1.0, "max_triggers": 2},
      {"site": "chunk", "kind": "worker_crash", "chunks": [1]},
      {"site": "chunk", "kind": "worker_hang", "chunks": [0],
       "seconds": 2.0},
      {"site": "trunk_read", "kind": "corrupt_block", "calls": [5]}
    ]}

Determinism: firing decisions never consult wall clock or global RNG
state. Probabilistic rules hash ``(seed, site, call-or-key, rule)``
with CRC32, explicit selectors (``calls``, ``chunks``/``attempts``)
fire on exact matches, and ``max_triggers`` caps a rule per injector
instance. Sites driven from a single thread (the out-of-core read
path's sampling thread, chunk entry, streaming apply) therefore replay bit-exactly;
sites shared with the prefetch worker are deterministic per thread but
interleave with scheduling.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.exceptions import FaultPlanError, TransientIOError, WorkerCrashError
from repro.telemetry import events

SITES = ("trunk_read", "prefetch", "chunk", "streaming_apply",
         "wal_append", "wal_fsync", "checkpoint_write")
KINDS = ("io_error", "slow_read", "corrupt_block", "worker_crash", "worker_hang")

#: Default sleep for ``slow_read`` (kept tiny so chaos runs stay fast).
DEFAULT_SLOW_SECONDS = 0.01
#: Default sleep for ``worker_hang`` — long enough to trip any sane
#: chunk timeout, short enough that an abandoned worker drains quickly.
DEFAULT_HANG_SECONDS = 2.0


def _unit_hash(*parts) -> float:
    """Deterministic uniform-ish value in [0, 1) from arbitrary parts.

    CRC32 is XOR-linear, so same-length inputs differing in one
    character (e.g. adjacent seeds) would share their high bits — and
    identical firing patterns at any probability threshold. The
    murmur3 finalizer below breaks that linearity.
    """
    text = "|".join(str(p) for p in parts)
    h = zlib.crc32(text.encode("utf-8"))
    h ^= h >> 16
    h = (h * 0x85EBCA6B) & 0xFFFFFFFF
    h ^= h >> 13
    h = (h * 0xC2B2AE35) & 0xFFFFFFFF
    h ^= h >> 16
    return h / 2**32


def _in_forked_child() -> bool:
    return multiprocessing.parent_process() is not None


@dataclass
class FaultRule:
    """One declarative fault: where, what, when.

    Selectors compose as a conjunction: a rule fires only when the site
    matches, the explicit selectors (if given) match, the probability
    hash passes, and ``max_triggers`` is not exhausted.
    """

    site: str
    kind: str
    probability: float = 1.0
    #: Explicit per-site call indices (0-based) this rule fires on.
    calls: Optional[frozenset] = None
    #: ``chunk`` site only: chunk ids / attempt numbers to fire on.
    chunks: Optional[frozenset] = None
    attempts: frozenset = field(default_factory=lambda: frozenset({0}))
    #: Cap on total firings of this rule (``None`` = unbounded).
    max_triggers: Optional[int] = None
    #: Sleep duration for ``slow_read`` / ``worker_hang``.
    seconds: Optional[float] = None
    triggered: int = 0

    def __post_init__(self):
        if self.site not in SITES:
            raise FaultPlanError(
                f"unknown fault site {self.site!r}; expected one of {SITES}"
            )
        if self.kind not in KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; expected one of {KINDS}"
            )
        if not (0.0 <= self.probability <= 1.0):
            raise FaultPlanError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if self.seconds is None:
            self.seconds = (
                DEFAULT_HANG_SECONDS if self.kind == "worker_hang"
                else DEFAULT_SLOW_SECONDS
            )

    def matches(self, seed: int, rule_index: int, site: str,
                call_index: int, key) -> bool:
        if site != self.site:
            return False
        if self.max_triggers is not None and self.triggered >= self.max_triggers:
            return False
        if self.chunks is not None:
            if not (isinstance(key, tuple) and len(key) == 2):
                return False
            chunk_id, attempt = key
            if chunk_id not in self.chunks or attempt not in self.attempts:
                return False
        if self.calls is not None and call_index not in self.calls:
            return False
        if self.probability >= 1.0:
            return True
        return _unit_hash(seed, site, call_index, key, rule_index) < self.probability

    @classmethod
    def from_dict(cls, raw: dict) -> "FaultRule":
        if not isinstance(raw, dict):
            raise FaultPlanError(f"fault rule must be an object, got {raw!r}")
        known = {"site", "kind", "probability", "calls", "chunks",
                 "attempts", "max_triggers", "seconds"}
        unknown = set(raw) - known
        if unknown:
            raise FaultPlanError(f"unknown fault rule fields: {sorted(unknown)}")
        if "site" not in raw or "kind" not in raw:
            raise FaultPlanError("fault rule needs both 'site' and 'kind'")
        kwargs = dict(raw)
        for name in ("calls", "chunks"):
            if kwargs.get(name) is not None:
                kwargs[name] = frozenset(int(x) for x in kwargs[name])
        if kwargs.get("attempts") is not None:
            kwargs["attempts"] = frozenset(int(x) for x in kwargs["attempts"])
        else:
            kwargs.pop("attempts", None)
        return cls(**kwargs)


class FaultInjector:
    """Seeded injector evaluating a fault plan at instrumented sites.

    Thread-safe: the per-site call counters and trigger counts are
    guarded by a lock (the trunk-read site is polled from both the
    sampling thread and the prefetch worker). Pickling drops the lock
    and rebuilds it, so an injector survives being pickled.
    """

    def __init__(self, rules: Iterable[FaultRule], seed: int = 0):
        self.rules: List[FaultRule] = list(rules)
        self.seed = int(seed)
        self._calls: Dict[str, int] = {}
        self.fired: Dict[Tuple[str, str], int] = {}
        self._lock = threading.Lock()

    # -- construction ------------------------------------------------------

    @classmethod
    def from_plan(cls, plan) -> "FaultInjector":
        """Build from a plan dict, a JSON string, or a JSON file path."""
        if isinstance(plan, (str, os.PathLike)):
            text = str(plan)
            if not text.lstrip().startswith("{"):
                path = Path(text)
                if not path.exists():
                    raise FaultPlanError(f"fault plan file not found: {text}")
                text = path.read_text()
            try:
                plan = json.loads(text)
            except ValueError as exc:
                raise FaultPlanError(f"fault plan is not valid JSON: {exc}")
        if not isinstance(plan, dict):
            raise FaultPlanError(f"fault plan must be a JSON object, got {plan!r}")
        unknown = set(plan) - {"seed", "rules"}
        if unknown:
            raise FaultPlanError(f"unknown fault plan fields: {sorted(unknown)}")
        rules = [FaultRule.from_dict(r) for r in plan.get("rules", [])]
        return cls(rules, seed=int(plan.get("seed", 0)))

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # -- evaluation --------------------------------------------------------

    def check(self, site: str, key=None) -> Optional[int]:
        """Evaluate one instrumented call at ``site``.

        Side effects in order: ``slow_read``/``worker_hang`` sleep,
        ``io_error`` raises :class:`TransientIOError`, ``worker_crash``
        kills a forked child with ``os._exit`` (a *real* crash, so the
        pool breaks exactly as in production) or raises
        :class:`WorkerCrashError` in-process. Returns a deterministic
        corruption token when a ``corrupt_block`` rule fired (the
        caller flips the bit it addresses), else ``None``.
        """
        with self._lock:
            call_index = self._calls.get(site, 0)
            self._calls[site] = call_index + 1
            hits: List[FaultRule] = []
            for rule_index, rule in enumerate(self.rules):
                if rule.matches(self.seed, rule_index, site, call_index, key):
                    rule.triggered += 1
                    self.fired[(site, rule.kind)] = (
                        self.fired.get((site, rule.kind), 0) + 1
                    )
                    hits.append(rule)
        # Emitted after the lock is released: the event log is not
        # shared with the injector's lock discipline, and a slow sink
        # must never extend the critical section.
        for rule in hits:
            events.emit(
                "fault.injected", site=site, fault_kind=rule.kind,
                call_index=int(call_index),
                key=None if key is None else str(key),
            )
        corrupt_token: Optional[int] = None
        raise_io = False
        crash = False
        for rule in hits:
            if rule.kind in ("slow_read", "worker_hang"):
                time.sleep(rule.seconds)
            elif rule.kind == "corrupt_block":
                corrupt_token = zlib.crc32(
                    f"{self.seed}|{site}|{call_index}|corrupt".encode()
                )
            elif rule.kind == "io_error":
                raise_io = True
            elif rule.kind == "worker_crash":
                crash = True
        if crash:
            if _in_forked_child():
                os._exit(13)
            raise WorkerCrashError(
                f"injected worker crash at site {site!r} (key={key!r})",
                chunk_id=key[0] if isinstance(key, tuple) and key else None,
            )
        if raise_io:
            raise TransientIOError(
                f"injected transient I/O error at site {site!r} "
                f"(call {call_index}, key={key!r})"
            )
        return corrupt_token

    # -- reporting ---------------------------------------------------------

    @property
    def total_fired(self) -> int:
        with self._lock:
            return sum(self.fired.values())

    def snapshot(self) -> Dict[str, int]:
        """``site.kind -> count`` of fired faults (stable key order)."""
        with self._lock:
            return {
                f"{site}.{kind}": n
                for (site, kind), n in sorted(self.fired.items())
            }

    def publish(self, registry) -> None:
        registry.counter(
            "resilience.faults_injected", "faults fired by the injector"
        ).inc(self.total_fired)


def load_fault_injector(plan) -> Optional[FaultInjector]:
    """CLI convenience: ``None`` passes through, anything else parses."""
    if plan is None:
        return None
    return FaultInjector.from_plan(plan)
