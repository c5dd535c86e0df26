"""``serve_mix``: a real ``repro serve`` daemon under a closed-loop request mix.

Why it exists: it is the same ``run_lanes`` kernel as ``corpus_exp`` used
differently. Each request walks 128 lanes for a handful of steps, so
per-step Python overhead, HTTP parse, two thread hand-offs, the 2 ms
batch window, path materialisation and JSON encode dominate. A kernel
change tuned for wide frontiers that taxes narrow ones, or a regression
in node2vec's beta rejection, shows here and not in ``corpus_exp``.

Load: ``CLIENTS`` closed-loop keep-alive clients (callers that each wait
for their reply before sending the next request) replay a seeded script
of 50 % ``/walk`` exponential, 25 % ``/walk`` node2vec and 25 %
``/recommend``. Work unit = request; unit = one window of the measured
period; set-up = spawn the daemon until the first 200 of *each* app
(boot plus the lazy index builds). ``latency_p50_ms`` is over the
exponential ``/walk`` class only, because the mix is bimodal. The traced
pass adds a short open-loop phase (fixed send schedule, latency counted
from the time a request was due).
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.engines.session import TeaSession
from repro.graph.datasets import DATASETS, load_dataset
from repro.sampling.counters import CostCounters
from repro.serve.batcher import PendingRequest
from repro.serve.executor import BatchExecutor
from repro.serve.protocol import WalkRequest

from bench_e2e import checks
from bench_e2e.common import (
    EXP_SCALE, ROOT, SRC, WARMUP_UNITS, WORK, SpeedProbe, fastest_third, median,
    peak_rss_mib, percentile,
)
from bench_e2e.spans import NullRecorder, Recorder

NAME = "serve_mix"
WHY = ("same run_lanes kernel at 128-lane frontiers behind HTTP: per-step "
       "overhead, thread hand-offs, batch window and JSON dominate, not the kernel")

CLIENTS = 2
STARTS_PER_REQUEST = 32
WALKS_PER_VERTEX = 4
MAX_LENGTH = 16
SETUPS = 5
#: (class, endpoint, app, cumulative share of the mix)
MIX = (("exp", "/walk", "exponential", 0.50),
       ("n2v", "/walk", "node2vec", 0.75),
       ("rec", "/recommend", "exponential", 1.00))
#: Mixed-run requests replayed alone afterwards, and responses whose
#: every hop is checked against the raw edge list.
REPLAYS = 20


@dataclass(frozen=True)
class Size:
    scale: float          # twitter analogue (1.0 -> 2700 V / 200k E)
    window_s: float       # one unit of the closed-loop measurement
    traced_phase_s: float
    open_rate: float      # open-loop requests per second
    open_seconds: float
    twin_per_class: int   # requests of each class replayed in-process
    healthz_calls: int


FULL = Size(scale=1.0, window_s=0.5, traced_phase_s=2.5, open_rate=80.0,
            open_seconds=6.0, twin_per_class=20, healthz_calls=200)
QUICK = Size(scale=0.2, window_s=0.25, traced_phase_s=0.75, open_rate=80.0,
             open_seconds=1.0, twin_per_class=5, healthz_calls=40)


# -- the request script ------------------------------------------------------

def script(seed: int, client: int, num_vertices: int) -> Iterator[Tuple[str, str, dict]]:
    """Endless seeded ``(class, endpoint, body)`` stream for one client."""
    rng = np.random.default_rng([seed, client])
    while True:
        u = rng.random()
        cls, endpoint, app = next(m[:3] for m in MIX if u < m[3])
        yield cls, endpoint, {
            "starts": rng.integers(0, num_vertices, STARTS_PER_REQUEST).tolist(),
            "app": app,
            "walks_per_vertex": WALKS_PER_VERTEX,
            "max_length": MAX_LENGTH,
            "scale": EXP_SCALE,
            "seed": int(rng.integers(1 << 31)),
            "record_paths": True,
        }


# -- daemon and connection ---------------------------------------------------

class Daemon:
    """``python -m repro serve`` as a separate process on a free port."""

    def __init__(self, seed: int, scale: float):
        t0 = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", "--dataset", "twitter",
             "--scale", str(scale), "--seed", str(seed), "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, cwd=ROOT,
            env={**os.environ, "PYTHONPATH": str(SRC), "TMPDIR": str(WORK)},
        )
        try:
            line = self.process.stdout.readline()
            match = re.search(r"serving on http://[^:]+:(\d+)", line)
            if match is None:
                raise RuntimeError(f"daemon did not come up: {line!r}")
        except BaseException:  # also a termination signal while it boots
            self.stop()
            raise
        self.port = int(match.group(1))
        self.boot_s = time.perf_counter() - t0

    def stop(self) -> str:
        """SIGINT (the daemon's clean-shutdown path) and wait for it. A
        benchmark started with SIGINT ignored (a shell background job)
        hands that on to the daemon, which then only hears SIGTERM."""
        ignored = signal.getsignal(signal.SIGINT) is signal.SIG_IGN
        for sig in (signal.SIGTERM,) if ignored else (signal.SIGINT, signal.SIGTERM):
            if self.process.poll() is None:
                self.process.send_signal(sig)
            try:
                return self.process.communicate(timeout=10)[0]
            except subprocess.TimeoutExpired:
                pass
        self.process.kill()
        return self.process.communicate()[0]


class Conn:
    """One keep-alive HTTP/1.1 connection (TCP_NODELAY, like ServeClient)."""

    def __init__(self, port: int):
        self.http = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        self.http.connect()
        self.http.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def post(self, path: str, body: bytes) -> Tuple[int, bytes]:
        self.http.request("POST", path, body=body,
                          headers={"Content-Type": "application/json"})
        response = self.http.getresponse()
        return response.status, response.read()

    def get(self, path: str) -> Tuple[int, bytes]:
        self.http.request("GET", path)
        response = self.http.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self.http.close()


def first_requests(rec: Recorder, port: int, seed: int,
                   num_vertices: int) -> Dict[str, float]:
    """First 200 of each class: these pay the lazy index builds."""
    conn = Conn(port)
    seen: Dict[str, float] = {}
    try:
        for cls, endpoint, body in script(seed, CLIENTS, num_vertices):
            if cls in seen:
                continue
            with rec.span(f"serve.first_request_{cls}") as sp:
                status, _ = conn.post(endpoint, json.dumps(body).encode())
            if status != 200:
                raise RuntimeError(f"first {cls} request answered {status}")
            seen[cls] = sp["end"] - sp["start"]
            if len(seen) == len(MIX):
                return seen
    finally:
        conn.close()
    raise AssertionError("unreachable")


def boot(rec: Recorder, seed: int, size: Size,
         num_vertices: int) -> Tuple[Daemon, float, Dict[str, float]]:
    """Spawn a daemon and bring every app up; returns the set-up time."""
    t0 = time.perf_counter()
    with rec.span("serve.boot"):
        daemon = Daemon(seed, size.scale)
    try:
        firsts = first_requests(rec, daemon.port, seed, num_vertices)
    except BaseException:
        daemon.stop()
        raise
    return daemon, time.perf_counter() - t0, firsts


# -- load generators ---------------------------------------------------------

@dataclass
class Sample:
    cls: str
    start: float
    end: float
    status: int
    nbytes: int
    due: float = 0.0


def closed_loop(rec: Recorder, port: int, scripts: List[Iterator], seconds: float,
                keep: int = 0) -> Tuple[float, List[Sample], List[Tuple[str, dict, bytes]]]:
    """One window: every client (one thread and one keep-alive connection
    per entry of ``scripts``) sends its next scripted request as soon as
    the previous reply arrived, for ``seconds``. The scripts belong to
    the caller, so consecutive windows continue them. Returns the time
    until the last reply, the samples, and the first ``keep`` exchanges
    of every client whole, for the checks."""
    samples: List[List[Sample]] = [[] for _ in scripts]
    kept: List[List[Tuple[str, dict, bytes]]] = [[] for _ in scripts]
    begin = time.perf_counter() + 0.01
    stop_at = begin + seconds

    def client(c: int) -> None:
        conn = Conn(port)
        time.sleep(max(0.0, begin - time.perf_counter()))
        try:
            while time.perf_counter() < stop_at:
                cls, endpoint, body = next(scripts[c])
                payload = json.dumps(body).encode()
                with rec.span("request", cls=cls):
                    with rec.span("serve.http_post") as sp:
                        status, raw = conn.post(endpoint, payload)
                    with rec.span("bench.json_decode", bytes=len(raw)):
                        json.loads(raw)
                samples[c].append(Sample(cls, sp["start"], sp["end"], status, len(raw)))
                if len(kept[c]) < keep:
                    kept[c].append((endpoint, body, raw))
        finally:
            conn.close()

    threads = [threading.Thread(target=client, args=(c,)) for c in range(len(scripts))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    merged = sum(samples, [])
    elapsed = max(s.end for s in merged) - begin if merged else seconds
    return elapsed, merged, sum(kept, [])


def open_loop(port: int, seed: int, num_vertices: int, rate: float,
              seconds: float) -> List[Sample]:
    """Request ``i`` is due at ``i / rate`` whatever happened to the ones
    before it; ``CLIENTS`` connections take due requests in order. Latency
    is counted from the due time, so a stall is charged to every request
    it delays."""
    total = int(rate * seconds)
    requests = list(itertools.islice(script(seed, CLIENTS + 1, num_vertices), total))
    ticket = itertools.count()
    lock = threading.Lock()
    samples: List[Sample] = []
    begin = time.perf_counter() + 0.05

    def sender() -> None:
        conn = Conn(port)
        try:
            while True:
                with lock:
                    i = next(ticket)
                if i >= total:
                    return
                cls, endpoint, body = requests[i]
                due = begin + i / rate
                time.sleep(max(0.0, due - time.perf_counter()))
                t0 = time.perf_counter()
                status, raw = conn.post(endpoint, json.dumps(body).encode())
                sample = Sample(cls, t0, time.perf_counter(), status, len(raw), due)
                with lock:
                    samples.append(sample)
        finally:
            conn.close()

    threads = [threading.Thread(target=sender) for _ in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return samples


# -- checks ------------------------------------------------------------------

def check_run(ops: checks.Ops, port: int, seed: int, scale: float,
              samples: List[Sample], kept) -> dict:
    """Statuses, ``/stats`` conservation, hop validity of kept responses
    and bit-identical solo replays. Returns the ``/stats`` document."""
    bad = sum(s.status != 200 for s in samples)
    ops.done(len(samples) - bad)
    for _ in range(bad):
        ops.fail("serve.status: non-200 answer")
    conn = Conn(port)
    try:
        stats = json.loads(conn.get("/stats")[1])
        checks.check_stats_conserved(ops, stats["counters"])
        stream = DATASETS["twitter"].generate(seed=seed, scale=scale)
        oracle = checks.EdgeOracle(stream.src, stream.dst, stream.time,
                                   int(DATASETS["twitter"].num_vertices * scale))
        walks = []
        for endpoint, body, raw in kept:
            answer = json.loads(raw)
            walks += list(zip(answer["walks"], answer["times"]))
            status, again = conn.post(endpoint, json.dumps(body).encode())
            checks.check_replay(ops, answer, json.loads(again) if status == 200 else {})
        checks.check_paths(ops, NAME, oracle, walks, MAX_LENGTH)
    finally:
        conn.close()
    return stats


def _by_class(samples: List[Sample], cls: str) -> List[float]:
    return [(s.end - s.start) * 1e3 for s in samples if s.cls == cls]


# -- untraced ----------------------------------------------------------------

def measure(seed: int, seconds: float, quick: bool) -> Tuple[Dict[str, float], checks.Ops]:
    size = QUICK if quick else FULL
    num_vertices = int(DATASETS["twitter"].num_vertices * size.scale)
    probe = SpeedProbe()
    daemon = None
    setups = []
    try:
        before = probe()
        for _ in range(SETUPS):
            if daemon is not None:
                daemon.stop()
            daemon, setup_s, _ = boot(NullRecorder(), seed, size, num_vertices)
            after = probe()
            setups.append(setup_s / SpeedProbe.slowdown(before, after))
            before = after
        scripts = [script(seed, c, num_vertices) for c in range(CLIENTS)]
        everything: List[Sample] = []
        kept = []
        for _ in range(WARMUP_UNITS):
            _, samples, first = closed_loop(NullRecorder(), daemon.port, scripts,
                                            size.window_s, keep=REPLAYS // CLIENTS)
            everything += samples
            kept = kept or first
        # One window is one unit; a probe run between windows puts each
        # window's rate and latencies at nominal machine speed.
        rates: List[float] = []
        exp_ms: List[float] = []
        deadline = time.perf_counter() + seconds
        before = probe()
        while not rates or time.perf_counter() < deadline:
            elapsed, samples, _ = closed_loop(NullRecorder(), daemon.port, scripts,
                                              size.window_s)
            after = probe()
            slow = SpeedProbe.slowdown(before, after)
            rates.append(len(samples) / elapsed * slow)
            exp_ms += [ms / slow for ms in _by_class(samples, "exp")]
            everything += samples
            before = after
        best = fastest_third([-r for r in rates])
        metrics = {
            "throughput_per_s": sum(rates[i] for i in best) / len(best),
            "latency_p50_ms": median(exp_ms),
            "peak_rss_mb": peak_rss_mib(daemon.process.pid),
            "setup_s": median(setups),
        }
        ops = checks.Ops()
        check_run(ops, daemon.port, seed, size.scale, everything, kept)
    finally:
        if daemon is not None:
            daemon.stop()
    return metrics, ops


# -- traced ------------------------------------------------------------------

def trace(rec: Recorder, seed: int, quick: bool) -> Tuple[Dict[str, float], checks.Ops]:
    size = QUICK if quick else FULL
    num_vertices = int(DATASETS["twitter"].num_vertices * size.scale)
    out: Dict[str, float] = {}
    daemon, _, firsts = boot(rec, seed, size, num_vertices)
    try:
        out["serve.boot_s"] = daemon.boot_s
        out["serve.first_request_exp_s"] = firsts["exp"]
        out["serve.first_request_n2v_s"] = firsts["n2v"]

        conn = Conn(daemon.port)
        healthz = []
        for _ in range(size.healthz_calls):
            with rec.span("serve.healthz") as sp:
                conn.get("/healthz")
            healthz.append((sp["end"] - sp["start"]) * 1e3)
        conn.close()
        out["serve.healthz_ms"] = median(healthz)

        scripts = [script(seed, c, num_vertices) for c in range(CLIENTS)]
        _, plain, kept = closed_loop(NullRecorder(), daemon.port, scripts,
                                     size.traced_phase_s, keep=REPLAYS // CLIENTS)
        _, traced, _ = closed_loop(rec, daemon.port, scripts, size.traced_phase_s)
        both = plain + traced
        exp_p50 = median(_by_class(both, "exp"))
        out["bench.trace_overhead_ratio"] = (
            median(_by_class(traced, "exp")) / median(_by_class(plain, "exp")))
        out["bench.span_coverage"] = rec.coverage("request")
        out["serve.walk_p99_ms"] = percentile(_by_class(both, "exp"), 99)
        out["serve.n2v_p50_ms"] = median(_by_class(both, "n2v"))
        out["serve.n2v_p99_ms"] = percentile(_by_class(both, "n2v"), 99)
        out["serve.recommend_p50_ms"] = median(_by_class(both, "rec"))
        out["serve.response_bytes_mean"] = sum(s.nbytes for s in both) / len(both)

        ops = checks.Ops()
        stats = check_run(ops, daemon.port, seed, size.scale, both, kept)
        counters = stats["counters"]
        out["serve.batch_mean_size"] = counters["served"] / max(1, counters["batches"])
        out["serve.rejected"] = counters["rejected"]
        out["serve.failed"] = counters["failed"]
        out["engines.session_hit_ratio"] = (
            stats["session"]["engine_hits"] / max(1, stats["session"]["queries"]))

        with rec.span("serve.open_loop", rate=size.open_rate):
            opened = open_loop(daemon.port, seed, num_vertices,
                               size.open_rate, size.open_seconds)
        ops.done(sum(s.status == 200 for s in opened))
        for s in opened:
            if s.status != 200:
                ops.fail("serve.status: non-200 answer in the open loop")
        from_due = [(s.end - s.due) * 1e3 for s in opened]
        out["serve.open_p50_ms"] = median(from_due)
        out["serve.open_p95_ms"] = percentile(from_due, 95)
        out["serve.open_late_ms"] = sum(s.start - s.due for s in opened) / len(opened) * 1e3
    finally:
        daemon.stop()

    out.update(_twin(rec, seed, size))
    out["serve.wrapper_ms"] = exp_p50 - out["serve.inproc_execute_ms"] - out["serve.healthz_ms"]
    return out, ops


def _twin(rec: Recorder, seed: int, size: Size) -> Dict[str, float]:
    """The same scripted requests, in this process, without HTTP: through
    ``BatchExecutor`` (what the daemon's batcher calls) and, one level
    down, through ``engine.run_lanes`` + ``materialise_paths``. What a
    request costs above these is the serving wrapper."""
    graph = load_dataset("twitter", seed=seed, scale=size.scale)
    session = TeaSession(graph, engine="tea-batch")
    executor = BatchExecutor(session)
    # The first ``twin_per_class`` scripted requests of every class.
    by_class: Dict[str, list] = {m[0]: [] for m in MIX}
    for cls, endpoint, body in script(seed, 0, graph.num_vertices):
        if len(by_class[cls]) < size.twin_per_class:
            by_class[cls].append((cls, endpoint, body))
        elif all(len(v) == size.twin_per_class for v in by_class.values()):
            break
    requests = sum(by_class.values(), [])
    cells: Dict[str, List[float]] = {}
    accept = CostCounters()

    def timed(name: str, key: str, fn):
        with rec.span(name) as sp:
            value = fn()
        cells.setdefault(key, []).append(sp["end"] - sp["start"])
        return value

    try:
        with rec.span("engines.session_prepare"):
            for cls in ("exp", "n2v"):
                body = next(b for c, _, b in requests if c == cls)
                session.engine_for(WalkRequest.from_json(body).spec())
        for cls, endpoint, body in requests:
            kind = endpoint.strip("/")
            with rec.span("twin_request", cls=cls):
                request = timed("serve.parse", "parse",
                                lambda: WalkRequest.from_json(body, kind=kind))
                pending = PendingRequest(request=request, request_id="0" * 16,
                                         spec=request.spec())
                timed("serve.inproc_execute", f"execute.{cls}",
                      lambda: executor.execute([pending]))
                timed("serve.json_encode", f"encode.{cls}",
                      lambda: json.dumps(pending.response).encode())
                engine = session.engine_for(pending.spec)
                counters = CostCounters()
                frontier = timed(
                    "engines.run_lanes", f"lanes.{cls}",
                    lambda: engine.run_lanes(
                        request.expanded_starts(), request.lane_seeds(),
                        MAX_LENGTH, counters=counters))
                timed("engines.materialise", f"materialise.{cls}",
                      frontier.materialise_paths)
                if cls == "n2v":
                    accept.merge(counters)
    finally:
        session.close()
    return {
        "serve.parse_us": median(cells["parse"]) * 1e6,
        "serve.inproc_execute_ms": median(cells["execute.exp"]) * 1e3,
        "serve.json_encode_ms": median(cells["encode.exp"]) * 1e3,
        "engines.run_lanes_narrow_ms": median(cells["lanes.exp"]) * 1e3,
        "engines.n2v_run_lanes_ms": median(cells["lanes.n2v"]) * 1e3,
        "engines.materialise_ms": median(cells["materialise.exp"]) * 1e3,
        "engines.beta_accept_ratio": accept.acceptance_ratio,
    }
