"""The serving loop's wire protocol under fuzzing and slow peers.

Raw sockets against one live daemon (with a streaming engine attached,
so every endpoint is reachable): garbage request lines and headers;
missing, negative, non-numeric and oversize ``Content-Length``; bodies
cut short before a disconnect; invalid UTF-8 or JSON and non-object
bodies; several requests pipelined in one ``send``. Whatever arrives,
a complete request is answered 200 or 4xx — never 5xx — and a
connection whose framing broke is closed after its answer; pipelined
answers leave in request order; and after every example ``/healthz``
answers 200 and ``received == served + rejected + failed``.
"""

import json
import socket
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.datasets import load_dataset
from repro.serve import ServeClient, WalkService
from repro.serve.protocol import MAX_BODY_BYTES
from repro.streaming import StreamingTeaEngine
from repro.walks.apps import unbiased_walk

PATHS = ["/walk", "/recommend", "/gnn/sample", "/stream/ingest", "/stream/walk",
         "/stream/recommend", "/healthz", "/stats", "/metrics", "/stream/epoch",
         "/nope"]
FIELDS = ["starts", "app", "walks_per_vertex", "max_length", "stop_probability",
          "seed", "scale", "p", "q", "time_window", "record_paths", "top_k",
          "nodes", "times", "fanouts", "recency_scale", "src", "dst", "time",
          "sync", "epoch"]
#: How a request declares its body; all but ``exact`` and ``short`` are
#: framing errors that must close the connection.
LENGTHS = ["exact", "short", "absent", "negative", "non-numeric", "oversize"]


@pytest.fixture(scope="module")
def service():
    with WalkService(
        load_dataset("tiny", seed=3), engine="tea-batch", queue_depth=8,
        streaming=StreamingTeaEngine(unbiased_walk()),
    ) as service:
        yield service


# -- strategies ----------------------------------------------------------------

#: Bodies each endpoint answers 200; the fuzzer replaces one field of one.
VALID = [{"starts": [1, 2], "max_length": 3}, {"nodes": [1], "times": [50.0]},
         {"src": [1], "dst": [2], "time": [1.0]}]

# Small ints only (64 and 1000 are ids beyond the graph); the resource
# limits are fuzzed by ``_LIMITS`` below.
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.sampled_from([64, 1000])
    | st.floats(-1e3, 1e3) | st.sampled_from([float("nan"), float("inf")])
    | st.text(max_size=4) | st.sampled_from(["exponential", "node2vec"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)

#: A field far past what a request may allocate: ``max_length`` costs the
#: hops taken (200), a GNN query's ``len(nodes) × Π fanouts`` is capped (400).
_LIMITS = [("max_length", 10**9), ("fanouts", [1000, 1000, 1000])]

_bodies = st.one_of(
    st.binary(max_size=40),
    st.binary(max_size=20).map(lambda b: b"\xc3\x28" + b),  # invalid UTF-8
    _json_values.filter(lambda v: not isinstance(v, dict)).map(
        lambda v: json.dumps(v).encode()),
    st.dictionaries(st.sampled_from(FIELDS), _json_values, max_size=6).map(
        lambda v: json.dumps(v).encode()),
    st.builds(lambda base, key, value: json.dumps({**base, key: value}).encode(),
              st.sampled_from(VALID), st.sampled_from(FIELDS), _json_values),
    st.builds(lambda base, limit: json.dumps({**base, limit[0]: limit[1]}).encode(),
              st.sampled_from(VALID), st.sampled_from(_LIMITS)),
)

_no_crlf = st.binary(max_size=30).map(
    lambda b: b.replace(b"\r", b"").replace(b"\n", b""))


@st.composite
def _requests(draw):
    """``(raw bytes, framing_ok, keep_alive, cut_short)``."""
    framing_ok = True
    if draw(st.integers(0, 9)) == 0:
        line = draw(_no_crlf.filter(lambda b: b"HTTP/1." not in b))
        framing_ok = False
    else:
        method = draw(st.sampled_from([b"GET", b"POST", b"POST", b"PUT", b"get"]))
        path = draw(st.sampled_from(PATHS)).encode()
        version = draw(st.sampled_from([b"HTTP/1.1", b"HTTP/1.1", b"HTTP/1.0"]))
        line = b" ".join([method, path, version])
    headers = [b"Host: t"]
    keep_alive = not line.endswith(b"HTTP/1.0")
    connection = draw(st.sampled_from([None, b"close", b"keep-alive"]))
    if connection is not None:
        headers.append(b"Connection: " + connection)
        keep_alive = connection == b"keep-alive"
    for extra in draw(st.lists(st.sampled_from(["x", "garbage"]), max_size=2)):
        if extra == "garbage":
            headers.append(draw(_no_crlf.filter(lambda b: b and b":" not in b)))
            framing_ok = False
        else:
            headers.append(b"X-Fuzz: " + draw(_no_crlf))
    body = draw(_bodies)
    length = draw(st.sampled_from(LENGTHS))
    declared = {
        "exact": str(len(body)), "short": str(len(body) + 5), "absent": None,
        "negative": "-1", "non-numeric": draw(st.sampled_from(["abc", "1e3", " "])),
        "oversize": str(MAX_BODY_BYTES + 1),
    }[length]
    if declared is None:
        body = b""
        framing_ok = framing_ok and not line.startswith(b"POST ")
    else:
        headers.append(b"Content-Length: " + declared.encode())
        framing_ok = framing_ok and length in ("exact", "short")
    raw = b"\r\n".join([line] + headers) + b"\r\n\r\n" + body
    return raw, framing_ok, keep_alive, framing_ok and length == "short"


# -- a minimal response reader ------------------------------------------------

def _read_response(sock, buf=b""):
    """``(status, headers, body, leftover)`` of the next response."""
    while b"\r\n\r\n" not in buf:
        chunk = sock.recv(65536)
        assert chunk, f"connection closed before a full response: {buf[:80]!r}"
        buf += chunk
    head, _, rest = buf.partition(b"\r\n\r\n")
    status_line, *lines = head.decode("latin-1").split("\r\n")
    headers = dict(
        (k.lower(), v.strip()) for k, _, v in (h.partition(":") for h in lines))
    length = int(headers["content-length"])
    while len(rest) < length:
        chunk = sock.recv(65536)
        assert chunk, "connection closed inside a response body"
        rest += chunk
    return int(status_line.split(" ")[1]), headers, rest[:length], rest[length:]


def _assert_closed(sock, leftover):
    assert leftover == b""
    assert sock.recv(65536) == b"", "connection left open after a framing error"


def _connect(service):
    return socket.create_connection(("127.0.0.1", service.port), timeout=10.0)


def _assert_daemon_healthy(service):
    client = ServeClient(port=service.port)
    assert client.healthz()["status"] == "ok"
    counters = client.stats()["counters"]
    assert counters["received"] == (
        counters["served"] + counters["rejected"] + counters["failed"])
    client.close()


HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"


# -- properties ----------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(case=_requests(), then_healthz=st.booleans())
def test_every_complete_request_is_answered_below_500(service, case, then_healthz):
    raw, framing_ok, keep_alive, cut_short = case
    with _connect(service) as sock:
        sock.sendall(raw + (HEALTHZ if then_healthz and not cut_short else b""))
        if not cut_short:
            status, headers, body, rest = _read_response(sock)
            assert status == 200 or 400 <= status < 500, (status, body)
            assert b'"error"' in body or status == 200
            if not framing_ok:
                assert status in (400, 413, 431)
                assert headers.get("connection") == "close"
                _assert_closed(sock, rest)
            elif not keep_alive:
                _assert_closed(sock, rest)
            elif then_healthz:
                status, _, body, _ = _read_response(sock, rest)
                assert status == 200 and json.loads(body)["status"] == "ok"
    _assert_daemon_healthy(service)


_PIPELINED = {
    "walk": (b"/walk", {"starts": [1, 2], "max_length": 3}),
    "recommend": (b"/recommend", {"starts": [3], "top_k": 2}),
    "node2vec": (b"/walk", {"starts": [4], "app": "node2vec", "max_length": 3}),
    "invalid": (b"/walk", {"starts": "nope"}),
    "healthz": None,
}


def _expect(name, status, body):
    answer = json.loads(body)
    if name == "healthz":
        return status == 200 and answer["status"] == "ok"
    if name == "invalid":
        return status == 400 and "starts" in answer["error"]
    return (status == 200 and answer["kind"] == _PIPELINED[name][0][1:].decode()
            and answer["num_walks"] == len(_PIPELINED[name][1]["starts"]))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(sorted(_PIPELINED)), min_size=2, max_size=5))
def test_pipelined_answers_keep_request_order(service, names):
    raw = b""
    for name in names:
        if _PIPELINED[name] is None:
            raw += HEALTHZ
        else:
            path, payload = _PIPELINED[name]
            body = json.dumps(payload).encode()
            raw += (b"POST " + path + b" HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
                    % len(body) + body)
    with _connect(service) as sock:
        sock.sendall(raw)
        rest = b""
        for name in names:
            status, _, body, rest = _read_response(sock, rest)
            assert _expect(name, status, body), (names, name, status, body)
    _assert_daemon_healthy(service)


@pytest.mark.parametrize("path, body", [
    ("/walk", {"starts": [64]}),  # the tiny graph has 64 vertices
    ("/walk", {"starts": [1], "seed": -1}),
    ("/walk", {"starts": [1], "app": "node2vec", "p": 0}),
    ("/recommend", {"starts": [1], "scale": float("nan")}),
    ("/gnn/sample", {"nodes": [64], "times": [1.0]}),
    ("/gnn/sample", {"nodes": [1], "times": ["x"]}),
    ("/gnn/sample", {"nodes": [1], "times": [1.0], "fanouts": [0]}),
    ("/stream/walk", {"starts": [1], "seed": -1}),
])
def test_out_of_range_fields_answer_400(service, path, body):
    """Each of these once failed inside execution and answered 500."""
    status, answer = ServeClient(port=service.port).post(path, body)
    assert status == 400 and "error" in answer, (status, answer)
    _assert_daemon_healthy(service)


def _post(service, path, payload):
    """``(status, decoded answer)`` of one POST over a raw socket."""
    body = json.dumps(payload).encode()
    with _connect(service) as sock:
        sock.sendall(b"POST %s HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
                     % (path.encode(), len(body)) + body)
        status, _, answer, _ = _read_response(sock)
    return status, json.loads(answer)


def test_a_huge_max_length_costs_the_hops_taken(service):
    """``max_length = 10**9`` answers 200 with the walks of a run whose
    ``max_length`` is one past its longest walk."""
    body = {"starts": [1, 2, 3, 5, 8], "walks_per_vertex": 20, "seed": 7}
    status, huge = _post(service, "/walk", dict(body, max_length=10**9))
    assert status == 200, huge
    longest = max(huge["lengths"])
    status, tight = _post(service, "/walk", dict(body, max_length=longest + 1))
    assert status == 200
    assert (tight["walks"], tight["times"]) == (huge["walks"], huge["times"])
    _assert_daemon_healthy(service)


def test_gnn_fanouts_past_the_request_cap_answer_400(service):
    status, answer = _post(service, "/gnn/sample", {
        "nodes": [1], "times": [50.0], "fanouts": [1000, 1000, 1000]})
    assert status == 400 and "sampled neighbours" in answer["error"]
    _assert_daemon_healthy(service)


def test_a_bad_length_closes_the_connection_before_anything_pipelined(service):
    with _connect(service) as sock:
        sock.sendall(b"POST /walk HTTP/1.1\r\nContent-Length: abc\r\n\r\n" + HEALTHZ)
        status, headers, _, rest = _read_response(sock)
        assert status == 400 and headers["connection"] == "close"
        _assert_closed(sock, rest)


# -- a slow reader -------------------------------------------------------------

def _buffered(service):
    stats = ServeClient(port=service.port).stats()
    return stats["output_buffered_bytes"], stats["connections"]


def test_a_slow_reader_never_stalls_the_loop(service):
    """A peer that never reads an answer larger than the socket buffers
    holds only its own output buffer: 20 other requests are answered
    meanwhile, and closing the stalled socket frees the buffer."""
    stalled = socket.socket()
    stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    stalled.connect(("127.0.0.1", service.port))
    body = json.dumps({"starts": list(range(1, 41)), "walks_per_vertex": 2500,
                       "max_length": 40, "record_paths": True}).encode()
    stalled.sendall(b"POST /walk HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
                    % len(body) + body)
    deadline = time.monotonic() + 30.0
    while _buffered(service)[0] == 0:
        assert time.monotonic() < deadline, "the answer never backed up"
        time.sleep(0.01)
    client = ServeClient(port=service.port)
    t0 = time.monotonic()
    for i in range(20):
        assert client.walk(starts=[1 + i % 5], seed=i, max_length=4)["num_walks"] == 1
    assert time.monotonic() - t0 < 10.0
    client.close()
    stalled.close()
    while _buffered(service) != (0, 1):  # only the stats connection is left
        assert time.monotonic() < deadline, "the stalled buffer was never freed"
        time.sleep(0.01)
