"""Batching parity: coalescing must be invisible to every request.

The serving batcher concatenates concurrent requests into one frontier
run. The contract: for ANY partition of N requests into batches, each
request's walks are bit-identical to running it alone — across engine
kinds (scalar ``tea``, vectorised ``tea-batch``, chunk-parallel
``tea-parallel``) and chunk plans (pinned widths, one-lane chunks).

These tests drive the real execution path (``BatchExecutor.execute``
over ``PendingRequest`` groups — exactly what the serving loop calls)
plus one HTTP-level staging test through a live daemon.
"""

import itertools
import threading
import time

import pytest

from repro.engines.session import TeaSession
from repro.serve import BatchExecutor, PendingRequest, ServeClient, WalkRequest, WalkService
from repro.serve.protocol import build_spec


def _make_requests(n, kind="walk", app="exponential"):
    """n compatible requests with distinct seeds/starts/widths."""
    return [
        WalkRequest(
            kind=kind,
            starts=tuple(range(1 + i, 4 + i)),
            app=app,
            walks_per_vertex=1 + (i % 3),
            max_length=8,
            seed=900 + 7 * i,
        )
        for i in range(n)
    ]


def _pending(request):
    return PendingRequest(
        request=request, request_id=f"{id(request):016x}", spec=request.spec()
    )


def _run_partition(executor, requests, partition):
    """Execute ``requests`` grouped per ``partition``; responses in
    request order."""
    assert sum(partition) == len(requests)
    responses = []
    it = iter(requests)
    for size in partition:
        group = [_pending(next(it)) for _ in range(size)]
        executor.execute(group)
        responses.extend(p.response for p in group)
    return responses


def _walk_payload(response):
    return (response["lengths"], response.get("walks"), response.get("times"))


ENGINE_CONFIGS = [
    pytest.param("tea", {}, id="tea-scalar"),
    pytest.param("tea-batch", {}, id="tea-batch"),
    pytest.param(
        "tea-parallel",
        {"backend": "thread", "workers": 2, "chunk_size": 3},
        id="parallel-fixed-chunks",
    ),
    pytest.param(
        "tea-parallel",
        {"backend": "thread", "workers": 2, "chunk_size": 1},
        id="parallel-one-lane-chunks",
    ),
    pytest.param(
        "tea-parallel",
        {"backend": "serial", "chunk_size": 2},
        id="parallel-serial",
    ),
]

PARTITIONS = [(6,), (3, 3), (1, 5), (2, 2, 2), (1, 1, 1, 1, 1, 1)]


@pytest.fixture(scope="module")
def parity_graph(small_graph):
    return small_graph


@pytest.mark.parametrize("engine_kind,engine_kwargs", ENGINE_CONFIGS)
def test_any_partition_matches_solo(parity_graph, engine_kind, engine_kwargs):
    session = TeaSession(parity_graph, engine=engine_kind, engine_kwargs=engine_kwargs)
    executor = BatchExecutor(session)
    try:
        requests = _make_requests(6)
        solo = _run_partition(executor, requests, (1, 1, 1, 1, 1, 1))
        for partition in PARTITIONS:
            batched = _run_partition(executor, requests, partition)
            for a, b in zip(solo, batched):
                assert _walk_payload(a) == _walk_payload(b), (
                    engine_kind, engine_kwargs, partition
                )
    finally:
        session.close()


@pytest.mark.parametrize("engine_kind,engine_kwargs", ENGINE_CONFIGS)
def test_batch_order_is_invisible(parity_graph, engine_kind, engine_kwargs):
    """Within one coalesced batch, request order must not matter."""
    session = TeaSession(parity_graph, engine=engine_kind, engine_kwargs=engine_kwargs)
    executor = BatchExecutor(session)
    try:
        requests = _make_requests(4)
        baseline = {}
        group = [_pending(r) for r in requests]
        executor.execute(group)
        for pending in group:
            baseline[pending.request.seed] = _walk_payload(pending.response)
        for perm in itertools.islice(itertools.permutations(requests), 1, 6):
            group = [_pending(r) for r in perm]
            executor.execute(group)
            for pending in group:
                assert _walk_payload(pending.response) == baseline[
                    pending.request.seed
                ]
    finally:
        session.close()


def test_vectorised_and_parallel_agree(parity_graph):
    """tea-batch and every tea-parallel configuration share the kernel,
    so batched serving results are bit-identical across them."""
    requests = _make_requests(5, app="node2vec")
    reference = None
    for kind, kwargs in [
        ("tea-batch", {}),
        ("tea-parallel", {"backend": "serial", "chunk_size": 2}),
        ("tea-parallel", {"backend": "thread", "workers": 2, "chunk_size": 1}),
    ]:
        session = TeaSession(parity_graph, engine=kind, engine_kwargs=kwargs)
        executor = BatchExecutor(session)
        try:
            group = [_pending(r) for r in requests]
            executor.execute(group)
            payload = [_walk_payload(p.response) for p in group]
        finally:
            session.close()
        if reference is None:
            reference = payload
        else:
            assert payload == reference, (kind, kwargs)


def test_recommendations_batch_parity(parity_graph):
    """The recommend endpoint is walk batching + deterministic
    aggregation, so top-k lists survive coalescing bit-for-bit."""
    session = TeaSession(parity_graph, engine="tea-batch")
    executor = BatchExecutor(session)
    try:
        requests = _make_requests(4, kind="recommend")
        solo = _run_partition(executor, requests, (1, 1, 1, 1))
        batched = _run_partition(executor, requests, (4,))
        for a, b in zip(solo, batched):
            assert a["recommendations"] == b["recommendations"]
            assert a["recommendations"] or a["lengths"]
    finally:
        session.close()


def test_mixed_specs_do_not_bleed(parity_graph):
    """Requests with different batch keys form separate groups; runs of
    one group must not perturb another (no cross-request RNG bleed)."""
    session = TeaSession(parity_graph, engine="tea-batch")
    executor = BatchExecutor(session)
    try:
        exp = _make_requests(3, app="exponential")
        n2v = _make_requests(3, app="node2vec")
        solo = _run_partition(executor, exp + n2v, (1,) * 6)
        # Interleave execution: exp batch, n2v batch, exp batch ...
        mixed = []
        mixed.extend(_run_partition(executor, exp[:2], (2,)))
        mixed.extend(_run_partition(executor, n2v, (3,)))
        mixed.extend(_run_partition(executor, exp[2:], (1,)))
        ordered = mixed[:2] + mixed[5:] + mixed[2:5]
        for a, b in zip(solo, ordered):
            assert _walk_payload(a) == _walk_payload(b)
        assert exp[0].batch_key() != n2v[0].batch_key()
        assert exp[0].batch_key() == exp[1].batch_key()
    finally:
        session.close()


def test_http_staged_batch_matches_solo(parity_graph):
    """End-to-end: a staged 4-request HTTP batch returns exactly what
    the same queries return when served alone."""
    _staged_batch_matches_solo(parity_graph, "exponential")


def test_http_staged_node2vec_batch_matches_solo(parity_graph):
    """The same through node2vec's β rejection — in the daemon one
    compiled call per iteration, lanes keyed per request."""
    _staged_batch_matches_solo(parity_graph, "node2vec")


def _staged_batch_matches_solo(parity_graph, app):
    queries = [
        dict(starts=[2 + i], walks_per_vertex=2, seed=50 + i, max_length=8,
             app=app)
        for i in range(4)
    ]
    with WalkService(parity_graph, engine="tea-batch", queue_depth=16) as service:
        client = ServeClient(port=service.port)
        service.pause()
        results = {}

        def _go(idx):
            results[idx] = client.walk(**queries[idx])

        threads = [threading.Thread(target=_go, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        deadline = time.monotonic() + 10.0
        while service.batcher.depth() < 4:
            assert time.monotonic() < deadline, "requests never parked"
            time.sleep(0.005)
        service.resume()
        for t in threads:
            t.join(timeout=30.0)
        assert len(results) == 4
        assert all(r["batched_with"] == 4 for r in results.values())
        for idx, query in enumerate(queries):
            solo = client.walk(**query)
            assert solo["batched_with"] == 1
            assert solo["walks"] == results[idx]["walks"]
            assert solo["times"] == results[idx]["times"]


def test_batch_key_ignores_postprocessing_knobs(parity_graph):
    """record_paths / top_k / kind must not fragment batches."""
    spec = build_spec("exponential")
    a = WalkRequest(kind="walk", starts=(1,), seed=1, record_paths=False)
    b = WalkRequest(kind="recommend", starts=(2,), seed=2, top_k=9)
    assert a.batch_key(spec) == b.batch_key(spec)
    c = WalkRequest(kind="walk", starts=(1,), seed=1, max_length=33)
    assert a.batch_key() != c.batch_key()
