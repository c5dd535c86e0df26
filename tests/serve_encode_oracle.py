"""Per-walk response assembly: the encoding oracle.

This is how ``repro.serve.executor.BatchExecutor`` built a response
before it went columnar: one ``int()`` / ``float()`` call per hop, a
dict of visit counts per recommendation. It is kept here, unoptimised,
as the reference the columnar ``_encode`` / ``_recommend`` must equal
byte for byte once JSON-encoded — see
``tests/test_serve_batching.py::TestColumnarEncodeEqualsPerWalk``.
:func:`stream_encode` is the same for ``StreamService.walk``, which
built its response from a list of ``WalkPath`` objects
(``TestStreamEncodeEqualsPerPath``).
"""

from repro.serve.protocol import SERVE_SCHEMA


def encode(pending, frontier, lo, hi, batched_with, engine_kind):
    request = pending.request
    lengths = frontier.lengths[lo:hi]
    response = {
        "schema": SERVE_SCHEMA,
        "kind": request.kind,
        "run_id": pending.request_id,
        "num_walks": int(hi - lo),
        "lengths": [int(n) for n in lengths],
        "batched_with": int(batched_with),
        "engine": engine_kind,
    }
    if request.record_paths and frontier.hop_vertex is not None:
        walks, times = [], []
        starts = frontier.starts[lo:hi]
        for i in range(hi - lo):
            n = int(lengths[i])
            walks.append(
                [int(starts[i])]
                + [int(v) for v in frontier.hop_vertex[lo + i, :n]]
            )
            times.append([float(t) for t in frontier.hop_time[lo + i, :n]])
        response["walks"] = walks
        response["times"] = times
    if request.kind == "recommend":
        response["recommendations"] = recommend(request, frontier, lo, hi)
    return response


def recommend(request, frontier, lo, hi):
    if frontier.hop_vertex is None:
        return []
    visited = [int(v) for i in range(lo, hi)
               for v in frontier.hop_vertex[i, :int(frontier.lengths[i])]]
    return rank(visited, request.starts, request.top_k)


def rank(visited, starts, top_k):
    """Visit counts in a dict, starts excluded, ties by vertex id."""
    exclude = set(int(v) for v in starts)
    counts = {}
    for vertex in visited:
        if vertex not in exclude:
            counts[vertex] = counts.get(vertex, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [[vertex, count] for vertex, count in ranked[:top_k]]


def stream_encode(view, paths, kind, starts, top_k):
    response = {
        "schema": SERVE_SCHEMA,
        "kind": f"stream_{kind}",
        "epoch": int(view.epoch),
        "num_edges": int(view.num_edges),
        "num_walks": len(paths),
        "lengths": [p.num_edges for p in paths],
        "walks": [[int(v) for v in p.vertices] for p in paths],
        "times": [[float(t) for t in p.times[1:]] for p in paths],
    }
    if kind == "recommend":
        visited = [int(v) for path in paths for v in path.vertices[1:]]
        response["recommendations"] = rank(visited, starts, top_k)
    return response
