"""E-commerce recommendations served by the walk daemon.

The paper motivates temporal walks with e-commerce networks (Section 1):
"users' preferences evolve from time to time; static graph analysis
would ... result in inaccurate or misleading market decisions." This
example runs the full serving topology in one process: it builds a
bipartite user→item interaction stream, boots a `repro serve` daemon
(`WalkService`) over it, and asks the daemon for recommendations via
the HTTP API — the same `POST /recommend` a production client would
call. Concurrent anchor queries are issued from threads so the daemon's
request batcher coalesces them into shared frontier runs (check the
`coalesced` counter it prints).

It then contrasts the temporal node2vec recommendations against a
*static* walk corpus (uniform weights, temporal order ignored) to show
the temporal bias shifting recommendations toward recent interests.

Run:  python examples/ecommerce_recommendation.py
(Standalone daemon: `PYTHONPATH=src python -m repro.cli serve --help`.)
"""

import threading
from collections import Counter

import numpy as np

from repro import TemporalGraph
from repro.graph.generators import temporal_bipartite
from repro.serve import ServeClient, WalkService

NUM_USERS = 120
NUM_ITEMS = 60
NUM_EVENTS = 4000


def build_graph(seed: int = 3) -> TemporalGraph:
    stream = temporal_bipartite(
        num_left=NUM_USERS,
        num_right=NUM_ITEMS,
        num_edges=NUM_EVENTS,
        alpha=0.8,
        time_horizon=365.0,  # one year of interactions
        seed=seed,
    )
    return TemporalGraph.from_stream(stream)


def item_id(v: int) -> int:
    return v - NUM_USERS


def is_item(v: int) -> bool:
    return v >= NUM_USERS


def popular_items(client: ServeClient, n: int = 3) -> list:
    """One /walk query over every item vertex; rank items by visits."""
    corpus = client.walk(
        starts=list(range(NUM_USERS, NUM_USERS + NUM_ITEMS)),
        app="node2vec", p=0.5, q=2.0, scale=30.0,
        walks_per_vertex=2, max_length=12, seed=11,
    )
    popularity = Counter(
        item_id(v) for walk in corpus["walks"] for v in walk if is_item(v)
    )
    return [item for item, _ in popularity.most_common(n)]


def recommend(client: ServeClient, anchor: int, app: str, **params) -> list:
    """Top item co-visits for one anchor item, served by the daemon."""
    response = client.recommend(
        starts=[NUM_USERS + anchor],
        app=app,
        walks_per_vertex=24,
        max_length=12,
        seed=100 + anchor,
        top_k=12,  # over-fetch: walks alternate user/item, we keep items
        record_paths=False,
        **params,
    )
    return [
        (item_id(v), count)
        for v, count in response["recommendations"]
        if is_item(v)
    ][:3]


def main() -> None:
    graph = build_graph()
    print(f"interaction graph: {graph}")

    with WalkService(graph, engine="tea-batch") as service:
        client = ServeClient(port=service.port)
        print(f"daemon: http://{service.host}:{service.port} "
              f"({client.healthz()['status']})")

        anchors = popular_items(client)

        # Fire all anchor queries concurrently: compatible requests
        # coalesce into one frontier run inside the daemon.
        temporal_recs, static_recs = {}, {}

        def _query(anchor):
            temporal_recs[anchor] = recommend(
                client, anchor, app="node2vec", p=0.5, q=2.0, scale=30.0
            )
            static_recs[anchor] = recommend(client, anchor, app="unbiased")

        threads = [
            threading.Thread(target=_query, args=(a,)) for a in anchors
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        print("\ntop-3 recommendations per anchor item:")
        print(f"{'anchor':>8} | {'temporal node2vec':^28} | {'static uniform':^28}")
        for anchor in anchors:
            t3 = ", ".join(f"{b}({c})" for b, c in temporal_recs[anchor])
            s3 = ", ".join(f"{b}({c})" for b, c in static_recs[anchor])
            print(f"{anchor:>8} | {t3:^28} | {s3:^28}")

        # Quantify the temporal bias: average timestamp of edges the two
        # corpora traverse (served over /walk with paths + times).
        def mean_walk_time(app, **params):
            corpus = client.walk(
                starts=[NUM_USERS + a for a in anchors],
                app=app, walks_per_vertex=8, max_length=12, seed=7, **params,
            )
            times = [t for walk in corpus["times"] for t in walk]
            return float(np.mean(times)) if times else float("nan")

        temporal_t = mean_walk_time("node2vec", p=0.5, q=2.0, scale=30.0)
        static_t = mean_walk_time("unbiased")
        print(
            f"\nmean traversed-edge timestamp: "
            f"temporal={temporal_t:.1f} days, static={static_t:.1f} days "
            f"(temporal walks favour recent interactions)"
        )

        counters = client.stats()["counters"]
        print(
            f"daemon served {counters['served']} requests in "
            f"{counters['batches']} frontier runs "
            f"({counters['coalesced']} coalesced)"
        )


if __name__ == "__main__":
    main()
