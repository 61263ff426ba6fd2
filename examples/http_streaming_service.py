#!/usr/bin/env python
"""The streaming service over HTTP: durable submits and push subscriptions.

Scenario: the fault-tolerant update service from
``examples/streaming_update_service.py`` goes on the network.  A producer
submits edge events over loopback HTTP (every 200 response means the event
is WAL'd + fsync'd — a durable ack), dashboards watch the five nearest
vertices through a push subscription, and a poison event shows up in the
structured 200 payload as a quarantine diagnosis instead of failing the
request.  The example drives :func:`repro.service.serve` end to end:

1. boot the threaded HTTP front end on an ephemeral loopback port;
2. subscribe to the smallest-distance top-5 and collect pushed deltas
   (long-poll) while batched submits stream in;
3. submit a NaN-weight poison event and read its dead-letter diagnosis
   from the submit response and ``GET /dlq``;
4. resubmit an already-acked seq and show the idempotent dup-ack;
5. drain over the wire and verify the subscriber's last pushed ranking
   equals the final snapshot's own ``/topk``.

Run with::

    python examples/http_streaming_service.py
"""

from __future__ import annotations

import shutil
import tempfile

from repro.bench.reporting import format_table
from repro.engine.algorithms import make_algorithm
from repro.graph.delta import EdgeUpdate, UpdateKind
from repro.graph.generators import community_graph
from repro.incremental import make_engine
from repro.service import ServiceClient, UpdateService, serve
from repro.workloads.updates import poisoned_event_stream

NUM_EVENTS = 64
BATCH = 8


def build_service(directory):
    graph = community_graph(
        num_communities=3,
        community_size_range=(10, 14),
        intra_edge_probability=0.3,
        inter_edges_per_community=3,
        weighted=True,
        seed=5,
    )
    engine = make_engine("kickstarter", make_algorithm("sssp", source=0))
    engine.initialize(graph)
    events = list(
        poisoned_event_stream(
            graph, num_events=NUM_EVENTS, seed=9, poison_rate=0.0, protect=0
        )
    )
    return UpdateService(engine, directory, batch_size=BATCH), events, graph


def demo(service, events) -> None:
    server = serve(service, "127.0.0.1", 0)
    client = ServiceClient("127.0.0.1", server.port)
    try:
        status, health = client.health()
        print(f"serving on 127.0.0.1:{server.port} (health {status}: "
              f"ready={health['ready']}, published_seq={health['published_seq']})")

        # --------------------------------------------------------------
        # watch the five nearest vertices before any traffic arrives
        # --------------------------------------------------------------
        status, sub = client.subscribe_topk(5, largest=False)
        assert status == 200
        print(f"subscribed {sub['id']}: baseline top-5 at seq {sub['seq']} = "
              f"{[v for v, _ in sub['baseline']]}")

        # --------------------------------------------------------------
        # durable batched ingest: each 200 means every event in the batch
        # is on disk; the acks echo our client-side seqs
        # --------------------------------------------------------------
        acked = 0
        for base in range(0, NUM_EVENTS, BATCH):
            chunk = events[base : base + BATCH]
            status, doc = client.submit_batch(
                [(base + i + 1, update) for i, update in enumerate(chunk)]
            )
            assert status == 200
            acked += len(doc["acks"])
        print(f"submitted {acked} events over the wire, all durably acked")

        # resubmitting an acked seq is a dup-ack, not a double apply
        status, doc = client.submit(events[0], seq=1)
        assert status == 200 and doc["duplicates"] == [1]
        print("resubmit of seq 1 dup-acked (idempotent ingest)")

        # --------------------------------------------------------------
        # a poison event: HTTP 200 (it is durably WAL'd) with a
        # quarantine diagnosis once the writer dead-letters it
        # --------------------------------------------------------------
        poison = EdgeUpdate(UpdateKind.ADD_EDGE, 0, 1, weight=float("nan"))
        status, doc = client.submit(poison, seq=NUM_EVENTS + 1, timeout=30.0)
        assert status == 200
        diagnosis = doc.get("quarantine", {}).get(str(NUM_EVENTS + 1))
        print(f"poison event diagnosed in the 200 payload: {diagnosis['problems']}")

        # --------------------------------------------------------------
        # drain, confirm the dead-letter verdict, then fold the pushed
        # deltas into the final ranking
        # --------------------------------------------------------------
        status, _doc = client.drain(timeout=60.0)
        assert status == 200
        status, dlq = client.dlq()
        seqs = [entry["seq"] for entry in dlq["entries"]]
        print(f"dead-letter queue over the wire: seqs {seqs}")
        assert seqs == [NUM_EVENTS + 1]
        last = [tuple(pair) for pair in sub["baseline"]]
        deltas = 0
        while True:
            status, doc = client.poll(sub["id"], wait=0.2)
            if status != 200 or not doc["deltas"]:
                break
            for delta in doc["deltas"]:
                last = [tuple(pair) for pair in delta["topk"]]
                deltas += 1
        status, top = client.topk(5, largest=False)
        final = [tuple(pair) for pair in top["entries"]]
        rows = [
            ["pushed deltas", deltas],
            ["last pushed top-5", [v for v, _ in last]],
            ["final /topk", [v for v, _ in final]],
            ["rankings agree", last == final],
        ]
        print("\n" + format_table(["", "value"], rows, title="Subscription push"))
        assert last == final
        client.unsubscribe(sub["id"])
    finally:
        client.close()
        server.close()


def main() -> None:
    directory = tempfile.mkdtemp(prefix="svc-http-demo-")
    service, events, graph = build_service(directory)
    print(f"graph: {graph.num_vertices()} vertices, {graph.num_edges()} edges")
    try:
        demo(service, events)
    finally:
        service.close()
        shutil.rmtree(directory)
    print("\nevery 200 was a WAL'd ack; the watcher saw the same ranking the "
          "snapshot serves.")


if __name__ == "__main__":
    main()
