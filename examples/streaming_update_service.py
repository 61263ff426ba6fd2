#!/usr/bin/env python
"""A fault-tolerant streaming update service, end to end.

Scenario: a ranking service keeps shortest-path distances fresh while edge
events stream in from unreliable producers — some events are malformed
(NaN weights), the apply path occasionally hiccups, and the process can be
killed at any moment.  The example drives :class:`repro.service.UpdateService`
through the full lifecycle:

1. ingest a seeded event stream (each submit is WAL'd + fsync'd before the
   acknowledgement comes back);
2. serve point/top-k queries from immutable published snapshots while the
   writer coalesces and applies batches;
3. quarantine the poison events to the dead-letter queue without stalling
   the stream;
4. kill the service mid-stream (simulated with the chaos injector), then
   ``UpdateService.recover`` the directory and show the replayed run lands
   on states bitwise-identical to an uninterrupted reference run.

Run with::

    python examples/streaming_update_service.py
"""

from __future__ import annotations

import shutil
import tempfile

from repro.bench.reporting import format_table
from repro.engine.algorithms import make_algorithm
from repro.graph.generators import community_graph
from repro.incremental import make_engine
from repro.service import FaultInjector, ServiceKilled, ServiceDead, UpdateService
from repro.workloads.updates import poisoned_event_stream

NUM_EVENTS = 120
KILL_SEQ = 60


def build_service(graph, directory, faults=None):
    engine = make_engine("kickstarter", make_algorithm("sssp", source=0))
    engine.initialize(graph)
    return UpdateService(engine, directory, batch_size=8, faults=faults)


def submit_all(service, stream):
    """Submit with explicit seqs so resubmits after a crash dup-ack."""
    for index, update in enumerate(stream):
        try:
            service.submit(update, seq=index + 1)
        except (ServiceKilled, ServiceDead):
            return index + 1
    service.drain()
    return None


def main() -> None:
    graph = community_graph(
        num_communities=6,
        community_size_range=(15, 25),
        intra_edge_probability=0.2,
        inter_edges_per_community=4,
        weighted=True,
        seed=42,
    )
    print(f"graph: {graph.num_vertices()} vertices, {graph.num_edges()} edges")
    stream = poisoned_event_stream(
        graph, num_events=NUM_EVENTS, seed=9, poison_rate=0.04, protect=0
    )

    # ------------------------------------------------------------------
    # reference: the same stream with no faults
    # ------------------------------------------------------------------
    ref_dir = tempfile.mkdtemp(prefix="svc-ref-")
    reference = build_service(graph, ref_dir)
    assert submit_all(reference, stream) is None
    ref_snapshot = reference.snapshot()
    ref_dlq = reference.dlq.seqs()
    print(
        f"\nreference run: applied through seq {ref_snapshot.seq}, "
        f"{len(ref_dlq)} poison events quarantined at {ref_dlq}"
    )
    print("nearest vertices:", ref_snapshot.top_k(5, largest=False))
    reference.close()
    shutil.rmtree(ref_dir)

    # ------------------------------------------------------------------
    # chaos run: kill the process right after event 60 hits the WAL
    # ------------------------------------------------------------------
    directory = tempfile.mkdtemp(prefix="svc-demo-")
    faults = FaultInjector()
    faults.arm("post_wal_append", ServiceKilled, when=lambda c: c["seq"] == KILL_SEQ)
    service = build_service(graph, directory, faults=faults)
    stopped_at = submit_all(service, stream)
    print(
        f"\nservice killed at event {stopped_at} "
        f"(event {KILL_SEQ} was WAL'd but never acknowledged)"
    )

    # recover from the directory: WAL replay + durable-store warm restore
    recovered = UpdateService.recover(directory, batch_size=8)
    health = recovered.health()
    print(
        f"recovered: durable floor seq {health['last_applied_seq']}, "
        f"replaying {health['last_walled_seq'] - health['last_applied_seq']} "
        "WAL'd events, then resubmitting the rest"
    )
    assert submit_all(recovered, stream) is None

    snapshot = recovered.snapshot()
    rows = [
        ["final seq", ref_snapshot.seq, snapshot.seq],
        ["states bitwise equal", "-", snapshot.states == ref_snapshot.states],
        ["checksum", ref_snapshot.checksum, snapshot.checksum],
        ["dead-letter queue", ref_dlq, recovered.dlq.seqs()],
    ]
    print(
        "\n"
        + format_table(
            ["", "fault-free reference", "killed + recovered"],
            rows,
            title="Exactly-once recovery",
        )
    )
    assert snapshot.states == ref_snapshot.states
    assert recovered.dlq.seqs() == ref_dlq
    recovered.close()
    shutil.rmtree(directory)
    print("\nkilled, recovered, and bitwise-identical to the reference run.")


if __name__ == "__main__":
    main()
