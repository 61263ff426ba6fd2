"""Network front-end throughput: HTTP loopback ingest vs in-process submit.

The :mod:`repro.service.net` front end puts the streaming service behind the
standard library's threaded HTTP/1.1 server; :class:`ServiceClient` drives it
over one keep-alive ``http.client`` connection.  This benchmark measures what
the wire costs on top of the WAL'd submit path: the same event stream is
ingested (a) straight through ``UpdateService.submit`` (the in-process
baseline), (b) over loopback HTTP one event per request, and (c) over
loopback HTTP in grid batches — then the read path is sampled with
``/value`` round-trips for a wire-level query p50/p99.  Every HTTP 200 is a
durable ack, so the deltas between rows are pure protocol overhead, not
durability shortcuts.
"""

from __future__ import annotations

import tempfile
import time

import pytest

from conftest import dataset, record, run_once

from repro.bench.reporting import format_table
from repro.engine.algorithms import make_algorithm
from repro.incremental import make_engine
from repro.service import ServiceClient, UpdateService, serve
from repro.workloads.updates import poisoned_event_stream

NUM_EVENTS = 200
BATCH = 8
QUERY_SAMPLES = 100


def _service(directory):
    graph = dataset("uk")
    engine = make_engine("kickstarter", make_algorithm("sssp", source=0))
    engine.initialize(graph)
    events = list(
        poisoned_event_stream(
            graph, num_events=NUM_EVENTS, seed=11, poison_rate=0.0, protect=0
        )
    )
    service = UpdateService(engine, directory, batch_size=BATCH, max_queue=512)
    return service, events


def _percentile(values, fraction):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def _inprocess_row():
    service, events = _service(tempfile.mkdtemp(prefix="net-bench-local-"))
    started = time.perf_counter()
    try:
        for update in events:
            service.submit(update)
        service.drain(timeout=300.0)
        elapsed = time.perf_counter() - started
        latencies = []
        for _ in range(QUERY_SAMPLES):
            t0 = time.perf_counter()
            service.snapshot().value(0)
            latencies.append(time.perf_counter() - t0)
    finally:
        service.close()
    return {
        "path": "in-process",
        "updates_per_s": NUM_EVENTS / elapsed,
        "query_p50_us": _percentile(latencies, 0.50) * 1e6,
        "query_p99_us": _percentile(latencies, 0.99) * 1e6,
    }


def _wire_rows():
    service, events = _service(tempfile.mkdtemp(prefix="net-bench-wire-"))
    rows = []
    try:
        server = serve(service, "127.0.0.1", 0)
        client = ServiceClient("127.0.0.1", server.port)
        try:
            half = NUM_EVENTS // 2
            # (b) one event per HTTP request
            started = time.perf_counter()
            for seq, update in enumerate(events[:half], start=1):
                status, _doc = client.submit(update, seq=seq)
                assert status == 200
            elapsed = time.perf_counter() - started
            rows.append({"path": "HTTP singles", "updates_per_s": half / elapsed})
            # (c) grid-aligned batches per request
            started = time.perf_counter()
            for base in range(half, NUM_EVENTS, BATCH):
                chunk = events[base : base + BATCH]
                status, doc = client.submit_batch(
                    [(base + i + 1, update) for i, update in enumerate(chunk)]
                )
                assert status == 200 and len(doc["acks"]) == len(chunk)
            elapsed = time.perf_counter() - started
            rows.append(
                {"path": f"HTTP batches of {BATCH}", "updates_per_s": (NUM_EVENTS - half) / elapsed}
            )
            status, _doc = client.drain(timeout=300.0)
            assert status == 200
            latencies = []
            for _ in range(QUERY_SAMPLES):
                t0 = time.perf_counter()
                status, doc = client.value(0)
                latencies.append(time.perf_counter() - t0)
                assert status == 200
            for row in rows:
                row["query_p50_us"] = _percentile(latencies, 0.50) * 1e6
                row["query_p99_us"] = _percentile(latencies, 0.99) * 1e6
            status, doc = client.health()
            assert status == 200 and doc["published_seq"] == NUM_EVENTS
        finally:
            client.close()
            server.close()
    finally:
        if not service.health()["dead"]:
            service.close()
    return rows


def _run():
    rows = [_inprocess_row()]
    rows.extend(_wire_rows())
    return rows


def test_net_throughput(benchmark):
    rows = run_once(benchmark, _run)
    assert len(rows) == 3
    table = format_table(
        ["ingest path", "updates/s", "query p50 (µs)", "query p99 (µs)"],
        [
            [
                row["path"],
                f"{row['updates_per_s']:.0f}",
                f"{row['query_p50_us']:.1f}",
                f"{row['query_p99_us']:.1f}",
            ]
            for row in rows
        ],
        title=(
            "Network front end (kickstarter/sssp on uk): loopback HTTP ingest "
            "and query vs in-process, every 200 a durable WAL'd ack"
        ),
    )
    print("\n" + table)
    record("net_throughput", table)
