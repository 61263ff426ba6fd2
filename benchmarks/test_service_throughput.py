"""Streaming service throughput: updates/s ingested vs query latency.

The paper's serving story (fig1/fig5/fig10) is a loop of edge updates
streaming in while queries read fresh results.  This benchmark runs that
loop through :class:`repro.service.UpdateService` end to end — WAL fsync on
every submit, coalescing writer, snapshot publish after every batch — with
a concurrent reader hammering point + top-k queries, and records sustained
updates/s against the query p99.  The read path must stay in the
microseconds: queries only ever touch the immutable published snapshot,
never the engine.
"""

from __future__ import annotations

import tempfile
import threading
import time

import pytest

from conftest import dataset, record, run_once

from repro.bench.reporting import format_table
from repro.engine.algorithms import make_algorithm
from repro.incremental import make_engine
from repro.service import UpdateService
from repro.workloads.updates import poisoned_event_stream

NUM_EVENTS = 400
BATCH = 8


class _QueryLoad(threading.Thread):
    """Concurrent reader measuring per-query latency."""

    def __init__(self, service):
        super().__init__(daemon=True)
        self.service = service
        self.halt = threading.Event()
        self.latencies = []

    def run(self):
        while not self.halt.is_set():
            start = time.perf_counter()
            snapshot = self.service.snapshot()
            snapshot.value(0)
            snapshot.top_k(8)
            self.latencies.append(time.perf_counter() - start)

    def stop(self):
        self.halt.set()
        self.join(timeout=5.0)


def _percentile(values, fraction):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def _serve(engine_name, algorithm):
    graph = dataset("uk")
    stream = poisoned_event_stream(
        graph, num_events=NUM_EVENTS, seed=11, poison_rate=0.0, protect=0
    )
    engine = make_engine(engine_name, make_algorithm(algorithm, source=0))
    engine.initialize(graph)
    directory = tempfile.mkdtemp(prefix="svc-bench-")
    service = UpdateService(engine, directory, batch_size=BATCH, max_queue=512)
    load = _QueryLoad(service)
    load.start()
    started = time.perf_counter()
    try:
        for update in stream:
            service.submit(update)
        service.drain(timeout=300.0)
        elapsed = time.perf_counter() - started
    finally:
        load.stop()
        service.close()
    health = service.health()
    return {
        "updates_per_s": NUM_EVENTS / elapsed,
        "queries": len(load.latencies),
        "query_p50_us": _percentile(load.latencies, 0.50) * 1e6,
        "query_p99_us": _percentile(load.latencies, 0.99) * 1e6,
        "snapshots": health["stats"]["snapshots_published"],
        "published_seq": health["published_seq"],
    }


@pytest.mark.parametrize(
    "engine_name,algorithm",
    [("kickstarter", "sssp"), ("ingress", "pagerank")],
)
def test_service_throughput(benchmark, engine_name, algorithm):
    stats = run_once(benchmark, _serve, engine_name, algorithm)
    assert stats["published_seq"] == NUM_EVENTS  # every event served
    assert stats["queries"] > 0
    table = format_table(
        ["engine", "algorithm", "updates/s", "queries", "query p50 (µs)", "query p99 (µs)", "snapshots"],
        [
            [
                engine_name,
                algorithm,
                f"{stats['updates_per_s']:.0f}",
                stats["queries"],
                f"{stats['query_p50_us']:.1f}",
                f"{stats['query_p99_us']:.1f}",
                stats["snapshots"],
            ]
        ],
        title=(
            f"Service throughput ({engine_name}/{algorithm} on uk): WAL'd ingest "
            "vs concurrent snapshot queries"
        ),
    )
    print("\n" + table)
    record("service_throughput", table)
