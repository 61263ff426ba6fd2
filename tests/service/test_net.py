"""HTTP front end: endpoint contracts, backpressure, push, and SIGKILL.

Everything except the kill leg runs the server in-process (served from a
background thread, one handler thread per connection, the service's writer
on its own thread as always).  The kill leg boots the standalone
``python -m repro.service.net`` process, drives acked submits while a
chunked subscription stream is open, SIGKILLs it mid-stream, and proves the
over-the-wire durability contract: every HTTP-200-acked event is present
after ``UpdateService.recover()`` with states bitwise-identical to a
fault-free reference run, and a subscriber reconnecting to the recovered
service re-anchors on a consistent baseline and delta stream.
"""

from __future__ import annotations

import http.client
import math
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.engine.algorithms import make_algorithm
from repro.graph.delta import EdgeUpdate, UpdateKind
from repro.incremental import make_engine
from repro.service import UpdateService, net
from repro.service.net import ServiceClient, demo_graph, serve, value_from_wire
from repro.workloads.updates import poisoned_event_stream

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _make_service(tmp_path, name="svc", **kwargs):
    graph = demo_graph()
    engine = make_engine("kickstarter", make_algorithm("sssp", source=0))
    engine.initialize(graph)
    kwargs.setdefault("batch_size", 8)
    return UpdateService(engine, str(tmp_path / name), **kwargs), graph


def _events(graph, n=48, seed=7):
    return poisoned_event_stream(
        graph, num_events=n, seed=seed, poison_rate=0.0, protect=0
    )


def _run_with_server(service, fn):
    """Boot server + client, run ``fn(server, client)``."""
    try:
        server = serve(service)
        client = ServiceClient(server.host, server.port)
        try:
            return fn(server, client)
        finally:
            client.close()
            server.close()
    finally:
        if not service.health()["dead"]:
            service.close()


def _in_background(fn):
    """Run ``fn`` on its own thread; ``result(timeout)`` re-raises."""
    executor = ThreadPoolExecutor(max_workers=1)
    future = executor.submit(fn)
    executor.shutdown(wait=False)
    return future


def _pairs(wire_pairs):
    return [(int(v), value_from_wire(val)) for v, val in wire_pairs]


# ----------------------------------------------------------------------
# request/response endpoints
# ----------------------------------------------------------------------
def test_submit_query_drain_roundtrip(tmp_path):
    service, graph = _make_service(tmp_path)
    events = _events(graph, 24)

    def scenario(server, client):
        status, doc = client.ready()
        assert status == 200 and doc["ready"] is True
        # single submits with explicit seqs
        for seq, update in enumerate(events[:8], start=1):
            status, doc = client.submit(update, seq=seq)
            assert status == 200
            assert doc["acks"] == [seq] and doc["duplicates"] == []
        # one batched submit for the rest (server assigns seqs)
        status, doc = client.submit_batch(
            [(None, update) for update in events[8:]]
        )
        assert status == 200
        assert doc["acks"] == list(range(9, len(events) + 1))
        status, doc = client.drain()
        assert status == 200 and doc["drained"] is True
        assert doc["health"]["last_disposed_seq"] == len(events)

        snapshot = service.snapshot()
        status, doc = client.health()
        assert status == 200
        assert doc["published_seq"] == snapshot.seq
        assert doc["staleness_events"] == 0

        # point read: bitwise equality through the hex side-channel
        vertex = sorted(snapshot.states)[3]
        status, doc = client.value(vertex)
        assert status == 200 and doc["vertex"] == vertex
        assert float.fromhex(doc["hex"]) == snapshot.states[vertex] or (
            math.isnan(float.fromhex(doc["hex"]))
            and math.isnan(snapshot.states[vertex])
        )
        assert doc["checksum"] == snapshot.checksum

        # top-k read matches the snapshot's own ranking
        status, doc = client.topk(5, largest=False)
        assert status == 200
        assert _pairs(doc["entries"]) == snapshot.top_k(5, largest=False)
        return True

    assert _run_with_server(service, scenario)


def test_idempotent_resubmit_and_seq_gap(tmp_path):
    service, graph = _make_service(tmp_path)
    events = _events(graph, 8)

    def scenario(server, client):
        for seq, update in enumerate(events, start=1):
            status, _doc = client.submit(update, seq=seq)
            assert status == 200
        # a retried batch dup-acks every seq, re-enqueueing nothing
        status, doc = client.submit_batch(
            [(seq, update) for seq, update in enumerate(events, start=1)]
        )
        assert status == 200
        assert doc["acks"] == doc["duplicates"] == list(range(1, 9))
        # a gap is a client bug: 409 with the expected next seq in detail
        status, doc = client.submit(events[0], seq=42)
        assert status == 409 and doc["error"] == "seq_conflict"
        assert "gap" in doc["detail"]
        assert service.health()["stats"]["events_submitted"] == len(events)
        return True

    assert _run_with_server(service, scenario)


def test_poison_submit_reports_quarantine_diagnosis(tmp_path):
    service, _graph = _make_service(tmp_path)

    def scenario(server, client):
        poison = EdgeUpdate(UpdateKind.ADD_EDGE, 1, 2, float("nan"))
        status, doc = client.submit(poison, seq=1)
        assert status == 200  # durable (WAL'd) even though it will dead-letter
        assert doc["acks"] == [1]
        diagnosis = doc["quarantine"]["1"]
        assert any("weight" in problem for problem in diagnosis["problems"])
        client.drain()
        status, doc = client.dlq()
        assert status == 200
        assert [entry["seq"] for entry in doc["entries"]] == [1]
        assert doc["entries"][0]["kind"] == "intrinsic"
        return True

    assert _run_with_server(service, scenario)


def test_overload_maps_to_429_with_retry_after(tmp_path):
    # batch_size far above the queue bound: the writer waits for a full
    # grid, so submitted events sit in the queue and the bound is reachable
    service, graph = _make_service(tmp_path, batch_size=64, max_queue=4)
    events = _events(graph, 8)

    def scenario(server, client):
        for seq, update in enumerate(events[:4], start=1):
            status, _doc = client.submit(update, seq=seq)
            assert status == 200
        status, doc = client.submit(events[4], seq=5, timeout=0)
        assert status == 429
        assert doc["error"] == "overloaded"
        assert doc["acks"] == []  # nothing from this request was WAL'd
        assert server.stats["overloaded"] == 1
        # the client backs off, the service drains, then the retry lands
        status, _doc = client.drain()
        assert status == 200
        status, doc = client.submit(events[4], seq=5, timeout=0)
        assert status == 200 and doc["acks"] == [5]
        return True

    assert _run_with_server(service, scenario)


def test_error_statuses(tmp_path):
    service, _graph = _make_service(tmp_path)

    def scenario(server, client):
        status, doc = client.request("GET", "/nope")
        assert status == 404 and doc["error"] == "unknown_endpoint"
        status, doc = client.request("GET", "/submit")
        assert status == 405 and doc["error"] == "method_not_allowed"
        status, doc = client.request("GET", "/value/abc")
        assert status == 400 and doc["error"] == "bad_vertex"
        status, doc = client.request("GET", "/value/999999")
        assert status == 404 and doc["error"] == "unknown_vertex"
        status, doc = client.request("GET", "/topk?k=0")
        assert status == 400
        status, doc = client.request("POST", "/submit", {"events": []})
        assert status == 400 and doc["error"] == "bad_events"
        status, doc = client.request("POST", "/submit", {"no": "update"})
        assert status == 400
        status, doc = client.request(
            "GET", "/subscription/unknown-id/poll?wait=0"
        )
        assert status == 404 and doc["hint"].startswith("resubscribe")
        return True

    assert _run_with_server(service, scenario)


def test_oversized_body_is_413(tmp_path, monkeypatch):
    monkeypatch.setattr(net, "MAX_BODY", 1024)
    service, _graph = _make_service(tmp_path)

    def scenario(server, client):
        status, doc = client.request(
            "POST", "/submit", {"junk": "x" * 4096}
        )
        assert status == 413 and doc["error"] == "body_too_large"
        return True

    assert _run_with_server(service, scenario)


def test_not_ready_after_close_is_503(tmp_path):
    service, _graph = _make_service(tmp_path)

    def scenario(server, client):
        service.close()
        status, doc = client.ready()
        assert status == 503 and doc["ready"] is False
        status, doc = client.submit(
            EdgeUpdate(UpdateKind.ADD_EDGE, 0, 1, 1.0), seq=1
        )
        assert status == 503 and doc["error"] == "service_unavailable"
        return True

    assert _run_with_server(service, scenario)


def test_connection_cap_rejects_then_frees_a_slot(tmp_path, monkeypatch):
    monkeypatch.setattr(net, "MAX_CONNECTIONS", 2)
    service, _graph = _make_service(tmp_path)

    def scenario(server, client):
        held = ServiceClient(server.host, server.port)
        try:
            # two keep-alive connections hold both slots
            assert client.health()[0] == 200 and held.health()[0] == 200
            third = ServiceClient(server.host, server.port)
            status, doc = third.health()
            third.close()
            assert status == 503 and doc["error"] == "too_many_connections"
            assert server.stats["rejected_connections"] >= 1
        finally:
            held.close()
        # the slot frees once the closed connection's thread sees the hang-up
        deadline = time.monotonic() + 5.0
        while True:
            fresh = ServiceClient(server.host, server.port)
            status, _doc = fresh.health()
            fresh.close()
            if status == 200:
                return True
            assert time.monotonic() < deadline, "no slot freed after close"
            time.sleep(0.02)

    assert _run_with_server(service, scenario)


def test_concurrent_connections_count_every_request(tmp_path):
    # more client threads than cores and a short switch interval, so a lost
    # update on the handler threads' shared counters would show
    service, _graph = _make_service(tmp_path)
    threads, per_thread = 6, 25

    def hammer(server):
        other = ServiceClient(server.host, server.port)
        try:
            return [other.health()[0] for _ in range(per_thread)]
        finally:
            other.close()

    def scenario(server, client):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                futures = [pool.submit(hammer, server) for _ in range(threads)]
                statuses = [s for future in futures for s in future.result(60.0)]
        finally:
            sys.setswitchinterval(interval)
        assert statuses == [200] * (threads * per_thread)
        assert server.stats["requests"] == threads * per_thread
        return True

    assert _run_with_server(service, scenario)


def _hang_up_stub():
    """A listener that reads one request per connection and closes without
    answering; returns ``(listener, requests_seen)``."""
    listener = socket.create_server(("127.0.0.1", 0))
    seen = []

    def run():
        while True:
            try:
                conn, _addr = listener.accept()
            except OSError:
                return
            with conn:
                if conn.recv(1 << 16):
                    seen.append(1)

    threading.Thread(target=run, daemon=True).start()
    return listener, seen


@pytest.mark.parametrize("with_seq", [False, True])
def test_client_resends_only_what_is_safe_to_repeat(with_seq):
    # a lost response to a seq-less submit may hide an event already WAL'd:
    # resending it would enqueue the event twice, so the client raises; a
    # submit whose events all carry seqs dup-acks and is resent once
    listener, seen = _hang_up_stub()
    client = ServiceClient(*listener.getsockname())
    update = EdgeUpdate(UpdateKind.ADD_EDGE, 0, 1, 1.0)
    try:
        with pytest.raises((OSError, http.client.HTTPException)):
            if with_seq:
                client.submit_batch([(1, update), (2, update)])
            else:
                client.submit(update)
    finally:
        client.close()
        listener.close()
    assert len(seen) == (2 if with_seq else 1)


# ----------------------------------------------------------------------
# subscriptions over the wire
# ----------------------------------------------------------------------
def _shortcut_updates(snapshot, count=1, weight=1e-6):
    """Edges source->v with tiny weight: v's SSSP distance must drop."""
    victims = [
        v
        for v, value in sorted(snapshot.states.items())
        if v != 0 and math.isfinite(value) and value > 0.001
    ]
    assert len(victims) >= count
    return victims[:count], [
        EdgeUpdate(UpdateKind.ADD_EDGE, 0, v, weight) for v in victims[:count]
    ]


def test_long_poll_delivers_watched_vertex_delta(tmp_path):
    service, _graph = _make_service(tmp_path, batch_size=1)

    def scenario(server, client):
        (victim,), updates = _shortcut_updates(service.snapshot())
        status, sub = client.subscribe_vertices([victim])
        assert status == 200
        baseline = dict(_pairs(sub["baseline"]))
        assert victim in baseline

        poller = _in_background(lambda: client.poll(sub["id"], wait=10.0))
        time.sleep(0.05)
        other = ServiceClient(server.host, server.port)
        try:
            status, doc = other.submit(updates[0], seq=1)
            assert status == 200
        finally:
            other.close()
        status, doc = poller.result(15.0)
        assert status == 200
        deltas = doc["deltas"]
        assert deltas, "long-poll should have been woken by the publish"
        changed = dict(_pairs(deltas[-1]["changed"]))
        assert changed[victim] == service.snapshot().states[victim]
        assert changed[victim] < baseline[victim]
        # unsubscribe, then the id is gone
        status, _doc = client.unsubscribe(sub["id"])
        assert status == 200
        status, _doc = client.poll(sub["id"], wait=0)
        assert status == 404
        return True

    assert _run_with_server(service, scenario)


def test_stream_pushes_topk_deltas(tmp_path):
    service, _graph = _make_service(tmp_path, batch_size=1)

    def scenario(server, client):
        victims, updates = _shortcut_updates(service.snapshot(), count=3)
        status, sub = client.subscribe_topk(4, largest=False)
        assert status == 200
        records = []

        def reader():
            for record in client.stream(sub["id"]):
                records.append(record)
                if record["kind"] in ("closed", "evicted"):
                    return
                if sum(1 for r in records if r["kind"] == "topk") >= 1:
                    return

        task = _in_background(reader)
        time.sleep(0.05)
        other = ServiceClient(server.host, server.port)
        try:
            for seq, update in enumerate(updates, start=1):
                status, _doc = other.submit(update, seq=seq)
                assert status == 200
            other.drain()
        finally:
            other.close()
        task.result(15.0)
        assert records[0]["kind"] == "hello"
        assert _pairs(records[0]["baseline"]) == [
            tuple(pair) for pair in _pairs(sub["baseline"])
        ]
        topk_records = [r for r in records if r["kind"] == "topk"]
        assert topk_records, f"no topk push in {records}"
        seqs = [r["seq"] for r in topk_records]
        assert seqs == sorted(seqs)
        return True

    assert _run_with_server(service, scenario)


def test_slow_consumer_gets_410_and_resubscribes(tmp_path):
    service, _graph = _make_service(tmp_path, batch_size=1)

    def scenario(server, client):
        victims, updates = _shortcut_updates(service.snapshot(), count=4)
        status, sub = client.subscribe_vertices(victims, max_pending=1)
        assert status == 200
        # four separate publishes, never polled: bounded queue drops + evicts
        for seq, update in enumerate(updates, start=1):
            status, _doc = client.submit(update, seq=seq)
            assert status == 200
        client.drain()
        status, doc = client.poll(sub["id"], wait=0)
        assert status == 410
        assert doc["error"] == "subscriber_evicted"
        assert "resubscribe" in doc["hint"]
        # the hinted recovery works: fresh subscription, fresh baseline
        status, fresh = client.subscribe_vertices(victims)
        assert status == 200
        baseline = dict(_pairs(fresh["baseline"]))
        snapshot = service.snapshot()
        assert all(baseline[v] == snapshot.states[v] for v in victims)
        return True

    assert _run_with_server(service, scenario)


# ----------------------------------------------------------------------
# the kill leg: 200-acked means durable, over the wire
# ----------------------------------------------------------------------
def _spawn_server(directory):
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service.net", "--directory", directory],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
        text=True,
    )
    seen = []
    for _ in range(50):  # skip interpreter warnings until the bind line
        line = proc.stdout.readline().strip()
        seen.append(line)
        if line.startswith("LISTENING"):
            _tag, host, port = line.split()
            return proc, host, int(port)
        if not line and proc.poll() is not None:
            break
    proc.kill()
    raise AssertionError(f"server failed to boot: {seen!r}")


def test_sigkill_mid_stream_recovers_bitwise(tmp_path):
    graph = demo_graph()
    events = _events(graph, 120, seed=9)
    directory = str(tmp_path / "svc")
    proc, host, port = _spawn_server(directory)
    stream_records = []

    def drive():
        client = ServiceClient(host, port)
        status, sub = client.subscribe_topk(5, largest=False)
        assert status == 200

        def reader():
            try:
                for record in client.stream(sub["id"]):
                    stream_records.append(record)
            except (OSError, http.client.HTTPException):
                pass  # the kill severs the stream mid-chunk

        task = _in_background(reader)
        acked = 0
        for seq, update in enumerate(events[:60], start=1):
            status, doc = client.submit(update, seq=seq)
            assert status == 200 and doc["acks"] == [seq]
            acked = seq
        # SIGKILL with the stream open and the pipeline mid-flight
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
        with pytest.raises((OSError, http.client.HTTPException)):
            for attempt in range(2):  # keep-alive socket may die lazily
                client.submit(events[60], seq=61)
        task.result(10.0)
        client.close()
        return acked

    try:
        acked = drive()
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.stdout.close()
    assert acked == 60

    # pre-kill stream: hello + monotone, bounded topk pushes (no phantoms)
    assert stream_records and stream_records[0]["kind"] == "hello"
    topk_seqs = [r["seq"] for r in stream_records if r["kind"] == "topk"]
    assert topk_seqs == sorted(topk_seqs)
    assert all(seq <= acked + 1 for seq in topk_seqs)

    # recover in-process: every acked seq must be on disk
    recovered = UpdateService.recover(directory, batch_size=8)
    try:
        last_walled = recovered.health()["last_walled_seq"]
        assert last_walled >= acked
        assert recovered.health()["replaying"] or recovered.ready()
        recovered.drain()
        assert recovered.ready()

        # fault-free reference over the same durable prefix
        ref_engine = make_engine("kickstarter", make_algorithm("sssp", source=0))
        ref_engine.initialize(demo_graph())
        reference = UpdateService(ref_engine, str(tmp_path / "ref"), batch_size=8)
        try:
            for seq, update in enumerate(events[:last_walled], start=1):
                reference.submit(update, seq=seq)
            reference.drain()
            ref_snap = reference.snapshot()
        finally:
            reference.close()
        rec_snap = recovered.snapshot()
        assert rec_snap.seq == ref_snap.seq
        assert rec_snap.states == ref_snap.states  # bitwise: dict float equality
        assert rec_snap.top_k(10, largest=False) == ref_snap.top_k(10, largest=False)

        # a reconnecting subscriber re-anchors consistently on the recovered
        # service and its stream tracks the post-recovery publishes
        def reconnect():
            server = serve(recovered)
            client = ServiceClient(server.host, server.port)
            try:
                status, sub = client.subscribe_topk(5, largest=False)
                assert status == 200
                assert _pairs(sub["baseline"]) == rec_snap.top_k(5, largest=False)
                assert sub["seq"] == rec_snap.seq
                for seq, update in enumerate(
                    events[last_walled : last_walled + 16],
                    start=last_walled + 1,
                ):
                    status, doc = client.submit(update, seq=seq)
                    assert status == 200
                client.drain()
                status, doc = client.poll(sub["id"], wait=2.0)
                assert status == 200
                last = _pairs(sub["baseline"])
                for delta in doc["deltas"]:
                    assert delta["kind"] == "topk"
                    last = _pairs(delta["topk"])
                assert last == recovered.snapshot().top_k(5, largest=False)
            finally:
                client.close()
                server.close()

        reconnect()
    finally:
        if not recovered.health()["dead"]:
            recovered.close()
