"""Unit and lifecycle coverage for the streaming update service.

The chaos harness (``test_chaos.py``) proves end-to-end crash equivalence;
this file pins the individual contracts: WAL round-trips and sequencing,
submit acknowledgement and idempotent resubmits, backpressure, poison
quarantine into a durable dead-letter queue, transient-failure retries,
the watchdog restore path, and snapshot immutability on the read path.
"""

from __future__ import annotations

import math
import threading
import time

import pytest

from repro.bench.harness import build_engine
from repro.engine.algorithms import make_algorithm
from repro.graph.delta import EdgeUpdate, UpdateKind, VertexUpdate
from repro.graph.generators import community_graph
from repro.service import (
    Event,
    EventLog,
    FaultInjector,
    ServiceDead,
    ServiceKilled,
    ServiceOverloaded,
    UpdateService,
)
from repro.storage.edge_store import StoreError
from repro.workloads.updates import poisoned_event_stream


def _graph(seed=5):
    return community_graph(
        num_communities=3,
        community_size_range=(10, 14),
        intra_edge_probability=0.3,
        inter_edges_per_community=3,
        weighted=True,
        seed=seed,
    )


def _engine(graph, name="kickstarter", algorithm="sssp"):
    engine = build_engine(name, make_algorithm(algorithm, source=0))
    engine.initialize(graph)
    return engine


def _service(tmp_path, graph=None, **kwargs):
    graph = graph if graph is not None else _graph()
    kwargs.setdefault("batch_size", 8)
    return UpdateService(_engine(graph), str(tmp_path / "svc"), **kwargs), graph


def _clean_stream(graph, n=32, seed=3):
    return poisoned_event_stream(graph, num_events=n, seed=seed, poison_rate=0.0, protect=0)


# ----------------------------------------------------------------------
# WAL round-trips
# ----------------------------------------------------------------------
def test_event_log_roundtrips_bit_exact(tmp_path):
    path = str(tmp_path / "events.log")
    updates = [
        EdgeUpdate(UpdateKind.ADD_EDGE, 1, 2, 0.1 + 0.2),  # not representable
        EdgeUpdate(UpdateKind.ADD_EDGE, 3, 4, float("nan")),
        EdgeUpdate(UpdateKind.ADD_EDGE, 5, 6, float("inf")),
        EdgeUpdate(UpdateKind.DELETE_EDGE, 1, 2),
        VertexUpdate(UpdateKind.ADD_VERTEX, 7, ((7, 1, -0.0), (2, 7, 1e-308))),
        VertexUpdate(UpdateKind.DELETE_VERTEX, 7),
    ]
    log = EventLog(path)
    for seq, update in enumerate(updates, start=1):
        log.append(Event(seq, update))
    log.close()
    events, discarded = EventLog(path).read()
    assert discarded == 0
    assert [event.seq for event in events] == [1, 2, 3, 4, 5, 6]
    for event, update in zip(events, updates):
        assert repr(event.update) == repr(update)  # repr: NaN-safe equality
    weights = [event.update.weight for event in events[:3]]
    assert weights[0].hex() == (0.1 + 0.2).hex()
    assert math.isnan(weights[1]) and math.isinf(weights[2])


def test_event_log_discards_torn_tail_and_seq_gaps(tmp_path):
    path = str(tmp_path / "events.log")
    log = EventLog(path)
    log.append(Event(1, EdgeUpdate(UpdateKind.ADD_EDGE, 1, 2, 1.0)))
    log.append(Event(2, EdgeUpdate(UpdateKind.ADD_EDGE, 2, 3, 1.0)))
    log.close()
    with open(path, "ab") as handle:
        handle.write(b"deadbeef {torn")  # crash mid-append
    events, discarded = EventLog(path).read()
    assert [event.seq for event in events] == [1, 2]
    assert discarded == 1

    gapped = EventLog(str(tmp_path / "gap.log"))
    gapped.append(Event(1, EdgeUpdate(UpdateKind.ADD_EDGE, 1, 2, 1.0)))
    gapped.append(Event(3, EdgeUpdate(UpdateKind.ADD_EDGE, 2, 3, 1.0)))
    gapped.append(Event(4, EdgeUpdate(UpdateKind.ADD_EDGE, 3, 4, 1.0)))
    gapped.close()
    events, discarded = EventLog(str(tmp_path / "gap.log")).read()
    assert [event.seq for event in events] == [1]  # stop at the gap
    assert discarded == 2


# ----------------------------------------------------------------------
# submit: ack, idempotent resubmit, lifecycle
# ----------------------------------------------------------------------
def test_submit_acks_and_resubmit_is_idempotent(tmp_path):
    service, graph = _service(tmp_path)
    try:
        stream = _clean_stream(graph, 16)
        seqs = [service.submit(update) for update in stream]
        assert seqs == list(range(1, 17))
        # a client that lost the ack resubmits with its explicit seq: no-op
        assert service.submit(stream[4], seq=5) == 5
        service.drain()
        assert service.health()["last_applied_seq"] == 16
        assert service.stats.events_submitted == 16  # the dup was not re-walled
        with pytest.raises(ValueError, match="gap"):
            service.submit(stream[0], seq=99)
    finally:
        service.close()
    with pytest.raises(ServiceDead):
        service.submit(stream[0])


def test_fresh_start_refuses_existing_wal(tmp_path):
    service, graph = _service(tmp_path)
    service.submit(_clean_stream(graph, 4)[0])
    service.drain()
    service.close()
    with pytest.raises(StoreError, match="recover"):
        UpdateService(_engine(graph), str(tmp_path / "svc"))


def test_backpressure_raises_overloaded(tmp_path):
    release = threading.Event()
    faults = FaultInjector()
    faults.arm("mid_apply", lambda _context: release.wait(10.0), times=1)
    service, graph = _service(tmp_path, batch_size=1, max_queue=2, faults=faults)
    try:
        stream = _clean_stream(graph, 8)
        service.submit(stream[0])  # taken by the writer, stuck in mid_apply
        deadline = time.monotonic() + 5.0
        while service.health()["queue_depth"] < 2 and time.monotonic() < deadline:
            try:
                service.submit(stream[len(stream) - 1], seq=None, timeout=0.05)
            except ServiceOverloaded:
                break
            time.sleep(0.01)
        with pytest.raises(ServiceOverloaded):
            service.submit(stream[3], timeout=0.1)
        release.set()
        service.drain()
        # once the writer drained the queue, submits flow again
        service.submit(stream[4])
        service.drain()
    finally:
        release.set()
        service.close()


# ----------------------------------------------------------------------
# quarantine and the dead-letter queue
# ----------------------------------------------------------------------
def test_poison_event_quarantines_to_durable_dlq(tmp_path):
    service, graph = _service(tmp_path)
    try:
        good = _clean_stream(graph, 8)
        poison = EdgeUpdate(UpdateKind.ADD_EDGE, 0, 1, float("nan"))
        for update in good[:4]:
            service.submit(update)
        poison_seq = service.submit(poison)
        for update in good[4:]:
            service.submit(update)
        service.drain()
        entries = service.dlq.entries()
        assert [entry.seq for entry in entries] == [poison_seq]
        assert entries[0].kind == "intrinsic"
        assert "non-finite" in entries[0].problems[0]
        assert service.stats.quarantined_intrinsic == 1
        # the healthy events around the poison all applied
        assert service.health()["last_applied_seq"] == 9
        snapshot = service.snapshot()
        assert snapshot.quarantined >= 1
    finally:
        service.close()
    # the dead-letter log is durable: recovery re-enumerates it
    recovered = UpdateService.recover(str(tmp_path / "svc"))
    try:
        assert recovered.dlq.seqs() == [poison_seq]
        assert recovered.dlq.entries()[0].recovered
    finally:
        recovered.close()


def test_transient_io_errors_retry_with_backoff(tmp_path):
    faults = FaultInjector()
    faults.arm("mid_apply", OSError, times=2)
    service, graph = _service(
        tmp_path, faults=faults, max_apply_retries=2, backoff_base=0.001
    )
    try:
        for update in _clean_stream(graph, 8):
            service.submit(update)
        service.drain()
        assert service.stats.transient_errors == 2
        assert service.stats.apply_retries == 2
        assert service.stats.quarantined_apply == 0
        assert service.health()["last_applied_seq"] == 8
    finally:
        service.close()


def test_watchdog_timeout_restores_engine_and_retries(tmp_path):
    graph = _graph()
    # fault-free reference for the final states
    reference, _ = _service(tmp_path / "ref", graph=graph)
    stream = _clean_stream(graph, 16)
    try:
        for update in stream:
            reference.submit(update)
        reference.drain()
        expected = reference.snapshot().states
    finally:
        reference.close()

    faults = FaultInjector()
    faults.arm("mid_apply", lambda _context: time.sleep(1.0), times=1)
    service, _ = _service(
        tmp_path / "wd",
        graph=graph,
        watchdog_timeout=0.2,
        max_apply_retries=2,
        backoff_base=0.001,
        faults=faults,
    )
    try:
        for update in stream:
            service.submit(update)
        service.drain()
        assert service.stats.watchdog_timeouts == 1
        assert service.stats.watchdog_restores == 1
        assert service.snapshot().states == expected  # bitwise
    finally:
        service.close()


def test_unrecoverable_apply_failure_bisects_to_one_event(tmp_path):
    faults = FaultInjector()
    # every apply attempt covering seq 5 fails: the batch bisects down to
    # the single event, which is quarantined with kind="apply"
    faults.arm(
        "mid_apply",
        OSError(28, "No space left on device"),
        when=lambda context: context["lo"] <= 5 <= context["hi"],
        times=1000,
    )
    service, graph = _service(
        tmp_path, faults=faults, max_apply_retries=1, backoff_base=0.0005
    )
    try:
        for update in _clean_stream(graph, 16):
            service.submit(update)
        service.drain()
        assert service.dlq.seqs() == [5]
        entry = service.dlq.entries()[0]
        assert entry.kind == "apply"
        assert service.stats.quarantined_apply == 1
        assert service.stats.bisect_splits >= 1
        # everything else still applied
        assert service.health()["last_disposed_seq"] == 16
    finally:
        service.close()


# ----------------------------------------------------------------------
# read path
# ----------------------------------------------------------------------
def test_snapshots_are_immutable_and_versions_monotonic(tmp_path):
    service, graph = _service(tmp_path, batch_size=4)
    try:
        stream = _clean_stream(graph, 24)
        for update in stream[:8]:
            service.submit(update)
        service.drain()
        early = service.snapshot()
        early_states = dict(early.states)
        assert early.verify()
        for update in stream[8:]:
            service.submit(update)
        service.drain()
        late = service.snapshot()
        # the old snapshot is frozen: later applies never touched it
        assert early.states == early_states
        assert early.verify()
        assert late.seq > early.seq
        # point and top-k queries answer from the snapshot
        source_value = late.value(0)
        assert source_value == 0.0  # sssp source
        top = late.top_k(3, largest=False)
        assert top[0] == (0, 0.0)
        assert [vertex for vertex, _value in top] == sorted(
            late.states, key=lambda v: (late.states[v], v)
        )[:3]
    finally:
        service.close()


def test_vertex_events_flow_through_service(tmp_path):
    service, graph = _service(tmp_path, batch_size=4)
    try:
        fresh = max(graph.vertices()) + 1
        service.submit(
            VertexUpdate(
                UpdateKind.ADD_VERTEX, fresh, ((0, fresh, 1.25), (fresh, 1, 0.5))
            )
        )
        service.drain()
        assert service.snapshot().value(fresh) == 1.25
        service.submit(VertexUpdate(UpdateKind.DELETE_VERTEX, fresh))
        # deleting a vertex that is already gone folds to a no-op
        service.submit(VertexUpdate(UpdateKind.DELETE_VERTEX, fresh + 1))
        service.drain()
        assert service.snapshot().value(fresh) is None
        assert service.stats.noop_ranges >= 1
    finally:
        service.close()


def test_health_reports_progress_and_staleness(tmp_path):
    service, graph = _service(tmp_path)
    try:
        for update in _clean_stream(graph, 8):
            service.submit(update)
        service.drain()
        health = service.health()
        assert health["ready"] is True
        assert health["dead"] is False
        assert health["queue_depth"] == 0
        assert health["last_walled_seq"] == 8
        assert health["last_disposed_seq"] == 8
        assert health["published_seq"] == 8
        assert health["staleness_events"] == 0
        assert health["staleness_seconds"] >= 0.0
        assert health["stats"]["snapshots_published"] >= 1
        assert health["batch_size"] == 8
    finally:
        service.close()
    assert service.ready() is False


# ----------------------------------------------------------------------
# bug-sweep regressions: health/ready windows, deadline handling, races
# ----------------------------------------------------------------------
def test_health_before_first_batch_has_no_phantom_staleness(tmp_path):
    """The initial snapshot predates any publish; its age is construction
    time, not data staleness — health must report 0.0, not a growing (or
    negative/non-finite) number."""
    service, graph = _service(tmp_path)
    try:
        time.sleep(0.15)
        health = service.health()
        assert health["published"] is False
        assert health["staleness_events"] == 0
        assert health["staleness_seconds"] == 0.0
        assert health["replaying"] is False
        assert health["ready"] is True
        # events below the grid boundary sit in the queue: staleness is
        # real now, but finite and non-negative
        for update in _clean_stream(graph, 3):
            service.submit(update)
        health = service.health()
        assert health["staleness_events"] == 3
        assert math.isfinite(health["staleness_seconds"])
        assert health["staleness_seconds"] >= 0.0
        service.drain()
        assert service.health()["staleness_seconds"] == 0.0
    finally:
        service.close()


def test_ready_is_false_during_recovery_replay(tmp_path):
    """A recovered service replaying its WAL suffix serves stale snapshots;
    readiness must say so until the replay catches up."""
    # kill as seq 8 WALs but before it enqueues: the writer never saw a
    # full grid, so recovery replays the complete batch [1..8] on its own
    faults = FaultInjector()
    faults.arm("post_wal_append", ServiceKilled, when=lambda c: c.get("seq") == 8)
    service, graph = _service(tmp_path, faults=faults)
    stream = _clean_stream(graph, 16)
    with pytest.raises((ServiceKilled, ServiceDead)):
        for index, update in enumerate(stream):
            service.submit(update, seq=index + 1)
    assert not service.ready()

    stall = FaultInjector()
    stall.arm("pre_apply", lambda _context: time.sleep(0.4), times=1)
    recovered = UpdateService.recover(
        str(tmp_path / "svc"), batch_size=8, faults=stall
    )
    try:
        health = recovered.health()
        assert health["replaying"] is True
        assert recovered.ready() is False  # alive, but serving stale state
        assert health["dead"] is False
        deadline = time.monotonic() + 10.0
        while recovered.health()["replaying"] and time.monotonic() < deadline:
            time.sleep(0.02)
        assert recovered.health()["replaying"] is False
        assert recovered.ready() is True
        assert recovered.health()["last_disposed_seq"] == 8
    finally:
        recovered.close()


def test_submit_timeout_zero_never_blocks(tmp_path):
    """timeout=0 (and negative timeouts) must resolve immediately: room ->
    ack, no room -> ServiceOverloaded; never a hang past the deadline."""
    service, graph = _service(tmp_path, batch_size=64, max_queue=2)
    try:
        stream = _clean_stream(graph, 8)
        assert service.submit(stream[0], timeout=0) == 1
        assert service.submit(stream[1], timeout=-3.0) == 2
        started = time.monotonic()
        with pytest.raises(ServiceOverloaded):
            service.submit(stream[2], timeout=0)
        assert time.monotonic() - started < 1.0
        started = time.monotonic()
        with pytest.raises(ServiceOverloaded):
            service.submit(stream[2], timeout=-1.0)
        assert time.monotonic() - started < 1.0
    finally:
        service.close()


def test_blocked_submit_wakes_on_close_instead_of_hanging(tmp_path):
    service, graph = _service(tmp_path, batch_size=64, max_queue=1)
    stream = _clean_stream(graph, 4)
    service.submit(stream[0])
    outcome = {}

    def blocked_submit():
        started = time.monotonic()
        try:
            service.submit(stream[1], timeout=30.0)
            outcome["result"] = "acked"
        except ServiceDead:
            outcome["result"] = "dead"
        outcome["elapsed"] = time.monotonic() - started

    thread = threading.Thread(target=blocked_submit)
    thread.start()
    time.sleep(0.2)  # let it park in the backpressure wait
    service.close()
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    assert outcome["result"] == "dead"
    assert outcome["elapsed"] < 10.0  # woke on close, not on its own deadline


def test_drain_racing_close_raises_instead_of_hanging(tmp_path):
    faults = FaultInjector()
    faults.arm("mid_apply", lambda _context: time.sleep(0.8), times=1)
    service, graph = _service(tmp_path, batch_size=64, faults=faults)
    for update in _clean_stream(graph, 3):
        service.submit(update)
    outcome = {}

    def racing_drain():
        started = time.monotonic()
        try:
            service.drain(timeout=30.0)
            outcome["result"] = "drained"
        except ServiceDead:
            outcome["result"] = "dead"
        except TimeoutError:
            outcome["result"] = "timeout"
        outcome["elapsed"] = time.monotonic() - started

    thread = threading.Thread(target=racing_drain)
    thread.start()
    time.sleep(0.2)  # drain has flushed the batch into the slow apply
    service.close()
    thread.join(timeout=15.0)
    assert not thread.is_alive()
    assert outcome["result"] == "dead"
    assert outcome["elapsed"] < 10.0


def test_concurrent_drains_keep_flushing_until_the_last_returns(tmp_path):
    """Two overlapping drains: the short one timing out must not cancel the
    long one's flush (the old boolean flag did exactly that)."""
    faults = FaultInjector()
    faults.arm("mid_apply", lambda _context: time.sleep(0.6), times=1)
    service, graph = _service(tmp_path, batch_size=64, faults=faults)
    try:
        stream = _clean_stream(graph, 8)
        for update in stream[:3]:
            service.submit(update)
        outcome = {}

        def long_drain():
            try:
                service.drain(timeout=15.0)
                outcome["long"] = "drained"
            except Exception as error:
                outcome["long"] = repr(error)

        def short_drain():
            try:
                service.drain(timeout=0.2)
                outcome["short"] = "drained"
            except TimeoutError:
                outcome["short"] = "timeout"

        long_thread = threading.Thread(target=long_drain)
        short_thread = threading.Thread(target=short_drain)
        long_thread.start()
        short_thread.start()
        time.sleep(0.25)  # first wave is mid-apply; short drain timed out
        for update in stream[3:5]:
            service.submit(update)  # second wave needs flush mode to persist
        short_thread.join(timeout=10.0)
        long_thread.join(timeout=20.0)
        assert not long_thread.is_alive()
        assert outcome["short"] == "timeout"
        assert outcome["long"] == "drained"
        assert service.health()["last_disposed_seq"] == 5
    finally:
        service.close()


def test_resubmit_of_quarantined_seq_dup_acks(tmp_path):
    """A seq that was WAL'd and then dead-lettered is still durable: the
    resubmit dup-acks instead of re-enqueueing or double-quarantining."""
    service, graph = _service(tmp_path, batch_size=1)
    try:
        poison = EdgeUpdate(UpdateKind.ADD_EDGE, 0, 1, float("nan"))
        seq, duplicate = service.submit_event(poison, seq=1)
        assert (seq, duplicate) == (1, False)
        service.drain()
        assert service.dlq.seqs() == [1]
        seq, duplicate = service.submit_event(poison, seq=1)
        assert (seq, duplicate) == (1, True)
        service.drain()
        assert service.dlq.seqs() == [1]
        assert service.stats.events_submitted == 1
        assert service.stats.quarantined_intrinsic == 1
    finally:
        service.close()
