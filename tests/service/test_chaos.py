"""Chaos harness: the service's failure model, end to end.

One seeded 200-event stream (three poison events at fixed positions) is
driven through the service under every fault the pipeline can suffer —
process kills on both sides of the WAL append, before the apply, inside the
apply, on both sides of the snapshot publish; forced ``OSError``
transients; a stuck apply that trips the watchdog — and after recovery every
run must be indistinguishable from the fault-free reference run:

* final states bitwise-identical (exactly-once: no event lost to a crash
  after acknowledgement, none applied twice by replay);
* the same three events in the dead-letter queue, enumerable;
* the engine-store log's event-range annotations identical — the recovered
  run applied literally the same batches;
* every query issued concurrently with the faults saw a consistent
  published version (checksum verifies, sequence never regresses).

The kill scenarios target seq 100 (batch 13 of 25 at batch size 8), away
from the poison batches, so the grid-aligned replay realigns exactly; that
also makes the equivalence hold bitwise for the *accumulative* engine
family (whose propagation is sensitive to how the stream is split into
apply calls), which the ingress/pagerank kill scenario pins down.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.bench.harness import build_engine
from repro.engine.algorithms import make_algorithm
from repro.graph.delta import EdgeUpdate, UpdateKind
from repro.graph.generators import community_graph
from repro.service import (
    FaultInjector,
    ServiceDead,
    ServiceKilled,
    UpdateService,
)
from repro.storage.store import EngineStore
from repro.storage.edge_store import DeltaLog

NUM_EVENTS = 200
BATCH = 8  # 25 full batches; 200 % 8 == 0 so no ragged tail
POISON_SEQS = (29, 65, 150)  # batches 4, 9 and 19 — away from the kills
KILL_SEQ = 100  # inside batch 13, a poison-free batch
STREAM_SEED = 3
COMPACT_EVERY = 100_000  # keep every log record: the harness audits them


def _graph():
    return community_graph(
        num_communities=3,
        community_size_range=(10, 14),
        intra_edge_probability=0.3,
        inter_edges_per_community=3,
        weighted=True,
        seed=5,
    )


def _stream(graph):
    from repro.workloads.updates import poisoned_event_stream

    events = list(
        poisoned_event_stream(
            graph,
            num_events=NUM_EVENTS - len(POISON_SEQS),
            seed=STREAM_SEED,
            poison_rate=0.0,
            protect=0,
        )
    )
    poisons = [
        EdgeUpdate(UpdateKind.ADD_EDGE, 900, 901, float("nan")),
        EdgeUpdate(UpdateKind.ADD_EDGE, 902, 903, float("inf")),
        EdgeUpdate(UpdateKind.ADD_EDGE, 904, 905, float("-inf")),
    ]
    for seq, poison in zip(POISON_SEQS, poisons):
        events.insert(seq - 1, poison)
    assert len(events) == NUM_EVENTS
    return events


class _Reader(threading.Thread):
    """Concurrent query load: every observed snapshot must be consistent."""

    def __init__(self, service):
        super().__init__(daemon=True)
        self.service = service
        self.halt = threading.Event()
        self.errors = []
        self.observed = 0

    def run(self):
        last_seq = -1
        while not self.halt.is_set():
            snapshot = self.service.snapshot()
            self.observed += 1
            if not snapshot.verify():
                self.errors.append(f"torn snapshot at seq {snapshot.seq}")
            if snapshot.seq < last_seq:
                self.errors.append(
                    f"published version regressed {last_seq} -> {snapshot.seq}"
                )
            last_seq = snapshot.seq
            if snapshot.value(0, 0.0) != 0.0:  # sssp/pagerank source invariant
                pass  # pagerank source is not 0.0; checked via checksum only
            time.sleep(0.001)

    def stop(self):
        self.halt.set()
        self.join(timeout=5.0)


def _applied_ranges(service_dir):
    """Every ``[lo, hi]`` WAL range the engine store saw applied, in order."""
    log = DeltaLog(
        os.path.join(service_dir, UpdateService.ENGINE_DIR, EngineStore.DELTA_LOG)
    )
    try:
        records, _discarded = log.read()
    finally:
        log.close()
    return [tuple(r.meta["events"]) for r in records if r.meta and "events" in r.meta]


def _service(tmp_path, graph, engine_name, algorithm, faults=None, **kwargs):
    engine = build_engine(engine_name, make_algorithm(algorithm, source=0))
    engine.initialize(graph)
    kwargs.setdefault("batch_size", BATCH)
    kwargs.setdefault("compact_every", COMPACT_EVERY)
    kwargs.setdefault("backoff_base", 0.001)
    return UpdateService(engine, str(tmp_path), faults=faults, **kwargs)


def _run_to_completion(service, stream):
    """Submit the whole stream (explicit seqs: resubmits dup-ack) and drain.

    Returns True if the service died mid-run (a kill fired) and recovery is
    needed; False if the run completed.
    """
    try:
        for index, update in enumerate(stream):
            service.submit(update, seq=index + 1)
        service.drain(timeout=120.0)
        return False
    except (ServiceKilled, ServiceDead):
        return True


def _finish(service):
    snapshot = service.snapshot()
    return {
        "states": dict(snapshot.states),
        "checksum": snapshot.checksum,
        "seq": snapshot.seq,
        "dlq": service.dlq.seqs(),
        "health": service.health(),
    }


@pytest.fixture(scope="module")
def reference():
    """Fault-free reference run (module-scoped: every scenario compares to it)."""
    import tempfile, shutil

    graph = _graph()
    stream = _stream(graph)
    results = {}
    for engine_name, algorithm in (("kickstarter", "sssp"), ("ingress", "pagerank")):
        directory = tempfile.mkdtemp(prefix="chaos-ref-")
        service = _service(directory, graph, engine_name, algorithm)
        reader = _Reader(service)
        reader.start()
        try:
            died = _run_to_completion(service, stream)
            assert not died, service._dead_reason
            result = _finish(service)
        finally:
            reader.stop()
            service.close()
        assert reader.errors == []
        result["ranges"] = _applied_ranges(directory)
        results[engine_name, algorithm] = result
        shutil.rmtree(directory)
    # the reference itself quarantined exactly the three poisons
    for result in results.values():
        assert result["dlq"] == list(POISON_SEQS)
        assert result["seq"] == NUM_EVENTS
    return graph, stream, results


def _assert_equivalent(outcome, reference_result, ranges):
    assert outcome["states"] == reference_result["states"]  # bitwise
    assert outcome["seq"] == NUM_EVENTS
    assert outcome["checksum"] == reference_result["checksum"]
    assert outcome["dlq"] == list(POISON_SEQS)
    assert outcome["health"]["last_disposed_seq"] == NUM_EVENTS
    # exactly-once, auditable: the union of runs applied the same ranges,
    # in order, with no overlap
    assert ranges == reference_result["ranges"]
    covered = set()
    for lo, hi in ranges:
        span = set(range(lo, hi + 1))
        assert not (covered & span), f"range [{lo},{hi}] overlaps a prior apply"
        covered |= span


KILL_SCENARIOS = [
    ("pre_wal_append", lambda c: c.get("seq") == KILL_SEQ),
    ("post_wal_append", lambda c: c.get("seq") == KILL_SEQ),
    ("pre_apply", lambda c: c.get("lo", -1) <= KILL_SEQ <= c.get("hi", -1)),
    ("mid_apply", lambda c: c.get("lo", -1) <= KILL_SEQ <= c.get("hi", -1)),
    ("pre_publish", lambda c: c.get("seq") == 104),  # hi of the kill batch
    ("post_publish", lambda c: c.get("seq") == 104),
]


@pytest.mark.parametrize("stage,when", KILL_SCENARIOS, ids=[s for s, _ in KILL_SCENARIOS])
def test_kill_at_stage_recovers_bitwise(tmp_path, reference, stage, when):
    graph, stream, results = reference
    faults = FaultInjector()
    faults.arm(stage, ServiceKilled, when=when)
    service = _service(tmp_path, graph, "kickstarter", "sssp", faults=faults)
    reader = _Reader(service)
    reader.start()
    try:
        died = _run_to_completion(service, stream)
    finally:
        reader.stop()
    assert died, f"the {stage} kill never fired"
    assert faults.fired and faults.fired[0][0] == stage
    assert not service.ready()
    assert reader.errors == []

    recovered = UpdateService.recover(
        str(tmp_path), batch_size=BATCH, compact_every=COMPACT_EVERY, backoff_base=0.001
    )
    reader2 = _Reader(recovered)
    reader2.start()
    try:
        died_again = _run_to_completion(recovered, stream)
        assert not died_again
        outcome = _finish(recovered)
    finally:
        reader2.stop()
        recovered.close()
    assert reader2.errors == []
    _assert_equivalent(outcome, results["kickstarter", "sssp"], _applied_ranges(str(tmp_path)))
    # the recovered DLQ marks replay-rebuilt entries
    assert all(entry.recovered or entry.seq > 96 for entry in recovered.dlq.entries())


def test_kill_recovers_bitwise_for_accumulative_engine(tmp_path, reference):
    """Grid-aligned replay keeps even the split-sensitive family bitwise."""
    graph, stream, results = reference
    faults = FaultInjector()
    faults.arm(
        "mid_apply",
        ServiceKilled,
        when=lambda c: c.get("lo", -1) <= KILL_SEQ <= c.get("hi", -1),
    )
    service = _service(tmp_path, graph, "ingress", "pagerank", faults=faults)
    died = _run_to_completion(service, stream)
    assert died
    recovered = UpdateService.recover(
        str(tmp_path), batch_size=BATCH, compact_every=COMPACT_EVERY, backoff_base=0.001
    )
    try:
        assert not _run_to_completion(recovered, stream)
        outcome = _finish(recovered)
    finally:
        recovered.close()
    _assert_equivalent(
        outcome, results["ingress", "pagerank"], _applied_ranges(str(tmp_path))
    )


def test_double_kill_across_incarnations(tmp_path, reference):
    """A second crash during replay still converges to the reference."""
    graph, stream, results = reference
    first = FaultInjector()
    first.arm(
        "mid_apply",
        ServiceKilled,
        when=lambda c: c.get("lo", -1) <= KILL_SEQ <= c.get("hi", -1),
    )
    service = _service(tmp_path, graph, "kickstarter", "sssp", faults=first)
    assert _run_to_completion(service, stream)

    second = FaultInjector()
    second.arm("post_publish", ServiceKilled, when=lambda c: c.get("seq") == 160)
    middle = UpdateService.recover(
        str(tmp_path),
        batch_size=BATCH,
        compact_every=COMPACT_EVERY,
        backoff_base=0.001,
        faults=second,
    )
    assert _run_to_completion(middle, stream)
    assert second.fired

    final = UpdateService.recover(
        str(tmp_path), batch_size=BATCH, compact_every=COMPACT_EVERY, backoff_base=0.001
    )
    try:
        assert not _run_to_completion(final, stream)
        outcome = _finish(final)
    finally:
        final.close()
    _assert_equivalent(
        outcome, results["kickstarter", "sssp"], _applied_ranges(str(tmp_path))
    )


def test_forced_transient_errors_retry_transparently(tmp_path, reference):
    graph, stream, results = reference
    faults = FaultInjector()
    faults.arm(
        "mid_apply",
        OSError("injected transient I/O error"),
        when=lambda c: c.get("lo", -1) <= KILL_SEQ <= c.get("hi", -1),
        times=2,
    )
    service = _service(
        tmp_path, graph, "kickstarter", "sssp", faults=faults, max_apply_retries=3
    )
    reader = _Reader(service)
    reader.start()
    try:
        assert not _run_to_completion(service, stream)
        outcome = _finish(service)
        assert service.stats.transient_errors == 2
        assert service.stats.apply_retries >= 2
    finally:
        reader.stop()
        service.close()
    assert reader.errors == []
    _assert_equivalent(outcome, results["kickstarter", "sssp"], _applied_ranges(str(tmp_path)))


def test_watchdog_timeout_restores_and_converges(tmp_path, reference):
    graph, stream, results = reference
    faults = FaultInjector()
    faults.arm(
        "mid_apply",
        lambda _context: time.sleep(1.5),
        when=lambda c: c.get("lo", -1) <= KILL_SEQ <= c.get("hi", -1),
        times=1,
    )
    service = _service(
        tmp_path,
        graph,
        "kickstarter",
        "sssp",
        faults=faults,
        watchdog_timeout=0.25,
        max_apply_retries=2,
    )
    reader = _Reader(service)
    reader.start()
    try:
        assert not _run_to_completion(service, stream)
        outcome = _finish(service)
        assert service.stats.watchdog_timeouts == 1
        assert service.stats.watchdog_restores == 1
    finally:
        reader.stop()
        service.close()
    assert reader.errors == []
    _assert_equivalent(outcome, results["kickstarter", "sssp"], _applied_ranges(str(tmp_path)))


def test_resubmit_after_quarantine_across_recovery(tmp_path, reference):
    """A quarantined seq above the recovery floor must stay exactly-once.

    Kill timing: within the poison batch [25..32], bisection applies
    [25..28], dead-letters 29 (appending its dlq.log record), then the kill
    lands in the apply of [30]. The floor is therefore 28 — *below* the
    already-logged quarantine. Recovery gives 29 its fresh chance during
    replay, the verdict repeats, and both sides must dedupe: the in-memory
    DLQ lists 29 once, dlq.log holds a single record for it, and the
    client's resubmit of the whole stream dup-acks into the reference
    outcome.
    """
    from repro.storage.edge_store import CrcLog

    graph, stream, results = reference
    faults = FaultInjector()
    faults.arm(
        "mid_apply",
        ServiceKilled,
        when=lambda c: c.get("lo") == 30 and c.get("hi") == 30,
    )
    service = _service(tmp_path, graph, "kickstarter", "sssp", faults=faults)
    assert _run_to_completion(service, stream)
    assert faults.fired

    def dlq_log_seqs():
        log = CrcLog(os.path.join(str(tmp_path), UpdateService.DLQ_LOG))
        try:
            payloads, _bad = log.read_payloads()
        finally:
            log.close()
        return [payload["seq"] for payload in payloads]

    assert dlq_log_seqs() == [POISON_SEQS[0]]  # quarantined before the kill

    recovered = UpdateService.recover(
        str(tmp_path), batch_size=BATCH, compact_every=COMPACT_EVERY, backoff_base=0.001
    )
    try:
        # floor 28 < 29: the logged quarantine is above the floor, so the
        # DLQ starts empty and replay re-quarantines 29 deterministically
        assert recovered.health()["last_applied_seq"] == 28
        assert not _run_to_completion(recovered, stream)
        outcome = _finish(recovered)
        assert recovered.stats.quarantined_intrinsic == len(POISON_SEQS)
    finally:
        recovered.close()
    _assert_equivalent(
        outcome, results["kickstarter", "sssp"], _applied_ranges(str(tmp_path))
    )
    # the durable log did not grow a duplicate record for seq 29
    log_seqs = dlq_log_seqs()
    assert sorted(log_seqs) == sorted(set(log_seqs)) == list(POISON_SEQS)
