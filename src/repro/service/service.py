"""The long-running update/query service around an :class:`IncrementalEngine`.

Pipeline (one writer thread, any number of submitters and readers)::

    submit(event) ──► EventLog WAL (CRC+fsync, ack after)      [ingest]
                 ──► bounded queue (backpressure)
    writer       ──► grid-aligned batch take
                 ──► segment + coalesce into GraphDelta        [coalesce]
                 ──► GraphDelta.validate / intrinsic checks    [validate]
                 ──► engine.apply_delta under watchdog,        [apply]
                     transient retries w/ backoff+jitter,
                     bisect-and-quarantine on persistent failure
                 ──► StateSnapshot publish (atomic swap)       [publish]
    readers      ──► snapshot()/value()/top_k()                [query]

Durability and exactly-once:

* Events are WAL'd *before* the submit acknowledgement, so an acked event
  survives any crash.  Resubmitting an already-acked sequence number is a
  no-op (the ack-lost-after-WAL case), which is what makes client retries
  idempotent.
* Every applied delta carries the WAL event range it covers in its engine
  store log record (``log_meta={"events": [lo, hi]}``); together with the
  ``applied_event_seq`` watermark folded into each baseline compaction,
  recovery knows the exact *floor* — the highest WAL seq whose effect is
  already durable — and replays strictly the events above it.  Replay uses
  the same grid-aligned batching rule as live ingestion (batch k covers
  seqs ``((k-1)·B, k·B]``), so a fault-free reference run and a
  kill+recover run fold the same event ranges into the same deltas —
  bitwise-identical final states, no event lost, none applied twice.
* Quarantines are appended to a small ``dlq.log`` (same CRC format), so the
  dead-letter queue stays enumerable across recoveries: intrinsically
  invalid events are also re-derivable by rescanning the WAL, while
  apply-failure quarantines (a batch that kept timing out) are only known
  from the log.

Failure handling in the writer:

* ``OSError`` is transient: exponential backoff with
  deterministic-seeded jitter, up to ``max_apply_retries`` retries.
* A watchdog timeout abandons the stuck apply (daemon thread), detaches the
  possibly-tainted engine from its store and rebuilds the engine from the
  durable store — bitwise-identical to the pre-batch state — before
  retrying.
* A range that still fails is bisected; halves retry independently until a
  single event is isolated and quarantined.  One poison event therefore
  never blocks the stream behind it.
"""

from __future__ import annotations

import math
import os
import random
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.graph.delta import (
    GraphDelta,
    UpdateKind,
    VertexUpdate,
    update_intrinsic_problems,
)
from repro.service.coalescer import AdaptiveBatchSizer, coalesce_edge_run
from repro.service.events import Event, EventLog, update_from_payload, update_payload
from repro.service.faults import (
    NO_FAULTS,
    FaultInjector,
    ServiceDead,
    ServiceKilled,
    ServiceOverloaded,
)
from repro.service.snapshot import StateSnapshot
from repro.service.subscriptions import SubscriptionRegistry
from repro.storage.edge_store import CrcLog, StoreError


class ApplyTimeout(RuntimeError):
    """The watchdog expired while a batch was applying."""


class _ApplyFailed(RuntimeError):
    """Internal: retries exhausted; the caller bisects or quarantines."""


@dataclass
class ServiceStats:
    """Writer-side counters (all monotone; exposed through ``health()``)."""

    events_submitted: int = 0
    batches_taken: int = 0
    deltas_applied: int = 0
    noop_ranges: int = 0
    quarantined_intrinsic: int = 0
    quarantined_apply: int = 0
    transient_errors: int = 0
    apply_retries: int = 0
    watchdog_timeouts: int = 0
    watchdog_restores: int = 0
    bisect_splits: int = 0
    snapshots_published: int = 0


@dataclass(frozen=True)
class QuarantinedEvent:
    """One dead-lettered event: what it was and why it was refused."""

    seq: int
    update: object
    problems: Tuple[str, ...]
    #: "intrinsic" (validation) or "apply" (retries exhausted)
    kind: str
    #: rebuilt during recovery rather than quarantined live
    recovered: bool = False


class DeadLetterQueue:
    """Quarantined events, enumerable and durably logged.

    Live quarantines append one CRC'd record to ``dlq.log``; recovery
    rebuilds the in-memory list from the WAL rescan plus that log, so the
    queue survives crashes.

    A sequence number is quarantined at most once, in memory *and* in the
    log.  ``already_logged`` seeds the set of seqs the on-disk log already
    holds: recovery skips above-floor log records (those events get a fresh
    chance during replay), but when the replay re-quarantines one of them
    the log must not grow a second record for the same seq.
    """

    def __init__(
        self, log: Optional[CrcLog], already_logged: Iterable[int] = ()
    ) -> None:
        self._log = log
        self._entries: List[QuarantinedEvent] = []
        self._seqs = set()
        self._logged = set(already_logged)
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def entries(self) -> List[QuarantinedEvent]:
        with self._lock:
            return list(self._entries)

    def seqs(self) -> List[int]:
        with self._lock:
            return [entry.seq for entry in self._entries]

    def contains(self, seq: int) -> bool:
        with self._lock:
            return seq in self._seqs

    def record(self, entry: QuarantinedEvent) -> bool:
        """Record one quarantine; ``False`` if the seq was already dead.

        The duplicate path exists because an event can be disposed twice
        across incarnations: quarantined live, then replayed after a crash
        whose floor stayed below it and quarantined again (the verdict is
        deterministic).  The second disposal must be a no-op.
        """
        with self._lock:
            if entry.seq in self._seqs:
                return False
            self._entries.append(entry)
            self._seqs.add(entry.seq)
            append = (
                self._log is not None
                and not entry.recovered
                and entry.seq not in self._logged
            )
            self._logged.add(entry.seq)
        if append:
            self._log.append_payload(
                {
                    "seq": entry.seq,
                    "u": update_payload(entry.update),
                    "problems": list(entry.problems),
                    "kind": entry.kind,
                }
            )
        return True

    def close(self) -> None:
        if self._log is not None:
            self._log.close()


class UpdateService:
    """Fault-tolerant streaming update/query layer around one engine.

    ``engine`` must already be initialized.  ``directory`` receives the
    event WAL (``events.log``), the dead-letter log (``dlq.log``) and the
    engine's durable store (``engine/``).  Use :meth:`recover` to resume a
    service from a directory a previous (possibly killed) instance left
    behind.
    """

    EVENTS_LOG = "events.log"
    DLQ_LOG = "dlq.log"
    ENGINE_DIR = "engine"

    def __init__(
        self,
        engine,
        directory: str,
        *,
        batch_size: int = 32,
        adaptive: bool = False,
        max_queue: int = 256,
        watchdog_timeout: Optional[float] = None,
        max_apply_retries: int = 2,
        backoff_base: float = 0.005,
        backoff_cap: float = 0.25,
        jitter_seed: int = 0,
        compact_every: Optional[int] = None,
        faults: Optional[FaultInjector] = None,
        _recovery: Optional[dict] = None,
    ) -> None:
        if engine.graph is None:
            raise ValueError("engine must be initialized before serving")
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        self.engine = engine
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.faults = faults if faults is not None else NO_FAULTS
        self.stats = ServiceStats()
        self._batch_size = batch_size
        self._sizer = AdaptiveBatchSizer() if adaptive else None
        self._max_queue = max_queue
        self._watchdog_timeout = watchdog_timeout
        self._max_apply_retries = max_apply_retries
        self._backoff_base = backoff_base
        self._backoff_cap = backoff_cap
        self._compact_every = compact_every
        self._rng = random.Random(jitter_seed)

        self._cond = threading.Condition()
        #: a submit's WAL append is in flight.  Appends run one at a time
        #: (WAL order is seq order) but outside ``_cond``: held across the
        #: fsync, ``_cond`` let a submit burst starve the writer of the queue
        self._appending = False
        self._queue: deque = deque()
        self._dead = False
        self._dead_reason: Optional[str] = None
        self._stopping = False
        self._drainers = 0
        #: readers registered for push deltas; fanned out from ``_publish``
        self.subscriptions = SubscriptionRegistry(
            snapshot_source=lambda: self._snapshot
        )

        wal_path = os.path.join(directory, self.EVENTS_LOG)
        engine_dir = os.path.join(directory, self.ENGINE_DIR)
        if _recovery is None:
            if os.path.exists(wal_path) and os.path.getsize(wal_path) > 0:
                raise StoreError(
                    f"{directory} holds an existing event WAL; use "
                    "UpdateService.recover() to resume it"
                )
            self.wal = EventLog(wal_path)
            # attach the durable store (None under REPRO_STORE=0: the
            # service still runs, but kills are only recoverable back to
            # the WAL replay from the initial graph)
            self._store = engine.save(engine_dir, compact_every=compact_every)
            self._last_walled = 0
            self._disposed = 0
            self._applied = 0
            self._replay_target = 0
            pending: List[Event] = []
            self.restore_report = None
        else:
            self.wal = _recovery["wal"]
            self._store = _recovery["store"]
            self._last_walled = _recovery["last_walled"]
            self._disposed = _recovery["floor"]
            self._applied = _recovery["floor"]
            # not "ready" until the WAL suffix above the floor is replayed:
            # queries before that would serve acknowledged-but-stale state
            self._replay_target = _recovery["last_walled"]
            pending = _recovery["pending"]
            self.restore_report = _recovery["report"]

        self.dlq = DeadLetterQueue(
            CrcLog(os.path.join(directory, self.DLQ_LOG)),
            already_logged=(_recovery or {}).get("dlq_logged", ()),
        )
        if _recovery is not None:
            for entry in _recovery["dlq_entries"]:
                self.dlq.record(entry)

        self._snapshot = self._capture_snapshot(self._applied)
        self._queue.extend(pending)
        self._writer = threading.Thread(
            target=self._writer_loop, name="service-writer", daemon=True
        )
        self._writer.start()

    # ------------------------------------------------------------------
    # ingest path
    # ------------------------------------------------------------------
    def submit(
        self, update: object, seq: Optional[int] = None, timeout: float = 10.0
    ) -> int:
        """WAL one unit update and enqueue it; returns its sequence number.

        The returned seq is the acknowledgement: the event is fsync'd and
        will survive any crash.  Clients that never saw the ack resubmit
        with the same explicit ``seq``; an already-acked seq returns
        immediately without duplicating the event (exactly-once).  Raises
        :class:`ServiceOverloaded` when the bounded queue stays full past
        ``timeout`` and :class:`ServiceDead` after a kill or close.
        """
        seq, _duplicate = self.submit_event(update, seq=seq, timeout=timeout)
        return seq

    def submit_event(
        self, update: object, seq: Optional[int] = None, timeout: float = 10.0
    ) -> Tuple[int, bool]:
        """:meth:`submit` plus an explicit duplicate flag.

        Returns ``(seq, duplicate)`` where ``duplicate`` is True when the
        sequence number was already WAL'd — durable whether its batch later
        applied cleanly *or* was quarantined to the dead-letter queue;
        either way the resubmit dup-acks without re-enqueueing (the network
        front end surfaces the flag so retrying clients can tell an ack
        apart from a fresh write).  ``timeout=0`` never blocks: it either
        acquires queue room immediately or raises
        :class:`ServiceOverloaded`.
        """
        requested = seq
        with self._cond:
            self._check_alive()
            deadline = time.monotonic() + max(0.0, timeout)
            while True:
                if self._appending:  # one fsync, not a backpressure wait
                    self._cond.wait()
                    self._check_alive()
                    continue
                seq = self._last_walled + 1 if requested is None else requested
                if seq <= self._last_walled:
                    return seq, True  # duplicate of an already-durable event
                if seq != self._last_walled + 1:
                    raise ValueError(
                        f"submit seq {seq} leaves a gap (next is "
                        f"{self._last_walled + 1})"
                    )
                if len(self._queue) < self._max_queue:
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ServiceOverloaded(
                        f"ingest queue full ({self._max_queue}) for {timeout}s"
                    )
                self._cond.wait(remaining)
                self._check_alive()
            self._fire_or_die("pre_wal_append", seq=seq)
            self._appending = True
        try:
            self.wal.append(Event(seq, update))
        except BaseException:
            with self._cond:
                self._appending = False
                self._cond.notify_all()
            raise
        with self._cond:
            self._appending = False
            self._last_walled = seq
            self._cond.notify_all()
            # a close or kill that landed during the flush: the event is
            # durable but unacknowledged, like a crash after the append
            self._check_alive()
            self._fire_or_die("post_wal_append", seq=seq)
            self._queue.append(Event(seq, update))
            self.stats.events_submitted += 1
            return seq, False

    def _check_alive(self) -> None:
        if self._dead:
            raise ServiceDead(self._dead_reason or "service is closed")
        if self._stopping:
            # close() is joining the writer: a submit that slipped in now
            # could WAL an event nobody will ever apply (acked-but-stale
            # until the next recover), and a drain would wait on a writer
            # that is about to exit — refuse both instead of hanging
            raise ServiceDead("service is closing")

    def _fire_or_die(self, stage: str, **context) -> None:
        try:
            self.faults.fire(stage, **context)
        except ServiceKilled:
            self._die(f"killed at {stage}")
            raise

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def snapshot(self) -> StateSnapshot:
        """The current published version (immutable; keep it as long as you
        like — later publishes never mutate it)."""
        return self._snapshot

    def value(self, vertex: int, default: Optional[float] = None):
        return self._snapshot.value(vertex, default)

    def top_k(self, k: int, largest: bool = True):
        return self._snapshot.top_k(k, largest=largest)

    def health(self) -> dict:
        """Liveness/progress counters for operators and the chaos harness."""
        with self._cond:
            snapshot = self._snapshot
            staleness_events = max(0, self._last_walled - snapshot.seq)
            published_at = snapshot.published_at
            # a snapshot the stream has fully caught up to is not stale, no
            # matter how long ago it was published — in particular the
            # initial pre-first-batch snapshot (published_at set at
            # construction) must not read as ever-growing staleness; and a
            # corrupt/non-finite timestamp must clamp, not poison the report
            if staleness_events <= 0 or not math.isfinite(published_at):
                staleness_seconds = 0.0
            else:
                staleness_seconds = max(0.0, time.monotonic() - published_at)
            return {
                "ready": self.ready(),
                "dead": self._dead,
                "dead_reason": self._dead_reason,
                "published": self.stats.snapshots_published > 0,
                "replaying": self._disposed < self._replay_target,
                "queue_depth": len(self._queue),
                "last_walled_seq": self._last_walled,
                "last_disposed_seq": self._disposed,
                "last_applied_seq": self._applied,
                "published_seq": snapshot.seq,
                "quarantined": len(self.dlq),
                "staleness_events": staleness_events,
                "staleness_seconds": staleness_seconds,
                "subscribers": len(self.subscriptions),
                "batch_size": self._sizer.size if self._sizer else self._batch_size,
                "stats": asdict(self.stats),
            }

    def ready(self) -> bool:
        """Whether the service can take submits and answer *fresh* queries.

        During recovery the WAL suffix above the durable floor is still
        replaying; until it has been disposed the snapshots on offer are
        acknowledged-but-stale, so readiness (and e.g. a load balancer
        probing ``GET /ready``) reports False.
        """
        return (
            not self._dead
            and self._writer.is_alive()
            and self._disposed >= self._replay_target
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def drain(self, timeout: float = 60.0) -> None:
        """Block until every acknowledged event is disposed (applied,
        folded to a no-op, or quarantined)."""
        deadline = time.monotonic() + max(0.0, timeout)
        with self._cond:
            self._check_alive()
            # a counter, not a flag: concurrent drains must keep the writer
            # in flush mode until the *last* one finishes (a flag would be
            # cleared by whichever drain returns first)
            self._drainers += 1
            self._cond.notify_all()
            try:
                while self._disposed < self._last_walled:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise TimeoutError(
                            f"drain timed out: disposed {self._disposed} < "
                            f"walled {self._last_walled}"
                        )
                    self._cond.wait(min(remaining, 0.1))
                    self._check_alive()
            finally:
                self._drainers -= 1

    def close(self) -> None:
        """Stop the writer (after it drains the queue) and release files."""
        with self._cond:
            if self._dead:
                return
            self._stopping = True
            self._cond.notify_all()
        self._writer.join(timeout=60.0)
        with self._cond:
            self._dead = True
            self._dead_reason = "closed"
            self._cond.notify_all()
        self._close_files()

    def _die(self, reason: str) -> None:
        """Simulated process death: mark dead, drop file handles, wake
        every waiter.  In-memory state (queue, unpublished applies) is
        lost exactly as a real kill would lose it; ``recover`` rebuilds
        from the directory."""
        with self._cond:
            if self._dead:
                return
            self._dead = True
            self._dead_reason = reason
            self._cond.notify_all()
        self._close_files()

    def _close_files(self) -> None:
        try:
            self.subscriptions.close()  # wake every push reader first
        except Exception:
            pass
        with self._cond:
            while self._appending:  # never under an in-flight append
                self._cond.wait()
        for closer in (self.wal.close, self.dlq.close):
            try:
                closer()
            except Exception:
                pass
        if self._store is not None:
            try:
                self._store.close()
            except Exception:
                pass

    # ------------------------------------------------------------------
    # writer
    # ------------------------------------------------------------------
    def _writer_loop(self) -> None:
        try:
            while True:
                batch = self._take_batch()
                if batch is None:
                    return
                if batch:
                    self._dispose_batch(batch)
        except ServiceKilled:
            pass  # _fire_or_die already marked the service dead
        except Exception as error:  # pragma: no cover - defensive
            self._die(f"writer crashed: {type(error).__name__}: {error}")

    def _current_batch_size(self) -> int:
        return self._sizer.size if self._sizer is not None else self._batch_size

    def _take_batch(self) -> Optional[List[Event]]:
        """Wait for one grid-aligned batch (or a drain/stop flush).

        Batch boundaries are *absolute*: the batch containing seq ``s``
        covers ``((ceil(s/B)-1)·B, ceil(s/B)·B]``.  Recovery re-derives the
        very same boundaries from the replayed seqs, which is what keeps a
        recovered run's delta sequence identical to the reference run's.
        """
        with self._cond:
            while True:
                if self._dead:
                    return None
                if self._queue:
                    size = self._current_batch_size()
                    first = self._queue[0].seq
                    grid_hi = ((first - 1) // size + 1) * size
                    flush = self._drainers > 0 or self._stopping
                    if flush or self._queue[-1].seq >= grid_hi:
                        batch: List[Event] = []
                        while self._queue and self._queue[0].seq <= grid_hi:
                            batch.append(self._queue.popleft())
                        self._cond.notify_all()
                        return batch
                elif self._stopping:
                    return None
                self._cond.wait(0.05)

    def _dispose_batch(self, events: List[Event]) -> None:
        self.stats.batches_taken += 1
        started = time.perf_counter()
        run: List[Event] = []
        for event in events:
            if isinstance(event.update, VertexUpdate):
                if run:
                    self._dispose_range(run)
                    run = []
                self._dispose_range([event])
            else:
                run.append(event)
        if run:
            self._dispose_range(run)
        if self._sizer is not None:
            with self._cond:
                backlog = len(self._queue)
            self._sizer.record(
                len(events), time.perf_counter() - started, backlog
            )

    def _dispose_range(self, events: List[Event]) -> None:
        """Coalesce, validate and apply one contiguous event range.

        Intrinsically invalid events are isolated by bisection and
        quarantined (deterministically — the verdict depends only on the
        event, so a reference run and a recovery replay quarantine the same
        seqs).  Apply failures retry, then bisect, then quarantine the
        isolated event.
        """
        lo, hi = events[0].seq, events[-1].seq
        poisoned = [
            (event, update_intrinsic_problems(event.update)) for event in events
        ]
        if any(problems for _event, problems in poisoned):
            if len(events) == 1:
                event, problems = poisoned[0]
                self._quarantine(event, problems, kind="intrinsic")
                self._advance(hi)
                return
            self.stats.bisect_splits += 1
            mid = len(events) // 2
            self._dispose_range(events[:mid])
            self._dispose_range(events[mid:])
            return

        delta = self._fold(events)
        if delta.is_empty():
            self.stats.noop_ranges += 1
            self._advance(hi)
            return
        try:
            self._apply_with_retries(delta, lo, hi, len(events))
        except _ApplyFailed as failure:
            if len(events) == 1:
                self._quarantine(
                    events[0], [f"apply failed: {failure}"], kind="apply"
                )
                self._advance(hi)
                return
            self.stats.bisect_splits += 1
            mid = len(events) // 2
            self._dispose_range(events[:mid])
            self._dispose_range(events[mid:])

    def _fold(self, events: List[Event]) -> GraphDelta:
        """One range's canonical delta against the engine's current graph."""
        target = self.engine._storage_target()
        first = events[0].update
        if isinstance(first, VertexUpdate):
            assert len(events) == 1  # segmentation makes vertex events singletons
            if first.kind is UpdateKind.DELETE_VERTEX and not target.graph.has_vertex(
                first.vertex
            ):
                return GraphDelta()  # no-op, exactly like GraphDelta.apply
            return GraphDelta(vertex_updates=[first])
        return coalesce_edge_run(
            target.graph, [event.update for event in events]
        )

    def _apply_with_retries(
        self, delta: GraphDelta, lo: int, hi: int, num_events: int
    ) -> None:
        attempts = self._max_apply_retries + 1
        last_error: Optional[BaseException] = None
        for attempt in range(attempts):
            try:
                self._guarded_apply(delta, lo, hi, attempt)
                return
            except ServiceKilled:
                raise
            except ApplyTimeout as error:
                self.stats.watchdog_timeouts += 1
                last_error = error
                self._rebuild_engine_after_timeout()
            except OSError as error:
                self.stats.transient_errors += 1
                last_error = error
            if attempt < attempts - 1:
                self.stats.apply_retries += 1
                delay = min(
                    self._backoff_cap, self._backoff_base * (2.0 ** attempt)
                )
                time.sleep(delay * (1.0 + self._rng.random()))
        raise _ApplyFailed(
            f"range [{lo}, {hi}] ({num_events} events) failed after "
            f"{attempts} attempts: {last_error}"
        )

    def _guarded_apply(
        self, delta: GraphDelta, lo: int, hi: int, attempt: int
    ) -> None:
        self._fire_or_die("pre_apply", lo=lo, hi=hi, attempt=attempt)
        # bind the engine *now*: after a watchdog timeout swaps in a restored
        # engine, the abandoned apply thread must keep operating on the old
        # (store-detached) object, never on the replacement
        engine = self.engine
        if self._watchdog_timeout is None:
            self._apply_once(engine, delta, lo, hi, attempt)
        else:
            done = threading.Event()
            box: dict = {}

            def runner() -> None:
                try:
                    self._apply_once(engine, delta, lo, hi, attempt)
                except BaseException as error:  # noqa: BLE001 - re-raised below
                    box["error"] = error
                finally:
                    done.set()

            worker = threading.Thread(
                target=runner, name="service-apply", daemon=True
            )
            worker.start()
            if not done.wait(self._watchdog_timeout):
                raise ApplyTimeout(
                    f"range [{lo}, {hi}] attempt {attempt} exceeded "
                    f"{self._watchdog_timeout}s"
                )
            if "error" in box:
                raise box["error"]
        self.stats.deltas_applied += 1
        self._advance(hi, applied=True)
        self._publish(hi)

    def _apply_once(
        self, engine, delta: GraphDelta, lo: int, hi: int, attempt: int
    ) -> None:
        self._fire_or_die("mid_apply", lo=lo, hi=hi, attempt=attempt)
        store = engine._storage_target()._store
        if store is not None:
            # stamped before the apply so a compaction triggered *by* this
            # apply folds the correct watermark into the baseline
            store.app_meta["applied_event_seq"] = str(hi)
        engine.apply_delta(delta, log_meta={"events": [lo, hi]})

    def _engine_store(self):
        return self.engine._storage_target()._store

    def _rebuild_engine_after_timeout(self) -> None:
        """Discard the (possibly mid-mutation) engine and restore it from
        the durable store — bitwise-identical to the pre-batch state.

        The stuck apply keeps running in its abandoned daemon thread; the
        store is detached *first*, so even if it eventually completes it
        cannot append to the log of the engine we are about to trust.
        Without a store (``REPRO_STORE=0``) the engine is retried as-is.
        """
        store = self._engine_store()
        if store is None:
            return
        from repro.storage.store import restore_engine

        target = self.engine._storage_target()
        target._store = None
        store.close()
        engine, _report = restore_engine(
            os.path.join(self.directory, self.ENGINE_DIR),
            compact_every=self._compact_every,
        )
        fresh_store = engine._storage_target()._store
        fresh_store.app_meta["applied_event_seq"] = str(self._applied)
        self.engine = engine
        self._store = fresh_store
        self.stats.watchdog_restores += 1

    def _quarantine(self, event: Event, problems, kind: str) -> None:
        recorded = self.dlq.record(
            QuarantinedEvent(
                seq=event.seq,
                update=event.update,
                problems=tuple(problems),
                kind=kind,
            )
        )
        if not recorded:
            return  # replay re-judged an already-dead seq; nothing new died
        if kind == "intrinsic":
            self.stats.quarantined_intrinsic += 1
        else:
            self.stats.quarantined_apply += 1

    def _advance(self, seq: int, applied: bool = False) -> None:
        with self._cond:
            self._disposed = max(self._disposed, seq)
            if applied:
                self._applied = max(self._applied, seq)
            self._cond.notify_all()

    def _capture_snapshot(self, seq: int) -> StateSnapshot:
        target = self.engine._storage_target()
        csr = target.csr_cache.peek_csr("out", target.spec, target.graph)
        return StateSnapshot.capture(
            seq=seq,
            graph_version=target.graph.version,
            states=target.states,
            csr=csr,
            quarantined=len(self.dlq),
        )

    def _publish(self, seq: int) -> None:
        snapshot = self._capture_snapshot(seq)
        self._fire_or_die("pre_publish", seq=seq)
        previous = self._snapshot
        self._snapshot = snapshot  # one reference store: atomic under the GIL
        self.stats.snapshots_published += 1
        # fan the transition out to registered watches *after* the swap, so
        # a subscriber polling on the delta already sees the new snapshot
        self.subscriptions.publish(previous, snapshot)
        self._fire_or_die("post_publish", seq=seq)

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    @classmethod
    def recover(
        cls,
        directory: str,
        *,
        batch_size: int = 32,
        adaptive: bool = False,
        max_queue: int = 256,
        watchdog_timeout: Optional[float] = None,
        max_apply_retries: int = 2,
        backoff_base: float = 0.005,
        backoff_cap: float = 0.25,
        jitter_seed: int = 0,
        compact_every: Optional[int] = None,
        faults: Optional[FaultInjector] = None,
    ) -> "UpdateService":
        """Resume a service from the directory a previous instance left.

        Restores the engine from its durable store (warm, bitwise), computes
        the applied floor from the store's log annotations and baseline
        watermark, rebuilds the dead-letter queue (WAL rescan for intrinsic
        poisons at or below the floor, plus the durable ``dlq.log``), and
        re-enqueues every WAL event above the floor for the writer to replay
        through the normal pipeline.
        """
        from repro.storage.store import restore_engine

        engine_dir = os.path.join(directory, cls.ENGINE_DIR)
        engine, report = restore_engine(engine_dir, compact_every=compact_every)
        store = engine._storage_target()._store
        floor = int(store.app_meta.get("applied_event_seq", "0"))
        records, _discarded = store.log.read()
        for record in records:
            if record.meta and "events" in record.meta:
                floor = max(floor, int(record.meta["events"][1]))

        wal = EventLog(os.path.join(directory, cls.EVENTS_LOG))
        events, _torn = wal.read()
        last_walled = events[-1].seq if events else 0

        # rebuild the dead-letter queue: durable log first, then the rescan
        # of already-disposed events for intrinsic poisons (covers live
        # quarantines whose dlq.log append itself was lost to the crash)
        dlq_entries: List[QuarantinedEvent] = []
        seen_seqs = set()
        logged_seqs = set()
        dlq_log = CrcLog(os.path.join(directory, cls.DLQ_LOG))
        try:
            payloads, _bad = dlq_log.read_payloads()
        finally:
            dlq_log.close()
        for payload in payloads:
            try:
                seq = int(payload["seq"])
                logged_seqs.add(seq)
                if seq > floor:
                    # the event gets a fresh chance during replay; a repeat
                    # failure re-quarantines it there
                    continue
                entry = QuarantinedEvent(
                    seq=seq,
                    update=update_from_payload(payload["u"]),
                    problems=tuple(payload.get("problems", ())),
                    kind=str(payload.get("kind", "intrinsic")),
                    recovered=True,
                )
            except (KeyError, TypeError, ValueError, IndexError):
                continue
            if entry.seq not in seen_seqs:
                seen_seqs.add(entry.seq)
                dlq_entries.append(entry)
        for event in events:
            if event.seq > floor or event.seq in seen_seqs:
                continue
            problems = update_intrinsic_problems(event.update)
            if problems:
                seen_seqs.add(event.seq)
                dlq_entries.append(
                    QuarantinedEvent(
                        seq=event.seq,
                        update=event.update,
                        problems=tuple(problems),
                        kind="intrinsic",
                        recovered=True,
                    )
                )
        dlq_entries.sort(key=lambda entry: entry.seq)

        pending = [event for event in events if event.seq > floor]
        return cls(
            engine,
            directory,
            batch_size=batch_size,
            adaptive=adaptive,
            max_queue=max_queue,
            watchdog_timeout=watchdog_timeout,
            max_apply_retries=max_apply_retries,
            backoff_base=backoff_base,
            backoff_cap=backoff_cap,
            jitter_seed=jitter_seed,
            compact_every=compact_every,
            faults=faults,
            _recovery={
                "wal": wal,
                "store": store,
                "last_walled": last_walled,
                "floor": floor,
                "pending": pending,
                "dlq_entries": dlq_entries,
                "dlq_logged": logged_seqs,
                "report": report,
            },
        )
