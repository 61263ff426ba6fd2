"""Subscription push: deltas of published snapshots to registered readers.

The service's read path so far is pull-only: readers grab the current
:class:`~repro.service.snapshot.StateSnapshot` and query it.  Subscriptions
invert that: a reader registers a *watch* — the top-k ranking for some
``(k, largest)`` or an explicit vertex set — and the writer pushes a delta
after every publish whose changes intersect the watch.  The design
constraints, in order:

* **the writer never blocks on a reader.**  ``publish`` runs on the
  service's writer thread between two batches; everything it does is
  bounded: one snapshot diff shared by every subscriber, one bounded-queue
  append per affected subscriber.  A consumer that stops draining its queue
  is *evicted* (queue cleared, subscription marked dead) rather than ever
  making the writer wait — the reader finds out on its next poll and
  resubscribes for a fresh baseline;
* **O(changed), not O(V), per publish.**  :func:`snapshot_diff` compares the
  two snapshots' cached ``(ids, values)`` arrays: the common no-vertex-churn
  case is a single vectorized compare over the aligned value arrays (a
  C-speed scan producing only the changed entries as Python objects);
  vertex add/remove batches fall back to a sort-based numpy alignment.
  Top-k watches additionally pre-screen with the changed entries against the
  current boundary value, so the O(V) heap rebuild only runs when the
  ranking could actually have moved;
* **at-least-once, idempotent-by-value.**  Registration takes the registry
  lock that ``publish`` also holds, and reads its baseline snapshot inside
  it, so a subscriber can never *miss* a publish between its baseline and
  its first delta — at worst it receives one delta it already knows, and
  every delta carries absolute values (full top-k list, absolute vertex
  states), never increments, so replaying duplicates is harmless.

NaN states compare *bitwise-style*: a vertex whose value is NaN in both
snapshots did not change (IEEE ``!=`` would report every NaN pair as a
change on every publish).
"""

from __future__ import annotations

import itertools
import threading
import uuid
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.service.snapshot import StateSnapshot

EVICTION_HINT = (
    "subscriber evicted: pending deltas exceeded max_pending before being "
    "polled; resubscribe for a fresh baseline"
)


class SubscriptionEvicted(RuntimeError):
    """The subscriber fell too far behind and its queue was dropped."""


def _values_differ(old: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Elementwise "really changed" mask: NaN==NaN, otherwise IEEE ``==``."""
    with np.errstate(invalid="ignore"):
        same = (old == new) | (np.isnan(old) & np.isnan(new))
    return ~same


def snapshot_diff(
    old: Optional[StateSnapshot], new: StateSnapshot
) -> Tuple[List[Tuple[int, float]], List[int]]:
    """``(changed, removed)`` between two published snapshots.

    ``changed`` holds ``(vertex, value)`` for every vertex whose value in
    ``new`` differs from ``old`` (including vertices absent from ``old``),
    in ``new``'s iteration order; ``removed`` holds vertices present in
    ``old`` but absent from ``new``.  ``old=None`` reports everything as
    changed (the baseline case).  Equality treats a NaN pair as unchanged
    and otherwise follows IEEE ``==`` (so ``-0.0`` vs ``0.0`` is not a
    change), matching the brute-force dict diff the property suite pins
    this function against.
    """
    if old is None:
        return [(v, val) for v, val in new.states.items()], []
    old_ids, old_values = old.arrays()
    new_ids, new_values = new.arrays()
    if old_ids.shape == new_ids.shape and np.array_equal(old_ids, new_ids):
        # the overwhelmingly common case: no vertex churn, aligned arrays
        idx = np.flatnonzero(_values_differ(old_values, new_values))
        return [(int(new_ids[i]), float(new_values[i])) for i in idx], []
    if old_ids.size == 0:
        return [(v, val) for v, val in new.states.items()], []
    if new_ids.size == 0:
        return [], [int(v) for v in old_ids]
    # vertex churn: align by sorted id
    old_order = np.argsort(old_ids, kind="stable")
    sorted_old = old_ids[old_order]
    pos = np.searchsorted(sorted_old, new_ids)
    pos_clamped = np.minimum(pos, sorted_old.size - 1)
    in_old = sorted_old[pos_clamped] == new_ids
    matched_values = old_values[old_order[pos_clamped]]
    differ = _values_differ(matched_values, new_values) | ~in_old
    changed = [
        (int(new_ids[i]), float(new_values[i])) for i in np.flatnonzero(differ)
    ]
    sorted_new = np.sort(new_ids)
    rev = np.searchsorted(sorted_new, old_ids)
    rev_clamped = np.minimum(rev, sorted_new.size - 1)
    gone = sorted_new[rev_clamped] != old_ids
    removed = [int(v) for v in old_ids[np.flatnonzero(gone)]]
    return changed, removed


class Subscription:
    """One registered watch and its bounded delta queue.

    Created through :class:`SubscriptionRegistry`; consumed with
    :meth:`take`, which blocks up to a timeout until a publish, close or
    eviction wakes it.  All delta payloads are plain JSON-ready dicts.
    """

    def __init__(
        self,
        sub_id: str,
        kind: str,
        *,
        k: Optional[int] = None,
        largest: bool = True,
        vertices: Sequence[int] = (),
        max_pending: int = 64,
        baseline=None,
        baseline_seq: int = 0,
    ) -> None:
        if kind not in ("topk", "vertices"):
            raise ValueError(f"unknown subscription kind {kind!r}")
        self.id = sub_id
        self.kind = kind
        self.k = k
        self.largest = largest
        self.vertices = frozenset(int(v) for v in vertices)
        self.max_pending = max_pending
        #: the state the subscriber was handed at registration: a top-k list
        #: or ``[vertex, value]`` pairs for the watched vertices
        self.baseline = baseline
        self.baseline_seq = baseline_seq
        self.evicted = False
        self.closed = False
        self.pushed = 0
        self._last_topk: Optional[List[Tuple[int, float]]] = (
            list(baseline) if kind == "topk" and baseline is not None else None
        )
        self._pending: deque = deque()
        self._cond = threading.Condition()

    # ------------------------------------------------------------------
    # producer side (writer thread, via the registry)
    # ------------------------------------------------------------------
    def _offer(self, snapshot: StateSnapshot, changed, removed) -> None:
        if self.evicted or self.closed:
            return
        if self.kind == "vertices":
            hits = [[v, val] for v, val in changed if v in self.vertices]
            gone = [v for v in removed if v in self.vertices]
            if not hits and not gone:
                return
            self._push(
                {
                    "kind": "vertices",
                    "seq": snapshot.seq,
                    "checksum": snapshot.checksum,
                    "changed": hits,
                    "removed": gone,
                }
            )
            return
        if not changed and not removed:
            return
        if not self._topk_candidate(changed, removed):
            return
        top = snapshot.top_k(self.k, largest=self.largest)
        if top == self._last_topk:
            return
        self._last_topk = top
        self._push(
            {
                "kind": "topk",
                "seq": snapshot.seq,
                "checksum": snapshot.checksum,
                "k": self.k,
                "largest": self.largest,
                "topk": [[v, val] for v, val in top],
            }
        )

    def _topk_candidate(self, changed, removed) -> bool:
        """Could this publish's changes move the top-k at all?

        The cheap pre-screen that keeps top-k watches O(changed): the O(V)
        heap rebuild only runs when a ranked vertex changed/vanished or an
        unranked value reached the current boundary.  Over-triggering is
        safe (the rebuild then proves the ranking unchanged); missing a real
        move is not, so every comparison errs toward "candidate" — e.g. a
        NaN boundary refuses to rule anything out.
        """
        last = self._last_topk
        if last is None or len(last) < (self.k or 0):
            return bool(changed) or bool(removed)
        members = {v for v, _ in last}
        if any(v in members for v in removed):
            return True
        boundary = last[-1][1]
        for v, val in changed:
            if v in members:
                return True
            if self.largest:
                if not (val < boundary):
                    return True
            elif not (val > boundary):
                return True
        return False

    def _push(self, delta: dict) -> None:
        with self._cond:
            if self.evicted or self.closed:
                return
            if len(self._pending) >= self.max_pending:
                # slow consumer: drop everything and mark dead rather than
                # ever stalling the publishing writer
                self.evicted = True
                self._pending.clear()
            else:
                self._pending.append(delta)
                self.pushed += 1
            self._cond.notify_all()

    def _close(self) -> None:
        with self._cond:
            self.closed = True
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # consumer side
    # ------------------------------------------------------------------
    def take(self, timeout: Optional[float] = None) -> List[dict]:
        """Drain pending deltas, waiting up to ``timeout`` for the first.

        Returns ``[]`` on timeout (at once for ``timeout=0``) or when the
        subscription was closed (service shutdown / unsubscribe); raises
        :class:`SubscriptionEvicted` after a slow-consumer drop (eviction
        clears the queue, so it raises as soon as it happened).
        """
        with self._cond:
            self._cond.wait_for(
                lambda: self._pending or self.evicted or self.closed, timeout
            )
            if self._pending:
                out = list(self._pending)
                self._pending.clear()
                return out
            if self.evicted:
                raise SubscriptionEvicted(EVICTION_HINT)
            return []


class SubscriptionRegistry:
    """All live subscriptions of one service, fanned out at publish time.

    The registry lock orders registration against publishes: ``subscribe_*``
    reads its baseline snapshot *inside* the lock, so a new subscriber
    either sees a publish's snapshot as its baseline or receives that
    publish's delta — never neither (no lost updates at the subscribe
    boundary; duplicates are possible and harmless, deltas being absolute).
    """

    def __init__(
        self,
        snapshot_source: Optional[Callable[[], StateSnapshot]] = None,
        max_pending: int = 64,
    ) -> None:
        self._lock = threading.Lock()
        self._subs: Dict[str, Subscription] = {}
        self._snapshot_source = snapshot_source
        self._default_max_pending = max_pending
        self._counter = itertools.count(1)
        self.closed = False

    def __len__(self) -> int:
        with self._lock:
            return len(self._subs)

    def _new_id(self) -> str:
        # counter for readability, random suffix so a stale client polling
        # an id from a previous incarnation can never alias a fresh watch
        return f"s{next(self._counter)}-{uuid.uuid4().hex[:8]}"

    def _baseline_snapshot(self, snapshot) -> Optional[StateSnapshot]:
        if snapshot is not None:
            return snapshot
        if self._snapshot_source is not None:
            return self._snapshot_source()
        return None

    def subscribe_topk(
        self,
        k: int,
        *,
        largest: bool = True,
        max_pending: Optional[int] = None,
        snapshot: Optional[StateSnapshot] = None,
    ) -> Subscription:
        if k < 1:
            raise ValueError(f"top-k watch needs k >= 1, got {k}")
        with self._lock:
            self._check_open()
            snap = self._baseline_snapshot(snapshot)
            baseline = snap.top_k(k, largest=largest) if snap is not None else []
            sub = Subscription(
                self._new_id(),
                "topk",
                k=k,
                largest=largest,
                max_pending=max_pending or self._default_max_pending,
                baseline=[[v, val] for v, val in baseline],
                baseline_seq=snap.seq if snap is not None else 0,
            )
            sub._last_topk = list(baseline)
            self._subs[sub.id] = sub
            return sub

    def subscribe_vertices(
        self,
        vertices: Sequence[int],
        *,
        max_pending: Optional[int] = None,
        snapshot: Optional[StateSnapshot] = None,
    ) -> Subscription:
        watched = sorted({int(v) for v in vertices})
        if not watched:
            raise ValueError("vertex watch needs at least one vertex")
        with self._lock:
            self._check_open()
            snap = self._baseline_snapshot(snapshot)
            baseline = (
                [[v, snap.states[v]] for v in watched if v in snap.states]
                if snap is not None
                else []
            )
            sub = Subscription(
                self._new_id(),
                "vertices",
                vertices=watched,
                max_pending=max_pending or self._default_max_pending,
                baseline=baseline,
                baseline_seq=snap.seq if snap is not None else 0,
            )
            self._subs[sub.id] = sub
            return sub

    def _check_open(self) -> None:
        if self.closed:
            raise RuntimeError("subscription registry is closed")

    def get(self, sub_id: str) -> Optional[Subscription]:
        with self._lock:
            return self._subs.get(sub_id)

    def unsubscribe(self, sub_id: str) -> bool:
        with self._lock:
            sub = self._subs.pop(sub_id, None)
        if sub is None:
            return False
        sub._close()
        return True

    def evictions(self) -> int:
        with self._lock:
            return sum(1 for sub in self._subs.values() if sub.evicted)

    # ------------------------------------------------------------------
    # writer side
    # ------------------------------------------------------------------
    def publish(self, old: Optional[StateSnapshot], new: StateSnapshot) -> None:
        """Fan one published snapshot transition out to every live watch.

        Called by the service's writer thread after the snapshot swap.  The
        diff is computed once and shared; with no subscribers the cost is
        one uncontended lock acquire.
        """
        with self._lock:
            if self.closed:
                return
            subs = [
                sub
                for sub in self._subs.values()
                if not sub.evicted and not sub.closed
            ]
            if not subs:
                return
            changed, removed = snapshot_diff(old, new)
            for sub in subs:
                sub._offer(new, changed, removed)

    def close(self) -> None:
        """Service shutdown: wake and close every subscriber."""
        with self._lock:
            self.closed = True
            subs = list(self._subs.values())
        for sub in subs:
            sub._close()
