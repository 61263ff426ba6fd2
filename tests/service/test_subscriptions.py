"""Subscription layer: snapshot diffing and the registry/push contracts.

The heart is the property suite pinning :func:`snapshot_diff` — the
vectorized O(changed) diff the publish path feeds every subscriber — to a
brute-force dict diff, over random synthetic snapshots (vertex add/remove,
NaN states, ±inf, -0.0) *and* over real published-snapshot sequences from
one selective engine (kickstarter/sssp, whose states hold infinities) and
one accumulative engine (ingress/pagerank).  The rest covers subscription
semantics: baseline-vs-delta completeness at the subscribe boundary, top-k
watch pushes, vertex watches, slow-consumer eviction, a publish waking a
blocked take, and registry close on service shutdown.
"""

from __future__ import annotations

import math
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine.algorithms import make_algorithm
from repro.graph.delta import EdgeUpdate, UpdateKind
from repro.graph.generators import community_graph
from repro.incremental import make_engine
from repro.service import UpdateService
from repro.service.snapshot import StateSnapshot
from repro.service.subscriptions import (
    Subscription,
    SubscriptionEvicted,
    SubscriptionRegistry,
    snapshot_diff,
)
from repro.workloads.updates import poisoned_event_stream

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _snapshot(seq, states):
    return StateSnapshot.capture(
        seq=seq, graph_version=seq, states=states, csr=None, quarantined=0
    )


def _brute_force_diff(old, new):
    """The specification: plain dict walk with NaN==NaN equality."""
    changed = []
    for vertex, value in new.states.items():
        if vertex not in old.states:
            changed.append((vertex, value))
            continue
        prev = old.states[vertex]
        same = prev == value or (math.isnan(prev) and math.isnan(value))
        if not same:
            changed.append((vertex, value))
    removed = [v for v in old.states if v not in new.states]
    return changed, removed


_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    st.sampled_from([0.0, -0.0, 1.5, float("nan"), float("inf"), float("-inf")]),
)


def _assert_diff_matches(old, new):
    changed, removed = snapshot_diff(old, new)
    expect_changed, expect_removed = _brute_force_diff(old, new)

    def key(pair):
        vertex, value = pair
        return (vertex, repr(value))  # repr: NaN-safe, -0.0-distinguishing

    assert sorted(map(key, changed)) == sorted(map(key, expect_changed))
    assert sorted(removed) == sorted(expect_removed)
    # changed values must be new-snapshot values bit-for-bit
    for vertex, value in changed:
        got, want = float(value), float(new.states[vertex])
        assert got == want or (math.isnan(got) and math.isnan(want))


@given(
    base=st.dictionaries(st.integers(0, 40), _VALUES, max_size=30),
    churn=st.lists(
        st.tuples(st.integers(0, 40), st.one_of(st.none(), _VALUES)),
        max_size=20,
    ),
)
@SETTINGS
def test_snapshot_diff_matches_brute_force_random(base, churn):
    """Random states with NaN/inf plus vertex add/remove churn."""
    new_states = dict(base)
    for vertex, value in churn:
        if value is None:
            new_states.pop(vertex, None)
        else:
            new_states[vertex] = value
    old = _snapshot(1, base)
    new = _snapshot(2, new_states)
    _assert_diff_matches(old, new)
    # and the degenerate directions
    _assert_diff_matches(new, old)
    _assert_diff_matches(old, _snapshot(3, {}))
    _assert_diff_matches(_snapshot(0, {}), new)


def test_snapshot_diff_none_baseline_reports_everything():
    new = _snapshot(1, {3: 1.0, 5: float("nan")})
    changed, removed = snapshot_diff(None, new)
    assert {v for v, _ in changed} == {3, 5}
    assert removed == []


def test_snapshot_diff_nan_pair_is_not_a_change():
    old = _snapshot(1, {1: float("nan"), 2: 1.0})
    new = _snapshot(2, {1: float("nan"), 2: 2.0})
    changed, removed = snapshot_diff(old, new)
    assert changed == [(2, 2.0)] and removed == []


def _graph(seed=5):
    return community_graph(
        num_communities=3,
        community_size_range=(10, 14),
        intra_edge_probability=0.3,
        inter_edges_per_community=3,
        weighted=True,
        seed=seed,
    )


@pytest.mark.parametrize(
    "engine_name,algorithm",
    [("kickstarter", "sssp"), ("ingress", "pagerank")],
)
def test_snapshot_diff_matches_brute_force_on_engine_sequences(
    tmp_path, engine_name, algorithm
):
    """Published-snapshot chains from a live service: every consecutive
    pair's vectorized diff equals the brute-force dict diff (the selective
    engine keeps unreachable vertices at +inf, exercising the non-finite
    compare on real data)."""
    graph = _graph()
    engine = make_engine(engine_name, make_algorithm(algorithm, source=0))
    engine.initialize(graph)
    service = UpdateService(engine, str(tmp_path / "svc"), batch_size=8)
    chain = [service.snapshot()]
    try:
        for update in poisoned_event_stream(
            graph, num_events=64, seed=11, poison_rate=0.0, protect=0
        ):
            service.submit(update)
        service.drain()
        chain.append(service.snapshot())
        # a second wave to get more than one published transition
        for update in poisoned_event_stream(
            graph, num_events=32, seed=12, poison_rate=0.0, protect=0
        ):
            service.submit(update)
        service.drain()
        chain.append(service.snapshot())
    finally:
        service.close()
    assert chain[-1].seq > chain[0].seq
    for old, new in zip(chain, chain[1:]):
        _assert_diff_matches(old, new)


# ----------------------------------------------------------------------
# subscription / registry semantics
# ----------------------------------------------------------------------
def test_topk_watch_pushes_full_ranking_on_change():
    registry = SubscriptionRegistry()
    old = _snapshot(1, {1: 5.0, 2: 4.0, 3: 3.0})
    sub = registry.subscribe_topk(2, snapshot=old)
    assert sub.baseline == [[1, 5.0], [2, 4.0]]
    new = _snapshot(2, {1: 5.0, 2: 4.0, 3: 9.0})
    registry.publish(old, new)
    deltas = sub.take(timeout=1.0)
    assert len(deltas) == 1
    assert deltas[0]["kind"] == "topk"
    assert deltas[0]["topk"] == [[3, 9.0], [1, 5.0]]
    assert deltas[0]["seq"] == 2


def test_topk_watch_skips_irrelevant_changes():
    registry = SubscriptionRegistry()
    old = _snapshot(1, {1: 5.0, 2: 4.0, 3: 1.0, 4: 0.5})
    sub = registry.subscribe_topk(2, snapshot=old)
    # 4 moves but stays far below the boundary (4.0): no push
    new = _snapshot(2, {1: 5.0, 2: 4.0, 3: 1.0, 4: 0.75})
    registry.publish(old, new)
    assert sub.take(timeout=0.05) == []
    assert sub.pushed == 0


def test_smallest_topk_watch(tmp_path):
    registry = SubscriptionRegistry()
    old = _snapshot(1, {1: 5.0, 2: 4.0, 3: 3.0})
    sub = registry.subscribe_topk(2, largest=False, snapshot=old)
    assert sub.baseline == [[3, 3.0], [2, 4.0]]
    new = _snapshot(2, {1: 0.5, 2: 4.0, 3: 3.0})
    registry.publish(old, new)
    deltas = sub.take(timeout=1.0)
    assert deltas[0]["topk"] == [[1, 0.5], [3, 3.0]]


def test_vertex_watch_filters_and_reports_removal():
    registry = SubscriptionRegistry()
    old = _snapshot(1, {1: 1.0, 2: 2.0, 3: 3.0})
    sub = registry.subscribe_vertices([2, 3], snapshot=old)
    assert sub.baseline == [[2, 2.0], [3, 3.0]]
    new = _snapshot(2, {1: 9.0, 2: 2.5})  # 1 changes (unwatched), 3 removed
    registry.publish(old, new)
    deltas = sub.take(timeout=1.0)
    assert len(deltas) == 1
    assert deltas[0]["changed"] == [[2, 2.5]]
    assert deltas[0]["removed"] == [3]


def test_slow_consumer_is_evicted_not_blocking():
    registry = SubscriptionRegistry(max_pending=3)
    snapshots = [_snapshot(i, {1: float(i)}) for i in range(8)]
    sub = registry.subscribe_vertices([1], snapshot=snapshots[0])
    for old, new in zip(snapshots, snapshots[1:]):
        registry.publish(old, new)  # never drained
    assert sub.evicted
    with pytest.raises(SubscriptionEvicted):
        sub.take(timeout=0)
    # evicted subs receive nothing further and the writer path stays happy
    registry.publish(snapshots[-2], snapshots[-1])
    assert registry.evictions() == 1


def test_publish_wakes_a_blocked_take():
    registry = SubscriptionRegistry(max_pending=1)
    old = _snapshot(1, {1: 1.0})
    sub = registry.subscribe_vertices([1], snapshot=old)
    results = []
    thread = threading.Thread(target=lambda: results.append(sub.take(timeout=10.0)))
    thread.start()
    time.sleep(0.05)  # let the taker block
    started = time.monotonic()
    new = _snapshot(2, {1: 2.0})
    registry.publish(old, new)
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    assert time.monotonic() - started < 5.0, "the publish did not wake the take"
    assert [delta["changed"] for delta in results[0]] == [[[1, 2.0]]]
    # pending deltas and an eviction both end a take at once
    registry.publish(new, _snapshot(3, {1: 3.0}))
    assert sub.take(timeout=10.0)[0]["seq"] == 3
    for seq in (4, 5):
        previous = _snapshot(seq - 1, {1: seq - 1.0})
        registry.publish(previous, _snapshot(seq, {1: float(seq)}))
    started = time.monotonic()
    with pytest.raises(SubscriptionEvicted):
        sub.take(timeout=10.0)
    assert time.monotonic() - started < 5.0


def test_unsubscribe_and_registry_close_wake_blocked_takers():
    registry = SubscriptionRegistry()
    sub = registry.subscribe_topk(2, snapshot=_snapshot(1, {1: 1.0}))
    results = []

    def taker():
        results.append(sub.take(timeout=5.0))

    thread = threading.Thread(target=taker)
    thread.start()
    registry.close()
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert results == [[]]  # closed, not evicted
    assert registry.evictions() == 0
    with pytest.raises(RuntimeError):
        registry.subscribe_topk(2, snapshot=_snapshot(2, {1: 1.0}))


def test_service_publishes_to_live_subscription(tmp_path):
    """End-to-end in-process: watch top-k through a real service; the final
    pushed ranking equals the drained snapshot's own top_k."""
    graph = _graph()
    engine = make_engine("kickstarter", make_algorithm("sssp", source=0))
    engine.initialize(graph)
    service = UpdateService(engine, str(tmp_path / "svc"), batch_size=8)
    try:
        sub = service.subscriptions.subscribe_topk(5, largest=False)
        for update in poisoned_event_stream(
            graph, num_events=48, seed=7, poison_rate=0.0, protect=0
        ):
            service.submit(update)
        service.drain()
        final = service.snapshot()
        last_topk = [tuple(pair) for pair in sub.baseline]
        deadline_deltas = []
        while True:
            got = sub.take(timeout=0.2)
            if not got:
                break
            deadline_deltas.extend(got)
        for delta in deadline_deltas:
            assert delta["kind"] == "topk"
            last_topk = [tuple(pair) for pair in delta["topk"]]
        assert last_topk == final.top_k(5, largest=False)
        assert service.health()["subscribers"] == 1
    finally:
        service.close()
    # shutdown closed the subscription and woke it
    assert sub.closed
