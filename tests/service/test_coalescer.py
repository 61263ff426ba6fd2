"""Correctness of event coalescing, for every engine family.

The coalescer's contract is *exactness*: folding a run of raw events into
one delta must reproduce the final adjacency — content **and insertion
order**, because slot order drives the accumulative engines' float-sum
order — that applying the raw events one at a time would have produced.

Two layers of property test:

* graph-level (many random streams): raw one-at-a-time vs segmented +
  coalesced under random split points must leave bitwise-identical graphs,
  including row order;
* engine-level (all 7 engines × applicable algorithms): final states after
  a coalesced-batch run vs a one-event-per-delta run.  Selective engines
  and the restart baseline are bitwise-invariant to batching, so they
  must agree exactly; the
  accumulative family's results depend on how the stream is split into
  apply calls (propagation rounds differ), so they agree within the spec
  tolerance — while their *graphs* still agree bitwise.
"""

from __future__ import annotations

import random

import pytest

from repro.engine.algorithms import make_algorithm
from repro.graph.delta import EdgeUpdate, GraphDelta, UpdateKind, VertexUpdate
from repro.graph.generators import community_graph
from repro.graph.graph import Graph
from repro.incremental import make_engine
from repro.service.coalescer import (
    FIG10_BATCH_SIZES,
    AdaptiveBatchSizer,
    coalesce_edge_run,
    segment_events,
)
from repro.workloads.updates import poisoned_event_stream

ALGORITHMS = ["sssp", "bfs", "pagerank", "php"]
ENGINES = ["restart", "kickstarter", "risgraph", "graphbolt", "dzig", "ingress", "layph"]


def _applicable(engine_name: str, algorithm: str) -> bool:
    selective = make_algorithm(algorithm).is_selective()
    return {
        "restart": True,
        "ingress": True,
        "layph": True,
        "kickstarter": selective,
        "risgraph": selective,
        "graphbolt": not selective,
        "dzig": not selective,
    }[engine_name]


def _base_graph(seed=11):
    return community_graph(
        num_communities=3,
        community_size_range=(10, 14),
        intra_edge_probability=0.3,
        inter_edges_per_community=3,
        weighted=True,
        seed=seed,
    )


def _stream(graph, num_events, seed):
    """A clean (poison-free) adversarial stream with vertex-event barriers."""
    events = list(
        poisoned_event_stream(
            graph, num_events=num_events, seed=seed, poison_rate=0.0, protect=0
        )
    )
    fresh = max(graph.vertices()) + 1
    events.insert(
        min(10, len(events)),
        VertexUpdate(
            UpdateKind.ADD_VERTEX, fresh, ((0, fresh, 2.5), (fresh, 0, 1.5))
        ),
    )
    events.insert(min(25, len(events)), VertexUpdate(UpdateKind.DELETE_VERTEX, fresh))
    return events


def _graph_fingerprint(graph: Graph):
    return (list(graph.vertices()), list(graph.edges()))


def _apply_raw(graph: Graph, events) -> Graph:
    for event in events:
        delta = GraphDelta()
        if isinstance(event, VertexUpdate):
            delta.vertex_updates.append(event)
        else:
            delta.edge_updates.append(event)
        graph = delta.apply(graph)
    return graph


def _random_batches(events, rng, max_batch=12):
    position = 0
    while position < len(events):
        size = rng.randint(1, max_batch)
        yield events[position : position + size]
        position += size


def _apply_coalesced(graph: Graph, events, rng) -> Graph:
    for batch in _random_batches(events, rng):
        for segment in segment_events(batch):
            if isinstance(segment[0], VertexUpdate):
                delta = GraphDelta()
                delta.vertex_updates.extend(segment)
            else:
                delta = coalesce_edge_run(graph, segment)
            if not delta.is_empty():
                graph = delta.apply(graph)
    return graph


# ----------------------------------------------------------------------
# graph-level exactness: content and row order, many random streams
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(8))
def test_coalesced_graph_is_bitwise_identical_any_splits(seed):
    base = _base_graph(seed=3)
    events = _stream(base, 80, seed=100 + seed)
    reference = _apply_raw(base.copy(), events)
    folded = _apply_coalesced(base.copy(), events, random.Random(seed))
    assert _graph_fingerprint(folded) == _graph_fingerprint(reference)


def test_coalescer_folds_redundant_work():
    base = Graph()
    base.add_vertex(0)
    base.add_vertex(1)
    source, target = 0, 1
    assert not base.has_edge(source, target)
    run = [
        EdgeUpdate(UpdateKind.ADD_EDGE, source, target, 1.0),
        EdgeUpdate(UpdateKind.ADD_EDGE, source, target, 2.0),
        EdgeUpdate(UpdateKind.ADD_EDGE, source, target, 3.0),
    ]
    delta = coalesce_edge_run(base, run)
    # overwrite chain collapses to one add carrying the final weight
    assert [
        (u.kind, u.source, u.target, u.weight) for u in delta.edge_updates
    ] == [(UpdateKind.ADD_EDGE, source, target, 3.0)]

    # add+delete of a fresh edge cancels to nothing
    cancel = [
        EdgeUpdate(UpdateKind.ADD_EDGE, source, target, 1.0),
        EdgeUpdate(UpdateKind.DELETE_EDGE, source, target),
    ]
    assert coalesce_edge_run(base, cancel).is_empty()

    # a dangling delete is dropped (raw apply would no-op it)
    dangling = [EdgeUpdate(UpdateKind.DELETE_EDGE, source, target)]
    assert coalesce_edge_run(base, dangling).is_empty()


def test_coalescer_preserves_delete_readd_row_position():
    base = Graph()
    for vertex in range(4):
        base.add_vertex(vertex)
    base.add_edge(0, 1, 1.0)
    base.add_edge(0, 2, 1.0)
    base.add_edge(0, 3, 1.0)
    run = [
        EdgeUpdate(UpdateKind.DELETE_EDGE, 0, 1),
        EdgeUpdate(UpdateKind.ADD_EDGE, 0, 1, 9.0),
    ]
    reference = _apply_raw(base.copy(), run)
    delta = coalesce_edge_run(base, run)
    folded = delta.apply(base.copy())
    # the re-added key moved to the end of row 0 in both worlds
    assert list(folded.edges()) == list(reference.edges())
    assert [t for s, t, _w in folded.edges() if s == 0] == [2, 3, 1]


def test_undirected_runs_pass_through():
    base = Graph(directed=False)
    base.add_vertex(0)
    base.add_vertex(1)
    run = [
        EdgeUpdate(UpdateKind.ADD_EDGE, 0, 1, 1.0),
        EdgeUpdate(UpdateKind.ADD_EDGE, 1, 0, 2.0),
    ]
    delta = coalesce_edge_run(base, run)
    assert len(delta.edge_updates) == 2  # no cross-alias folding


def test_segment_events_vertex_barriers():
    edge = EdgeUpdate(UpdateKind.ADD_EDGE, 0, 1, 1.0)
    vertex = VertexUpdate(UpdateKind.ADD_VERTEX, 9)
    segments = segment_events([edge, edge, vertex, edge, vertex, vertex])
    assert [len(s) for s in segments] == [2, 1, 1, 1, 1]
    assert [u for s in segments for u in s] == [edge, edge, vertex, edge, vertex, vertex]


# ----------------------------------------------------------------------
# engine-level: all 7 engines × applicable algorithms
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "engine_name,algorithm",
    [
        (engine, algorithm)
        for engine in ENGINES
        for algorithm in ALGORITHMS
        if _applicable(engine, algorithm)
    ],
)
def test_coalesced_batches_match_one_at_a_time(engine_name, algorithm):
    base = _base_graph()
    spec = make_algorithm(algorithm, source=0)

    reference = make_engine(engine_name, spec)
    reference.initialize(base)
    events = _stream(base, 60, seed=42)
    for event in events:
        delta = GraphDelta()
        if isinstance(event, VertexUpdate):
            delta.vertex_updates.append(event)
        else:
            delta.edge_updates.append(event)
        reference.apply_delta(delta)

    subject = make_engine(engine_name, spec)
    subject.initialize(base)
    rng = random.Random(7)
    for batch in _random_batches(events, rng):
        for segment in segment_events(batch):
            if isinstance(segment[0], VertexUpdate):
                delta = GraphDelta()
                delta.vertex_updates.extend(segment)
            else:
                delta = coalesce_edge_run(subject.graph, segment)
            if not delta.is_empty():
                subject.apply_delta(delta)

    # the graphs agree bitwise for every engine — coalescing is exact
    assert _graph_fingerprint(subject.graph) == _graph_fingerprint(reference.graph)
    if spec.is_selective() or engine_name == "restart":
        # batching-invariant families: states agree bitwise
        assert subject.states == reference.states
    else:
        # accumulative propagation depends on the apply-call split; the
        # family contract is agreement within the convergence tolerance
        # band (layph's layered approximation is the widest at ~1e-3)
        assert spec.states_match(reference.states, subject.states, tolerance=5e-3)


# ----------------------------------------------------------------------
# adaptive batch sizing on the fig10 grid
# ----------------------------------------------------------------------
def test_adaptive_sizer_walks_the_fig10_grid():
    sizer = AdaptiveBatchSizer(target_latency=0.05)
    assert sizer.size == 10
    # a slow batch steps down one grid notch
    assert sizer.record(10, 0.5, backlog=0) == 2
    # slow again: already at the bottom, stays
    assert sizer.record(2, 0.5, backlog=100) == 2
    # fast with a backlog steps up
    assert sizer.record(2, 0.001, backlog=50) == 10
    assert sizer.record(10, 0.001, backlog=50) == 50
    # fast but no backlog: stay (small batches keep snapshots fresh)
    assert sizer.record(50, 0.001, backlog=0) == 50
    assert sizer.observations == 5
    assert tuple(sizer.grid) == FIG10_BATCH_SIZES


def test_adaptive_sizer_rejects_off_grid_initial():
    with pytest.raises(ValueError):
        AdaptiveBatchSizer(initial=7)
