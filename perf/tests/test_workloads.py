"""The load generators are deterministic and do what their names say."""

from __future__ import annotations

import dataclasses
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from repro.graph.delta import GraphDelta, UpdateKind, VertexUpdate  # noqa: E402

from perf import calibrate  # noqa: E402
from perf.replay import batch_reference, run_replays  # noqa: E402
from perf.trace import Tracer  # noqa: E402
from perf.workloads import (  # noqa: E402
    BATCH_SIZE,
    DELTA_UNITS,
    SOURCE_VERTEX,
    TIMED_DELTAS,
    WARMUP_DELTAS,
    WORKLOADS,
    GraphShape,
    generate,
)

EVENTS = 4 * BATCH_SIZE


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def inputs(request):
    return generate(WORKLOADS[request.param], seed=7, num_events=EVENTS)


def test_same_seed_gives_identical_streams(inputs):
    again = generate(inputs.workload, seed=7, num_events=EVENTS)
    assert again.digest() == inputs.digest()
    other = generate(inputs.workload, seed=8, num_events=EVENTS)
    assert other.digest() != inputs.digest()
    # stratified: another seed moves edges, not their number
    assert other.graph.num_vertices() == inputs.graph.num_vertices()
    edges = inputs.graph.num_edges()
    assert abs(other.graph.num_edges() - edges) <= 0.002 * edges


def test_streams_are_valid_against_the_rolling_graph(inputs):
    assert len(inputs.deltas) == WARMUP_DELTAS + TIMED_DELTAS
    assert len(inputs.events) == EVENTS
    graph = inputs.graph.copy()
    for delta in inputs.deltas:
        assert delta.validate(graph) == []
        assert not delta.is_empty()
        delta.apply(graph, in_place=True)
        assert graph.out_degree(SOURCE_VERTEX) >= 1
    assert graph == inputs.served_graph
    for event in inputs.events:
        unit = GraphDelta()
        if isinstance(event, VertexUpdate):
            unit.vertex_updates.append(event)
        else:
            unit.edge_updates.append(event)
        assert unit.validate(graph) == []
        unit.apply(graph, in_place=True)
    assert graph == inputs.planted.graph


def test_deltas_have_the_locality_their_workload_names(inputs):
    membership = dict(inputs.planted.community_of)
    locality = inputs.workload.locality
    groups = [delta.edge_updates for delta in inputs.deltas]
    groups += [
        inputs.events[start : start + BATCH_SIZE] for start in range(0, EVENTS, BATCH_SIZE)
    ]
    for updates in groups:
        if locality == "local":
            touched = {membership[v] for u in updates for v in (u.source, u.target)}
            assert len(touched) == 1
        elif locality == "bridge":
            assert all(u.kind is UpdateKind.ADD_EDGE for u in updates)
            assert all(membership[u.source] != membership[u.target] for u in updates)
    for delta in inputs.deltas:
        if locality == "vertex":
            kinds = [update.kind for update in delta.vertex_updates]
            assert kinds == [UpdateKind.ADD_VERTEX] * 2 + [UpdateKind.DELETE_VERTEX] * 2
            assert all(len(u.edges) == 3 for u in delta.vertex_updates[:2])
            assert all(u.vertex != SOURCE_VERTEX for u in delta.vertex_updates)
        else:
            assert len(delta.edge_updates) == DELTA_UNITS and not delta.vertex_updates
    if locality == "vertex":
        vertex_slots = [
            index for index, event in enumerate(inputs.events) if isinstance(event, VertexUpdate)
        ]
        assert vertex_slots == list(range(7, EVENTS, 8))


SMALL = {
    "web": GraphShape(16, 8, 12, 0.3, 2, 0.0),
    "social": GraphShape(6, 30, 40, 0.05, 8, 0.02),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_activation_counts_repeat_and_a_second_seed_runs_clean(name, monkeypatch):
    # the yardstick is beside the point here, and 170 readings take a second
    monkeypatch.setattr(calibrate, "kernel_seconds", lambda: calibrate.REFERENCE_SECONDS)
    shape = SMALL["social" if name.startswith("social") else "web"]
    workload = dataclasses.replace(WORKLOADS[name], shape=shape)
    counts = {}
    # run_replays reports a count that differs between two replays as a failure
    for seed, replays in ((3, 2), (4, 1)):
        inputs = generate(workload, seed, BATCH_SIZE)
        reference = batch_reference(workload.spec(), inputs.served_graph)
        outcome = run_replays(inputs, reference, [Tracer(enabled=False)] * replays)
        assert outcome.failures == []
        counts[seed] = (outcome.layph.activations, outcome.ingress.activations)
    assert counts[3] != counts[4]
