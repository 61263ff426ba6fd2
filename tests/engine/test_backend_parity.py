"""Bitwise parity of the ``numpy`` backend with the ``python`` reference.

The numpy backend's contract is *bitwise identity* with the Python loops:
the array kernels reduce in the reference order, so states, round counts,
edge activations and the selective engines' dependency forests must all
equal the Python run — not merely approximate it.  The suite drives every
engine through random delta sequences (edge churn, and edge churn mixed
with vertex turnover, which shifts the CSR id space) under both backends,
and checks the batch runner on the same community graph.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import build_engine
from repro.engine.algorithms import make_algorithm
from repro.engine.runner import run_batch
from repro.graph.generators import community_graph
from repro.workloads.updates import random_edge_delta, random_vertex_delta

ALGORITHMS = ["sssp", "bfs", "pagerank", "php"]
ENGINES = ["restart", "kickstarter", "risgraph", "graphbolt", "dzig", "ingress", "layph"]
NUM_DELTAS = 3


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


ENGINE_ALGORITHMS = [
    (engine, algorithm)
    for engine in ENGINES
    for algorithm in ALGORITHMS
    if _applicable(engine, algorithm)
]


def _base_graph():
    return community_graph(
        num_communities=4,
        community_size_range=(18, 30),
        intra_edge_probability=0.22,
        inter_edges_per_community=4,
        weighted=True,
        seed=11,
    )


def _metrics_fingerprint(metrics):
    return (
        metrics.iterations,
        metrics.edge_activations,
        metrics.vertex_updates,
        list(metrics.activations_per_round),
        list(metrics.active_vertices_per_round),
    )


def _parent_forest(engine):
    """The selective engines' dependency forest, whichever store holds it."""
    if getattr(engine, "dep_table", None) is not None:
        return engine.dep_table.to_parents_dict()
    parents = getattr(engine, "parents", None)
    return dict(parents) if parents is not None else None


def _edge_delta(graph, step: int):
    return random_edge_delta(
        graph, num_additions=3, num_deletions=2, seed=400 + step, protect=0
    )


def _mixed_delta(graph, step: int):
    """Vertex turnover on odd steps, edge churn on even ones."""
    if step % 2:
        return random_vertex_delta(
            graph, num_additions=2, num_deletions=1, seed=800 + step, protect=0
        )
    return random_edge_delta(
        graph, num_additions=4, num_deletions=3, seed=700 + step, protect=0
    )


def _run_sequence(engine_name: str, algorithm: str, backend: str, make_delta):
    spec = make_algorithm(algorithm, source=0)
    engine = build_engine(engine_name, spec, backend=backend)
    graph = _base_graph()
    engine.initialize(graph)
    outputs = []
    for step in range(NUM_DELTAS):
        result = engine.apply_delta(make_delta(graph, step))
        outputs.append((dict(result.states), _metrics_fingerprint(result.metrics)))
        graph = engine.graph
    return outputs, _parent_forest(engine)


def _assert_parity(engine_name: str, algorithm: str, make_delta) -> None:
    reference, reference_forest = _run_sequence(
        engine_name, algorithm, "python", make_delta
    )
    vectorized, vectorized_forest = _run_sequence(
        engine_name, algorithm, "numpy", make_delta
    )
    for step, (expected, actual) in enumerate(zip(reference, vectorized)):
        assert expected[0] == actual[0], f"states diverged at delta {step}"
        assert expected[1] == actual[1], f"metrics diverged at delta {step}"
    assert reference_forest == vectorized_forest


@pytest.mark.parametrize("engine_name,algorithm", ENGINE_ALGORITHMS)
def test_engine_parity_over_delta_sequence(engine_name, algorithm):
    _assert_parity(engine_name, algorithm, _edge_delta)


@pytest.mark.parametrize("engine_name,algorithm", ENGINE_ALGORITHMS)
def test_engine_parity_over_vertex_turnover(engine_name, algorithm):
    _assert_parity(engine_name, algorithm, _mixed_delta)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_batch_parity(algorithm):
    spec = make_algorithm(algorithm, source=0)
    graph = _base_graph()
    reference = run_batch(spec, graph, backend="python")
    vectorized = run_batch(spec, graph, backend="numpy")
    assert reference.states == vectorized.states
    assert _metrics_fingerprint(reference.metrics) == _metrics_fingerprint(
        vectorized.metrics
    )
