"""Bitwise parity of the array kernels with the reference loops.

The array kernels' contract is *bitwise identity* with the Python loops:
they reduce in the reference order, so states, round counts, edge
activations and the selective engines' dependency forests must all equal
the reference run — not merely approximate it.  The reference run is the
same engine with every kernel bound to its oracle loop
(:func:`oracles.oracle_engine`).  The suite drives every engine through
random delta sequences (edge churn, and edge churn mixed with vertex
turnover, which shifts the CSR id space) on both routes, and checks the
batch runner on the same community graph.  Layph runs once more with a low
replication threshold and its source on the skeleton, so its upper-layer
iteration gathers proxies and PHP's absorbing vertex.
"""

from __future__ import annotations

import pytest

from repro.engine.algorithms import make_algorithm
from repro.engine.runner import run_batch
from repro.graph.generators import community_graph
from repro.incremental import make_engine
from repro.layph.layered_graph import LayphConfig
from repro.workloads.updates import random_edge_delta, random_vertex_delta

from oracles import oracle_engine, oracle_run_batch  # noqa: E402  (tests/)

ALGORITHMS = ["sssp", "bfs", "pagerank", "php"]
ENGINES = ["restart", "kickstarter", "risgraph", "graphbolt", "dzig", "ingress", "layph"]
NUM_DELTAS = 3
#: every outside host shared by a boundary vertex is replicated as a proxy
PROXY_CONFIG = LayphConfig(replication_threshold=1)
#: a boundary vertex of the base graph's layering under PROXY_CONFIG
UPPER_SOURCE = 26


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


def _hex_states(states):
    """States as float hex, so equality is bitwise (``-0.0``, NaN)."""
    return {vertex: float(value).hex() for vertex, value in states.items()}


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


def _edge_delta(graph, step: int, protect: int = 0):
    return random_edge_delta(
        graph, num_additions=3, num_deletions=2, seed=400 + step, protect=protect
    )


def _mixed_delta(graph, step: int, protect: int = 0):
    """Vertex turnover on odd steps, edge churn on even ones."""
    if step % 2:
        return random_vertex_delta(
            graph, num_additions=2, num_deletions=1, seed=800 + step, protect=protect
        )
    return random_edge_delta(
        graph, num_additions=4, num_deletions=3, seed=700 + step, protect=protect
    )


def _run_sequence(engine, make_delta, source: int = 0):
    graph = _base_graph()
    engine.initialize(graph)
    outputs = []
    for step in range(NUM_DELTAS):
        result = engine.apply_delta(make_delta(graph, step, protect=source))
        outputs.append((_hex_states(result.states), _metrics_fingerprint(result.metrics)))
        graph = engine.graph
    return outputs, _parent_forest(engine)


def _assert_parity(
    engine_name: str, algorithm: str, make_delta, source: int = 0, layph_config=None
) -> None:
    spec = make_algorithm(algorithm, source=source)
    reference, reference_forest = _run_sequence(
        oracle_engine(engine_name, spec, layph_config), make_delta, source
    )
    vectorized, vectorized_forest = _run_sequence(
        make_engine(engine_name, spec, layph_config), make_delta, source
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


def test_proxy_config_layers_the_source_onto_the_skeleton():
    engine = make_engine("layph", make_algorithm("php", source=UPPER_SOURCE), PROXY_CONFIG)
    engine.initialize(_base_graph())
    layered = engine.layered
    assert layered.proxy_vertices(), "the base graph formed no proxy"
    assert layered.proxy_vertices() <= layered.upper_vertices
    assert UPPER_SOURCE in layered.upper_vertices
    assert UPPER_SOURCE in layered.subgraph_of, "the source is an outlier"


@pytest.mark.parametrize("make_delta", [_edge_delta, _mixed_delta])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_layph_parity_with_proxies(algorithm, make_delta):
    _assert_parity("layph", algorithm, make_delta, UPPER_SOURCE, PROXY_CONFIG)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_batch_parity(algorithm):
    spec = make_algorithm(algorithm, source=0)
    graph = _base_graph()
    reference = oracle_run_batch(spec, graph)
    vectorized = run_batch(spec, graph)
    assert _hex_states(reference.states) == _hex_states(vectorized.states)
    assert _metrics_fingerprint(reference.metrics) == _metrics_fingerprint(
        vectorized.metrics
    )
