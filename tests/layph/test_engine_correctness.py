"""Layph engine correctness: Theorems 1 and 2 (results match a batch rerun)."""

import pytest

from repro.engine.algorithms import make_algorithm
from repro.engine.convergence import states_close
from repro.engine.runner import run_batch
from repro.graph.delta import GraphDelta
from repro.graph.generators import community_graph
from repro.graph.graph import Graph
from repro.layph.engine import LayphEngine
from repro.layph.layered_graph import LayphConfig
from repro.storage.store import restore_engine
from repro.workloads.updates import random_edge_delta, random_vertex_delta

from oracles import ROUTES, engine_on_route  # noqa: E402  (tests/)
from oracles.layph import assert_exact_skeleton  # noqa: E402  (tests/)

ALGORITHMS = ["sssp", "bfs", "pagerank", "php"]


@pytest.fixture(scope="module")
def graph():
    return community_graph(
        num_communities=6,
        community_size_range=(8, 14),
        intra_edge_probability=0.3,
        inter_edges_per_community=3,
        weighted=True,
        seed=9,
    )


def _verify(algorithm, graph, deltas, source=0, config=None):
    spec = make_algorithm(algorithm, source=source)
    engine = LayphEngine(spec, config or LayphConfig(seed=4))
    engine.initialize(graph)
    current = graph
    result = None
    for delta in deltas:
        result = engine.apply_delta(delta)
        current = delta.apply(current)
    reference = run_batch(make_algorithm(algorithm, source=source), current).states
    tolerance = 1e-6 if spec.is_selective() else 1e-3
    assert set(result.states) == set(reference)
    assert states_close(result.states, reference, tolerance=tolerance)
    return engine, result


@pytest.mark.parametrize("algorithm", ALGORITHMS)
class TestLayphMatchesBatch:
    def test_single_edge_insertion(self, algorithm, graph):
        delta = GraphDelta()
        delta.add_edge(2, 40, 1.5)
        _verify(algorithm, graph, [delta])

    def test_single_edge_deletion_inside_subgraph(self, algorithm, graph):
        # delete an intra-community edge (vertices 1..10 are in community 0)
        target_edge = None
        for source, target, _ in graph.edges():
            if source < 8 and target < 8 and source != 0:
                target_edge = (source, target)
                break
        assert target_edge is not None
        delta = GraphDelta()
        delta.delete_edge(*target_edge)
        _verify(algorithm, graph, [delta])

    def test_random_mixed_batch(self, algorithm, graph):
        delta = random_edge_delta(graph, num_additions=12, num_deletions=12, seed=31, protect=0)
        _verify(algorithm, graph, [delta])

    def test_vertex_updates(self, algorithm, graph):
        delta = random_vertex_delta(graph, num_additions=4, num_deletions=4, seed=17, protect=0)
        _verify(algorithm, graph, [delta])

    def test_sequence_of_batches(self, algorithm, graph):
        deltas = [
            random_edge_delta(graph, 6, 6, seed=41, protect=0),
        ]
        current = deltas[0].apply(graph)
        deltas.append(random_edge_delta(current, 6, 6, seed=42, protect=0))
        current = deltas[1].apply(current)
        deltas.append(random_edge_delta(current, 6, 6, seed=43, protect=0))
        _verify(algorithm, graph, deltas)

    def test_without_replication(self, algorithm, graph):
        delta = random_edge_delta(graph, 8, 8, seed=51, protect=0)
        _verify(
            algorithm,
            graph,
            [delta],
            config=LayphConfig(seed=4, enable_replication=False),
        )


def _support_graph() -> Graph:
    """Five planted communities in a chain S -> A -> {B, C}, plus a detour.

    The source (100) sits in the clique S; S feeds the clique A; A's exit
    vertex 7 is the *only* short way into the cliques B (entry 10) and C
    (entry 20).  A three-vertex chain 50 -> 51 -> 52 leads from S to the same
    two entries the long way round, so 10 and 20 stay entry vertices — upper
    layer vertices — when 7 goes.
    """
    graph = Graph()
    for members in (range(0, 8), range(10, 16), range(20, 26), range(100, 106)):
        for source in members:
            for target in members:
                if source != target:
                    graph.add_edge(source, target, 1.0)
    for source, target, weight in [
        (105, 0, 1.0),
        (104, 1, 1.0),
        (7, 10, 1.0),
        (7, 20, 1.0),
        (104, 50, 5.0),
        (50, 51, 5.0),
        (51, 52, 5.0),
        (52, 10, 5.0),
        (52, 20, 5.0),
        (6, 100, 5.0),
        (15, 0, 5.0),
        (25, 0, 5.0),
    ]:
        graph.add_edge(source, target, weight)
    return graph


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("algorithm", ["sssp", "bfs"])
class TestVertexDeletionInvalidates:
    """A deleted upper-layer vertex takes its support with it.

    Regression: the engine used to drop a removed vertex's state before the
    selective invalidation ran; the root scan then read the deleted source
    as unreached and never invalidated the targets it had supported, which
    kept stale, too-short distances.
    """

    def test_deleted_boundary_vertex_was_the_unique_support(self, algorithm, route):
        graph = _support_graph()
        spec = make_algorithm(algorithm, source=100)
        engine = engine_on_route("layph", spec, route, LayphConfig(seed=4))
        engine.initialize(graph)
        layered = engine.layered
        owner = layered.subgraphs[layered.subgraph_of[7]]
        assert 7 in owner.exit
        for entry in (10, 20):
            assert entry in layered.subgraphs[layered.subgraph_of[entry]].entry
        before = dict(engine.states)

        delta = GraphDelta()
        delta.delete_vertex(7)
        result = engine.apply_delta(delta)

        reference = run_batch(spec, delta.apply(graph)).states
        assert result.states == reference
        # the detour is strictly longer: every vertex of B and C moved
        for vertex in list(range(10, 16)) + list(range(20, 26)):
            assert reference[vertex] > before[vertex]

    @pytest.mark.parametrize("seed", range(4))
    def test_random_vertex_churn_matches_batch_after_every_delta(
        self, algorithm, route, seed, graph, tmp_path
    ):
        """Also pins the skeleton to exact states (:func:`assert_exact_skeleton`)
        after ``initialize``, after every delta and after a warm restore."""
        spec = make_algorithm(algorithm, source=0)
        engine = engine_on_route("layph", spec, route, LayphConfig(seed=4))
        engine.initialize(graph)
        assert engine.layered.subgraphs
        assert_exact_skeleton(engine)
        current = graph
        for step in range(8):
            delta = random_vertex_delta(
                current, num_additions=2, num_deletions=2, seed=100 * seed + step, protect=0
            )
            result = engine.apply_delta(delta)
            current = delta.apply(current)
            reference = run_batch(spec, current).states
            assert spec.states_match(result.states, reference, tolerance=1e-9), (
                f"delta {step} of churn sequence {seed}"
            )
            assert_exact_skeleton(engine)
        engine.save(str(tmp_path / "store"))
        restored, report = restore_engine(str(tmp_path / "store"))
        assert report.warm, report.reason
        assert_exact_skeleton(restored)


@pytest.mark.parametrize("algorithm", ["pagerank", "php"])
def test_subgraph_that_lost_its_last_boundary_vertex_is_assigned(algorithm):
    """Regression: phase 4's accumulative push indexed an empty shortcut
    stack (``IndexError``) once every assigned subgraph had lost its last
    boundary vertex.  The path 0-1-2 is one dense subgraph; vertex 3 makes
    1 its boundary, and deleting 1 leaves it none."""
    spec = make_algorithm(algorithm, source=0)
    engine = LayphEngine(spec)
    engine.initialize(Graph.from_edges([(0, 1, 1.0), (1, 2, 1.0)], directed=False))
    assert len(engine.layered.subgraphs) == 1
    grow = GraphDelta()
    grow.add_vertex(3, [(3, 1, 2.0)])
    engine.apply_delta(grow)
    assert engine.layered.subgraphs[0].boundary == {1}
    engine.apply_delta(GraphDelta())
    cut = GraphDelta()
    cut.delete_vertex(1)
    result = engine.apply_delta(cut)
    assert not engine.layered.subgraphs[0].boundary
    reference = run_batch(spec, engine.graph).states
    assert set(result.states) == set(reference)
    assert states_close(result.states, reference, tolerance=1e-3)


class TestLayphInternals:
    def test_offline_preprocessing_is_recorded(self, graph):
        engine = LayphEngine(make_algorithm("sssp"), LayphConfig(seed=4))
        engine.initialize(graph)
        assert engine.offline_seconds > 0.0
        assert engine.layered is not None
        assert len(engine.layered.subgraphs) > 0

    def test_phase_breakdown_has_four_phases(self, graph):
        engine = LayphEngine(make_algorithm("sssp"), LayphConfig(seed=4))
        engine.initialize(graph)
        delta = random_edge_delta(graph, 5, 5, seed=61, protect=0)
        result = engine.apply_delta(delta)
        phases = result.phases.as_dict()
        assert "layered graph update" in phases
        assert "messages upload" in phases
        assert "iterative computation on upper layer" in phases
        assert "messages assignment" in phases

    def test_proxy_states_never_reported(self, graph):
        engine = LayphEngine(make_algorithm("sssp"), LayphConfig(seed=4))
        engine.initialize(graph)
        delta = random_edge_delta(graph, 5, 5, seed=62, protect=0)
        result = engine.apply_delta(delta)
        assert all(vertex >= 0 for vertex in result.states)

    def test_fewer_activations_than_restart_on_small_update(self, graph):
        from repro.incremental.restart import RestartEngine

        delta = GraphDelta()
        delta.add_edge(3, 5, 2.0)
        layph = LayphEngine(make_algorithm("sssp"), LayphConfig(seed=4))
        layph.initialize(graph)
        restart = RestartEngine(make_algorithm("sssp"))
        restart.initialize(graph)
        layph_result = layph.apply_delta(delta)
        restart_result = restart.apply_delta(delta)
        assert (
            layph_result.metrics.edge_activations
            < restart_result.metrics.edge_activations
        )
