"""Integration tests: every incremental engine must match a batch restart.

This is Equation (4) of the paper — ``IA(A(G), ΔG) = A(G ⊕ ΔG)`` — checked
for every engine, every supported algorithm, and several kinds of deltas.
"""

import pytest

from repro.bench.harness import engines_for
from repro.engine.algorithms import make_algorithm
from repro.engine.convergence import states_close
from repro.engine.runner import run_batch
from repro.graph.delta import GraphDelta
from repro.graph.generators import community_graph, erdos_renyi_graph
from repro.incremental import make_engine
from repro.workloads.updates import random_edge_delta, random_vertex_delta

from oracles import ROUTES, engine_on_route  # noqa: E402  (tests/)

ALL_ENGINES = ["restart", "kickstarter", "risgraph", "graphbolt", "dzig", "ingress", "layph"]
ALGORITHMS = ["sssp", "bfs", "pagerank", "php"]


def _applicable(engine_name: str, algorithm: str) -> bool:
    spec = make_algorithm(algorithm)
    engine_cls_supports = {
        "restart": True,
        "ingress": True,
        "layph": True,
        "kickstarter": spec.is_selective(),
        "risgraph": spec.is_selective(),
        "graphbolt": not spec.is_selective(),
        "dzig": not spec.is_selective(),
    }
    return engine_cls_supports[engine_name]


def _tolerance_for(spec) -> float:
    # Selective results are path sums (near-exact); accumulative engines all
    # converge to 1e-6, so independent runs agree to a few 1e-4.
    return 1e-6 if spec.is_selective() else 1e-3


def _check(engine_name: str, algorithm: str, graph, delta: GraphDelta, source: int = 0):
    spec = make_algorithm(algorithm, source=source)
    engine = make_engine(engine_name, spec)
    engine.initialize(graph)
    result = engine.apply_delta(delta)
    reference = run_batch(make_algorithm(algorithm, source=source), delta.apply(graph)).states
    assert set(result.states) == set(reference)
    assert states_close(result.states, reference, tolerance=_tolerance_for(spec)), (
        f"{engine_name}/{algorithm} diverged from batch recomputation"
    )


@pytest.fixture(scope="module")
def base_graph():
    return community_graph(
        num_communities=5,
        community_size_range=(8, 14),
        intra_edge_probability=0.25,
        inter_edges_per_community=3,
        weighted=True,
        seed=21,
    )


@pytest.fixture(scope="module")
def sparse_graph():
    return erdos_renyi_graph(50, 180, weighted=True, seed=5)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("engine_name", ALL_ENGINES)
class TestEngineMatchesRestart:
    def test_edge_insertions_only(self, engine_name, algorithm, base_graph):
        if not _applicable(engine_name, algorithm):
            pytest.skip("engine does not support this algorithm family")
        delta = random_edge_delta(base_graph, num_additions=8, num_deletions=0, seed=1)
        _check(engine_name, algorithm, base_graph, delta)

    def test_edge_deletions_only(self, engine_name, algorithm, base_graph):
        if not _applicable(engine_name, algorithm):
            pytest.skip("engine does not support this algorithm family")
        delta = random_edge_delta(
            base_graph, num_additions=0, num_deletions=8, seed=2, protect=0
        )
        _check(engine_name, algorithm, base_graph, delta)

    def test_mixed_edge_updates(self, engine_name, algorithm, base_graph):
        if not _applicable(engine_name, algorithm):
            pytest.skip("engine does not support this algorithm family")
        delta = random_edge_delta(
            base_graph, num_additions=10, num_deletions=10, seed=3, protect=0
        )
        _check(engine_name, algorithm, base_graph, delta)

    def test_mixed_updates_on_random_graph(self, engine_name, algorithm, sparse_graph):
        if not _applicable(engine_name, algorithm):
            pytest.skip("engine does not support this algorithm family")
        delta = random_edge_delta(
            sparse_graph, num_additions=12, num_deletions=12, seed=4, protect=0
        )
        _check(engine_name, algorithm, sparse_graph, delta)

    def test_vertex_updates(self, engine_name, algorithm, base_graph):
        if not _applicable(engine_name, algorithm):
            pytest.skip("engine does not support this algorithm family")
        delta = random_vertex_delta(
            base_graph, num_additions=3, num_deletions=3, seed=5, protect=0
        )
        _check(engine_name, algorithm, base_graph, delta)

    def test_weight_increase_by_edge_overwrite(self, engine_name, algorithm, base_graph):
        """Regression: an ADD_EDGE on an existing edge overwrites its weight;
        the implicit deletion of the old (cheaper) weight must reach the
        selective engines' invalidation step, or targets keep stale values."""
        if not _applicable(engine_name, algorithm):
            pytest.skip("engine does not support this algorithm family")
        edges = sorted(base_graph.edges())[:6]
        delta = GraphDelta()
        for source, target, weight in edges:
            delta.add_edge(source, target, weight * 7.0)
        _check(engine_name, algorithm, base_graph, delta)

    def test_sequence_of_deltas(self, engine_name, algorithm, base_graph):
        if not _applicable(engine_name, algorithm):
            pytest.skip("engine does not support this algorithm family")
        spec = make_algorithm(algorithm, source=0)
        engine = make_engine(engine_name, spec)
        engine.initialize(base_graph)
        graph = base_graph
        for seed in (11, 12, 13):
            delta = random_edge_delta(
                graph, num_additions=5, num_deletions=5, seed=seed, protect=0
            )
            result = engine.apply_delta(delta)
            graph = delta.apply(graph)
        reference = run_batch(make_algorithm(algorithm, source=0), graph).states
        assert states_close(result.states, reference, tolerance=_tolerance_for(spec))


class TestFullRemovalDelta:
    """Regression: a delta that deletes *every* vertex leaves a zero-row CSR;
    the vectorized revision deduction must not index into it (it crashed with
    IndexError before the empty-snapshot guard) and every engine must come
    back with empty states on both routes (array kernels, reference loops)."""

    @pytest.mark.parametrize("engine_name", ["ingress", "layph", "graphbolt", "dzig"])
    @pytest.mark.parametrize("route", ROUTES)
    def test_delete_every_vertex(self, engine_name, route):
        graph = erdos_renyi_graph(12, 30, weighted=True, seed=1)
        delta = GraphDelta()
        for vertex in graph.vertices():
            delta.delete_vertex(vertex)
        engine = engine_on_route(engine_name, make_algorithm("pagerank"), route)
        engine.initialize(graph.copy())
        result = engine.apply_delta(delta)
        assert result.states == {}


class TestEngineSelection:
    def test_engines_for_selective(self):
        assert "kickstarter" in engines_for(make_algorithm("sssp"))
        assert "graphbolt" not in engines_for(make_algorithm("sssp"))

    def test_engines_for_accumulative(self):
        names = engines_for(make_algorithm("pagerank"))
        assert "graphbolt" in names
        assert "kickstarter" not in names

    def test_unsupported_combination_raises(self):
        with pytest.raises(ValueError):
            make_engine("kickstarter", make_algorithm("pagerank"))
        with pytest.raises(ValueError):
            make_engine("graphbolt", make_algorithm("sssp"))
