"""Property and lifecycle tests for the dense dependency table.

``repro.incremental.dep_table.DepTable`` must be bitwise interchangeable
with the dict walks of the test oracles (:mod:`oracles.dependency`) across
the whole selective subsystem: KickStarter's DAG trimming, RisGraph's
classified single-parent invalidation and Ingress's memoization path —
identical final states, per-delta metrics (rounds, edge activations) and
dependency parents over random edge+vertex delta sequences, in both graph
orientations.  Layph's selective path rides the same matrix (its upper-layer
invalidation consumes the footprint's row diff rather than the table, but
must stay bitwise stable across both routes: its kernels and the oracle).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine.algorithms import make_algorithm
from repro.graph.csr import FactorCSR
from repro.graph.delta import GraphDelta
from repro.graph.generators import erdos_renyi_graph
from repro.graph.graph import Graph
from repro.incremental import make_engine
from repro.incremental.dep_table import DepTable
from repro.workloads.updates import random_edge_delta, random_vertex_delta

from oracles import dependency, engine_on_route, oracle_engine  # noqa: E402  (tests/)

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

ENGINES = ("kickstarter", "risgraph", "ingress", "layph")
ALGORITHMS = ("sssp", "bfs")


# ----------------------------------------------------------------------
# strategies (mirroring tests/test_properties.py)
# ----------------------------------------------------------------------
@st.composite
def small_graphs(draw, max_vertices: int = 14, max_edges: int = 45):
    num_vertices = draw(st.integers(min_value=2, max_value=max_vertices))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, num_vertices - 1),
                st.integers(0, num_vertices - 1),
                st.integers(1, 9),
            ),
            max_size=max_edges,
        )
    )
    graph = Graph()
    for vertex in range(num_vertices):
        graph.add_vertex(vertex)
    for source, target, weight in edges:
        if source != target:
            graph.add_edge(source, target, float(weight))
    return graph


def _random_delta(draw, graph: Graph, tag: int) -> GraphDelta:
    """Edge deletions, (weight-overwriting) insertions, vertex add/remove."""
    vertices = sorted(graph.vertices())
    delta = GraphDelta()
    existing = list(graph.edges())
    if existing:
        for source, target, _weight in draw(
            st.lists(st.sampled_from(existing), max_size=3)
        ):
            delta.delete_edge(source, target)
    if vertices:
        additions = draw(
            st.lists(
                st.tuples(
                    st.sampled_from(vertices),
                    st.sampled_from(vertices),
                    st.integers(1, 9),
                ),
                max_size=3,
            )
        )
        for source, target, weight in additions:
            if source != target:
                delta.add_edge(source, target, float(weight))
        if draw(st.booleans()):
            new_vertex = max(vertices) + 1 + tag
            attach = draw(st.sampled_from(vertices))
            delta.add_vertex(new_vertex, edges=[(new_vertex, attach, 2.0)])
        removable = [v for v in vertices if v != 0]
        if removable and draw(st.booleans()):
            delta.delete_vertex(draw(st.sampled_from(removable)))
    return delta


@st.composite
def oriented_graph_and_delta_sequence(draw, max_deltas: int = 3):
    directed = draw(st.booleans())
    base = draw(small_graphs())
    if directed:
        graph = base
    else:
        graph = Graph(directed=False)
        for vertex in base.vertices():
            graph.add_vertex(vertex)
        for source, target, weight in base.edges():
            graph.add_edge(source, target, weight)
    deltas = []
    current = graph
    for tag in range(draw(st.integers(min_value=1, max_value=max_deltas))):
        delta = _random_delta(draw, current, tag)
        deltas.append(delta)
        current = delta.apply(current)
    return graph, deltas


# ----------------------------------------------------------------------
# table mechanics
# ----------------------------------------------------------------------
def _chain_csr(n):
    """In-edge CSR of the path 0 -> 1 -> ... -> n-1 with unit weights."""
    graph = Graph()
    for vertex in range(n):
        graph.add_vertex(vertex)
    for vertex in range(n - 1):
        graph.add_edge(vertex, vertex + 1, 1.0)
    spec = make_algorithm("sssp", source=0)
    return spec, graph, FactorCSR.from_graph_in_edges(spec, graph)


class TestDepTableMechanics:
    def test_from_parents_roundtrip(self):
        spec, graph, csr = _chain_csr(5)
        states = {v: float(v) for v in range(5)}
        parents = {0: None, 1: 0, 2: 1, 3: 2, 4: 3}
        table = DepTable.from_parents(csr, states, parents, math.inf)
        assert table.to_parents_dict() == parents
        assert table.parent_of(3) == 2
        assert table.parent_of(0) is None
        assert table.values.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_taint_tree_crosses_parent_cycles(self):
        """A zero-weight support loop can make the parent links a cycle; the
        walk's visited mask stops on it, from a root on or off the loop."""
        spec = make_algorithm("sssp", source=0)
        graph = Graph.from_edges(
            [
                (0, 1, 1.0),
                (1, 2, 1.0),
                (2, 3, 0.0),
                (3, 2, 0.0),
                (3, 4, 1.0),
                (1, 5, 2.0),
            ]
        )
        states = {0: 0.0, 1: 1.0, 2: 2.0, 3: 2.0, 4: 3.0, 5: 3.0}
        # 2 and 3 support each other: the loop hangs off no root, and 4
        # hangs off the loop.
        parents = {0: None, 1: 0, 2: 3, 3: 2, 4: 3, 5: 1}
        in_csr = FactorCSR.from_graph_in_edges(spec, graph)
        out_csr = FactorCSR.from_graph(spec, graph)
        table = DepTable.from_parents(in_csr, states, parents, math.inf)
        for roots, expected in (
            ({0}, {0, 1, 5}),
            ({1}, {1, 5}),
            ({2}, {2, 3, 4}),
            ({3}, {2, 3, 4}),
            ({4}, {4}),
            ({1, 3}, {1, 2, 3, 4, 5}),
        ):
            assert dependency.dependents_single_parent(parents, graph, roots) == expected
            mask = table.taint_tree(
                out_csr, np.array([table.index[v] for v in roots], dtype=np.int64)
            )
            assert {table.vertex_ids[i] for i in np.nonzero(mask)[0]} == expected

    @pytest.mark.parametrize("seed", [None, 1, 4, 9, 16])
    def test_taint_tree_matches_dict_reference(self, seed):
        """On the 8-vertex chain (``seed=None``) and on the shortest-path
        forests of random graphs, from several root sets."""
        if seed is None:
            spec, graph, _ = _chain_csr(8)
        else:
            spec = make_algorithm("sssp", source=0)
            graph = erdos_renyi_graph(60, 240, weighted=True, seed=seed)
        from repro.engine.runner import run_batch

        states = run_batch(spec, graph).states
        parents = dependency.compute_parents(spec, graph, states)
        in_csr = FactorCSR.from_graph_in_edges(spec, graph)
        out_csr = FactorCSR.from_graph(spec, graph)
        table = DepTable.from_parents(in_csr, states, parents, math.inf)
        vertices = sorted(graph.vertices())
        rng = np.random.default_rng(seed)
        root_sets = [{3}, {0}, set(vertices)]
        root_sets += [
            set(rng.choice(vertices, size=k, replace=False).tolist()) for k in (1, 2, 5)
        ]
        for roots in root_sets:
            expected = dependency.dependents_single_parent(parents, graph, roots)
            mask = table.taint_tree(
                out_csr, np.array([in_csr.index[v] for v in roots], dtype=np.int64)
            )
            assert {table.vertex_ids[i] for i in np.nonzero(mask)[0]} == expected

    def test_taint_dag_matches_dict_reference(self):
        spec = make_algorithm("sssp", source=0)
        graph = erdos_renyi_graph(30, 120, weighted=True, seed=5)
        from repro.engine.runner import run_batch

        states = run_batch(spec, graph).states
        parents = dependency.compute_parents(spec, graph, states)
        in_csr = FactorCSR.from_graph_in_edges(spec, graph)
        out_csr = FactorCSR.from_graph(spec, graph)
        table = DepTable.from_parents(in_csr, states, parents, math.inf)
        reachable = [v for v in graph.vertices() if not math.isinf(states[v])]
        roots = set(reachable[:3])
        expected = dependency.dependents_dag(spec, graph, states, roots)
        mask = table.taint_dag(
            out_csr, np.array([in_csr.index[v] for v in roots], dtype=np.int64)
        )
        assert {table.vertex_ids[i] for i in np.nonzero(mask)[0]} == expected

    def test_remap_gathers_and_repoints_parents(self):
        spec, graph, csr = _chain_csr(5)
        states = {v: float(v) for v in range(5)}
        parents = {0: None, 1: 0, 2: 1, 3: 2, 4: 3}
        table = DepTable.from_parents(csr, states, parents, math.inf)
        # Remove vertex 2, add vertex 9.
        updated = graph.copy()
        updated.remove_vertex(2)
        updated.add_edge(9, 0, 1.0)
        new_csr = FactorCSR.from_graph_in_edges(spec, updated)
        table.remap(new_csr, {9: math.inf}, math.inf)
        mapped = table.to_parents_dict()
        # 3's parent (2) was dropped; survivors keep theirs; 9 starts fresh.
        assert mapped == {0: None, 1: 0, 3: None, 4: 3, 9: None}
        assert table.values[table.index[9]] == math.inf
        assert table.values[table.index[4]] == 4.0


# ----------------------------------------------------------------------
# engine equivalence: dense table == dict reference, bitwise
# ----------------------------------------------------------------------
def _run_sequence(engine_name, algorithm, route, graph, deltas):
    engine = engine_on_route(engine_name, make_algorithm(algorithm, source=0), route)
    engine.initialize(graph.copy())
    outcomes = []
    for delta in deltas:
        result = engine.apply_delta(delta)
        if getattr(engine, "dep_table", None) is not None:
            parents = engine.dep_table.to_parents_dict()
        else:
            parents = dict(getattr(engine, "parents", {}))
        outcomes.append(
            (
                dict(result.states),
                result.metrics.edge_activations,
                result.metrics.iterations,
                result.metrics.activations_per_round,
                parents,
            )
        )
    return engine, outcomes


class TestDenseDictEquivalence:
    """Dense table vs the oracle's dict store: bitwise."""

    @SETTINGS
    @given(
        oriented_graph_and_delta_sequence(),
        st.sampled_from(ENGINES),
        st.sampled_from(ALGORITHMS),
    )
    def test_dense_matches_dict_reference(self, data, engine_name, algorithm):
        graph, deltas = data
        py_engine, py = _run_sequence(engine_name, algorithm, "oracle", graph, deltas)
        _dense_engine, dense = _run_sequence(engine_name, algorithm, "declared", graph, deltas)

        # the oracle keeps its forest in the dict store
        if engine_name != "layph":
            assert py_engine.dep_table is None

        for mine, theirs in zip(dense, py):
            assert mine[0] == theirs[0]  # states, bitwise
            assert mine[1] == theirs[1]  # edge activations
            assert mine[2] == theirs[2]  # rounds
            assert mine[3] == theirs[3]  # per-round activations
            assert mine[4] == theirs[4]  # dependency parents

    @SETTINGS
    @given(oriented_graph_and_delta_sequence(), st.sampled_from(ALGORITHMS))
    def test_dense_path_engages_for_declared_algebra(self, data, algorithm):
        graph, deltas = data
        engine = make_engine(
            "kickstarter", make_algorithm(algorithm, source=0)
        )
        engine.initialize(graph.copy())
        for delta in deltas:
            engine.apply_delta(delta)
        assert engine.dense_deltas == len(deltas)
        assert engine.dep_table is not None


class TestDepTableLifecycle:
    @pytest.fixture()
    def graph(self):
        return erdos_renyi_graph(40, 160, weighted=True, seed=2)

    def test_initialize_builds_the_oracle_forest(self, graph):
        for name in ("kickstarter", "risgraph", "ingress"):
            engine = make_engine(name, make_algorithm("sssp", source=0))
            reference = oracle_engine(name, make_algorithm("sssp", source=0))
            engine.initialize(graph.copy())
            reference.initialize(graph.copy())
            assert engine.dep_table.to_parents_dict() == reference.parents

    def test_nan_weight_delta_is_rejected(self, graph):
        engine = make_engine("kickstarter", make_algorithm("sssp", source=0))
        reference = oracle_engine("kickstarter", make_algorithm("sssp", source=0))
        engine.initialize(graph.copy())
        reference.initialize(graph.copy())
        before = (engine.graph, dict(engine.states), engine.dep_table.to_parents_dict())

        poison = GraphDelta()
        poison.add_edge(9998, 9999, math.nan)
        with pytest.raises(ValueError, match="non-finite weight"):
            engine.apply_delta(poison)
        assert engine.graph is before[0]
        assert engine.states == before[1]
        assert engine.dep_table.to_parents_dict() == before[2]
        assert engine.dense_deltas == 0

        clean = random_edge_delta(graph, 3, 3, seed=9, protect=0)
        result = engine.apply_delta(clean)
        expected = reference.apply_delta(clean)
        assert result.states == expected.states
        assert engine.dep_table.to_parents_dict() == reference.parents


class TestIncrementalMaintenance:
    """The per-delta refresh re-gathers only the rows the engine can have
    written (tainted, added, and the propagation journal's keys), so it
    must stay bitwise with the oracle's full-graph refresh, and the table's
    values must mirror the engine's states after every delta."""

    def _graph(self, seed=7):
        return erdos_renyi_graph(90, 450, weighted=True, seed=seed)

    def test_dense_deltas_use_partial_value_gathers(self):
        engine = make_engine("risgraph", make_algorithm("sssp", source=0))
        graph = self._graph()
        engine.initialize(graph)
        for step in range(5):
            delta = random_edge_delta(graph, 3, 2, seed=70 + step, protect=0)
            engine.apply_delta(delta)
            graph = engine.graph
        assert engine.dep_table is not None
        assert engine.dense_deltas == 5

    def test_partial_refresh_matches_dict_reference(self):
        spec = make_algorithm("sssp", source=0)
        dense = make_engine("risgraph", spec)
        reference = oracle_engine("risgraph", spec)
        graph = self._graph(seed=3)
        dense.initialize(graph)
        reference.initialize(graph.copy())
        for step in range(6):
            delta = random_edge_delta(graph, 3, 3, seed=500 + step, protect=0)
            got = dense.apply_delta(delta)
            want = reference.apply_delta(delta)
            assert got.states == want.states
            assert got.metrics.edge_activations == want.metrics.edge_activations
            graph = dense.graph
        assert dense.dep_table.to_parents_dict() == reference.parents

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("engine_name", ["kickstarter", "risgraph", "ingress"])
    def test_values_mirror_states_after_every_delta(self, engine_name, algorithm):
        """The invariant the partial gather trusts: a journal that missed a
        written row would otherwise surface only as a later wrong parent."""
        engine = make_engine(engine_name, make_algorithm(algorithm, source=0))
        graph = self._graph(seed=23)
        engine.initialize(graph)
        for step in range(10):
            if step % 3 == 2:
                delta = random_vertex_delta(graph, 2, 2, seed=40 + step, protect=0)
            else:
                delta = random_edge_delta(graph, 4, 4, seed=40 + step, protect=0)
            engine.apply_delta(delta)
            graph = engine.graph
            table = engine.dep_table
            assert table.vertex_ids == sorted(graph.vertices())
            mirrored = [engine.states[vertex] for vertex in table.vertex_ids]
            assert table.values.tolist() == mirrored

    def test_patched_taint_matches_dict_reference(self):
        """Taint parity with the oracle over a long delta sequence."""
        spec = make_algorithm("bfs", source=0)
        dense = make_engine("kickstarter", spec)
        reference = oracle_engine("kickstarter", spec)
        graph = self._graph(seed=11)
        dense.initialize(graph)
        reference.initialize(graph.copy())
        for step in range(6):
            delta = random_edge_delta(graph, 3, 3, seed=1300 + step, protect=0)
            got = dense.apply_delta(delta)
            want = reference.apply_delta(delta)
            assert got.states == want.states
            assert got.metrics.edge_activations == want.metrics.edge_activations
            graph = dense.graph
