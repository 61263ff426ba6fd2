"""Conformance suite for the shared per-delta footprint.

``repro.graph.footprint.DeltaFootprint`` is the single owner of every
per-delta scan (vertex-membership diff, changed out-adjacencies, changed
factor maps, structurally-dirty targets).  This module pins it down from two
sides:

* **field conformance** — over random delta sequences (edge and vertex
  deltas, overwriting ``ADD_EDGE`` re-insertions, both graph orientations)
  every footprint field must equal a brute-force recomputation from the two
  graph versions, for all four algorithms, both with the cached CSR
  snapshots (the array row-diff path) and without them (the dict fallback);
* **engine conformance** — every incremental engine must produce bitwise
  identical states, rounds and edge activations whether its footprints read
  the cached CSR snapshots or are forced onto the dict fallback, on both
  routes (array kernels, and the reference loops of the oracle engine);
* **installation** — every engine builds the footprint of each delta it
  applies, on both routes, with the membership diff of the two graphs.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine.algorithms import make_algorithm
from repro.graph.csr import FactorCSR
from repro.graph.delta import GraphDelta
from repro.graph.generators import erdos_renyi_graph
from repro.graph.footprint import DeltaFootprint
from repro.graph.graph import Graph
from repro.incremental import base, make_engine
from repro.incremental.revision import changed_out_sources
from repro.workloads.updates import random_edge_delta, random_vertex_delta

from oracles import ROUTES, engine_on_route  # noqa: E402  (tests/)

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

ALGORITHMS = ("sssp", "bfs", "pagerank", "php")


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
@st.composite
def small_graphs(draw, max_vertices: int = 12, max_edges: int = 36):
    """Random small weighted graphs (either orientation), vertex 0 present."""
    directed = draw(st.booleans())
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
    graph = Graph(directed=directed)
    for vertex in range(num_vertices):
        graph.add_vertex(vertex)
    for source, target, weight in edges:
        if source != target:
            graph.add_edge(source, target, float(weight))
    return graph


def _random_delta(draw, graph: Graph, tag: int) -> GraphDelta:
    """One random batch update mixing every unit-update kind.

    Deliberately includes overwriting ``ADD_EDGE`` re-insertions of existing
    edges (the weight-change encoding), vertex insertions with attaching
    edges, and vertex deletions.
    """
    vertices = sorted(graph.vertices())
    delta = GraphDelta()
    existing = list(graph.edges())
    if existing:
        for source, target, _weight in draw(
            st.lists(st.sampled_from(existing), max_size=3)
        ):
            delta.delete_edge(source, target)
        # Overwriting re-insertion: an ADD_EDGE on an existing edge.
        if draw(st.booleans()):
            source, target, weight = draw(st.sampled_from(existing))
            delta.add_edge(source, target, float(weight) + 1.0)
    if vertices:
        for source, target, weight in draw(
            st.lists(
                st.tuples(
                    st.sampled_from(vertices),
                    st.sampled_from(vertices),
                    st.integers(1, 9),
                ),
                max_size=3,
            )
        ):
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
def graph_and_delta_sequence(draw, max_deltas: int = 3):
    graph = draw(small_graphs())
    deltas = []
    current = graph
    for tag in range(draw(st.integers(min_value=1, max_value=max_deltas))):
        delta = _random_delta(draw, current, tag)
        deltas.append(delta)
        current = delta.apply(current)
    return graph, deltas


# ----------------------------------------------------------------------
# brute-force references (full scans over both graphs)
# ----------------------------------------------------------------------
def _brute_dirty_targets(spec, old_graph: Graph, new_graph: Graph):
    dirty = set()
    for vertex in new_graph.vertices():
        old_in = (
            {
                u: spec.edge_factor(old_graph, u, vertex)
                for u in old_graph.in_neighbors(vertex)
            }
            if old_graph.has_vertex(vertex)
            else None
        )
        new_in = {
            u: spec.edge_factor(new_graph, u, vertex)
            for u in new_graph.in_neighbors(vertex)
        }
        if old_in != new_in:
            dirty.add(vertex)
    return dirty


def _brute_changed_factor_sources(spec, old_graph: Graph, new_graph: Graph):
    changed = set()
    for vertex in set(old_graph.vertices()) | set(new_graph.vertices()):
        old_out = (
            {
                t: spec.edge_factor(old_graph, vertex, t)
                for t in old_graph.out_neighbors(vertex)
            }
            if old_graph.has_vertex(vertex)
            else {}
        )
        new_out = (
            {
                t: spec.edge_factor(new_graph, vertex, t)
                for t in new_graph.out_neighbors(vertex)
            }
            if new_graph.has_vertex(vertex)
            else {}
        )
        if old_out != new_out:
            changed.add(vertex)
    return changed


def _footprints(spec, old_graph, new_graph, delta):
    """The same delta's footprint with CSR snapshots and without."""
    with_csr = DeltaFootprint(
        spec,
        old_graph,
        new_graph,
        delta,
        old_out_csr=FactorCSR.from_graph(spec, old_graph),
        new_out_csr=FactorCSR.from_graph(spec, new_graph),
        old_in_csr=FactorCSR.from_graph_in_edges(spec, old_graph),
        new_in_csr=FactorCSR.from_graph_in_edges(spec, new_graph),
    )
    without_csr = DeltaFootprint(spec, old_graph, new_graph, delta)
    return with_csr, without_csr


class TestFootprintConformance:
    """Footprint fields == brute-force recomputation, arrays == set views."""

    @SETTINGS
    @given(graph_and_delta_sequence(), st.sampled_from(ALGORITHMS))
    def test_fields_match_brute_force(self, data, algorithm):
        graph, deltas = data
        spec = make_algorithm(algorithm, source=0)
        current = graph
        for delta in deltas:
            updated = delta.apply(current)
            old_vertices = set(current.vertices())
            new_vertices = set(updated.vertices())
            expected_added = new_vertices - old_vertices
            expected_removed = old_vertices - new_vertices
            expected_changed = changed_out_sources(current, updated)
            expected_dirty = _brute_dirty_targets(spec, current, updated)
            expected_factor_sources = _brute_changed_factor_sources(
                spec, current, updated
            )
            for footprint in _footprints(spec, current, updated, delta):
                assert footprint.touched_sources == delta.touched_sources(current)
                assert footprint.touched_vertices == delta.touched_vertices(current)
                assert footprint.added_vertices == expected_added
                assert footprint.removed_vertices == expected_removed
                assert footprint.changed_sources == expected_changed
                assert footprint.dirty_targets == expected_dirty
                assert footprint.changed_factor_sources == expected_factor_sources
            current = updated


# ----------------------------------------------------------------------
# engines bitwise identical on the CSR row diffs and the dict fallback
# ----------------------------------------------------------------------
def _dict_footprint(spec, old_graph, new_graph, delta, **_snapshots):
    """A footprint that ignores the engine's CSR snapshots."""
    return DeltaFootprint(spec, old_graph, new_graph, delta)


def _run_sequence(engine_name, algorithm, route, graph, deltas, with_csr):
    footprint_class = DeltaFootprint if with_csr else _dict_footprint
    with mock.patch.object(base, "DeltaFootprint", footprint_class):
        engine = engine_on_route(engine_name, make_algorithm(algorithm, source=0), route)
        engine.initialize(graph.copy())
        outcomes = []
        for delta in deltas:
            result = engine.apply_delta(delta)
            outcomes.append(
                (
                    result.states,
                    result.metrics.edge_activations,
                    result.metrics.iterations,
                    tuple(result.metrics.activations_per_round),
                    tuple(result.metrics.active_vertices_per_round),
                    result.metrics.vertex_updates,
                )
            )
        return outcomes


class TestFootprintEngineEquivalence:
    """The dict-fallback footprint must reproduce every engine bitwise."""

    @SETTINGS
    @given(
        graph_and_delta_sequence(),
        st.sampled_from(["ingress", "graphbolt", "dzig", "layph"]),
        st.sampled_from(["pagerank", "php"]),
    )
    def test_accumulative_engines_identical(self, data, engine_name, algorithm):
        graph, deltas = data
        for route in ROUTES:
            on = _run_sequence(engine_name, algorithm, route, graph, deltas, True)
            off = _run_sequence(engine_name, algorithm, route, graph, deltas, False)
            assert on == off, (engine_name, algorithm, route)

    @SETTINGS
    @given(
        graph_and_delta_sequence(),
        st.sampled_from(["ingress", "kickstarter", "risgraph", "layph"]),
        st.sampled_from(["sssp", "bfs"]),
    )
    def test_selective_engines_identical(self, data, engine_name, algorithm):
        graph, deltas = data
        for route in ROUTES:
            on = _run_sequence(engine_name, algorithm, route, graph, deltas, True)
            off = _run_sequence(engine_name, algorithm, route, graph, deltas, False)
            assert on == off, (engine_name, algorithm, route)


# ----------------------------------------------------------------------
# every engine installs the footprint of every delta
# ----------------------------------------------------------------------
ENGINE_ALGORITHMS = [
    ("restart", "sssp"),
    ("kickstarter", "sssp"),
    ("risgraph", "bfs"),
    ("graphbolt", "pagerank"),
    ("dzig", "php"),
    ("ingress", "pagerank"),
    ("layph", "sssp"),
]


class TestEveryEngineInstallsTheFootprint:
    """No engine has a footprint-free path: each delta it applies leaves
    behind the footprint of that delta, whose membership diff is the O(V)
    diff of the two graph versions."""

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("engine_name, algorithm", ENGINE_ALGORITHMS)
    def test_footprint_describes_the_applied_delta(
        self, engine_name, algorithm, route
    ):
        graph = erdos_renyi_graph(30, 90, weighted=True, seed=4)
        engine = engine_on_route(engine_name, make_algorithm(algorithm, source=0), route)
        engine.initialize(graph.copy())
        current = graph
        for step in range(4):
            if step % 2:
                delta = random_edge_delta(current, 3, 3, seed=step, protect=0)
            else:
                delta = random_vertex_delta(current, 2, 2, seed=step, protect=0)
            following = delta.apply(current)
            engine.apply_delta(delta)
            footprint = engine.footprint
            assert isinstance(footprint, DeltaFootprint)
            assert footprint.delta is delta
            assert footprint.new_graph is engine.graph
            old_vertices = set(current.vertices())
            new_vertices = set(following.vertices())
            assert set(engine.graph.vertices()) == new_vertices
            assert footprint.added_vertices == new_vertices - old_vertices
            assert footprint.removed_vertices == old_vertices - new_vertices
            assert footprint.touched_vertices == delta.touched_vertices(current)
            assert footprint.touched_sources == delta.touched_sources(current)
            current = following


@pytest.mark.parametrize("directed", [True, False])
@pytest.mark.parametrize(
    "engine_name, algorithm", [("ingress", "sssp"), ("ingress", "pagerank"), ("layph", "bfs"), ("layph", "php")]
)
def test_old_graphs_keep_their_rows(engine_name, algorithm, directed):
    """``Graph.copy`` shares rows until they are written, so each delta's
    new graph shares most rows with its old one: after every delta the
    footprint's old graph, and the old graphs of the deltas before it,
    still hold their pre-delta out- and in-rows."""
    graph = erdos_renyi_graph(30, 90, weighted=True, seed=4)
    if not directed:
        graph = Graph.from_edges(graph.edges(), directed=False)
    engine = make_engine(engine_name, make_algorithm(algorithm, source=0))
    engine.initialize(graph.copy())
    kept = []
    for step in range(6):
        old = engine.graph
        if step % 2:
            delta = random_edge_delta(old, 3, 3, seed=step, protect=0)
        else:
            delta = random_vertex_delta(old, 2, 2, seed=step, protect=0)
        rows = {v: (dict(old.out_neighbors(v)), dict(old.in_neighbors(v))) for v in old.vertices()}
        kept.append((old, old.edge_list(), rows))
        engine.apply_delta(delta)
        assert engine.footprint.old_graph is old
        assert engine.graph is not old
        for graph_before, edges, rows in kept:
            assert graph_before.edge_list() == edges
            assert {
                v: (dict(graph_before.out_neighbors(v)), dict(graph_before.in_neighbors(v)))
                for v in graph_before.vertices()
            } == rows
