"""Property-based tests (hypothesis) for the core invariants.

The central property is the paper's Equation (4): for random graphs and
random deltas, every incremental engine must agree with a from-scratch batch
run on the updated graph.  Supporting properties cover the graph/delta
algebra and the shortcut folding (Definition 3).
"""

from __future__ import annotations

import math

import numpy as np

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine.algorithms import PageRank, SSSP, make_algorithm
from repro.engine.convergence import states_close
from repro.engine.propagation import FactorAdjacency
from repro.engine.runner import run_batch
from repro.graph.csr import FactorCSR
from repro.graph.csr_cache import CSRCache
from repro.graph.delta import GraphDelta
from repro.graph.graph import Graph
from repro.incremental import make_engine
from repro.layph.shortcuts import compute_shortcuts_from

from oracles import ROUTES, engine_on_route, loops, oracle_run_batch  # noqa: E402  (tests/)

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
@st.composite
def small_graphs(draw, max_vertices: int = 14, max_edges: int = 45):
    """Random small weighted digraphs that always contain vertex 0."""
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


@st.composite
def graph_and_delta(draw):
    """A random graph together with a random batch update against it."""
    graph = draw(small_graphs())
    vertices = sorted(graph.vertices())
    delta = GraphDelta()
    existing = list(graph.edges())
    deletions = draw(st.lists(st.sampled_from(existing), max_size=4)) if existing else []
    for source, target, _weight in deletions:
        delta.delete_edge(source, target)
    additions = draw(
        st.lists(
            st.tuples(st.sampled_from(vertices), st.sampled_from(vertices), st.integers(1, 9)),
            max_size=4,
        )
    )
    for source, target, weight in additions:
        if source != target:
            delta.add_edge(source, target, float(weight))
    return graph, delta


def _random_delta(draw, graph: Graph, tag: int) -> GraphDelta:
    """One random batch update against the *current* ``graph``.

    Mixes edge deletions, edge insertions (including weight-overwriting
    re-insertions of existing edges, the PR 1 bug class), and vertex
    insertions/deletions.
    """
    vertices = sorted(graph.vertices())
    delta = GraphDelta()
    existing = list(graph.edges())
    if existing:
        for source, target, _weight in draw(st.lists(st.sampled_from(existing), max_size=3)):
            delta.delete_edge(source, target)
    if vertices:
        additions = draw(
            st.lists(
                st.tuples(
                    st.sampled_from(vertices), st.sampled_from(vertices), st.integers(1, 9)
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
def graph_and_delta_sequence(draw, max_deltas: int = 4):
    """A random graph plus a sequence of random batch updates against it."""
    graph = draw(small_graphs())
    deltas = []
    current = graph
    for tag in range(draw(st.integers(min_value=2, max_value=max_deltas))):
        delta = _random_delta(draw, current, tag)
        deltas.append(delta)
        current = delta.apply(current)
    return graph, deltas


@st.composite
def oriented_graph_and_delta_sequence(draw, max_deltas: int = 3):
    """Like :func:`graph_and_delta_sequence`, but drawing both orientations.

    Undirected graphs install the reverse of every edge, which exercises the
    both-endpoints-touched corners of the delta-footprint narrowing and the
    memo-table remaps.
    """
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
# graph / delta algebra
# ----------------------------------------------------------------------
class TestGraphProperties:
    @SETTINGS
    @given(small_graphs())
    def test_degree_sums_match_edge_count(self, graph):
        assert sum(graph.out_degree(v) for v in graph.vertices()) == graph.num_edges()
        assert sum(graph.in_degree(v) for v in graph.vertices()) == graph.num_edges()

    @SETTINGS
    @given(small_graphs())
    def test_copy_equals_original(self, graph):
        assert graph.copy() == graph

    @SETTINGS
    @given(small_graphs())
    def test_reverse_twice_is_identity(self, graph):
        assert graph.reverse().reverse() == graph

    @SETTINGS
    @given(graph_and_delta())
    def test_delta_inversion_roundtrip(self, data):
        graph, delta = data
        updated = delta.apply(graph)
        restored = delta.inverted(graph).apply(updated)
        # Re-adding a deleted edge restores its weight, so the roundtrip is
        # exact whenever the delta did not both delete and re-add same edge.
        deleted = {(s, t) for s, t, _ in delta.deleted_edges(graph)}
        added = {(s, t) for s, t, _ in delta.added_edges(graph)}
        if not deleted & added:
            assert restored == graph

    @SETTINGS
    @given(graph_and_delta())
    def test_apply_never_mutates_original(self, data):
        graph, delta = data
        snapshot = graph.copy()
        delta.apply(graph)
        assert graph == snapshot


# ----------------------------------------------------------------------
# batch semantics
# ----------------------------------------------------------------------
class TestBatchProperties:
    @SETTINGS
    @given(small_graphs())
    def test_sssp_triangle_inequality(self, graph):
        states = run_batch(SSSP(source=0), graph).states
        for source, target, weight in graph.edges():
            if not math.isinf(states[source]):
                assert states[target] <= states[source] + weight + 1e-9

    @SETTINGS
    @given(small_graphs())
    def test_sssp_source_is_zero_and_nonnegative(self, graph):
        states = run_batch(SSSP(source=0), graph).states
        assert states[0] == 0.0
        assert all(value >= 0.0 for value in states.values())

    @SETTINGS
    @given(small_graphs())
    def test_pagerank_scores_at_least_teleport(self, graph):
        states = run_batch(PageRank(damping=0.85), graph).states
        assert all(value >= (1 - 0.85) - 1e-9 for value in states.values())

    @SETTINGS
    @given(small_graphs())
    def test_pagerank_total_mass_bounded(self, graph):
        # Dangling vertices leak mass, so the total is at most |V| and at
        # least the teleport mass.
        states = run_batch(PageRank(damping=0.85), graph).states
        total = sum(states.values())
        n = graph.num_vertices()
        assert (1 - 0.85) * n - 1e-6 <= total <= n + 1e-6


# ----------------------------------------------------------------------
# incremental == batch (Equation (4))
# ----------------------------------------------------------------------
class TestIncrementalProperties:
    @SETTINGS
    @given(graph_and_delta(), st.sampled_from(["ingress", "kickstarter", "risgraph", "layph"]))
    def test_selective_engines_match_restart(self, data, engine_name):
        graph, delta = data
        spec = make_algorithm("sssp", source=0)
        engine = make_engine(engine_name, spec)
        engine.initialize(graph)
        result = engine.apply_delta(delta)
        reference = run_batch(make_algorithm("sssp", source=0), delta.apply(graph)).states
        assert states_close(result.states, reference, tolerance=1e-6)

    @SETTINGS
    @given(graph_and_delta(), st.sampled_from(["ingress", "graphbolt", "dzig", "layph"]))
    def test_accumulative_engines_match_restart(self, data, engine_name):
        graph, delta = data
        spec = make_algorithm("pagerank")
        engine = make_engine(engine_name, spec)
        engine.initialize(graph)
        result = engine.apply_delta(delta)
        reference = run_batch(make_algorithm("pagerank"), delta.apply(graph)).states
        assert states_close(result.states, reference, tolerance=1e-3)


# ----------------------------------------------------------------------
# route equivalence: reference loops (oracle engine) vs array kernels
# ----------------------------------------------------------------------
def _assert_metric_identical(py_metrics, np_metrics):
    assert py_metrics.iterations == np_metrics.iterations
    assert py_metrics.edge_activations == np_metrics.edge_activations
    assert py_metrics.activations_per_round == np_metrics.activations_per_round
    assert py_metrics.active_vertices_per_round == np_metrics.active_vertices_per_round
    assert py_metrics.vertex_updates == np_metrics.vertex_updates


def _assert_states_identical(left, right, tolerance=1e-9):
    assert set(left) == set(right)
    for vertex in left:
        a, b = left[vertex], right[vertex]
        assert a == b or abs(a - b) <= tolerance, (vertex, a, b)


class TestRouteEquivalence:
    """The array kernels must be metric-compatible with the Python loops the
    oracle engine runs: same converged states, same round counts, same
    per-round edge activations — for all four algorithms, batch and
    incremental."""

    @SETTINGS
    @given(small_graphs(), st.sampled_from(["sssp", "bfs", "pagerank", "php"]))
    def test_batch_routes_identical(self, graph, algorithm):
        py = oracle_run_batch(make_algorithm(algorithm, source=0), graph)
        vec = run_batch(make_algorithm(algorithm, source=0), graph)
        _assert_states_identical(py.states, vec.states)
        _assert_metric_identical(py.metrics, vec.metrics)

    @SETTINGS
    @given(
        graph_and_delta(),
        st.sampled_from(["ingress", "layph", "restart"]),
        st.sampled_from(["sssp", "bfs", "pagerank", "php"]),
    )
    def test_incremental_routes_identical(self, data, engine_name, algorithm):
        graph, delta = data
        results = {}
        for route in ROUTES:
            engine = engine_on_route(engine_name, make_algorithm(algorithm, source=0), route)
            engine.initialize(graph.copy())
            results[route] = engine.apply_delta(delta)
        py, vec = results["oracle"], results["declared"]
        _assert_states_identical(py.states, vec.states)
        _assert_metric_identical(py.metrics, vec.metrics)


# ----------------------------------------------------------------------
# incremental CSR cache: patched arrays == fresh compile (every delta)
# ----------------------------------------------------------------------
def _assert_csr_identical(left, right):
    assert left.vertex_ids == right.vertex_ids
    assert np.array_equal(left.offsets, right.offsets)
    assert np.array_equal(left.targets, right.targets)
    assert np.array_equal(left.factors, right.factors)


class TestCSRCacheProperties:
    """A random delta sequence pushed through the CSRCache must leave arrays
    identical to a fresh ``FactorCSR`` compile after every delta — for all
    four algorithms, in both edge orientations."""

    @SETTINGS
    @given(graph_and_delta_sequence(), st.sampled_from(["sssp", "bfs", "pagerank", "php"]))
    def test_patched_csr_identical_to_fresh_compile(self, data, algorithm):
        graph, deltas = data
        spec = make_algorithm(algorithm, source=0)
        cache = CSRCache()
        current = graph.copy()
        cache.out_csr(spec, current)
        cache.in_csr(spec, current)
        for delta in deltas:
            updated = delta.apply(current)
            cache.apply_delta(spec, current, updated, delta)
            _assert_csr_identical(
                cache.out_csr(spec, updated), FactorCSR.from_graph(spec, updated)
            )
            _assert_csr_identical(
                cache.out_csr(spec, updated),
                FactorCSR.from_factor_adjacency(
                    FactorAdjacency.from_graph(spec, updated), universe=updated.vertices()
                ),
            )
            _assert_csr_identical(
                cache.in_csr(spec, updated), FactorCSR.from_graph_in_edges(spec, updated)
            )
            current = updated


# ----------------------------------------------------------------------
# route equivalence of the BSP engines (GraphBolt / DZiG)
# ----------------------------------------------------------------------
class TestBSPRouteEquivalence:
    """GraphBolt's and DZiG's vectorized BSP pulls must reproduce the Python
    loops exactly: same memoized iterations, converged states, round counts
    and edge activations — batch and incremental."""

    @SETTINGS
    @given(
        graph_and_delta(),
        st.sampled_from(["graphbolt", "dzig"]),
        st.sampled_from(["pagerank", "php"]),
    )
    def test_bsp_routes_identical(self, data, engine_name, algorithm):
        graph, delta = data
        results = {}
        for route in ROUTES:
            engine = engine_on_route(engine_name, make_algorithm(algorithm, source=0), route)
            initial = engine.initialize(graph.copy())
            incremental = engine.apply_delta(delta)
            results[route] = (initial, incremental, engine.iterations)
        py_init, py_inc, py_iters = results["oracle"]
        np_init, np_inc, np_iters = results["declared"]
        _assert_states_identical(py_init.states, np_init.states, tolerance=0.0)
        _assert_metric_identical(py_init.metrics, np_init.metrics)
        _assert_states_identical(py_inc.states, np_inc.states, tolerance=0.0)
        _assert_metric_identical(py_inc.metrics, np_inc.metrics)
        assert len(py_iters) == len(np_iters)
        for py_level, np_level in zip(py_iters, np_iters):
            assert py_level == np_level


# ----------------------------------------------------------------------
# dense memo table (GraphBolt / DZiG) == dict reference, bitwise
# ----------------------------------------------------------------------
class TestMemoStoreEquivalence:
    """The dense ``MemoTable`` store must be bitwise interchangeable with the
    oracle's dict store: identical memoized iterations, states, rounds and
    edge activations over random delta sequences (vertex additions/removals
    and index remaps included), in both graph orientations."""

    @SETTINGS
    @given(
        oriented_graph_and_delta_sequence(),
        st.sampled_from(["graphbolt", "dzig"]),
        st.sampled_from(["pagerank", "php"]),
    )
    def test_dense_store_matches_dict_reference(self, data, engine_name, algorithm):
        graph, deltas = data

        def run(route):
            engine = engine_on_route(engine_name, make_algorithm(algorithm, source=0), route)
            initial = engine.initialize(graph.copy())
            incremental = [engine.apply_delta(delta) for delta in deltas]
            return engine, initial, incremental

        py_engine, py_init, py_inc = run("oracle")
        dense_engine, dense_init, dense_inc = run("declared")

        _assert_states_identical(py_init.states, dense_init.states, tolerance=0.0)
        _assert_metric_identical(py_init.metrics, dense_init.metrics)
        for py_result, dense_result in zip(py_inc, dense_inc):
            _assert_states_identical(py_result.states, dense_result.states, tolerance=0.0)
            _assert_metric_identical(py_result.metrics, dense_result.metrics)

        py_iters = py_engine.iterations
        dense_iters = dense_engine.iterations
        assert len(py_iters) == len(dense_iters)
        for py_level, dense_level in zip(py_iters, dense_iters):
            assert py_level == dense_level


# ----------------------------------------------------------------------
# vectorized revision-message deduction == dict reference, bitwise
# ----------------------------------------------------------------------
class TestRevisionMessageEquivalence:
    """``accumulative_revision_messages`` over the out-edge CSR snapshots
    must produce the exact pending map of the oracle's dict deduction (same
    targets, same float bits), and candidate narrowing must never change the
    outcome."""

    @SETTINGS
    @given(
        oriented_graph_and_delta_sequence(max_deltas=2),
        st.sampled_from(["pagerank", "php"]),
    )
    def test_vectorized_deduction_identical(self, data, algorithm):
        from repro.incremental.revision import accumulative_revision_messages

        graph, deltas = data
        spec = make_algorithm(algorithm, source=0)
        current = graph
        states = run_batch(spec, current).states
        for delta in deltas:
            updated = delta.apply(current)
            reference = loops.accumulative_revision_messages(spec, current, updated, states)
            old_csr = FactorCSR.from_graph(spec, current)
            new_csr = FactorCSR.from_graph(spec, updated)
            narrowed = accumulative_revision_messages(
                spec,
                current,
                updated,
                states,
                old_csr,
                new_csr,
                candidates=delta.touched_sources(current),
            )
            vectorized = accumulative_revision_messages(
                spec, current, updated, states, old_csr, new_csr
            )
            for other in (narrowed, vectorized):
                assert other[1] == reference[1]
                assert other[2] == reference[2]
                assert set(other[0]) == set(reference[0])
                for vertex in reference[0]:
                    assert other[0][vertex] == reference[0][vertex], (
                        vertex,
                        reference[0][vertex],
                        other[0][vertex],
                    )
            current = updated
            states = run_batch(spec, current).states


# ----------------------------------------------------------------------
# shortcut folding (Definition 3)
# ----------------------------------------------------------------------
class TestShortcutProperties:
    @SETTINGS
    @given(small_graphs())
    def test_sssp_shortcuts_bound_true_distances(self, graph):
        """A shortcut is an internal-only path, so it can never be shorter
        than the unrestricted shortest path between the same endpoints."""
        spec = SSSP(source=0)
        adjacency = FactorAdjacency.from_graph(spec, graph)
        boundary = {0}
        shortcuts = compute_shortcuts_from(spec, adjacency, 0, boundary)
        true_distances = run_batch(SSSP(source=0), graph).states
        for target, weight in shortcuts.items():
            assert weight >= true_distances[target] - 1e-9
