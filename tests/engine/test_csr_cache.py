"""Unit tests for the incremental CSR cache (:mod:`repro.graph.csr_cache`)."""

import random

import numpy as np
import pytest

from repro.engine.algorithms import BFS, PHP, PageRank, SSSP, make_algorithm
from repro.engine.dense_propagation import build_propagation_slab
from repro.engine.metrics import ExecutionMetrics
from repro.engine.propagation import FactorAdjacency, SilencedAdjacency, propagate
from repro.graph.csr import FactorCSR
from repro.graph.csr_cache import (
    CSRCache,
    CachedGraphAdjacency,
    flatten_rows,
    master_factor_csr,
    resident_master_csr,
    splice_master_csr,
    splice_rows,
)
from repro.graph.delta import GraphDelta
from repro.graph.generators import community_graph
from repro.graph.graph import Graph
from repro.workloads.updates import random_edge_delta, random_vertex_delta

from oracles import ROUTES, engine_on_route  # noqa: E402  (tests/)

ALL_SPECS = [SSSP(source=0), BFS(source=0), PageRank(), PHP(source=0)]


def _base_graph() -> Graph:
    return Graph.from_edges(
        [
            (0, 1, 2.0),
            (1, 2, 1.0),
            (0, 2, 5.0),
            (2, 3, 1.0),
            (3, 1, 1.0),
            (4, 0, 3.0),
            (3, 4, 2.0),
            (2, 4, 4.0),
        ]
    )


def assert_csr_identical(left: FactorCSR, right: FactorCSR) -> None:
    assert left.vertex_ids == right.vertex_ids
    assert left.index == right.index
    assert np.array_equal(left.offsets, right.offsets)
    assert np.array_equal(left.targets, right.targets)
    assert np.array_equal(left.factors, right.factors)
    assert left.offsets.dtype == right.offsets.dtype
    assert left.targets.dtype == right.targets.dtype
    assert left.factors.dtype == right.factors.dtype


class TestGraphVersion:
    def test_mutations_bump_version(self):
        graph = Graph()
        version = graph.version
        graph.add_vertex(7)
        assert graph.version > version
        version = graph.version
        graph.add_edge(7, 8, 1.0)
        assert graph.version > version
        version = graph.version
        graph.update_edge_weight(7, 8, 2.0)
        assert graph.version > version
        version = graph.version
        graph.remove_edge(7, 8)
        assert graph.version > version
        version = graph.version
        graph.remove_vertex(8)
        assert graph.version > version

    def test_noop_add_vertex_keeps_version(self):
        graph = Graph()
        graph.add_vertex(1)
        version = graph.version
        graph.add_vertex(1)
        assert graph.version == version

    def test_copy_preserves_structure(self):
        graph = _base_graph()
        assert graph.copy() == graph


class TestDeltaPatching:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
    def test_patched_arrays_match_fresh_compile(self, spec):
        graph = _base_graph()
        cache = CSRCache()
        cache.out_csr(spec, graph)
        cache.in_csr(spec, graph)
        assert cache.compiles == 2

        deltas = [
            GraphDelta.from_edge_changes(additions=[(1, 4, 7.0)], deletions=[(0, 2)]),
            # the PR 1 bug class: an ADD_EDGE overwriting an existing edge
            GraphDelta.from_edge_changes(additions=[(0, 1, 9.0)]),
            GraphDelta.from_edge_changes(deletions=[(3, 1), (2, 3)]),
        ]
        vertex_delta = GraphDelta()
        vertex_delta.add_vertex(9, edges=[(9, 0, 1.5), (2, 9, 2.5)])
        vertex_delta.delete_vertex(4)
        deltas.append(vertex_delta)

        for delta in deltas:
            new_graph = delta.apply(graph)
            cache.apply_delta(spec, graph, new_graph, delta)
            assert_csr_identical(
                cache.out_csr(spec, new_graph), FactorCSR.from_graph(spec, new_graph)
            )
            assert_csr_identical(
                cache.in_csr(spec, new_graph),
                FactorCSR.from_graph_in_edges(spec, new_graph),
            )
            graph = new_graph
        assert cache.patches == 2 * len(deltas)
        # every equality check above was served from a patched entry
        assert cache.compiles == 2

    def test_out_csr_equals_factor_adjacency_compile(self):
        spec = PageRank()
        graph = _base_graph()
        cache = CSRCache()
        via_adjacency = FactorCSR.from_factor_adjacency(
            FactorAdjacency.from_graph(spec, graph), universe=graph.vertices()
        )
        assert_csr_identical(cache.out_csr(spec, graph), via_adjacency)

    def test_large_delta_patches(self):
        """A delta touching half the edges (more than a quarter) is patched
        like any other, and the patch equals a fresh compile."""
        spec = SSSP(source=0)
        graph = _base_graph()
        cache = CSRCache()
        cache.out_csr(spec, graph)
        cache.in_csr(spec, graph)
        delta = GraphDelta.from_edge_changes(
            additions=[(0, 3, 1.0), (1, 4, 1.0), (4, 2, 1.0)], deletions=[(0, 2)]
        )
        assert len(delta.added_edges(graph)) + len(delta.deleted_edges(graph)) > (
            graph.num_edges() / 4
        )
        new_graph = delta.apply(graph)
        cache.apply_delta(spec, graph, new_graph, delta)
        assert cache.patches == 2
        assert cache.rebuilds == 0
        assert_csr_identical(
            cache.out_csr(spec, new_graph), FactorCSR.from_graph(spec, new_graph)
        )
        assert_csr_identical(
            cache.in_csr(spec, new_graph),
            FactorCSR.from_graph_in_edges(spec, new_graph),
        )
        assert cache.compiles == 2


class TestInvalidation:
    def test_out_of_band_mutation_forces_rebuild(self):
        """Mutating the graph outside a GraphDelta must not serve a stale CSR."""
        spec = SSSP(source=0)
        graph = _base_graph()
        cache = CSRCache()
        stale = cache.out_csr(spec, graph)
        assert cache.compiles == 1
        version_before = graph.version
        graph.add_edge(4, 2, 0.5)  # no GraphDelta, no apply_delta call
        assert graph.version > version_before
        rebuilt = cache.out_csr(spec, graph)
        assert cache.compiles == 2
        assert rebuilt is not stale
        assert_csr_identical(rebuilt, FactorCSR.from_graph(spec, graph))

    def test_weight_overwrite_out_of_band_is_detected(self):
        # Same bug class as PR 1's overwriting ADD_EDGE, but out of band:
        # the weight change must invalidate the cached factors.
        spec = SSSP(source=0)
        graph = _base_graph()
        cache = CSRCache()
        cache.out_csr(spec, graph)
        graph.add_edge(0, 1, 99.0)  # overwrite, vertex set unchanged
        fresh = cache.out_csr(spec, graph)
        assert cache.compiles == 2
        position = fresh.offsets[fresh.index[0]]
        row = fresh.factors[position : fresh.offsets[fresh.index[0] + 1]]
        assert 99.0 in row.tolist()

    def test_mismatched_graph_object_is_not_served(self):
        spec = SSSP(source=0)
        graph = _base_graph()
        other = _base_graph()
        cache = CSRCache()
        cache.out_csr(spec, graph)
        cache.out_csr(spec, other)
        assert cache.compiles == 2

    def test_apply_delta_with_stale_entry_drops_it(self):
        spec = SSSP(source=0)
        graph = _base_graph()
        cache = CSRCache()
        cache.out_csr(spec, graph)
        graph.add_edge(4, 2, 0.5)  # out-of-band: entry version is now stale
        delta = GraphDelta.from_edge_changes(additions=[(1, 3, 1.0)])
        new_graph = delta.apply(graph)
        cache.apply_delta(spec, graph, new_graph, delta)
        assert cache.patches == 0
        assert cache.invalidations >= 1
        assert_csr_identical(
            cache.out_csr(spec, new_graph), FactorCSR.from_graph(spec, new_graph)
        )


class TestMemoization:
    """An unchanged graph is served from its one compile, in both
    orientations, for every algorithm: there is no uncached mode."""

    @pytest.mark.parametrize("orientation", ["out", "in"])
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
    def test_repeat_access_returns_the_compiled_snapshot(self, spec, orientation):
        graph = _base_graph()
        cache = CSRCache()
        get = getattr(cache, f"{orientation}_csr")
        first = get(spec, graph)
        assert get(spec, graph) is first
        assert cache.peek_csr(orientation, spec, graph) is first
        assert (cache.compiles, cache.hits) == (1, 1)


class TestCachedGraphAdjacency:
    def test_matches_factor_adjacency_semantics(self):
        spec = PageRank()
        graph = _base_graph()
        cache = CSRCache()
        cached = cache.adjacency(spec, graph)
        reference = FactorAdjacency.from_graph(spec, graph)
        assert sorted(cached.vertices_with_out_edges()) == sorted(
            reference.vertices_with_out_edges()
        )
        for vertex in graph.vertices():
            assert cached(vertex) == reference(vertex)
        assert len(cached) == len(reference)

    def test_propagate_identical_through_cached_adjacency(self):
        graph = _base_graph()
        for spec_factory in (lambda: SSSP(source=0), lambda: PageRank()):
            results = {}
            for kind in ("fresh", "cached"):
                spec = spec_factory()
                cache = CSRCache()
                adjacency = (
                    FactorAdjacency.from_graph(spec, graph)
                    if kind == "fresh"
                    else cache.adjacency(spec, graph)
                )
                states = spec.initial_states(graph)
                pending = {
                    v: m
                    for v, m in spec.initial_messages(graph).items()
                    if spec.is_significant(m)
                }
                metrics = ExecutionMetrics()
                propagate(spec, adjacency, states, pending, metrics)
                results[kind] = (states, metrics)
            assert results["fresh"][0] == results["cached"][0]
            assert (
                results["fresh"][1].activations_per_round
                == results["cached"][1].activations_per_round
            )
            assert results["fresh"][1].vertex_updates == results["cached"][1].vertex_updates

    def test_universe_outside_graph_falls_back(self):
        spec = SSSP(source=0)
        graph = _base_graph()
        cache = CSRCache()
        cached = cache.adjacency(spec, graph)
        assert cached.compiled_csr({0, 1}) is not None
        assert cached.compiled_csr({0, 12345}) is None


class TestUndirectedGraphs:
    """Undirected graphs install/remove the reverse edge alongside every
    update; the delta-footprint narrowing and the CSR patching must treat
    both endpoints as changed."""

    def _undirected_graph(self) -> Graph:
        return Graph.from_edges(
            [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0), (3, 4, 2.0)], directed=False
        )

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
    def test_patched_csr_matches_fresh_compile_undirected(self, spec):
        graph = self._undirected_graph()
        cache = CSRCache()
        cache.out_csr(spec, graph)
        cache.in_csr(spec, graph)
        deltas = [
            GraphDelta.from_edge_changes(additions=[(0, 3, 4.0)]),
            GraphDelta.from_edge_changes(deletions=[(1, 2)]),
            GraphDelta.from_edge_changes(additions=[(2, 3, 9.0)]),  # overwrite
        ]
        for delta in deltas:
            new_graph = delta.apply(graph)
            cache.apply_delta(spec, graph, new_graph, delta)
            assert_csr_identical(
                cache.out_csr(spec, new_graph), FactorCSR.from_graph(spec, new_graph)
            )
            assert_csr_identical(
                cache.in_csr(spec, new_graph),
                FactorCSR.from_graph_in_edges(spec, new_graph),
            )
            graph = new_graph
        assert cache.patches == 2 * len(deltas)

    def test_touched_sources_covers_both_endpoints(self):
        graph = self._undirected_graph()
        delta = GraphDelta.from_edge_changes(additions=[(0, 3, 4.0)], deletions=[(1, 2)])
        assert {0, 3, 1, 2} <= delta.touched_sources(graph)

    @pytest.mark.parametrize("engine_name", ["ingress", "graphbolt", "dzig"])
    def test_undirected_engines_match_restart(self, engine_name):
        # The revision/dirty-scan narrowing must not drop the reverse-edge
        # endpoints (review regression): incremental == batch on G ⊕ ΔG.
        from repro.engine.algorithms import make_algorithm
        from repro.engine.runner import run_batch

        graph = self._undirected_graph()
        delta = GraphDelta.from_edge_changes(additions=[(0, 3, 4.0)], deletions=[(1, 2)])
        spec = make_algorithm("pagerank")
        reference = run_batch(make_algorithm("pagerank"), delta.apply(graph)).states
        for route in ROUTES:
            engine = engine_on_route(engine_name, spec, route)
            engine.initialize(graph.copy())
            result = engine.apply_delta(delta)
            assert set(result.states) == set(reference)
            for vertex in reference:
                assert result.states[vertex] == pytest.approx(
                    reference[vertex], abs=1e-4
                ), (engine_name, route, vertex)


class TestEngineDeltaSequences:
    """Engine-level lockdown of the patched-CSR path: a sequence of deltas
    through Ingress (which propagates over the cached full-graph CSR) must
    stay bitwise-identical to the oracle engine's reference loops, for all
    four algorithms."""

    @pytest.mark.parametrize("algorithm", ["sssp", "bfs", "pagerank", "php"])
    def test_ingress_sequence_identical_across_routes(self, algorithm):
        from repro.engine.algorithms import make_algorithm
        from repro.graph.generators import erdos_renyi_graph
        from repro.workloads.updates import random_edge_delta

        graph = erdos_renyi_graph(120, 700, weighted=True, seed=2)
        results = {}
        for route in ROUTES:
            engine = engine_on_route("ingress", make_algorithm(algorithm, source=0), route)
            engine.initialize(graph.copy())
            current = graph.copy()
            runs = []
            for seed in range(6):
                delta = random_edge_delta(current, 4, 4, seed=seed, protect=0)
                runs.append(engine.apply_delta(delta))
                current = delta.apply(current)
            results[route] = (runs, engine)
        py_runs, _ = results["oracle"]
        np_runs, np_engine = results["declared"]
        assert np_engine.csr_cache.patches >= 6  # the CSR was patched, not recompiled
        for py, vec in zip(py_runs, np_runs):
            assert py.states == vec.states
            assert py.metrics.iterations == vec.metrics.iterations
            assert py.metrics.edge_activations == vec.metrics.edge_activations
            assert py.metrics.activations_per_round == vec.metrics.activations_per_round
            assert py.metrics.vertex_updates == vec.metrics.vertex_updates


class TestCompileShortCircuit:
    """`propagate` must not recompile when states/pending are unchanged
    between retries — the compile memo keyed on the adjacency version and
    universe short-circuits the second call."""

    def _run(self, spec, adjacency, graph):
        states = spec.initial_states(graph)
        pending = {
            v: m for v, m in spec.initial_messages(graph).items() if spec.is_significant(m)
        }
        propagate(spec, adjacency, states, pending)
        return states

    def test_repeated_propagate_compiles_once(self):
        spec = SSSP(source=0)
        graph = _base_graph()
        adjacency = FactorAdjacency.from_graph(spec, graph)
        FactorCSR.compile_count = 0
        first = self._run(spec, adjacency, graph)
        assert FactorCSR.compile_count == 1
        second = self._run(spec, adjacency, graph)  # identical states/pending
        assert FactorCSR.compile_count == 1, "retry with unchanged inputs recompiled"
        assert first == second

    def test_silenced_variants_share_one_master_compile(self):
        spec = SSSP(source=0)
        graph = _base_graph()
        adjacency = FactorAdjacency.from_graph(spec, graph)
        FactorCSR.compile_count = 0
        for silenced in ({1}, {2}, {1, 2}, set()):
            states = {}
            propagate(
                spec,
                SilencedAdjacency(adjacency, silenced),
                states,
                {0: 0.0},
            )
        assert FactorCSR.compile_count == 1

    def test_mutation_invalidates_master_memo(self):
        spec = SSSP(source=0)
        graph = _base_graph()
        adjacency = FactorAdjacency.from_graph(spec, graph)
        FactorCSR.compile_count = 0
        self._run(spec, adjacency, graph)
        adjacency.add(4, 1, 0.5)
        states = {}
        propagate(spec, adjacency, states, {0: 0.0})
        assert FactorCSR.compile_count == 2
        assert states[1] == pytest.approx(2.0)  # 0 ->(3.0? no) — shortest 0->1 = 2.0

    def test_each_adjacency_keeps_its_own_master_memo(self):
        spec = SSSP(source=0)
        graph = _base_graph()
        first = FactorAdjacency.from_graph(spec, graph)
        second = FactorAdjacency.from_graph(spec, graph)
        FactorCSR.compile_count = 0
        self._run(spec, first, graph)
        self._run(spec, second, graph)
        assert FactorCSR.compile_count == 2
        assert resident_master_csr(first) is not resident_master_csr(second)
        self._run(spec, first, graph)
        assert FactorCSR.compile_count == 2

    def test_master_memo_grows_universe_monotonically(self):
        adjacency = FactorAdjacency({0: [(1, 1.0)]})
        first = master_factor_csr(adjacency, {0, 1})
        second = master_factor_csr(adjacency, {0, 1, 5})
        assert 5 in second.index
        third = master_factor_csr(adjacency, {0})
        assert third is second


class TestSpliceRows:
    """The one row splice behind both ``CSRCache`` patches and Layph's
    resident upper CSR: handed-in rows replace, everything else moves, the id
    space follows joins and leaves, and the result is a fresh compile."""

    def _adjacency(self) -> FactorAdjacency:
        return FactorAdjacency(
            {
                0: [(1, 0.5), (2, 0.25)],
                1: [(2, 1.0)],
                2: [(0, 2.0), (3, 0.125), (3, 4.0)],
                5: [(0, 1.5)],
            }
        )

    def test_same_ids_splice_matches_fresh_compile(self):
        adjacency = self._adjacency()
        old = FactorCSR.from_factor_adjacency(adjacency, universe={4})
        rows = {1: [(3, 7.0), (0, 0.5)], 2: [], 4: [(5, 1.0)]}
        adjacency.replace_rows(rows)
        patched = splice_rows(old, *flatten_rows(rows))
        assert_csr_identical(
            patched, FactorCSR.from_factor_adjacency(adjacency, universe=old.vertex_ids)
        )

    def test_ids_join_and_leave(self):
        adjacency = self._adjacency()
        old = FactorCSR.from_factor_adjacency(adjacency, universe={4})
        # 3 and 4 leave, -2 and 9 join; every row that pointed at 3 is handed in
        rows = {2: [(0, 2.0), (9, 1.0)], 9: [(-2, 3.0)], 3: [], 4: []}
        adjacency.replace_rows(rows)
        new_ids = [-2, 0, 1, 2, 5, 9]
        patched = splice_rows(old, *flatten_rows(rows), new_ids)
        assert_csr_identical(
            patched, FactorCSR.from_factor_adjacency(adjacency, universe=new_ids)
        )
        assert patched.ids_array().tolist() == new_ids

    def test_dangling_link_refuses_the_splice(self):
        adjacency = self._adjacency()
        old = FactorCSR.from_factor_adjacency(adjacency)
        # 3 leaves but row 2, which points at it, was not handed in
        assert splice_rows(old, *flatten_rows({}), [0, 1, 2, 5]) is None
        # a handed-in row pointing outside the id space is refused as well
        assert splice_rows(old, *flatten_rows({1: [(42, 1.0)]})) is None

    def test_master_memo_follows_replace_rows(self):
        adjacency = self._adjacency()
        resident = master_factor_csr(adjacency, {4})
        assert resident_master_csr(adjacency) is resident
        rows = {3: [(4, 1.0)], 4: [], 5: [], 7: [(0, 1.0)]}
        changed = adjacency.replace_rows(rows)
        assert changed == [3, 5, 7]
        assert resident_master_csr(adjacency) is None  # version moved on
        splice_master_csr(
            adjacency, resident, {v: rows[v] for v in changed}, joining=[7], leaving=[5]
        )
        spliced = resident_master_csr(adjacency)
        FactorCSR.compile_count = 0
        assert master_factor_csr(adjacency, {0, 7}) is spliced
        assert FactorCSR.compile_count == 0
        assert_csr_identical(
            spliced,
            FactorCSR.from_factor_adjacency(adjacency, universe=[0, 1, 2, 3, 4, 7]),
        )


class TestSlabsFromPatchedSnapshots:
    """The propagation slab the numpy kernels run on, built over a snapshot
    the cache patched forward through a random delta sequence, must be
    bitwise the slab of a fresh compile of the same graph."""

    SLAB_ARRAYS = ("offsets", "targets", "factors", "out_degree", "absorb")

    def _graph(self, seed: int) -> Graph:
        return community_graph(
            num_communities=3,
            community_size_range=(14, 20),
            intra_edge_probability=0.3,
            inter_edges_per_community=3,
            weighted=True,
            seed=seed,
        )

    def _weight_delta(self, graph: Graph, num_changes: int, seed: int) -> GraphDelta:
        """Reweight ``num_changes`` existing edges; the id space is unchanged."""
        rng = random.Random(seed)
        edges = sorted(graph.edges())
        rng.shuffle(edges)
        delta = GraphDelta()
        for source, target, weight in edges[:num_changes]:
            delta.delete_edge(source, target)
            delta.add_edge(source, target, round(float(weight) + rng.uniform(0.1, 2.0), 3))
        return delta

    def _slab(self, spec, cache: CSRCache, graph: Graph):
        return build_propagation_slab(spec, cache.adjacency(spec, graph), {}, {0: 1.0})

    def _assert_slab_matches_fresh(self, spec, cache: CSRCache, graph: Graph) -> None:
        slab, ids = self._slab(spec, cache, graph)
        fresh, fresh_ids = self._slab(spec, CSRCache(), graph)
        assert list(ids) == list(fresh_ids)
        for name in self.SLAB_ARRAYS:
            array, expected = getattr(slab, name), getattr(fresh, name)
            assert array.dtype == expected.dtype, name
            assert array.tobytes() == expected.tobytes(), f"{name} diverged"

    @pytest.mark.parametrize("algorithm", ["sssp", "bfs", "pagerank", "php"])
    def test_weight_delta_sequence_patches_in_place(self, algorithm):
        spec = make_algorithm(algorithm, source=0)
        cache = CSRCache()
        graph = self._graph(seed=13)
        self._assert_slab_matches_fresh(spec, cache, graph)
        for step in range(6):
            delta = self._weight_delta(graph, num_changes=3, seed=100 + step)
            new_graph = delta.apply(graph)
            cache.apply_delta(spec, graph, new_graph, delta)
            graph = new_graph
            self._assert_slab_matches_fresh(spec, cache, graph)
        assert cache.compiles == 1, "a weight-only delta forced a recompile"
        assert cache.patches == 6

    @pytest.mark.parametrize("algorithm", ["sssp", "pagerank"])
    def test_structural_churn_stays_bitwise(self, algorithm):
        spec = make_algorithm(algorithm, source=0)
        cache = CSRCache()
        graph = self._graph(seed=29)
        for step in range(8):
            self._assert_slab_matches_fresh(spec, cache, graph)
            if step % 3 == 2:
                delta = random_vertex_delta(
                    graph, num_additions=2, num_deletions=1, seed=800 + step, protect=0
                )
            else:
                delta = random_edge_delta(
                    graph, num_additions=4, num_deletions=3, seed=700 + step, protect=0
                )
            new_graph = delta.apply(graph)
            cache.apply_delta(spec, graph, new_graph, delta)
            graph = new_graph
        self._assert_slab_matches_fresh(spec, cache, graph)
        assert cache.compiles == 1, "structural churn forced a recompile"
        assert cache.patches == 8
