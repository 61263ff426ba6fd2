"""Equivalence of Layph's vectorized upload/assign phases with the loops.

The numpy kernels in :mod:`repro.layph.vectorized` must be metric-identical
to the Python reference loops — same revised states, same arrived messages,
same round counts and edge activations.  The reference run is the oracle
engine (:func:`oracles.oracle_engine`), whose seams run those loops.  NaN
inputs never reach the kernels: the engine refuses them at its boundary.
"""

import math

import pytest

from repro.engine.algorithms import PageRank, SSSP, make_algorithm
from repro.engine.metrics import ExecutionMetrics
from repro.engine.propagation import FactorAdjacency, NonConvergenceError
from repro.graph.delta import GraphDelta
from repro.graph.generators import community_graph
from repro.layph.engine import LayphEngine
from repro.layph.vectorized import assign_accumulative_batch, assign_selective_batch
from repro.workloads.updates import random_edge_delta

from oracles import ROUTES, engine_on_route, oracle_engine  # noqa: E402  (tests/)


class _Subgraph:
    """Minimal stand-in for a DenseSubgraph in direct kernel tests."""

    def __init__(self, index, boundary, internal, adjacency, shortcuts=None):
        self.index = index
        self.boundary = frozenset(boundary)
        self.internal = set(internal)
        self.local_adjacency = adjacency
        self.shortcuts = shortcuts or {}

    def internal_shortcuts(self, source):
        return {
            target: factor
            for target, factor in self.shortcuts.get(source, {}).items()
            if target in self.internal
        }


def _community():
    return community_graph(
        num_communities=6,
        community_size_range=(15, 30),
        intra_edge_probability=0.35,
        weighted=True,
        seed=11,
    )


def _chain_subgraph():
    # boundary 1 feeds internal chain 2 -> 3 -> 4, boundary 5 absorbs
    adjacency = FactorAdjacency(
        {
            1: [(2, 1.0)],
            2: [(3, 2.0)],
            3: [(4, 1.0), (5, 3.0)],
        }
    )
    return _Subgraph(0, boundary={1, 5}, internal={2, 3, 4}, adjacency=adjacency)


class TestLocalUploadKernel:
    @pytest.mark.parametrize("spec", [SSSP(source=0), PageRank()], ids=lambda s: s.name)
    def test_matches_python_loop(self, spec):
        results = {}
        for route in ROUTES:
            engine = engine_on_route("layph", spec, route)
            subgraph = _chain_subgraph()
            work = {2: 10.0 if spec.is_selective() else 0.5, 3: 12.0 if spec.is_selective() else 0.25}
            pending = {2: 4.0, 5: 1.0}
            metrics = ExecutionMetrics()
            arrived = engine._local_upload(subgraph, work, pending, metrics)
            results[route] = (arrived, work, metrics)
        py_arrived, py_work, py_metrics = results["oracle"]
        np_arrived, np_work, np_metrics = results["declared"]
        assert py_arrived == np_arrived
        assert py_work == np_work
        assert py_metrics.iterations == np_metrics.iterations
        assert py_metrics.edge_activations == np_metrics.edge_activations
        assert py_metrics.activations_per_round == np_metrics.activations_per_round
        assert py_metrics.active_vertices_per_round == np_metrics.active_vertices_per_round
        # the reference loop counts no vertex updates, neither must the kernel
        assert np_metrics.vertex_updates == 0

    def test_nan_weight_is_rejected_before_the_upload(self, monkeypatch):
        from repro.layph import vectorized

        engine = LayphEngine(PageRank())
        engine.initialize(_community())
        before = (engine.graph, dict(engine.states), dict(engine.proxy_states))

        def fail(*_args, **_kwargs):
            raise AssertionError("a rejected delta must not reach the upload")

        monkeypatch.setattr(vectorized, "run_upload", fail)
        subgraph = engine.layered.subgraphs[0]
        source = min(subgraph.internal)
        poison = GraphDelta()
        poison.add_edge(source, next(iter(engine.graph.out_neighbors(source))), math.nan)
        with pytest.raises(ValueError, match="non-finite weight"):
            engine.apply_delta(poison)
        assert engine.graph is before[0]
        assert (engine.states, engine.proxy_states) == before[1:]

    def test_nan_state_is_rejected_at_initialize(self):
        class NaNState(PageRank):
            def initial_state(self, vertex):
                return math.nan if vertex == 3 else super().initial_state(vertex)

        engine = LayphEngine(NaNState())
        with pytest.raises(ValueError, match="NaN initial value"):
            engine.initialize(_community())
        assert engine.graph is None and engine.states == {} and engine.layered is None

    def test_non_convergence_raises_in_the_kernel(self):
        # A lossless 2-cycle: PageRank-style messages never decay, so the
        # vectorized upload must hit the round cap and raise like the
        # Python loop does.
        adjacency = FactorAdjacency({1: [(2, 1.0)], 2: [(1, 1.0)]})
        subgraph = _Subgraph(0, boundary=frozenset(), internal={1, 2}, adjacency=adjacency)
        engine = LayphEngine(PageRank())
        with pytest.raises(NonConvergenceError):
            engine._local_upload(subgraph, {}, {1: 1.0}, ExecutionMetrics())


class TestAssignKernels:
    def _shortcut_subgraph(self):
        subgraph = _Subgraph(
            1,
            boundary={0, 5},
            internal={2, 3},
            adjacency=FactorAdjacency(),
            shortcuts={
                0: {2: 1.0, 3: 3.0, 5: 4.0},  # the boundary target lives on Lup
                5: {3: 2.0},
            },
        )
        return subgraph

    def test_selective_assign_matches_python(self):
        spec = SSSP(source=0)
        subgraph = self._shortcut_subgraph()
        work = {0: 1.0, 5: 2.5}
        metrics = ExecutionMetrics()
        [best] = assign_selective_batch(spec, [subgraph], work, metrics)
        assert best == {2: 2.0, 3: 4.0}
        assert metrics.edge_activations == 3  # two internal entries of 0, one of 5

    def test_accumulative_assign_matches_python(self):
        from repro.graph.graph import Graph

        spec = PageRank()
        subgraph = self._shortcut_subgraph()
        graph = Graph.from_edges([(0, 2, 1.0), (2, 3, 1.0), (3, 5, 1.0)])
        results = {}
        for route in ROUTES:
            work = {2: 0.25, 3: 0.5}
            metrics = ExecutionMetrics()
            deltas = {0: 0.125, 5: 0.0625}
            if route == "declared":
                assign_accumulative_batch(spec, [subgraph], deltas, work, metrics, graph)
            else:
                oracle_engine("layph", spec)._assign_subgraphs(
                    [subgraph], deltas, work, metrics, graph, None
                )
            results[route] = (work, metrics.edge_activations)
        assert results["oracle"] == results["declared"]
        work, activations = results["declared"]
        assert work[2] == 0.25 + 0.125 * 1.0
        assert work[3] == 0.5 + 0.125 * 3.0 + 0.0625 * 2.0
        assert activations == 3

    def test_accumulative_assign_skips_vanished_targets(self):
        from repro.graph.graph import Graph

        spec = PageRank()
        subgraph = self._shortcut_subgraph()
        graph = Graph.from_edges([(0, 2, 1.0), (2, 5, 1.0)])  # 3 is gone
        results = []
        for vectorized in (True, False):
            work = {2: 0.25, 3: 0.5}
            metrics = ExecutionMetrics()
            if vectorized:
                assign_accumulative_batch(
                    spec, [subgraph], {0: 0.125, 5: 0.0625}, work, metrics, graph
                )
            else:
                oracle_engine("layph", spec)._assign_subgraphs(
                    [subgraph], {0: 0.125, 5: 0.0625}, work, metrics, graph, None
                )
            results.append((work, metrics.edge_activations))
        assert results[0] == results[1] == ({2: 0.25 + 0.125, 3: 0.5}, 1)

    def test_shortcut_csr_cache_invalidated_on_rebuild(self):
        from repro.layph.vectorized import _shortcut_csr

        subgraph = self._shortcut_subgraph()
        first = _shortcut_csr(subgraph)
        assert _shortcut_csr(subgraph) is first
        subgraph.shortcuts = {0: {2: 9.0}}  # a rebuild installs fresh tables
        second = _shortcut_csr(subgraph)
        assert second is not first
        assert second.factors.tolist() == [9.0]


class TestEngineLevelEquivalence:
    """Full LayphEngine runs over a community graph: the upload/assign
    kernels must leave states, rounds and activations bitwise-identical to
    the oracle engine's Python loops, for all four algorithms."""

    @pytest.mark.parametrize("algorithm", ["sssp", "bfs", "pagerank", "php"])
    def test_delta_sequence_identical(self, algorithm):
        graph = _community()
        results = {}
        for route in ROUTES:
            engine = engine_on_route("layph", make_algorithm(algorithm, source=0), route)
            engine.initialize(graph.copy())
            current = graph.copy()
            runs = []
            for seed in range(4):
                delta = random_edge_delta(current, 4, 4, seed=seed, protect=0)
                runs.append(engine.apply_delta(delta))
                current = delta.apply(current)
            results[route] = runs
        for py, vec in zip(results["oracle"], results["declared"]):
            assert py.states == vec.states
            assert py.metrics.iterations == vec.metrics.iterations
            assert py.metrics.edge_activations == vec.metrics.edge_activations
            assert py.metrics.activations_per_round == vec.metrics.activations_per_round
