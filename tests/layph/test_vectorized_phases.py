"""Equivalence of Layph's vectorized upload/assign phases with the loops.

The numpy kernels — phase 2's batched upload
(:func:`repro.layph.shortcuts.local_uploads`) and phase 4's assignment in
:mod:`repro.layph.vectorized` — must be metric-identical to the Python
reference loops: same revised states, same arrived messages, same round
counts and edge activations.  The reference run is the oracle engine
(:func:`oracles.oracle_engine`), whose seams run those loops.  NaN inputs
never reach the kernels: the engine refuses them at its boundary.
"""

import math

import pytest

from repro.engine.algorithms import PageRank, SSSP, make_algorithm
from repro.engine.metrics import ExecutionMetrics
from repro.engine.propagation import FactorAdjacency, NonConvergenceError
from repro.engine.runner import run_batch
from repro.graph.delta import GraphDelta
from repro.graph.generators import community_graph
from repro.layph import engine as layph_engine
from repro.layph.engine import LayphEngine
from repro.layph.layered_graph import DenseSubgraph
from repro.layph.shortcuts import ShortcutTable, local_uploads
from repro.layph.vectorized import (
    ShortcutStack,
    assign_accumulative_batch,
    assign_selective_batch,
)
from repro.workloads.updates import random_edge_delta

from oracles import ROUTES, engine_on_route, oracle_engine, oracle_loops  # noqa: E402  (tests/)


def _subgraph(index, entry, exit_, internal, adjacency=None, shortcuts=None):
    return DenseSubgraph(
        index=index,
        members=set(entry) | set(exit_) | set(internal),
        entry=set(entry),
        exit=set(exit_),
        internal=set(internal),
        local_adjacency=adjacency or FactorAdjacency(),
        shortcuts=shortcuts or ShortcutTable((), 0.0),
    )


def _community():
    return community_graph(
        num_communities=6,
        community_size_range=(15, 30),
        intra_edge_probability=0.35,
        weighted=True,
        seed=11,
    )


def _chain_subgraph(index=0, shift=0):
    # boundary 1 feeds internal chain 2 -> 3 -> 4, boundary 5 absorbs (ids
    # moved up by ``shift``: subgraphs never share a vertex)
    adjacency = FactorAdjacency(
        {
            1 + shift: [(2 + shift, 1.0)],
            2 + shift: [(3 + shift, 2.0)],
            3 + shift: [(4 + shift, 1.0), (5 + shift, 3.0)],
        }
    )
    return _subgraph(index, {1 + shift}, {5 + shift}, {2 + shift, 3 + shift, 4 + shift}, adjacency)


class TestLocalUploadKernel:
    @pytest.mark.parametrize("spec", [SSSP(source=0), PageRank()], ids=lambda s: s.name)
    def test_matches_python_loop(self, spec):
        results = {}
        for route in ROUTES:
            uploads = [(_chain_subgraph(0), {2: 4.0, 5: 1.0}), (_chain_subgraph(1, 10), {13: 2.0})]
            work = {2: 10.0 if spec.is_selective() else 0.5, 3: 12.0 if spec.is_selective() else 0.25}
            work[13] = work[3]
            metrics = ExecutionMetrics()
            if route == "oracle":
                with oracle_loops():
                    arrived = local_uploads(spec, uploads, work, metrics)
            else:
                arrived = local_uploads(spec, uploads, work, metrics)
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
        engine = LayphEngine(PageRank())
        engine.initialize(_community())
        before = (engine.graph, dict(engine.states), dict(engine.proxy_states))

        def fail(*_args, **_kwargs):
            raise AssertionError("a rejected delta must not reach the upload")

        monkeypatch.setattr(layph_engine, "local_uploads", fail)
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

    @pytest.mark.parametrize("route", ROUTES)
    def test_non_convergence_raises_in_the_kernel(self, route):
        # A lossless 2-cycle: PageRank-style messages never decay, so the
        # batched upload must hit the round cap and raise like the Python
        # loop does, naming the subgraph.
        adjacency = FactorAdjacency({1: [(2, 1.0)], 2: [(1, 1.0)]})
        stuck = _subgraph(3, (), (), {1, 2}, adjacency)
        uploads = [(_chain_subgraph(), {2: 0.5}), (stuck, {1: 1.0})]
        with pytest.raises(NonConvergenceError, match="subgraph 3 did not converge"):
            if route == "oracle":
                with oracle_loops():
                    local_uploads(PageRank(), uploads, {}, ExecutionMetrics())
            else:
                local_uploads(PageRank(), uploads, {}, ExecutionMetrics())


class TestAssignKernels:
    def _shortcut_subgraph(self, spec):
        vectors = {
            0: {2: 1.0, 3: 3.0, 5: 4.0},  # the boundary target lives on Lup
            5: {3: 2.0},
        }
        table = ShortcutTable.from_vectors(vectors, spec.aggregate_identity())
        return _subgraph(0, {0}, {5}, {2, 3}, shortcuts=table)

    def _stack(self, spec, subgraphs):
        stack = ShortcutStack()
        stack.sync(spec, subgraphs, list(range(len(subgraphs))))
        return stack

    def test_selective_assign_matches_python(self):
        spec = SSSP(source=0)
        subgraph = self._shortcut_subgraph(spec)
        work = {0: 1.0, 5: 2.5}
        metrics = ExecutionMetrics()
        [best] = assign_selective_batch(spec, self._stack(spec, [subgraph]), [0], work, metrics)
        assert best == {2: 2.0, 3: 4.0}
        assert metrics.edge_activations == 3  # two internal entries of 0, one of 5

    def test_accumulative_assign_matches_python(self):
        spec = PageRank()
        subgraph = self._shortcut_subgraph(spec)
        results = {}
        for route in ROUTES:
            work = {2: 0.25, 3: 0.5}
            metrics = ExecutionMetrics()
            deltas = {0: 0.125, 5: 0.0625}
            if route == "declared":
                stack = self._stack(spec, [subgraph])
                assign_accumulative_batch(spec, stack, [0], deltas, work, metrics)
            else:
                oracle_engine("layph", spec)._assign_subgraphs(
                    [subgraph], deltas, work, metrics, None
                )
            results[route] = (work, metrics.edge_activations)
        assert results["oracle"] == results["declared"]
        work, activations = results["declared"]
        assert work[2] == 0.25 + 0.125 * 1.0
        assert work[3] == 0.5 + 0.125 * 3.0 + 0.0625 * 2.0
        assert activations == 3

    def test_unassigned_segments_take_no_part(self):
        """Only the rows of the assigned segments offer or push: another
        subgraph's boundary state or delta moves nothing and counts nothing."""
        spec = PageRank()
        first = self._shortcut_subgraph(spec)
        table = ShortcutTable.from_vectors({7: {8: 0.5}}, 0.0)
        second = _subgraph(1, {7}, set(), {8}, shortcuts=table)
        stack = self._stack(spec, [first, second])
        work = {2: 0.25, 3: 0.5, 8: 1.0}
        metrics = ExecutionMetrics()
        assign_accumulative_batch(spec, stack, [0], {0: 0.125, 7: 1.0}, work, metrics)
        assert work == {2: 0.25 + 0.125, 3: 0.5 + 0.125 * 3.0, 8: 1.0}
        assert metrics.edge_activations == 2
        selective = SSSP(source=0)
        first, second = self._shortcut_subgraph(selective), _subgraph(1, {7}, set(), {8}, shortcuts=table)
        metrics = ExecutionMetrics()
        maps = assign_selective_batch(
            selective, self._stack(selective, [first, second]), [1], {0: 1.0, 7: 2.0}, metrics
        )
        assert maps == [{8: 2.5}]
        assert metrics.edge_activations == 1

    def test_kernels_see_only_the_assigned_rows(self, monkeypatch):
        """Phase 4's work follows the assigned segments, not the stack: the
        kernels are handed the assigned subgraphs' rows alone."""
        from repro.layph import vectorized

        handed = []
        for name in ("assign_best_offers", "assign_deltas"):
            kernel = getattr(vectorized, name)

            def observed(offsets, counts, *args, _kernel=kernel):
                handed.append(counts.size)
                return _kernel(offsets, counts, *args)

            monkeypatch.setattr(vectorized, name, observed)
        for spec in (PageRank(), SSSP(source=0)):
            table = ShortcutTable.from_vectors({7: {8: 0.5}, 9: {8: 0.25}}, spec.aggregate_identity())
            first = self._shortcut_subgraph(spec)  # two rows
            second = _subgraph(1, {7, 9}, set(), {8}, shortcuts=table)
            stack = self._stack(spec, [first, second])
            work = {0: 1.0, 5: 2.0, 7: 2.0, 9: 3.0, 2: 0.25, 3: 0.5, 8: 1.0}
            if spec.is_selective():
                assign_selective_batch(spec, stack, [1], work, ExecutionMetrics())
            else:
                deltas = {0: 0.125, 5: 0.5, 7: 1.0, 9: 0.0}
                assign_accumulative_batch(spec, stack, [1], deltas, work, ExecutionMetrics())
        # the second subgraph's two rows (selective), its one live row (accumulative: 9 is flat)
        assert sorted(handed) == [1, 2]

    def test_sync_replaces_only_stale_segments(self, monkeypatch):
        from repro.layph import vectorized

        spec = PageRank()
        first = self._shortcut_subgraph(spec)
        second = _subgraph(1, {7}, set(), {8}, shortcuts=ShortcutTable.from_vectors({7: {8: 0.5}}, 0.0))
        stack = self._stack(spec, [first, second])
        assert stack.rows([0, 1])[3].tolist() == [2, 3, 3, 8]  # targets
        built = []
        segment = vectorized._segment

        def observed_segment(spec, subgraph):
            built.append(subgraph.index)
            return segment(spec, subgraph)

        monkeypatch.setattr(vectorized, "_segment", observed_segment)
        stack.sync(spec, [first, second], [0, 1])
        assert built == []  # both assigned, neither changed
        # a refresh installs a fresh table and internal set for the first
        # subgraph only: its segment waits until it is assigned
        first.shortcuts = ShortcutTable.from_vectors({0: {2: 9.0}}, 0.0)
        first.internal = {2}
        stack.sync(spec, [first, second], [1])
        assert built == []
        stack.sync(spec, [first, second], [1, 0])
        assert built == [0]
        boundary, offsets, counts, targets, factors = stack.rows([0, 1])
        assert (boundary.tolist(), offsets.tolist(), counts.tolist()) == ([0, 7], [0, 1], [1, 1])
        assert (targets.tolist(), factors.tolist()) == ([2, 8], [9.0, 0.5])
        assert stack.initial[[2, 8]].tolist() == [spec.initial_message(2), spec.initial_message(8)]


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

    @pytest.mark.parametrize("algorithm", ["sssp", "pagerank", "php"])
    def test_member_deletions_match_the_oracle(self, algorithm):
        """Internal members deleted through ``apply_delta`` leave their
        subgraph before phase 4 assigns it, so the assignment reads and
        writes graph vertices only: both routes agree bitwise, and with a
        batch run over the updated graph."""
        spec = make_algorithm(algorithm, source=0)
        engines = {route: engine_on_route("layph", spec, route) for route in ROUTES}
        for engine in engines.values():
            engine.initialize(_community())
        layered = engines["declared"].layered
        tolerance = 1e-9 if spec.is_selective() else 1e-3
        for step in range(3):
            victims = [
                min(subgraph.internal - {0})
                for subgraph in layered.subgraphs[step::3]
                if subgraph.internal - {0}
            ]
            assert victims, "no internal member to delete"
            delta = GraphDelta()
            for vertex in victims:
                delta.delete_vertex(vertex)
            results = {route: engine.apply_delta(delta) for route, engine in engines.items()}
            oracle, declared = results["oracle"], results["declared"]
            assert {v: x.hex() for v, x in oracle.states.items()} == {
                v: x.hex() for v, x in declared.states.items()
            }, f"delta {step}"
            assert oracle.metrics.activations_per_round == declared.metrics.activations_per_round
            assert oracle.metrics.edge_activations == declared.metrics.edge_activations
            assert not set(victims) & set(declared.states)
            assert not any(set(victims) & subgraph.members for subgraph in layered.subgraphs)
            reference = run_batch(spec, engines["declared"].graph).states
            assert spec.states_match(declared.states, reference, tolerance=tolerance)
