"""Unit tests for the array propagation kernel.

Each case runs the kernel and the reference loop of the test oracles
(:mod:`oracles.loops`) on the same input.
"""

import pytest

from repro.engine.dense_propagation import classify_spec
from repro.engine.metrics import ExecutionMetrics
from repro.engine.algorithms import BFS, PHP, PageRank, SSSP
from repro.engine.propagation import (
    FactorAdjacency,
    NonConvergenceError,
    SilencedAdjacency,
    propagate,
)
from repro.engine.runner import run_batch
from repro.graph.graph import Graph

from oracles import loops, oracle_run_batch  # noqa: E402  (tests/)

#: the kernel and its reference loop
PROPAGATIONS = (loops.propagate, propagate)


class TestClassifySpec:
    def test_builtin_algorithms_classify(self):
        assert classify_spec(SSSP(source=0)) == ("min", "add")
        assert classify_spec(BFS(source=0)) == ("min", "add")
        assert classify_spec(PageRank()) == ("sum", "mul")
        assert classify_spec(PHP(source=0)) == ("sum", "mul")

    def test_delegating_wrapper_classifies(self):
        spec = SSSP(source=0)

        class Wrapper:
            def __getattr__(self, item):
                return getattr(spec, item)

        assert classify_spec(Wrapper()) == ("min", "add")


class TestFactorCSR:
    def test_from_graph_matches_factor_adjacency_compilation(self):
        from repro.graph.csr import FactorCSR

        graph = Graph.from_edges(
            [(0, 1, 2.0), (1, 2, 1.0), (0, 2, 5.0), (2, 3, 1.0), (3, 1, 1.0), (4, 0, 3.0)]
        )
        spec = PageRank()
        direct = FactorCSR.from_graph(spec, graph)
        via_adjacency = FactorCSR.from_factor_adjacency(
            FactorAdjacency.from_graph(spec, graph), universe=graph.vertices()
        )
        assert direct.vertex_ids == via_adjacency.vertex_ids
        assert direct.offsets.tolist() == via_adjacency.offsets.tolist()
        assert direct.targets.tolist() == via_adjacency.targets.tolist()
        assert direct.factors.tolist() == via_adjacency.factors.tolist()
        assert direct.num_vertices == graph.num_vertices()
        assert direct.num_edges == graph.num_edges()


class TestNumpyBackend:
    def test_plain_callable_adjacency_is_refused(self):
        # Only materialisable adjacencies compile to CSR; every library
        # caller passes one.
        with pytest.raises(TypeError, match="cannot compile"):
            propagate(SSSP(source=0), lambda v: [], {}, {0: 0.0})

    def test_matches_python_loop_on_fixed_graph(self):
        graph = Graph.from_edges(
            [(0, 1, 2.0), (1, 2, 1.0), (0, 2, 5.0), (2, 3, 1.0), (3, 1, 1.0)]
        )
        for spec_factory in (
            lambda: SSSP(source=0),
            lambda: BFS(source=0),
            lambda: PageRank(),
            lambda: PHP(source=0),
        ):
            py = oracle_run_batch(spec_factory(), graph)
            vec = run_batch(spec_factory(), graph)
            assert py.states == vec.states
            assert py.metrics.iterations == vec.metrics.iterations
            assert py.metrics.edge_activations == vec.metrics.edge_activations
            assert py.metrics.activations_per_round == vec.metrics.activations_per_round
            assert py.metrics.vertex_updates == vec.metrics.vertex_updates

    def test_silenced_adjacency_absorbs(self):
        base = FactorAdjacency({0: [(1, 1.0)], 1: [(2, 1.0)]})
        silenced = SilencedAdjacency(base, {1})
        for run in PROPAGATIONS:
            states = {}
            run(SSSP(source=0), silenced, states, {0: 0.0})
            # vertex 1 receives but never re-propagates, so 2 stays unreached
            assert states == {0: 0.0, 1: 1.0}

    def test_max_rounds_leaves_pending(self):
        adjacency = FactorAdjacency({0: [(1, 1.0)], 1: [(2, 1.0)]})
        for run in PROPAGATIONS:
            states = {}
            pending = {0: 0.0}
            metrics = ExecutionMetrics()
            run(SSSP(source=0), adjacency, states, pending, metrics, max_rounds=1)
            assert metrics.iterations == 1
            assert pending == {1: 1.0}
            assert states == {0: 0.0}

    def test_journal_holds_the_start_of_every_changed_state(self):
        # 3 is already at its best distance; 2 is absent from the states
        adjacency = FactorAdjacency({0: [(1, 1.0), (3, 5.0)], 1: [(2, 1.0), (3, 1.0)]})
        for run in PROPAGATIONS:
            states = {0: 4.0, 1: 9.0, 3: 2.0}
            journal = run(SSSP(source=0), adjacency, states, {0: 0.0})
            assert journal == {0: 4.0, 1: 9.0, 2: float("inf")}
            assert list(journal) == [0, 1, 2]
            assert states == {0: 0.0, 1: 1.0, 3: 2.0, 2: 2.0}
        # an accumulative state that returns to its start leaves no entry
        seesaw = FactorAdjacency({0: [(1, 1.0)], 1: [(0, -1.0)]})
        for run in PROPAGATIONS:
            states = {0: 1.0}
            journal = run(PageRank(), seesaw, states, {0: 0.5}, max_rounds=3)
            assert states == {0: 1.0, 1: 0.5}
            assert journal == {1: 0.0}

    def test_php_source_absorbs(self):
        graph = Graph.from_edges([(0, 1, 1.0), (1, 0, 1.0)])
        py = oracle_run_batch(PHP(source=0), graph)
        vec = run_batch(PHP(source=0), graph)
        assert py.states == vec.states
        assert py.metrics.edge_activations == vec.metrics.edge_activations


class TestLocalUploadNonConvergence:
    def test_raises_instead_of_returning_partial_results(self):
        from repro.layph.shortcuts import local_uploads

        class _Subgraph:
            index = 0
            boundary = frozenset()
            # A lossless 2-cycle: PageRank-style messages (factor 1.0) never
            # decay, so the upload loop can never converge.
            local_adjacency = FactorAdjacency({1: [(2, 1.0)], 2: [(1, 1.0)]})

        class _Converging:
            index = 1
            boundary = frozenset({4})
            local_adjacency = FactorAdjacency({3: [(4, 0.5)]})

        # the stuck upload raises through the batched call it shares
        work = {}
        with pytest.raises(NonConvergenceError, match="upload in subgraph 0 "):
            local_uploads(
                PageRank(),
                [(_Converging(), {3: 1.0}), (_Subgraph(), {1: 1.0})],
                work,
                ExecutionMetrics(),
            )
        assert work == {}, "a failed call writes no state back"


class TestRetiredBackendKeyword:
    """``backend=`` survives on ``run_batch`` and the engine constructors
    only so that older callers keep working: ``None`` and ``"numpy"`` change
    nothing, every other name is refused."""

    def test_numpy_and_none_change_nothing(self):
        graph = Graph.from_edges([(0, 1, 2.0), (1, 2, 1.0), (0, 2, 5.0)])
        plain = run_batch(SSSP(source=0), graph)
        for backend in (None, "numpy"):
            result = run_batch(SSSP(source=0), graph, backend=backend)
            assert result.states == plain.states
            assert result.metrics.edge_activations == plain.metrics.edge_activations

    @pytest.mark.parametrize("name", ["python", "numpy-parallel", "fortran"])
    def test_other_names_are_refused(self, name):
        from repro.incremental import GraphBoltEngine, IngressEngine, KickStarterEngine
        from repro.incremental import RestartEngine
        from repro.layph.engine import LayphEngine

        graph = Graph.from_edges([(0, 1, 2.0)])
        with pytest.raises(ValueError, match="removed"):
            run_batch(SSSP(source=0), graph, backend=name)
        for engine_class, spec in (
            (LayphEngine, SSSP(source=0)),
            (IngressEngine, SSSP(source=0)),
            (RestartEngine, SSSP(source=0)),
            (KickStarterEngine, SSSP(source=0)),
            (GraphBoltEngine, PageRank()),
        ):
            with pytest.raises(ValueError, match="removed"):
                engine_class(spec, backend=name)
            engine_class(spec)
