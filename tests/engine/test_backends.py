"""Unit tests for the array propagation kernel and its reference fallback.

Each path runs the same algorithm twice: as declared (the array kernel) and
as its undeclared clone (the reference loop, see :mod:`undeclared`).
"""

import math

import pytest

from repro.engine.dense_propagation import classify_spec, propagate_numpy
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

from undeclared import undeclared  # noqa: E402  (tests/)


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

    def test_exotic_algebra_rejected(self):
        class MaxSpec(SSSP):
            def aggregate(self, left, right):
                return max(left, right)

        assert classify_spec(MaxSpec()) is None

    def test_exotic_combine_rejected(self):
        class WeirdCombine(SSSP):
            def combine(self, message, factor):
                return message - factor

        assert classify_spec(WeirdCombine()) is None

    def test_undeclared_spec_rejected(self):
        # Custom specs must opt in via ``dense_algebra``; without the
        # declaration the array kernels never run them, even when the
        # operators would probe as standard.
        from repro.engine.algorithm import AlgorithmSpec

        class UndeclaredSSSP(SSSP):
            dense_algebra = None

        assert AlgorithmSpec.dense_algebra is None
        assert classify_spec(UndeclaredSSSP()) is None

    def test_wrong_declaration_rejected(self):
        class MislabeledSSSP(SSSP):
            dense_algebra = ("sum", "mul")

        assert classify_spec(MislabeledSSSP()) is None

    def test_custom_significance_rejected(self):
        # A custom rule can agree with the default on every probed value and
        # still diverge elsewhere, so any override must force the fallback.
        class TrimmedSignificance(SSSP):
            def is_significant(self, message):
                return message != self.aggregate_identity() and message < 100.0

        assert classify_spec(TrimmedSignificance()) is None


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
    def test_unsupported_spec_returns_none_and_mutates_nothing(self):
        class MaxSpec(SSSP):
            def aggregate(self, left, right):
                return max(left, right)

        states = {0: 1.0}
        pending = {1: 2.0}
        metrics = ExecutionMetrics()
        result = propagate_numpy(
            MaxSpec(), FactorAdjacency({0: [(1, 1.0)]}), states, pending, metrics
        )
        assert result is None
        assert states == {0: 1.0}
        assert pending == {1: 2.0}
        assert metrics.iterations == 0

    def test_unsupported_adjacency_returns_none(self):
        result = propagate_numpy(SSSP(source=0), lambda v: [], {}, {0: 0.0})
        assert result is None

    def test_propagate_falls_back_for_plain_callables(self):
        # A bare callable adjacency cannot be compiled to CSR; the dispatcher
        # must silently run the Python loop instead.
        states = {}
        propagate(
            SSSP(source=0),
            lambda v: [(v + 1, 1.0)] if v < 3 else [],
            states,
            {0: 0.0},
        )
        assert states == {0: 0.0, 1: 1.0, 2: 2.0, 3: 3.0}

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
            py = run_batch(undeclared(spec_factory()), graph)
            vec = run_batch(spec_factory(), graph)
            assert py.states == vec.states
            assert py.metrics.iterations == vec.metrics.iterations
            assert py.metrics.edge_activations == vec.metrics.edge_activations
            assert py.metrics.activations_per_round == vec.metrics.activations_per_round
            assert py.metrics.vertex_updates == vec.metrics.vertex_updates

    def test_silenced_adjacency_absorbs(self):
        base = FactorAdjacency({0: [(1, 1.0)], 1: [(2, 1.0)]})
        silenced = SilencedAdjacency(base, {1})
        for spec in (undeclared(SSSP(source=0)), SSSP(source=0)):
            states = {}
            propagate(spec, silenced, states, {0: 0.0})
            # vertex 1 receives but never re-propagates, so 2 stays unreached
            assert states == {0: 0.0, 1: 1.0}

    def test_max_rounds_leaves_pending(self):
        adjacency = FactorAdjacency({0: [(1, 1.0)], 1: [(2, 1.0)]})
        for spec in (undeclared(SSSP(source=0)), SSSP(source=0)):
            states = {}
            pending = {0: 0.0}
            metrics = ExecutionMetrics()
            propagate(spec, adjacency, states, pending, metrics, max_rounds=1)
            assert metrics.iterations == 1
            assert pending == {1: 1.0}
            assert states == {0: 0.0}

    def test_allowed_targets_filters_but_counts_activations(self):
        adjacency = FactorAdjacency({0: [(1, 1.0), (2, 1.0)]})
        for spec in (undeclared(SSSP(source=0)), SSSP(source=0)):
            states = {}
            metrics = ExecutionMetrics()
            propagate(
                spec,
                adjacency,
                states,
                {0: 0.0},
                metrics,
                allowed_targets=lambda v: v != 2,
            )
            assert states == {0: 0.0, 1: 1.0}
            assert metrics.edge_activations == 2

    def test_nan_inputs_fall_back_to_python_loop(self):
        # np.minimum propagates NaN where Python's branchy min keeps the
        # non-NaN operand, so NaN-carrying inputs must not run vectorized.
        nan = math.nan
        adjacency = FactorAdjacency({0: [(1, nan), (2, 1.0)]})
        assert propagate_numpy(SSSP(source=0), adjacency, {}, {0: 0.0}) is None
        clean = FactorAdjacency({0: [(1, 1.0)]})
        assert propagate_numpy(SSSP(source=0), clean, {1: nan}, {0: 0.0}) is None
        assert propagate_numpy(SSSP(source=0), clean, {}, {0: nan}) is None
        # The dispatcher still produces the Python loop's answer.
        for spec in (undeclared(SSSP(source=0)), SSSP(source=0)):
            states = {}
            propagate(spec, adjacency, states, {0: 0.0})
            assert states[0] == 0.0 and states[2] == 1.0

    def test_php_source_absorbs(self):
        graph = Graph.from_edges([(0, 1, 1.0), (1, 0, 1.0)])
        py = run_batch(undeclared(PHP(source=0)), graph)
        vec = run_batch(PHP(source=0), graph)
        assert py.states == vec.states
        assert py.metrics.edge_activations == vec.metrics.edge_activations


class TestLocalUploadNonConvergence:
    def test_raises_instead_of_returning_partial_results(self):
        from repro.layph.engine import LayphEngine

        class _Subgraph:
            index = 0
            boundary = frozenset()
            # A lossless 2-cycle: PageRank-style messages (factor 1.0) never
            # decay, so the upload loop can never converge.
            local_adjacency = FactorAdjacency({1: [(2, 1.0)], 2: [(1, 1.0)]})

        engine = LayphEngine(PageRank())
        with pytest.raises(NonConvergenceError):
            engine._local_upload(
                _Subgraph(), {}, {1: 1.0}, ExecutionMetrics()
            )


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
