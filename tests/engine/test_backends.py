"""Unit tests for the propagation backend registry and the numpy backend."""

import math

import pytest

from repro.engine.backends import (
    BACKEND_ENV_VAR,
    available_backends,
    get_backend,
    resolve_backend,
)
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


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert available_backends() == ["numpy", "python"]

    def test_explicit_name_wins(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        assert resolve_backend("python") == "python"

    def test_env_var_fallback(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        assert resolve_backend(None) == "numpy"

    def test_default_is_python(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert resolve_backend(None) == "python"

    @pytest.mark.parametrize("name", ["fortran", "numpy-parallel"])
    def test_unknown_backend_raises(self, name):
        with pytest.raises(ValueError):
            resolve_backend(name)

    def test_names_are_case_insensitive(self):
        assert resolve_backend("NumPy") == "numpy"

    def test_python_backend_has_no_indirection(self):
        assert get_backend("python") is None
        assert callable(get_backend("numpy"))


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
        # declaration the vectorized backend never runs them, even when the
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
            backend="numpy",
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
            py = run_batch(spec_factory(), graph, backend="python")
            vec = run_batch(spec_factory(), graph, backend="numpy")
            assert py.states == vec.states
            assert py.metrics.iterations == vec.metrics.iterations
            assert py.metrics.edge_activations == vec.metrics.edge_activations
            assert py.metrics.activations_per_round == vec.metrics.activations_per_round
            assert py.metrics.vertex_updates == vec.metrics.vertex_updates

    def test_silenced_adjacency_absorbs(self):
        base = FactorAdjacency({0: [(1, 1.0)], 1: [(2, 1.0)]})
        silenced = SilencedAdjacency(base, {1})
        for backend in ("python", "numpy"):
            states = {}
            propagate(SSSP(source=0), silenced, states, {0: 0.0}, backend=backend)
            # vertex 1 receives but never re-propagates, so 2 stays unreached
            assert states == {0: 0.0, 1: 1.0}

    def test_max_rounds_leaves_pending(self):
        adjacency = FactorAdjacency({0: [(1, 1.0)], 1: [(2, 1.0)]})
        for backend in ("python", "numpy"):
            states = {}
            pending = {0: 0.0}
            metrics = ExecutionMetrics()
            propagate(
                SSSP(source=0),
                adjacency,
                states,
                pending,
                metrics,
                max_rounds=1,
                backend=backend,
            )
            assert metrics.iterations == 1
            assert pending == {1: 1.0}
            assert states == {0: 0.0}

    def test_allowed_targets_filters_but_counts_activations(self):
        adjacency = FactorAdjacency({0: [(1, 1.0), (2, 1.0)]})
        for backend in ("python", "numpy"):
            states = {}
            metrics = ExecutionMetrics()
            propagate(
                SSSP(source=0),
                adjacency,
                states,
                {0: 0.0},
                metrics,
                allowed_targets=lambda v: v != 2,
                backend=backend,
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
        for backend in ("python", "numpy"):
            states = {}
            propagate(SSSP(source=0), adjacency, states, {0: 0.0}, backend=backend)
            assert states[0] == 0.0 and states[2] == 1.0

    def test_php_source_absorbs(self):
        graph = Graph.from_edges([(0, 1, 1.0), (1, 0, 1.0)])
        py = run_batch(PHP(source=0), graph, backend="python")
        vec = run_batch(PHP(source=0), graph, backend="numpy")
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
