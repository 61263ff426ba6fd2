"""The algebra contract, enforced at the engines' boundary.

Every engine runs one delta-accumulative algebra: ``("min", "add")`` for
selective specs or ``("sum", "mul")`` for accumulative ones, with the
standard significance rule and negation.  Engine construction and
``run_batch`` check a spec once and raise for anything else; ``initialize``
rejects non-finite weights and NaN initial values, ``apply_delta`` rejects a
delta with non-finite weights, and a rejected call leaves the engine as it
was.
"""

from __future__ import annotations

import math

import pytest

from repro.engine.algorithms import PageRank, SSSP, make_algorithm
from repro.engine.dense_propagation import classify_spec
from repro.engine.runner import run_batch
from repro.graph.delta import GraphDelta
from repro.graph.generators import community_graph
from repro.graph.graph import Graph
from repro.incremental import make_engine
from repro.workloads.updates import random_edge_delta

ENGINES = ("restart", "kickstarter", "risgraph", "graphbolt", "dzig", "ingress", "layph")


class MaxSpec(SSSP):
    def aggregate(self, left, right):
        return max(left, right)


class WeirdCombine(SSSP):
    def combine(self, message, factor):
        return message - factor


class MislabeledSSSP(SSSP):
    dense_algebra = ("sum", "mul")


class TrimmedSignificance(SSSP):
    # agrees with the default on every probed value, diverges elsewhere
    def is_significant(self, message):
        return message != self.aggregate_identity() and message < 100.0


class UndeclaredSSSP(SSSP):
    dense_algebra = None


class UndeclaredPageRank(PageRank):
    dense_algebra = None


class AdditiveSum(PageRank):
    """A ``(sum, add)`` algebra: probes clean, but outside the contract."""

    dense_algebra = ("sum", "add")

    def combine(self, message, factor):
        return message + factor

    def combine_identity(self):
        return 0.0


class CustomNegate(PageRank):
    def negate(self, message):
        return -2.0 * message


DEVIATING = (
    MaxSpec,
    WeirdCombine,
    MislabeledSSSP,
    TrimmedSignificance,
    UndeclaredSSSP,
    UndeclaredPageRank,
    AdditiveSum,
    CustomNegate,
)


def _construct(target, spec):
    if target == "run_batch":
        run_batch(spec, Graph.from_edges([(0, 1, 1.0)]))
    else:
        make_engine(target, spec)


@pytest.mark.parametrize("spec_class", DEVIATING, ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("target", ENGINES + ("run_batch",))
def test_deviating_spec_raises_at_construction(target, spec_class):
    with pytest.raises(ValueError, match=r"\('min', 'add'\).*\('sum', 'mul'\)"):
        _construct(target, spec_class())


@pytest.mark.parametrize("spec_class", DEVIATING, ids=lambda cls: cls.__name__)
def test_classify_spec_refuses_all_but_the_negate_override(spec_class):
    expected = ("sum", "mul") if spec_class is CustomNegate else None
    assert classify_spec(spec_class()) == expected


def test_the_contract_runs_the_probes_once_per_engine(monkeypatch):
    from repro.engine import dense_propagation

    calls = []
    probe = dense_propagation.classify_spec
    monkeypatch.setattr(
        dense_propagation, "classify_spec", lambda spec: calls.append(spec) or probe(spec)
    )
    for name in ENGINES:
        calls.clear()
        make_engine(name, make_algorithm("pagerank" if name in ("graphbolt", "dzig") else "sssp"))
        assert len(calls) == 1, name


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def _graph():
    return community_graph(
        num_communities=3,
        community_size_range=(8, 12),
        intra_edge_probability=0.3,
        inter_edges_per_community=2,
        weighted=True,
        seed=5,
    )


def _algorithm(engine_name):
    return "pagerank" if engine_name in ("graphbolt", "dzig") else "sssp"


def _snapshot(engine):
    graph = engine.graph
    edges = None if graph is None else sorted(graph.edges())
    return graph, edges, {v: float(x).hex() for v, x in engine.states.items()}


@pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("engine_name", ENGINES)
def test_initialize_rejects_non_finite_weights(engine_name, weight):
    engine = make_engine(engine_name, make_algorithm(_algorithm(engine_name), source=0))
    graph = _graph()
    graph.add_edge(0, 1, weight)
    with pytest.raises(ValueError, match="non-finite edge weight"):
        engine.initialize(graph)
    assert engine.graph is None and engine.states == {}


class _NaNRootSSSP(SSSP):
    def initial_message(self, vertex):
        return math.nan if vertex == 3 else super().initial_message(vertex)


class _NaNStatePageRank(PageRank):
    def initial_state(self, vertex):
        return math.nan if vertex == 3 else super().initial_state(vertex)


@pytest.mark.parametrize(
    "engine_name, spec_class",
    [("ingress", _NaNRootSSSP), ("layph", _NaNRootSSSP), ("graphbolt", _NaNStatePageRank)],
)
def test_initialize_rejects_nan_initial_values(engine_name, spec_class):
    engine = make_engine(engine_name, spec_class())
    with pytest.raises(ValueError, match="NaN initial value"):
        engine.initialize(_graph())
    assert engine.graph is None and engine.states == {}


def test_unreachable_vertices_initialise_at_infinity():
    graph = _graph()
    graph.add_edge(900, 901, 1.0)  # a component the source cannot reach
    for name in ("kickstarter", "risgraph", "ingress", "layph"):
        engine = make_engine(name, SSSP(source=0))
        engine.initialize(graph)
        assert engine.states[900] == math.inf and engine.states[901] == math.inf
        engine.apply_delta(random_edge_delta(engine.graph, 2, 2, seed=1, protect=0))
        expected = run_batch(SSSP(source=0), engine.graph).states
        assert SSSP(source=0).states_match(engine.states, expected), name


@pytest.mark.parametrize("weight", [math.nan, math.inf])
@pytest.mark.parametrize("engine_name", ENGINES)
def test_apply_delta_rejects_non_finite_weights_and_changes_nothing(engine_name, weight):
    engine = make_engine(engine_name, make_algorithm(_algorithm(engine_name), source=0))
    engine.initialize(_graph())
    engine.apply_delta(random_edge_delta(engine.graph, 2, 2, seed=2, protect=0))
    before = _snapshot(engine)
    poison = GraphDelta()
    poison.add_edge(1, 2, 3.0)
    poison.add_edge(2, 0, weight)
    with pytest.raises(ValueError, match="non-finite weight"):
        engine.apply_delta(poison)
    after = _snapshot(engine)
    assert after[0] is before[0] and after[1:] == before[1:]
    # and the engine carries on exactly as if the delta had never come
    delta = random_edge_delta(engine.graph, 3, 2, seed=3, protect=0)
    twin = make_engine(engine_name, make_algorithm(_algorithm(engine_name), source=0))
    twin.initialize(_graph())
    twin.apply_delta(random_edge_delta(twin.graph, 2, 2, seed=2, protect=0))
    assert engine.apply_delta(delta).states == twin.apply_delta(delta).states
