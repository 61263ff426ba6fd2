"""The lockstep multi-source shortcut kernel against the per-source reference.

Under a numpy backend all from-scratch shortcut solves of one subgraph run
in a single :func:`repro.parallel.slabs.run_shortcut_solves` call.  Every
vector it produces must equal the Python-backend reference
(:func:`repro.layph.shortcuts.compute_shortcuts_from` per source): the same
values and the same recorded work.  Key order is the one the reference's
two ``propagate`` calls leave on the numpy backend — rows touched in round 0
(the source) first, then the rest ascending — which differs from the Python
loop's first-touch order, so it is checked against that numpy reference.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine.algorithms import PHP, SSSP, PageRank, make_algorithm
from repro.engine.dense_propagation import classify_spec
from repro.engine.metrics import ExecutionMetrics
from repro.engine.propagation import FactorAdjacency
from repro.graph.generators import community_graph
from repro.layph import shortcuts as shortcuts_module
from repro.layph.layered_graph import LayeredGraph, LayphConfig
from repro.layph.shortcuts import (
    _propagate_shortcuts,
    compute_all_shortcuts,
    compute_shortcut_vectors,
    compute_shortcuts_from,
    prepare_shortcut_solves,
)

ALGORITHMS = ["sssp", "bfs", "pagerank", "php"]


def _totals(metrics: ExecutionMetrics):
    return metrics.edge_activations, metrics.vertex_updates, metrics.iterations


def _bits(vector):
    """Key order and exact bits of one vector (NaN-safe)."""
    return [(vertex, float(value).hex()) for vertex, value in vector.items()]


def assert_batch_matches_reference(spec, local, sources, boundary):
    """One batched call == per-source python reference (values, metrics)
    and == the numpy two-propagate reference (key order, bits)."""
    batched_metrics = ExecutionMetrics()
    batched = compute_shortcut_vectors(
        spec, local, sources, boundary, batched_metrics, backend="numpy"
    )
    python_metrics = ExecutionMetrics()
    python = [
        compute_shortcuts_from(spec, local, source, boundary, python_metrics, backend="python")
        for source in sources
    ]
    ordered = [
        _propagate_shortcuts(spec, local, source, boundary, backend="numpy")
        for source in sources
    ]
    assert len(batched) == len(sources)
    for source, got, want, order in zip(sources, batched, python, ordered):
        assert dict(_bits(got)) == dict(_bits(want)), f"values differ for source {source}"
        assert _bits(got) == _bits(order), f"key order differs for source {source}"
    assert _totals(batched_metrics) == _totals(python_metrics)
    return batched


# ----------------------------------------------------------------------
# the property: community-graph subgraphs, all four algorithms
# ----------------------------------------------------------------------
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_batched_boundary_solve_equals_per_source_reference(algorithm, seed):
    graph = community_graph(
        num_communities=3,
        community_size_range=(10, 16),
        intra_edge_probability=0.35,
        inter_edges_per_community=3,
        weighted=True,
        seed=seed,
    )
    spec = make_algorithm(algorithm, source=0)
    layered = LayeredGraph.build(spec, graph, LayphConfig(seed=seed, backend="python"))
    for subgraph in layered.subgraphs:
        sources = sorted(subgraph.boundary)
        batched = assert_batch_matches_reference(
            spec, subgraph.local_adjacency, sources, subgraph.boundary
        )
        # the Python-backend build holds the reference tables
        for source, vector in zip(sources, batched):
            assert vector == subgraph.shortcuts[source]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_numpy_build_matches_python_build(algorithm):
    """The offline build runs one batch per subgraph: same tables (values),
    same construction totals as the per-source Python build."""
    graph = community_graph(
        num_communities=4,
        community_size_range=(14, 20),
        intra_edge_probability=0.3,
        inter_edges_per_community=3,
        weighted=True,
        seed=5,
    )
    spec = make_algorithm(algorithm, source=0)
    python = LayeredGraph.build(spec, graph, LayphConfig(seed=2, backend="python"))
    numpy = LayeredGraph.build(spec, graph, LayphConfig(seed=2, backend="numpy"))
    assert numpy.subgraphs, "the graph formed no dense subgraph"
    for ours, reference in zip(numpy.subgraphs, python.subgraphs):
        assert list(ours.shortcuts) == list(reference.shortcuts)
        assert ours.shortcuts == reference.shortcuts
    assert _totals(numpy.construction_metrics) == _totals(python.construction_metrics)


# ----------------------------------------------------------------------
# the edge cases
# ----------------------------------------------------------------------
def _cyclic_local():
    # 0 and 3 are boundary; 1 and 2 form internal cycles back to both
    return FactorAdjacency(
        {
            0: [(1, 0.5), (2, 0.25)],
            1: [(2, 0.5), (0, 0.25)],
            2: [(1, 0.5), (3, 0.25), (0, 0.125)],
            3: [(2, 0.5)],
        }
    )


@pytest.mark.parametrize("spec", [PageRank(damping=0.5), PHP(source=99)])
def test_internal_cycles_keep_the_source_surplus(spec):
    local = _cyclic_local()
    batched = assert_batch_matches_reference(spec, local, [0, 3], {0, 3})
    # mass returns to each source through the internal cycles: the self
    # entry carries only that surplus, never the injected unit
    assert 0 < batched[0][0] < 1.0
    assert 0 < batched[1][3] < 1.0
    assert list(batched[0])[0] == 0, "the round-0 row leads the insertion order"


def test_absorbing_rooted_source_inside_the_subgraph():
    """PHP absorbs its source: an internal source drops every message."""
    spec = PHP(source=2)
    batched = assert_batch_matches_reference(spec, _cyclic_local(), [0, 3], {0, 3})
    assert 2 not in batched[0] and 2 not in batched[1]


def test_single_internal_source():
    """The selective engine folds internal-only paths from an internal
    source (it is silenced after its one emission like a boundary vertex)."""
    spec = SSSP(source=1)
    local = FactorAdjacency(
        {1: [(2, 1.0), (0, 5.0)], 2: [(1, 1.0), (3, 1.0)], 0: [(2, 1.0)]}
    )
    batched = assert_batch_matches_reference(spec, local, [1], {0, 3})
    assert batched[0] == {2: 1.0, 0: 5.0, 3: 2.0}


def test_multiple_sources_must_be_boundary():
    with pytest.raises(ValueError):
        compute_shortcut_vectors(
            SSSP(source=0), _cyclic_local(), [0, 1], {0, 3}, backend="numpy"
        )


@pytest.mark.parametrize("spec", [SSSP(source=0), PageRank(damping=0.5)])
def test_source_with_an_empty_row(spec):
    """Boundary vertex 4 has no local out-links: one empty round 0."""
    local = _cyclic_local()
    metrics = ExecutionMetrics()
    vectors = compute_shortcut_vectors(spec, local, [4], {0, 3, 4}, metrics, backend="numpy")
    assert vectors == [{}]
    assert (metrics.edge_activations, metrics.vertex_updates, metrics.iterations) == (0, 1, 1)
    assert_batch_matches_reference(spec, local, [0, 3, 4], {0, 3, 4})


class _AdditiveSum(PageRank):
    """A ``(sum, add)`` algebra: the unit 0 is insignificant, so no solve
    ever runs its first round (``run_first`` false)."""

    name = "additive-sum"
    dense_algebra = ("sum", "add")

    def combine(self, message: float, factor: float) -> float:
        return message + factor

    def combine_identity(self) -> float:
        return 0.0


def test_insignificant_unit_skips_the_first_round():
    spec = _AdditiveSum()
    assert classify_spec(spec) is not None, "the kernel must handle this algebra"
    solves = prepare_shortcut_solves(spec, _cyclic_local(), [0, 3], {0, 3})
    assert solves.scalars["run_first"] is False
    batched = assert_batch_matches_reference(spec, _cyclic_local(), [0, 3], {0, 3})
    assert batched == [{}, {}]


def test_nan_factor_takes_the_reference_fallback(monkeypatch):
    local = _cyclic_local()
    local.add(1, 3, math.nan)
    spec = SSSP(source=0)
    assert prepare_shortcut_solves(spec, local, [0, 3], {0, 3}) is None

    def fail(**_kwargs):
        raise AssertionError("NaN factors must not reach the kernel")

    monkeypatch.setattr(shortcuts_module, "run_shortcut_solves", fail)
    assert_batch_matches_reference(spec, local, [0, 3], {0, 3})


def test_compute_all_shortcuts_is_one_kernel_call(monkeypatch):
    calls = []
    original = shortcuts_module.run_shortcut_solves

    def record(**kwargs):
        calls.append(int(kwargs["source_rows"].size))
        return original(**kwargs)

    monkeypatch.setattr(shortcuts_module, "run_shortcut_solves", record)
    spec = PageRank(damping=0.5)
    batched = compute_all_shortcuts(spec, _cyclic_local(), {0, 3}, backend="numpy")
    assert calls == [2]
    python = compute_all_shortcuts(spec, _cyclic_local(), {0, 3}, backend="python")
    assert batched == python
