"""Unit tests for the dense memoized-iteration store (``repro.incremental.memo``).

The bitwise equivalence of the dense store against the oracle's dict store
over random delta sequences lives in ``tests/test_properties.py``
(``TestMemoStoreEquivalence``); this module covers the table mechanics —
amortized growth, NaN masking, index remapping on vertex deltas — plus the
engine-level lifecycle: the store built by ``initialize``, parity with the
oracle, and a NaN-weight delta refused without touching the store.
"""

import math

import numpy as np
import pytest

from repro.engine.algorithms import make_algorithm
from repro.engine.runner import run_batch
from repro.graph.delta import GraphDelta
from repro.graph.generators import community_graph, erdos_renyi_graph
from repro.incremental import make_engine
from repro.incremental.graphbolt import GraphBoltEngine
from repro.incremental.memo import MemoRow, MemoTable, refinement_preamble
from repro.workloads.updates import random_edge_delta

from oracles import oracle_engine  # noqa: E402  (tests/)


class TestMemoTable:
    def test_append_and_row_roundtrip(self):
        table = MemoTable([10, 20, 30])
        table.append(np.array([1.0, 2.0, 3.0]))
        table.append(np.array([4.0, 5.0, 6.0]))
        assert table.num_levels == 2
        assert table.num_vertices == 3
        assert table.row(0).tolist() == [1.0, 2.0, 3.0]
        assert table.row(-1).tolist() == [4.0, 5.0, 6.0]
        assert table.level_dict(1) == {10: 4.0, 20: 5.0, 30: 6.0}

    def test_appended_rows_are_copies(self):
        table = MemoTable([0, 1])
        values = np.array([1.0, 2.0])
        table.append(values)
        values[0] = 99.0
        assert table.row(0).tolist() == [1.0, 2.0]

    def test_amortized_doubling_growth(self):
        table = MemoTable([0], capacity=2)
        capacities = set()
        for level in range(40):
            table.append(np.array([float(level)]))
            capacities.add(table.capacity)
        assert table.num_levels == 40
        # Doubling growth: capacities are powers of two, at most ~2x levels.
        assert capacities == {2, 4, 8, 16, 32, 64}
        assert [table.row(i)[0] for i in range(40)] == [float(i) for i in range(40)]

    def test_append_copy_of(self):
        table = MemoTable([0, 1])
        table.append(np.array([1.0, 2.0]))
        table.append_copy_of(0)
        table.row(1)[0] = 7.0
        # The copy is independent of the source level.
        assert table.row(0).tolist() == [1.0, 2.0]
        assert table.row(1).tolist() == [7.0, 2.0]

    def test_level_dict_skips_nan_columns(self):
        table = MemoTable([0, 1, 2])
        table.append(np.array([1.0, math.nan, 3.0]))
        assert table.level_dict(0) == {0: 1.0, 2: 3.0}
        assert table.to_dicts() == [{0: 1.0, 2: 3.0}]

    def test_copy_is_independent_snapshot(self):
        table = MemoTable([0, 1])
        table.append(np.array([1.0, 2.0]))
        snapshot = table.copy()
        table.row(0)[0] = -1.0
        table.append(np.array([3.0, 4.0]))
        assert snapshot.num_levels == 1
        assert snapshot.row(0).tolist() == [1.0, 2.0]

    def test_remap_gathers_fills_and_drops(self):
        table = MemoTable([0, 1, 2])
        table.append(np.array([1.0, 2.0, 3.0]))
        table.append(np.array([4.0, 5.0, 6.0]))
        # Delta removes vertex 1 and adds vertex 5.
        new_ids = [0, 2, 5]
        new_index = {0: 0, 2: 1, 5: 2}
        table.remap(new_ids, new_index, fill={5: 0.15}, graph_version=17)
        assert table.vertex_ids == new_ids
        assert table.graph_version == 17
        assert table.level_dict(0) == {0: 1.0, 2: 3.0, 5: 0.15}
        assert table.level_dict(1) == {0: 4.0, 2: 6.0, 5: 0.15}
        assert table.matches_ids(new_ids)
        assert not table.matches_ids([0, 1, 2])

    def test_remap_unfilled_new_column_stays_absent(self):
        table = MemoTable([0])
        table.append(np.array([1.0]))
        table.remap([0, 9], {0: 0, 9: 1}, fill={})
        assert table.level_dict(0) == {0: 1.0}
        assert 9 not in table.row_view(0)

    def test_row_out_of_range_raises(self):
        table = MemoTable([0])
        with pytest.raises(IndexError):
            table.row(0)


class TestMemoRow:
    def test_get_set_contains_with_nan_mask(self):
        values = np.array([1.5, math.nan])
        row = MemoRow(values, {7: 0, 8: 1})
        assert row.get(7) == 1.5
        assert row.get(8) is None
        assert row.get(8, 0.25) == 0.25
        assert row.get(9, -1.0) == -1.0
        assert 7 in row and 8 not in row and 9 not in row
        row[8] = 2.5
        assert row.get(8) == 2.5
        assert values[1] == 2.5


class TestRefinementPreamble:
    """The dense-refinement preamble is one shared helper, not two copies."""

    def test_out_csr_and_dirty_mask(self):
        graph = erdos_renyi_graph(12, 30, weighted=True, seed=5)
        spec = make_algorithm("pagerank")
        engine = make_engine("graphbolt", spec)
        engine.initialize(graph.copy())
        csr = engine.csr_cache.in_csr(spec, engine.graph)
        dirty = set(list(csr.vertex_ids)[:3])
        out_csr, dirty_mask = refinement_preamble(
            engine.csr_cache, spec, engine.graph, csr, dirty
        )
        reference_out = engine.csr_cache.out_csr(spec, engine.graph)
        assert out_csr is reference_out
        assert dirty_mask.dtype == bool and dirty_mask.shape == (csr.num_vertices,)
        assert {csr.vertex_ids[i] for i in np.nonzero(dirty_mask)[0]} == dirty
        _out, empty_mask = refinement_preamble(
            engine.csr_cache, spec, engine.graph, csr, set()
        )
        assert not empty_mask.any()

    @pytest.mark.parametrize("engine_name", ["graphbolt", "dzig"])
    def test_both_engines_route_through_helper(self, engine_name, monkeypatch):
        import repro.incremental.dzig as dzig_module
        import repro.incremental.graphbolt as graphbolt_module

        calls = []

        def spy(csr_cache, spec, graph, csr, structurally_dirty):
            calls.append(engine_name)
            return refinement_preamble(csr_cache, spec, graph, csr, structurally_dirty)

        monkeypatch.setattr(graphbolt_module, "refinement_preamble", spy)
        monkeypatch.setattr(dzig_module, "refinement_preamble", spy)

        graph = erdos_renyi_graph(40, 160, weighted=True, seed=2)
        engine = make_engine(engine_name, make_algorithm("pagerank"))
        engine.initialize(graph.copy())
        assert engine.memo is not None
        engine.apply_delta(random_edge_delta(graph, 3, 3, seed=9, protect=0))
        assert calls, f"{engine_name} did not use the shared preamble helper"


class TestEngineLifecycle:
    @pytest.fixture()
    def graph(self):
        return erdos_renyi_graph(40, 160, weighted=True, seed=2)

    @pytest.mark.parametrize("engine_name", ["graphbolt", "dzig"])
    def test_dense_store_active_for_declared_algebra(self, graph, engine_name):
        engine = make_engine(engine_name, make_algorithm("pagerank"))
        engine.initialize(graph.copy())
        assert engine.memo is not None
        assert engine.memo.graph_version == engine.graph.version
        assert engine.memo.num_levels == len(engine.iterations)

    @pytest.mark.parametrize("engine_name", ["graphbolt", "dzig"])
    def test_dict_store_matches_dense_bitwise(self, graph, engine_name):
        deltas = []
        current = graph
        for seed in (1, 2, 3):
            delta = random_edge_delta(current, 4, 4, seed=seed, protect=0)
            deltas.append(delta)
            current = delta.apply(current)

        def run(engine):
            initial = engine.initialize(graph.copy())
            return engine, initial, [engine.apply_delta(delta) for delta in deltas]

        spec = make_algorithm("pagerank")
        dense_engine, dense_init, dense_results = run(make_engine(engine_name, spec))
        dict_engine, dict_init, dict_results = run(oracle_engine(engine_name, spec))
        assert dense_init.states == dict_init.states
        for dense_result, dict_result in zip(dense_results, dict_results):
            assert dense_result.states == dict_result.states
            assert (
                dense_result.metrics.activations_per_round
                == dict_result.metrics.activations_per_round
            )
            assert (
                dense_result.metrics.active_vertices_per_round
                == dict_result.metrics.active_vertices_per_round
            )
        assert dense_engine.iterations == dict_engine.iterations

    def test_dzig_pulls_a_fresh_vertex_inside_a_sparse_round(self, monkeypatch):
        # a new vertex wired 0 -> n -> 1 makes DZiG pull n in its sparse
        # rounds (GraphBolt's fresh-vertex pull); the result must equal the
        # oracle's bit for bit and the batch run within tolerance
        graph = community_graph(
            num_communities=8,
            community_size_range=(40, 50),
            intra_edge_probability=0.1,
            inter_edges_per_community=4,
            seed=3,
        )
        fresh = max(graph.vertices()) + 1
        delta = GraphDelta()
        delta.add_vertex(fresh)
        delta.add_edge(0, fresh)
        delta.add_edge(fresh, 1)
        pulls = []
        pull = GraphBoltEngine._pull_frontier_memo

        def spy(self, csr, memo, iteration, vertices, *args):
            pulls.append(set(vertices))
            return pull(self, csr, memo, iteration, vertices, *args)

        monkeypatch.setattr(GraphBoltEngine, "_pull_frontier_memo", spy)
        spec = make_algorithm("pagerank")
        engine = make_engine("dzig", spec)
        engine.initialize(graph.copy())
        result = engine.apply_delta(delta)
        assert pulls and all(vertices == {fresh} for vertices in pulls)

        oracle = oracle_engine("dzig", spec)
        oracle.initialize(graph.copy())
        expected = oracle.apply_delta(delta)
        def bits(states):
            return {vertex: float(value).hex() for vertex, value in states.items()}

        assert bits(result.states) == bits(expected.states)
        batch = run_batch(spec, engine.graph).states
        assert spec.states_match(result.states, batch, tolerance=1e-3)

    @pytest.mark.parametrize("engine_name", ["graphbolt", "dzig"])
    def test_nan_weight_delta_is_rejected(self, graph, engine_name):
        engine = make_engine(engine_name, make_algorithm("pagerank"))
        engine.initialize(graph.copy())
        before = (engine.graph, dict(engine.states), engine.iterations)

        source = next(iter(graph.vertices()))
        target = next(t for t in graph.out_neighbors(source))
        delta = GraphDelta()
        delta.add_edge(source, target, math.nan)
        with pytest.raises(ValueError, match="non-finite weight"):
            engine.apply_delta(delta)
        assert engine.graph is before[0]
        assert engine.states == before[1]
        assert engine.iterations == before[2]
