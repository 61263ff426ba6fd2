"""Unit tests for the algorithm specifications and the batch runner."""

import math

import pytest

from repro.engine.algorithms import BFS, PHP, PageRank, SSSP, make_algorithm
from repro.engine.runner import run_batch
from repro.graph.graph import Graph


class TestSSSP:
    def test_simple_path(self):
        graph = Graph.from_edges([(0, 1, 2.0), (1, 2, 3.0)])
        result = run_batch(SSSP(source=0), graph)
        assert result.states == {0: 0.0, 1: 2.0, 2: 5.0}

    def test_chooses_shorter_path(self, small_weighted_graph):
        result = run_batch(SSSP(source=0), small_weighted_graph)
        # 0->1 (2), 0->1->2 (3), 0->1->2->3 (5), 0->1->2->3->4 (6)
        assert result.states[1] == 2.0
        assert result.states[2] == 3.0
        assert result.states[3] == 5.0
        assert result.states[4] == 6.0

    def test_unreachable_vertex_stays_infinite(self):
        graph = Graph.from_edges([(0, 1, 1.0)])
        graph.add_vertex(7)
        result = run_batch(SSSP(source=0), graph)
        assert math.isinf(result.states[7])

    def test_cycle_does_not_loop_forever(self):
        graph = Graph.from_edges([(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
        result = run_batch(SSSP(source=0), graph)
        assert result.states == {0: 0.0, 1: 1.0, 2: 2.0}

    def test_source_not_zero(self):
        graph = Graph.from_edges([(5, 6, 1.5), (6, 7, 2.5)])
        result = run_batch(SSSP(source=5), graph)
        assert result.states[7] == 4.0

    def test_spec_properties(self):
        spec = SSSP(source=0)
        assert spec.is_selective()
        assert not spec.is_invertible()
        assert spec.aggregate(3.0, 5.0) == 3.0
        assert spec.combine(2.0, 3.0) == 5.0
        assert spec.combine_identity() == 0.0
        assert math.isinf(spec.aggregate_identity())
        with pytest.raises(NotImplementedError):
            spec.negate(1.0)


class TestBFS:
    def test_hop_counts_ignore_weights(self):
        graph = Graph.from_edges([(0, 1, 100.0), (1, 2, 100.0), (0, 2, 500.0)])
        result = run_batch(BFS(source=0), graph)
        assert result.states == {0: 0.0, 1: 1.0, 2: 1.0}

    def test_edge_factor_is_always_one(self):
        graph = Graph.from_edges([(0, 1, 42.0)])
        assert BFS(source=0).edge_factor(graph, 0, 1) == 1.0


class TestPageRank:
    def test_scores_sum_to_vertex_count(self):
        # With teleport mass (1-d) per vertex the total PR mass equals |V|
        # when every vertex has an out-edge.
        graph = Graph.from_edges(
            [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (0, 2, 1.0), (2, 1, 1.0), (1, 0, 1.0)]
        )
        result = run_batch(PageRank(damping=0.85, tolerance=1e-9), graph)
        assert sum(result.states.values()) == pytest.approx(3.0, rel=1e-3)

    def test_symmetric_cycle_gives_equal_scores(self):
        graph = Graph.from_edges([(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
        result = run_batch(PageRank(tolerance=1e-9), graph)
        values = list(result.states.values())
        assert max(values) - min(values) < 1e-6

    def test_sink_receives_more_than_source(self):
        graph = Graph.from_edges([(0, 1, 1.0), (2, 1, 1.0)])
        result = run_batch(PageRank(), graph)
        assert result.states[1] > result.states[0]

    def test_matches_power_iteration(self):
        graph = Graph.from_edges(
            [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (2, 3, 1.0), (3, 0, 1.0)]
        )
        result = run_batch(PageRank(damping=0.85, tolerance=1e-10), graph)
        # Reference fixed point x = (1-d) + d * A^T x computed independently.
        damping = 0.85
        scores = {v: 1.0 for v in graph.vertices()}
        for _ in range(200):
            scores = {
                v: (1 - damping)
                + damping
                * sum(
                    scores[u] / graph.out_degree(u) for u in graph.in_neighbors(v)
                )
                for v in graph.vertices()
            }
        for vertex, value in scores.items():
            assert result.states[vertex] == pytest.approx(value, abs=1e-4)

    def test_invalid_damping_rejected(self):
        with pytest.raises(ValueError):
            PageRank(damping=1.5)

    def test_dangling_vertex_factor_is_zero(self):
        graph = Graph.from_edges([(0, 1, 1.0)])
        spec = PageRank()
        assert spec.edge_factor(graph, 1, 0) == 0.0

    def test_spec_properties(self):
        spec = PageRank()
        assert not spec.is_selective()
        assert spec.is_invertible()
        assert spec.negate(2.0) == -2.0
        assert spec.combine_identity() == 1.0
        assert spec.aggregate_identity() == 0.0


class TestPHP:
    def test_source_state_is_one(self):
        graph = Graph.from_edges([(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
        result = run_batch(PHP(source=0), graph)
        assert result.states[0] == pytest.approx(1.0)

    def test_closer_vertices_score_higher(self):
        graph = Graph.from_edges([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        result = run_batch(PHP(source=0), graph)
        assert result.states[1] > result.states[2] > result.states[3]

    def test_returning_walks_are_absorbed(self):
        # Mass flowing back into the source must not be re-emitted: with the
        # cycle 0 -> 1 -> 0, vertex 1's score is exactly d (one hop),
        # not d / (1 - d^2) as it would be without absorption.
        graph = Graph.from_edges([(0, 1, 1.0), (1, 0, 1.0)])
        result = run_batch(PHP(source=0, damping=0.8), graph)
        assert result.states[1] == pytest.approx(0.8, abs=1e-6)

    def test_weights_matter(self):
        graph = Graph.from_edges([(0, 1, 9.0), (0, 2, 1.0)])
        result = run_batch(PHP(source=0), graph)
        assert result.states[1] > result.states[2]

    def test_invalid_damping_rejected(self):
        with pytest.raises(ValueError):
            PHP(source=0, damping=0.0)

    def test_absorbs_only_source(self):
        spec = PHP(source=3)
        assert spec.absorbs(3)
        assert not spec.absorbs(0)


class TestFactory:
    @pytest.mark.parametrize(
        "name,expected",
        [("sssp", SSSP), ("bfs", BFS), ("pagerank", PageRank), ("pr", PageRank), ("php", PHP)],
    )
    def test_make_algorithm(self, name, expected):
        assert isinstance(make_algorithm(name, source=2), expected)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_algorithm("connected-components")

    def test_source_is_forwarded(self):
        assert make_algorithm("sssp", source=4).source == 4
        assert make_algorithm("php", source=4).source == 4


class TestRowFactors:
    """``out_factors`` — the per-row enumerator — equals ``edge_factor`` bit
    for bit, and PHP sums a row's out-weights once instead of once per edge."""

    @pytest.mark.parametrize("name", ["sssp", "bfs", "pagerank", "php"])
    def test_out_factors_match_edge_factor_bits(self, name, random_graph):
        spec = make_algorithm(name, source=0)
        graph = random_graph
        graph.add_vertex(9_999)  # no out-edges: an empty row
        graph.add_edge(9_998, 0, 0.0)  # total out-weight 0: PHP's guarded case
        for source in graph.vertices():
            row = spec.out_factors(graph, source)
            assert [target for target, _factor in row] == list(graph.out_neighbors(source))
            for target, factor in row:
                expected = spec.edge_factor(graph, source, target)
                assert math.copysign(1.0, factor) == math.copysign(1.0, expected)
                assert factor == expected

    def test_php_row_enumeration_is_linear_in_the_degree(self, monkeypatch):
        hub = Graph.from_edges([(0, target, 1.0 + target) for target in range(1, 200)])
        sums = {"count": 0}
        original = Graph.total_out_weight

        def counting(self, vertex):
            sums["count"] += 1
            return original(self, vertex)

        monkeypatch.setattr(Graph, "total_out_weight", counting)
        from repro.graph.csr import FactorCSR

        FactorCSR.from_graph(PHP(source=0), hub)
        assert sums["count"] <= hub.num_vertices()
