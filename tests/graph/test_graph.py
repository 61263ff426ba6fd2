"""Unit tests for the core Graph structure."""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.graph import Edge, Graph


class TestGraphBasics:
    def test_empty_graph(self):
        graph = Graph()
        assert graph.num_vertices() == 0
        assert graph.num_edges() == 0
        assert not graph.has_vertex(0)

    def test_add_vertex_idempotent(self):
        graph = Graph()
        graph.add_vertex(1)
        graph.add_vertex(1)
        assert graph.num_vertices() == 1

    def test_add_edge_creates_endpoints(self):
        graph = Graph()
        graph.add_edge(1, 2, 3.5)
        assert graph.has_vertex(1)
        assert graph.has_vertex(2)
        assert graph.edge_weight(1, 2) == 3.5

    def test_add_edge_overwrites_weight(self):
        graph = Graph()
        graph.add_edge(1, 2, 1.0)
        graph.add_edge(1, 2, 9.0)
        assert graph.num_edges() == 1
        assert graph.edge_weight(1, 2) == 9.0

    def test_in_and_out_neighbors(self):
        graph = Graph.from_edges([(0, 1, 1.0), (0, 2, 2.0), (2, 1, 3.0)])
        assert set(graph.out_neighbors(0)) == {1, 2}
        assert set(graph.in_neighbors(1)) == {0, 2}
        assert graph.out_degree(0) == 2
        assert graph.in_degree(1) == 2
        assert graph.degree(1) == 2

    def test_remove_edge(self):
        graph = Graph.from_edges([(0, 1, 1.0), (1, 2, 1.0)])
        graph.remove_edge(0, 1)
        assert not graph.has_edge(0, 1)
        assert graph.has_edge(1, 2)
        assert 1 not in graph.in_neighbors(1)

    def test_remove_missing_edge_raises(self):
        graph = Graph()
        graph.add_edge(0, 1)
        with pytest.raises(KeyError):
            graph.remove_edge(1, 0)

    def test_remove_vertex_drops_incident_edges(self):
        graph = Graph.from_edges([(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
        graph.remove_vertex(1)
        assert not graph.has_vertex(1)
        assert graph.num_edges() == 1
        assert graph.has_edge(2, 0)

    def test_remove_missing_vertex_raises(self):
        graph = Graph()
        with pytest.raises(KeyError):
            graph.remove_vertex(5)

    def test_update_edge_weight(self):
        graph = Graph.from_edges([(0, 1, 1.0)])
        graph.update_edge_weight(0, 1, 7.0)
        assert graph.edge_weight(0, 1) == 7.0
        assert graph.in_neighbors(1)[0] == 7.0

    def test_update_missing_edge_weight_raises(self):
        graph = Graph()
        with pytest.raises(KeyError):
            graph.update_edge_weight(0, 1, 2.0)

    def test_edge_weight_missing_raises(self):
        graph = Graph()
        graph.add_vertex(0)
        with pytest.raises(KeyError):
            graph.edge_weight(0, 1)

    def test_copy_is_independent(self):
        graph = Graph.from_edges([(0, 1, 1.0)])
        clone = graph.copy()
        clone.add_edge(1, 2, 1.0)
        assert graph.num_edges() == 1
        assert clone.num_edges() == 2
        assert graph == Graph.from_edges([(0, 1, 1.0)])

    def test_equality(self):
        a = Graph.from_edges([(0, 1, 1.0), (1, 2, 2.0)])
        b = Graph.from_edges([(1, 2, 2.0), (0, 1, 1.0)])
        assert a == b
        b.add_edge(2, 0, 1.0)
        assert a != b

    def test_total_out_weight(self):
        graph = Graph.from_edges([(0, 1, 2.0), (0, 2, 3.0)])
        assert graph.total_out_weight(0) == 5.0
        assert graph.total_out_weight(1) == 0.0

    def test_subgraph(self):
        graph = Graph.from_edges([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        sub = graph.subgraph([0, 1, 2])
        assert sub.num_vertices() == 3
        assert sub.has_edge(0, 1)
        assert sub.has_edge(1, 2)
        assert not sub.has_edge(2, 3)

    def test_reverse(self):
        graph = Graph.from_edges([(0, 1, 2.0)])
        reversed_graph = graph.reverse()
        assert reversed_graph.has_edge(1, 0)
        assert not reversed_graph.has_edge(0, 1)
        assert reversed_graph.edge_weight(1, 0) == 2.0

    def test_undirected_graph_mirrors_edges(self):
        graph = Graph(directed=False)
        graph.add_edge(0, 1, 4.0)
        assert graph.has_edge(1, 0)
        graph.remove_edge(1, 0)
        assert not graph.has_edge(0, 1)

    def test_undirected_view_neighbors(self):
        graph = Graph.from_edges([(0, 1, 1.0), (2, 0, 3.0)])
        merged = graph.undirected_view_neighbors(0)
        assert merged == {1: 1.0, 2: 3.0}

    def test_contains_and_len(self):
        graph = Graph.from_edges([(0, 1, 1.0)])
        assert 0 in graph
        assert 5 not in graph
        assert len(graph) == 2

    def test_max_vertex_id(self):
        graph = Graph()
        assert graph.max_vertex_id() is None
        graph.add_edge(3, 7)
        assert graph.max_vertex_id() == 7

    def test_from_unweighted_edges(self):
        graph = Graph.from_unweighted_edges([(0, 1), (1, 2)])
        assert graph.edge_weight(0, 1) == 1.0
        assert graph.num_edges() == 2

    def test_edge_list_roundtrip(self):
        edges = [(0, 1, 1.5), (1, 2, 2.5)]
        graph = Graph.from_edges(edges)
        assert sorted(graph.edge_list()) == sorted(edges)


VERTICES = st.integers(0, 5)
WEIGHTS = st.integers(1, 4).map(float)
#: one step: ``(operation, graph pick, vertex, vertex, weight)``
STEPS = st.tuples(
    st.sampled_from(
        ["add_vertex", "remove_vertex", "add_edge", "remove_edge", "update_edge_weight", "copy"]
    ),
    st.integers(0, 7),
    VERTICES,
    VERTICES,
    WEIGHTS,
)


class _Model:
    """A dict-of-dicts graph: ``out``/``into`` rows in insertion order."""

    def __init__(self, directed):
        self.directed = directed
        self.out, self.into = {}, {}

    def add_vertex(self, vertex):
        self.out.setdefault(vertex, {})
        self.into.setdefault(vertex, {})

    def _links(self, source, target):
        yield source, target
        if not self.directed and source != target:
            yield target, source

    def set_weight(self, source, target, weight):
        for s, t in self._links(source, target):
            self.out[s][t] = weight
            self.into[t][s] = weight

    def remove_edge(self, source, target):
        for s, t in self._links(source, target):
            del self.out[s][t]
            del self.into[t][s]

    def remove_vertex(self, vertex):
        for target in list(self.out[vertex]):
            self.remove_edge(vertex, target)
        for source in list(self.into[vertex]):
            self.remove_edge(source, vertex)
        del self.out[vertex], self.into[vertex]


def _apply_step(graph, model, operation, first, second, weight):
    """One operation on a graph and its model (invalid ones are skipped)."""
    if operation == "add_vertex":
        graph.add_vertex(first)
        model.add_vertex(first)
    elif operation == "remove_vertex" and first in model.out:
        graph.remove_vertex(first)
        model.remove_vertex(first)
    elif operation == "add_edge":
        graph.add_edge(first, second, weight)
        model.add_vertex(first)
        model.add_vertex(second)
        model.set_weight(first, second, weight)
    elif operation == "remove_edge" and second in model.out.get(first, ()):
        graph.remove_edge(first, second)
        model.remove_edge(first, second)
    elif operation == "update_edge_weight" and second in model.out.get(first, ()):
        graph.update_edge_weight(first, second, weight)
        model.set_weight(first, second, weight)


def _assert_matches(graph, model):
    """Same vertices, and every row with the same links in the same order."""
    assert list(graph.vertices()) == list(model.out)
    for vertex in model.out:
        assert list(graph.out_neighbors(vertex).items()) == list(model.out[vertex].items())
        assert list(graph.in_neighbors(vertex).items()) == list(model.into[vertex].items())
    assert graph.num_edges() == sum(len(row) for row in model.out.values())


class TestCopyOnWrite:
    """A copy shares its rows with the original until either writes one."""

    @settings(max_examples=60, deadline=None)
    @given(directed=st.booleans(), steps=st.lists(STEPS, max_size=40))
    def test_graphs_and_copies_match_their_models(self, directed, steps):
        graphs, models = [Graph(directed=directed)], [_Model(directed)]
        for operation, pick, first, second, weight in steps:
            pick %= len(graphs)
            if operation == "copy":
                graphs.append(graphs[pick].copy())
                models.append(copy.deepcopy(models[pick]))
            else:
                _apply_step(graphs[pick], models[pick], operation, first, second, weight)
            for graph, model in zip(graphs, models):
                _assert_matches(graph, model)

    def test_copy_shares_rows_until_written(self):
        graph = Graph.from_edges([(0, 1, 1.0), (1, 2, 2.0)])
        clone = graph.copy()
        assert clone.out_neighbors(1) is graph.out_neighbors(1)
        clone.add_edge(1, 3, 4.0)
        assert clone.out_neighbors(1) is not graph.out_neighbors(1)
        assert graph.out_neighbors(1) == {2: 2.0}
        # the original clones too: its rows are shared with the copy
        graph.update_edge_weight(0, 1, 5.0)
        assert clone.edge_weight(0, 1) == 1.0
        assert clone.in_neighbors(1) == {0: 1.0}


class TestEdge:
    def test_reversed(self):
        edge = Edge(1, 2, 3.0)
        flipped = edge.reversed()
        assert flipped.source == 2
        assert flipped.target == 1
        assert flipped.weight == 3.0
