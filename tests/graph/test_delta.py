"""Unit tests for GraphDelta (ΔG) construction and application."""

import pytest

from repro.graph.delta import EdgeUpdate, GraphDelta, UpdateKind, VertexUpdate
from repro.graph.graph import Graph


@pytest.fixture
def base_graph() -> Graph:
    return Graph.from_edges([(0, 1, 1.0), (1, 2, 2.0), (2, 0, 3.0)])


class TestGraphDelta:
    def test_apply_edge_addition(self, base_graph):
        delta = GraphDelta()
        delta.add_edge(0, 2, 5.0)
        updated = delta.apply(base_graph)
        assert updated.has_edge(0, 2)
        assert not base_graph.has_edge(0, 2)  # original untouched

    def test_apply_edge_deletion(self, base_graph):
        delta = GraphDelta()
        delta.delete_edge(1, 2)
        updated = delta.apply(base_graph)
        assert not updated.has_edge(1, 2)
        assert base_graph.has_edge(1, 2)

    def test_apply_in_place(self, base_graph):
        delta = GraphDelta()
        delta.delete_edge(1, 2)
        returned = delta.apply(base_graph, in_place=True)
        assert returned is base_graph
        assert not base_graph.has_edge(1, 2)

    def test_apply_in_place_on_a_copy_leaves_the_original(self, base_graph):
        # the copy shares the original's rows until it writes them
        before = base_graph.edge_list()
        clone = base_graph.copy()
        delta = GraphDelta()
        delta.delete_edge(1, 2)
        delta.add_edge(2, 0, 7.0)
        delta.add_edge(0, 3, 1.0)
        delta.delete_vertex(0)
        assert delta.apply(clone, in_place=True) is clone
        assert base_graph.edge_list() == before
        assert base_graph.in_neighbors(0) == {2: 3.0}
        # vertex updates run first: 0 goes with its edges, then comes back
        assert sorted(clone.edge_list()) == [(0, 3, 1.0), (2, 0, 7.0)]

    def test_deleting_missing_edge_is_noop(self, base_graph):
        delta = GraphDelta()
        delta.delete_edge(0, 2)
        updated = delta.apply(base_graph)
        assert updated.num_edges() == base_graph.num_edges()

    def test_vertex_addition_with_edges(self, base_graph):
        delta = GraphDelta()
        delta.add_vertex(9, edges=[(9, 0, 1.0), (2, 9, 4.0)])
        updated = delta.apply(base_graph)
        assert updated.has_vertex(9)
        assert updated.has_edge(9, 0)
        assert updated.has_edge(2, 9)

    def test_vertex_deletion_removes_incident_edges(self, base_graph):
        delta = GraphDelta()
        delta.delete_vertex(1)
        updated = delta.apply(base_graph)
        assert not updated.has_vertex(1)
        assert not updated.has_edge(0, 1)
        assert updated.has_edge(2, 0)

    def test_weight_change_as_delete_then_add(self, base_graph):
        delta = GraphDelta.from_edge_changes(
            additions=[(0, 1, 9.0)], deletions=[(0, 1)]
        )
        updated = delta.apply(base_graph)
        assert updated.edge_weight(0, 1) == 9.0

    def test_added_and_deleted_edges_report(self, base_graph):
        delta = GraphDelta()
        delta.delete_edge(0, 1)
        delta.add_edge(1, 0, 4.0)
        delta.delete_vertex(2)
        added = delta.added_edges(base_graph)
        deleted = delta.deleted_edges(base_graph)
        assert (1, 0, 4.0) in added
        assert (0, 1, 1.0) in deleted
        # vertex deletion expands to its incident edges with old weights
        assert (1, 2, 2.0) in deleted
        assert (2, 0, 3.0) in deleted

    def test_touched_vertices(self, base_graph):
        delta = GraphDelta()
        delta.add_edge(0, 2, 1.0)
        delta.delete_vertex(1)
        touched = delta.touched_vertices(base_graph)
        assert {0, 1, 2} <= touched

    def test_len_and_empty(self):
        delta = GraphDelta()
        assert delta.is_empty()
        delta.add_edge(0, 1)
        assert len(delta) == 1
        assert not delta.is_empty()

    def test_inverted_roundtrip(self, base_graph):
        delta = GraphDelta()
        delta.delete_edge(0, 1)
        delta.add_edge(0, 2, 7.0)
        updated = delta.apply(base_graph)
        inverse = delta.inverted(base_graph)
        restored = inverse.apply(updated)
        assert restored == base_graph

    def test_edge_update_kind_validation(self):
        with pytest.raises(ValueError):
            EdgeUpdate(UpdateKind.ADD_VERTEX, 0, 1)

    def test_vertex_update_kind_validation(self):
        with pytest.raises(ValueError):
            VertexUpdate(UpdateKind.ADD_EDGE, 0)

    def test_unit_updates_order(self):
        delta = GraphDelta()
        delta.add_edge(0, 1)
        delta.add_vertex(5)
        updates = list(delta.unit_updates())
        assert isinstance(updates[0], VertexUpdate)
        assert isinstance(updates[1], EdgeUpdate)


class TestDeletedEdgesDeduplication:
    """``deleted_edges`` must report each deleted edge exactly once.

    Regression tests: deleting a vertex with a self-loop used to emit the
    loop twice (once from the out-adjacency, once from the in-adjacency),
    which double-cancelled its contribution in the revision-message
    machinery.
    """

    def test_vertex_delete_with_self_loop_reports_loop_once(self):
        graph = Graph.from_edges([(0, 1, 1.0), (1, 1, 2.0), (1, 2, 3.0)])
        delta = GraphDelta()
        delta.delete_vertex(1)
        deleted = delta.deleted_edges(graph)
        assert deleted.count((1, 1, 2.0)) == 1
        assert sorted(deleted) == [(0, 1, 1.0), (1, 1, 2.0), (1, 2, 3.0)]

    def test_repeated_edge_delete_reports_edge_once(self):
        graph = Graph.from_edges([(0, 1, 1.0)])
        delta = GraphDelta()
        delta.delete_edge(0, 1)
        delta.delete_edge(0, 1)
        assert delta.deleted_edges(graph) == [(0, 1, 1.0)]

    def test_edge_delete_then_vertex_delete_reports_edge_once(self):
        graph = Graph.from_edges([(0, 1, 1.0), (1, 2, 2.0)])
        delta = GraphDelta()
        delta.delete_edge(0, 1)
        delta.delete_vertex(1)
        deleted = delta.deleted_edges(graph)
        assert sorted(deleted) == [(0, 1, 1.0), (1, 2, 2.0)]

    def test_self_loop_vertex_delete_keeps_engines_correct(self):
        """End-to-end through the real ``deleted_edges`` consumer: the
        dependency-based selective engines (``selective_base``) drive their
        invalidation off the deduplicated deletion list, and must stay exact
        under a vertex deletion whose victim carries a self-loop."""
        from repro.engine.algorithms import make_algorithm
        from repro.engine.convergence import states_close
        from repro.engine.runner import run_batch
        from repro.incremental.kickstarter import KickStarterEngine

        graph = Graph.from_edges(
            [(0, 1, 1.0), (1, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (0, 3, 1.0)]
        )
        delta = GraphDelta()
        delta.delete_vertex(1)
        engine = KickStarterEngine(make_algorithm("sssp", source=0))
        engine.initialize(graph)
        result = engine.apply_delta(delta)
        reference = run_batch(
            make_algorithm("sssp", source=0), delta.apply(graph)
        ).states
        assert states_close(result.states, reference, tolerance=1e-9)


class TestValidate:
    """``GraphDelta.validate`` / ``update_intrinsic_problems`` contracts."""

    def test_clean_delta_validates_empty(self, base_graph):
        delta = GraphDelta()
        delta.add_edge(0, 2, 1.5)
        delta.delete_edge(1, 2)
        assert delta.validate() == []
        assert delta.validate(base_graph) == []

    def test_nonfinite_weights_are_intrinsic_problems(self):
        from repro.graph.delta import update_intrinsic_problems

        for bad in (float("nan"), float("inf"), float("-inf")):
            update = EdgeUpdate(UpdateKind.ADD_EDGE, 0, 1, bad)
            problems = update_intrinsic_problems(update)
            assert problems and "non-finite" in problems[0]
            delta = GraphDelta()
            delta.edge_updates.append(update)
            assert delta.validate()  # graph-independent: no graph needed

    def test_vertex_attach_inconsistencies(self):
        from repro.graph.delta import update_intrinsic_problems

        # attach edge not incident to the inserted vertex
        floating = VertexUpdate(UpdateKind.ADD_VERTEX, 5, ((1, 2, 1.0),))
        assert update_intrinsic_problems(floating)
        # delete carrying attach edges is self-inconsistent
        loaded = VertexUpdate(UpdateKind.DELETE_VERTEX, 5, ((5, 1, 1.0),))
        assert update_intrinsic_problems(loaded)
        # non-finite attach weight
        poisoned = VertexUpdate(UpdateKind.ADD_VERTEX, 5, ((5, 1, float("nan")),))
        assert update_intrinsic_problems(poisoned)
        # clean attach passes
        clean = VertexUpdate(UpdateKind.ADD_VERTEX, 5, ((5, 1, 1.0), (2, 5, 0.5)))
        assert update_intrinsic_problems(clean) == []

    def test_contextual_dangling_deletes(self, base_graph):
        delta = GraphDelta()
        delta.delete_edge(0, 2)  # not present in base_graph
        assert delta.validate() == []  # intrinsically fine
        problems = delta.validate(base_graph)
        assert problems and "missing edge" in problems[0]

        vdelta = GraphDelta()
        vdelta.vertex_updates.append(VertexUpdate(UpdateKind.DELETE_VERTEX, 99))
        assert any("missing vertex" in p for p in vdelta.validate(base_graph))

    def test_contextual_tracking_follows_apply_order(self, base_graph):
        # add then delete within one delta: the delete's target exists by
        # the time it runs, so the delta is contextually clean
        delta = GraphDelta()
        delta.add_edge(0, 2, 1.0)
        delta.delete_edge(0, 2)
        assert delta.validate(base_graph) == []
        # delete after a vertex delete removed the edge implicitly
        chained = GraphDelta()
        chained.vertex_updates.append(VertexUpdate(UpdateKind.DELETE_VERTEX, 1))
        chained.delete_edge(0, 1)
        problems = chained.validate(base_graph)
        assert problems and "missing edge" in problems[0]
