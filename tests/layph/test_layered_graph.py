"""Tests for layered graph construction: communities, density, shortcuts."""

import math

import numpy as np
import pytest

from repro.engine.algorithms import PageRank, SSSP
from repro.engine.propagation import FactorAdjacency, propagate
from repro.graph.csr import FactorCSR
from repro.graph.graph import Graph
from repro.layph.community import louvain_communities
from repro.layph.dense import classify_boundary, is_dense, select_dense_subgraphs
from repro.layph.layered_graph import LayeredGraph, LayphConfig
from repro.layph.shortcuts import compute_shortcuts_from

from oracles.layph import compute_all_shortcuts, upper_in_adjacency  # noqa: E402  (tests/layph)
from oracles import ROUTES, engine_on_route  # noqa: E402  (tests/)


class TestLouvain:
    def test_every_vertex_assigned_once(self, community_graph_small):
        communities = louvain_communities(community_graph_small, seed=1)
        assigned = [v for community in communities for v in community]
        assert sorted(assigned) == sorted(community_graph_small.vertices())

    def test_detects_planted_communities(self):
        graph = Graph()
        # two disjoint dense cliques joined by one edge
        for block, offset in enumerate((0, 10)):
            for i in range(6):
                for j in range(6):
                    if i != j:
                        graph.add_edge(offset + i, offset + j, 1.0)
        graph.add_edge(0, 10, 1.0)
        communities = louvain_communities(graph, seed=3)
        sizes = sorted(len(c) for c in communities)
        assert sizes == [6, 6]

    def test_size_cap_respected(self, community_graph_small):
        cap = 10
        communities = louvain_communities(
            community_graph_small, max_community_size=cap, seed=1
        )
        assert all(len(c) <= cap for c in communities)

    def test_empty_graph(self):
        assert louvain_communities(Graph()) == []


class TestDenseClassification:
    def test_entry_exit_internal_split(self):
        # 0 -> 1 -> 2 -> 3 with the chain {1, 2} as the candidate subgraph
        graph = Graph.from_edges([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        classification = classify_boundary(graph, [1, 2])
        assert classification.entry == {1}
        assert classification.exit == {2}
        assert classification.internal == set()

    def test_internal_vertices(self):
        graph = Graph.from_edges(
            [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (1, 3, 1.0)]
        )
        classification = classify_boundary(graph, [1, 2, 3])
        assert classification.entry == {1}
        assert classification.exit == {3}
        assert classification.internal == {2}
        assert classification.internal_edges == 3

    def test_density_rule(self):
        graph = Graph.from_edges(
            [(9, 0, 1.0), (3, 8, 1.0)]
            + [(i, j, 1.0) for i in range(4) for j in range(4) if i != j]
        )
        dense = classify_boundary(graph, [0, 1, 2, 3])
        assert is_dense(dense)  # 1 entry * 1 exit = 1 < 12 internal edges

    def test_sparse_candidate_rejected(self):
        graph = Graph.from_edges(
            [(10, 0, 1.0), (10, 1, 1.0), (0, 11, 1.0), (1, 11, 1.0), (0, 2, 1.0), (1, 2, 1.0)]
        )
        classification = classify_boundary(graph, [0, 1, 2])
        # 2 entries * 2 exits = 4 >= 2 internal edges -> not dense
        assert not is_dense(classification)

    def test_candidate_without_internal_vertices_rejected(self):
        graph = Graph.from_edges([(0, 1, 1.0), (1, 0, 1.0), (5, 0, 1.0), (1, 6, 1.0)])
        classification = classify_boundary(graph, [0, 1])
        assert not is_dense(classification)

    def test_select_dense_subgraphs_min_size(self, community_graph_small):
        communities = louvain_communities(community_graph_small, seed=1)
        selected = select_dense_subgraphs(
            community_graph_small, communities, min_size=3
        )
        assert all(len(c.members) >= 3 for c in selected)


class TestShortcuts:
    def test_sssp_shortcut_is_shortest_internal_path(self):
        spec = SSSP(source=0)
        adjacency = FactorAdjacency(
            {
                0: [(1, 1.0), (2, 4.0)],
                1: [(2, 1.0), (3, 5.0)],
                2: [(3, 1.0)],
            }
        )
        shortcuts = compute_shortcuts_from(spec, adjacency, 0, boundary={0, 3})
        assert shortcuts[1] == 1.0
        assert shortcuts[2] == 2.0
        assert shortcuts[3] == 3.0

    def test_paths_through_other_boundary_vertices_are_excluded(self):
        spec = SSSP(source=0)
        # 0 -> 9 -> 3 is shorter but passes through boundary vertex 9, so the
        # shortcut 0 -> 3 must report the internal-only path 0 -> 1 -> 3.
        adjacency = FactorAdjacency(
            {
                0: [(1, 5.0), (9, 1.0)],
                1: [(3, 5.0)],
                9: [(3, 1.0)],
            }
        )
        shortcuts = compute_shortcuts_from(spec, adjacency, 0, boundary={0, 3, 9})
        assert shortcuts[3] == 10.0
        assert shortcuts[9] == 1.0

    def test_pagerank_shortcut_sums_path_products(self):
        spec = PageRank(damping=0.5)
        adjacency = FactorAdjacency(
            {
                0: [(1, 0.5), (2, 0.25)],
                1: [(2, 0.5)],
            }
        )
        shortcuts = compute_shortcuts_from(spec, adjacency, 0, boundary={0, 2})
        # two internal-only paths to 2: direct 0.25 and through 1: 0.5*0.5
        assert shortcuts[2] == pytest.approx(0.5)
        assert shortcuts[1] == pytest.approx(0.5)

    def test_selective_self_shortcut_dropped(self):
        spec = SSSP(source=0)
        adjacency = FactorAdjacency({0: [(1, 1.0)], 1: [(0, 1.0)]})
        shortcuts = compute_shortcuts_from(spec, adjacency, 0, boundary={0})
        assert 0 not in shortcuts

    def test_accumulative_self_shortcut_keeps_cycle_mass_only(self):
        spec = PageRank(damping=0.5)
        adjacency = FactorAdjacency({0: [(1, 0.5)], 1: [(0, 0.5)]})
        shortcuts = compute_shortcuts_from(spec, adjacency, 0, boundary={0})
        # one internal cycle 0 -> 1 -> 0 contributing 0.25 (plus decaying
        # repetitions are cut off because vertex 0 absorbs as boundary)
        assert shortcuts[0] == pytest.approx(0.25)

    def test_compute_all_shortcuts_covers_every_boundary_vertex(self):
        spec = SSSP(source=0)
        adjacency = FactorAdjacency(
            {0: [(1, 1.0)], 1: [(2, 1.0)], 2: [(3, 1.0)], 3: [(0, 1.0)]}
        )
        shortcuts = compute_all_shortcuts(spec, adjacency, boundary={0, 3})
        assert set(shortcuts) == {0, 3}


class TestLayeredGraphConstruction:
    def test_upper_layer_is_smaller_than_graph(self, community_graph_small):
        spec = SSSP(source=0)
        layered = LayeredGraph.build(spec, community_graph_small, LayphConfig(seed=2))
        upper_vertices, upper_links = layered.upper_size()
        assert upper_vertices < community_graph_small.num_vertices()
        assert upper_links < community_graph_small.num_edges()

    def test_membership_maps_are_consistent(self, community_graph_small):
        spec = SSSP(source=0)
        layered = LayeredGraph.build(spec, community_graph_small, LayphConfig(seed=2))
        for subgraph in layered.subgraphs:
            for vertex in subgraph.members:
                assert layered.subgraph_of[vertex] == subgraph.index
            assert subgraph.internal <= subgraph.members
            assert not (subgraph.internal & subgraph.boundary)

    def test_outliers_plus_members_cover_graph(self, community_graph_small):
        spec = SSSP(source=0)
        layered = LayeredGraph.build(spec, community_graph_small, LayphConfig(seed=2))
        members = set()
        for subgraph in layered.subgraphs:
            members |= subgraph.members
        assert members | layered.outliers() == set(community_graph_small.vertices())

    def test_replication_reduces_upper_layer(self):
        # A hub vertex fanning into one dense community forces many entry
        # vertices unless the hub is replicated.
        graph = Graph()
        for i in range(1, 9):
            for j in range(1, 9):
                if i != j:
                    graph.add_edge(i, j, 1.0)
        for i in range(1, 6):
            graph.add_edge(0, i, 1.0)   # hub 0 feeds five entries
        graph.add_edge(8, 20, 1.0)      # one exit edge
        graph.add_edge(20, 0, 1.0)
        spec = SSSP(source=0)
        with_replication = LayeredGraph.build(
            spec, graph, LayphConfig(seed=1, enable_replication=True, replication_threshold=3)
        )
        without_replication = LayeredGraph.build(
            spec, graph, LayphConfig(seed=1, enable_replication=False)
        )
        assert with_replication.upper_size()[0] <= without_replication.upper_size()[0]

    def test_negative_vertex_ids_rejected_with_replication(self):
        graph = Graph.from_edges([(-1, 0, 1.0), (0, 1, 1.0)])
        with pytest.raises(ValueError):
            LayeredGraph.build(SSSP(source=0), graph, LayphConfig(enable_replication=True))

    def test_shortcut_count_positive_for_dense_graph(self, community_graph_small):
        spec = SSSP(source=0)
        layered = LayeredGraph.build(spec, community_graph_small, LayphConfig(seed=2))
        assert layered.shortcut_count() > 0

    def test_config_cap_resolution(self):
        config = LayphConfig()
        assert config.resolved_community_cap(1_000_000) == 2000
        assert config.resolved_community_cap(100) == 64
        assert LayphConfig(max_community_size=5).resolved_community_cap(100) == 5


class TestRebuildUpper:
    """The build's full reassembly installs a freshly compiled upper CSR."""

    def test_changed_skeleton_installs_new_csr(self, community_graph_small):
        layered = LayeredGraph.build(PageRank(), community_graph_small, LayphConfig(seed=2))
        upper = layered.upper_csr()
        rebuilds = layered.upper_rebuilds
        # Two brand-new vertices are outliers; their edge lands on the upper
        # layer, so the freshly assembled skeleton differs.
        layered.graph.add_edge(9901, 9902, 1.0)
        layered.rebuild_upper()
        assert layered.upper_csr() is not upper
        assert layered.upper_rebuilds == rebuilds + 1
        # Factors, not weights, live on the upper layer (d / N_u = 0.85 / 1).
        assert [target for target, _factor in layered.upper_adjacency(9901)] == [9902]


class TestResidentUpperCSR:
    """The compiled upper layer is resident and is the only form of the
    skeleton: ``upper_adjacency`` is a read-only view of it, and
    ``propagate`` runs on it without compiling anything."""

    def _layered(self, graph):
        return LayeredGraph.build(SSSP(source=0), graph, LayphConfig(seed=2))

    def test_repeat_calls_serve_the_resident_snapshot(self, community_graph_small):
        layered = self._layered(community_graph_small)
        first = layered.upper_csr()
        assert layered.upper_csr() is first
        assert set(first.vertex_ids) == (
            set(layered.graph.vertices()) | layered.proxy_vertices()
        )

    def test_propagate_runs_on_the_resident_csr(self, community_graph_small):
        layered = self._layered(community_graph_small)
        resident = layered.upper_csr()
        view = layered.upper_adjacency
        assert view.compiled_csr(layered.upper_vertices) is resident
        assert len(view) == resident.num_edges
        source = min(layered.upper_vertices)
        FactorCSR.compile_count = 0
        states = {}
        propagate(layered.spec, view, states, {source: 0.0}, owned=layered.upper_vertices)
        assert FactorCSR.compile_count == 0
        assert states[source] == 0.0
        assert layered.upper_csr() is resident

    def test_a_vertex_outside_the_id_space_raises(self, community_graph_small):
        """The view serves its snapshot unchecked (the id space is the
        graph's vertices and the proxies); a slab that names a vertex
        outside it fails loudly, and the view compiles to the snapshot."""
        layered = self._layered(community_graph_small)
        resident = layered.upper_csr()
        view = layered.upper_adjacency
        assert view.compiled_csr({-12345}) is resident
        with pytest.raises(KeyError):
            propagate(layered.spec, view, {}, {-12345: 0.0}, owned=layered.upper_vertices)
        copy = FactorCSR.from_factor_adjacency(view, universe=set(resident.vertex_ids))
        assert copy.vertex_ids == resident.vertex_ids
        assert np.array_equal(copy.offsets, resident.offsets)
        assert np.array_equal(copy.targets, resident.targets)
        assert copy.factors.tobytes() == resident.factors.tobytes()

    def test_reverse_view_matches_forward_links(self, community_graph_small):
        layered = self._layered(community_graph_small)
        incoming = upper_in_adjacency(layered)
        forward = set()
        for source in layered.upper_adjacency.vertices_with_out_edges():
            for target, factor in layered.upper_adjacency(source):
                forward.add((source, target, factor))
        reverse = {
            (source, target, factor)
            for target, links in incoming.items()
            for source, factor in links
        }
        assert forward == reverse

    def test_proxies_are_served_from_the_owner_index(self, community_graph_small):
        layered = LayeredGraph.build(
            SSSP(source=0),
            community_graph_small,
            LayphConfig(seed=2, replication_threshold=2),
        )
        by_union = set()
        for subgraph in layered.subgraphs:
            by_union.update(subgraph.proxies)
        assert by_union
        assert layered.proxy_vertices() == by_union


class TestConstructionMetricsStayBounded:
    """The build records its shortcut rounds; every later rebuild adds only
    totals, so the snapshot payload does not grow with the delta stream."""

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("algorithm", ["sssp", "pagerank"])
    def test_payload_stable_and_totals_match_the_charges(self, route, algorithm):
        from repro.engine.algorithms import make_algorithm
        from repro.engine.metrics import ExecutionMetrics
        from repro.graph.generators import community_graph
        from repro.workloads.updates import random_edge_delta

        graph = community_graph(
            num_communities=5,
            community_size_range=(15, 25),
            intra_edge_probability=0.35,
            weighted=True,
            seed=13,
        )
        engine = engine_on_route("layph", make_algorithm(algorithm, source=0), route)
        engine.initialize(graph)
        layered = engine.layered
        construction = layered.construction_metrics
        built = layered.to_state()["construction_metrics"]
        assert built["activations_per_round"], "the build recorded no rounds"

        charges = []
        rebuild = layered.rebuild_subgraphs

        def charged(indices, touched, metrics=None):
            probe = ExecutionMetrics()
            rebuild(indices, touched, probe)
            charges.append((probe.edge_activations, probe.dense_multiply_adds))
            if metrics is not None:
                metrics.edge_activations += probe.edge_activations
                metrics.dense_multiply_adds += probe.dense_multiply_adds

        layered.rebuild_subgraphs = charged
        for step in range(20):
            delta = random_edge_delta(engine.graph, 4, 4, seed=300 + step, protect=0)
            engine.apply_delta(delta)
            payload = layered.to_state()["construction_metrics"]
            for field in ("activations_per_round", "active_vertices_per_round"):
                assert payload[field] == built[field], f"{field} grew at delta {step}"
        # a sum/mul rebuild is closed-form: dense multiply-adds, no edge
        # activation
        activations = sum(charge[0] for charge in charges)
        multiply_adds = sum(charge[1] for charge in charges)
        assert activations + multiply_adds > 0, "no delta rebuilt a shortcut"
        assert construction.edge_activations == built["edge_activations"] + activations
        assert construction.dense_multiply_adds == built["dense_multiply_adds"] + multiply_adds
        assert construction.iterations > built["iterations"]
        assert construction.vertex_updates > built["vertex_updates"]
