"""Regression tests for Layph's diff-based upper-layer maintenance.

The upper layer is one resident compiled CSR, which the online engine
patches per delta (:meth:`repro.layph.layered_graph.LayeredGraph.patch_upper`)
instead of reassembling the whole skeleton — for every delta kind, vertex
removals included — by splicing the dirty rows, re-derived as flat arrays,
into it.  These tests pin the spliced CSR (ids, offsets, targets, factor
bits) and the upper vertex set to a fresh Python assembly's compile
(``oracles.layph.assemble_upper``)
after every delta of edge, vertex-churn and bridge-edge sequences, and
assert through the ``upper_patches``/``upper_reuses``/``upper_rebuilds``
counters and a compile spy that the patch path actually engaged (no silent
full rebuilds or recompiles).  The changed-link list the patch hands the
selective upload is pinned to a diff of two whole-layer flattens.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.engine.algorithms import make_algorithm
from repro.engine.metrics import ExecutionMetrics
from repro.graph.delta import GraphDelta
from repro.layph import layered_graph
from repro.layph.engine import LayphEngine
from repro.layph.layered_graph import LayeredGraph
from repro.layph.vectorized import seed_tainted_upper
from repro.workloads.datasets import DATASETS
from repro.workloads.updates import random_edge_delta, random_vertex_delta

from oracles import ROUTES, engine_on_route  # noqa: E402  (tests/)
from oracles.layph import assemble_upper, upper_in_adjacency  # noqa: E402  (tests/)

NUM_DELTAS = 20
ALGORITHMS = ["sssp", "bfs", "pagerank", "php"]


def _delta_sequence(graph, include_vertex_deltas: bool):
    """Edge deltas with (optionally) a vertex delta every fifth step."""
    deltas = []
    current = graph.copy()
    for seed in range(NUM_DELTAS):
        if include_vertex_deltas and seed % 5 == 4:
            delta = random_vertex_delta(current, 2, 2, seed=seed, protect=0)
        else:
            delta = random_edge_delta(current, 4, 4, seed=seed, protect=0)
        deltas.append(delta)
        current = delta.apply(current)
    return deltas


def _churn_sequence(graph, count: int = 12):
    """Vertex churn (adds and deletes) on two steps of three, edges between."""
    deltas = []
    current = graph.copy()
    for seed in range(count):
        if seed % 3 == 2:
            delta = random_edge_delta(current, 4, 4, seed=seed, protect=0)
        else:
            delta = random_vertex_delta(current, 2, 2, seed=seed, protect=0)
        deltas.append(delta)
        current = delta.apply(current)
    return deltas


def _assert_upper_is_fresh_assembly(layered) -> None:
    """The resident upper CSR is bit for bit a fresh reassembly's compile."""
    fresh, fresh_vertices = assemble_upper(layered)
    resident = layered.upper_csr()
    assert resident.vertex_ids == fresh.vertex_ids
    assert np.array_equal(resident.ids_array(), np.asarray(fresh.vertex_ids))
    assert np.array_equal(resident.offsets, fresh.offsets)
    assert np.array_equal(resident.targets, fresh.targets)
    assert resident.factors.tobytes() == fresh.factors.tobytes()
    assert layered.upper_vertices == fresh_vertices


@pytest.mark.parametrize("algorithm", ["pagerank", "sssp"])
@pytest.mark.parametrize("route", ROUTES)
def test_patched_upper_equals_fresh_rebuild(algorithm, route):
    """After every delta the patched upper layer == a fresh reassembly."""
    graph = DATASETS["uk"].build()
    engine = engine_on_route("layph", make_algorithm(algorithm, source=0), route)
    engine.initialize(graph)
    layered = engine.layered
    rebuilds_after_init = layered.upper_rebuilds

    for delta in _delta_sequence(graph, include_vertex_deltas=False):
        engine.apply_delta(delta)
        _assert_upper_is_fresh_assembly(layered)

    # Every delta must have gone through the diff path — no silent full
    # rebuilds.
    assert layered.upper_patches + layered.upper_reuses == NUM_DELTAS
    assert layered.upper_rebuilds == rebuilds_after_init
    assert layered.upper_patches > 0


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_removal_deltas_patch(algorithm):
    """Vertex churn rides the patch path: no reassembly after ``initialize``."""
    graph = DATASETS["uk"].build()
    engine = LayphEngine(make_algorithm(algorithm, source=0))
    engine.initialize(graph)
    layered = engine.layered
    rebuilds_after_init = layered.upper_rebuilds

    removal_deltas = 0
    deltas = _churn_sequence(graph)
    for delta in deltas:
        old_vertices = set(engine.graph.vertices())
        engine.apply_delta(delta)
        if old_vertices - set(engine.graph.vertices()):
            removal_deltas += 1
        _assert_upper_is_fresh_assembly(layered)
        assert layered.proxy_vertices() <= layered.upper_vertices

    assert removal_deltas > 0
    assert layered.upper_rebuilds == rebuilds_after_init
    assert layered.upper_patches + layered.upper_reuses == len(deltas)


def _proxy_churn(engine):
    """Deltas that make proxies join and leave the upper layer.

    A brand-new host wired to three members of one dense subgraph gets an
    entry proxy there; deleting it drops the proxy again; deleting the host
    of a proxy that existed from the start drops that one too.  Generated
    lazily: each delta is built against the engine's current graph.
    """
    layered = engine.layered
    subgraph = max(layered.subgraphs, key=lambda candidate: len(candidate.members))
    host = max(engine.graph.vertices()) + 1
    arrival = GraphDelta()
    arrival.add_vertex(host)
    for member in sorted(subgraph.members)[:3]:
        arrival.add_edge(host, member, 1.0)
    arrival.add_edge(0, host, 1.0)
    yield arrival
    departure = GraphDelta()
    departure.delete_vertex(host)
    yield departure
    old_host = next(
        host
        for candidate in layered.subgraphs
        for host in candidate.proxies.values()
        if host != 0
    )
    eviction = GraphDelta()
    eviction.delete_vertex(old_host)
    yield eviction


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_spliced_upper_csr_is_bit_identical_to_a_fresh_compile(algorithm, monkeypatch):
    """The resident upper CSR after every delta == compiling it from scratch.

    Ids, offsets, targets and factor bits; the id space is exactly the live
    vertices plus the live proxies (removed vertices and dropped proxies
    leave it — no id leak); and the whole layer is compiled exactly once,
    by the build.
    """
    graph = DATASETS["sk"].build()
    engine = LayphEngine(make_algorithm(algorithm, source=0))
    whole_compiles = []
    compile_rows = layered_graph._compile_rows

    def spy(ids, rows):
        whole_compiles.append(1)
        return compile_rows(ids, rows)

    monkeypatch.setattr(layered_graph, "_compile_rows", spy)
    engine.initialize(graph)
    layered = engine.layered
    assert layered.proxy_vertices()
    assert len(whole_compiles) == 1

    gone = set()
    arrived = set()

    def step(delta):
        old_ids = set(engine.graph.vertices()) | layered.proxy_vertices()
        compiles = len(whole_compiles)
        engine.apply_delta(delta)
        assert len(whole_compiles) == compiles
        live = set(engine.graph.vertices()) | layered.proxy_vertices()
        gone.update(old_ids - live)
        arrived.update(live - old_ids)
        assert set(layered.upper_csr().vertex_ids) == live
        _assert_upper_is_fresh_assembly(layered)

    for delta in _churn_sequence(graph):
        step(delta)
    for delta in _proxy_churn(engine):
        step(delta)
    # vertices and proxies both joined and left the compiled id space
    assert any(v >= 0 for v in gone) and any(v < 0 for v in gone)
    assert any(v >= 0 for v in arrived) and any(v < 0 for v in arrived)
    assert layered.upper_rebuilds == 1


@pytest.mark.parametrize("algorithm", ["sssp", "bfs"])
def test_masked_in_link_gather_matches_reverse_scan(algorithm):
    """``seed_tainted_upper`` == the brute-force walk over a reverse view.

    Same seeded messages and the same activation count (one per in-link of
    a tainted vertex, counted before any skip) as the Python reference loop
    of the oracle engine.
    """
    graph = DATASETS["uk"].build()
    spec = make_algorithm(algorithm, source=0)
    engine = LayphEngine(spec)
    engine.initialize(graph)
    layered = engine.layered
    identity = spec.aggregate_identity()
    upper = sorted(layered.upper_vertices)
    incoming = upper_in_adjacency(layered)

    for stride in (1, 7, 40):
        tainted = set(upper[::stride])
        work = dict(engine.states)
        work.update(engine.proxy_states)
        for vertex in tainted:
            work[vertex] = identity

        expected_pending = {}
        expected_activations = 0
        for vertex in sorted(tainted):
            best = spec.initial_message(vertex) if vertex >= 0 else identity
            for source, factor in incoming.get(vertex, []):
                expected_activations += 1
                source_state = work.get(source, identity)
                if source_state == identity:
                    continue
                best = spec.aggregate(best, spec.combine(source_state, factor))
            if spec.is_significant(best):
                expected_pending[vertex] = best

        pending = {}
        metrics = ExecutionMetrics()
        seed_tainted_upper(spec, layered, tainted, work, pending, metrics)
        assert pending == expected_pending
        assert metrics.edge_activations == expected_activations
    assert expected_activations > 0


def _flatten_links(adjacency):
    """Every ``(source, target)`` link of the layer, the better of parallels."""
    links = {}
    for source in adjacency.vertices_with_out_edges():
        for target, factor in adjacency(source):
            key = (source, target)
            links[key] = min(links.get(key, factor), factor)
    return links


def test_upper_diff_matches_whole_layer_flattens(monkeypatch):
    """``patch_upper``'s changed-link list == the diff of the old and new
    flattens: exactly the keys whose factor differs between two whole-layer
    flattens, in ``(source, target)`` order, for edge and vertex deltas
    alike."""
    returned = _recorded_patches(monkeypatch)
    graph = DATASETS["uk"].build()
    engine = LayphEngine(make_algorithm("sssp", source=0))
    engine.initialize(graph)
    layered = engine.layered
    changed_total = 0
    for delta in _delta_sequence(graph, include_vertex_deltas=True)[:6]:
        old_links = _flatten_links(layered.upper_adjacency)
        engine.apply_delta(delta)
        new_links = _flatten_links(layered.upper_adjacency)
        expected = [
            (source, target, old_links.get((source, target)), new_links.get((source, target)))
            for source, target in sorted(old_links.keys() | new_links.keys())
            if old_links.get((source, target)) != new_links.get((source, target))
        ]
        assert returned[-1] == expected
        changed_total += len(expected)
    assert changed_total > 0


def _recorded_patches(monkeypatch):
    """Every changed-link list ``patch_upper`` returns, in call order, as
    ``(source, target, old, new)`` tuples with ``None`` where absent."""
    returned = []
    patch_upper = LayeredGraph.patch_upper

    def recording_patch(self, *args, **kwargs):
        changed = patch_upper(self, *args, **kwargs)
        returned.append(
            [
                (source, target, None if old == math.inf else old, None if new == math.inf else new)
                for source, target, old, new in zip(*(column.tolist() for column in changed))
            ]
        )
        return changed

    monkeypatch.setattr(LayeredGraph, "patch_upper", recording_patch)
    return returned


def _bridge_deltas(engine, count: int = 10, per_delta: int = 3):
    """Inter-community edges only, as on the bridge workload: each joins an
    internal vertex of one dense subgraph to an internal vertex of another,
    so every delta turns internal vertices into boundary ones; every third
    delta also deletes an earlier bridge, which can turn them back.
    Generated lazily against the engine's current layered graph."""
    rng = random.Random(3)
    bridges = []
    for step in range(count):
        graph = engine.graph
        candidates = [s for s in engine.layered.subgraphs if len(s.internal) > 1]
        delta = GraphDelta()
        if step % 3 == 2:
            source, target = bridges.pop(0)
            delta.delete_edge(source, target)
        while len(delta.edge_updates) < per_delta:
            left, right = rng.sample(candidates, 2)
            source = rng.choice(sorted(left.internal))
            target = rng.choice(sorted(right.internal))
            if not graph.has_edge(source, target):
                delta.add_edge(source, target, 1.0)
                bridges.append((source, target))
        yield delta


@pytest.mark.parametrize("algorithm", ["bfs", "pagerank"])
def test_bridge_deltas_keep_the_upper_csr_exact(algorithm, monkeypatch):
    """Bridge-shaped deltas flip boundary vertices every time; after each,
    the spliced upper CSR is bit-identical to a fresh compile and the
    changed-link list is the diff of two whole-layer flattens (empty for an
    accumulative spec, which reads none: the flattens still differ)."""
    returned = _recorded_patches(monkeypatch)
    graph = DATASETS["uk"].build()
    engine = LayphEngine(make_algorithm(algorithm, source=0))
    engine.initialize(graph)
    layered = engine.layered
    selective = engine.spec.is_selective()
    for delta in _bridge_deltas(engine):
        old_links = _flatten_links(layered.upper_adjacency)
        old_upper = set(layered.upper_vertices)
        engine.apply_delta(delta)
        assert layered.upper_vertices - old_upper, "the delta flipped no vertex"
        _assert_upper_is_fresh_assembly(layered)
        new_links = _flatten_links(layered.upper_adjacency)
        expected = [
            (source, target, old_links.get((source, target)), new_links.get((source, target)))
            for source, target in sorted(old_links.keys() | new_links.keys())
            if old_links.get((source, target)) != new_links.get((source, target))
        ]
        assert expected
        assert returned[-1] == (expected if selective else [])
    assert layered.upper_rebuilds == 1
