"""Persistent slab-arena cache (PR 10): resident blocks == fresh exports, bitwise.

The arena layer's contract is that whatever bytes a worker reads through the
resident shared-memory block are *exactly* the bytes of the slab the caller
just compiled — whether the call was a miss (full export), a hit (masks-only
refresh) or an in-place patch of O(changed) slot ranges.  The property tests
drive cache-served CSR snapshots through random delta sequences (weight-only
steady state, structural churn with vertex turnover, growth past the region
capacity, churn past the re-export fraction) and compare every served block
byte-for-byte against the freshly built slab, while pinning the expected
hit/miss/patch counter trajectory.  The fallbacks — ``REPRO_SLAB_ARENA=0``,
``REPRO_SHM=0`` and uncacheable per-call compiles — must all yield ``None``
from ``refs_for`` so the backend degrades to the per-call export path.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.engine.algorithms import make_algorithm
from repro.engine.dense_propagation import build_propagation_slab
from repro.graph.csr_cache import CSRCache
from repro.graph.delta import GraphDelta
from repro.graph.generators import community_graph
from repro.parallel import arena, executor, shm
from repro.parallel.executor import POOL_STATS
from repro.workloads.updates import random_edge_delta, random_vertex_delta

pytestmark = pytest.mark.skipif(
    not shm.shm_available(), reason="shared memory unavailable in this environment"
)

ALGORITHMS = ["sssp", "bfs", "pagerank", "php"]


@pytest.fixture()
def fresh_arena():
    executor.shutdown_pools()
    POOL_STATS.reset()
    yield arena.slab_arena_cache()
    shm.detach_all()
    arena.reset_slab_arenas()
    executor.shutdown_pools()


@pytest.fixture()
def csr_cache_on(monkeypatch):
    """Arena residency is keyed on cache-served snapshots: the residency
    tests pin the CSR cache on, whatever ``REPRO_CSR_CACHE`` the run sets."""
    monkeypatch.setenv("REPRO_CSR_CACHE", "1")


def _graph(seed: int = 13):
    return community_graph(
        num_communities=3,
        community_size_range=(14, 20),
        intra_edge_probability=0.3,
        inter_edges_per_community=3,
        weighted=True,
        seed=seed,
    )


def _weight_delta(graph, num_changes: int, seed: int) -> GraphDelta:
    """Reweight ``num_changes`` existing edges — vertex id space unchanged,
    so the CSR patches forward with ``same_ids`` notes (the steady state)."""
    rng = random.Random(seed)
    edges = sorted(graph.edges())
    rng.shuffle(edges)
    delta = GraphDelta()
    for source, target, weight in edges[:num_changes]:
        delta.delete_edge(source, target)
        delta.add_edge(source, target, round(float(weight) + rng.uniform(0.1, 2.0), 3))
    return delta


def _slab(spec, cache: CSRCache, graph):
    built = build_propagation_slab(
        spec, cache.adjacency(spec, graph), {}, {0: 1.0}
    )
    assert built is not None, "slab compilation unexpectedly fell back"
    return built[0]


def _assert_block_matches(refs, slab):
    """The shared block a worker would attach is bitwise the slab's arrays."""
    assert refs is not None
    for key, array in (
        ("targets", slab.targets),
        ("factors", slab.factors),
        ("absorb", slab.absorb),
    ):
        view = shm.attach(refs[key])
        assert view.dtype == array.dtype
        assert view.shape == array.shape
        assert view.tobytes() == array.tobytes(), f"{key} diverged from fresh export"
    assert (refs["allowed"] is None) == (slab.allowed is None)
    if slab.allowed is not None:
        assert shm.attach(refs["allowed"]).tobytes() == slab.allowed.tobytes()


# ----------------------------------------------------------------------
# the property: served blocks are bitwise fresh exports
# ----------------------------------------------------------------------
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.usefixtures("csr_cache_on")
def test_weight_delta_sequence_patches_in_place(fresh_arena, algorithm):
    """Steady state: weight-only deltas must be served by in-place patches
    (one initial export, zero further misses), every block bitwise."""
    spec = make_algorithm(algorithm, source=0)
    cache = CSRCache()
    graph = _graph()
    slab = _slab(spec, cache, graph)
    _assert_block_matches(fresh_arena.refs_for(slab), slab)
    assert POOL_STATS.arena_misses == 1
    for step in range(6):
        delta = _weight_delta(graph, num_changes=3, seed=100 + step)
        new_graph = delta.apply(graph)
        cache.apply_delta(spec, graph, new_graph, delta)
        graph = new_graph
        slab = _slab(spec, cache, graph)
        _assert_block_matches(fresh_arena.refs_for(slab), slab)
    assert POOL_STATS.arena_misses == 1, "steady-state delta forced a re-export"
    assert POOL_STATS.arena_patches == 6


@pytest.mark.usefixtures("csr_cache_on")
def test_repeat_calls_hit_the_resident_block(fresh_arena):
    spec = make_algorithm("sssp", source=0)
    cache = CSRCache()
    graph = _graph()
    slab = _slab(spec, cache, graph)
    _assert_block_matches(fresh_arena.refs_for(slab), slab)
    for _ in range(3):
        slab = _slab(spec, cache, graph)
        _assert_block_matches(fresh_arena.refs_for(slab), slab)
    assert POOL_STATS.arena_misses == 1
    assert POOL_STATS.arena_hits == 3


@pytest.mark.parametrize("algorithm", ["sssp", "pagerank"])
@pytest.mark.usefixtures("csr_cache_on")
def test_structural_churn_stays_bitwise(fresh_arena, algorithm):
    """Edge and vertex turnover (ids shifting between snapshots): whatever
    mix of patches, re-exports and rebuilds results, every served block must
    equal the fresh compile byte-for-byte."""
    spec = make_algorithm(algorithm, source=0)
    cache = CSRCache()
    graph = _graph(seed=29)
    served = 0
    for step in range(8):
        slab = _slab(spec, cache, graph)
        refs = fresh_arena.refs_for(slab)
        _assert_block_matches(refs, slab)
        served += 1
        if step % 3 == 2:
            delta = random_vertex_delta(
                graph, num_additions=2, num_deletions=1, seed=800 + step, protect=0
            )
        else:
            delta = random_edge_delta(
                graph, num_additions=4, num_deletions=3, seed=700 + step, protect=0
            )
        new_graph = delta.apply(graph)
        cache.apply_delta(spec, graph, new_graph, delta)
        graph = new_graph
    assert (
        POOL_STATS.arena_misses + POOL_STATS.arena_patches + POOL_STATS.arena_hits
        == served
    )


@pytest.mark.usefixtures("csr_cache_on")
def test_churn_fraction_forces_reexport(fresh_arena):
    """A patch touching more than ``REPRO_CSR_REBUILD_FRACTION`` of the edge
    slots must give way to a full re-export (the amortization guard)."""
    spec = make_algorithm("sssp", source=0)
    # rebuild_fraction=1.0 keeps the CSR cache patching (and producing patch
    # notes) no matter the delta size, so the *arena's* churn guard decides.
    cache = CSRCache(rebuild_fraction=1.0)
    graph = _graph(seed=31)
    slab = _slab(spec, cache, graph)
    _assert_block_matches(fresh_arena.refs_for(slab), slab)
    num_edges = graph.num_edges()
    delta = _weight_delta(graph, num_changes=num_edges // 2 + 1, seed=5)
    new_graph = delta.apply(graph)
    cache.apply_delta(spec, graph, new_graph, delta)
    slab = _slab(spec, cache, new_graph)
    _assert_block_matches(fresh_arena.refs_for(slab), slab)
    assert POOL_STATS.arena_patches == 0
    assert POOL_STATS.arena_misses == 2


@pytest.mark.usefixtures("csr_cache_on")
def test_growth_past_region_capacity_reallocates(fresh_arena):
    """A snapshot that outgrows its power-of-two regions re-exports into a
    fresh (bigger) arena and keeps serving bitwise-identical blocks."""
    spec = make_algorithm("sssp", source=0)
    cache = CSRCache(rebuild_fraction=1.0)
    graph = community_graph(
        num_communities=2,
        community_size_range=(8, 10),
        intra_edge_probability=0.15,
        inter_edges_per_community=2,
        weighted=True,
        seed=3,
    )
    slab = _slab(spec, cache, graph)
    _assert_block_matches(fresh_arena.refs_for(slab), slab)
    small_targets = int(slab.targets.size)
    # quadruple-ish the edge count: past any pow2 slack of the small block
    delta = random_edge_delta(
        graph,
        num_additions=small_targets * 3,
        num_deletions=0,
        seed=17,
        protect=0,
    )
    new_graph = delta.apply(graph)
    cache.apply_delta(spec, graph, new_graph, delta)
    slab = _slab(spec, cache, new_graph)
    assert int(slab.targets.size) > 2 * small_targets
    _assert_block_matches(fresh_arena.refs_for(slab), slab)
    assert POOL_STATS.arena_misses == 2
    # ...and the grown block keeps hitting
    slab = _slab(spec, cache, new_graph)
    _assert_block_matches(fresh_arena.refs_for(slab), slab)
    assert POOL_STATS.arena_hits == 1


# ----------------------------------------------------------------------
# fallbacks: refs_for must return None, never a wrong block
# ----------------------------------------------------------------------
def test_arena_disabled_by_env(fresh_arena, monkeypatch):
    spec = make_algorithm("sssp", source=0)
    cache = CSRCache()
    graph = _graph()
    slab = _slab(spec, cache, graph)
    monkeypatch.setenv("REPRO_SLAB_ARENA", "0")
    assert fresh_arena.refs_for(slab) is None
    monkeypatch.delenv("REPRO_SLAB_ARENA")
    monkeypatch.setenv("REPRO_SHM", "0")
    assert fresh_arena.refs_for(slab) is None


def test_uncached_compile_is_not_arena_keyed(fresh_arena, monkeypatch):
    """With the CSR cache disabled every compile is a per-call object — the
    slab must carry no block token, or the arena would churn per call."""
    monkeypatch.setenv("REPRO_CSR_CACHE", "0")
    spec = make_algorithm("sssp", source=0)
    cache = CSRCache()
    graph = _graph()
    slab = _slab(spec, cache, graph)
    assert slab.block_token is None
    assert fresh_arena.refs_for(slab) is None
    assert POOL_STATS.arena_misses == 0


# ----------------------------------------------------------------------
# the parallel shortcut phase rides the same pool
# ----------------------------------------------------------------------
def _metrics_fingerprint(metrics):
    return (
        metrics.iterations,
        metrics.edge_activations,
        metrics.vertex_updates,
        list(metrics.activations_per_round),
        list(metrics.active_vertices_per_round),
    )


def _shortcut_tables(layered):
    """Every subgraph's shortcut tables, key order and exact bits included."""
    return [
        [
            (source, [(target, float(value).hex()) for target, value in row.items()])
            for source, row in subgraph.shortcuts.items()
        ]
        for subgraph in layered.subgraphs
    ]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_layph_shortcut_phase_pooled_and_bitwise(fresh_arena, monkeypatch, algorithm):
    """Deferred shortcut solves of rebuilt subgraphs run as one LPT-scheduled
    pool batch of lockstep multi-source kernel tasks and stay
    bitwise-identical to serial: states, per-delta metrics, every shortcut
    table (values and key order) and the construction-metric totals."""
    monkeypatch.setenv("REPRO_WORKERS", "2")
    monkeypatch.setenv("REPRO_PARALLEL_MIN_EDGES", "0")
    from repro.bench.harness import build_engine

    def run(backend: str):
        spec = make_algorithm(algorithm, source=0)
        engine = build_engine("layph", spec, backend=backend)
        engine.initialize(_graph(seed=47))
        outputs = []
        for step in range(4):
            delta = random_edge_delta(
                engine.graph,
                num_additions=5,
                num_deletions=4,
                seed=900 + step,
                protect=0,
            )
            result = engine.apply_delta(delta)
            construction = engine.layered.construction_metrics
            outputs.append(
                (
                    dict(result.states),
                    _metrics_fingerprint(result.metrics),
                    _shortcut_tables(engine.layered),
                    (
                        construction.edge_activations,
                        construction.vertex_updates,
                        construction.iterations,
                    ),
                )
            )
        return outputs

    serial = run("numpy")
    POOL_STATS.reset()
    parallel = run("numpy-parallel")
    for step, (expected, actual) in enumerate(zip(serial, parallel)):
        assert expected[0] == actual[0], f"states diverged at delta {step}"
        assert expected[1] == actual[1], f"metrics diverged at delta {step}"
        assert expected[2] == actual[2], f"shortcut tables diverged at delta {step}"
        assert expected[3] == actual[3], f"construction totals diverged at delta {step}"
    assert POOL_STATS.shortcut_batches >= 1, (
        "no deferred shortcut batch ever reached the pool"
    )
