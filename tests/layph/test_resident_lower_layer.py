"""The resident lower layer against a whole-subgraph rebuild.

A refresh patches a dense subgraph's tables from the delta's touched
vertices: its host index and replication plan, the entry/exit/internal
split, the dirty rows of its local adjacency (with the memoized compile
spliced along) and the changed sources its shortcut maintenance starts from.
Every refresh — the build's included — is checked here against the
from-scratch derivation of :mod:`oracles`, for all four algorithms
on both routes (array kernels, and the reference loops of the oracle
engine), over a delta sequence that mixes intra-subgraph churn,
cross edges, the out-edges of replicated hosts, exit proxies that form and
go, vertex deletions whose expanded in-edges dirty rows the delta never
names, and new vertices.
Replication runs at threshold 2 so that proxies form; none of the
benchmark's workloads forms one.  A store-restored engine must then carry on
bitwise like the live one.
"""

from __future__ import annotations

import random
import shutil

import numpy as np
import pytest

from repro.engine.algorithms import make_algorithm
from repro.engine.propagation import FactorAdjacency
from repro.graph.csr import FactorCSR
from repro.graph.csr_cache import resident_master_csr
from repro.graph.delta import GraphDelta
from repro.graph.generators import community_graph
from repro.layph.layered_graph import LayeredGraph, LayphConfig
from repro.storage.store import restore_engine

from oracles.layph import (  # noqa: E402  (tests/layph)
    changed_local_sources,
    compute_all_shortcuts,
    rebuild_subgraph,
)
from oracles import ROUTES, engine_on_route, oracle_run_batch  # noqa: E402  (tests/)

ALGORITHMS = ["sssp", "bfs", "pagerank", "php"]
NUM_DELTAS = 20


def _graph():
    # hubs fanning out to several communities make proxies form at
    # threshold 2; 16 vertices stay outliers
    return community_graph(
        num_communities=6,
        community_size_range=(14, 22),
        intra_edge_probability=0.3,
        inter_edges_per_community=6,
        weighted=True,
        seed=11,
        hub_fraction=0.03,
    )


def _config():
    return LayphConfig(seed=11, replication_threshold=2)


def _intra_churn(layered, graph, rng, delta):
    """Delete two edges inside one subgraph and add two."""
    subgraph = rng.choice([s for s in layered.subgraphs if len(s.members) > 3])
    members = sorted(subgraph.members)
    inside = [(s, t) for s in members for t in graph.out_neighbors(s) if t in subgraph.members]
    for source, target in rng.sample(inside, min(2, len(inside))):
        delta.delete_edge(source, target)
    for _ in range(2):
        source, target = rng.sample(members, 2)
        if not graph.has_edge(source, target):
            delta.add_edge(source, target, round(rng.uniform(1.0, 5.0), 3))


def _cross_edges(layered, graph, rng, delta):
    """Add three edges between subgraphs and delete one."""
    for _ in range(3):
        first, second = rng.sample(layered.subgraphs, 2)
        source = rng.choice(sorted(first.members))
        target = rng.choice(sorted(second.members))
        if not graph.has_edge(source, target):
            delta.add_edge(source, target, round(rng.uniform(1.0, 5.0), 3))
    crossing = [
        (s, t)
        for s in sorted(layered.subgraph_of)
        for t in graph.out_neighbors(s)
        if layered.subgraph_of.get(t) not in (None, layered.subgraph_of[s])
    ]
    if crossing:
        delta.delete_edge(*rng.choice(crossing))


def _host_churn(layered, graph, rng, delta):
    """Change the out-degree of a replicated entry host — its rewired edges'
    factors live in a subgraph the delta may not otherwise touch — and cut
    one of its rewired edges."""
    hosts = sorted(
        host
        for subgraph in layered.subgraphs
        for host, proxy, _factor in subgraph.upper_links
        if proxy in subgraph.proxies
    )
    if not hosts:
        return
    host = rng.choice(hosts)
    target = rng.choice(sorted(v for v in graph.vertices() if v != host))
    if not graph.has_edge(host, target):
        delta.add_edge(host, target, round(rng.uniform(1.0, 5.0), 3))
    rewired = sorted(t for s, t in layered._rewired_counts if s == host)
    if rewired and rng.random() < 0.5:
        delta.delete_edge(host, rng.choice(rewired))


def _exit_fan(layered, graph, rng, delta):
    """Make two members feed one outside vertex — an exit proxy forms — or,
    once one has, cut one of its rewired edges: the proxy goes, and the row
    of the other source, which the delta never names, loses its link."""
    fans = sorted(
        (source, host)
        for subgraph in layered.subgraphs
        for proxy, host, _factor in subgraph.upper_links
        if proxy in subgraph.proxies
        for source, target in subgraph.rewired_edges
        if target == host and source in subgraph.members
    )
    if fans:
        delta.delete_edge(*rng.choice(fans))
        return
    subgraph = rng.choice(layered.subgraphs)
    host = rng.choice(sorted(v for v in graph.vertices() if v not in subgraph.members))
    for source in rng.sample(sorted(subgraph.members), 2):
        if not graph.has_edge(source, host):
            delta.add_edge(source, host, round(rng.uniform(1.0, 5.0), 3))


def _vertex_turnover(layered, graph, rng, delta):
    """Delete a member fed by other members (their rows change although the
    delta names only the deleted vertex) and add a vertex wired into a
    subgraph."""
    fed = [
        v
        for v in sorted(layered.subgraph_of)
        if v != 0
        and any(
            layered.subgraph_of.get(u) == layered.subgraph_of[v] for u in graph.in_neighbors(v)
        )
    ]
    victim = rng.choice(fed)
    delta.delete_vertex(victim)
    subgraph = layered.subgraphs[layered.subgraph_of[victim]]
    anchors = sorted(subgraph.members - {victim})
    vertex = max(graph.vertices()) + 1
    delta.add_vertex(
        vertex,
        [(vertex, rng.choice(anchors), 2.0), (rng.choice(anchors), vertex, 3.0)],
    )


STEPS = [_intra_churn, _cross_edges, _host_churn, _exit_fan, _vertex_turnover]


def _next_delta(engine, step, rng):
    delta = GraphDelta()
    STEPS[step % len(STEPS)](engine.layered, engine.graph, rng, delta)
    return delta


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


def _assert_csr_equals_fresh_compile(subgraph):
    memo = resident_master_csr(subgraph.local_adjacency)
    if memo is None:
        return False
    fresh = FactorCSR.from_factor_adjacency(subgraph.local_adjacency, universe=memo.vertex_ids)
    assert memo.vertex_ids == fresh.vertex_ids
    assert np.array_equal(memo.offsets, fresh.offsets)
    assert np.array_equal(memo.targets, fresh.targets)
    assert np.array_equal(_bits(memo.factors), _bits(fresh.factors))
    return True


def _assert_proxy_rows_current(layered):
    """Every entry proxy's row carries its host's current factors, refreshed
    or not, and no edge is rewired twice."""
    assert all(count == 1 for count in layered._rewired_counts.values())
    spec, graph = layered.spec, layered.graph
    for subgraph in layered.subgraphs:
        for host, proxy, _factor in subgraph.upper_links:
            if proxy not in subgraph.proxies:
                continue  # an exit proxy: no row of its own
            targets = sorted(
                t for s, t in subgraph.rewired_edges if s == host and t in subgraph.members
            )
            want = [(t, spec.edge_factor(graph, host, t)) for t in targets]
            assert subgraph.local_adjacency(proxy) == want


def _dense(vectors, sources, columns):
    """``{source: {target: weight}}`` as a ``sources × columns`` block."""
    index = {vertex: column for column, vertex in enumerate(columns)}
    block = np.full((len(sources), len(columns)), np.inf)
    for row, source in enumerate(sources):
        for target, weight in vectors.get(source, {}).items():
            block[row, index[target]] = weight
    return block


def _boundary_closure(block, sources, columns):
    """The min-plus closure of a min/+ table over boundary hops: every
    source's best route to every column through any chain of shortcuts
    between boundary vertices (the routes the upper layer composes)."""
    hops = block[:, [columns.index(source) for source in sources]]
    np.fill_diagonal(hops, 0.0)
    for middle in range(len(sources)):
        hops = np.minimum(hops, hops[:, middle : middle + 1] + hops[middle : middle + 1, :])
    return np.min(hops[:, :, None] + block[None, :, :], axis=1)


def _assert_tables_match_a_rebuild(spec, subgraph):
    """The subgraph's table against a from-scratch solve of its boundary.

    SSSP's is bitwise the rebuild's.  A sum/mul row kept from an earlier
    closed-form solve differs from the rebuild's by that solve's roundoff
    only.  BFS keeps its rows across boundary gains, so a row may hold
    entries through a vertex that absorbs now: it is entrywise at most the
    rebuild's, and the two closures over boundary hops are equal.
    """
    have = subgraph.shortcuts.vectors()
    fresh = compute_all_shortcuts(spec, subgraph.local_adjacency, subgraph.boundary)
    label = f"subgraph {subgraph.index}"
    assert have.keys() == fresh.keys(), label
    if spec.name == "sssp":
        assert {s: _state_bits(r) for s, r in have.items()} == {
            s: _state_bits(r) for s, r in fresh.items()
        }, label
    elif not spec.is_selective():
        for source, row in fresh.items():
            assert row.keys() == have[source].keys(), label
            assert all(abs(have[source][t] - w) <= 1e-12 for t, w in row.items()), label
    else:
        sources = sorted(fresh)
        columns = sorted(set(sources).union(*have.values(), *fresh.values()))
        kept, rebuilt = _dense(have, sources, columns), _dense(fresh, sources, columns)
        assert (kept <= rebuilt).all(), label
        assert np.array_equal(
            _boundary_closure(kept, sources, columns), _boundary_closure(rebuilt, sources, columns)
        ), label


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_every_refresh_matches_a_whole_subgraph_rebuild(monkeypatch, algorithm, route):
    seen = dict.fromkeys(["spliced", "changed", "gone", "proxy_moves", "exit_dropped"], 0)
    recorded = []
    stale = LayeredGraph._stale_shortcut_sources
    refresh = LayeredGraph._refresh_subgraph

    def recording_stale(changed_sources, *args):
        recorded.append(set(changed_sources))
        return stale(changed_sources, *args)

    def checked_refresh(self, subgraph, touched, batch, metrics):
        old_local = FactorAdjacency(
            {v: list(row) for v, row in subgraph.local_adjacency._adjacency.items()}
        )
        had_tables = bool(subgraph.shortcuts)
        old_proxies = dict(subgraph.proxies)
        old_exit_proxies = subgraph.exit & old_proxies.keys()
        old_vertices = subgraph.entry | subgraph.exit | subgraph.internal
        del recorded[:]
        refresh(self, subgraph, touched, batch, metrics)

        entry, exit_, internal, plan, local = rebuild_subgraph(self, subgraph)
        label = f"subgraph {subgraph.index}"
        assert subgraph.entry == entry, label
        assert subgraph.exit == exit_, label
        assert subgraph.internal == internal, label
        assert subgraph.proxies == plan.proxies, label
        assert subgraph.rewired_edges == plan.rewired_edges, label
        assert subgraph.upper_links == plan.upper_links, label
        # ordered rows: each row's link order fixes the float fold order
        assert subgraph.local_adjacency._adjacency == local._adjacency, label
        if _assert_csr_equals_fresh_compile(subgraph):
            seen["spliced"] += 1
            memo = resident_master_csr(subgraph.local_adjacency)
            if had_tables:
                assert set(memo.vertex_ids) == subgraph.all_vertices, label
        want = changed_local_sources(old_local, local) if had_tables else set()
        assert recorded == [want], label
        seen["changed"] += bool(want)
        seen["gone"] += bool(old_vertices - subgraph.members - set(old_proxies))
        seen["proxy_moves"] += old_proxies != subgraph.proxies and had_tables
        seen["exit_dropped"] += bool(old_exit_proxies - subgraph.proxies.keys())

    monkeypatch.setattr(LayeredGraph, "_stale_shortcut_sources", staticmethod(recording_stale))
    monkeypatch.setattr(LayeredGraph, "_refresh_subgraph", checked_refresh)

    spec = make_algorithm(algorithm, source=0)
    engine = engine_on_route("layph", spec, route, _config())
    engine.initialize(_graph())
    assert engine.layered.proxy_vertices(), "no proxy formed"
    tolerance = 1e-9 if spec.is_selective() else 1e-3
    rng = random.Random(5)
    for step in range(NUM_DELTAS):
        result = engine.apply_delta(_next_delta(engine, step, rng))
        _assert_proxy_rows_current(engine.layered)
        for subgraph in engine.layered.subgraphs:
            _assert_tables_match_a_rebuild(spec, subgraph)
        reference = oracle_run_batch(spec, engine.graph).states
        assert spec.states_match(result.states, reference, tolerance=tolerance), f"delta {step}"

    assert seen["changed"], "no refresh changed a local row"
    assert seen["gone"], "no refresh lost a member"
    assert seen["proxy_moves"], "no refresh changed the replication plan"
    assert seen["exit_dropped"], "no exit proxy went"
    if route == "declared":
        assert seen["spliced"] > len(engine.layered.subgraphs), "no memo was carried"


def _tables(engine):
    return [
        [(source, _state_bits(row)) for source, row in subgraph.shortcuts.vectors().items()]
        for subgraph in engine.layered.subgraphs
    ]


def _rows(engine):
    return [
        (list(s.local_adjacency._adjacency.items()), s.local_adjacency.version)
        for s in engine.layered.subgraphs
    ]


def _state_bits(states):
    return [(vertex, float(value).hex()) for vertex, value in states.items()]


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("algorithm", ["pagerank", "sssp"])
def test_restored_engine_continues_bitwise(monkeypatch, tmp_path, algorithm, route):
    # the restore rebuilds the engine on the same route as the live one
    import repro.incremental

    monkeypatch.setattr(
        repro.incremental,
        "make_engine",
        lambda name, spec, config=None: engine_on_route(name, spec, route, config),
    )
    spec = make_algorithm(algorithm, source=0)
    live = engine_on_route("layph", spec, route, _config())
    live.initialize(_graph())
    rng = random.Random(9)
    for step in range(4):
        live.apply_delta(_next_delta(live, step, rng))
    live.save(str(tmp_path / "live"))
    shutil.copytree(tmp_path / "live", tmp_path / "copy")
    restored, _report = restore_engine(str(tmp_path / "copy"))
    # the patched rows travel in order, with their mutation counters
    assert _rows(restored) == _rows(live)
    for step in range(4, 8):
        delta = _next_delta(live, step, rng)
        want = live.apply_delta(delta)
        got = restored.apply_delta(delta)
        assert _state_bits(got.states) == _state_bits(want.states), f"delta {step}"
        assert got.metrics.edge_activations == want.metrics.edge_activations
        assert _tables(restored) == _tables(live), f"delta {step}"
        assert _rows(restored) == _rows(live), f"delta {step}"
