"""Reference implementations the Layph tests check the program against.

The whole-subgraph rebuild, the oracle of the resident lower layer:
``LayeredGraph._refresh_subgraph`` patches a dense subgraph's tables from a
delta's touched vertices, and the functions below re-derive the same tables
from the graph alone, in O(|subgraph|): a full entry/exit/internal scan, a
full replication scan over the boundary, the local factor adjacency rebuilt
from scratch, and the changed sources found by comparing every row.

And two compositions of :mod:`repro.layph.shortcuts` for one subgraph:
one boundary vertex's incremental shortcut update, and every boundary
vertex's from-scratch vector.  Last, the upper layer: its assembly from the
graph and the subgraph tables by Python loops (:func:`assemble_upper`), the
reference for the array rows the program builds and splices, and its
reverse view (:func:`upper_in_adjacency`), the reference for reading a
skeleton vertex's in-links.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.engine.algorithm import AlgorithmSpec
from repro.engine.metrics import ExecutionMetrics
from repro.engine.propagation import FactorAdjacency
from repro.graph.csr import FactorCSR
from repro.layph.dense import BoundaryClassification, classify_boundary
from repro.layph.replication import ReplicationPlan
from repro.layph.shortcuts import (
    ShortcutBatch,
    ShortcutTable,
    compute_shortcut_vectors,
    shortcut_revision,
)


def plan_replication_scan(
    spec, graph, classification: BoundaryClassification, threshold: int, allocate, claimed
) -> ReplicationPlan:
    """The replication plan from a scan of the boundary's outside neighbours;
    ``claimed(edge)`` tells the edges another subgraph rewires."""
    members = classification.members
    plan = ReplicationPlan()
    identity = spec.combine_identity()
    inbound_by_host: Dict[int, List[int]] = {}
    for entry_vertex in sorted(classification.entry):
        for host in graph.in_neighbors(entry_vertex):
            if host not in members and not claimed((host, entry_vertex)):
                inbound_by_host.setdefault(host, []).append(entry_vertex)
    for host in sorted(inbound_by_host):
        targets = inbound_by_host[host]
        if len(targets) < threshold:
            continue
        proxy = allocate(host, "entry")
        plan.proxies[proxy] = host
        plan.entry_proxies.add(proxy)
        plan.upper_links.append((host, proxy, identity))
        for target in targets:
            plan.rewired_edges.add((host, target))
            plan.local_links.append((proxy, target, spec.edge_factor(graph, host, target)))
    outbound_by_host: Dict[int, List[int]] = {}
    for exit_vertex in sorted(classification.exit):
        for host in graph.out_neighbors(exit_vertex):
            if host not in members and not claimed((exit_vertex, host)):
                outbound_by_host.setdefault(host, []).append(exit_vertex)
    for host in sorted(outbound_by_host):
        sources = outbound_by_host[host]
        if len(sources) < threshold:
            continue
        proxy = allocate(host, "exit")
        plan.proxies[proxy] = host
        plan.exit_proxies.add(proxy)
        plan.upper_links.append((proxy, host, identity))
        for source in sources:
            plan.rewired_edges.add((source, host))
            plan.local_links.append((source, proxy, spec.edge_factor(graph, source, host)))
    return plan


def reclassify_with_replication(
    graph, classification: BoundaryClassification, plan: ReplicationPlan
) -> Tuple[Set[int], Set[int], Set[int]]:
    """Entry/exit/internal after rewiring, from a scan of every member."""
    members = classification.members
    entry: Set[int] = set(plan.entry_proxies)
    exit_: Set[int] = set(plan.exit_proxies)
    for vertex in members:
        for in_neighbor in graph.in_neighbors(vertex):
            if in_neighbor not in members and (in_neighbor, vertex) not in plan.rewired_edges:
                entry.add(vertex)
                break
        for out_neighbor in graph.out_neighbors(vertex):
            if out_neighbor not in members and (vertex, out_neighbor) not in plan.rewired_edges:
                exit_.add(vertex)
                break
    return entry, exit_, set(members) - entry - exit_


def rebuild_local_adjacency(
    spec, graph, members: Set[int], plan: ReplicationPlan
) -> FactorAdjacency:
    """Original edges between members plus the rewiring's links."""
    local = FactorAdjacency()
    for source in members:
        for target in graph.out_neighbors(source):
            if target in members:
                local.add(source, target, spec.edge_factor(graph, source, target))
    for source, target, factor in plan.local_links:
        local.add(source, target, factor)
    return local


def changed_local_sources(old_local: FactorAdjacency, new_local: FactorAdjacency) -> Set[int]:
    """Vertices whose intra-subgraph out-links changed between two rebuilds."""
    changed: Set[int] = set()
    old_vertices = set(old_local.vertices_with_out_edges())
    new_vertices = set(new_local.vertices_with_out_edges())
    for vertex in old_vertices | new_vertices:
        if sorted(old_local(vertex)) != sorted(new_local(vertex)):
            changed.add(vertex)
    return changed


def rebuild_subgraph(layered, subgraph):
    """``(entry, exit, internal, plan, local adjacency)`` of ``subgraph``
    derived from scratch against ``layered``'s current graph.

    Call it right after the subgraph's refresh: the edges the other
    subgraphs rewire are read from the layered graph's index, as the refresh
    read them.  Proxy ids come from the registry, which the refresh has
    already filled; a host it never replicated fails here.
    """
    spec = layered.spec
    graph = layered.graph
    classification = classify_boundary(graph, subgraph.members)
    config = layered.config
    if config.enable_replication:
        plan = plan_replication_scan(
            spec,
            graph,
            classification,
            config.replication_threshold,
            lambda host, side: layered._proxy_registry[(subgraph.index, host, side)],
            lambda edge: edge in layered._rewired_counts and edge not in subgraph.rewired_edges,
        )
        entry, exit_, internal = reclassify_with_replication(graph, classification, plan)
    else:
        plan = ReplicationPlan()
        entry, exit_, internal = (
            set(classification.entry),
            set(classification.exit),
            set(classification.internal),
        )
    local = rebuild_local_adjacency(spec, graph, classification.members, plan)
    return entry, exit_, internal, plan, local


def update_shortcut_vector(
    spec: AlgorithmSpec,
    old_local: FactorAdjacency,
    new_local: FactorAdjacency,
    source: int,
    boundary: Set[int],
    old_vector: Dict[int, float],
    changed_sources: Set[int],
    metrics: Optional[ExecutionMetrics] = None,
) -> Optional[Dict[int, float]]:
    """Incrementally update one boundary vertex's min/+ shortcut vector.

    :func:`shortcut_revision` followed by the fold of its messages
    (one revision job of a :class:`ShortcutBatch`).  Returns the updated
    vector, or ``None`` when the caller must recompute it from scratch.
    """
    if metrics is None:
        metrics = ExecutionMetrics()
    old = ShortcutTable.from_vectors({source: old_vector}, spec.aggregate_identity())
    pending = shortcut_revision(
        spec, old_local, new_local, source, boundary, old, changed_sources, metrics
    )
    if pending is None:
        return None
    if not pending:
        return dict(old_vector)
    batch = ShortcutBatch(spec)
    block = batch.block(new_local, boundary, old, [source])
    batch.revise(block, source, pending)
    batch.run(metrics)
    return block.table.vector(source)


def compute_all_shortcuts(
    spec: AlgorithmSpec,
    local_adjacency: FactorAdjacency,
    boundary: Set[int],
    metrics: Optional[ExecutionMetrics] = None,
) -> Dict[int, Dict[int, float]]:
    """Shortcuts from every boundary vertex of a subgraph.

    Returns ``{boundary_vertex: {target: weight}}``.
    """
    sources = sorted(boundary)
    vectors = compute_shortcut_vectors(spec, local_adjacency, sources, boundary, metrics)
    return dict(zip(sources, vectors))


def assemble_upper(layered) -> Tuple[FactorCSR, Set[int]]:
    """The upper layer of ``layered`` assembled from scratch: its compiled
    CSR (``FactorCSR.from_rows``) and its vertex set.

    A row lists its source's cross edges — out-edges leaving the source's
    subgraph that no proxy rewired — in out-adjacency order, then per
    subgraph ascending the subgraph's shortcuts to its boundary (targets
    ascending) and its host/proxy links (plan order).  The id space is the
    graph's vertices and the proxies.
    """
    spec, graph, subgraph_of = layered.spec, layered.graph, layered.subgraph_of
    rewired = set()
    upper_vertices = {v for v in graph.vertices() if v not in subgraph_of}
    for subgraph in layered.subgraphs:
        rewired.update(subgraph.rewired_edges)
        upper_vertices |= subgraph.boundary
    rows: Dict[int, List[Tuple[int, float]]] = {}
    for source in graph.vertices():
        own = subgraph_of.get(source)
        for target, factor in spec.out_factors(graph, source):
            if (own is None or subgraph_of.get(target) != own) and (source, target) not in rewired:
                rows.setdefault(source, []).append((target, factor))
    for subgraph in layered.subgraphs:
        table = subgraph.shortcuts
        for source in table.sources:
            for target, factor in table.vector(source).items():
                if target in table.rows:
                    rows.setdefault(source, []).append((target, factor))
        for source, target, factor in subgraph.upper_links:
            rows.setdefault(source, []).append((target, factor))
    ids = sorted(set(graph.vertices()) | layered.proxy_vertices())
    return FactorCSR.from_rows(ids, [rows.get(vertex, ()) for vertex in ids]), upper_vertices


def upper_in_adjacency(layered) -> Dict[int, List[Tuple[int, float]]]:
    """Reverse view of the upper layer: target -> [(source, factor)].

    An O(Lup) walk, built per call: the reference trim/seed loop and the
    invariant checks read the skeleton's in-links off it; the array
    trim/seed reads them with a target mask over ``layered.upper_csr()``
    instead (:func:`repro.layph.vectorized.seed_tainted_upper`).
    """
    adjacency = layered.upper_adjacency
    incoming: Dict[int, List[Tuple[int, float]]] = {}
    for source in adjacency.vertices_with_out_edges():
        for target, factor in adjacency(source):
            incoming.setdefault(target, []).append((source, factor))
    return incoming


def assert_exact_skeleton(engine) -> None:
    """Every non-identity skeleton and proxy state of a selective Layph
    engine is, compared with ``==``, its root message, its folded root
    value (Equation (7)) or ``combine(state, factor)`` of one of its
    current upper in-links — the invariant the exact support walk of
    phase 2 relies on."""
    spec = engine.spec
    layered = engine.layered
    identity = spec.aggregate_identity()
    states = dict(engine.states)
    states.update(engine.proxy_states)
    folded = {}
    if engine._local_source_states is not None:
        index = layered.subgraph_of[spec.source]
        folded = {
            vertex: engine._local_source_states[vertex]
            for vertex in layered.subgraphs[index].boundary
            if vertex in engine._local_source_states
        }
    incoming = upper_in_adjacency(layered)
    unexplained = []
    for vertex in sorted(layered.upper_vertices | layered.proxy_vertices()):
        state = states[vertex]
        if state == identity:
            continue
        offers = [spec.initial_message(vertex) if vertex >= 0 else identity]
        if vertex in folded:
            offers.append(folded[vertex])
        offers.extend(
            spec.combine(states.get(source, identity), factor)
            for source, factor in incoming.get(vertex, ())
        )
        if not any(offer == state for offer in offers):
            unexplained.append(vertex)
    assert not unexplained, f"{len(unexplained)} skeleton states match no offer"
