"""Dependency tracking for selective (monotone) algorithms.

KickStarter, RisGraph and Ingress's memoization-path policy all maintain the
value dependencies of converged selective computations (SSSP, BFS): which
in-edge "won" the aggregation at each vertex.  When an edge a vertex depends
on disappears (or its weight grows), the vertex — and transitively everything
built on it — may hold an invalid value and must be *trimmed* back to a safe
approximation before propagation resumes.

Two tagging granularities are provided:

* ``single_parent`` — each vertex records exactly one winning in-neighbor
  (a dependency *tree*); trimming resets only true dependents.  This is the
  precise policy of RisGraph and Ingress.
* ``dag`` — a vertex is treated as dependent on *every* in-neighbor that
  offers its converged value (the shortest-path DAG); trimming resets the
  whole DAG reachable from the invalidated edge.  This conservative policy
  models KickStarter's coarser approximation trimming and is what makes it
  activate more edges than the other two systems in Figures 1 and 6.

These dict walks are the reference the dense
:class:`repro.incremental.dep_table.DepTable` kernels of the selective
engines are checked against, bit for bit.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Set

from repro.engine.algorithm import AlgorithmSpec
from repro.graph.graph import Graph


def compute_parents(
    spec: AlgorithmSpec,
    graph: Graph,
    states: Dict[int, float],
    vertices: Optional[Iterable[int]] = None,
    parents: Optional[Dict[int, Optional[int]]] = None,
) -> Dict[int, Optional[int]]:
    """Compute (or refresh) the winning in-neighbor of each vertex.

    ``parents[v]`` is an in-neighbor ``u`` with
    ``combine(x_u, w_{u,v}) == x_v``, or ``None`` when the vertex holds its
    initial value (the source, or an unreached vertex).
    """
    if parents is None:
        parents = {}
    identity = spec.aggregate_identity()
    targets = graph.vertices() if vertices is None else vertices
    for vertex in targets:
        if not graph.has_vertex(vertex):
            parents.pop(vertex, None)
            continue
        state = states.get(vertex, identity)
        parent: Optional[int] = None
        # A vertex only needs a parent when its value came from an in-edge:
        # not the identity (unreached) and not its own root value (source).
        if state != identity and state != spec.initial_state(vertex):
            for in_neighbor in graph.in_neighbors(vertex):
                candidate_state = states.get(in_neighbor, identity)
                if candidate_state == identity:
                    continue
                offered = spec.combine(
                    candidate_state, spec.edge_factor(graph, in_neighbor, vertex)
                )
                if offered == state:
                    parent = in_neighbor
                    break
        parents[vertex] = parent
    return parents


def dependents_single_parent(
    parents: Dict[int, Optional[int]],
    graph: Graph,
    roots: Set[int],
) -> Set[int]:
    """All vertices whose dependency-tree path passes through ``roots``."""
    children: Dict[int, List[int]] = {}
    for vertex, parent in parents.items():
        if parent is not None:
            children.setdefault(parent, []).append(vertex)
    tainted: Set[int] = set()
    queue = deque(root for root in roots if graph.has_vertex(root))
    while queue:
        vertex = queue.popleft()
        if vertex in tainted:
            continue
        tainted.add(vertex)
        for child in children.get(vertex, []):
            if child not in tainted:
                queue.append(child)
    return tainted


def dependents_dag(
    spec: AlgorithmSpec,
    graph: Graph,
    states: Dict[int, float],
    roots: Set[int],
) -> Set[int]:
    """All vertices reachable from ``roots`` along value-supporting edges.

    An edge ``(u, v)`` supports ``v`` when ``combine(x_u, w_{u,v}) == x_v``;
    following every supporting edge (instead of a single chosen parent)
    over-approximates the affected region, which is the conservative tagging
    KickStarter's trimming corresponds to.
    """
    identity = spec.aggregate_identity()
    tainted: Set[int] = set()
    queue = deque(root for root in roots if graph.has_vertex(root))
    while queue:
        vertex = queue.popleft()
        if vertex in tainted:
            continue
        tainted.add(vertex)
        vertex_state = states.get(vertex, identity)
        for target in graph.out_neighbors(vertex):
            if target in tainted:
                continue
            target_state = states.get(target, identity)
            if target_state == identity:
                continue
            offered = spec.combine(
                vertex_state, spec.edge_factor(graph, vertex, target)
            )
            if offered == target_state:
                queue.append(target)
    return tainted


def trim_and_seed(
    spec: AlgorithmSpec,
    graph: Graph,
    states: Dict[int, float],
    tainted: Set[int],
) -> Dict[int, float]:
    """Reset tainted vertices and seed their recovery (trimmed approximation).

    Every tainted vertex is reset to the aggregate identity (``⊥``/``inf``),
    then re-seeded with the best value offered by its *non-tainted*
    in-neighbors plus its own root message.  The returned pending map restarts
    propagation; Theorem-style safety holds because selective algorithms are
    monotone from above once invalid values have been discarded.
    """
    identity = spec.aggregate_identity()
    pending: Dict[int, float] = {}
    for vertex in tainted:
        states[vertex] = identity
    for vertex in tainted:
        if not graph.has_vertex(vertex):
            continue
        best = spec.initial_message(vertex)
        for in_neighbor in graph.in_neighbors(vertex):
            if in_neighbor in tainted:
                continue
            neighbor_state = states.get(in_neighbor, identity)
            if neighbor_state == identity:
                continue
            offered = spec.combine(
                neighbor_state, spec.edge_factor(graph, in_neighbor, vertex)
            )
            best = spec.aggregate(best, offered)
        if spec.is_significant(best):
            pending[vertex] = spec.aggregate(pending.get(vertex, identity), best)
    return pending


def refresh_parents(
    spec: AlgorithmSpec,
    graph: Graph,
    old_states: Dict[int, float],
    states: Dict[int, float],
    tainted: Set[int],
    added,
    deleted,
    parents: Dict[int, Optional[int]],
) -> None:
    """Refresh the dependency parents of every vertex whose support may
    have changed: tainted vertices, endpoints of changed edges, and the
    out-neighbors of vertices whose state changed."""
    stale: Set[int] = set()
    for vertex in tainted:
        if graph.has_vertex(vertex):
            stale.add(vertex)
            stale.update(graph.out_neighbors(vertex))
    for source, target, _ in list(added) + list(deleted):
        for vertex in (source, target):
            if graph.has_vertex(vertex):
                stale.add(vertex)
                stale.update(graph.out_neighbors(vertex))
    for vertex, value in states.items():
        if graph.has_vertex(vertex) and old_states.get(vertex) != value:
            stale.add(vertex)
            stale.update(graph.out_neighbors(vertex))
    compute_parents(spec, graph, states, stale, parents)
