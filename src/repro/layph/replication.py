"""Vertex replication (Section IV-A1, "Solution: Vertex Replication").

High-degree vertices outside a dense subgraph often connect to many of its
entry (or exit) vertices, which bloats the skeleton: every such connection
keeps a boundary vertex on the upper layer.  Layph replicates the outside
vertex as a *proxy* inside the subgraph: the original cross edges are rewired
through the proxy, the former boundary vertices can sink back into the lower
layer, and the upper layer shrinks.

Correctness is preserved because the layered graph stores explicit
propagation *factors* on its links: the host-to-proxy (or proxy-to-host) link
carries the identity of the algorithm's ``combine`` operator, and the rewired
edges keep their original factors, so every path composition is unchanged —
provided every cross edge is rewired by at most one subgraph.  An edge
between two dense subgraphs is a candidate of both (the target's entry side
and the source's exit side); rewired twice, its message would travel twice,
which an accumulative algorithm counts twice.  So an edge another subgraph
already rewires is no candidate.  Proxy vertices use negative identifiers so
they can never collide with real vertices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Set, Tuple

from repro.engine.algorithm import AlgorithmSpec
from repro.graph.graph import Graph

#: allocator of proxy ids: (host, side) -> proxy id; "side" is "entry"/"exit"
ProxyAllocator = Callable[[int, str], int]


@dataclass
class ReplicationPlan:
    """The outcome of replicating hosts around one dense subgraph."""

    #: proxy id -> host id
    proxies: Dict[int, int] = field(default_factory=dict)
    #: proxies acting as entry vertices (host outside -> proxy inside)
    entry_proxies: Set[int] = field(default_factory=set)
    #: proxies acting as exit vertices (proxy inside -> host outside)
    exit_proxies: Set[int] = field(default_factory=set)
    #: original cross edges (source, target) replaced by the proxy wiring
    rewired_edges: Set[Tuple[int, int]] = field(default_factory=set)
    #: intra-subgraph links added by the rewiring: (source, target, factor)
    local_links: List[Tuple[int, int, float]] = field(default_factory=list)
    #: upper-layer links added by the rewiring: (source, target, factor)
    upper_links: List[Tuple[int, int, float]] = field(default_factory=list)


class HostIndex:
    """The outside neighbours of one subgraph's members.

    ``in_hosts[v]`` / ``out_hosts[v]``: member ``v``'s in-/out-neighbours
    outside the subgraph (present exactly when Definition 1 makes ``v`` an
    entry / exit vertex); ``feeds[h]`` / ``fed_by[h]``: the members outside
    vertex ``h`` has an edge into / from — the replication candidates.
    :meth:`update` re-derives only the members a delta touched.
    """

    __slots__ = ("in_hosts", "out_hosts", "feeds", "fed_by")

    def __init__(self) -> None:
        self.in_hosts: Dict[int, Tuple[int, ...]] = {}
        self.out_hosts: Dict[int, Tuple[int, ...]] = {}
        self.feeds: Dict[int, Set[int]] = {}
        self.fed_by: Dict[int, Set[int]] = {}

    def update(self, graph: Graph, members: Set[int], vertices: Iterable[int]) -> None:
        """Re-derive the entries of ``vertices``; one that is no longer a
        member only loses its entries."""
        for hosts, by_host, neighbors in (
            (self.in_hosts, self.feeds, graph.in_neighbors),
            (self.out_hosts, self.fed_by, graph.out_neighbors),
        ):
            for vertex in vertices:
                for host in hosts.pop(vertex, ()):
                    group = by_host[host]
                    group.discard(vertex)
                    if not group:
                        del by_host[host]
                if vertex not in members:
                    continue
                outside = [host for host in neighbors(vertex) if host not in members]
                if outside:
                    hosts[vertex] = tuple(outside)
                    for host in outside:
                        group = by_host.get(host)
                        if group is None:
                            by_host[host] = {vertex}
                        else:
                            group.add(vertex)


def plan_replication(
    spec: AlgorithmSpec,
    graph: Graph,
    hosts: HostIndex,
    threshold: int,
    allocate: ProxyAllocator,
    claimed: Callable[[Tuple[int, int]], bool],
) -> ReplicationPlan:
    """Decide which outside hosts to replicate for one dense subgraph.

    Args:
        spec: the algorithm (its ``combine`` identity labels host/proxy links
            and its ``edge_factor`` labels the rewired edges).
        graph: the full graph.
        hosts: the subgraph's outside neighbours (:class:`HostIndex`).
        threshold: minimum number of boundary vertices sharing one outside
            host for the host to be replicated.
        allocate: allocator of (negative) proxy ids, keyed by host and side so
            that re-planning the same subgraph reuses the same proxy ids.
        claimed: whether another subgraph rewires an edge; such edges are
            no candidates (see the module docstring).

    Returns:
        The replication plan.  Hosts are taken in ascending id order and each
        host's rewired members ascending: the order fixes ``local_links``
        (and through it the per-row link order of the subgraph adjacency,
        i.e. the fold order of the propagation float sums), so it must be a
        function of the graph alone — a store-restored run does not share
        the live one's set iteration orders.
    """
    plan = ReplicationPlan()
    identity = spec.combine_identity()

    # Entry side: hosts outside the subgraph with many edges into it.  A
    # claimed edge only lowers a host's count, so hosts short of the
    # threshold are skipped unseen.
    for host in sorted(h for h, targets in hosts.feeds.items() if len(targets) >= threshold):
        targets = [t for t in sorted(hosts.feeds[host]) if not claimed((host, t))]
        if len(targets) < threshold:
            continue
        proxy = allocate(host, "entry")
        plan.proxies[proxy] = host
        plan.entry_proxies.add(proxy)
        plan.upper_links.append((host, proxy, identity))
        for target in targets:
            plan.rewired_edges.add((host, target))
            plan.local_links.append(
                (proxy, target, spec.edge_factor(graph, host, target))
            )

    # Exit side: hosts outside the subgraph fed by many of its exit vertices.
    for host in sorted(h for h, sources in hosts.fed_by.items() if len(sources) >= threshold):
        sources = [s for s in sorted(hosts.fed_by[host]) if not claimed((s, host))]
        if len(sources) < threshold:
            continue
        proxy = allocate(host, "exit")
        plan.proxies[proxy] = host
        plan.exit_proxies.add(proxy)
        plan.upper_links.append((proxy, host, identity))
        for source in sources:
            plan.rewired_edges.add((source, host))
            plan.local_links.append(
                (source, proxy, spec.edge_factor(graph, source, host))
            )

    return plan
