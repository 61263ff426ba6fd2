"""Seeded load generators: graphs, delta streams and unit-event streams.

The generator is the only component that knows the planted community
membership; the program under test receives a :class:`Graph`, a list of
:class:`GraphDelta` and a list of unit updates, and nothing else.  Every
stream is produced against a *rolling* copy of the graph, so each delete
names an edge (or vertex) that exists at its position in the stream and
each insert names one that does not: no operation of a workload is a no-op,
a dangling delete or a quarantine candidate.

Graphs are *stratified*: the seed decides which vertices sit in which
community and which pairs are linked, never how many.  Every seed of one
shape therefore has the same community-size multiset and the same edge
count, which keeps the run-to-run spread of the metrics down to what the
seed's choice of edges causes.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.engine.algorithms import make_algorithm
from repro.graph.delta import EdgeUpdate, GraphDelta, UpdateKind, VertexUpdate
from repro.graph.graph import Graph
from repro.service.events import update_payload

#: the rooted algorithms start here; generators never delete it or strand it
SOURCE_VERTEX = 0

#: deltas timed per replay, after WARMUP_DELTAS untimed ones
TIMED_DELTAS = 40
WARMUP_DELTAS = 3
#: unit updates per replayed delta (|ΔG| = 10 ≈ 0.016 % of the web graph)
DELTA_UNITS = 10
#: cold-initialised replays of the delta stream; a delta's sample is its
#: minimum over them
REPLAYS = 2

#: service batch size; every event count is a multiple of it, because a
#: partial grid-aligned batch is only flushed by ``drain()``
BATCH_SIZE = 16
#: events of the closed-loop saturation phase: 16 batches, so that on the
#: edge workloads exactly one compaction (every 16th delta) falls inside it,
#: the share steady-state ingest pays
SATURATION_EVENTS = 256
#: reads per second issued beside the open-loop writes
READ_RATE = 20.0


@dataclass(frozen=True)
class GraphShape:
    """Planted-partition recipe (sizes are spread evenly over the range)."""

    communities: int
    size_low: int
    size_high: int
    intra_probability: float
    bridges_per_community: int
    hub_fraction: float


#: many small dense communities with few bridges — the web-graph regime
#: Layph is designed for (≈ 9.0k vertices / 6.2e4 edges)
WEB = GraphShape(300, 20, 40, 0.2, 4, 0.0)
#: a few large loose communities plus hubs — the social-graph regime where
#: Layph forms no dense subgraph (≈ 4.8k vertices / 4.0e4 edges)
SOCIAL = GraphShape(12, 300, 500, 0.02, 60, 0.01)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a graph shape, an algorithm, a delta locality."""

    name: str
    why: str
    shape: GraphShape
    algorithm: str
    #: "local" | "scattered" | "bridge" | "vertex"
    locality: str
    #: open-loop arrival rate (events/s), frozen at about a third of the
    #: seed commit's ``ingest_events_per_s`` — never derived at run time
    open_loop_rate: float

    def spec(self):
        return make_algorithm(self.algorithm, source=SOURCE_VERTEX)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "web-sssp-local",
            "each delta stays inside one community: one lower-layer subgraph "
            "plus the skeleton, Layph's designed-for case",
            WEB,
            "sssp",
            "local",
            64.0,
        ),
        Workload(
            "web-pagerank-scattered",
            "uniformly random edge changes (the paper's default delta): many "
            "subgraphs rebuilt per delta, heavy propagation",
            WEB,
            "pagerank",
            "scattered",
            20.0,
        ),
        Workload(
            "web-bfs-bridge",
            "new inter-community edges only: the change lives on the upper "
            "layer, the opposite use of the layph layer from web-sssp-local",
            WEB,
            "bfs",
            "bridge",
            22.0,
        ),
        Workload(
            "social-php-vertex",
            "vertex churn on a graph with no dense subgraph: Layph is Ingress "
            "plus overhead, id-shift CSR patches and rebuild_upper fallback",
            SOCIAL,
            "php",
            "vertex",
            22.0,
        ),
    )
}


def _rng(workload: Workload, seed: int, stream: str) -> random.Random:
    # a str seed is hashed with sha512 by ``random`` — stable across runs
    return random.Random(f"{workload.name}/{seed}/{stream}")


def _weight(rng: random.Random) -> float:
    return round(rng.uniform(1.0, 10.0), 3)


class PlantedGraph:
    """The generator's rolling view of the graph plus the planted membership.

    Edges and vertices are mirrored in lists with a position index, so a
    uniformly random existing edge or vertex is drawn (and removed) in O(1).
    """

    def __init__(self, shape: GraphShape, rng: random.Random) -> None:
        self.graph = Graph()
        self.communities: List[List[int]] = []
        #: planted community of a vertex; hubs and vertices added later have none
        self.community_of: Dict[int, int] = {}
        self._edges: List[Tuple[int, int]] = []
        self._edge_slot: Dict[Tuple[int, int], int] = {}
        self._vertices: List[int] = []
        self._vertex_slot: Dict[int, int] = {}
        self.next_vertex = 0
        self._build(shape, rng)

    # -- construction ---------------------------------------------------
    def _build(self, shape: GraphShape, rng: random.Random) -> None:
        span = shape.size_high - shape.size_low
        steps = max(shape.communities - 1, 1)
        sizes = [
            shape.size_low + (index * span) // steps
            for index in range(shape.communities)
        ]
        rng.shuffle(sizes)
        for index, size in enumerate(sizes):
            members = list(range(self.next_vertex, self.next_vertex + size))
            self.next_vertex += size
            self.communities.append(members)
            for vertex in members:
                self.add_vertex(vertex)
                self.community_of[vertex] = index
            # a ring keeps every community strongly connected
            for position, vertex in enumerate(members):
                self.add_edge(vertex, members[(position + 1) % size], _weight(rng))
            chords = round(shape.intra_probability * size * (size - 1))
            placed = 0
            while placed < chords:
                source, target = rng.choice(members), rng.choice(members)
                if source != target and not self.graph.has_edge(source, target):
                    self.add_edge(source, target, _weight(rng))
                    placed += 1
        for members in self.communities:
            placed = 0
            while placed < shape.bridges_per_community:
                source = rng.choice(members)
                target = rng.randrange(self.next_vertex)
                if self.crosses(source, target) and not self.graph.has_edge(
                    source, target
                ):
                    self.add_edge(source, target, _weight(rng))
                    placed += 1
        planted = self.next_vertex
        for _ in range(int(shape.hub_fraction * planted)):
            hub = self.next_vertex
            self.next_vertex += 1
            self.add_vertex(hub)
            for community in rng.sample(range(len(self.communities)), k=5):
                for target in rng.sample(self.communities[community], k=3):
                    self.add_edge(hub, target, _weight(rng))
                    if rng.random() < 0.5:
                        self.add_edge(target, hub, _weight(rng))

    # -- mirrored mutation ----------------------------------------------
    def add_vertex(self, vertex: int) -> None:
        self.graph.add_vertex(vertex)
        self._vertex_slot[vertex] = len(self._vertices)
        self._vertices.append(vertex)

    def add_edge(self, source: int, target: int, weight: float) -> None:
        self.graph.add_edge(source, target, weight)
        self._edge_slot[(source, target)] = len(self._edges)
        self._edges.append((source, target))

    def remove_edge(self, source: int, target: int) -> None:
        self.graph.remove_edge(source, target)
        _swap_pop(self._edges, self._edge_slot, (source, target))

    def remove_vertex(self, vertex: int) -> None:
        for target in list(self.graph.out_neighbors(vertex)):
            self.remove_edge(vertex, target)
        for source in list(self.graph.in_neighbors(vertex)):
            self.remove_edge(source, vertex)
        self.graph.remove_vertex(vertex)
        _swap_pop(self._vertices, self._vertex_slot, vertex)
        community = self.community_of.pop(vertex, None)
        if community is not None:
            self.communities[community].remove(vertex)

    # -- sampling -------------------------------------------------------
    def crosses(self, source: int, target: int) -> bool:
        """Whether both ends are planted and sit in different communities."""
        left = self.community_of.get(source)
        right = self.community_of.get(target)
        return left is not None and right is not None and left != right

    def deletable(self, source: int, target: int) -> bool:
        """An edge whose removal leaves the source vertex an out-edge."""
        return source != SOURCE_VERTEX or self.graph.out_degree(source) > 1

    def random_edge(self, rng: random.Random) -> Tuple[int, int]:
        while True:
            edge = rng.choice(self._edges)
            if self.deletable(*edge):
                return edge

    def random_vertex(self, rng: random.Random) -> int:
        return rng.choice(self._vertices)

    def random_absent_edge(
        self, rng: random.Random, sources: Sequence[int], targets: Sequence[int]
    ) -> Tuple[int, int]:
        while True:
            source, target = rng.choice(sources), rng.choice(targets)
            if source != target and not self.graph.has_edge(source, target):
                return source, target


def _swap_pop(items: list, slots: dict, key) -> None:
    slot = slots.pop(key)
    last = items.pop()
    if last != key:
        items[slot] = last
        slots[last] = slot


# ----------------------------------------------------------------------
# unit-update makers: each applies what it emits to the rolling graph
# ----------------------------------------------------------------------
def _delete_unit(planted: PlantedGraph, source: int, target: int) -> EdgeUpdate:
    planted.remove_edge(source, target)
    return EdgeUpdate(UpdateKind.DELETE_EDGE, source, target)


def _add_unit(
    planted: PlantedGraph, rng: random.Random, source: int, target: int
) -> EdgeUpdate:
    weight = _weight(rng)
    planted.add_edge(source, target, weight)
    return EdgeUpdate(UpdateKind.ADD_EDGE, source, target, weight)


def _stratified_communities(
    planted: PlantedGraph, rng: random.Random, count: int
) -> List[List[int]]:
    """``count`` communities, one from each size stratum, in random order.

    What a local delta costs Layph grows with the size of the community it
    lands in, so the sizes visited are spread the same way under every seed;
    which community of a stratum is hit, and when, is the seed's choice.
    """
    by_size = sorted(planted.communities, key=len)
    picks = []
    for index in range(count):
        low = index * len(by_size) // count
        high = max(low + 1, (index + 1) * len(by_size) // count)
        picks.append(rng.choice(by_size[low:high]))
    rng.shuffle(picks)
    return picks


def _local_units(
    planted: PlantedGraph, rng: random.Random, count: int, members: List[int]
) -> list:
    """``count`` edge changes (half deletes, half inserts) inside ``members``."""
    inside = set(members)
    units: list = []
    intra = [
        (source, target)
        for source in members
        for target in planted.graph.out_neighbors(source)
        if target in inside and planted.deletable(source, target)
    ]
    for source, target in rng.sample(intra, k=count // 2):
        if planted.deletable(source, target):
            units.append(_delete_unit(planted, source, target))
    while len(units) < count:
        source, target = planted.random_absent_edge(rng, members, members)
        units.append(_add_unit(planted, rng, source, target))
    return units


def _scattered_units(planted: PlantedGraph, rng: random.Random, count: int) -> list:
    """``count`` uniformly random edge changes (half deletes, half inserts)."""
    units: list = []
    for _ in range(count // 2):
        units.append(_delete_unit(planted, *planted.random_edge(rng)))
    everyone = planted._vertices
    while len(units) < count:
        source, target = planted.random_absent_edge(rng, everyone, everyone)
        units.append(_add_unit(planted, rng, source, target))
    return units


def _bridge_units(planted: PlantedGraph, rng: random.Random, count: int) -> list:
    """``count`` new edges, each between two different planted communities."""
    units: list = []
    while len(units) < count:
        left, right = rng.sample(planted.communities, k=2)
        source, target = planted.random_absent_edge(rng, left, right)
        units.append(_add_unit(planted, rng, source, target))
    return units


def _add_vertex_unit(planted: PlantedGraph, rng: random.Random) -> VertexUpdate:
    vertex = planted.next_vertex
    planted.next_vertex += 1
    neighbours = rng.sample(planted._vertices, k=3)
    planted.add_vertex(vertex)
    edges = []
    for other in neighbours:
        pair = (vertex, other) if rng.random() < 0.5 else (other, vertex)
        weight = _weight(rng)
        planted.add_edge(pair[0], pair[1], weight)
        edges.append((pair[0], pair[1], weight))
    return VertexUpdate(UpdateKind.ADD_VERTEX, vertex, tuple(edges))


def _delete_vertex_unit(planted: PlantedGraph, rng: random.Random) -> VertexUpdate:
    while True:
        vertex = planted.random_vertex(rng)
        if vertex == SOURCE_VERTEX:
            continue
        # keep the source an out-edge: its only target is not deletable
        if list(planted.graph.out_neighbors(SOURCE_VERTEX)) == [vertex]:
            continue
        planted.remove_vertex(vertex)
        return VertexUpdate(UpdateKind.DELETE_VERTEX, vertex)


def _vertex_delta_units(planted: PlantedGraph, rng: random.Random) -> list:
    """Two vertices added (three edges each), then two deleted."""
    units = [_add_vertex_unit(planted, rng) for _ in range(2)]
    units += [_delete_vertex_unit(planted, rng) for _ in range(2)]
    return units


def _vertex_batch_units(planted: PlantedGraph, rng: random.Random) -> list:
    """One service batch with a vertex event in every eighth position."""
    half = BATCH_SIZE // 2 - 1
    units = _scattered_units(planted, rng, half)
    units.append(_add_vertex_unit(planted, rng))
    units += _scattered_units(planted, rng, half)
    units.append(_delete_vertex_unit(planted, rng))
    return units


_EDGE_MAKERS = {"scattered": _scattered_units, "bridge": _bridge_units}


def _unit_groups(
    workload: Workload, planted: PlantedGraph, rng: random.Random, groups: int, size: int
) -> List[list]:
    """``groups`` runs of unit updates with the workload's locality."""
    if workload.locality == "local":
        return [
            _local_units(planted, rng, size, members)
            for members in _stratified_communities(planted, rng, groups)
        ]
    maker = _EDGE_MAKERS[workload.locality]
    return [maker(planted, rng, size) for _ in range(groups)]


def _as_delta(units: Sequence[object]) -> GraphDelta:
    delta = GraphDelta()
    for unit in units:
        if isinstance(unit, VertexUpdate):
            delta.vertex_updates.append(unit)
        else:
            delta.edge_updates.append(unit)
    return delta


@dataclass
class Inputs:
    """Everything one workload run feeds the program."""

    workload: Workload
    seed: int
    #: the initial graph (engines copy it on ``initialize``)
    graph: Graph
    #: WARMUP_DELTAS + TIMED_DELTAS deltas against ``graph``, in order
    deltas: List[GraphDelta]
    #: the graph after every delta — what the serve phase starts from
    served_graph: Graph
    #: unit updates against ``served_graph``, a multiple of BATCH_SIZE
    events: List[object]
    #: generator-side truth for the workload tests
    planted: PlantedGraph

    def digest(self) -> str:
        """sha256 over the graph, delta and event streams (determinism check)."""
        body = {
            "graph": self.graph.edge_list(),
            "deltas": [delta.to_payload() for delta in self.deltas],
            "events": [update_payload(event) for event in self.events],
        }
        encoded = json.dumps(body, sort_keys=True).encode("utf-8")
        return hashlib.sha256(encoded).hexdigest()


def generate(workload: Workload, seed: int, num_events: int) -> Inputs:
    """Graph, delta stream and ``num_events`` serve events for one run."""
    if num_events % BATCH_SIZE:
        raise ValueError(f"event count {num_events} is not a multiple of {BATCH_SIZE}")
    planted = PlantedGraph(workload.shape, _rng(workload, seed, "graph"))
    graph = planted.graph.copy()

    rng = _rng(workload, seed, "deltas")
    num_deltas = WARMUP_DELTAS + TIMED_DELTAS
    if workload.locality == "vertex":
        groups = [_vertex_delta_units(planted, rng) for _ in range(num_deltas)]
    else:
        groups = _unit_groups(workload, planted, rng, num_deltas, DELTA_UNITS)
    deltas = [_as_delta(units) for units in groups]
    served_graph = planted.graph.copy()

    rng = _rng(workload, seed, "events")
    batches = num_events // BATCH_SIZE
    if workload.locality == "vertex":
        groups = [_vertex_batch_units(planted, rng) for _ in range(batches)]
    else:
        groups = _unit_groups(workload, planted, rng, batches, BATCH_SIZE)
    events = [unit for units in groups for unit in units]
    return Inputs(workload, seed, graph, deltas, served_graph, events, planted)
