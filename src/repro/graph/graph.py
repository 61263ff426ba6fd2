"""Mutable directed weighted graph used throughout the reproduction.

The graph stores both out-adjacency and in-adjacency so that incremental
engines can walk dependencies backwards (e.g. KickStarter's dependency trees
and Ingress's re-aggregation after a reset).  Vertices are integers; they do
not need to be contiguous, which lets deltas add and delete vertices freely.

A copy shares its rows with the original (copy-on-write): ``copy`` costs
O(V) pointer copies, and each graph clones a row before its first write to
it, so applying a delta to a copy costs O(V + |ΔG|) rather than O(V + E).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple


@dataclass(frozen=True)
class Edge:
    """A directed weighted edge ``source -> target`` with ``weight``."""

    source: int
    target: int
    weight: float = 1.0

    def reversed(self) -> "Edge":
        """Return the edge with source and target swapped."""
        return Edge(self.target, self.source, self.weight)


class Graph:
    """Directed weighted graph with O(1) edge lookup and both adjacencies.

    Parallel edges are not supported: adding an edge that already exists
    overwrites its weight (the paper models a weight change as delete + add,
    which this behaviour composes with naturally).
    """

    def __init__(self, directed: bool = True) -> None:
        self._directed = directed
        self._out: Dict[int, Dict[int, float]] = {}
        self._in: Dict[int, Dict[int, float]] = {}
        #: the vertices whose out-/in-row this graph may write in place; any
        #: other row may be shared with a copy and is cloned on first write
        self._own_out: Set[int] = set()
        self._own_in: Set[int] = set()
        self._version = 0

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls, edges: Iterable[Tuple[int, int, float]], directed: bool = True
    ) -> "Graph":
        """Build a graph from ``(source, target, weight)`` triples."""
        graph = cls(directed=directed)
        for source, target, weight in edges:
            graph.add_edge(source, target, weight)
        return graph

    @classmethod
    def from_unweighted_edges(
        cls, edges: Iterable[Tuple[int, int]], directed: bool = True
    ) -> "Graph":
        """Build a graph from ``(source, target)`` pairs with unit weights."""
        graph = cls(directed=directed)
        for source, target in edges:
            graph.add_edge(source, target, 1.0)
        return graph

    def copy(self) -> "Graph":
        """Return an independent copy of the graph (its version counter
        restarts).

        Only the two outer dicts are copied: both graphs share every row
        until one of them writes it (copy-on-write), so the copy costs O(V).
        """
        clone = Graph(directed=self._directed)
        clone._out = dict(self._out)
        clone._in = dict(self._in)
        self._own_out = set()
        self._own_in = set()
        return clone

    @classmethod
    def from_adjacency_order(
        cls,
        directed: bool,
        out_rows: Dict[int, Dict[int, float]],
        in_rows: Dict[int, Dict[int, float]],
        version: int = 0,
    ) -> "Graph":
        """Rebuild a graph from explicit adjacency dicts *and* their order.

        The durable store (:mod:`repro.storage.edge_store`) persists both
        adjacency dicts with their insertion orders because downstream
        consumers depend on them: the in-CSR slot order fixes the fold order
        of the accumulative engines' non-associative float sums.  Replaying
        ``add_edge`` calls from an edge list cannot reproduce an arbitrary
        ``_in`` order (it is interleaved across sources), so the rebuild
        installs the dicts directly.  The given ``version`` restores the
        mutation counter so version-keyed caches line up with the live run.
        """
        graph = cls(directed=directed)
        graph._out = {vertex: dict(targets) for vertex, targets in out_rows.items()}
        graph._in = {vertex: dict(sources) for vertex, sources in in_rows.items()}
        graph._own_out = set(graph._out)
        graph._own_in = set(graph._in)
        graph._version = version
        return graph

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def directed(self) -> bool:
        """Whether the graph is directed."""
        return self._directed

    @property
    def version(self) -> int:
        """Monotonic mutation counter.

        Every structural mutation (vertex or edge insertion/removal, weight
        change) bumps it, which is what lets cached derived structures — the
        compiled CSR snapshots of :mod:`repro.graph.csr_cache` in particular —
        detect out-of-band mutations and refuse to serve stale arrays.
        """
        return self._version

    def num_vertices(self) -> int:
        """Number of vertices currently in the graph."""
        return len(self._out)

    def num_edges(self) -> int:
        """Number of directed edges currently in the graph."""
        return sum(len(targets) for targets in self._out.values())

    def vertices(self) -> Iterator[int]:
        """Iterate over all vertex identifiers."""
        return iter(self._out)

    def has_vertex(self, vertex: int) -> bool:
        """Whether ``vertex`` exists in the graph."""
        return vertex in self._out

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate over all edges as ``(source, target, weight)`` triples."""
        for source, targets in self._out.items():
            for target, weight in targets.items():
                yield source, target, weight

    def has_edge(self, source: int, target: int) -> bool:
        """Whether the directed edge ``source -> target`` exists."""
        return source in self._out and target in self._out[source]

    def edge_weight(self, source: int, target: int) -> float:
        """Return the weight of edge ``source -> target``.

        Raises:
            KeyError: if the edge does not exist.
        """
        try:
            return self._out[source][target]
        except KeyError as error:
            raise KeyError(f"edge ({source}, {target}) not in graph") from error

    # ------------------------------------------------------------------
    # adjacency
    # ------------------------------------------------------------------
    def out_neighbors(self, vertex: int) -> Dict[int, float]:
        """Mapping of out-neighbor -> edge weight for ``vertex``."""
        return self._out.get(vertex, {})

    def in_neighbors(self, vertex: int) -> Dict[int, float]:
        """Mapping of in-neighbor -> edge weight for ``vertex``."""
        return self._in.get(vertex, {})

    def out_degree(self, vertex: int) -> int:
        """Number of outgoing edges of ``vertex``."""
        return len(self._out.get(vertex, {}))

    def in_degree(self, vertex: int) -> int:
        """Number of incoming edges of ``vertex``."""
        return len(self._in.get(vertex, {}))

    def degree(self, vertex: int) -> int:
        """Total (in + out) degree of ``vertex``."""
        return self.out_degree(vertex) + self.in_degree(vertex)

    def total_out_weight(self, vertex: int) -> float:
        """Sum of the weights of the outgoing edges of ``vertex``."""
        return sum(self._out.get(vertex, {}).values())

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def _out_row(self, vertex: int) -> Dict[int, float]:
        """``vertex``'s out-row, cloned first if it may be shared."""
        if vertex in self._own_out:
            return self._out[vertex]
        row = self._out[vertex] = dict(self._out[vertex])
        self._own_out.add(vertex)
        return row

    def _in_row(self, vertex: int) -> Dict[int, float]:
        """``vertex``'s in-row, cloned first if it may be shared."""
        if vertex in self._own_in:
            return self._in[vertex]
        row = self._in[vertex] = dict(self._in[vertex])
        self._own_in.add(vertex)
        return row

    def add_vertex(self, vertex: int) -> None:
        """Add an isolated vertex (no-op if it already exists)."""
        if vertex not in self._out:
            self._out[vertex] = {}
            self._in[vertex] = {}
            self._own_out.add(vertex)
            self._own_in.add(vertex)
            self._version += 1

    def remove_vertex(self, vertex: int) -> None:
        """Remove ``vertex`` and every edge incident to it.

        Raises:
            KeyError: if the vertex does not exist.
        """
        if vertex not in self._out:
            raise KeyError(f"vertex {vertex} not in graph")
        for target in list(self._out[vertex]):
            self.remove_edge(vertex, target)
        for source in list(self._in[vertex]):
            self.remove_edge(source, vertex)
        del self._out[vertex]
        del self._in[vertex]
        self._own_out.discard(vertex)
        self._own_in.discard(vertex)
        self._version += 1

    def add_edge(self, source: int, target: int, weight: float = 1.0) -> None:
        """Add edge ``source -> target`` (and the reverse if undirected).

        Adding an existing edge overwrites its weight.  End-points are
        created on demand.
        """
        self.add_vertex(source)
        self.add_vertex(target)
        self._set_weight(source, target, weight)

    def remove_edge(self, source: int, target: int) -> None:
        """Remove edge ``source -> target`` (and the reverse if undirected).

        Raises:
            KeyError: if the edge does not exist.
        """
        if not self.has_edge(source, target):
            raise KeyError(f"edge ({source}, {target}) not in graph")
        del self._out_row(source)[target]
        del self._in_row(target)[source]
        if not self._directed and source != target:
            del self._out_row(target)[source]
            del self._in_row(source)[target]
        self._version += 1

    def update_edge_weight(self, source: int, target: int, weight: float) -> None:
        """Change the weight of an existing edge.

        Raises:
            KeyError: if the edge does not exist.
        """
        if not self.has_edge(source, target):
            raise KeyError(f"edge ({source}, {target}) not in graph")
        self._set_weight(source, target, weight)

    def _set_weight(self, source: int, target: int, weight: float) -> None:
        """Write the edge's weight in both rows (and the mirror's)."""
        self._out_row(source)[target] = weight
        self._in_row(target)[source] = weight
        if not self._directed and source != target:
            self._out_row(target)[source] = weight
            self._in_row(source)[target] = weight
        self._version += 1

    # ------------------------------------------------------------------
    # views and helpers
    # ------------------------------------------------------------------
    def subgraph(self, vertices: Iterable[int]) -> "Graph":
        """Return the induced subgraph on ``vertices`` (copies edges)."""
        selected = set(vertices)
        sub = Graph(directed=self._directed)
        for vertex in selected:
            if self.has_vertex(vertex):
                sub.add_vertex(vertex)
        for source, target, weight in self.edges():
            if source in selected and target in selected:
                sub.add_edge(source, target, weight)
        return sub

    def reverse(self) -> "Graph":
        """Return a graph with every edge direction flipped."""
        reversed_graph = Graph(directed=self._directed)
        for vertex in self.vertices():
            reversed_graph.add_vertex(vertex)
        for source, target, weight in self.edges():
            reversed_graph.add_edge(target, source, weight)
        return reversed_graph

    def undirected_view_neighbors(self, vertex: int) -> Dict[int, float]:
        """Union of in- and out-neighbors (used by community detection)."""
        merged: Dict[int, float] = dict(self._out.get(vertex, {}))
        for neighbor, weight in self._in.get(vertex, {}).items():
            merged[neighbor] = merged.get(neighbor, 0.0) + weight
        return merged

    def __contains__(self, vertex: int) -> bool:
        return self.has_vertex(vertex)

    def __len__(self) -> int:
        return self.num_vertices()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Graph(directed={self._directed}, "
            f"|V|={self.num_vertices()}, |E|={self.num_edges()})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        if self._directed != other._directed:
            return False
        if set(self._out) != set(other._out):
            return False
        return all(self._out[v] == other._out[v] for v in self._out)

    def __hash__(self) -> int:  # Graph is mutable; identity hash is fine.
        return id(self)

    def max_vertex_id(self) -> Optional[int]:
        """Largest vertex id in the graph, or ``None`` if empty."""
        return max(self._out) if self._out else None

    def edge_list(self) -> List[Tuple[int, int, float]]:
        """All edges as a list of ``(source, target, weight)`` triples."""
        return list(self.edges())
