"""Immutable CSR (compressed sparse row) snapshots of graphs.

The delta-accumulative engine iterates over out-edges of active vertices many
times; a CSR layout backed by numpy arrays keeps that loop cache-friendly and
avoids per-iteration dictionary overhead.  Both CSR views map arbitrary
vertex identifiers to a dense ``0..n-1`` index space.

Two snapshots are provided:

* :class:`CSRGraph` — the raw weighted graph (``offsets``/``targets``/
  ``weights``);
* :class:`FactorCSR` — a *factor* graph: the same layout but carrying the
  algorithm-specific propagation factors (``edge_factor`` values or shortcut
  weights) of a :class:`repro.engine.propagation.FactorAdjacency`.  This is
  what the vectorized propagation backend
  (:mod:`repro.engine.dense_propagation`) compiles and runs.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.graph import Graph


def expand_edges(starts: np.ndarray, counts: np.ndarray, total: int) -> np.ndarray:
    """Flat CSR slot indices for the concatenated rows ``[starts, starts+counts)``.

    The result is ordered row by row (rows in the order given, slots in CSR
    order), which is exactly the scatter order of the Python propagation loop.
    Shared by the vectorized backend, the incremental CSR patching and the
    vectorized Layph/BSP kernels.
    """
    cumulative = np.cumsum(counts)
    row_offset = np.repeat(starts - np.concatenate(([0], cumulative[:-1])), counts)
    return np.arange(total, dtype=np.int64) + row_offset


class CSRGraph:
    """Read-only CSR representation of a directed weighted graph."""

    def __init__(self, graph: Graph) -> None:
        self._vertex_ids: List[int] = sorted(graph.vertices())
        self._index: Dict[int, int] = {
            vertex: position for position, vertex in enumerate(self._vertex_ids)
        }
        n = len(self._vertex_ids)

        out_counts = np.zeros(n + 1, dtype=np.int64)
        for vertex in self._vertex_ids:
            out_counts[self._index[vertex] + 1] = graph.out_degree(vertex)
        self._offsets = np.cumsum(out_counts)

        num_edges = int(self._offsets[-1])
        self._targets = np.empty(num_edges, dtype=np.int64)
        self._weights = np.empty(num_edges, dtype=np.float64)
        cursor = np.array(self._offsets[:-1], dtype=np.int64)
        for vertex in self._vertex_ids:
            row = self._index[vertex]
            for target, weight in graph.out_neighbors(vertex).items():
                position = cursor[row]
                self._targets[position] = self._index[target]
                self._weights[position] = weight
                cursor[row] += 1

        self._out_degree = np.diff(self._offsets)

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices in the snapshot."""
        return len(self._vertex_ids)

    @property
    def num_edges(self) -> int:
        """Number of directed edges in the snapshot."""
        return len(self._targets)

    def vertex_id(self, index: int) -> int:
        """Original vertex id for a dense ``index``."""
        return self._vertex_ids[index]

    def index_of(self, vertex: int) -> int:
        """Dense index for an original ``vertex`` id."""
        return self._index[vertex]

    @property
    def vertex_ids(self) -> Sequence[int]:
        """All original vertex ids in dense-index order."""
        return self._vertex_ids

    def out_degree(self, index: int) -> int:
        """Out-degree of the vertex at dense ``index``."""
        return int(self._out_degree[index])

    def out_edges(self, index: int) -> Iterator[Tuple[int, float]]:
        """Iterate ``(target_index, weight)`` for the vertex at ``index``."""
        start, end = self._offsets[index], self._offsets[index + 1]
        for position in range(start, end):
            yield int(self._targets[position]), float(self._weights[position])

    def out_edge_arrays(self, index: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(targets, weights)`` arrays for the vertex at ``index``."""
        start, end = self._offsets[index], self._offsets[index + 1]
        return self._targets[start:end], self._weights[start:end]


class FactorCSR:
    """CSR factor arrays (``offsets``/``targets``/``factors``) of a factor graph.

    Rows appear in ascending vertex-id order and, within a row, edges keep
    the order of the source adjacency — the vectorized backend relies on
    this to replay the Python loop's message order exactly (which makes even
    the non-associative float sums of accumulative algorithms bit-for-bit
    reproducible).
    """

    __slots__ = (
        "vertex_ids",
        "index",
        "offsets",
        "targets",
        "factors",
        "out_degree",
        "_ids_cache",
    )

    #: class-wide count of full (row-enumerating) compiles, i.e. every
    #: :meth:`from_rows` call.  Incremental patches in
    #: :mod:`repro.graph.csr_cache` construct instances directly and do not
    #: count, so tests can assert that caching short-circuits recompiles.
    compile_count: int = 0

    def __init__(
        self,
        vertex_ids: Sequence[int],
        offsets: np.ndarray,
        targets: np.ndarray,
        factors: np.ndarray,
        index: Optional[Dict[int, int]] = None,
    ) -> None:
        self.vertex_ids: List[int] = list(vertex_ids)
        self.index: Dict[int, int] = (
            index
            if index is not None
            else {vertex: position for position, vertex in enumerate(self.vertex_ids)}
        )
        self.offsets = offsets
        self.targets = targets
        self.factors = factors
        self.out_degree = np.diff(offsets)
        self._ids_cache: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices in the dense index space."""
        return len(self.vertex_ids)

    @property
    def num_edges(self) -> int:
        """Number of factor-carrying links."""
        return len(self.targets)

    def ids_array(self) -> np.ndarray:
        """Vertex ids in dense-index order as an int64 array (cached).

        Gathering original ids for target columns (``ids_array()[targets]``)
        is how the array paths translate between the index spaces of two
        snapshots; caching the conversion keeps repeated per-delta consumers
        (revision deduction, footprint row diffs) from re-materialising it.
        """
        if self._ids_cache is None:
            self._ids_cache = np.asarray(self.vertex_ids, dtype=np.int64)
        return self._ids_cache

    # ------------------------------------------------------------------
    @classmethod
    def from_rows(
        cls,
        vertex_ids: Sequence[int],
        rows: Sequence[Sequence[Tuple[int, float]]],
    ) -> "FactorCSR":
        """Build from one ``[(target_id, factor), ...]`` list per vertex.

        ``rows[i]`` holds the out-links of ``vertex_ids[i]``; every target id
        must appear in ``vertex_ids``.
        """
        FactorCSR.compile_count += 1
        n = len(vertex_ids)
        index = {vertex: position for position, vertex in enumerate(vertex_ids)}
        counts = np.zeros(n + 1, dtype=np.int64)
        for position, row in enumerate(rows):
            counts[position + 1] = len(row)
        offsets = np.cumsum(counts)
        num_edges = int(offsets[-1])
        targets = np.empty(num_edges, dtype=np.int64)
        factors = np.empty(num_edges, dtype=np.float64)
        cursor = 0
        for row in rows:
            for target, factor in row:
                targets[cursor] = index[target]
                factors[cursor] = factor
                cursor += 1
        return cls(vertex_ids, offsets, targets, factors, index=index)

    @classmethod
    def from_factor_adjacency(
        cls,
        adjacency,
        universe: Iterable[int] = (),
        silenced: Optional[Iterable[int]] = None,
    ) -> "FactorCSR":
        """Compile a :class:`FactorAdjacency` (or any object exposing
        ``vertices_with_out_edges()`` and ``__call__``) into CSR arrays.

        Args:
            adjacency: the factor adjacency to compile.
            universe: extra vertex ids to include in the dense index space
                (e.g. vertices that only ever receive messages, or that hold
                a state without any out-link).
            silenced: vertices whose out-links are dropped (they keep their
                slot in the index space but get an empty row) — the CSR
                analogue of :class:`repro.engine.propagation.SilencedAdjacency`.
        """
        silenced_set = frozenset(silenced) if silenced is not None else frozenset()
        ids = set(universe)
        sources = list(adjacency.vertices_with_out_edges())
        ids.update(sources)
        live_rows: Dict[int, List[Tuple[int, float]]] = {}
        for source in sources:
            if source in silenced_set:
                continue
            row = list(adjacency(source))
            if not row:
                continue
            live_rows[source] = row
            for target, _factor in row:
                ids.add(target)
        vertex_ids = sorted(ids)
        rows = [live_rows.get(vertex, ()) for vertex in vertex_ids]
        return cls.from_rows(vertex_ids, rows)

    @classmethod
    def from_graph(cls, spec, graph: Graph) -> "FactorCSR":
        """Factor CSR of a whole :class:`Graph` under algorithm ``spec``."""
        vertex_ids = sorted(graph.vertices())
        rows = [spec.out_factors(graph, vertex) for vertex in vertex_ids]
        return cls.from_rows(vertex_ids, rows)

    @classmethod
    def from_graph_in_edges(cls, spec, graph: Graph) -> "FactorCSR":
        """*In-edge* factor CSR of a whole :class:`Graph` under ``spec``.

        Row ``v`` lists ``(source, edge_factor(source, v))`` pairs in the
        in-adjacency's insertion order, which is the chronological order the
        edges were added in — the exact order the pull-based BSP engines
        (GraphBolt/DZiG) fold in-messages in, so the vectorized pulls stay
        bit-for-bit compatible with the Python loops.
        """
        vertex_ids = sorted(graph.vertices())
        rows = [
            [
                (source, spec.edge_factor(graph, source, vertex))
                for source in graph.in_neighbors(vertex)
            ]
            for vertex in vertex_ids
        ]
        return cls.from_rows(vertex_ids, rows)


class FactorCSRView:
    """Row-silenced view of a :class:`FactorCSR` (shared arrays, zeroed rows).

    Exposes the same attribute surface the vectorized propagation loop needs
    (``vertex_ids``/``index``/``offsets``/``targets``/``factors``/
    ``out_degree``) but reports an out-degree of zero for silenced rows.  The
    underlying arrays are shared with the master snapshot, so deriving a view
    is O(V) instead of the O(V+E) row enumeration of a fresh compile — this is
    how one master compile serves every ``SilencedAdjacency`` variant Layph's
    shortcut computations request.
    """

    __slots__ = (
        "vertex_ids",
        "index",
        "offsets",
        "targets",
        "factors",
        "out_degree",
        "master",
    )

    def __init__(self, master: FactorCSR, silenced: Iterable[int]) -> None:
        self.master = master
        self.vertex_ids = master.vertex_ids
        self.index = master.index
        self.offsets = master.offsets
        self.targets = master.targets
        self.factors = master.factors
        out_degree = master.out_degree.copy()
        index = master.index
        for vertex in silenced:
            position = index.get(vertex)
            if position is not None:
                out_degree[position] = 0
        self.out_degree = out_degree

    @property
    def num_vertices(self) -> int:
        """Number of vertices in the dense index space."""
        return len(self.vertex_ids)

    @property
    def num_edges(self) -> int:
        """Number of live (non-silenced) factor-carrying links."""
        return int(self.out_degree.sum())
