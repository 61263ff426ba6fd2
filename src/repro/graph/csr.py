"""Immutable CSR (compressed sparse row) snapshots of factor graphs.

The delta-accumulative engine iterates over out-edges of active vertices many
times; a CSR layout backed by numpy arrays keeps that loop cache-friendly and
avoids per-iteration dictionary overhead.  :class:`FactorCSR` maps arbitrary
vertex identifiers to a dense ``0..n-1`` index space and carries the
algorithm-specific propagation factors (``edge_factor`` values or shortcut
weights) of a :class:`repro.engine.propagation.FactorAdjacency`.  This is
what the array propagation kernel (:mod:`repro.engine.dense_propagation`)
compiles and runs; :class:`FactorCSRView` masks rows of one.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.graph import Graph


def expand_edges(starts: np.ndarray, counts: np.ndarray, total: int) -> np.ndarray:
    """Flat CSR slot indices for the concatenated rows ``[starts, starts+counts)``.

    The result is ordered row by row (rows in the order given, slots in CSR
    order), which is exactly the scatter order of the Python propagation loop.
    Shared by the array propagation kernel, the incremental CSR patching and
    the vectorized Layph/BSP kernels.
    """
    cumulative = np.cumsum(counts)
    row_offset = np.repeat(starts - np.concatenate(([0], cumulative[:-1])), counts)
    return np.arange(total, dtype=np.int64) + row_offset


def locate(ids: np.ndarray, values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(position, found)`` of each of ``values`` in the ascending ``ids``:
    ``ids[position] == value`` exactly where ``found``."""
    values = np.asarray(values, dtype=np.int64)
    if not ids.size:
        return np.zeros(values.size, dtype=np.int64), np.zeros(values.size, dtype=bool)
    position = np.minimum(np.searchsorted(ids, values), ids.size - 1)
    return position, ids[position] == values


class FactorCSR:
    """CSR factor arrays (``offsets``/``targets``/``factors``) of a factor graph.

    Rows appear in ascending vertex-id order and, within a row, edges keep
    the order of the source adjacency — the array kernels rely on
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

    def ids_array(self) -> np.ndarray:
        """The master's vertex ids as an int64 array (cached there)."""
        return self.master.ids_array()

    @property
    def num_edges(self) -> int:
        """Number of live (non-silenced) factor-carrying links."""
        return int(self.out_degree.sum())


class CSRAdjacency:
    """Read-only factor adjacency served from a :class:`FactorCSR`.

    It iterates like a ``FactorAdjacency`` (each row's links in CSR order),
    and the array kernel asks for :meth:`compiled_csr` and runs on the
    snapshot itself: Layph's upper layer has no other representation.
    """

    __slots__ = ("csr",)

    def __init__(self, csr: FactorCSR) -> None:
        self.csr = csr

    def __call__(self, vertex: int) -> List[Tuple[int, float]]:
        csr = self.csr
        row = csr.index.get(vertex)
        if row is None:
            return []
        start, stop = csr.offsets[row], csr.offsets[row + 1]
        targets = csr.ids_array()[csr.targets[start:stop]]
        return list(zip(targets.tolist(), csr.factors[start:stop].tolist()))

    def __len__(self) -> int:
        return self.csr.num_edges

    def vertices_with_out_edges(self) -> List[int]:
        """Vertices that have at least one out-link, ascending."""
        ids = self.csr.vertex_ids
        return [ids[row] for row in np.flatnonzero(self.csr.out_degree).tolist()]

    def compiled_csr(self, universe: Iterable[int]) -> FactorCSR:
        """The snapshot.  ``universe`` is not checked: the upper layer's id
        space is the graph's vertices and the proxies, which holds every
        vertex its iteration names."""
        return self.csr
