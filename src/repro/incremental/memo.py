"""Dense memoization tables for the per-iteration BSP engines.

GraphBolt and DZiG memoize the aggregated vertex values of *every* BSP
iteration.  The original store — ``List[Dict[int, float]]`` — makes each
superstep pay a Python-level ``dict(zip(ids, values.tolist()))``
materialisation and each refinement pull an ``np.fromiter`` walk over those
dicts, which the ROADMAP names as the refinement bottleneck after the PR 2
CSR cache.  :class:`MemoTable` replaces the dict store with one 2-D float64
matrix:

* row ``i`` holds iteration ``i``'s value for every vertex, keyed by the
  dense vertex index of the engine's cached in-edge factor CSR (the same
  ``sorted(graph.vertices())`` index space :mod:`repro.graph.csr_cache`
  maintains), so refinement pulls become pure ``matrix[i-1][sources]``
  gathers and ``matrix[i][rows] = values`` scatters;
* rows are appended with amortized-doubling growth, so a batch run of ``k``
  supersteps costs O(k·V) array writes and zero dict churn;
* ``NaN`` marks an absent vertex (a column the current graph does not
  populate), mirroring a missing key in a per-level dict;
* when a delta adds or removes vertices, :meth:`MemoTable.remap` moves the
  surviving columns to the new CSR index space with one gather (and fills
  brand-new columns across all levels), reusing
  :attr:`repro.graph.graph.Graph.version` for staleness introspection the
  same way :func:`repro.graph.csr_cache.master_factor_csr` keys its memo.

The dict loops these matrices replace live with the test oracles
(``tests/oracles``); the parity suites pin the table to them bitwise —
iterations, states, rounds and edge activations.  Because NaN means
"absent", no real state may ever be NaN: the engines reject NaN inputs at
their boundary (:mod:`repro.incremental.base`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np


def refinement_preamble(csr_cache, spec, graph, csr, structurally_dirty):
    """Shared preamble of the dense-refinement loops (GraphBolt and DZiG).

    Both engines start an array-native refinement the same way: fetch the
    cached out-edge factor CSR of the current graph (frontier assembly walks
    out-neighbors of changed rows) and scatter the structurally-dirty vertex
    ids into a boolean row mask over the in-edge CSR's dense index space.
    Extracting it here keeps the two engines from drifting apart.

    Args:
        csr_cache: the engine's :class:`repro.graph.csr_cache.CSRCache`.
        spec: the algorithm spec.
        graph: the engine's current (post-delta) graph.
        csr: the cached *in-edge* factor CSR the memo table is keyed by.
        structurally_dirty: vertex ids whose incoming factor map changed.

    Returns:
        ``(out_csr, dirty_mask)`` — the cached out-edge CSR and the dirty
        row mask (``dirty_mask[csr.index[v]]`` for every dirty ``v``).
    """
    out_csr = csr_cache.out_csr(spec, graph)
    dirty_mask = np.zeros(csr.num_vertices, dtype=bool)
    if structurally_dirty:
        dirty_mask[
            np.fromiter(
                (csr.index[v] for v in structurally_dirty),
                np.int64,
                count=len(structurally_dirty),
            )
        ] = True
    return out_csr, dirty_mask


class MemoRow:
    """Mapping-style view of one :class:`MemoTable` row.

    Exposes the tiny dict surface the sparse (delta-sized) refinement loops
    read and write — ``get``/``__setitem__``/``__contains__`` — against the
    underlying matrix row, with ``NaN`` translating to "absent" exactly like
    a missing dict key.  The delta-sized loops stay Python by design (see the
    README coverage table); this view lets them run on the dense store
    without materialising a dict per iteration.
    """

    __slots__ = ("values", "index")

    def __init__(self, values: np.ndarray, index: Mapping[int, int]) -> None:
        self.values = values
        self.index = index

    def get(self, vertex: int, default: Optional[float] = None) -> Optional[float]:
        position = self.index.get(vertex)
        if position is None:
            return default
        value = self.values[position]
        if value != value:  # NaN column: vertex absent at this level
            return default
        return float(value)

    def __contains__(self, vertex: int) -> bool:
        position = self.index.get(vertex)
        if position is None:
            return False
        value = self.values[position]
        return value == value

    def __setitem__(self, vertex: int, value: float) -> None:
        self.values[self.index[vertex]] = value


class MemoTable:
    """Dense per-iteration memoization store (one matrix row per iteration).

    The column space is the dense vertex index of the engine's cached in-edge
    CSR; ``graph_version`` records the :attr:`Graph.version` the columns were
    last synchronized against (introspection only — the authoritative sync
    check is the id-list comparison the engines perform against the CSR).
    """

    __slots__ = ("vertex_ids", "index", "num_levels", "graph_version", "_matrix")

    def __init__(
        self,
        vertex_ids: Sequence[int],
        index: Optional[Mapping[int, int]] = None,
        graph_version: Optional[int] = None,
        capacity: int = 8,
    ) -> None:
        self.vertex_ids: List[int] = list(vertex_ids)
        self.index: Mapping[int, int] = (
            index
            if index is not None
            else {vertex: position for position, vertex in enumerate(self.vertex_ids)}
        )
        self.num_levels = 0
        self.graph_version = graph_version
        self._matrix = np.full(
            (max(int(capacity), 1), len(self.vertex_ids)), np.nan, dtype=np.float64
        )

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of columns (vertices in the dense index space)."""
        return len(self.vertex_ids)

    @property
    def capacity(self) -> int:
        """Currently allocated level capacity (grows by doubling)."""
        return int(self._matrix.shape[0])

    def __len__(self) -> int:
        return self.num_levels

    # ------------------------------------------------------------------
    # growth
    # ------------------------------------------------------------------
    def _ensure_capacity(self, levels: int) -> None:
        capacity = self._matrix.shape[0]
        if levels <= capacity:
            return
        while capacity < levels:
            capacity *= 2
        grown = np.full((capacity, self.num_vertices), np.nan, dtype=np.float64)
        grown[: self.num_levels] = self._matrix[: self.num_levels]
        self._matrix = grown

    def append(self, values: np.ndarray) -> np.ndarray:
        """Append one iteration row (copied in); returns the stored row view."""
        self._ensure_capacity(self.num_levels + 1)
        self._matrix[self.num_levels, :] = values
        self.num_levels += 1
        return self._matrix[self.num_levels - 1]

    def append_copy_of(self, level: int) -> np.ndarray:
        """Append a copy of an existing level (the beyond-memo-range seed)."""
        return self.append(self.row(level))

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def row(self, level: int) -> np.ndarray:
        """Writable array view of one level (negative levels count from the end)."""
        if level < 0:
            level += self.num_levels
        if not 0 <= level < self.num_levels:
            raise IndexError(f"level {level} out of range (0..{self.num_levels - 1})")
        return self._matrix[level]

    def row_view(self, level: int) -> MemoRow:
        """Dict-style view of one level for the delta-sized Python loops."""
        return MemoRow(self.row(level), self.index)

    def level_dict(self, level: int) -> Dict[int, float]:
        """One level exported as a ``{vertex: value}`` dict (NaN columns skipped)."""
        values = self.row(level)
        return {
            vertex: float(values[position])
            for position, vertex in enumerate(self.vertex_ids)
            if values[position] == values[position]
        }

    def to_dicts(self) -> List[Dict[int, float]]:
        """Every level exported as ``{vertex: value}`` dicts."""
        return [self.level_dict(level) for level in range(self.num_levels)]

    def copy(self) -> "MemoTable":
        """Snapshot of the live levels (used by DZiG's pre-delta baseline)."""
        clone = MemoTable(
            self.vertex_ids,
            self.index,
            graph_version=self.graph_version,
            capacity=max(self.num_levels, 1),
        )
        clone._matrix[: self.num_levels] = self._matrix[: self.num_levels]
        clone.num_levels = self.num_levels
        return clone

    # ------------------------------------------------------------------
    # delta maintenance
    # ------------------------------------------------------------------
    def remap(
        self,
        new_vertex_ids: Sequence[int],
        new_index: Mapping[int, int],
        fill: Mapping[int, float],
        graph_version: Optional[int] = None,
    ) -> None:
        """Move the table to a new dense index space after a vertex delta.

        Surviving columns are gathered into their new positions; columns of
        removed vertices are dropped; columns of ``fill`` vertices (the
        delta's additions) are set to the given value at *every* level —
        exactly what the reference's per-level dicts do.
        Any new column not covered by ``fill`` stays ``NaN`` (absent).
        """
        n_new = len(new_vertex_ids)
        old_index = self.index
        gather = np.fromiter(
            (old_index.get(vertex, -1) for vertex in new_vertex_ids),
            np.int64,
            count=n_new,
        )
        matrix = np.full((self.capacity, n_new), np.nan, dtype=np.float64)
        if self.num_levels:
            kept = gather >= 0
            matrix[: self.num_levels, kept] = self._matrix[
                : self.num_levels, gather[kept]
            ]
            for vertex, value in fill.items():
                position = new_index.get(vertex)
                if position is not None:
                    matrix[: self.num_levels, position] = value
        self.vertex_ids = list(new_vertex_ids)
        self.index = new_index
        self._matrix = matrix
        if graph_version is not None:
            self.graph_version = graph_version

    def matches_ids(self, vertex_ids: Iterable[int]) -> bool:
        """Whether the table's column space equals ``vertex_ids`` (in order)."""
        return self.vertex_ids == list(vertex_ids)
