"""Dense dependency trees for the selective engines.

KickStarter, RisGraph and Ingress's memoization-path policy maintain the
value dependencies of converged selective computations: which in-edge "won"
the aggregation at each vertex.  :class:`DepTable` holds them as arrays:

* ``parent_pos`` — the winning in-neighbor of every vertex as a dense
  position (``-1`` = no parent), keyed by the cached in-edge factor CSR's
  vertex index (the ``sorted(graph.vertices())`` space the
  :mod:`repro.graph.csr_cache` snapshots share);
* ``values`` — the converged states as one float64 array, so support checks
  (``combine(x_u, f_{u,v}) == x_v``) and the trimmed-vertex re-pull run as
  row gathers instead of dict lookups.

Both taint policies are one frontier walk on the cached out-edge CSR of the
pre-delta graph, which shares the table's index: the dependency *tree*
(RisGraph/Ingress) follows the out-edges that are a target's parent link,
the conservative dependency *DAG* (KickStarter) every out-edge whose offer
equals its target's state.  The visited mask keeps the walk finite on the
parent cycles zero-weight support loops can form.  The DAG walk is public
(:func:`supported_dependents`): Layph's selective upload runs it on its
skeleton's CSR, reading states from its working map instead of a table.

The table is built by ``initialize`` (:meth:`DepTable.build`) and remapped
with one gather when a delta changes the vertex-id space.  The dict walks it
replaces live with the test oracles (``tests/oracles``), and
``tests/engine/test_backend_parity.py`` pins the table to them bitwise —
states, rounds, edge activations and the forest itself — over random
edge+vertex delta sequences.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.graph.csr import FactorCSR, expand_edges


class DepTable:
    """Dense dependency-forest store of one selective engine: parent
    positions plus values.

    The column space is the dense vertex index of the engine's cached
    in-edge factor CSR; ``graph_version`` records the
    :attr:`repro.graph.graph.Graph.version` the columns were last
    synchronized against (introspection only — the authoritative sync check
    is the id-list comparison against the CSR, as for ``MemoTable``).
    """

    __slots__ = ("vertex_ids", "index", "parent_pos", "values", "graph_version")

    def __init__(
        self,
        vertex_ids: Sequence[int],
        index: Mapping[int, int],
        parent_pos: np.ndarray,
        values: np.ndarray,
        graph_version: Optional[int] = None,
    ) -> None:
        self.vertex_ids: List[int] = list(vertex_ids)
        self.index: Mapping[int, int] = index
        self.parent_pos = parent_pos
        self.values = values
        self.graph_version = graph_version

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of columns (vertices in the dense index space)."""
        return len(self.vertex_ids)

    def matches_ids(self, vertex_ids: Sequence[int]) -> bool:
        """Whether the table's column space equals ``vertex_ids`` (in order)."""
        return self.vertex_ids == list(vertex_ids)

    def parent_of(self, vertex: int) -> Optional[int]:
        """The recorded dependency parent of ``vertex`` (``None`` = root)."""
        position = self.index.get(vertex)
        if position is None:
            return None
        parent = int(self.parent_pos[position])
        return self.vertex_ids[parent] if parent >= 0 else None

    def to_parents_dict(self) -> Dict[int, Optional[int]]:
        """The forest as a ``{vertex: parent-or-None}`` dict."""
        ids = self.vertex_ids
        return {
            vertex: (ids[int(parent)] if parent >= 0 else None)
            for vertex, parent in zip(ids, self.parent_pos)
        }

    # ------------------------------------------------------------------
    # construction / promotion
    # ------------------------------------------------------------------
    @classmethod
    def from_parents(
        cls,
        csr: FactorCSR,
        states: Mapping[int, float],
        parents: Mapping[int, Optional[int]],
        identity: float,
        graph_version: Optional[int] = None,
    ) -> "DepTable":
        """The table of a ``{vertex: parent-or-None}`` map (restores a
        snapshot of the retired dict store)."""
        ids = csr.vertex_ids
        index = csr.index
        n = len(ids)
        parent_pos = np.fromiter(
            (
                index.get(parents.get(vertex), -1)
                if parents.get(vertex) is not None
                else -1
                for vertex in ids
            ),
            np.int64,
            count=n,
        )
        values = np.fromiter(
            (states.get(vertex, identity) for vertex in ids), np.float64, count=n
        )
        return cls(ids, index, parent_pos, values, graph_version=graph_version)

    @classmethod
    def build(
        cls,
        in_csr: FactorCSR,
        states: Mapping[int, float],
        initial_states: np.ndarray,
        identity: float,
        graph_version: Optional[int] = None,
    ) -> "DepTable":
        """The table of converged ``states``: every vertex's parent derived
        from the cached in-edge CSR (``initialize``)."""
        ids = in_csr.vertex_ids
        n = len(ids)
        values = np.fromiter(map(states.__getitem__, ids), np.float64, count=n)
        parent_pos = _derive_parents(
            in_csr, np.arange(n, dtype=np.int64), values, initial_states, identity
        )
        return cls(ids, in_csr.index, parent_pos, values, graph_version=graph_version)

    # ------------------------------------------------------------------
    # delta maintenance
    # ------------------------------------------------------------------
    def remap(
        self,
        csr: FactorCSR,
        fill_states: Mapping[int, float],
        identity: float,
        graph_version: Optional[int] = None,
    ) -> None:
        """Move the table to a new dense index space after a vertex delta.

        Surviving columns are gathered into their new positions with their
        parent links re-pointed; columns of removed vertices are dropped (a
        removed parent becomes ``None``, which the post-propagation refresh
        overwrites — every child of a removed vertex is an endpoint of a
        deleted edge and therefore stale); brand-new columns start parentless
        with their value taken from ``fill_states``.  A delta that left the
        vertex-id space untouched (the common, edge-only case) is a no-op
        beyond the version stamp.
        """
        if self.matches_ids(csr.vertex_ids):
            if graph_version is not None:
                self.graph_version = graph_version
            return
        new_ids = csr.vertex_ids
        new_index = csr.index
        n_new = len(new_ids)
        old_index = self.index
        gather = np.fromiter(
            (old_index.get(vertex, -1) for vertex in new_ids), np.int64, count=n_new
        )
        old_to_new = np.full(len(self.vertex_ids), -1, dtype=np.int64)
        kept = gather >= 0
        old_to_new[gather[kept]] = np.nonzero(kept)[0]

        values = np.fromiter(
            (fill_states.get(vertex, identity) for vertex in new_ids),
            np.float64,
            count=n_new,
        )
        values[kept] = self.values[gather[kept]]

        parent_pos = np.full(n_new, -1, dtype=np.int64)
        old_parents = self.parent_pos[gather[kept]]
        safe = np.where(old_parents >= 0, old_parents, 0)
        parent_pos[kept] = np.where(old_parents >= 0, old_to_new[safe], -1)

        self.vertex_ids = list(new_ids)
        self.index = new_index
        self.parent_pos = parent_pos
        self.values = values
        if graph_version is not None:
            self.graph_version = graph_version

    # ------------------------------------------------------------------
    # taint expansion
    # ------------------------------------------------------------------
    def taint_tree(self, out_csr: FactorCSR, roots: np.ndarray) -> np.ndarray:
        """Boolean mask of the dependency-tree dependents of ``roots``.

        Every vertex whose parent chain passes through a root (set-equal to
        the oracles' ``dependents_single_parent``).  Every parent link is an
        edge of the graph the forest was derived on and the table shares its
        out-edge CSR's index, so a vertex's forest children are exactly the
        entries of its out-row whose parent is that vertex: the walk follows
        those and costs O(out-edges of the tainted region).
        """
        parent = self.parent_pos
        return _walk(
            out_csr,
            roots,
            lambda frontier, counts, slots, ends: parent[ends]
            == np.repeat(frontier, counts),
        )

    def taint_dag(self, out_csr: FactorCSR, roots: np.ndarray) -> np.ndarray:
        """Boolean mask of the value-supporting DAG reachable from ``roots``.

        :func:`supported_dependents` over the table's values (set-equal to
        the oracles' ``dependents_dag``).
        """
        return supported_dependents(out_csr, roots, self.values.__getitem__)

    # ------------------------------------------------------------------
    # trim and seed
    # ------------------------------------------------------------------
    def trim_and_seed(
        self,
        in_csr: FactorCSR,
        tainted_rows: np.ndarray,
        initial_messages: np.ndarray,
        identity: float,
    ) -> Tuple[np.ndarray, int]:
        """Re-pull every tainted vertex from its non-tainted in-neighbors.

        Array replay of the oracles' ``trim_and_seed``: each tainted row's best value starts at its root message and folds
        ``min`` over ``x_u + f_{u,v}`` of the surviving (non-tainted,
        non-identity) in-neighbors — ``min`` is order-insensitive and exact,
        so the floats match the dict loop bit for bit.  Returns the per-row
        best values and the number of in-edges visited (the F-work the
        engines meter), and resets the tainted columns of :attr:`values` to
        the identity afterwards, mirroring the dict loop's state resets.
        """
        best = initial_messages.copy()
        tainted_mask = np.zeros(self.values.size, dtype=bool)
        tainted_mask[tainted_rows] = True
        counts = in_csr.out_degree[tainted_rows]
        total = int(counts.sum())
        if total:
            slots = expand_edges(in_csr.offsets[tainted_rows], counts, total)
            sources = in_csr.targets[slots]
            segments = np.repeat(
                np.arange(tainted_rows.size, dtype=np.int64), counts
            )
            source_values = self.values[sources]
            keep = ~tainted_mask[sources] & (source_values != identity)
            if keep.any():
                offered = source_values[keep] + in_csr.factors[slots][keep]
                np.minimum.at(best, segments[keep], offered)
        self.values[tainted_rows] = identity
        return best, total

    # ------------------------------------------------------------------
    # post-propagation refresh
    # ------------------------------------------------------------------
    def refresh(
        self,
        in_csr: FactorCSR,
        out_csr: FactorCSR,
        states: Mapping[int, float],
        seed_rows: np.ndarray,
        written_rows: np.ndarray,
        initial_states: np.ndarray,
        identity: float,
        graph_version: Optional[int] = None,
    ) -> None:
        """Re-derive the parents of every vertex whose support may have changed.

        ``seed_rows`` are the rows the engine already knows are stale
        (tainted vertices plus changed-edge endpoints).  ``written_rows`` is
        a superset of the rows whose state may differ from :attr:`values`;
        only those are re-gathered from ``states``, and rows outside it are
        trusted to still match (the caller owns that invariant).  The
        refresh adds the rows whose state changed and the out-neighbors of
        every stale row, then re-derives their parents on the cached in-edge
        CSR (:func:`_derive_parents`).
        """
        ids = self.vertex_ids
        n = len(ids)
        stale = np.zeros(n, dtype=bool)
        stale[seed_rows] = True
        if written_rows.size:
            gathered = np.fromiter(
                (states[ids[row]] for row in written_rows.tolist()),
                np.float64,
                count=written_rows.size,
            )
            diff = ~(gathered == self.values[written_rows])
            stale[written_rows[diff]] = True
            self.values[written_rows] = gathered

        expand_from = np.nonzero(stale)[0]
        counts = out_csr.out_degree[expand_from]
        total = int(counts.sum())
        if total:
            slots = expand_edges(out_csr.offsets[expand_from], counts, total)
            stale[out_csr.targets[slots]] = True

        rows = np.nonzero(stale)[0]
        if rows.size:
            self.parent_pos[rows] = _derive_parents(
                in_csr, rows, self.values, initial_states, identity
            )
        if graph_version is not None:
            self.graph_version = graph_version


def supported_dependents(
    out_csr: FactorCSR,
    roots: np.ndarray,
    states_of: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """Boolean mask of the selective dependency DAG reachable from ``roots``.

    The walk follows every out-edge whose offer ``x_u + f_{u,v}`` equals its
    target's non-identity state exactly: every state a selective
    propagation writes is its root value or one in-edge's offer, so ``==``
    finds every support and no slack is needed.  ``states_of(rows)``
    returns the states of the given rows of ``out_csr`` (a table column
    gather, or Layph's lookup into its working map); ``combine`` is the
    contract's ``+`` for selective specs, so the offers are the exact
    floats the propagation computed.
    """
    factors = out_csr.factors

    def supports(frontier, counts, slots, ends):
        target_states = states_of(ends)
        offers = np.repeat(states_of(frontier), counts) + factors[slots]
        return (target_states != math.inf) & (offers == target_states)

    return _walk(out_csr, roots, supports)


def _walk(
    out_csr: FactorCSR,
    roots: np.ndarray,
    follows: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray],
) -> np.ndarray:
    """Boolean mask of the rows reachable from ``roots`` along the out-edges
    ``follows(frontier, counts, slots, targets)`` accepts (``counts``: each
    frontier row's out-degree, so ``np.repeat(frontier, counts)`` is every
    slot's source row), one frontier per step."""
    mask = np.zeros(out_csr.num_vertices, dtype=bool)
    frontier = np.unique(roots)
    while frontier.size:
        mask[frontier] = True
        counts = out_csr.out_degree[frontier]
        total = int(counts.sum())
        if not total:
            break
        slots = expand_edges(out_csr.offsets[frontier], counts, total)
        ends = out_csr.targets[slots]
        frontier = np.unique(ends[~mask[ends] & follows(frontier, counts, slots, ends)])
    return mask


def _derive_parents(
    in_csr: FactorCSR,
    rows: np.ndarray,
    values: np.ndarray,
    initial_states: np.ndarray,
    identity: float,
) -> np.ndarray:
    """The dependency parent (a row, ``-1`` = none) of each of ``rows``.

    A vertex gets the *first* in-neighbor (row order = adjacency insertion
    order) whose non-identity state offers exactly the vertex's state, or no
    parent when it holds the identity or its own root value.
    """
    parent = np.full(rows.size, -1, dtype=np.int64)
    needs = (values[rows] != identity) & (values[rows] != initial_states[rows])
    candidate_rows = rows[needs]
    counts = in_csr.out_degree[candidate_rows]
    total = int(counts.sum())
    if total:
        slots = expand_edges(in_csr.offsets[candidate_rows], counts, total)
        sources = in_csr.targets[slots]
        segments = np.repeat(np.arange(candidate_rows.size, dtype=np.int64), counts)
        source_values = values[sources]
        offered = source_values + in_csr.factors[slots]
        valid = (source_values != identity) & (offered == values[candidate_rows][segments])
        first = np.full(candidate_rows.size, total, dtype=np.int64)
        slot_order = np.arange(total, dtype=np.int64)
        np.minimum.at(first, segments[valid], slot_order[valid])
        found = first < total
        winners = np.full(candidate_rows.size, -1, dtype=np.int64)
        winners[found] = sources[first[found]]
        parent[np.nonzero(needs)[0]] = winners
    return parent
