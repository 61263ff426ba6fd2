"""Dense dependency trees for the selective engines.

KickStarter, RisGraph and Ingress's memoization-path policy maintain the
value dependencies of converged selective computations: which in-edge "won"
the aggregation at each vertex.  :class:`DepTable` holds them as arrays:

* ``parent_pos`` — the winning in-neighbor of every vertex as a dense
  position (``-1`` = no parent), keyed by the cached in-edge factor CSR's
  vertex index (the ``sorted(graph.vertices())`` space the
  :mod:`repro.graph.csr_cache` snapshots share);
* ``levels`` — each vertex's depth in the dependency forest, recomputed with
  pointer doubling after every parent refresh; a level-ordered sweep taints a
  whole dependency *tree* in one pass (RisGraph/Ingress), and a mask-based
  frontier walk on the cached out-edge CSR taints the conservative
  dependency *DAG* (KickStarter);
* ``values`` — the converged states as one float64 array, so support checks
  (``combine(x_u, f_{u,v}) == x_v``) and the trimmed-vertex re-pull run as
  row gathers instead of dict lookups.

The table is built by ``initialize`` (:meth:`DepTable.build`) and remapped
with one gather when a delta changes the vertex-id space.  The dict walks it
replaces live with the test oracles (``tests/oracles``), and
``tests/engine/test_backend_parity.py`` pins the table to them bitwise —
states, rounds, edge activations and the forest itself — over random
edge+vertex delta sequences.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.graph.csr import FactorCSR, expand_edges

_EMPTY_ROWS = np.zeros(0, dtype=np.int64)


class DepTable:
    """Dense dependency-forest store of one selective engine.

    The column space is the dense vertex index of the engine's cached
    in-edge factor CSR; ``graph_version`` records the
    :attr:`repro.graph.graph.Graph.version` the columns were last
    synchronized against (introspection only — the authoritative sync check
    is the id-list comparison against the CSR, as for ``MemoTable``).
    """

    __slots__ = (
        "vertex_ids",
        "index",
        "parent_pos",
        "values",
        "levels",
        "graph_version",
        "_levels_stale",
        "_level_order",
        "_level_starts",
        "_child_order",
        "_child_sorted",
        "_children_added",
        "_moved_mask",
        "_moves_by_level",
        "_move_level_of",
        "level_rebuilds",
        "level_patches",
        "full_value_gathers",
        "partial_value_gathers",
    )

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
        #: per-vertex depth in the dependency forest (0 = no parent), or
        #: ``None`` when the parent array contains a cycle (zero-weight
        #: support loops) — tree tainting then falls back to the fixpoint.
        #: Computed lazily on the first :meth:`taint_tree` after a parent
        #: change (the DAG policy never pays for it); ``False`` marks stale.
        self.levels: Optional[np.ndarray] = None
        self.graph_version = graph_version
        self._levels_stale = True
        self._level_order: Optional[np.ndarray] = None
        self._level_starts: Optional[np.ndarray] = None
        #: children index built alongside the levels (rows sorted by parent)
        #: plus the per-patch corrections/overlay of the incremental level
        #: maintenance; valid only while the levels are
        self._child_order: Optional[np.ndarray] = None
        self._child_sorted: Optional[np.ndarray] = None
        self._children_added: Dict[int, List[int]] = {}
        self._moved_mask: Optional[np.ndarray] = None
        self._moves_by_level: Dict[int, Set[int]] = {}
        self._move_level_of: Dict[int, int] = {}
        #: full pointer-doubling recomputations vs in-place patches (tests)
        self.level_rebuilds = 0
        self.level_patches = 0
        #: O(V) value gathers vs candidate-row gathers in :meth:`refresh`
        self.full_value_gathers = 0
        self.partial_value_gathers = 0

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of columns (vertices in the dense index space)."""
        return len(self.vertex_ids)

    def matches_ids(self, vertex_ids: Sequence[int]) -> bool:
        """Whether the table's column space equals ``vertex_ids`` (in order)."""
        return self.vertex_ids == list(vertex_ids)

    def forest_levels(self) -> Optional[np.ndarray]:
        """The per-vertex forest depths, computed on demand (``None`` on a
        parent cycle — the tree taint then uses its fixpoint fallback)."""
        if self._levels_stale:
            self._refresh_levels()
        return self.levels

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
        self._levels_stale = True

    # ------------------------------------------------------------------
    # dependency levels
    # ------------------------------------------------------------------
    def _refresh_levels(self) -> None:
        """Recompute the forest depths with pointer doubling (O(V log d)).

        A parent cycle (possible with zero-weight support loops) leaves
        ``levels`` as ``None``; :meth:`taint_tree` then uses the mask
        fixpoint, which converges regardless.
        """
        parent = self.parent_pos
        n = parent.size
        self._levels_stale = False
        self._level_order = None
        self._level_starts = None
        self._child_order = None
        self._child_sorted = None
        self._children_added = {}
        self._moved_mask = None
        self._moves_by_level = {}
        self._move_level_of = {}
        self.level_rebuilds += 1
        if n == 0:
            self.levels = np.zeros(0, dtype=np.int64)
            return
        # Pointer doubling: ``level[i]`` counts the steps from ``i`` to
        # ``jump[i]`` (or to its root once ``jump[i]`` is -1); every round
        # both quantities compose with the jump target's, doubling the
        # walked distance, so depth-d forests settle in O(log d) rounds.
        level = (parent >= 0).astype(np.int64)
        jump = parent.copy()
        limit = int(math.ceil(math.log2(max(n, 2)))) + 2
        iterations = 0
        while True:
            live = jump >= 0
            if not live.any():
                break
            if iterations > limit:
                self.levels = None
                return
            targets = jump[live]
            level[live] = level[live] + level[targets]
            jump[live] = jump[targets]
            iterations += 1
        self.levels = level

    # ------------------------------------------------------------------
    # incremental level maintenance
    # ------------------------------------------------------------------
    def _ensure_child_index(self) -> None:
        """Build the rows-sorted-by-parent index used to walk subtrees.

        Built lazily on the first level patch (full rebuilds drop it), from
        the *current* parent array; rows re-parented afterwards are tracked
        in ``_children_added`` and every base hit is re-validated against
        ``parent_pos``, so the index never needs re-sorting between rebuilds.
        """
        if self._child_order is None:
            self._child_order = np.argsort(self.parent_pos, kind="stable")
            self._child_sorted = self.parent_pos[self._child_order]
            self._children_added = {}

    def _children_of(self, rows: np.ndarray) -> np.ndarray:
        """Current children (rows whose parent is in ``rows``), deduplicated."""
        left = np.searchsorted(self._child_sorted, rows, side="left")
        right = np.searchsorted(self._child_sorted, rows, side="right")
        counts = right - left
        total = int(counts.sum())
        pieces = []
        if total:
            slots = expand_edges(left, counts, total)
            candidates = self._child_order[slots]
            keep = self.parent_pos[candidates] == np.repeat(rows, counts)
            if keep.any():
                pieces.append(candidates[keep])
        extras: List[int] = []
        for row in rows.tolist():
            for child in self._children_added.get(row, ()):
                if self.parent_pos[child] == row:
                    extras.append(child)
        if extras:
            pieces.append(np.fromiter(extras, np.int64, count=len(extras)))
        if not pieces:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(pieces)) if len(pieces) > 1 else np.unique(pieces[0])

    def _record_moves(self, moved: np.ndarray, moved_levels: np.ndarray) -> None:
        """Move rows between level buckets without re-sorting the base order."""
        if self._moved_mask is None:
            self._moved_mask = np.zeros(self.parent_pos.size, dtype=bool)
        for row, level in zip(moved.tolist(), moved_levels.tolist()):
            previous = self._move_level_of.get(row)
            if previous is not None:
                self._moves_by_level[previous].discard(row)
            self._move_level_of[row] = level
            self._moves_by_level.setdefault(level, set()).add(row)
            self._moved_mask[row] = True

    def _patch_levels(self, rows: np.ndarray, old_parents: np.ndarray) -> bool:
        """Repair ``levels`` in place after :meth:`refresh` re-derived ``rows``.

        Only rows whose parent actually changed can move; their new depths are
        pushed down the (new) subtrees with a children BFS.  Returns ``False``
        — caller marks the levels stale for a full rebuild — when the walk
        blows its budget (new-parent cycle, or a re-parenting that drags a
        large subtree) or the bucket overlay has grown past ``n/4``.
        """
        levels = self.levels
        parent = self.parent_pos
        changed = rows[parent[rows] != old_parents]
        if changed.size == 0:
            return True
        self._ensure_child_index()
        for row, new_parent in zip(changed.tolist(), parent[changed].tolist()):
            if new_parent >= 0:
                self._children_added.setdefault(new_parent, []).append(row)
        n = parent.size
        budget = 4 * n + 16
        visited = 0
        frontier = np.unique(changed)
        while frontier.size:
            visited += int(frontier.size)
            if visited > budget:
                return False
            has_parent = parent[frontier] >= 0
            safe = np.where(has_parent, parent[frontier], 0)
            new_levels = np.where(has_parent, levels[safe] + 1, 0)
            moved_here = new_levels != levels[frontier]
            if not moved_here.any():
                break
            moved = frontier[moved_here]
            moved_levels = new_levels[moved_here]
            levels[moved] = moved_levels
            self._record_moves(moved, moved_levels)
            frontier = self._children_of(moved)
        if self._moved_mask is not None and int(self._moved_mask.sum()) > n // 4:
            return False
        return True

    # ------------------------------------------------------------------
    # taint expansion
    # ------------------------------------------------------------------
    def taint_tree(self, roots: np.ndarray) -> np.ndarray:
        """Boolean mask of the dependency-tree dependents of ``roots``.

        Every vertex whose parent chain passes through a root (set-equal to
        the oracles' ``dependents_single_parent``).  Processed as one sweep in ascending forest-level
        order (a parent's level is strictly below its children's), falling
        back to a mask fixpoint when the levels are unavailable.
        """
        n = self.parent_pos.size
        mask = np.zeros(n, dtype=bool)
        if roots.size == 0:
            return mask
        mask[roots] = True
        parent = self.parent_pos
        if self._levels_stale:
            self._refresh_levels()
        if self.levels is not None:
            order, starts, max_level = self._level_buckets()
            moves = self._moves_by_level
            moved_mask = self._moved_mask
            if moves:
                populated = [level for level, rows_ in moves.items() if rows_]
                if populated:
                    max_level = max(max_level, max(populated))
            safe = np.where(parent >= 0, parent, 0)
            for level in range(1, max_level + 1):
                if level < starts.size - 1:
                    bucket = order[starts[level] : starts[level + 1]]
                else:
                    bucket = _EMPTY_ROWS
                if moved_mask is not None:
                    # rows moved since the bucket order was built are swept
                    # at their current level instead of their build-time one
                    if bucket.size:
                        bucket = bucket[~moved_mask[bucket]]
                    extra = moves.get(level)
                    if extra:
                        moved_rows = np.fromiter(extra, np.int64, count=len(extra))
                        bucket = (
                            np.concatenate([bucket, moved_rows])
                            if bucket.size
                            else moved_rows
                        )
                if not bucket.size:
                    continue
                hits = mask[safe[bucket]] & (parent[bucket] >= 0)
                if hits.any():
                    mask[bucket[hits]] = True
            return mask
        valid = parent >= 0
        safe = np.where(valid, parent, 0)
        while True:
            newly = valid & ~mask & mask[safe]
            if not newly.any():
                return mask
            mask[newly] = True

    def _level_buckets(self) -> Tuple[np.ndarray, np.ndarray, int]:
        """Vertices sorted by forest level plus per-level slice starts."""
        if self._level_order is None:
            levels = self.levels
            assert levels is not None
            self._level_order = np.argsort(levels, kind="stable")
            max_level = int(levels[self._level_order[-1]]) if levels.size else 0
            self._level_starts = np.searchsorted(
                levels[self._level_order], np.arange(max_level + 2)
            )
        return (
            self._level_order,
            self._level_starts,
            int(self._level_starts.size - 2),
        )

    def taint_dag(self, out_csr: FactorCSR, roots: np.ndarray) -> np.ndarray:
        """Boolean mask of the value-supporting DAG reachable from ``roots``.

        A frontier walk on the cached out-edge CSR following every edge whose
        offer equals its target's (non-identity) state (set-equal to the
        oracles' ``dependents_dag``).  ``combine`` is the contract's ``+``
        for selective specs, so the offers are the exact floats the dict
        walk computes.
        """
        n = self.parent_pos.size
        mask = np.zeros(n, dtype=bool)
        values = self.values
        identity = math.inf
        frontier = np.unique(roots)
        offsets, targets, factors, out_degree = (
            out_csr.offsets,
            out_csr.targets,
            out_csr.factors,
            out_csr.out_degree,
        )
        while frontier.size:
            mask[frontier] = True
            counts = out_degree[frontier]
            total = int(counts.sum())
            if not total:
                break
            slots = expand_edges(offsets[frontier], counts, total)
            edge_targets = targets[slots]
            offered = np.repeat(values[frontier], counts) + factors[slots]
            supported = (
                ~mask[edge_targets]
                & (values[edge_targets] != identity)
                & (offered == values[edge_targets])
            )
            frontier = np.unique(edge_targets[supported])
        return mask

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
        initial_states: np.ndarray,
        identity: float,
        graph_version: Optional[int] = None,
        changed_rows: Optional[np.ndarray] = None,
    ) -> None:
        """Re-derive the parents of every vertex whose support may have changed.

        ``seed_rows`` are the rows the engine already knows are stale
        (tainted vertices plus changed-edge endpoints); the refresh adds the
        vertices whose state changed this delta and the out-neighbors of
        every stale vertex, then re-derives their parents on the cached
        in-edge CSR (:func:`_derive_parents`).

        ``changed_rows``, when given, is a superset of the rows whose state
        may differ from :attr:`values` (the engine tracks every write to its
        working dict); only those rows are re-gathered from ``states``
        instead of the full O(V) sweep.  Rows outside it are trusted to
        still match — the caller owns that invariant.  The forest levels are
        patched in place when only a few parents moved, and marked for a
        full pointer-doubling rebuild otherwise.
        """
        ids = self.vertex_ids
        n = len(ids)
        if changed_rows is None:
            # The engine invariant guarantees a state for every graph vertex
            # at this point (removed ones popped, added ones seeded), so the
            # gather can use the C-level ``map``/``__getitem__`` fast path.
            new_values = np.fromiter(
                map(states.__getitem__, ids), np.float64, count=n
            )
            changed = ~(new_values == self.values)
            self.full_value_gathers += 1
        else:
            changed = np.zeros(n, dtype=bool)
            if changed_rows.size:
                gathered = np.fromiter(
                    (states[ids[row]] for row in changed_rows.tolist()),
                    np.float64,
                    count=changed_rows.size,
                )
                diff = ~(gathered == self.values[changed_rows])
                changed[changed_rows[diff]] = True
                self.values[changed_rows] = gathered
            new_values = self.values
            self.partial_value_gathers += 1

        stale = np.zeros(n, dtype=bool)
        stale[seed_rows] = True
        expand_from = np.nonzero(stale | changed)[0]
        stale[expand_from] = True
        counts = out_csr.out_degree[expand_from]
        total = int(counts.sum())
        if total:
            slots = expand_edges(out_csr.offsets[expand_from], counts, total)
            stale[out_csr.targets[slots]] = True

        if changed_rows is None:
            self.values = new_values
        rows = np.nonzero(stale)[0]
        if rows.size:
            parent = _derive_parents(in_csr, rows, new_values, initial_states, identity)
            old_parents = self.parent_pos[rows].copy()
            self.parent_pos[rows] = parent
        if graph_version is not None:
            self.graph_version = graph_version
        if not rows.size:
            return
        if self._levels_stale or self.levels is None:
            self._levels_stale = True
        elif self._patch_levels(rows, old_parents):
            self.level_patches += 1
        else:
            self._levels_stale = True


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
