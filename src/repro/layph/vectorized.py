"""Vectorized (numpy) kernels for Layph's online phases.

* :func:`assign_selective_batch` / :func:`assign_accumulative_batch` —
  phase 4's shortcut scans over every assigned subgraph in one kernel call,
  on the :class:`ShortcutStack` the layered graph keeps resident;
* :func:`seed_tainted_upper` — phase 2's trim/seed of invalidated upper
  vertices, a target-mask gather over the resident upper out-CSR.

Every kernel reproduces the reference loops kept with the test oracles
(``tests/oracles``) exactly — states, round counts and edge activations —
with the ordering arguments of :mod:`repro.engine.dense_propagation`.  They
trust the algebra the engine checked at construction and its NaN-free
inputs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.engine.dense_propagation import COMBINE_ADD
from repro.engine.metrics import ExecutionMetrics
from repro.graph.csr import expand_edges, locate
from repro.graph.csr_cache import master_factor_csr
from repro.layph.shortcuts import local_vertex_arrays
from repro.parallel.slabs import assign_best_offers, assign_deltas


# ----------------------------------------------------------------------
# phase 4: the resident shortcut stack
# ----------------------------------------------------------------------
def _segment(spec, subgraph) -> Dict[str, np.ndarray]:
    """Boundary→internal shortcut rows of one subgraph as CSR arrays.

    Row ``i`` lists the internal-target entries of the table's ``i``-th
    source (``boundary_ids``, ascending), targets (vertex ids) ascending:
    each target gets at most one entry per row, so it receives its entries
    in ascending boundary order, as the Python assignment loops apply them.
    ``allowed`` (not absorbing) and ``initial`` (the initial messages) of
    the ascending ``internal_ids`` are gathered from the local CSR's
    memoized vertex arrays (:func:`repro.layph.shortcuts.local_vertex_arrays`).
    """
    table = subgraph.shortcuts
    internal = np.sort(np.fromiter(subgraph.internal, np.int64, count=len(subgraph.internal)))
    csr = master_factor_csr(subgraph.local_adjacency, subgraph.internal)
    absorb, initial = local_vertex_arrays(spec, subgraph.local_adjacency, csr)
    rows = np.searchsorted(csr.ids_array(), internal)
    columns, listed = locate(np.asarray(table.columns, dtype=np.int64), internal)
    entries = table.block[:, columns[listed]]
    present = entries != table.identity
    return {
        "boundary_ids": np.array(table.sources, dtype=np.int64),
        "counts": np.count_nonzero(present, axis=1).astype(np.int64),
        "targets": internal[listed][np.nonzero(present)[1]],
        "factors": entries[present],
        "internal_ids": internal,
        "allowed": ~absorb[rows],
        "initial": initial[rows],
    }


class ShortcutStack:
    """Every subgraph's :func:`_segment`, resident across deltas, and the
    vertex-indexed arrays phase 4's kernels read.

    Every boundary vertex and every internal vertex belongs to exactly one
    subgraph, so the assigned subgraphs' segments stack (:meth:`rows`) into
    one CSR in which a vertex has at most one row and each target receives
    its entries in its own subgraph's scan order.  :meth:`sync` rebuilds
    the segments of the assigned subgraphs whose table (never mutated: a
    refresh installs a new one) or internal set changed since their segment
    was built; the others may stay stale until they are assigned.
    """

    def __init__(self) -> None:
        #: per subgraph, the (table, internal set) its segment was built from
        self.keys: List[Optional[Tuple[object, object]]] = []
        self.segments: List[Optional[Dict[str, np.ndarray]]] = []
        #: by vertex id, written for the internal vertices of built segments
        self.initial = np.empty(0, dtype=np.float64)
        self.allowed = np.empty(0, dtype=bool)
        #: by vertex id: the kernels' value buffer, read and written only at
        #: the assigned segments' internal vertices
        self.scratch = np.empty(0, dtype=np.float64)

    def sync(self, spec, subgraphs, indices: List[int]) -> None:
        """Bring the segments ``indices`` up to date with their
        ``subgraphs`` (all of them, by index)."""
        if not self.keys:
            self.keys = [None] * len(subgraphs)
            self.segments = [None] * len(subgraphs)
        stale = [
            index
            for index in indices
            if self.keys[index] != (subgraphs[index].shortcuts, subgraphs[index].internal)
        ]
        if not stale:
            return
        parts = [_segment(spec, subgraphs[index]) for index in stale]
        for index, part in zip(stale, parts):
            self.keys[index] = (subgraphs[index].shortcuts, subgraphs[index].internal)
            self.segments[index] = part
        inner = np.concatenate([part["internal_ids"] for part in parts])
        size = int(inner.max(initial=-1)) + 1
        if size > self.initial.size:
            for name in ("initial", "allowed", "scratch"):
                old = getattr(self, name)
                setattr(self, name, np.concatenate((old, np.zeros(size - old.size, dtype=old.dtype))))
        self.initial[inner] = np.concatenate([part["initial"] for part in parts])
        self.allowed[inner] = np.concatenate([part["allowed"] for part in parts])

    def rows(self, indices: List[int]) -> Tuple[np.ndarray, ...]:
        """The synced segments ``indices`` stacked, in that order:
        ``(boundary_ids, offsets, counts, targets, factors)``."""
        segments = [self.segments[index] for index in indices]
        boundary_ids, counts, targets, factors = (
            np.concatenate([segment[name] for segment in segments])
            for name in ("boundary_ids", "counts", "targets", "factors")
        )
        return boundary_ids, np.cumsum(counts) - counts, counts, targets, factors


# ----------------------------------------------------------------------
# phase 4: revision-message assignment
# ----------------------------------------------------------------------
def assign_selective_batch(
    spec,
    stack: ShortcutStack,
    indices: List[int],
    work: Dict[int, float],
    metrics: ExecutionMetrics,
) -> List[Dict[int, float]]:
    """Vectorized best-offer scan of the subgraphs ``indices`` (segments of
    the synced ``stack``) in one kernel call (selective specs).

    Returns, per subgraph, the ``best`` map (internal vertex → best boundary
    offer) the reference loop would produce; the caller folds the
    internal-source results and writes it back.
    """
    identity = spec.aggregate_identity()
    boundary, offsets, counts, targets, factors = stack.rows(indices)
    states = np.fromiter((work.get(v, identity) for v in boundary.tolist()), np.float64, count=boundary.size)
    internal = [stack.segments[index]["internal_ids"] for index in indices]
    best = stack.scratch
    inner = np.concatenate(internal)
    best[inner] = stack.initial[inner]
    combine_add = spec.dense_algebra[1] == COMBINE_ADD
    metrics.edge_activations += assign_best_offers(
        offsets, counts, targets, factors, states, best, identity, combine_add
    )
    return [dict(zip(ids.tolist(), best[ids].tolist())) for ids in internal]


def assign_accumulative_batch(
    spec,
    stack: ShortcutStack,
    indices: List[int],
    deltas: Dict[int, float],
    work: Dict[int, float],
    metrics: ExecutionMetrics,
) -> None:
    """Vectorized delta push through the shortcuts of the subgraphs
    ``indices`` (segments of the synced ``stack``) in one kernel call
    (accumulative specs).

    Applies ``combine(difference, factor)`` of every boundary vertex with a
    significant delta to its internal shortcut targets, in the Python loop's
    order (ascending boundary id), skipping — and not counting — absorbing
    targets.  ``deltas`` are located in the rows by boundary id; only the
    targets some live row reaches are read from and written back to
    ``work``.
    """
    if not deltas:
        return
    boundary, offsets, counts, targets, factors = stack.rows(indices)
    if not boundary.size:  # every assigned subgraph lost its boundary
        return
    order = np.argsort(boundary)
    positions, found = locate(boundary[order], np.fromiter(deltas, np.int64, count=len(deltas)))
    rows = order[positions]
    differences = np.fromiter(deltas.values(), np.float64, count=len(deltas))
    # the contract's accumulative significance rule
    found &= np.abs(differences) > float(spec.tolerance())
    # rows ascending: the Python loop's order within each subgraph
    live = np.argsort(rows[found], kind="stable")
    rows, differences = rows[found][live], differences[found][live]
    offsets, counts = offsets[rows], counts[rows]
    total = int(counts.sum())
    if not total:
        return

    # Read and write back only the reached targets (the kernel never reads
    # the targets of rows no live source owns; an absorbing one keeps its
    # value), found with a mask over the vertex ids: sorting the reached
    # slots instead measured slower.
    reached = np.zeros(stack.scratch.size, dtype=bool)
    reached[targets[expand_edges(offsets, counts, total)]] = True
    reached = np.flatnonzero(reached)
    ids = reached.tolist()
    values = stack.scratch
    values[reached] = np.fromiter((work[vertex] for vertex in ids), np.float64, count=len(ids))
    combine_add = spec.dense_algebra[1] == COMBINE_ADD
    metrics.edge_activations += assign_deltas(
        offsets, counts, targets, factors, differences, values, stack.allowed, combine_add
    )
    work.update(zip(ids, values[reached].tolist()))


# ----------------------------------------------------------------------
# phase 3 prep: upper-layer trim/seed after invalidation
# ----------------------------------------------------------------------
def seed_tainted_upper(
    spec,
    layered,
    tainted,
    work: Dict[int, float],
    lup_pending: Dict[int, float],
    metrics: ExecutionMetrics,
) -> None:
    """Vectorized trim/seed of invalidated upper vertices.

    Mirrors the reference loop exactly:
    every in-link of a tainted vertex counts one edge activation (before any
    skip), tainted and identity-state sources contribute nothing (the caller
    reset tainted states to the identity, so one state mask covers both
    skips), surviving offers fold into the initial message with the
    order-independent min, and the significant results seed ``lup_pending``
    in ascending vertex order.

    The in-links are read off the resident upper *out*-CSR
    (:meth:`repro.layph.layered_graph.LayeredGraph.upper_csr`) with a target
    mask — one O(Lup) array pass that picks the slots pointing at a tainted
    vertex — so no reverse view of the whole layer is ever built; source
    states materialise for the picked slots' rows only.  Selective
    (min-aggregate) specs only.
    """
    combine_add = spec.dense_algebra[1] == COMBINE_ADD
    identity = float(spec.aggregate_identity())
    csr = layered.upper_csr()
    rows = sorted(tainted)
    best = np.fromiter(
        (
            float(spec.initial_message(vertex)) if vertex >= 0 else identity
            for vertex in rows
        ),
        np.float64,
        count=len(rows),
    )
    # position of each tainted vertex in ``rows``, by CSR row (-1: not tainted)
    position_of_row = np.full(csr.num_vertices, -1, dtype=np.int64)
    index = csr.index
    for position, vertex in enumerate(rows):
        row = index.get(vertex)
        if row is not None:
            position_of_row[row] = position
    slots = np.nonzero(position_of_row[csr.targets] >= 0)[0]
    if slots.size:
        source_rows = np.searchsorted(csr.offsets, slots, side="right") - 1
        live_rows, inverse = np.unique(source_rows, return_inverse=True)
        ids = csr.vertex_ids
        states = np.fromiter(
            (work.get(ids[row], identity) for row in live_rows.tolist()),
            np.float64,
            count=live_rows.size,
        )[inverse]
        keep = states != identity
        if combine_add:
            offers = states[keep] + csr.factors[slots[keep]]
        else:
            offers = states[keep] * csr.factors[slots[keep]]
        np.minimum.at(best, position_of_row[csr.targets[slots[keep]]], offers)
    metrics.edge_activations += int(slots.size)
    for position, vertex in enumerate(rows):
        value = float(best[position])
        if spec.is_significant(value):
            lup_pending[vertex] = spec.aggregate(lup_pending.get(vertex, identity), value)
