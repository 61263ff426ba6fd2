"""Vectorized (numpy) kernels for Layph's online phases.

Three hot loops of :class:`repro.layph.engine.LayphEngine` run here (phase
2's local upload runs with the shortcut solves, as jobs of the lockstep
kernel in :mod:`repro.layph.shortcuts`):

* :func:`assign_selective_batch` / :func:`assign_accumulative_batch` —
  phase 4's shortcut scans over every assigned subgraph in one kernel call,
  stacked from per-subgraph boundary→internal shortcut CSRs that are read
  off the subgraph's :class:`repro.layph.shortcuts.ShortcutTable`, cached
  on the :class:`DenseSubgraph` and invalidated whenever a refresh installs
  a new table or internal set;
* :func:`seed_tainted_upper` — phase 2's trim/seed of invalidated upper
  vertices, a target-mask gather over the resident upper out-CSR.

Every kernel reproduces the reference loops kept with the test oracles
(``tests/oracles``) exactly — identical revised states, round counts and
edge activations — using the same ordering arguments as
:mod:`repro.engine.dense_propagation` (ascending-vertex active order, CSR
slot order for the unbuffered ``np.add.at`` scatters).  They trust the
algebra the engine checked at construction and its NaN-free inputs.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.engine.dense_propagation import COMBINE_ADD
from repro.engine.metrics import ExecutionMetrics
from repro.graph.csr import expand_edges
from repro.graph.csr_cache import master_factor_csr
from repro.layph.shortcuts import local_vertex_arrays
from repro.parallel.slabs import assign_best_offers, assign_deltas


# ----------------------------------------------------------------------
# phase 4: shortcut CSR of one dense subgraph
# ----------------------------------------------------------------------
class _ShortcutCSR:
    """Boundary→internal shortcut rows of one subgraph as CSR arrays.

    Row ``i`` lists the internal-target entries of the table's ``i``-th
    source (the boundary, ascending), targets ascending: each target gets
    at most one entry per row, so it receives its entries in ascending
    boundary order, as the Python assignment loops apply them.  Targets
    index ``internal_ids``; ``absorb`` and ``initial`` (the initial
    messages) are gathered from the local CSR's memoized vertex arrays
    (:func:`repro.layph.shortcuts.local_vertex_arrays`).
    """

    __slots__ = (
        "boundary_ids",
        "internal_ids",
        "absorb",
        "initial",
        "offsets",
        "targets",
        "factors",
        "counts",
    )

    def __init__(self, spec, subgraph) -> None:
        table = subgraph.shortcuts
        self.boundary_ids = table.sources
        internal = np.sort(np.fromiter(subgraph.internal, np.int64, count=len(subgraph.internal)))
        self.internal_ids = internal
        local = subgraph.local_adjacency
        csr = master_factor_csr(local, subgraph.internal)
        absorb, initial = local_vertex_arrays(spec, local, csr)
        rows = np.searchsorted(csr.ids_array(), internal)
        self.absorb = absorb[rows]
        self.initial = initial[rows]
        columns = np.asarray(table.columns, dtype=np.int64)
        found = np.searchsorted(columns, internal)
        listed = found < columns.size
        listed[listed] = columns[found[listed]] == internal[listed]
        entries = table.block[:, found[listed]]
        present = entries != table.identity
        self.counts = np.count_nonzero(present, axis=1).astype(np.int64)
        self.offsets = np.zeros(len(table) + 1, dtype=np.int64)
        np.cumsum(self.counts, out=self.offsets[1:])
        self.targets = np.flatnonzero(listed)[np.nonzero(present)[1]]
        self.factors = entries[present]


def _shortcut_csr(spec, subgraph) -> _ShortcutCSR:
    """Per-subgraph shortcut CSR, cached until the tables change.

    ``LayeredGraph._refresh_subgraph`` never mutates a table or the
    ``internal`` set: a refresh that changes them installs new ones and one
    that does not keeps the old objects, so identity of those objects is
    the invalidation key (the cache holds strong references, which keeps
    the identities stable).
    """
    cached = getattr(subgraph, "_shortcut_csr_cache", None)
    if (
        cached is not None
        and cached[0] is subgraph.shortcuts
        and cached[1] is subgraph.internal
    ):
        return cached[2]
    compiled = _ShortcutCSR(spec, subgraph)
    subgraph._shortcut_csr_cache = (subgraph.shortcuts, subgraph.internal, compiled)
    return compiled


# ----------------------------------------------------------------------
# phase 4: revision-message assignment
# ----------------------------------------------------------------------
def _stacked_rows(csrs) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The shortcut CSRs of several subgraphs as one CSR.

    Row ``i`` of the result is the ``i``-th boundary row in subgraph order;
    targets index the concatenation of the subgraphs' internal id arrays.
    Every internal vertex belongs to exactly one subgraph, so each target
    still receives its entries in its own subgraph's scan order.
    """
    rows = [csr.counts.size for csr in csrs]
    slots = [csr.targets.size for csr in csrs]
    sizes = [csr.internal_ids.size for csr in csrs]
    slot_bases = np.cumsum(slots) - slots
    target_bases = np.cumsum(sizes) - sizes
    return (
        np.concatenate([csr.offsets[:-1] for csr in csrs]) + np.repeat(slot_bases, rows),
        np.concatenate([csr.counts for csr in csrs]),
        np.concatenate([csr.targets for csr in csrs]) + np.repeat(target_bases, slots),
        np.concatenate([csr.factors for csr in csrs]),
    )


def assign_selective_batch(
    spec,
    subgraphs,
    work: Dict[int, float],
    metrics: ExecutionMetrics,
) -> List[Dict[int, float]]:
    """Vectorized best-offer scan of several subgraphs' shortcuts in one
    kernel call (selective specs).

    Returns, per subgraph, the ``best`` map (internal vertex → best boundary
    offer) the reference loop would produce — the caller then folds the
    internal-source results and writes the values back, exactly as in the
    reference.
    """
    csrs = [_shortcut_csr(spec, subgraph) for subgraph in subgraphs]
    offsets, counts, targets, factors = _stacked_rows(csrs)
    identity = spec.aggregate_identity()
    boundary_states = np.fromiter(
        (work.get(vertex, identity) for csr in csrs for vertex in csr.boundary_ids),
        np.float64,
        count=counts.size,
    )
    best = np.concatenate([csr.initial for csr in csrs])
    metrics.edge_activations += assign_best_offers(
        offsets,
        counts,
        targets,
        factors,
        boundary_states,
        best,
        identity,
        spec.dense_algebra[1] == COMBINE_ADD,
    )
    values = best.tolist()
    maps = []
    start = 0
    for csr in csrs:
        end = start + int(csr.internal_ids.size)
        maps.append(dict(zip(csr.internal_ids.tolist(), values[start:end])))
        start = end
    return maps


def assign_accumulative_batch(
    spec,
    subgraphs,
    deltas: Dict[int, float],
    work: Dict[int, float],
    metrics: ExecutionMetrics,
) -> None:
    """Vectorized delta push through several subgraphs' shortcuts in one
    kernel call (accumulative specs).

    Applies ``combine(difference, factor)`` of every boundary vertex with a
    significant delta to its internal shortcut targets, in the Python loop's
    order (ascending boundary id), skipping — and not counting — absorbing
    targets.  Only the targets some live row reaches are read from and
    written back to ``work``.
    """
    csrs = [_shortcut_csr(spec, subgraph) for subgraph in subgraphs]
    offsets, counts, targets, factors = _stacked_rows(csrs)
    differences = np.fromiter(
        (deltas.get(vertex, 0.0) for csr in csrs for vertex in csr.boundary_ids),
        np.float64,
        count=counts.size,
    )
    # the contract's accumulative significance rule
    live = np.abs(differences) > float(spec.tolerance())
    live_rows = np.flatnonzero(live)
    live_counts = counts[live_rows]
    total = int(live_counts.sum())
    if not total:
        return

    # Gather only the reached targets, renumbered densely (the kernel never
    # reads the targets of rows no live source owns).
    internal_ids = np.concatenate([csr.internal_ids for csr in csrs])
    reached_mask = np.zeros(internal_ids.size, dtype=bool)
    reached_mask[targets[expand_edges(offsets[live_rows], live_counts, total)]] = True
    reached = np.flatnonzero(reached_mask)
    ids = internal_ids[reached].tolist()
    values = np.fromiter((work[vertex] for vertex in ids), np.float64, count=len(ids))
    position = np.zeros(internal_ids.size, dtype=np.int64)
    position[reached] = np.arange(reached.size, dtype=np.int64)
    touched, applied = assign_deltas(
        offsets,
        counts,
        position[targets],
        factors,
        np.where(live, differences, 0.0),
        live,
        values,
        ~np.concatenate([csr.absorb for csr in csrs])[reached],
        spec.dense_algebra[1] == COMBINE_ADD,
    )
    metrics.edge_activations += applied
    rows = np.flatnonzero(touched)
    work.update(zip([ids[row] for row in rows.tolist()], values[rows].tolist()))


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
