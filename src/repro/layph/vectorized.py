"""Vectorized (numpy) kernels for Layph's online phases.

Four hot loops of :class:`repro.layph.engine.LayphEngine` run here when the
``"numpy"`` backend is selected:

* :func:`local_upload_numpy` — phase 2's per-subgraph revision-message
  propagation with boundary-absorb semantics, compiled onto the subgraph's
  local factor adjacency (one master CSR per adjacency object, memoized
  through :func:`repro.graph.csr_cache.master_factor_csr`);
* :func:`assign_selective_batch` / :func:`assign_accumulative_batch` —
  phase 4's shortcut scans over every assigned subgraph in one kernel call,
  stacked from per-subgraph boundary→internal shortcut CSRs that are cached
  on the :class:`DenseSubgraph` and invalidated whenever the subgraph's
  shortcut tables are rebuilt;
* :func:`seed_tainted_upper` — phase 2's trim/seed of invalidated upper
  vertices, a target-mask gather over the resident upper out-CSR.

Every kernel is engineered for exact metric compatibility with the Python
reference loops in ``engine.py`` — identical revised states, arrived
messages, round counts and edge activations — using the same ordering
arguments as :mod:`repro.engine.dense_propagation` (ascending-vertex active
order, CSR slot order for the unbuffered ``np.add.at`` scatters).  Inputs the
array algebra cannot reproduce bit-for-bit (undeclared algebras, NaN-carrying
factors or states) make the kernels return ``None`` and the caller falls back
to the Python loop.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.engine.dense_propagation import (
    AGGREGATE_MIN,
    COMBINE_ADD,
    classify_spec,
)
from repro.engine.metrics import ExecutionMetrics
from repro.engine.propagation import NonConvergenceError
from repro.graph.csr import expand_edges
from repro.graph.csr_cache import csr_cache_enabled, master_factor_csr
from repro.graph.graph import Graph
from repro.parallel.slabs import (
    PropagationSlab,
    SlabNonConvergence,
    assign_best_offers,
    assign_deltas,
    run_upload,
)


# ----------------------------------------------------------------------
# phase 2: local revision-message upload
# ----------------------------------------------------------------------
def build_upload_slab(
    spec,
    subgraph,
    work: Dict[int, float],
    local_pending: Dict[int, float],
) -> Optional[Tuple[PropagationSlab, list]]:
    """Compile one subgraph's local upload into an array slab.

    Returns ``(slab, vertex_ids)`` with the slab in upload mode (boundary
    mask + arrived accumulator set), or ``None`` when the array algebra
    cannot express the spec / the inputs carry NaN — the caller then falls
    back to the Python loop.  Nothing is mutated here, so a ``None`` return
    is always safe.
    """
    kinds = classify_spec(spec)
    if kinds is None:
        return None
    aggregate_kind, combine_kind = kinds
    selective = aggregate_kind == AGGREGATE_MIN

    adjacency = subgraph.local_adjacency
    boundary = subgraph.boundary
    universe = set(local_pending) | set(boundary)
    csr = master_factor_csr(adjacency, universe)
    if csr is None:
        # Caching disabled: compile fresh (identical arrays, no memo).
        from repro.graph.csr import FactorCSR

        csr = FactorCSR.from_factor_adjacency(adjacency, universe=universe)

    ids = csr.vertex_ids
    index = csr.index
    n = csr.num_vertices
    identity = math.inf if selective else 0.0
    tolerance = 0.0 if selective else float(spec.tolerance())

    state_arr = np.fromiter(
        (
            work[vertex] if vertex in work else float(spec.initial_state(vertex))
            for vertex in ids
        ),
        np.float64,
        count=n,
    )
    pending_arr = np.full(n, identity, dtype=np.float64)
    in_dict = np.zeros(n, dtype=bool)
    for vertex, message in local_pending.items():
        position = index[vertex]
        pending_arr[position] = message
        in_dict[position] = True

    # NaN makes the branchy Python min/compare semantics diverge from the
    # array ops; hand such inputs back to the Python loop untouched.
    if (
        np.isnan(csr.factors).any()
        or np.isnan(state_arr).any()
        or np.isnan(pending_arr).any()
    ):
        return None

    boundary_mask = np.zeros(n, dtype=bool)
    for vertex in boundary:
        position = index.get(vertex)
        if position is not None:
            boundary_mask[position] = True
    absorb = np.fromiter((bool(spec.absorbs(v)) for v in ids), bool, count=n)

    slab = PropagationSlab(
        offsets=csr.offsets,
        targets=csr.targets,
        factors=csr.factors,
        out_degree=csr.out_degree,
        state=state_arr,
        pending=pending_arr,
        in_dict=in_dict,
        state_touched=np.zeros(n, dtype=bool),
        absorb=absorb,
        boundary=boundary_mask,
        arrived=np.full(n, identity, dtype=np.float64),
        arrived_touched=np.zeros(n, dtype=bool),
        selective=selective,
        combine_add=combine_kind == COMBINE_ADD,
        identity=identity,
        tolerance=tolerance,
    )
    return slab, ids


def local_upload_numpy(
    spec,
    subgraph,
    work: Dict[int, float],
    local_pending: Dict[int, float],
    metrics: ExecutionMetrics,
    max_rounds: int = 10_000,
) -> Optional[Dict[int, float]]:
    """Vectorized ``LayphEngine._local_upload``; ``None`` = cannot handle.

    Mirrors the Python loop exactly: internal vertices revise their state in
    place and scatter along the local adjacency, boundary vertices accumulate
    into the returned ``arrived`` map without re-propagating, rounds and edge
    activations are recorded identically (and, like the reference, no
    ``vertex_updates`` are counted).  The loop itself is the array kernel
    :func:`repro.parallel.slabs.run_upload` over the slab built by
    :func:`build_upload_slab`; incompatibility is detected before anything
    is mutated.
    """
    built = build_upload_slab(spec, subgraph, work, local_pending)
    if built is None:
        return None
    slab, ids = built
    try:
        rounds = run_upload(slab, max_rounds)
    except SlabNonConvergence as error:
        # The reference loop records the completed rounds before raising.
        for total, active, _updates in error.recorded:
            metrics.record_round(total, active)
        raise NonConvergenceError(
            f"local revision-message upload in subgraph {subgraph.index} "
            f"did not converge within {max_rounds} rounds for "
            f"{spec.name!r}; {error.remaining} significant pending "
            "messages remain"
        ) from None
    for total, active, _updates in rounds:
        metrics.record_round(total, active)
    for position in np.nonzero(slab.state_touched)[0]:
        work[ids[position]] = float(slab.state[position])
    return {
        ids[position]: float(slab.arrived[position])
        for position in np.nonzero(slab.arrived_touched)[0]
    }


# ----------------------------------------------------------------------
# phase 4: shortcut CSR of one dense subgraph
# ----------------------------------------------------------------------
class _ShortcutCSR:
    """Boundary→internal shortcut tables of one subgraph as CSR arrays.

    Row ``i`` lists the internal-target shortcut entries of the ``i``-th
    boundary vertex (ascending id), each entry in the shortcut table's
    insertion order — the exact scan order of the Python assignment loops.
    """

    __slots__ = (
        "boundary_ids",
        "internal_ids",
        "internal_index",
        "offsets",
        "targets",
        "factors",
        "counts",
    )

    def __init__(self, subgraph) -> None:
        self.boundary_ids = sorted(subgraph.boundary)
        self.internal_ids = sorted(subgraph.internal)
        self.internal_index = {
            vertex: position for position, vertex in enumerate(self.internal_ids)
        }
        internal = subgraph.internal
        index = self.internal_index
        targets: List[int] = []
        factors: List[float] = []
        counts: List[int] = []
        for vertex in self.boundary_ids:
            before = len(targets)
            for target, factor in subgraph.shortcuts.get(vertex, {}).items():
                if target in internal:
                    targets.append(index[target])
                    factors.append(factor)
            counts.append(len(targets) - before)
        self.counts = np.array(counts, dtype=np.int64)
        self.offsets = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(self.counts, out=self.offsets[1:])
        self.targets = np.array(targets, dtype=np.int64)
        self.factors = np.array(factors, dtype=np.float64)


def _shortcut_csr(subgraph) -> _ShortcutCSR:
    """Per-subgraph shortcut CSR, cached until the tables are rebuilt.

    ``LayeredGraph._refresh_subgraph`` installs fresh ``shortcuts``/
    ``internal`` containers on every rebuild, so identity of those objects is
    the invalidation key (the cache holds strong references, which keeps the
    identities stable).
    """
    cached = getattr(subgraph, "_shortcut_csr_cache", None)
    if (
        cached is not None
        and csr_cache_enabled()
        and cached[0] is subgraph.shortcuts
        and cached[1] is subgraph.internal
    ):
        return cached[2]
    compiled = _ShortcutCSR(subgraph)
    subgraph._shortcut_csr_cache = (subgraph.shortcuts, subgraph.internal, compiled)
    return compiled


# ----------------------------------------------------------------------
# phase 4: revision-message assignment
# ----------------------------------------------------------------------
def _stacked_rows(csrs) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The shortcut CSRs of several subgraphs as one CSR.

    Row ``i`` of the result is the ``i``-th boundary row in subgraph order;
    targets index the concatenation of the subgraphs' internal id lists.
    Every internal vertex belongs to exactly one subgraph, so each target
    still receives its entries in its own subgraph's scan order.
    """
    offsets, targets = [], []
    slot_base = target_base = 0
    for csr in csrs:
        offsets.append(csr.offsets[:-1] + slot_base)
        targets.append(csr.targets + target_base)
        slot_base += int(csr.targets.size)
        target_base += len(csr.internal_ids)
    return (
        np.concatenate(offsets),
        np.concatenate([csr.counts for csr in csrs]),
        np.concatenate(targets),
        np.concatenate([csr.factors for csr in csrs]),
    )


def assign_selective_batch(
    spec,
    subgraphs,
    work: Dict[int, float],
    metrics: ExecutionMetrics,
) -> Optional[List[Dict[int, float]]]:
    """Vectorized best-offer scan of several subgraphs' shortcuts in one
    kernel call; ``None`` = fall back.

    Returns, per subgraph, the ``best`` map (internal vertex → best boundary
    offer) the Python loop would produce — the caller then folds the
    internal-source results and writes the values back, exactly as in the
    reference.
    """
    kinds = classify_spec(spec)
    if kinds is None or kinds[0] != AGGREGATE_MIN:
        return None
    csrs = [_shortcut_csr(subgraph) for subgraph in subgraphs]
    offsets, counts, targets, factors = _stacked_rows(csrs)
    identity = spec.aggregate_identity()
    boundary_ids = list(chain.from_iterable(csr.boundary_ids for csr in csrs))
    boundary_states = np.fromiter(
        (work.get(vertex, identity) for vertex in boundary_ids),
        np.float64,
        count=len(boundary_ids),
    )
    if np.isnan(factors).any() or np.isnan(boundary_states).any():
        return None
    internal_ids = list(chain.from_iterable(csr.internal_ids for csr in csrs))
    best = np.fromiter(
        (spec.initial_message(vertex) for vertex in internal_ids),
        np.float64,
        count=len(internal_ids),
    )
    metrics.edge_activations += assign_best_offers(
        offsets,
        counts,
        targets,
        factors,
        boundary_states,
        best,
        identity,
        kinds[1] == COMBINE_ADD,
    )
    values = best.tolist()
    maps = []
    start = 0
    for csr in csrs:
        end = start + len(csr.internal_ids)
        maps.append(dict(zip(csr.internal_ids, values[start:end])))
        start = end
    return maps


def assign_accumulative_batch(
    spec,
    subgraphs,
    deltas: Dict[int, float],
    work: Dict[int, float],
    metrics: ExecutionMetrics,
    new_graph: Graph,
) -> bool:
    """Vectorized delta push through several subgraphs' shortcuts in one
    kernel call; ``False`` = fall back (nothing mutated).

    Applies ``combine(difference, factor)`` of every boundary vertex with a
    significant delta to its internal shortcut targets, in the Python loop's
    exact order (ascending boundary id, table order within), skipping — and
    not counting — absorbing or vanished targets.  Only the targets some
    live row reaches are read from and written back to ``work``.
    """
    kinds = classify_spec(spec)
    if kinds is None or kinds[0] == AGGREGATE_MIN:
        return False
    csrs = [_shortcut_csr(subgraph) for subgraph in subgraphs]
    offsets, counts, targets, factors = _stacked_rows(csrs)
    if np.isnan(factors).any():
        return False
    boundary_ids = list(chain.from_iterable(csr.boundary_ids for csr in csrs))
    differences = np.fromiter(
        (deltas.get(vertex, 0.0) for vertex in boundary_ids),
        np.float64,
        count=len(boundary_ids),
    )
    # the classified accumulative significance rule (NaN is never live)
    live = np.abs(differences) > float(spec.tolerance())
    live_rows = np.flatnonzero(live)
    live_counts = counts[live_rows]
    total = int(live_counts.sum())
    if not total:
        return True

    # Gather only the reached targets, renumbered densely (the kernel never
    # reads the targets of rows no live source owns).
    internal_ids = list(chain.from_iterable(csr.internal_ids for csr in csrs))
    reached_mask = np.zeros(len(internal_ids), dtype=bool)
    reached_mask[targets[expand_edges(offsets[live_rows], live_counts, total)]] = True
    reached = np.flatnonzero(reached_mask)
    ids = [internal_ids[target] for target in reached.tolist()]
    values = np.fromiter(
        (work[vertex] if vertex in work else float(spec.initial_state(vertex)) for vertex in ids),
        np.float64,
        count=len(ids),
    )
    if np.isnan(values).any():
        return False
    allowed = np.fromiter(
        (not spec.absorbs(vertex) and new_graph.has_vertex(vertex) for vertex in ids),
        bool,
        count=len(ids),
    )
    position = np.zeros(len(internal_ids), dtype=np.int64)
    position[reached] = np.arange(reached.size, dtype=np.int64)
    touched, applied = assign_deltas(
        offsets,
        counts,
        position[targets],
        factors,
        np.where(live, differences, 0.0),
        live,
        values,
        allowed,
        kinds[1] == COMBINE_ADD,
    )
    metrics.edge_activations += applied
    rows = np.flatnonzero(touched)
    work.update(zip([ids[row] for row in rows.tolist()], values[rows].tolist()))
    return True


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
) -> bool:
    """Vectorized trim/seed of invalidated upper vertices; ``False`` = fall back.

    Mirrors the reference loop in ``LayphEngine._selective_upload`` exactly:
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
    (min-aggregate) specs only; NaN in factors, states or initial messages
    hands back to the Python loop before anything is mutated.
    """
    kinds = classify_spec(spec)
    if kinds is None or kinds[0] != AGGREGATE_MIN:
        return False
    combine_add = kinds[1] == COMBINE_ADD
    identity = float(spec.aggregate_identity())
    csr = layered.upper_csr()
    if np.isnan(csr.factors).any():
        return False
    rows = sorted(tainted)
    best = np.fromiter(
        (
            float(spec.initial_message(vertex)) if vertex >= 0 else identity
            for vertex in rows
        ),
        np.float64,
        count=len(rows),
    )
    if np.isnan(best).any():
        return False
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
        if np.isnan(states).any():
            return False
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
    return True
