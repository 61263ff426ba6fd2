"""Revision-message deduction for accumulative (invertible) algorithms.

Section II-B of the paper: after ``ΔG``, a set of previously transmitted
messages becomes *invalid* and another set is *missing*.  For accumulative
algorithms whose aggregation has an inverse (PageRank, PHP) the engine can
deduce both without any memoization beyond the converged states — the
"memoization-free" policy of Ingress, which Layph reuses.

At convergence of the batch run, the total message mass a vertex ``u`` has
propagated equals its state change ``x_u - x^0_u``, and its contribution along
edge ``(u, v)`` is ``combine(x_u - x^0_u, edge_factor(u, v))``.  When ``ΔG``
changes ``u``'s out-adjacency (edges added, removed, re-weighted, or the
out-degree — and therefore every factor — changes), the revision message to
each affected target is simply *new contribution minus old contribution*.

The deduction replays one fully deterministic visit order — changed sources
in ascending id order, their affected targets in adjacency order (old row
first, then the new-only targets) — with array gathers over the *cached
out-edge factor CSRs* of both graph versions: contribution differences are
computed per ``(source, target)`` slot and accumulated per target with an
in-order ``np.add.at``, bitwise equal to the dict loop kept with the test
oracles.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.engine.algorithm import AlgorithmSpec
from repro.engine.dense_propagation import COMBINE_MUL
from repro.graph.csr import FactorCSR, expand_edges
from repro.graph.graph import Graph


def propagated_mass(spec: AlgorithmSpec, states: Dict[int, float], vertex: int) -> float:
    """Total message mass ``vertex`` has propagated at convergence."""
    state = states.get(vertex, spec.initial_state(vertex))
    return state - spec.initial_state(vertex)


def changed_out_sources(
    old_graph: Graph,
    new_graph: Graph,
    candidates: Optional[Iterable[int]] = None,
    added_vertices: Optional[Set[int]] = None,
    removed_vertices: Optional[Set[int]] = None,
) -> List[int]:
    """Ascending list of vertices whose out-adjacency differs between graphs.

    This is the single owner of the changed-source scan: revision deduction
    and the engines' activation metering both iterate its result, so the
    candidate-narrowing rule cannot drift between them.  ``candidates``
    (e.g. ``delta.touched_sources(old_graph)``) narrows the scan to the
    delta's footprint — vertices present in only one of the graphs are
    always included — and every candidate is verified by comparing its
    adjacency maps, so the result equals the full scan's.

    ``added_vertices``/``removed_vertices`` (both together or neither) are a
    precomputed vertex-membership diff — e.g. the O(delta) one of
    :class:`repro.graph.footprint.DeltaFootprint` — that replaces the two
    O(V) membership set builds below; they only narrow the pool, every
    candidate is still verified, so the result is unchanged.
    """
    if candidates is not None and added_vertices is not None and removed_vertices is not None:
        pool: Iterable[int] = set(candidates) | added_vertices | removed_vertices
    else:
        old_vertices = set(old_graph.vertices())
        new_vertices = set(new_graph.vertices())
        pool = (
            old_vertices | new_vertices
            if candidates is None
            else set(candidates)
            | (new_vertices - old_vertices)
            | (old_vertices - new_vertices)
        )
    changed: List[int] = []
    for vertex in sorted(pool):
        old_out = old_graph.out_neighbors(vertex) if old_graph.has_vertex(vertex) else {}
        new_out = new_graph.out_neighbors(vertex) if new_graph.has_vertex(vertex) else {}
        if old_out != new_out:
            changed.append(vertex)
    return changed


def _revision_messages_numpy(
    spec: AlgorithmSpec,
    states: Dict[int, float],
    sources: List[int],
    removed_vertices: Set[int],
    old_csr: FactorCSR,
    new_csr: FactorCSR,
) -> Dict[int, float]:
    """Vectorized contribution-difference deduction.

    ``sources`` must be the ascending list of changed (non-added) vertices.
    Differences are computed per ``(source, target)`` — matched old/new
    slots as ``new + (-old)``, old-only as ``0 + (-old)``, new-only as
    ``new`` — then filtered (significance, removed targets, absorbing
    targets) and summed per target with ``np.add.at`` in the reference's
    exact visit order (sources ascending; within a source the old row's slot
    order first, then the new-only slots in new-row order).
    """
    combine_mul = spec.dense_algebra[1] == COMBINE_MUL
    tolerance = float(spec.tolerance())

    n_src = len(sources)
    mass = np.fromiter(
        (propagated_mass(spec, states, v) for v in sources), np.float64, count=n_src
    )

    old_index = old_csr.index
    new_index = new_csr.index
    old_rows = np.fromiter((old_index.get(v, -1) for v in sources), np.int64, count=n_src)
    new_rows = np.fromiter(
        (new_index.get(v, -1) if v not in removed_vertices else -1 for v in sources),
        np.int64,
        count=n_src,
    )

    def _expand(csr: FactorCSR, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        present = rows >= 0
        if not present.any():
            # No source has a row in this snapshot (e.g. a delta that removed
            # every vertex leaves a zero-row CSR that must not be indexed).
            return np.zeros(n_src, dtype=np.int64), np.empty(0, dtype=np.int64)
        safe_rows = np.where(present, rows, 0)
        counts = np.where(present, csr.out_degree[safe_rows], 0)
        total = int(counts.sum())
        if not total:
            return counts, np.empty(0, dtype=np.int64)
        return counts, expand_edges(csr.offsets[safe_rows], counts, total)

    old_counts, old_slots = _expand(old_csr, old_rows)
    new_counts, new_slots = _expand(new_csr, new_rows)
    total_old = old_slots.size
    total_new = new_slots.size
    if total_old + total_new == 0:
        return {}

    old_src = np.repeat(np.arange(n_src, dtype=np.int64), old_counts)
    new_src = np.repeat(np.arange(n_src, dtype=np.int64), new_counts)
    old_targets = old_csr.ids_array()[old_csr.targets[old_slots]]
    new_targets = new_csr.ids_array()[new_csr.targets[new_slots]]
    old_factors = old_csr.factors[old_slots]
    new_factors = new_csr.factors[new_slots]

    if combine_mul:
        old_contrib = mass[old_src] * old_factors
        new_contrib = mass[new_src] * new_factors
    else:
        old_contrib = mass[old_src] + old_factors
        new_contrib = mass[new_src] + new_factors

    # Compact target index space shared by both halves.
    unique_targets, inverse = np.unique(
        np.concatenate((old_targets, new_targets)), return_inverse=True
    )
    k = int(unique_targets.size)
    old_t = inverse[:total_old]
    new_t = inverse[total_old:]

    # Match new slots to old slots of the same (source, target): the keys are
    # unique per half (adjacencies carry no parallel edges).
    old_keys = old_src * k + old_t
    new_keys = new_src * k + new_t
    if total_old:
        order = np.argsort(old_keys)
        sorted_keys = old_keys[order]
        positions = np.minimum(
            np.searchsorted(sorted_keys, new_keys), total_old - 1
        )
        matched = sorted_keys[positions] == new_keys
        match_slot = order[positions]
    else:
        matched = np.zeros(total_new, dtype=bool)
        match_slot = np.empty(0, dtype=np.int64)

    # One difference per (source, target), in the reference's operand order:
    # aggregate(new_contribution, negate(old_contribution)) = new + (-old).
    new_on_old = np.zeros(total_old, dtype=np.float64)
    if total_new and matched.any():
        new_on_old[match_slot[matched]] = new_contrib[matched]
    diff_old = new_on_old + np.negative(old_contrib)
    new_only = ~matched

    # Visit order within a source: old-row slot order, then new-only slots.
    old_order = expand_edges(np.zeros(n_src, dtype=np.int64), old_counts, total_old)
    exclusive = np.concatenate(([0], np.cumsum(new_only)))
    starts = np.concatenate(([0], np.cumsum(new_counts)))[:-1]
    new_rank = exclusive[:-1] - exclusive[starts][new_src]
    new_order = old_counts[new_src] + new_rank

    all_src = np.concatenate((old_src, new_src[new_only]))
    all_order = np.concatenate((old_order, new_order[new_only]))
    all_diff = np.concatenate((diff_old, new_contrib[new_only]))
    all_target = np.concatenate((old_t, new_t[new_only]))
    permutation = np.lexsort((all_order, all_src))
    diffs = all_diff[permutation]
    target_positions = all_target[permutation]

    # Per-entry filters, exactly the reference's: significance of the single
    # difference, then the push() guards (removed / absorbing targets).
    significant = np.abs(diffs) > tolerance
    removed_flags = np.fromiter(
        (int(t) in removed_vertices for t in unique_targets), bool, count=k
    )
    absorb_flags = np.fromiter(
        (bool(spec.absorbs(int(t))) for t in unique_targets), bool, count=k
    )
    keep = significant & ~removed_flags[target_positions] & ~absorb_flags[target_positions]
    if not keep.any():
        return {}

    accumulator = np.zeros(k, dtype=np.float64)
    touched = np.zeros(k, dtype=bool)
    kept_targets = target_positions[keep]
    # np.add.at applies element-wise in order, replaying the reference's
    # per-target aggregation sequence (sources ascending).
    np.add.at(accumulator, kept_targets, diffs[keep])
    touched[kept_targets] = True
    return {
        int(unique_targets[position]): float(accumulator[position])
        for position in np.nonzero(touched)[0]
    }


def accumulative_revision_messages(
    spec: AlgorithmSpec,
    old_graph: Graph,
    new_graph: Graph,
    states: Dict[int, float],
    old_csr: FactorCSR,
    new_csr: FactorCSR,
    candidates: Optional[Iterable[int]] = None,
    changed: Optional[List[int]] = None,
    added_vertices: Optional[Set[int]] = None,
    removed_vertices: Optional[Set[int]] = None,
) -> Tuple[Dict[int, float], Set[int], Set[int]]:
    """Deduce cancellation/compensation messages for an accumulative algorithm.

    Args:
        spec: an accumulative, invertible algorithm (PageRank, PHP).
        old_graph: the graph the memoized ``states`` were computed on.
        new_graph: ``old_graph ⊕ ΔG``.
        states: converged states on ``old_graph``.
        old_csr: out-edge factor CSR snapshot of ``old_graph`` (taken
            *before* the delta was applied to the engine's cache).
        new_csr: out-edge factor CSR snapshot of ``new_graph``.
        candidates: optional superset of the vertices whose out-adjacency may
            have changed (e.g. ``delta.touched_sources(old_graph)``); when
            given, the changed-factor scan is restricted to it instead of
            walking every vertex of both graphs.  Each candidate is still
            verified by comparing its adjacency maps, so the result is
            exactly the full scan's.
        changed: optional precomputed
            :func:`changed_out_sources(old_graph, new_graph, candidates)
            <changed_out_sources>` result — callers that also meter the
            changed sources pass it in so the scan runs once per delta.
        added_vertices: optional precomputed set of vertices present only in
            ``new_graph`` (e.g. from the engine's
            :class:`repro.graph.footprint.DeltaFootprint`); skips the O(V)
            membership scans below.
        removed_vertices: optional precomputed set of vertices present only
            in ``old_graph``.  Both must be passed together or not at all.

    Returns:
        A triple ``(pending, new_vertices, removed_vertices)``:

        * ``pending`` — vertex -> aggregated revision message, ready to be fed
          into :func:`repro.engine.propagation.propagate` on the new graph;
        * ``new_vertices`` — vertices present only in the new graph (their
          root messages are included in ``pending``);
        * ``removed_vertices`` — vertices present only in the old graph
          (their states must be dropped by the caller).

    Raises:
        ValueError: if ``spec`` is selective (no aggregation inverse).
    """
    if spec.is_selective():
        raise ValueError(
            "revision messages via inversion require an accumulative algorithm; "
            "use dependency-based maintenance for selective algorithms"
        )

    identity = spec.aggregate_identity()
    if added_vertices is None or removed_vertices is None:
        old_vertices = set(old_graph.vertices())
        new_vertices_set = set(new_graph.vertices())
        added_vertices = new_vertices_set - old_vertices
        removed_vertices = old_vertices - new_vertices_set

    # Vertices whose out-adjacency (targets or factors) changed — comparing
    # out-edge dictionaries directly keeps the logic independent of how the
    # delta was expressed (see :func:`changed_out_sources`).  Ascending order
    # makes the float accumulation deterministic.  Brand-new vertices have
    # not propagated anything yet; their root message is injected below and
    # their out-edges fire naturally during the incremental propagation.
    if changed is None:
        changed = changed_out_sources(old_graph, new_graph, candidates)
    sources = [vertex for vertex in changed if vertex not in added_vertices]
    pending = (
        _revision_messages_numpy(spec, states, sources, removed_vertices, old_csr, new_csr)
        if sources
        else {}
    )

    # Root messages of newly added vertices.
    for vertex in sorted(added_vertices):
        root = spec.initial_message(vertex)
        if spec.is_significant(root):
            pending[vertex] = spec.aggregate(pending.get(vertex, identity), root)

    return pending, added_vertices, removed_vertices
