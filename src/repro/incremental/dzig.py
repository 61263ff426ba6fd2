"""DZiG-style incremental engine (Mariappan, Che & Vora, EuroSys'21).

DZiG keeps GraphBolt's per-iteration memoization but adds *sparsity-aware*
change propagation: when the set of vertices whose value changed at the
previous iteration is sparse, it pushes exact value *differences* along their
out-edges instead of re-aggregating every in-edge of every frontier vertex.
Pushing differences costs ``Σ out-degree(changed)`` edge activations instead
of GraphBolt's ``Σ in-degree(frontier)``, which is why DZiG sits between
GraphBolt and Ingress in Figures 1 and 6.  When the change set grows dense it
falls back to GraphBolt-style pulls.

The memoized iterations share GraphBolt's
:class:`repro.incremental.memo.MemoTable`.  The pre-delta baseline is one
matrix snapshot (``MemoTable.copy``), the frontier and changed sets live as
sorted row arrays on the cached CSRs, and the dense-fallback / added-vertex
pulls are matrix gather/scatter.  Only the delta-sized sparse difference
push itself stays a Python loop (by design — its footprint is the delta's,
not the graph's), reading and writing matrix rows through
:class:`repro.incremental.memo.MemoRow` views.

Only accumulative algorithms are supported (PageRank, PHP).
"""

from __future__ import annotations

from typing import Dict, Optional, Set

import numpy as np

from repro.engine.metrics import ExecutionMetrics, PhaseTimer
from repro.graph.delta import GraphDelta
from repro.graph.graph import Graph
from repro.incremental.base import IncrementalResult
from repro.incremental.graphbolt import PHASE_SCAN, GraphBoltEngine, _MAX_ITERATIONS
from repro.incremental.memo import MemoRow, MemoTable, refinement_preamble


class DZiGEngine(GraphBoltEngine):
    """Sparsity-aware per-iteration refinement."""

    name = "dzig"
    supported_family = "accumulative"

    #: if the changed set is below this fraction of the vertices, push deltas
    sparsity_threshold: float = 0.05

    # ------------------------------------------------------------------
    def _apply_delta(self, delta: GraphDelta) -> IncrementalResult:
        metrics = ExecutionMetrics()
        phases = PhaseTimer()
        old_graph = self._require_graph()

        with phases.phase("graph update"):
            new_graph = self._update_graph(delta)
            footprint = self.footprint
            added_vertices = footprint.added_vertices
            removed_vertices = footprint.removed_vertices

        with phases.phase(PHASE_SCAN):
            structurally_dirty = set(footprint.dirty_targets)
            changed_sources = set(footprint.changed_factor_sources)

        with phases.phase("sparsity-aware refinement"):
            # Snapshot the pre-delta memoization (one matrix copy, keeping
            # the *old* index space): exact difference pushes need the old
            # per-iteration values and the old edge factors.
            old_store = self.memo.copy()
            self._prepare_iteration_zero(new_graph, added_vertices, removed_vertices)
            states = self._refine_sparse(
                new_graph,
                old_graph,
                old_store,
                structurally_dirty,
                changed_sources,
                set(added_vertices),
                metrics,
            )

        return IncrementalResult(states=states, metrics=metrics, phases=phases)

    # ------------------------------------------------------------------
    @staticmethod
    def _old_level(old_store: MemoTable, iteration: int):
        """Pre-delta memoized values at ``iteration`` (clamped to the tail)."""
        if not old_store.num_levels:
            return {}
        return old_store.row_view(min(iteration, old_store.num_levels - 1))

    def _push_differences(
        self,
        new_graph: Graph,
        old_graph: Graph,
        push_sources: Set[int],
        previous: MemoRow,
        old_previous: MemoRow,
        old_level: MemoRow,
        level: MemoRow,
        added_vertices: Set[int],
        tolerance: float,
    ) -> tuple:
        """One sparse round: scatter exact contribution differences.

        The level arguments are :class:`MemoRow` views (the test oracle
        passes dicts with the same surface), so the visit order — and with
        it every float sum — is the reference's.  Returns
        ``(activations, changed_now)``.
        """
        spec = self.spec
        activations = 0
        changed_now: Set[int] = set()
        differences: Dict[int, float] = {}
        for source in push_sources:
            new_value = previous.get(source, 0.0) if new_graph.has_vertex(source) else 0.0
            old_value = (
                old_previous.get(source, 0.0) if old_graph.has_vertex(source) else 0.0
            )
            targets: Set[int] = set()
            if new_graph.has_vertex(source):
                targets.update(new_graph.out_neighbors(source))
            if old_graph.has_vertex(source):
                targets.update(old_graph.out_neighbors(source))
            for target in targets:
                activations += 1
                new_contribution = (
                    spec.combine(
                        new_value, spec.edge_factor(new_graph, source, target)
                    )
                    if new_graph.has_edge(source, target)
                    else 0.0
                )
                old_contribution = (
                    spec.combine(
                        old_value, spec.edge_factor(old_graph, source, target)
                    )
                    if old_graph.has_edge(source, target)
                    else 0.0
                )
                difference = new_contribution - old_contribution
                if difference != 0.0:
                    differences[target] = differences.get(target, 0.0) + difference
        for target, difference in differences.items():
            if (
                not new_graph.has_vertex(target)
                or spec.absorbs(target)
                or target in added_vertices
            ):
                continue
            base = old_level.get(target)
            if base is None:
                continue
            new_value = base + difference
            if abs(new_value - old_level.get(target, new_value)) > tolerance or abs(
                difference
            ) > tolerance:
                changed_now.add(target)
            level[target] = new_value
        return activations, changed_now

    def _refine_sparse(
        self,
        new_graph: Graph,
        old_graph: Graph,
        old_store: MemoTable,
        structurally_dirty: Set[int],
        changed_sources: Set[int],
        added_vertices: Set[int],
        metrics: ExecutionMetrics,
    ) -> Dict[int, float]:
        """Sparsity-aware refinement on the memo table.

        The changed set is carried as a sorted row array between rounds;
        frontier assembly and push-set sizing are mask operations on the
        cached CSRs.  The Python id-sets of the reference are materialised
        only when a round actually runs the (delta-sized) sparse push, in the
        reference's exact construction order, so every float accumulation —
        and every set iteration the reference performs — is replayed
        identically.
        """
        spec = self.spec
        # Same tightened threshold as GraphBolt (see _refine there).
        tolerance = spec.tolerance() * 0.1
        memo = self.memo
        csr = self.csr_cache.in_csr(spec, new_graph)
        ids = csr.vertex_ids
        index = csr.index
        n = csr.num_vertices
        root, keep_mask = self._dense_context(csr)
        out_csr, dirty_mask = refinement_preamble(
            self.csr_cache, spec, new_graph, csr, structurally_dirty
        )

        # The push set is changed_prev ∪ changed_sources filtered to live
        # vertices; the changed_sources half is fixed across rounds, so its
        # row mask (and the count of row-less members, i.e. removed-only
        # sources) is computed once.
        push_extra = {
            v
            for v in changed_sources
            if new_graph.has_vertex(v) or old_graph.has_vertex(v)
        }
        extra_mask = np.zeros(n, dtype=bool)
        for vertex in push_extra:
            row = index.get(vertex)
            if row is not None:
                extra_mask[row] = True
        extra_row_count = int(extra_mask.sum())
        extra_no_row = len(push_extra) - extra_row_count

        num_vertices = max(new_graph.num_vertices(), 1)
        last_memo = memo.num_levels - 1
        changed_rows = np.unique(
            np.fromiter(
                (index[v] for v in added_vertices), np.int64, count=len(added_vertices)
            )
        )
        #: the reference's changed_prev set, kept only while its construction
        #: order is known (sparse rounds build it; dense rounds leave the
        #: ascending row array, whose materialisation order matches the
        #: reference's ascending pull loop)
        changed_ids: Optional[Set[int]] = set(added_vertices)
        iteration = 1
        while iteration < _MAX_ITERATIONS:
            in_memo_range = iteration <= last_memo
            if not in_memo_range and changed_rows.size == 0:
                break
            if changed_rows.size:
                push_mask = extra_mask.copy()
                push_mask[changed_rows] = True
                push_size = int(push_mask.sum()) + extra_no_row
            else:
                push_size = extra_row_count + extra_no_row
            frontier_rows = self._frontier_rows(
                out_csr, dirty_mask, changed_rows, keep_mask
            )
            if frontier_rows.size == 0 and push_size == 0:
                break
            if not in_memo_range:
                memo.append_copy_of(iteration - 1)
            sparse = push_size <= self.sparsity_threshold * num_vertices
            activations = 0
            if sparse and in_memo_range and memo.num_levels and len(old_store):
                if changed_ids is None:
                    changed_ids = {ids[int(row)] for row in changed_rows}
                push_sources = {
                    v
                    for v in (changed_ids | changed_sources)
                    if new_graph.has_vertex(v) or old_graph.has_vertex(v)
                }
                previous = memo.row_view(iteration - 1)
                level = memo.row_view(iteration)
                activations, changed_now = self._push_differences(
                    new_graph,
                    old_graph,
                    push_sources,
                    previous,
                    self._old_level(old_store, iteration - 1),
                    self._old_level(old_store, iteration),
                    level,
                    added_vertices,
                    tolerance,
                )
                fresh_pulls = {
                    vertex
                    for vertex in added_vertices
                    if new_graph.has_vertex(vertex) and not spec.absorbs(vertex)
                }
                if fresh_pulls:
                    pulled, pull_changed = self._pull_frontier_memo(
                        csr, memo, iteration, fresh_pulls, tolerance, root
                    )
                    activations += pulled
                    changed_now |= pull_changed
                changed_ids = changed_now
                changed_rows = np.unique(
                    np.fromiter(
                        (index[v] for v in changed_now),
                        np.int64,
                        count=len(changed_now),
                    )
                )
            else:
                activations, changed_rows = self._pull_frontier_rows(
                    csr, memo, iteration, frontier_rows, tolerance, root
                )
                changed_ids = None
            metrics.record_round(activations, int(frontier_rows.size) or push_size)
            iteration += 1
        return memo.level_dict(memo.num_levels - 1)
