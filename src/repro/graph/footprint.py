"""Array-native per-delta footprint shared by every incremental engine.

After PR 3 the one remaining O(graph)-ish cost on every ``GraphDelta`` was a
pile of per-engine Python scans that each rebuilt the same information from
scratch:

* GraphBolt/DZiG re-derived the structurally-dirty targets and the
  changed-factor sources by materialising per-vertex factor dictionaries
  (every ``edge_factor`` call is Python work proportional to the source's
  out-degree);
* Ingress and Layph each re-expanded the delta (``added_edges`` /
  ``deleted_edges`` / ``touched_sources``) to build the candidate set behind
  :func:`repro.incremental.revision.changed_out_sources`;
* every engine discovered vertex additions/removals with two O(V) membership
  scans per delta.

:class:`DeltaFootprint` closes all of these at once: it is computed **once
per delta** (by :meth:`repro.incremental.base.IncrementalEngine._update_graph`)
from the ``GraphDelta`` and — when available — the engine's cached
:class:`repro.graph.csr.FactorCSR` snapshots of both graph versions, and it
exposes

* the delta expansion (added/deleted edge lists, touched sources/vertices)
  computed once and shared by every consumer,
* ``added_vertices`` / ``removed_vertices`` derived in O(delta) from the
  touched vertices instead of O(V) membership scans,
* ``changed_sources`` — the ascending changed-out-adjacency list that
  :func:`repro.incremental.revision.accumulative_revision_messages` and the
  engines' activation metering consume (bitwise equal to
  :func:`repro.incremental.revision.changed_out_sources`),
* ``dirty_targets`` / ``changed_factor_sources`` — the factor-level scans of
  the BSP engines, answered by diffing the cached old/new CSR rows with
  array ops (an order-insensitive row comparison that matches the dict
  references' map equality exactly) instead of re-evaluating ``edge_factor``
  in Python.

When the CSR snapshots are unavailable (an orientation the engine never
compiled, or a splice that could not be done) the footprint falls back to
dict comparisons — still computed once per delta.  The conformance suite in
``tests/graph/test_footprint.py`` pins every footprint field, on both paths,
to a brute-force recomputation from the two graphs.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.graph.csr import FactorCSR, expand_edges
from repro.graph.delta import GraphDelta
from repro.graph.graph import Graph


def _rows_differ(
    old_csr: FactorCSR,
    new_csr: FactorCSR,
    pool: Sequence[int],
    missing_old_is_changed: bool,
) -> np.ndarray:
    """Boolean mask over ``pool``: does the vertex's CSR row content differ?

    A row is compared as the *map* ``{target_id: factor}`` — order
    insensitive, exactly like the dict references' factor-map equality — by
    sorting both rows' slots by target id and comparing element-wise.  A NaN
    factor never equals anything (matching ``dict.__eq__`` on fresh NaN
    values), so NaN rows always count as changed on both paths.

    ``missing_old_is_changed`` selects what a vertex without an old row
    means: ``True`` replays the dirty-target reference (``None != {...}`` —
    a brand-new vertex is always dirty); ``False`` replays the
    changed-factor-source reference (a missing graph membership is an empty
    factor map).  A missing *new* row is always treated as an empty map
    (callers filter pools that require new-graph membership themselves).
    """
    n = len(pool)
    mask = np.zeros(n, dtype=bool)
    if not n:
        return mask
    old_index = old_csr.index
    new_index = new_csr.index
    old_rows = np.fromiter((old_index.get(v, -1) for v in pool), np.int64, count=n)
    new_rows = np.fromiter((new_index.get(v, -1) for v in pool), np.int64, count=n)
    old_has = old_rows >= 0
    new_has = new_rows >= 0
    if missing_old_is_changed:
        mask |= ~old_has

    old_deg = np.zeros(n, dtype=np.int64)
    if old_has.any():
        old_deg[old_has] = old_csr.out_degree[old_rows[old_has]]
    new_deg = np.zeros(n, dtype=np.int64)
    if new_has.any():
        new_deg[new_has] = new_csr.out_degree[new_rows[new_has]]
    mask |= old_deg != new_deg

    check = ~mask & (old_deg > 0)
    if not check.any():
        return mask
    rows_o = old_rows[check]
    rows_n = new_rows[check]
    counts = old_deg[check]
    total = int(counts.sum())
    slots_o = expand_edges(old_csr.offsets[rows_o], counts, total)
    slots_n = expand_edges(new_csr.offsets[rows_n], counts, total)
    num_segments = int(check.sum())
    segments = np.repeat(np.arange(num_segments, dtype=np.int64), counts)
    targets_o = old_csr.ids_array()[old_csr.targets[slots_o]]
    targets_n = new_csr.ids_array()[new_csr.targets[slots_n]]
    factors_o = old_csr.factors[slots_o]
    factors_n = new_csr.factors[slots_n]
    # Rows whose target sequence is unchanged slot for slot (the common case
    # — unchanged and factor-only-changed rows are moved/recomputed by the
    # CSR patch with their adjacency order intact) have equal key sets in
    # matching positions, so map equality reduces to a positional factor
    # compare.  Only rows whose target sequence itself differs (an edge
    # deleted and re-added within one delta reorders the row) need the
    # order-insensitive multiset recheck — and only those pay a sort.
    target_diff = targets_o != targets_n
    factor_diff = ~(factors_o == factors_n)
    check_positions = np.nonzero(check)[0]
    reordered = np.zeros(num_segments, dtype=bool)
    if target_diff.any():
        reordered[segments[target_diff]] = True
    aligned_dirty = factor_diff & ~reordered[segments]
    if aligned_dirty.any():
        # Duplicate segment hits scatter idempotently; no dedup needed.
        mask[check_positions[segments[aligned_dirty]]] = True
    if reordered.any():
        keep = reordered[segments]
        seg_k = segments[keep]
        t_o = targets_o[keep]
        t_n = targets_n[keep]
        f_o = factors_o[keep]
        f_n = factors_n[keep]
        order_o = np.lexsort((t_o, seg_k))
        order_n = np.lexsort((t_n, seg_k))
        mismatch = (t_o[order_o] != t_n[order_n]) | ~(f_o[order_o] == f_n[order_n])
        if mismatch.any():
            # lexsort's primary key is the segment, so the sorted segment
            # vector is shared by both orders.
            seg_sorted = seg_k[order_o]
            mask[check_positions[seg_sorted[mismatch]]] = True
    return mask


class DeltaFootprint:
    """Everything the incremental engines need to know about one ΔG.

    Constructed once per delta by
    :meth:`repro.incremental.base.IncrementalEngine._update_graph`; the delta
    expansion and the vertex-membership diff are eager (O(delta)), the
    factor-level scans are computed lazily on first access and cached so
    every consumer of the same delta shares one result.
    """

    __slots__ = (
        "spec",
        "old_graph",
        "new_graph",
        "delta",
        "added_edges",
        "deleted_edges",
        "touched_sources",
        "touched_vertices",
        "added_vertices",
        "removed_vertices",
        "old_out_csr",
        "new_out_csr",
        "old_in_csr",
        "new_in_csr",
        "_changed_sources",
        "_changed_factor_sources",
        "_dirty_targets",
        "_invalidation_edges",
    )

    def __init__(
        self,
        spec,
        old_graph: Graph,
        new_graph: Graph,
        delta: GraphDelta,
        old_out_csr: Optional[FactorCSR] = None,
        new_out_csr: Optional[FactorCSR] = None,
        old_in_csr: Optional[FactorCSR] = None,
        new_in_csr: Optional[FactorCSR] = None,
    ) -> None:
        self.spec = spec
        self.old_graph = old_graph
        self.new_graph = new_graph
        self.delta = delta
        #: the delta's edge expansion against the old graph, computed once
        #: (``GraphDelta.added_edges``/``deleted_edges`` re-expand per call)
        self.added_edges: List[Tuple[int, int, float]] = delta.added_edges(old_graph)
        self.deleted_edges: List[Tuple[int, int, float]] = delta.deleted_edges(old_graph)
        self.old_out_csr = old_out_csr
        self.new_out_csr = new_out_csr
        self.old_in_csr = old_in_csr
        self.new_in_csr = new_in_csr

        # Touched sources/vertices: mirrors GraphDelta.touched_sources /
        # touched_vertices on the cached expansions (undirected graphs count
        # both endpoints of every edge update as sources).
        undirected = not old_graph.directed
        sources: Set[int] = set()
        vertices: Set[int] = set()
        for source, target, _weight in self.added_edges:
            sources.add(source)
            vertices.add(source)
            vertices.add(target)
            if undirected:
                sources.add(target)
        for source, target, _weight in self.deleted_edges:
            sources.add(source)
            vertices.add(source)
            vertices.add(target)
            if undirected:
                sources.add(target)
        for update in delta.vertex_updates:
            sources.add(update.vertex)
            vertices.add(update.vertex)
        self.touched_sources = sources
        self.touched_vertices = vertices

        # Vertex-membership diff in O(delta): only a vertex named by the
        # delta (an update's vertex or an expanded edge endpoint) can enter
        # or leave the graph.
        self.added_vertices: Set[int] = {
            v
            for v in vertices
            if new_graph.has_vertex(v) and not old_graph.has_vertex(v)
        }
        self.removed_vertices: Set[int] = {
            v
            for v in vertices
            if old_graph.has_vertex(v) and not new_graph.has_vertex(v)
        }

        self._changed_sources: Optional[List[int]] = None
        self._changed_factor_sources: Optional[Set[int]] = None
        self._dirty_targets: Optional[Set[int]] = None
        self._invalidation_edges: Optional[
            Tuple[List[Tuple[int, int, float]], List[Tuple[int, int, float]]]
        ] = None

    # ------------------------------------------------------------------
    # changed out-adjacency (weights) — the revision-deduction scan
    # ------------------------------------------------------------------
    @property
    def changed_sources(self) -> List[int]:
        """Ascending vertices whose out-adjacency (targets or weights) changed.

        Computed by :func:`repro.incremental.revision.changed_out_sources`
        itself — handed the footprint's touched sources and its O(delta)
        membership diff, so the shared scan skips the two O(V) vertex-set
        builds it would otherwise run per call.  Every candidate is verified
        by comparing its out-neighbor dictionaries (a C-level map comparison;
        no factor evaluation is involved, so there is nothing for the CSR
        arrays to accelerate here).
        """
        if self._changed_sources is None:
            # Imported lazily: the revision module sits one layer above the
            # graph package and pulls in the engine algebra on import.
            from repro.incremental.revision import changed_out_sources

            self._changed_sources = changed_out_sources(
                self.old_graph,
                self.new_graph,
                self.touched_sources,
                added_vertices=self.added_vertices,
                removed_vertices=self.removed_vertices,
            )
        return self._changed_sources

    # ------------------------------------------------------------------
    # changed out-factors — DZiG's push-source scan
    # ------------------------------------------------------------------
    @property
    def changed_factor_sources(self) -> Set[int]:
        """Vertices whose outgoing *factor* map changed.

        The pool is the delta's touched sources (a vertex whose membership changed is
        always among them), a vertex absent from a graph has an empty factor
        map, and candidates are verified by factor comparison — on the cached
        old/new out-edge CSR rows when both snapshots are available, through
        ``edge_factor`` dictionaries otherwise.
        """
        if self._changed_factor_sources is None:
            pool = sorted(self.touched_sources)
            if self.old_out_csr is not None and self.new_out_csr is not None:
                mask = _rows_differ(
                    self.old_out_csr, self.new_out_csr, pool, missing_old_is_changed=False
                )
                self._changed_factor_sources = {
                    vertex for vertex, flag in zip(pool, mask) if flag
                }
            else:
                spec = self.spec
                old_graph = self.old_graph
                new_graph = self.new_graph
                changed: Set[int] = set()
                for vertex in pool:
                    old_out = (
                        {
                            t: spec.edge_factor(old_graph, vertex, t)
                            for t in old_graph.out_neighbors(vertex)
                        }
                        if old_graph.has_vertex(vertex)
                        else {}
                    )
                    new_out = (
                        {
                            t: spec.edge_factor(new_graph, vertex, t)
                            for t in new_graph.out_neighbors(vertex)
                        }
                        if new_graph.has_vertex(vertex)
                        else {}
                    )
                    if old_out != new_out:
                        changed.add(vertex)
                self._changed_factor_sources = changed
        return self._changed_factor_sources

    # ------------------------------------------------------------------
    # structurally-dirty targets — the BSP engines' refinement roots
    # ------------------------------------------------------------------
    def _dirty_pool(self) -> Set[int]:
        """Candidates whose incoming factor map may have changed.

        Targets of every
        added/deleted edge (both endpoints on undirected graphs), the old and
        new out-neighbors of every touched source, and the added vertices.
        The touched-source neighbor expansion — the only part proportional to
        vertex degrees — runs as row gathers on the cached old/new out-edge
        CSR snapshots when both are available, and falls back to the
        dictionary walks otherwise; both produce the same id set.
        """
        old_graph = self.old_graph
        new_graph = self.new_graph
        undirected = not new_graph.directed
        pool: Set[int] = set()
        for source, target, _weight in self.added_edges:
            pool.add(target)
            if undirected:
                pool.add(source)
        for source, target, _weight in self.deleted_edges:
            pool.add(target)
            if undirected:
                pool.add(source)
        if self.old_out_csr is not None and self.new_out_csr is not None:
            sources = sorted(self.touched_sources)
            n = len(sources)
            for csr in (self.old_out_csr, self.new_out_csr):
                rows = np.fromiter(
                    (csr.index.get(v, -1) for v in sources), np.int64, count=n
                )
                rows = rows[rows >= 0]
                counts = csr.out_degree[rows]
                total = int(counts.sum())
                if total:
                    slots = expand_edges(csr.offsets[rows], counts, total)
                    pool.update(csr.ids_array()[csr.targets[slots]].tolist())
        else:
            for source in self.touched_sources:
                if old_graph.has_vertex(source):
                    pool.update(old_graph.out_neighbors(source))
                if new_graph.has_vertex(source):
                    pool.update(new_graph.out_neighbors(source))
        pool.update(self.added_vertices)
        return pool

    @property
    def dirty_targets(self) -> Set[int]:
        """Vertices of the new graph whose incoming factor map changed.

        Brand-new vertices are always dirty; every other candidate is verified
        on the cached old/new in-edge CSR rows when both snapshots are
        available, through ``edge_factor`` dictionaries otherwise.
        """
        if self._dirty_targets is None:
            new_graph = self.new_graph
            pool = sorted(v for v in self._dirty_pool() if new_graph.has_vertex(v))
            if self.old_in_csr is not None and self.new_in_csr is not None:
                mask = _rows_differ(
                    self.old_in_csr, self.new_in_csr, pool, missing_old_is_changed=True
                )
                self._dirty_targets = {vertex for vertex, flag in zip(pool, mask) if flag}
            else:
                spec = self.spec
                old_graph = self.old_graph
                dirty: Set[int] = set()
                for vertex in pool:
                    old_in = (
                        {
                            u: spec.edge_factor(old_graph, u, vertex)
                            for u in old_graph.in_neighbors(vertex)
                        }
                        if old_graph.has_vertex(vertex)
                        else None
                    )
                    new_in = {
                        u: spec.edge_factor(new_graph, u, vertex)
                        for u in new_graph.in_neighbors(vertex)
                    }
                    if old_in != new_in:
                        dirty.add(vertex)
                self._dirty_targets = dirty
        return self._dirty_targets

    # ------------------------------------------------------------------
    # weight-level link diff — the selective engines' invalidation input
    # ------------------------------------------------------------------
    @property
    def invalidation_edges(
        self,
    ) -> Tuple[List[Tuple[int, int, float]], List[Tuple[int, int, float]]]:
        """``(added, deleted)`` edges with weight changes made explicit.

        The dependency engines treat an ``ADD_EDGE`` that overwrites an
        existing edge with a different weight as an implicit deletion of the
        old weight plus an insertion of the new one (the paper models weight
        changes as delete + add) — otherwise a weight increase never reaches
        the invalidation step and its target keeps a stale supported value.
        This is the weight-level link diff of the delta (edge weights, not
        algorithm factors: a weight change must invalidate BFS dependents
        even though every BFS factor is 1), expanded once per delta.
        """
        if self._invalidation_edges is None:
            old_graph = self.old_graph
            deleted = list(self.deleted_edges)
            explicitly_deleted = {(s, t) for s, t, _ in deleted}
            for source, target, weight in self.added_edges:
                if (source, target) in explicitly_deleted:
                    continue
                if (
                    old_graph.has_edge(source, target)
                    and old_graph.edge_weight(source, target) != weight
                ):
                    explicitly_deleted.add((source, target))
                    deleted.append(
                        (source, target, old_graph.edge_weight(source, target))
                    )
            self._invalidation_edges = (self.added_edges, deleted)
        return self._invalidation_edges

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DeltaFootprint(|ΔE+|={len(self.added_edges)}, "
            f"|ΔE-|={len(self.deleted_edges)}, "
            f"touched={len(self.touched_sources)}, "
            f"+V={len(self.added_vertices)}, -V={len(self.removed_vertices)})"
        )
