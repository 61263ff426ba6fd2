"""The Layph incremental engine (Sections III and V).

Online processing of a batch update ΔG runs the paper's four phases:

1. **Layered graph update** — only the dense subgraphs touched by ΔG are
   refreshed, row by row from the touched vertices (split, replication,
   local rows and their compiled form, shortcuts); the upper layer's dirty
   rows are re-derived and spliced into its resident compiled form.
2. **Revision messages upload** — revision messages are deduced from the
   memoized states, and the messages that originate inside affected
   subgraphs are propagated locally until they reach the subgraph boundary.
   Selective algorithms invalidate on the upper layer as Ingress's
   KickStarter-style DAG policy does: the targets a worsened or removed
   skeleton link (or a grown folded root value) supported exactly are the
   roots of :func:`repro.incremental.dep_table.supported_dependents` on the
   pre-delta skeleton CSR, and the tainted vertices are re-seeded from their
   surviving in-links.  ``==`` is exact because the skeleton's states are
   seeded from its own links at ``initialize``: every one is its root value,
   its folded value or one upper in-link's offer.  Accumulative algorithms
   send cancellation/compensation messages à la Ingress.
3. **Iterative computation on the upper layer** — the global iteration runs
   on the small skeleton only.
4. **Revision messages assignment** — boundary results are pushed down to the
   internal vertices of the subgraphs whose inputs changed, through the
   entry-to-internal shortcuts, without any further iteration inside
   untouched subgraphs.

The engine's contract is the same as every other engine in
:mod:`repro.incremental`: after ``apply_delta`` the states must equal a batch
recomputation on the updated graph (Theorems 1 and 2).
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, Optional, Set

import numpy as np

from repro.engine.algorithm import AlgorithmSpec
from repro.engine.metrics import ExecutionMetrics, PhaseTimer
from repro.engine.propagation import propagate
from repro.engine.runner import BatchResult, run_batch
from repro.graph.csr import FactorCSR
from repro.graph.delta import GraphDelta
from repro.graph.footprint import DeltaFootprint
from repro.graph.graph import Graph
from repro.incremental.base import IncrementalEngine, IncrementalResult
from repro.incremental.dep_table import supported_dependents
from repro.incremental.revision import accumulative_revision_messages
from repro.layph.layered_graph import ChangedLinks, LayeredGraph, LayphConfig
from repro.layph.shortcuts import compute_shortcuts_from, local_uploads
from repro.layph.vectorized import (
    assign_accumulative_batch,
    assign_selective_batch,
    seed_tainted_upper,
)

PHASE_UPDATE = "layered graph update"
PHASE_UPLOAD = "messages upload"
PHASE_UPPER = "iterative computation on upper layer"
PHASE_ASSIGN = "messages assignment"


class LayphEngine(IncrementalEngine):
    """Layered-graph incremental engine built on top of the Ingress policies."""

    name = "layph"
    supported_family = "any"

    def __init__(
        self,
        spec: AlgorithmSpec,
        config: Optional[LayphConfig] = None,
        *,
        backend: Optional[str] = None,
    ) -> None:
        super().__init__(spec, backend=backend)
        self.config = config or LayphConfig()
        self.layered: Optional[LayeredGraph] = None
        #: states of proxy vertices (kept out of the reported results)
        self.proxy_states: Dict[int, float] = {}
        #: wall-clock seconds spent building the layered graph (Figure 11b)
        self.offline_seconds: float = 0.0
        #: F-work performed while building the layered graph
        self.offline_metrics: ExecutionMetrics = ExecutionMetrics()
        #: internal-only results from the source when it is an internal vertex
        self._local_source_states: Optional[Dict[int, float]] = None
        #: snapshot of the above from before the current delta's rebuild
        self._old_local_source_states: Optional[Dict[int, float]] = None

    # ------------------------------------------------------------------
    # offline phase
    # ------------------------------------------------------------------
    def _initial_run(self, graph: Graph) -> BatchResult:
        # the batch run below reuses the out-CSR the build compiles
        start = time.perf_counter()
        out_csr = self.csr_cache.out_csr(self.spec, graph)
        self.layered = LayeredGraph.build(self.spec, graph, self.config, out_csr)
        self.offline_seconds = time.perf_counter() - start
        self.offline_metrics = self.layered.construction_metrics.copy()
        result = run_batch(
            self.spec, graph, adjacency=self._propagation_adjacency(graph)
        )
        self._refresh_local_source_states()
        if self.spec.is_selective():
            self._seed_skeleton(result.states)
        else:
            identity = self.spec.aggregate_identity()
            self.proxy_states = {
                proxy: identity for proxy in self.layered.proxy_vertices()
            }
        return result

    def _require_layered(self) -> LayeredGraph:
        if self.layered is None:
            raise RuntimeError("initialize() must be called first")
        return self.layered

    def _source_vertex(self) -> Optional[int]:
        return getattr(self.spec, "source", None)

    def _refresh_local_source_states(self) -> None:
        """(Re)compute internal-only results from an internal source vertex.

        When the rooted algorithm's source sits *inside* a dense subgraph, the
        paths that never leave that subgraph are invisible to the upper layer;
        they are folded here once and refreshed whenever the subgraph is
        rebuilt (selective algorithms only — accumulative engines work purely
        on deltas, for which the batch initialisation already covers them).
        """
        self._local_source_states = None
        if not self.spec.is_selective():
            return
        source = self._source_vertex()
        layered = self._require_layered()
        if source is None or source not in layered.subgraph_of:
            return
        subgraph = layered.subgraphs[layered.subgraph_of[source]]
        if source in subgraph.boundary:
            return
        self._local_source_states = compute_shortcuts_from(
            self.spec,
            subgraph.local_adjacency,
            source,
            subgraph.boundary,
            self.offline_metrics,
        )
        # The source reaches itself at the identity of combine (distance 0).
        self._local_source_states[source] = self.spec.combine_identity()

    def _seed_skeleton(self, states: Dict[int, float]) -> None:
        """Converge the skeleton from its own links (selective specs).

        The upper vertices and the proxies restart from the identity, and one
        ``propagate`` over the upper layer, seeded with the root messages and
        the folded root message of Equation (7), converges them; the internal
        vertices keep their values in ``states``.  A flat batch run groups
        path sums differently from the shortcuts, so its skeleton states can
        sit ulps off every in-link's offer; after this every skeleton state
        is its root value, its folded value or exactly one upper in-link's
        offer, which phase 2's exact support walk relies on.  Updates
        ``states`` in place, replaces :attr:`proxy_states` and meters the
        F-work into :attr:`offline_metrics`.
        """
        layered = self._require_layered()
        identity = self.spec.aggregate_identity()
        upper = layered.upper_vertices  # every proxy is a boundary vertex
        for vertex in upper:
            states[vertex] = identity
        pending: Dict[int, float] = {}
        self._root_messages(upper, pending)
        propagate(
            self.spec,
            layered.upper_adjacency,
            states,
            pending,
            self.offline_metrics,
            owned=upper,
        )
        self.proxy_states = {proxy: states.pop(proxy) for proxy in layered.proxy_vertices()}

    def _root_messages(self, vertices: Iterable[int], pending: Dict[int, float]) -> None:
        """Fold into ``pending`` the significant root messages of ``vertices``
        and the folded root message of an internal source (Equation (7)):
        its internal-only results at its subgraph's boundary."""
        spec = self.spec
        identity = spec.aggregate_identity()
        for vertex in vertices:
            root = spec.initial_message(vertex)
            if spec.is_significant(root):
                pending[vertex] = spec.aggregate(pending.get(vertex, identity), root)
        if self._local_source_states is None:
            return
        layered = self._require_layered()
        source = self._source_vertex()
        index = layered.subgraph_of.get(source) if source is not None else None
        if index is None:
            return
        for boundary_vertex in layered.subgraphs[index].boundary:
            folded = self._local_source_states.get(boundary_vertex)
            if folded is not None and spec.is_significant(folded):
                pending[boundary_vertex] = spec.aggregate(
                    pending.get(boundary_vertex, identity), folded
                )

    # ------------------------------------------------------------------
    # online phase
    # ------------------------------------------------------------------
    def _apply_delta(self, delta: GraphDelta) -> IncrementalResult:
        spec = self.spec
        layered = self._require_layered()
        metrics = ExecutionMetrics()
        phases = PhaseTimer()
        identity = spec.aggregate_identity()
        old_graph = self._require_graph()

        # Working states: real vertices plus proxies, mutated through all
        # four phases and split back at the end.
        work: Dict[int, float] = dict(self.states)
        work.update(self.proxy_states)

        # ------------------------------------------------------------------
        with phases.phase(PHASE_UPDATE):
            selective = spec.is_selective()
            # Pre-delta snapshots, taken before the patches below move the
            # caches forward: the skeleton's out-CSR for the selective
            # invalidation walk (the splice builds a new object, so holding
            # this one copies nothing), the graph's for the revision deduction.
            old_upper_csr = layered.upper_csr() if selective else None
            old_out_csr = None if selective else self.csr_cache.out_csr(spec, old_graph)
            new_graph = self._update_graph(delta)
            layered.graph = new_graph
            footprint = self.footprint
            touched = footprint.touched_vertices
            added_vertices = footprint.added_vertices
            removed_vertices = footprint.removed_vertices

            affected = layered.affected_subgraphs(touched)
            affected |= layered.remove_vertices(removed_vertices)
            pre_sources, pre_boundaries = layered.subgraph_upper_sources(affected)
            layered.rebuild_subgraphs(sorted(affected), touched, metrics)
            post_sources, post_boundaries = layered.subgraph_upper_sources(affected)
            added_upper = (post_boundaries - pre_boundaries) | added_vertices
            # vertices the patch below brings onto the skeleton
            joined_upper = {v for v in added_upper if v not in layered.upper_vertices}
            changed_links = layered.patch_upper(
                pre_sources
                | post_sources
                | footprint.touched_sources
                | added_vertices
                | removed_vertices,
                removed_upper=(pre_boundaries - post_boundaries) | removed_vertices,
                added_upper=added_upper,
                out_csr=self.csr_cache.out_csr(spec, new_graph),
            )

            for vertex in added_vertices:
                work[vertex] = spec.initial_state(vertex)

            source = self._source_vertex()
            self._old_local_source_states = (
                dict(self._local_source_states)
                if self._local_source_states is not None
                else None
            )
            if selective and source is not None:
                source_index = layered.subgraph_of.get(source)
                if source_index is None or source_index in affected:
                    # The source's subgraph was rebuilt, or the source moved
                    # between layers (e.g. it is now an outlier): refresh the
                    # folded internal-only results.
                    self._refresh_local_source_states()

        # ------------------------------------------------------------------
        lup_pending: Dict[int, float] = {}
        snapshot_baseline = identity if selective else 0.0

        with phases.phase(PHASE_UPLOAD):
            if selective:
                self._selective_upload(
                    old_upper_csr,
                    changed_links,
                    joined_upper,
                    work,
                    lup_pending,
                    metrics,
                    added_vertices,
                )
            else:
                self._accumulative_upload(
                    old_graph,
                    new_graph,
                    work,
                    lup_pending,
                    metrics,
                    footprint,
                    old_out_csr,
                    self.csr_cache.out_csr(spec, new_graph),
                )

        # ------------------------------------------------------------------
        with phases.phase(PHASE_UPPER):
            # Vertices and proxies that left with this delta kept their
            # pre-delta states up to here: the selective invalidation reads
            # them to find what they supported.
            proxies = layered.proxy_vertices()
            for vertex in removed_vertices:
                work.pop(vertex, None)
            for proxy in self.proxy_states:
                if proxy not in proxies:
                    work.pop(proxy, None)
            journal = propagate(
                spec,
                layered.upper_adjacency,
                work,
                lup_pending,
                metrics,
                # boundaries and outliers; every proxy is a boundary vertex
                owned=layered.upper_vertices,
            )

        # ------------------------------------------------------------------
        with phases.phase(PHASE_ASSIGN):
            # The iteration's write-back journal is the trigger: the upper
            # vertices whose state it changed, with their pre-iteration state
            # (every pending key and every link target is an upper vertex).
            changed_upper: Set[int] = set()
            deltas: Dict[int, float] = {}
            for vertex, before in journal.items():
                if selective:
                    changed_upper.add(vertex)
                else:
                    difference = work[vertex] - before
                    if spec.is_significant(difference):
                        changed_upper.add(vertex)
                        deltas[vertex] = difference
            self._assign(affected, changed_upper, deltas, work, metrics)

        # ------------------------------------------------------------------
        # what is left once the proxies are out are the graph's vertices
        self.proxy_states = {p: work.pop(p, snapshot_baseline) for p in proxies}
        return IncrementalResult(states=work, metrics=metrics, phases=phases)

    # ------------------------------------------------------------------
    # phase 2 helpers
    # ------------------------------------------------------------------
    def _accumulative_upload(
        self,
        old_graph: Graph,
        new_graph: Graph,
        work: Dict[int, float],
        lup_pending: Dict[int, float],
        metrics: ExecutionMetrics,
        footprint: DeltaFootprint,
        old_csr,
        new_csr,
    ) -> None:
        """Deduce revision messages and fold the internal ones to boundaries.

        ``footprint`` (the engine's shared
        :class:`repro.graph.footprint.DeltaFootprint`) supplies the
        changed-source scan and the membership diff computed once per delta;
        the deduction runs on the out-edge CSRs ``old_csr``/``new_csr`` of
        both graph versions.  Every reached subgraph uploads its messages
        in one kernel call (:func:`repro.layph.shortcuts.local_uploads`).

        Raises:
            repro.engine.propagation.NonConvergenceError: if an upload still
                holds significant messages after the round cap.
        """
        spec = self.spec
        layered = self._require_layered()
        identity = spec.aggregate_identity()

        changed = footprint.changed_sources
        pending_full, _added, _removed = accumulative_revision_messages(
            spec,
            old_graph,
            new_graph,
            self.states,
            old_csr,
            new_csr,
            changed=changed,
            added_vertices=footprint.added_vertices,
            removed_vertices=footprint.removed_vertices,
        )
        # Deducing each contribution difference evaluates F once per affected
        # out-edge; meter exactly the changed sources the deduction visited.
        for vertex in changed:
            metrics.edge_activations += max(
                old_graph.out_degree(vertex) if old_graph.has_vertex(vertex) else 0,
                new_graph.out_degree(vertex) if new_graph.has_vertex(vertex) else 0,
            )

        # In vertex order: the deduction's key order is no part of its
        # contract, and the subgraphs upload (and record their rounds) in the
        # order their first message arrives here.
        per_subgraph: Dict[int, Dict[int, float]] = {}
        for vertex in sorted(pending_full):
            message = pending_full[vertex]
            if not new_graph.has_vertex(vertex):
                continue
            index = layered.subgraph_of.get(vertex)
            if index is not None and vertex in layered.subgraphs[index].internal:
                bucket = per_subgraph.setdefault(index, {})
                bucket[vertex] = spec.aggregate(bucket.get(vertex, identity), message)
            else:
                lup_pending[vertex] = spec.aggregate(
                    lup_pending.get(vertex, identity), message
                )

        uploads = [(layered.subgraphs[index], pending) for index, pending in per_subgraph.items()]
        for arrived in local_uploads(spec, uploads, work, metrics):
            for vertex, message in arrived.items():
                lup_pending[vertex] = spec.aggregate(
                    lup_pending.get(vertex, identity), message
                )

    def _selective_upload(
        self,
        old_upper_csr: FactorCSR,
        changed_links: ChangedLinks,
        joined_upper: Set[int],
        work: Dict[int, float],
        lup_pending: Dict[int, float],
        metrics: ExecutionMetrics,
        added_vertices: Set[int],
    ) -> None:
        """Invalidate, trim and seed the upper layer for selective algorithms.

        Upper-layer links whose factor grew or disappeared may have supported
        their target; the dependents of such targets along the supporting
        links of the *pre-delta* skeleton (``old_upper_csr``,
        :func:`repro.incremental.dep_table.supported_dependents`) are reset
        to the identity and re-seeded from their surviving in-links.  Links
        that are new or whose factor shrank contribute compensation messages.
        ``changed_links`` are :meth:`LayeredGraph.patch_upper`'s changed
        links — an unchanged ``(source, target)`` link can never be a root
        or a compensation, so reading only the changed pairs is enough.

        ``work`` must still hold the pre-delta states of the vertices and
        proxies this delta removed: all their out-links are removed links,
        and whether one supported its target can only be told from the
        source's old state.  ``joined_upper`` are the vertices (proxies
        included) this delta brought onto the upper layer.
        """
        spec = self.spec
        layered = self._require_layered()
        identity = spec.aggregate_identity()

        def states(vertices: np.ndarray) -> np.ndarray:
            return np.fromiter(
                (work.get(vertex, identity) for vertex in vertices.tolist()),
                np.float64,
                count=vertices.size,
            )

        # Invalidation roots from worsened/removed upper links (a removed
        # link's new factor is ``inf``): the targets they supported exactly.
        # A selective spec combines with ``+``.
        worse = changed_links.new > changed_links.old
        targets = changed_links.targets[worse]
        target_states = states(targets)
        offers = states(changed_links.sources[worse]) + changed_links.old[worse]
        roots: Set[int] = set(
            targets[(target_states != identity) & (offers == target_states)].tolist()
        )

        # Invalidation roots from the folded root message of an internal
        # source: when its internal-only path to a boundary vertex grows (or
        # disappears because the source moved onto the upper layer), boundary
        # values that relied on it are no longer trustworthy.
        old_folded = self._old_local_source_states or {}
        new_folded = self._local_source_states or {}
        for vertex, old_value in old_folded.items():
            new_value = new_folded.get(vertex)
            if new_value is not None and new_value <= old_value:
                continue
            if old_value != identity and work.get(vertex, identity) == old_value:
                roots.add(vertex)

        ids = old_upper_csr.ids_array()
        index = old_upper_csr.index
        mask = supported_dependents(
            old_upper_csr,
            np.fromiter((index[v] for v in roots if v in index), np.int64),
            lambda rows: states(ids[rows]),
        )
        tainted = set(ids[mask].tolist())
        tainted &= layered.upper_vertices
        # Upper-layer vertices with no trustworthy upper-layer history are
        # treated as invalid too: fresh proxies and brand-new graph vertices
        # (no state at all), and vertices that were internal before this
        # delta (their old value was supported by intra-subgraph structure
        # that has just been rebuilt, so no link diff can vouch for it).
        # Every vertex that was on the upper layer before has a state, so
        # these are exactly the vertices that joined it.
        tainted |= joined_upper

        for vertex in tainted:
            work[vertex] = identity
        self._seed_tainted_upper(tainted, work, lup_pending, metrics)

        # Compensation from new or improved upper links (a new link's old
        # factor is ``inf``) whose source kept a state.
        better = np.flatnonzero(changed_links.new < changed_links.old)
        tainted_ids = np.fromiter(tainted, np.int64, count=len(tainted))
        better = better[~np.isin(changed_links.sources[better], tainted_ids)]
        source_states = states(changed_links.sources[better])
        live = source_states != identity
        metrics.edge_activations += int(np.count_nonzero(live))
        offers = source_states[live] + changed_links.new[better[live]]
        for target, offered in zip(changed_links.targets[better[live]].tolist(), offers.tolist()):
            if spec.is_significant(offered) and not spec.absorbs(target):
                lup_pending[target] = spec.aggregate(
                    lup_pending.get(target, identity), offered
                )

        # Root messages: brand-new vertices that carry one (a new source), and
        # the folded root message of an internal source (Equation (7)).
        self._root_messages(added_vertices, lup_pending)

    def _seed_tainted_upper(
        self,
        tainted: Set[int],
        work: Dict[int, float],
        lup_pending: Dict[int, float],
        metrics: ExecutionMetrics,
    ) -> None:
        """Re-seed every tainted upper vertex from its surviving in-links
        (:func:`repro.layph.vectorized.seed_tainted_upper`)."""
        seed_tainted_upper(
            self.spec, self._require_layered(), tainted, work, lup_pending, metrics
        )

    # ------------------------------------------------------------------
    # phase 4
    # ------------------------------------------------------------------
    def _assign(
        self,
        affected: Set[int],
        changed_upper: Set[int],
        deltas: Dict[int, float],
        work: Dict[int, float],
        metrics: ExecutionMetrics,
    ) -> None:
        """Push boundary results down to internal vertices through shortcuts."""
        layered = self._require_layered()

        # Which subgraphs need assignment: those rebuilt this round plus those
        # whose boundary (or proxies) changed during the upper-layer iteration
        # (proxy ownership served from the index maintained at rebuild).
        to_assign: Set[int] = set(affected)
        for vertex in changed_upper:
            index = layered.subgraph_of.get(vertex)
            if index is None:
                index = layered.proxy_owner_of(vertex)
            if index is not None:
                to_assign.add(index)

        subgraphs = [
            layered.subgraphs[index]
            for index in sorted(to_assign)
            if layered.subgraphs[index].internal
        ]
        if subgraphs:
            self._assign_subgraphs(subgraphs, deltas, work, metrics, self._source_vertex())

    def _assign_subgraphs(
        self,
        subgraphs,
        deltas: Dict[int, float],
        work: Dict[int, float],
        metrics: ExecutionMetrics,
        source: Optional[int],
    ) -> None:
        """One kernel call over the assigned subgraphs' rows of the resident
        shortcut stack (:class:`repro.layph.vectorized.ShortcutStack`,
        synced first): the best boundary offers (selective) or the boundary
        deltas (accumulative) pushed down to the internal vertices, which
        are always graph vertices (a removed vertex leaves its subgraph)."""
        spec = self.spec
        layered = self._require_layered()
        stack = layered.shortcut_stack
        indices = [subgraph.index for subgraph in subgraphs]
        stack.sync(spec, layered.subgraphs, indices)
        if not spec.is_selective():
            assign_accumulative_batch(spec, stack, indices, deltas, work, metrics)
            return
        best_maps = assign_selective_batch(spec, stack, indices, work, metrics)
        for subgraph, best in zip(subgraphs, best_maps):
            self._finish_selective_assign(subgraph, best, work, source)

    def _finish_selective_assign(
        self,
        subgraph,
        best: Dict[int, float],
        work: Dict[int, float],
        source: Optional[int],
    ) -> None:
        """Fold the source's local results into ``best`` and write it back."""
        spec = self.spec
        layered = self._require_layered()
        if (
            self._local_source_states is not None
            and source is not None
            and layered.subgraph_of.get(source) == subgraph.index
        ):
            for target in subgraph.internal:
                folded = self._local_source_states.get(target)
                if folded is not None:
                    best[target] = spec.aggregate(best[target], folded)
        work.update(best)

    # ------------------------------------------------------------------
    # durable snapshots (repro.storage)
    # ------------------------------------------------------------------
    def _snapshot_extras(self):
        from repro.storage.codecs import encode_float_map, pack

        layered = self._require_layered()
        meta = {
            "layered": layered.to_state(),
            "offline_seconds": self.offline_seconds,
            "offline_metrics": self.offline_metrics.to_state(),
            "has_local_source_states": self._local_source_states is not None,
            # the skeleton was seeded from its own links (``_seed_skeleton``)
            "exact_skeleton": True,
        }
        arrays = dict(pack("proxy_states", encode_float_map(self.proxy_states)))
        if self._local_source_states is not None:
            arrays.update(
                pack("local_source_states", encode_float_map(self._local_source_states))
            )
        return meta, arrays

    def _restore_extras(self, meta: dict, arrays) -> None:
        from repro.storage.codecs import decode_float_map, unpack

        graph = self._require_graph()
        self.layered = LayeredGraph.from_state(
            self.spec, graph, self.config, meta["layered"]
        )
        self.offline_seconds = float(meta["offline_seconds"])
        self.offline_metrics = ExecutionMetrics.from_state(meta["offline_metrics"])
        self.proxy_states = decode_float_map(unpack("proxy_states", arrays))
        if meta.get("has_local_source_states"):
            self._local_source_states = decode_float_map(
                unpack("local_source_states", arrays)
            )
        else:
            self._local_source_states = None
        # ``_old_local_source_states`` is rewritten at the start of every
        # ``_apply_delta`` before it is read, so a fresh ``None`` is exact.
        self._old_local_source_states = None
        if self.spec.is_selective() and not meta.get("exact_skeleton"):
            # Written before the skeleton was seeded from its own links: its
            # states may hold batch values an ulp off every in-link's offer,
            # which the exact support walk would not follow.
            self._seed_skeleton(self.states)
