"""The Layph incremental engine (Sections III and V).

Online processing of a batch update ΔG runs the paper's four phases:

1. **Layered graph update** — only the dense subgraphs touched by ΔG are
   rebuilt (boundary re-classification, vertex replication, shortcut
   recomputation); the upper layer's dirty rows are re-derived from the
   per-subgraph tables and spliced into its resident compiled form.
2. **Revision messages upload** — revision messages are deduced from the
   memoized states (selective algorithms: dependency invalidation on the
   upper layer; accumulative algorithms: cancellation/compensation messages à
   la Ingress), and the messages that originate inside affected subgraphs are
   propagated locally until they reach the subgraph boundary.
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
from dataclasses import replace
from typing import Dict, List, Optional, Set, Tuple

from repro.engine.algorithm import AlgorithmSpec
from repro.engine.backends import is_numpy_backend
from repro.engine.metrics import ExecutionMetrics, PhaseTimer
from repro.engine.propagation import FactorAdjacency, NonConvergenceError, propagate
from repro.engine.runner import BatchResult, run_batch
from repro.graph.delta import GraphDelta
from repro.graph.graph import Graph
from repro.incremental.base import IncrementalEngine, IncrementalResult
from repro.incremental.revision import (
    accumulative_revision_messages,
    changed_out_sources,
)
from repro.layph.layered_graph import (
    FlattenedUpperDiff,
    LayeredGraph,
    LayphConfig,
    UpperDiff,
)
from repro.layph.shortcuts import compute_shortcuts_from
from repro.layph.vectorized import (
    assign_accumulative_batch,
    assign_selective_batch,
    local_upload_numpy,
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
        backend: Optional[str] = None,
    ) -> None:
        config = config or LayphConfig()
        if backend is not None and backend != config.backend:
            config = replace(config, backend=backend)
        super().__init__(spec, backend=config.backend)
        self.config = config
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
        start = time.perf_counter()
        self.layered = LayeredGraph.build(self.spec, graph, self.config)
        self.offline_seconds = time.perf_counter() - start
        self.offline_metrics = self.layered.construction_metrics.copy()
        result = run_batch(
            self.spec,
            graph,
            backend=self.backend,
            adjacency=self._propagation_adjacency(graph),
        )
        self._refresh_local_source_states()
        self._initialise_proxy_states(result.states)
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
            backend=self.backend,
        )
        # The source reaches itself at the identity of combine (distance 0).
        self._local_source_states[source] = self.spec.combine_identity()

    def _initialise_proxy_states(self, states: Dict[int, float]) -> None:
        """Give every proxy a state consistent with its upper-layer in-links."""
        layered = self._require_layered()
        self.proxy_states = {}
        proxies = layered.proxy_vertices()
        if not proxies:
            return
        if not self.spec.is_selective():
            for proxy in proxies:
                self.proxy_states[proxy] = self.spec.aggregate_identity()
            return
        incoming = layered.upper_in_adjacency()
        merged = dict(states)
        for subgraph in layered.subgraphs:
            for proxy in subgraph.proxies:
                value = self._selective_pull(proxy, incoming, merged)
                if self._local_source_states is not None and proxy in self._local_source_states:
                    value = self.spec.aggregate(value, self._local_source_states[proxy])
                self.proxy_states[proxy] = value
                merged[proxy] = value

    def _selective_pull(
        self,
        vertex: int,
        incoming: Dict[int, List[Tuple[int, float]]],
        states: Dict[int, float],
    ) -> float:
        """Best value offered to ``vertex`` by its upper-layer in-links."""
        spec = self.spec
        identity = spec.aggregate_identity()
        best = spec.initial_message(vertex) if vertex >= 0 else identity
        for source, factor in incoming.get(vertex, []):
            source_state = states.get(source, identity)
            if source_state == identity:
                continue
            best = spec.aggregate(best, spec.combine(source_state, factor))
        return best

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
            # Pre-delta out-edge CSR snapshot for the vectorized revision
            # deduction (the cache is patched forward just below).
            old_out_csr = None if selective else self._revision_out_csr(old_graph)
            new_graph = self._update_graph(delta)
            layered.graph = new_graph
            footprint = self.footprint
            touched = (
                footprint.touched_vertices
                if footprint is not None
                else delta.touched_vertices(old_graph)
            )
            added_vertices, removed_vertices = self._vertex_membership_diff(
                old_graph, new_graph
            )

            # Diff-based upper maintenance needs the delta's row footprint;
            # without it (``REPRO_DELTA_FOOTPRINT=0``) the skeleton is
            # reassembled and compared, the reference path.
            patch_upper = footprint is not None
            link_diff: Optional[object] = None
            if selective:
                # a copy: the patch below edits the set in place
                old_upper_vertices = set(layered.upper_vertices)
                if not patch_upper:
                    # The selective invalidation then diffs two whole-layer
                    # flattens; the patch path below replaces them with the
                    # O(dirty-rows) ``UpperDiff``.
                    old_upper_links = self._flatten_links(layered.upper_adjacency)
            else:
                old_upper_vertices = set()

            affected = layered.affected_subgraphs(touched)
            affected |= layered.remove_vertices(removed_vertices)
            if patch_upper:
                pre_sources = layered.subgraph_upper_sources(affected)
                pre_boundaries = layered.subgraph_boundaries(affected)
            layered.rebuild_subgraphs(sorted(affected), metrics)
            if patch_upper:
                post_sources = layered.subgraph_upper_sources(affected)
                post_boundaries = layered.subgraph_boundaries(affected)
                link_diff = layered.patch_upper(
                    pre_sources
                    | post_sources
                    | footprint.touched_sources
                    | added_vertices
                    | removed_vertices,
                    removed_upper=(pre_boundaries - post_boundaries) | removed_vertices,
                    added_upper=(post_boundaries - pre_boundaries) | added_vertices,
                    want_diff=selective,
                )
            else:
                layered.rebuild_upper()
                if selective:
                    link_diff = FlattenedUpperDiff(
                        old_upper_links,
                        self._flatten_links(layered.upper_adjacency),
                    )

            for vertex in added_vertices:
                work[vertex] = spec.initial_state(vertex)
            # boundaries and outliers; every proxy is a boundary vertex
            upper_vertices = layered.upper_vertices

            source = self._source_vertex()
            self._old_local_source_states = (
                dict(self._local_source_states)
                if self._local_source_states is not None
                else None
            )
            if spec.is_selective() and source is not None:
                source_index = layered.subgraph_of.get(source)
                if source_index is None or source_index in affected:
                    # The source's subgraph was rebuilt, or the source moved
                    # between layers (e.g. it is now an outlier): refresh the
                    # folded internal-only results.
                    self._refresh_local_source_states()

        # ------------------------------------------------------------------
        lup_pending: Dict[int, float] = {}
        snapshot_baseline = (
            0.0 if not spec.is_selective() else identity
        )

        with phases.phase(PHASE_UPLOAD):
            if spec.is_selective():
                self._selective_upload(
                    link_diff,
                    old_upper_vertices,
                    upper_vertices,
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
                    removed_vertices,
                    added_vertices,
                    delta=delta,
                    old_csr=old_out_csr,
                    new_csr=(
                        self._revision_out_csr(new_graph)
                        if old_out_csr is not None
                        else None
                    ),
                    footprint=footprint,
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
            before: Dict[int, float] = {
                vertex: work.get(vertex, snapshot_baseline)
                for vertex in upper_vertices
            }
            propagate(
                spec, layered.upper_adjacency, work, lup_pending, metrics, backend=self.backend
            )

        # ------------------------------------------------------------------
        with phases.phase(PHASE_ASSIGN):
            changed_upper: Set[int] = set()
            deltas: Dict[int, float] = {}
            for vertex in upper_vertices:
                after = work.get(vertex, snapshot_baseline)
                if after == before[vertex]:
                    # untouched by the iteration: almost every vertex
                    continue
                if selective:
                    changed_upper.add(vertex)
                else:
                    difference = after - before[vertex]
                    if spec.is_significant(difference):
                        changed_upper.add(vertex)
                        deltas[vertex] = difference
            self._assign(
                affected, changed_upper, deltas, work, metrics, new_graph
            )

        # ------------------------------------------------------------------
        self.proxy_states = {p: work.get(p, snapshot_baseline) for p in proxies}
        # the default is evaluated only for the (rare) vertices work lacks
        result_states = {
            vertex: work[vertex] if vertex in work else spec.initial_state(vertex)
            for vertex in new_graph.vertices()
        }
        return IncrementalResult(states=result_states, metrics=metrics, phases=phases)

    # ------------------------------------------------------------------
    # phase 2 helpers
    # ------------------------------------------------------------------
    def _supports(self, offered: float, target_state: float) -> bool:
        """Whether an offered value supports a target's state.

        Shortcut weights are sums (or products) grouped differently from the
        flat batch propagation, so the comparison must allow for a relative
        floating-point slack; being slightly generous here only ever taints
        more vertices, which is safe.
        """
        if offered == target_state:
            return True
        scale = max(1.0, abs(target_state))
        return abs(offered - target_state) <= 1e-9 * scale

    @staticmethod
    def _flatten_links(adjacency: FactorAdjacency) -> Dict[Tuple[int, int], float]:
        links: Dict[Tuple[int, int], float] = {}
        for source in adjacency.vertices_with_out_edges():
            for target, factor in adjacency(source):
                key = (source, target)
                if key in links:
                    # Parallel upper-layer links can appear when a shortcut
                    # coexists with an original edge; keep the better one for
                    # the diff (the propagation itself uses both).
                    links[key] = min(links[key], factor)
                else:
                    links[key] = factor
        return links

    def _accumulative_upload(
        self,
        old_graph: Graph,
        new_graph: Graph,
        work: Dict[int, float],
        lup_pending: Dict[int, float],
        metrics: ExecutionMetrics,
        removed_vertices: Set[int],
        added_vertices: Set[int],
        delta: Optional[GraphDelta] = None,
        old_csr=None,
        new_csr=None,
        footprint=None,
    ) -> None:
        """Deduce revision messages and fold the internal ones to boundaries.

        ``footprint`` (the engine's shared
        :class:`repro.graph.footprint.DeltaFootprint`) supplies the
        changed-source scan computed once per delta; without it ``delta``
        narrows the per-call scan to its footprint (every candidate is still
        verified by adjacency comparison, so the messages and metric counts
        equal the full scan's).  ``old_csr``/``new_csr`` let the deduction
        itself run vectorized on the cached out-edge CSRs.
        """
        spec = self.spec
        layered = self._require_layered()
        identity = spec.aggregate_identity()

        if footprint is not None:
            changed = footprint.changed_sources
        else:
            candidates = delta.touched_sources(old_graph) if delta is not None else None
            changed = changed_out_sources(old_graph, new_graph, candidates)
        pending_full, _added, _removed = accumulative_revision_messages(
            spec,
            old_graph,
            new_graph,
            self.states,
            changed=changed,
            old_csr=old_csr,
            new_csr=new_csr,
            added_vertices=added_vertices,
            removed_vertices=removed_vertices,
        )
        # Deducing each contribution difference evaluates F once per affected
        # out-edge; meter exactly the changed sources the deduction visited.
        for vertex in changed:
            metrics.edge_activations += max(
                old_graph.out_degree(vertex) if old_graph.has_vertex(vertex) else 0,
                new_graph.out_degree(vertex) if new_graph.has_vertex(vertex) else 0,
            )

        per_subgraph: Dict[int, Dict[int, float]] = {}
        for vertex, message in pending_full.items():
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

        for index, local_pending in per_subgraph.items():
            subgraph = layered.subgraphs[index]
            arrived = self._local_upload(subgraph, work, local_pending, metrics)
            for vertex, message in arrived.items():
                lup_pending[vertex] = spec.aggregate(
                    lup_pending.get(vertex, identity), message
                )

    def _vectorized_phases(self) -> bool:
        """Whether the vectorized upload/assign kernels should be attempted."""
        return is_numpy_backend(self.backend)

    def _local_upload(
        self,
        subgraph,
        work: Dict[int, float],
        local_pending: Dict[int, float],
        metrics: ExecutionMetrics,
    ) -> Dict[int, float]:
        """Propagate revision messages inside one subgraph (boundary absorbs).

        Internal states are revised in place (Equation (11)); the messages
        that reach boundary vertices are returned so the caller can feed them
        into the upper-layer iteration (Equation (7)).  Under the numpy
        backend the propagation runs on the subgraph's compiled CSR
        (:func:`repro.layph.vectorized.local_upload_numpy`), metric-identical
        to the Python loop below, which remains the reference and the
        fallback for inputs the kernel cannot express (e.g. NaN factors).

        Raises:
            NonConvergenceError: if significant messages remain after the
                round cap.  Returning the partial result instead would leave
                stale internal states behind and silently corrupt every
                subsequent delta.
        """
        if self._vectorized_phases():
            arrived = local_upload_numpy(self.spec, subgraph, work, local_pending, metrics)
            if arrived is not None:
                return arrived
        spec = self.spec
        identity = spec.aggregate_identity()
        boundary = subgraph.boundary
        adjacency = subgraph.local_adjacency
        pending = dict(local_pending)
        arrived: Dict[int, float] = {}
        rounds = 0
        max_rounds = 10_000
        while pending:
            active = sorted(
                vertex for vertex, message in pending.items() if spec.is_significant(message)
            )
            if not active:
                break
            if rounds >= max_rounds:
                raise NonConvergenceError(
                    f"local revision-message upload in subgraph {subgraph.index} "
                    f"did not converge within {max_rounds} rounds for "
                    f"{spec.name!r}; {len(active)} significant pending "
                    "messages remain"
                )
            snapshot = {vertex: pending.pop(vertex) for vertex in active}
            activations = 0
            for vertex, message in snapshot.items():
                if vertex in boundary:
                    # Boundary vertices accumulate but never re-propagate here;
                    # their own revision happens on the upper layer.
                    arrived[vertex] = spec.aggregate(arrived.get(vertex, identity), message)
                    continue
                old_state = work.get(vertex, spec.initial_state(vertex))
                new_state = spec.aggregate(old_state, message)
                if spec.is_selective() and new_state == old_state:
                    continue
                work[vertex] = new_state
                out_value = new_state if spec.is_selective() else message
                for target, factor in adjacency(vertex):
                    activations += 1
                    produced = spec.combine(out_value, factor)
                    if spec.absorbs(target) or not spec.is_significant(produced):
                        continue
                    pending[target] = spec.aggregate(pending.get(target, identity), produced)
            metrics.record_round(activations, len(snapshot))
            rounds += 1
        return arrived

    def _selective_upload(
        self,
        link_diff,
        old_upper_vertices: Set[int],
        current_upper: Set[int],
        work: Dict[int, float],
        lup_pending: Dict[int, float],
        metrics: ExecutionMetrics,
        added_vertices: Set[int],
    ) -> None:
        """Invalidate, trim and seed the upper layer for selective algorithms.

        Upper-layer links whose factor grew or disappeared may have supported
        their target; the dependents of such targets (following supporting
        links of the *old* upper layer) are reset to the identity and
        re-seeded from their surviving in-links.  Links that are new or whose
        factor shrank contribute compensation messages.  ``link_diff`` is the
        delta's upper-row diff (:class:`repro.layph.layered_graph.UpperDiff`
        from the patch path, or the flatten-based fallback) — an unchanged
        ``(source, target)`` link can never be a root or a compensation, so
        iterating only the changed pairs reproduces the full-flatten scans.

        ``work`` must still hold the pre-delta states of the vertices and
        proxies this delta removed: all their out-links are removed links,
        and whether one supported its target can only be told from the
        source's old state.  ``current_upper`` is the post-delta upper vertex
        set (proxies included).
        """
        spec = self.spec
        layered = self._require_layered()
        identity = spec.aggregate_identity()
        changed_links = list(link_diff.changed_links())

        # Invalidation roots from worsened/removed upper links.
        roots: Set[int] = set()
        for source, target, old_factor, new_factor in changed_links:
            if old_factor is None:
                continue
            if new_factor is not None and new_factor <= old_factor:
                continue
            source_state = work.get(source, identity)
            target_state = work.get(target, identity)
            if source_state == identity or target_state == identity:
                continue
            if self._supports(spec.combine(source_state, old_factor), target_state):
                roots.add(target)

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
            target_state = work.get(vertex, identity)
            if target_state == identity:
                continue
            if self._supports(old_value, target_state):
                roots.add(vertex)

        tainted = self._upper_dependents(link_diff, work, roots)
        # Upper-layer vertices with no trustworthy upper-layer history are
        # treated as invalid too: fresh proxies and brand-new graph vertices
        # (no state at all), and vertices that were internal before this
        # delta (their old value was supported by intra-subgraph structure
        # that has just been rebuilt, so no link diff can vouch for it).
        for vertex in current_upper:
            if vertex not in work or vertex not in old_upper_vertices:
                tainted.add(vertex)
        tainted &= current_upper

        for vertex in tainted:
            work[vertex] = identity
        seeded = self._vectorized_phases() and seed_tainted_upper(
            spec, layered, tainted, work, lup_pending, metrics
        )
        if not seeded:
            incoming = layered.upper_in_adjacency()
            for vertex in sorted(tainted):
                best = spec.initial_message(vertex) if vertex >= 0 else identity
                for source, factor in incoming.get(vertex, []):
                    metrics.edge_activations += 1
                    if source in tainted:
                        continue
                    source_state = work.get(source, identity)
                    if source_state == identity:
                        continue
                    best = spec.aggregate(best, spec.combine(source_state, factor))
                if spec.is_significant(best):
                    lup_pending[vertex] = spec.aggregate(
                        lup_pending.get(vertex, identity), best
                    )

        # Compensation from new or improved upper links.
        for source, target, old_factor, new_factor in changed_links:
            if new_factor is None:
                continue
            if old_factor is not None and new_factor >= old_factor:
                continue
            if source in tainted:
                continue
            source_state = work.get(source, identity)
            if source_state == identity:
                continue
            metrics.edge_activations += 1
            offered = spec.combine(source_state, new_factor)
            if spec.is_significant(offered) and not spec.absorbs(target):
                lup_pending[target] = spec.aggregate(
                    lup_pending.get(target, identity), offered
                )

        # Root messages: brand-new vertices that carry one (a new source), and
        # the folded root message of an internal source (Equation (7)).
        for vertex in added_vertices:
            root = spec.initial_message(vertex)
            if spec.is_significant(root):
                lup_pending[vertex] = spec.aggregate(
                    lup_pending.get(vertex, identity), root
                )
        if self._local_source_states is not None:
            source = self._source_vertex()
            index = layered.subgraph_of.get(source) if source is not None else None
            if index is not None:
                for boundary_vertex in layered.subgraphs[index].boundary:
                    folded = self._local_source_states.get(boundary_vertex)
                    if folded is not None and spec.is_significant(folded):
                        lup_pending[boundary_vertex] = spec.aggregate(
                            lup_pending.get(boundary_vertex, identity), folded
                        )

    def _upper_dependents(
        self,
        link_diff,
        work: Dict[int, float],
        roots: Set[int],
    ) -> Set[int]:
        """Dependents of ``roots`` along supporting links of the old Lup.

        The old out-links are pulled per visited vertex from ``link_diff``
        (captured rows for the dirty sources, the untouched adjacency rows
        for everything else), so the walk costs O(region) instead of the
        O(Lup) supporters map the flatten-based implementation built.
        """
        spec = self.spec
        identity = spec.aggregate_identity()
        tainted: Set[int] = set()
        stack = list(roots)
        while stack:
            vertex = stack.pop()
            if vertex in tainted:
                continue
            tainted.add(vertex)
            source_state = work.get(vertex, identity)
            if source_state == identity:
                continue
            for target, factor in link_diff.old_links_of(vertex).items():
                if target in tainted:
                    continue
                target_state = work.get(target, identity)
                if target_state == identity:
                    continue
                if self._supports(spec.combine(source_state, factor), target_state):
                    stack.append(target)
        return tainted

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
        new_graph: Graph,
    ) -> None:
        """Push boundary results down to internal vertices through shortcuts."""
        spec = self.spec
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
        to_assign = {index for index in to_assign if index < len(layered.subgraphs)}

        source = self._source_vertex()
        order = [
            index
            for index in sorted(to_assign)
            if layered.subgraphs[index].internal
        ]
        if order and self._vectorized_phases():
            # one kernel call over every assigned subgraph's shortcut rows
            subgraphs = [layered.subgraphs[index] for index in order]
            if spec.is_selective():
                best_maps = assign_selective_batch(spec, subgraphs, work, metrics)
                if best_maps is not None:
                    for subgraph, best in zip(subgraphs, best_maps):
                        self._finish_selective_assign(
                            subgraph, best, work, new_graph, source
                        )
                    return
            elif assign_accumulative_batch(
                spec, subgraphs, deltas, work, metrics, new_graph
            ):
                return
        for index in order:
            subgraph = layered.subgraphs[index]
            if spec.is_selective():
                self._assign_selective(subgraph, work, metrics, new_graph, source)
            else:
                self._assign_accumulative(subgraph, deltas, work, metrics, new_graph)

    def _assign_selective(
        self,
        subgraph,
        work: Dict[int, float],
        metrics: ExecutionMetrics,
        new_graph: Graph,
        source: Optional[int],
    ) -> None:
        """Best-offer assignment of one subgraph (boundary → internal).

        The reference loop; under the numpy backend every assigned subgraph
        runs in one vectorized pass instead
        (:func:`repro.layph.vectorized.assign_selective_batch`), which scans
        boundary vertices in the same ascending id order and produces
        identical ``best`` maps, activation counts and state writes.
        """
        spec = self.spec
        identity = spec.aggregate_identity()
        best = {vertex: spec.initial_message(vertex) for vertex in subgraph.internal}
        for boundary_vertex in sorted(subgraph.boundary):
            boundary_state = work.get(boundary_vertex, identity)
            if boundary_state == identity:
                continue
            for target, factor in subgraph.internal_shortcuts(boundary_vertex).items():
                metrics.edge_activations += 1
                candidate = spec.combine(boundary_state, factor)
                best[target] = spec.aggregate(best[target], candidate)
        self._finish_selective_assign(subgraph, best, work, new_graph, source)

    def _finish_selective_assign(
        self,
        subgraph,
        best: Dict[int, float],
        work: Dict[int, float],
        new_graph: Graph,
        source: Optional[int],
    ) -> None:
        """Fold the source's local results into ``best`` and write it back.

        Shared by the reference scan above and the vectorized pass, which
        hand in their ``best`` maps.
        """
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
        for target, value in best.items():
            if new_graph.has_vertex(target):
                work[target] = value

    def _assign_accumulative(
        self,
        subgraph,
        deltas: Dict[int, float],
        work: Dict[int, float],
        metrics: ExecutionMetrics,
        new_graph: Graph,
    ) -> None:
        """Delta push of one subgraph's boundary changes through its shortcuts.

        The reference loop; under the numpy backend every assigned subgraph
        runs in one vectorized pass instead
        (:func:`repro.layph.vectorized.assign_accumulative_batch`).  Both
        apply boundary deltas in ascending id order (shortcut-table order
        within a boundary vertex), so the non-associative float sums agree
        bit for bit.
        """
        spec = self.spec
        for boundary_vertex in sorted(subgraph.boundary):
            difference = deltas.get(boundary_vertex)
            if difference is None or not spec.is_significant(difference):
                continue
            for target, factor in subgraph.internal_shortcuts(boundary_vertex).items():
                if spec.absorbs(target) or not new_graph.has_vertex(target):
                    continue
                metrics.edge_activations += 1
                work[target] = spec.aggregate(
                    work.get(target, spec.initial_state(target)),
                    spec.combine(difference, factor),
                )

    # ------------------------------------------------------------------
    # durable snapshots (repro.storage)
    # ------------------------------------------------------------------
    def _snapshot_extras(self):
        from repro.storage.codecs import encode_float_map, pack

        layered = self._require_layered()
        meta = {
            "layered": layered.to_state(),
            "offline_seconds": self.offline_seconds,
            "offline_metrics": {
                "edge_activations": self.offline_metrics.edge_activations,
                "vertex_updates": self.offline_metrics.vertex_updates,
                "iterations": self.offline_metrics.iterations,
                "activations_per_round": list(
                    self.offline_metrics.activations_per_round
                ),
                "active_vertices_per_round": list(
                    self.offline_metrics.active_vertices_per_round
                ),
            },
            "has_local_source_states": self._local_source_states is not None,
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
        offline = meta["offline_metrics"]
        self.offline_metrics = ExecutionMetrics(
            edge_activations=int(offline["edge_activations"]),
            vertex_updates=int(offline["vertex_updates"]),
            iterations=int(offline["iterations"]),
            activations_per_round=[
                int(count) for count in offline["activations_per_round"]
            ],
            active_vertices_per_round=[
                int(count) for count in offline["active_vertices_per_round"]
            ],
        )
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
