"""Ingress-style incremental engine (Gong et al., VLDB'21).

Ingress automatically selects a memoization policy from the algorithm's
algebraic properties:

* **memoization-path** for selective algorithms (SSSP, BFS): a single-parent
  dependency tree, trimmed and re-propagated after deletions — the same
  policy RisGraph implements, minus the per-update classification;
* **memoization-free** for accumulative invertible algorithms (PageRank,
  PHP): cancellation and compensation messages deduced directly from the
  converged states (:mod:`repro.incremental.revision`), then propagated with
  the ordinary delta-accumulative loop.

Layph is implemented on top of this engine, exactly as in the paper
(Section VI: "We implement Layph on top of Ingress").
"""

from __future__ import annotations

from typing import Optional

from repro.engine.algorithm import AlgorithmSpec
from repro.engine.metrics import ExecutionMetrics, PhaseTimer
from repro.engine.propagation import propagate
from repro.graph.delta import GraphDelta
from repro.incremental.base import IncrementalEngine, IncrementalResult
from repro.incremental.revision import accumulative_revision_messages
from repro.incremental.selective_base import SelectiveDependencyEngine


class _IngressPathEngine(SelectiveDependencyEngine):
    """Memoization-path policy used for selective algorithms."""

    name = "ingress"
    tainting = "tree"
    classify_safe_updates = False


class _IngressFreeEngine(IncrementalEngine):
    """Memoization-free policy used for accumulative algorithms."""

    name = "ingress"
    supported_family = "accumulative"

    def _apply_delta(self, delta: GraphDelta) -> IncrementalResult:
        spec = self.spec
        metrics = ExecutionMetrics()
        phases = PhaseTimer()
        old_graph = self._require_graph()

        with phases.phase("graph update"):
            # Snapshot the pre-delta out-edge CSR before the cache is patched
            # forward: the revision deduction reads the old factors from it
            # (the patched arrays are new objects, so the snapshot stays
            # valid).
            old_csr = self.csr_cache.out_csr(spec, old_graph)
            new_graph = self._update_graph(delta)
            new_csr = self.csr_cache.out_csr(spec, new_graph)

        states = dict(self.states)

        with phases.phase("revision deduction"):
            # The shared delta footprint owns the changed-source scan and the
            # vertex-membership diff (computed once per delta in
            # ``_update_graph``).
            footprint = self.footprint
            changed = footprint.changed_sources
            pending, added_vertices, removed_vertices = accumulative_revision_messages(
                spec,
                old_graph,
                new_graph,
                states,
                changed=changed,
                old_csr=old_csr,
                new_csr=new_csr,
                added_vertices=footprint.added_vertices,
                removed_vertices=footprint.removed_vertices,
            )
            # Deducing each contribution difference evaluates F once per
            # affected out-edge; count that work as edge activations.
            metrics.edge_activations += sum(
                max(
                    old_graph.out_degree(v) if old_graph.has_vertex(v) else 0,
                    new_graph.out_degree(v) if new_graph.has_vertex(v) else 0,
                )
                for v in changed
            )
            for vertex in removed_vertices:
                states.pop(vertex, None)
            for vertex in added_vertices:
                states[vertex] = spec.initial_state(vertex)

        with phases.phase("propagation"):
            adjacency = self._propagation_adjacency(new_graph)
            propagate(spec, adjacency, states, pending, metrics)

        return IncrementalResult(states=states, metrics=metrics, phases=phases)


class IngressEngine(IncrementalEngine):
    """Facade that picks the memoization policy from the algorithm family."""

    name = "ingress"
    supported_family = "any"
    # the delegate checks the algebra, once
    _require_algebra = staticmethod(lambda spec: None)

    def __init__(self, spec: AlgorithmSpec, *, backend: Optional[str] = None) -> None:
        super().__init__(spec, backend=backend)
        if spec.is_selective():
            self._delegate: IncrementalEngine = _IngressPathEngine(spec)
        else:
            self._delegate = _IngressFreeEngine(spec)
        self.algebra = self._delegate.algebra
        # expose the delegate's CSR cache (the facade itself never propagates)
        self.csr_cache = self._delegate.csr_cache

    @property
    def policy(self) -> str:
        """Which memoization policy was selected for the algorithm."""
        return (
            "memoization-path"
            if isinstance(self._delegate, _IngressPathEngine)
            else "memoization-free"
        )

    def initialize(self, graph):
        result = self._delegate.initialize(graph)
        self.graph = self._delegate.graph
        self.states = dict(self._delegate.states)
        self.initial_metrics = self._delegate.initial_metrics
        return result

    def apply_delta(
        self, delta: GraphDelta, log_meta: Optional[dict] = None
    ) -> IncrementalResult:
        result = self._delegate.apply_delta(delta, log_meta=log_meta)
        self.graph = self._delegate.graph
        self.states = dict(self._delegate.states)
        return result

    def _apply_delta(self, delta: GraphDelta) -> IncrementalResult:  # pragma: no cover
        raise NotImplementedError("IngressEngine delegates apply_delta")

    # ------------------------------------------------------------------
    # durable storage: the delegate owns every piece of persisted state, so
    # the store attaches there (its log hook fires inside the delegate's
    # ``apply_delta``) and the facade just re-syncs its mirror fields.
    # ------------------------------------------------------------------
    def _storage_target(self) -> IncrementalEngine:
        return self._delegate

    def _post_restore_sync(self) -> None:
        self.graph = self._delegate.graph
        self.states = dict(self._delegate.states)
        self.initial_metrics = self._delegate.initial_metrics
