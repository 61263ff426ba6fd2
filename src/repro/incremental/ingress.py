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

``IngressEngine(spec)`` makes that choice at construction and returns the
policy engine itself (one of two :class:`IngressEngine` subclasses), so the
object the caller holds owns every piece of state: the durable store and the
update service use it like any other engine.

Layph is implemented on top of this engine, exactly as in the paper
(Section VI: "We implement Layph on top of Ingress").
"""

from __future__ import annotations

from repro.engine.algorithm import AlgorithmSpec
from repro.engine.metrics import ExecutionMetrics, PhaseTimer
from repro.engine.propagation import propagate
from repro.graph.delta import GraphDelta
from repro.incremental.base import IncrementalEngine, IncrementalResult
from repro.incremental.revision import accumulative_revision_messages
from repro.incremental.selective_base import SelectiveDependencyEngine


class IngressEngine(IncrementalEngine):
    """Picks the memoization policy from the algorithm family.

    Constructing ``IngressEngine(spec)`` builds the memoization-path engine
    for a selective spec and the memoization-free engine for an
    accumulative one; both answer to the store identity ``"ingress"``.
    """

    name = "ingress"
    supported_family = "any"
    #: which memoization policy the algorithm selected
    policy: str

    def __new__(cls, spec: AlgorithmSpec, *args, **kwargs):
        if cls is IngressEngine:
            cls = _IngressPathEngine if spec.is_selective() else _IngressFreeEngine
        return super().__new__(cls)


class _IngressPathEngine(IngressEngine, SelectiveDependencyEngine):
    """Memoization-path policy used for selective algorithms."""

    policy = "memoization-path"
    supported_family = "selective"
    tainting = "tree"
    classify_safe_updates = False


class _IngressFreeEngine(IngressEngine):
    """Memoization-free policy used for accumulative algorithms."""

    policy = "memoization-free"
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
