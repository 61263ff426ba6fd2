"""The Restart baseline: recompute the updated graph from scratch.

This is the "Restart" system of Figure 1 — it ignores every memoized result
and simply reruns the batch computation on ``G ⊕ ΔG``.
"""

from __future__ import annotations

from repro.engine.runner import run_batch
from repro.graph.delta import GraphDelta
from repro.incremental.base import IncrementalEngine, IncrementalResult


class RestartEngine(IncrementalEngine):
    """Recompute from scratch after every delta."""

    name = "restart"
    supported_family = "any"

    def _apply_delta(self, delta: GraphDelta) -> IncrementalResult:
        new_graph = self._update_graph(delta)
        result = run_batch(
            self.spec, new_graph, adjacency=self._propagation_adjacency(new_graph)
        )
        return IncrementalResult(states=result.states, metrics=result.metrics)
