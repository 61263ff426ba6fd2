"""Batch runner: run an algorithm on a whole graph from scratch.

This is the paper's ``A(G)`` — the batched iterative computation whose result
is then maintained incrementally.  It is also the *Restart* baseline and the
correctness oracle used by every test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.engine.algorithm import AlgorithmSpec
from repro.engine.dense_propagation import require_algebra
from repro.engine.metrics import ExecutionMetrics
from repro.engine.propagation import FactorAdjacency, propagate
from repro.graph.graph import Graph


@dataclass
class BatchResult:
    """Converged vertex states plus execution metrics."""

    states: Dict[int, float]
    metrics: ExecutionMetrics = field(default_factory=ExecutionMetrics)

    def state(self, vertex: int) -> float:
        """Converged state of one vertex."""
        return self.states[vertex]


def check_backend(backend: Optional[str]) -> None:
    """Accept the retired ``backend=`` keyword as a no-op, or reject it.

    There is nothing left to select: every engine runs the array kernels.
    ``None`` and ``"numpy"`` change nothing; any other name raises
    ``ValueError``.
    """
    if backend is not None and backend != "numpy":
        raise ValueError(
            f"propagation backend {backend!r} was removed: every engine runs "
            "the array kernels"
        )


def run_batch(
    spec: AlgorithmSpec,
    graph: Graph,
    metrics: Optional[ExecutionMetrics] = None,
    max_rounds: Optional[int] = None,
    backend: Optional[str] = None,
    adjacency=None,
) -> BatchResult:
    """Run ``spec`` on ``graph`` to convergence from the initial values.

    Returns converged states for every vertex in the graph (unreached
    vertices keep their initial state, e.g. ``inf`` for SSSP).
    ``adjacency`` optionally injects a pre-built factor adjacency of
    ``graph`` (engines pass their cache-backed view so the CSR compile is
    reused across calls) — it must be equivalent to
    ``FactorAdjacency.from_graph(spec, graph)``.  ``backend`` is accepted
    only for compatibility (see :func:`check_backend`).  Raises
    ``ValueError`` for a spec outside the contract of
    :func:`repro.engine.dense_propagation.require_algebra`.
    """
    check_backend(backend)
    require_algebra(spec)
    if metrics is None:
        metrics = ExecutionMetrics()
    if adjacency is None:
        adjacency = FactorAdjacency.from_graph(spec, graph)
    states = spec.initial_states(graph)
    pending = {
        vertex: message
        for vertex, message in spec.initial_messages(graph).items()
        if spec.is_significant(message)
    }
    propagate(spec, adjacency, states, pending, metrics, max_rounds=max_rounds)
    return BatchResult(states=states, metrics=metrics)
