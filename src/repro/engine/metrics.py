"""Instrumentation: edge activations, phase timers and cost accounting.

The paper's primary explanatory metric is the *number of edge activations* —
the number of applications of the message-generation function ``F``
(Figure 1, Figure 6).  Runtime in a pure-Python reproduction is dominated by
interpreter overhead, so the harness reports activations as the main metric,
in addition to wall-clock time.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List


@dataclass
class ExecutionMetrics:
    """Counters accumulated while an engine runs."""

    edge_activations: int = 0
    vertex_updates: int = 0
    iterations: int = 0
    #: per-superstep counts of edge activations
    activations_per_round: List[int] = field(default_factory=list)
    #: per-superstep counts of distinct active vertices
    active_vertices_per_round: List[int] = field(default_factory=list)

    def record_round(self, activations: int, active_vertices: int) -> None:
        """Record one superstep."""
        self.iterations += 1
        self.edge_activations += activations
        self.activations_per_round.append(activations)
        self.active_vertices_per_round.append(active_vertices)

    def merge(self, other: "ExecutionMetrics") -> None:
        """Fold another metrics object into this one."""
        self.edge_activations += other.edge_activations
        self.vertex_updates += other.vertex_updates
        self.iterations += other.iterations
        self.activations_per_round.extend(other.activations_per_round)
        self.active_vertices_per_round.extend(other.active_vertices_per_round)

    def copy(self) -> "ExecutionMetrics":
        """Return an independent copy."""
        clone = ExecutionMetrics(
            edge_activations=self.edge_activations,
            vertex_updates=self.vertex_updates,
            iterations=self.iterations,
        )
        clone.activations_per_round = list(self.activations_per_round)
        clone.active_vertices_per_round = list(self.active_vertices_per_round)
        return clone


class PhaseTimer:
    """Wall-clock timer keyed by phase name (Figure 7 runtime breakdown)."""

    def __init__(self) -> None:
        self._elapsed: Dict[str, float] = {}

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Context manager that accumulates time under ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self._elapsed[name] = self._elapsed.get(name, 0.0) + (
                time.perf_counter() - start
            )

    def add(self, name: str, seconds: float) -> None:
        """Add an externally measured duration."""
        self._elapsed[name] = self._elapsed.get(name, 0.0) + seconds

    def elapsed(self, name: str) -> float:
        """Seconds accumulated under ``name`` (0.0 if never timed)."""
        return self._elapsed.get(name, 0.0)

    def total(self) -> float:
        """Total seconds across all phases."""
        return sum(self._elapsed.values())

    def as_dict(self) -> Dict[str, float]:
        """Snapshot of all phase durations."""
        return dict(self._elapsed)

    def proportions(self) -> Dict[str, float]:
        """Per-phase share of the total time (empty dict if nothing timed)."""
        total = self.total()
        if total == 0.0:
            return {}
        return {name: value / total for name, value in self._elapsed.items()}
