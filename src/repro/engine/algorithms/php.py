"""Penalized hitting probability (PHP), the fourth workload of the paper.

PHP ranks vertices by the probability that a decayed random walk started at a
source vertex ``s`` reaches them *before returning to* ``s`` (returning walks
are penalized, i.e. killed).  In the accumulative model:

* ``F(m_u, w_{u,v}) = m_u · d · w_{u,v} / W_u`` where ``W_u`` is the total
  outgoing weight of ``u``;
* ``G = +``;
* ``x^0_s = 0`` with root message ``m^0_s = 1`` and ``m^0_v = 0`` elsewhere;
* messages arriving back at ``s`` are absorbed (the penalty).

Like PageRank it is accumulative and invertible, so the same
cancellation/compensation machinery applies; unlike PageRank it is rooted and
weight-sensitive, which is why the paper evaluates it separately.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.engine.algorithm import AlgorithmSpec
from repro.graph.graph import Graph


class PHP(AlgorithmSpec):
    """Penalized hitting probability from ``source`` with decay ``d``."""

    name = "php"
    dense_algebra = ("sum", "mul")

    def __init__(
        self, source: int = 0, damping: float = 0.85, tolerance: float = 1e-6
    ) -> None:
        if not 0.0 < damping < 1.0:
            raise ValueError("damping must be in (0, 1)")
        self.source = source
        self.damping = damping
        self._tolerance = tolerance

    # aggregation -------------------------------------------------------
    def aggregate(self, left: float, right: float) -> float:
        return left + right

    def aggregate_identity(self) -> float:
        return 0.0

    # path composition --------------------------------------------------
    def combine(self, message: float, factor: float) -> float:
        return message * factor

    def combine_identity(self) -> float:
        return 1.0

    def edge_factor(self, graph: Graph, source: int, target: int) -> float:
        total_weight = graph.total_out_weight(source)
        if total_weight == 0.0:
            return 0.0
        return self.damping * graph.edge_weight(source, target) / total_weight

    def out_factors(self, graph: Graph, source: int) -> List[Tuple[int, float]]:
        # One denominator per row: ``edge_factor`` re-sums the source's
        # out-weights for every edge, which is O(degree²) per row.
        neighbors = graph.out_neighbors(source)
        total_weight = sum(neighbors.values())
        if total_weight == 0.0:
            return [(target, 0.0) for target in neighbors]
        damping = self.damping
        return [
            (target, damping * weight / total_weight)
            for target, weight in neighbors.items()
        ]

    # initial values ----------------------------------------------------
    def initial_state(self, vertex: int) -> float:
        return 0.0

    def initial_message(self, vertex: int) -> float:
        return 1.0 if vertex == self.source else 0.0

    # family ------------------------------------------------------------
    def is_selective(self) -> bool:
        return False

    def tolerance(self) -> float:
        return self._tolerance

    def absorbs(self, vertex: int) -> bool:
        return vertex == self.source

    def __repr__(self) -> str:
        return f"PHP(source={self.source}, damping={self.damping})"
