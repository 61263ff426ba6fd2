"""Breadth-first search (hop distance) in the accumulative model.

Identical to SSSP except that every edge contributes one hop regardless of
its weight: ``F(m_u, w_{u,v}) = m_u + 1``, ``G = min``.
"""

from __future__ import annotations

import math

from repro.engine.algorithm import AlgorithmSpec
from repro.graph.graph import Graph

INFINITY = math.inf


class BFS(AlgorithmSpec):
    """Hop distance from ``source``."""

    name = "bfs"
    dense_algebra = ("min", "add")
    edge_local_factors = True  # every edge contributes one constant hop
    exact_path_sums = True  # hop counts: integer sums, exact in any order

    def __init__(self, source: int = 0) -> None:
        self.source = source

    # aggregation -------------------------------------------------------
    def aggregate(self, left: float, right: float) -> float:
        return left if left <= right else right

    def aggregate_identity(self) -> float:
        return INFINITY

    # path composition --------------------------------------------------
    def combine(self, message: float, factor: float) -> float:
        return message + factor

    def combine_identity(self) -> float:
        return 0.0

    def edge_factor(self, graph: Graph, source: int, target: int) -> float:
        return 1.0

    # initial values ----------------------------------------------------
    def initial_state(self, vertex: int) -> float:
        # As for SSSP: start at the identity and let the source's root
        # message set hop 0 on the first superstep.
        return INFINITY

    def initial_message(self, vertex: int) -> float:
        return 0.0 if vertex == self.source else INFINITY

    # family ------------------------------------------------------------
    def is_selective(self) -> bool:
        return True

    def __repr__(self) -> str:
        return f"BFS(source={self.source})"
