"""Algorithm specification for the delta-accumulative model.

An iterative graph algorithm ``A = (F, G, X0, M0)`` is expressed through two
operations (Equation (1) of the paper):

* message generation ``F(m_u, w_{u,v})`` applied along every out-edge, and
* message aggregation ``G`` applied at every destination vertex.

This reproduction factors ``F`` as ``F(m, w) = combine(m, edge_factor(u, v))``
where ``combine`` is the *path-composition* operator (``+`` for SSSP/BFS,
``×`` for PageRank/PHP) and ``edge_factor`` is a per-edge constant (the edge
weight for SSSP, ``d / N_u`` for PageRank, ...).  Factoring ``F`` this way is
what lets Layph compute shortcut weights generically: a shortcut's weight is
the aggregation of the path compositions of edge factors along every path
between its endpoints (Definition 3 / Equation (6)), and a message crosses a
shortcut with the very same ``combine`` operator.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Tuple

from repro.graph.graph import Graph

VertexStates = Dict[int, float]
Messages = Dict[int, float]


class AlgorithmSpec(abc.ABC):
    """Specification of one vertex-centric algorithm.

    Subclasses provide the aggregation operator, the path-composition
    operator, per-edge factors and initial states/messages.  Two families are
    distinguished:

    * **selective** algorithms (``is_selective() == True``) aggregate with a
      selection operator such as ``min``; their propagation is monotone and
      their incremental engines rely on dependency tracking (KickStarter,
      RisGraph, Ingress memoization-path);
    * **accumulative** algorithms aggregate with an invertible operator such
      as ``+``; their incremental engines rely on cancellation /
      compensation messages (GraphBolt, DZiG, Ingress memoization-free).
    """

    #: human-readable name used by the benchmark harness
    name: str = "algorithm"

    #: whether :meth:`edge_factor` depends on the edge alone (its weight, a
    #: constant) rather than on the source's whole out-adjacency.  SSSP/BFS
    #: qualify; degree-normalized factors (PageRank's ``d/N_u``, PHP) do
    #: not.  The incremental CSR cache uses this to patch only the rows of
    #: the updated edges' endpoints instead of re-enumerating every
    #: neighbor row of every touched source.
    edge_local_factors: bool = False

    #: declared operator algebra: ``("min", "add")`` for SSSP/BFS-style
    #: selective specs or ``("sum", "mul")`` for PageRank/PHP-style
    #: accumulative specs.  Required: the engines and ``run_batch`` raise
    #: ``ValueError`` for a spec that leaves it ``None`` (the default) or
    #: whose ``aggregate``/``combine``/``is_significant``/``negate`` deviate
    #: from those standard semantics — the array kernels run plain
    #: ``min``/``+``/``×`` in their place.  ``edge_factor`` must map finite
    #: weights to finite factors: the engines reject non-finite weights and
    #: NaN initial values, so that no state is ever NaN.  Subclasses of the
    #: built-in algorithms that change operator semantics must reset it to
    #: ``None``, which makes the engines refuse them.
    dense_algebra: Optional[Tuple[str, str]] = None

    #: whether every min/+ path sum is exact in float64, whatever order its
    #: additions run in: BFS qualifies (every factor is 1 and its root
    #: message 0, so every sum is a small integer); SSSP's real weights do
    #: not.  Layph keeps a shortcut row across a boundary gain only for such
    #: a spec (:meth:`repro.layph.layered_graph.LayeredGraph._refresh_subgraph`).
    #: A subclass that changes ``edge_factor`` or the initial messages must
    #: reset it to ``False``.
    exact_path_sums: bool = False

    # ------------------------------------------------------------------
    # aggregation G
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def aggregate(self, left: float, right: float) -> float:
        """The aggregation operator ``G`` (e.g. ``min`` or ``+``)."""

    @abc.abstractmethod
    def aggregate_identity(self) -> float:
        """Identity element of ``G`` (``+inf`` for min, ``0`` for sum)."""

    # ------------------------------------------------------------------
    # path composition (the core of F)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def combine(self, message: float, factor: float) -> float:
        """Compose a message with an edge (or shortcut) factor."""

    @abc.abstractmethod
    def combine_identity(self) -> float:
        """Identity element of ``combine`` — the paper's *unit message*.

        Injecting this value at an entry vertex and propagating it through a
        subgraph yields the shortcut weights (Example 2).
        """

    @abc.abstractmethod
    def edge_factor(self, graph: Graph, source: int, target: int) -> float:
        """Per-edge factor of edge ``source -> target`` in ``graph``."""

    def out_factors(self, graph: Graph, source: int) -> List[Tuple[int, float]]:
        """``(target, edge_factor)`` of every out-edge of ``source``, in
        out-adjacency order.

        Row enumerators (CSR compiles and patches, factor adjacencies,
        Layph's upper rows) call this once per source instead of
        :meth:`edge_factor` once per edge, so a spec whose factors share a
        per-source term (PHP's total out-weight) overrides it to compute
        that term once per row.  An override must return exactly the
        ``edge_factor`` values, bit for bit.
        """
        return [
            (target, self.edge_factor(graph, source, target))
            for target in graph.out_neighbors(source)
        ]

    # ------------------------------------------------------------------
    # initial values
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def initial_state(self, vertex: int) -> float:
        """Initial vertex state ``x^0_v``."""

    @abc.abstractmethod
    def initial_message(self, vertex: int) -> float:
        """Initial (root) message ``m^0_v``."""

    # ------------------------------------------------------------------
    # algorithm family and convergence
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def is_selective(self) -> bool:
        """``True`` for min/max style algorithms, ``False`` for sum style."""

    def tolerance(self) -> float:
        """Messages with magnitude below this are dropped (accumulative)."""
        return 1e-6

    def is_significant(self, message: float) -> bool:
        """Whether a pending message is worth propagating."""
        identity = self.aggregate_identity()
        if self.is_selective():
            return message != identity
        return abs(message - identity) > self.tolerance()

    def absorbs(self, vertex: int) -> bool:
        """Whether ``vertex`` absorbs incoming messages (drops them).

        PHP uses this for its source: a random walk that returns to the
        source is penalized, i.e. its mass is not re-propagated.
        """
        return False

    # ------------------------------------------------------------------
    # inverses (accumulative algorithms only)
    # ------------------------------------------------------------------
    def is_invertible(self) -> bool:
        """Whether ``G`` has an inverse (needed for cancellation messages)."""
        return not self.is_selective()

    def negate(self, message: float) -> float:
        """Inverse of ``message`` under ``G`` (only if invertible)."""
        if not self.is_invertible():
            raise NotImplementedError(
                f"{self.name} has no aggregation inverse; use dependency "
                "tracking instead of cancellation messages"
            )
        return -message

    # ------------------------------------------------------------------
    # derived helpers shared by all engines
    # ------------------------------------------------------------------
    def contribution(self, graph: Graph, state_source: float, source: int, target: int) -> float:
        """Total converged message mass sent along one edge.

        For accumulative algorithms the mass a vertex has propagated at
        convergence equals its state change (its state minus its initial
        state, which is the aggregate identity), so the per-edge contribution
        is ``combine(x_u, edge_factor(u, v))``.  For selective algorithms the
        contribution is the candidate value ``combine(x_u, w_{u,v})`` offered
        to the target.  Both reduce to the same expression.
        """
        return self.combine(state_source, self.edge_factor(graph, source, target))

    def initial_states(self, graph: Graph) -> VertexStates:
        """Initial state for every vertex of ``graph``."""
        return {vertex: self.initial_state(vertex) for vertex in graph.vertices()}

    def initial_messages(self, graph: Graph) -> Messages:
        """Initial root message for every vertex of ``graph``."""
        return {vertex: self.initial_message(vertex) for vertex in graph.vertices()}

    def states_match(
        self, left: VertexStates, right: VertexStates, tolerance: Optional[float] = None
    ) -> bool:
        """Whether two state maps agree (within a family-appropriate tolerance).

        Selective results are path compositions and agree up to floating-point
        re-association (different engines group the same sums differently);
        accumulative results agree up to the convergence tolerance.
        """
        if set(left) != set(right):
            return False
        if self.is_selective():
            limit = 1e-9 if tolerance is None else tolerance
            for vertex in left:
                a, b = left[vertex], right[vertex]
                if a == b:
                    continue
                if abs(a - b) > limit * max(1.0, abs(a), abs(b)):
                    return False
            return True
        limit = self.tolerance() * 10 if tolerance is None else tolerance
        return all(abs(left[v] - right[v]) <= limit for v in left)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"
