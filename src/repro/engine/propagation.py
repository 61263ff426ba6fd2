"""Delta-accumulative propagation core.

Every engine in the repository — the batch runner, the incremental baselines,
Layph's shortcut calculation, its per-subgraph message upload and its
upper-layer iteration — executes the same round-based propagation loop defined
here, over a *factor adjacency* (vertex -> list of ``(target, factor)``
pairs).  Using one shared core keeps the edge-activation counts of the
different systems directly comparable, which is what the paper's Figures 1
and 6 measure.

:func:`propagate` first offers every call to the array kernel of
:mod:`repro.engine.dense_propagation`, which produces identical states,
round counts and edge-activation counts.  The kernel declines what it cannot
reproduce bit for bit — a spec without a declared algebra, NaN inputs, an
adjacency that is a plain callable — and the reference loop below runs
those calls.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from repro.engine.algorithm import AlgorithmSpec
from repro.engine.dense_propagation import propagate_numpy
from repro.engine.metrics import ExecutionMetrics

AdjacencyFn = Callable[[int], Iterable[Tuple[int, float]]]


class NonConvergenceError(RuntimeError):
    """A propagation loop hit its round cap with significant messages left.

    Returning partial results would silently leave stale states behind, so
    the engines raise instead (see ``LayphEngine._local_upload``).
    """


class FactorAdjacency:
    """Materialised factor adjacency: vertex -> list of ``(target, factor)``.

    The batch runner derives it from a graph and an algorithm; Layph derives
    it from shortcut tables.  It is callable so it can be passed directly to
    :func:`propagate`.
    """

    def __init__(self, adjacency: Optional[Dict[int, List[Tuple[int, float]]]] = None):
        self._adjacency: Dict[int, List[Tuple[int, float]]] = adjacency or {}
        #: mutation counter consulted by the CSR compile memo (see
        #: :mod:`repro.graph.csr_cache`); mutating the backing dict directly
        #: instead of through :meth:`add` bypasses it.
        self._version = 0

    @classmethod
    def from_graph(cls, spec: AlgorithmSpec, graph) -> "FactorAdjacency":
        """Build the factor adjacency of ``graph`` under ``spec``."""
        adjacency: Dict[int, List[Tuple[int, float]]] = {}
        for source in graph.vertices():
            edges = spec.out_factors(graph, source)
            if edges:
                adjacency[source] = edges
        return cls(adjacency)

    def add(self, source: int, target: int, factor: float) -> None:
        """Append one ``(target, factor)`` pair under ``source``."""
        self._adjacency.setdefault(source, []).append((target, factor))
        self._version += 1

    @property
    def version(self) -> int:
        """Mutation counter: bumped by every :meth:`add` and every effective
        :meth:`replace_rows`.  Keys the CSR compile memo."""
        return self._version

    def out_edges(self, vertex: int) -> List[Tuple[int, float]]:
        """Out-edges (with factors) of ``vertex``."""
        return self._adjacency.get(vertex, [])

    def __call__(self, vertex: int) -> List[Tuple[int, float]]:
        return self._adjacency.get(vertex, [])

    def __len__(self) -> int:
        return sum(len(edges) for edges in self._adjacency.values())

    def vertices_with_out_edges(self) -> List[int]:
        """Vertices that have at least one out-edge."""
        return list(self._adjacency)

    def replace_rows(self, rows: Dict[int, List[Tuple[int, float]]]) -> List[int]:
        """Replace whole per-source link lists in place.

        A source mapped to an empty list is dropped (matching an assembly
        that never added a link for it).  Sources whose new row equals the
        stored one are left untouched, and the mutation counter — which keys
        the :func:`repro.graph.csr_cache.master_factor_csr` compile memo —
        is bumped only when something actually changed, so a no-op patch
        keeps the compiled CSR alive across deltas.  Returns the sources
        whose row changed.
        """
        changed: List[int] = []
        for source, row in rows.items():
            old_row = self._adjacency.get(source)
            if row:
                if old_row != row:
                    self._adjacency[source] = row
                    changed.append(source)
            elif old_row is not None:
                del self._adjacency[source]
                changed.append(source)
        if changed:
            self._version += 1
        return changed


class SilencedAdjacency:
    """View of a factor adjacency in which some vertices absorb.

    Silenced vertices keep receiving messages but expose no out-edges, so
    they accumulate without re-propagating.  Layph's shortcut computations
    use this to fold paths over internal intermediates only (boundary
    vertices absorb); expressing the silencing structurally — instead of
    through a stateful closure — is what lets the array kernel compile the
    adjacency to CSR arrays.
    """

    def __init__(self, base: FactorAdjacency, silenced: Iterable[int]) -> None:
        self.base = base
        self.silenced: FrozenSet[int] = frozenset(silenced)

    def __call__(self, vertex: int) -> List[Tuple[int, float]]:
        if vertex in self.silenced:
            return []
        return self.base(vertex)

    def vertices_with_out_edges(self) -> List[int]:
        """Non-silenced vertices that have at least one out-edge."""
        return [v for v in self.base.vertices_with_out_edges() if v not in self.silenced]


def propagate(
    spec: AlgorithmSpec,
    adjacency: AdjacencyFn,
    states: Dict[int, float],
    pending: Dict[int, float],
    metrics: Optional[ExecutionMetrics] = None,
    max_rounds: Optional[int] = None,
    allowed_targets: Optional[Callable[[int], bool]] = None,
) -> Dict[int, float]:
    """Run the delta-accumulative loop to convergence.

    Args:
        spec: the algorithm (``F``/``G`` and friends).
        adjacency: vertex -> iterable of ``(target, factor)`` pairs.
        states: vertex -> current state; mutated in place and returned.
        pending: vertex -> accumulated but not yet applied message; consumed.
        metrics: edge activations and rounds are recorded here if given.
        max_rounds: optional safety bound on the number of supersteps.
        allowed_targets: optional predicate; messages to vertices for which it
            returns ``False`` are generated (and counted as activations, the
            ``F`` work has been done) but then discarded.  Layph uses this to
            stop upper-layer messages from descending into internal vertices.

    Returns:
        The ``states`` dict, updated to the converged values.

    The loop is round based: every round processes a snapshot of the vertices
    whose pending message is significant, applies the aggregation ``G`` to
    their state, and scatters ``combine(out_value, factor)`` along their
    out-edges into the pending map of the next round.  Selective algorithms
    propagate their (improved) new state and stay silent when the pending
    message does not improve the state; accumulative algorithms propagate the
    applied delta.  The array kernel runs the call when it can; the loop
    below is the reference and runs whatever the kernel declines.
    """
    result = propagate_numpy(
        spec,
        adjacency,
        states,
        pending,
        metrics=metrics,
        max_rounds=max_rounds,
        allowed_targets=allowed_targets,
    )
    if result is not None:
        return result
    if metrics is None:
        metrics = ExecutionMetrics()
    identity = spec.aggregate_identity()
    selective = spec.is_selective()
    rounds = 0

    while pending:
        if max_rounds is not None and rounds >= max_rounds:
            break
        active = sorted(
            vertex for vertex, message in pending.items() if spec.is_significant(message)
        )
        if not active:
            pending.clear()
            break
        round_activations = 0
        # Snapshot and remove the active entries; messages generated this
        # round are accumulated for the next round.
        snapshot = {vertex: pending.pop(vertex) for vertex in active}
        for vertex, delta in snapshot.items():
            old_state = states.get(vertex, spec.initial_state(vertex))
            new_state = spec.aggregate(old_state, delta)
            if selective:
                if new_state == old_state:
                    continue
                states[vertex] = new_state
                out_value = new_state
            else:
                states[vertex] = new_state
                out_value = delta
            metrics.vertex_updates += 1
            for target, factor in adjacency(vertex):
                round_activations += 1
                message = spec.combine(out_value, factor)
                if allowed_targets is not None and not allowed_targets(target):
                    continue
                if spec.absorbs(target):
                    continue
                if not spec.is_significant(message):
                    continue
                pending[target] = spec.aggregate(pending.get(target, identity), message)
        metrics.record_round(round_activations, len(snapshot))
        rounds += 1
    return states


def inject(
    spec: AlgorithmSpec,
    pending: Dict[int, float],
    messages: Mapping[int, float],
) -> None:
    """Aggregate ``messages`` into a pending map in place."""
    identity = spec.aggregate_identity()
    for vertex, value in messages.items():
        pending[vertex] = spec.aggregate(pending.get(vertex, identity), value)
