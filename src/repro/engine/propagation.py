"""Delta-accumulative propagation core.

Every engine in the repository — the batch runner, the incremental baselines
and Layph's upper-layer iteration — executes the same round-based propagation
loop defined here, over a *factor adjacency* (vertex -> list of ``(target,
factor)`` pairs); Layph's shortcut solves and local uploads run its lockstep
variant (:func:`repro.parallel.slabs.run_shortcut_solves`).  Using one shared core keeps the edge-activation counts of the
different systems directly comparable, which is what the paper's Figures 1
and 6 measure.

:func:`propagate` runs as the array kernel of
:mod:`repro.engine.dense_propagation`; the reference loop it reproduces bit
for bit lives with the test oracles.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.engine.algorithm import AlgorithmSpec
from repro.engine.dense_propagation import build_propagation_slab, write_back_slab
from repro.engine.metrics import ExecutionMetrics
from repro.parallel.slabs import run_propagation

AdjacencyFn = Callable[[int], Iterable[Tuple[int, float]]]


class NonConvergenceError(RuntimeError):
    """A propagation loop hit its round cap with significant messages left.

    Returning partial results would silently leave stale states behind, so
    the engines raise instead (see :func:`repro.layph.shortcuts.local_uploads`,
    whose kernel call also carries Layph's shortcut solves).
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
    owned: Optional[Iterable[int]] = None,
) -> Dict[int, float]:
    """Run the delta-accumulative loop to convergence.

    Args:
        spec: the algorithm (``F``/``G`` and friends).
        adjacency: a :class:`FactorAdjacency`, a :class:`SilencedAdjacency`
            or an engine's cache-backed view of its graph.
        states: vertex -> current state; mutated in place.
        pending: vertex -> accumulated but not yet applied message; consumed.
        metrics: edge activations and rounds are recorded here if given.
        max_rounds: optional safety bound on the number of supersteps.
        owned: optional vertex set whose states the iteration reads and
            writes.  Layph passes its skeleton, so its upper-layer iteration
            costs O(skeleton) instead of O(V); every link of ``adjacency``
            must then target ``owned`` or a key of ``pending`` (see
            :func:`repro.engine.dense_propagation.build_propagation_slab`).

    Returns:
        The write-back journal: ``{vertex: state before the call}`` for every
        vertex whose state changed (a vertex absent from ``states`` started
        from ``spec.initial_state``), in ascending vertex order.

    The loop is round based: every round processes a snapshot of the vertices
    whose pending message is significant, applies the aggregation ``G`` to
    their state, and scatters ``combine(out_value, factor)`` along their
    out-edges into the pending map of the next round.  Selective algorithms
    propagate their (improved) new state and stay silent when the pending
    message does not improve the state; accumulative algorithms propagate the
    applied delta.  ``spec`` must have passed
    :func:`repro.engine.dense_propagation.require_algebra`.
    """
    if not pending:
        # Nothing to propagate; skip the O(V+E) CSR compile.
        return {}
    slab, ids = build_propagation_slab(spec, adjacency, states, pending, owned)
    started = slab.state.copy()
    if metrics is None:
        metrics = ExecutionMetrics()
    for total, active, updates in run_propagation(slab, max_rounds):
        metrics.vertex_updates += updates
        metrics.record_round(total, active)
    return write_back_slab(slab, ids, states, pending, started)
