"""The reference loops: one Python loop per array kernel of the library.

Each function here is the dict-and-loop definition of what an array kernel
computes; the kernel must match it bit for bit — states, round counts,
per-round edge activations, and dict key order where a library consumer
reads it (a shortcut row has none).  They run specs through the public
operators (``aggregate``, ``combine``, ``is_significant``, ``negate``) one
value at a time, which is what makes them the semantics rather than a
second optimisation.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set

from repro.engine.metrics import ExecutionMetrics
from repro.engine.propagation import NonConvergenceError, SilencedAdjacency
from repro.incremental.revision import changed_out_sources, propagated_mass
from repro.layph.shortcuts import closed_form_solves


def propagate(
    spec,
    adjacency,
    states: Dict[int, float],
    pending: Dict[int, float],
    metrics: Optional[ExecutionMetrics] = None,
    max_rounds: Optional[int] = None,
    owned: Optional[Iterable[int]] = None,
) -> Dict[int, float]:
    """The delta-accumulative loop of :func:`repro.engine.propagation.propagate`.

    ``adjacency`` is any callable vertex -> ``(target, factor)`` pairs.  The
    loop reads states on demand, so ``owned`` (the kernel's bound on the
    states it materialises) changes nothing here.  Returns the write-back
    journal: the state each changed vertex started from, by vertex.
    """
    if metrics is None:
        metrics = ExecutionMetrics()
    identity = spec.aggregate_identity()
    selective = spec.is_selective()
    rounds = 0
    started: Dict[int, float] = {}

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
            started.setdefault(vertex, old_state)
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
                if spec.absorbs(target):
                    continue
                if not spec.is_significant(message):
                    continue
                pending[target] = spec.aggregate(pending.get(target, identity), message)
        metrics.record_round(round_activations, len(snapshot))
        rounds += 1
    return {
        vertex: before
        for vertex, before in sorted(started.items())
        if states.get(vertex, before) != before
    }


def local_upload(
    spec,
    adjacency,
    boundary,
    label,
    work: Dict[int, float],
    local_pending: Dict[int, float],
    metrics: ExecutionMetrics,
) -> Dict[int, float]:
    """One subgraph's upload (one job of ``repro.layph.shortcuts.local_uploads``):
    internal vertices revise and scatter, boundary vertices accumulate the
    arrived messages without re-propagating."""
    identity = spec.aggregate_identity()
    pending = dict(local_pending)
    arrived: Dict[int, float] = {}
    rounds = 0
    max_rounds = 10_000
    while pending:
        active = sorted(
            vertex for vertex, message in pending.items() if spec.is_significant(message)
        )
        if not active:
            break
        if rounds >= max_rounds:
            raise NonConvergenceError(
                f"local revision-message upload in subgraph {label} "
                f"did not converge within {max_rounds} rounds for "
                f"{spec.name!r}; {len(active)} significant pending "
                "messages remain"
            )
        snapshot = {vertex: pending.pop(vertex) for vertex in active}
        activations = 0
        for vertex, message in snapshot.items():
            if vertex in boundary:
                # Boundary vertices accumulate but never re-propagate here;
                # their own revision happens on the upper layer.
                arrived[vertex] = spec.aggregate(arrived.get(vertex, identity), message)
                continue
            old_state = work.get(vertex, spec.initial_state(vertex))
            new_state = spec.aggregate(old_state, message)
            if spec.is_selective() and new_state == old_state:
                continue
            work[vertex] = new_state
            out_value = new_state if spec.is_selective() else message
            for target, factor in adjacency(vertex):
                activations += 1
                produced = spec.combine(out_value, factor)
                if spec.absorbs(target) or not spec.is_significant(produced):
                    continue
                pending[target] = spec.aggregate(pending.get(target, identity), produced)
        metrics.record_round(activations, len(snapshot))
        rounds += 1
    return arrived


# ----------------------------------------------------------------------
# shortcuts (repro.layph.shortcuts.ShortcutBatch)
# ----------------------------------------------------------------------
class NeutralSpec:
    """Thin wrapper: same algorithm, neutral initial values.

    States play the role of "aggregated received messages", so every vertex
    starts from the aggregation identity and no vertex carries a root message
    (Equation (6)).
    """

    def __init__(self, spec) -> None:
        self._spec = spec
        self._identity = spec.aggregate_identity()

    def __getattr__(self, item):
        return getattr(self._spec, item)

    def initial_state(self, vertex: int) -> float:
        return self._identity

    def initial_message(self, vertex: int) -> float:
        return self._identity


def propagate_shortcuts(
    spec,
    local_adjacency,
    source: int,
    boundary: Set[int],
    metrics: Optional[ExecutionMetrics] = None,
    max_rounds: Optional[int] = None,
    propagate_with=propagate,
) -> Dict[int, float]:
    """One from-scratch shortcut vector: two ``propagate_with`` calls over
    silenced views of the subgraph's local adjacency.

    With the library's kernel as ``propagate_with`` the vector's key order
    is the one the batched shortcut kernel reproduces (rows touched in round
    0 first, then the rest ascending) rather than the loop's first-touch
    order."""
    if metrics is None:
        metrics = ExecutionMetrics()
    unit = spec.combine_identity()
    identity = spec.aggregate_identity()

    # Boundary vertices must not re-propagate (paths fold over internal
    # intermediates only); the source scatters exactly once, for the injected
    # unit message — mass returning to it through internal cycles is recorded
    # in its own shortcut entry but not re-emitted, otherwise the cycle would
    # be double counted when the upper layer applies the self-shortcut.  The
    # one-shot emission is exactly the first superstep (the source is the
    # only pending vertex), run as a single round with the source un-silenced;
    # every following superstep silences it like any other boundary vertex.
    states: Dict[int, float] = {}
    pending: Dict[int, float] = {source: unit}
    if max_rounds is not None and max_rounds <= 0:
        return {}
    neutral = NeutralSpec(spec)
    if spec.is_significant(unit):
        propagate_with(
            neutral,
            SilencedAdjacency(local_adjacency, boundary - {source}),
            states,
            pending,
            metrics,
            max_rounds=1,
        )
        if max_rounds is not None:
            max_rounds -= 1

    propagate_with(
        neutral,
        SilencedAdjacency(local_adjacency, boundary | {source}),
        states,
        pending,
        metrics,
        max_rounds=max_rounds,
    )

    shortcuts: Dict[int, float] = {}
    for vertex, value in states.items():
        if vertex == source:
            # Remove the injected unit: the shortcut b -> b must only carry
            # mass returned through internal cycles, not the empty path.
            if spec.is_selective():
                continue
            surplus = value - unit
            if spec.is_significant(surplus):
                shortcuts[vertex] = surplus
            continue
        if spec.is_selective():
            if value != identity:
                shortcuts[vertex] = value
        else:
            if spec.is_significant(value):
                shortcuts[vertex] = value
    return shortcuts


def revise_shortcuts(
    spec,
    local_adjacency,
    source: int,
    boundary: Set[int],
    old_vector: Dict[int, float],
    pending: Dict[int, float],
    metrics: ExecutionMetrics,
    propagate_with=propagate,
) -> Dict[int, float]:
    """Fold ``pending`` into a copy of a min/+ ``old_vector`` over the
    subgraph (boundary vertices and the source absorb) and post-filter it."""
    vector = dict(old_vector)
    propagate_with(
        NeutralSpec(spec),
        SilencedAdjacency(local_adjacency, boundary | {source}),
        vector,
        dict(pending),
        metrics,
    )
    identity = spec.aggregate_identity()
    vector = {v: value for v, value in vector.items() if value != identity}
    vector.pop(source, None)
    return vector


def run_shortcut_batch(batch, metrics: ExecutionMetrics, per_round: bool = True) -> None:
    """``ShortcutBatch.run`` with every kernel job on the reference bodies:
    the tables are filled from the vectors, the uploads run one by one.
    The blocks the library solves in closed form
    (:func:`repro.layph.shortcuts.closed_form_solves`, which has no loop to
    reproduce) take that same call; :func:`propagate_shortcuts` is its
    reference up to the iteration's tolerance.

    ``per_round=False`` adds the same totals a per-round replay would.
    """
    spec = batch.spec
    target = metrics if per_round else ExecutionMetrics()
    blocks = [block for block in batch._blocks if block.jobs]
    for block in blocks:
        block.compile(spec)
    solved = [block for block in blocks if block.closed_form(spec)]
    if solved:
        closed_form_solves(spec, solved, target)
    for block in batch._blocks:
        if block in solved:
            continue
        vectors = {}
        for job in block.jobs:
            if job.upload:
                block.arrived = local_upload(
                    spec, block.local_adjacency, block.boundary, block.label,
                    job.work, job.pending, target,
                )
            elif job.solve:
                vectors[job.source] = propagate_shortcuts(
                    spec, block.local_adjacency, job.source, block.boundary, target
                )
            else:
                vectors[job.source] = revise_shortcuts(
                    spec,
                    block.local_adjacency,
                    job.source,
                    block.boundary,
                    block.old.vector(job.source),
                    job.pending,
                    target,
                )
        if block.table is not None:
            for source in block.table.sources:
                if source not in vectors:
                    vectors[source] = block.old.vector(source)
            block.table.fill_vectors(vectors)
    if not per_round:
        metrics.edge_activations += target.edge_activations
        metrics.vertex_updates += target.vertex_updates
        metrics.iterations += target.iterations
        metrics.dense_multiply_adds += target.dense_multiply_adds


# ----------------------------------------------------------------------
# revision messages (repro.incremental.revision)
# ----------------------------------------------------------------------
def out_factor_map(spec, graph, vertex: int) -> Dict[int, float]:
    """Map target -> edge factor for every out-edge of ``vertex``."""
    if not graph.has_vertex(vertex):
        return {}
    return {
        target: spec.edge_factor(graph, vertex, target)
        for target in graph.out_neighbors(vertex)
    }


def accumulative_revision_messages(
    spec,
    old_graph,
    new_graph,
    states: Dict[int, float],
    old_csr=None,
    new_csr=None,
    candidates=None,
    changed=None,
    added_vertices=None,
    removed_vertices=None,
):
    """The dict deduction of
    :func:`repro.incremental.revision.accumulative_revision_messages` (the
    CSR snapshots are accepted and ignored)."""
    if spec.is_selective():
        raise ValueError(
            "revision messages via inversion require an accumulative algorithm; "
            "use dependency-based maintenance for selective algorithms"
        )
    identity = spec.aggregate_identity()
    if added_vertices is None or removed_vertices is None:
        old_vertices = set(old_graph.vertices())
        new_vertices_set = set(new_graph.vertices())
        added_vertices = new_vertices_set - old_vertices
        removed_vertices = old_vertices - new_vertices_set
    if changed is None:
        changed = changed_out_sources(old_graph, new_graph, candidates)
    sources = [vertex for vertex in changed if vertex not in added_vertices]
    pending: Dict[int, float] = {}

    def push(target: int, value: float) -> None:
        if target in removed_vertices:
            return
        if spec.absorbs(target):
            return
        pending[target] = spec.aggregate(pending.get(target, identity), value)

    for vertex in sources:
        mass = propagated_mass(spec, states, vertex)
        old_factors = out_factor_map(spec, old_graph, vertex)
        new_factors = (
            out_factor_map(spec, new_graph, vertex) if vertex not in removed_vertices else {}
        )
        # Old-row targets first (adjacency order), then new-only targets
        # (new adjacency order) — the order the CSR rows materialise.
        ordered_targets = list(old_factors)
        ordered_targets += [t for t in new_factors if t not in old_factors]
        for target in ordered_targets:
            old_contribution = (
                spec.combine(mass, old_factors[target]) if target in old_factors else identity
            )
            new_contribution = (
                spec.combine(mass, new_factors[target]) if target in new_factors else identity
            )
            difference = spec.aggregate(new_contribution, spec.negate(old_contribution))
            if spec.is_significant(difference):
                push(target, difference)

    # Root messages of newly added vertices.
    for vertex in sorted(added_vertices):
        root = spec.initial_message(vertex)
        if spec.is_significant(root):
            pending[vertex] = spec.aggregate(pending.get(vertex, identity), root)
    return pending, added_vertices, removed_vertices
