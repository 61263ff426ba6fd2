"""Automated shortcut deduction (Section IV-A2, Definition 3).

A shortcut from a boundary vertex ``b`` of a dense subgraph to another vertex
``v`` of the same subgraph carries the aggregation of the path compositions of
edge factors along every path ``b -> ... -> v`` whose *intermediate* vertices
are all internal.  It is computed exactly as the paper prescribes: inject the
algorithm's unit message (the identity of ``combine``) at ``b`` and run the
ordinary ``F``/``G`` iteration inside the subgraph until convergence
(Equation (6)); the aggregated value received by ``v`` is the shortcut weight.

Restricting the propagation so that other boundary vertices absorb (rather
than re-propagate) messages makes the set of shortcuts an exact folding of
the subgraph: on the upper layer, a message travelling between two boundary
vertices of the same subgraph is counted once for every distinct sequence of
boundary vertices it visits, which is what Theorems 1 and 2 need for both the
selective and the accumulative algorithm families.

Under a numpy backend every from-scratch solve of a subgraph runs in one
call of the lockstep multi-source kernel
:func:`repro.parallel.slabs.run_shortcut_solves`
(:func:`compute_shortcut_vectors`); the two-``propagate`` body of
:func:`_propagate_shortcuts` is the Python-backend reference and the
fallback for specs or factors the kernel cannot express.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.engine.algorithm import AlgorithmSpec
from repro.engine.backends import is_numpy_backend
from repro.engine.dense_propagation import (
    AGGREGATE_MIN,
    COMBINE_ADD,
    classify_spec,
    record_propagation_rounds,
)
from repro.engine.metrics import ExecutionMetrics
from repro.engine.propagation import FactorAdjacency, SilencedAdjacency, propagate
from repro.graph.csr import FactorCSR
from repro.graph.csr_cache import master_factor_csr
from repro.parallel.slabs import run_shortcut_solves

#: array arguments of :func:`repro.parallel.slabs.run_shortcut_solves`, in
#: the order the worker pool exports them
SHORTCUT_ARRAYS = (
    "offsets",
    "targets",
    "factors",
    "full_degree",
    "silenced_degree",
    "absorb",
    "source_rows",
    "states_out",
    "first_mask",
    "final_mask",
)


class _NeutralSpec:
    """Thin wrapper: same algorithm, neutral initial values.

    States play the role of "aggregated received messages", so every vertex
    starts from the aggregation identity and no vertex carries a root message
    (Equation (6)).
    """

    def __init__(self, spec: AlgorithmSpec) -> None:
        self._spec = spec
        self._identity = spec.aggregate_identity()

    def __getattr__(self, item):
        return getattr(self._spec, item)

    def initial_state(self, vertex: int) -> float:
        return self._identity

    def initial_message(self, vertex: int) -> float:
        return self._identity


def compute_shortcuts_from(
    spec: AlgorithmSpec,
    local_adjacency: FactorAdjacency,
    source: int,
    boundary: Set[int],
    metrics: Optional[ExecutionMetrics] = None,
    max_rounds: Optional[int] = None,
    backend: Optional[str] = None,
) -> Dict[int, float]:
    """Shortcut weights from one boundary vertex to every reachable vertex.

    Args:
        spec: the algorithm whose ``F``/``G`` define the shortcut semantics.
        local_adjacency: the subgraph's intra-subgraph factor adjacency.
        source: the boundary vertex the shortcuts originate from.
        boundary: all boundary vertices of the subgraph; they accumulate
            messages but do not re-propagate them (internal-only paths).
        metrics: optional activation accounting (shortcut construction and
            maintenance is real work the paper charges to Layph).
        max_rounds: optional safety bound for the local iteration.
        backend: propagation backend (see :mod:`repro.engine.backends`).

    Returns:
        Mapping ``vertex -> shortcut weight``.  The source itself is omitted
        unless the subgraph feeds mass back to it through internal cycles
        (only possible for accumulative algorithms), in which case the entry
        carries only that cyclic surplus, never the injected unit.

    Without a round cap this is the one-source case of
    :func:`compute_shortcut_vectors`.
    """
    if max_rounds is None:
        return compute_shortcut_vectors(
            spec, local_adjacency, [source], boundary, metrics, backend=backend
        )[0]
    return _propagate_shortcuts(
        spec, local_adjacency, source, boundary, metrics, max_rounds, backend
    )


def _propagate_shortcuts(
    spec: AlgorithmSpec,
    local_adjacency: FactorAdjacency,
    source: int,
    boundary: Set[int],
    metrics: Optional[ExecutionMetrics] = None,
    max_rounds: Optional[int] = None,
    backend: Optional[str] = None,
) -> Dict[int, float]:
    """The reference solve: two ``propagate`` calls over silenced views.

    Runs on the Python backend, for a round cap, and whenever the batched
    kernel cannot express the spec or the factors (see
    :func:`prepare_shortcut_solves`).
    """
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
    # Expressing the silencing structurally — instead of through a stateful
    # closure — is what lets the vectorized backend compile both phases.
    states: Dict[int, float] = {}
    pending: Dict[int, float] = {source: unit}
    if max_rounds is not None and max_rounds <= 0:
        return {}
    neutral = _NeutralSpec(spec)
    if spec.is_significant(unit):
        propagate(
            neutral,
            SilencedAdjacency(local_adjacency, boundary - {source}),
            states,
            pending,
            metrics,
            max_rounds=1,
            backend=backend,
        )
        if max_rounds is not None:
            max_rounds -= 1

    propagate(
        neutral,
        SilencedAdjacency(local_adjacency, boundary | {source}),
        states,
        pending,
        metrics,
        max_rounds=max_rounds,
        backend=backend,
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


@dataclass
class ShortcutSolves:
    """One subgraph's from-scratch shortcut solves, compiled to arrays.

    ``arrays`` and ``scalars`` are exactly the arguments of
    :func:`repro.parallel.slabs.run_shortcut_solves` — the serial path calls
    the kernel with them, the pool path exports ``arrays`` to shared memory
    in :data:`SHORTCUT_ARRAYS` order — and :func:`merge_shortcut_solves`
    turns the kernel's output back into shortcut vectors.
    """

    sources: List[int]
    #: vertex id of every local row (the CSR's own list: shortcut keys share
    #: its int objects instead of minting one per table entry)
    ids: List[int]
    arrays: Dict[str, np.ndarray]
    scalars: Dict[str, object]


def prepare_shortcut_solves(
    spec: AlgorithmSpec,
    local_adjacency: FactorAdjacency,
    sources: Sequence[int],
    boundary: Set[int],
) -> Optional[ShortcutSolves]:
    """Compile the from-scratch solves of ``sources`` over one subgraph.

    One local CSR serves every source (the adjacency's memoized master
    compile when the CSR cache is on).  Every boundary vertex and every
    source is silenced after the first round, so several sources can share
    the kernel only when they are all boundary vertices; a single source
    may be internal (the rooted source of a selective algorithm).  Returns
    ``None`` — run :func:`_propagate_shortcuts` per source — when the spec's
    algebra is not a declared dense one or a factor is NaN.
    """
    if len(sources) > 1 and not boundary.issuperset(sources):
        raise ValueError("only boundary vertices can share a shortcut solve")
    kinds = classify_spec(spec)
    if kinds is None:
        return None
    silenced = set(boundary)
    silenced.update(sources)
    csr = master_factor_csr(local_adjacency, silenced)
    if csr is None:
        csr = FactorCSR.from_factor_adjacency(local_adjacency, universe=silenced)
    if np.isnan(csr.factors).any():
        return None
    index = csr.index
    n = csr.num_vertices
    silenced_degree = csr.out_degree.copy()
    silenced_degree[[index[vertex] for vertex in silenced]] = 0
    solves = len(sources)
    selective = kinds[0] == AGGREGATE_MIN
    unit = float(spec.combine_identity())
    return ShortcutSolves(
        sources=list(sources),
        ids=csr.vertex_ids,
        arrays={
            "offsets": csr.offsets,
            "targets": csr.targets,
            "factors": csr.factors,
            "full_degree": csr.out_degree,
            "silenced_degree": silenced_degree,
            "absorb": np.fromiter(
                (bool(spec.absorbs(vertex)) for vertex in csr.vertex_ids),
                dtype=bool,
                count=n,
            ),
            "source_rows": np.fromiter(
                (index[vertex] for vertex in sources), dtype=np.int64, count=solves
            ),
            "states_out": np.empty((solves, n), dtype=np.float64),
            "first_mask": np.zeros((solves, n), dtype=bool),
            "final_mask": np.zeros((solves, n), dtype=bool),
        },
        scalars={
            "run_first": bool(spec.is_significant(unit)),
            "selective": selective,
            "combine_add": kinds[1] == COMBINE_ADD,
            "identity": float(spec.aggregate_identity()),
            "tolerance": 0.0 if selective else float(spec.tolerance()),
            "unit": unit,
        },
    )


def merge_shortcut_solves(
    solves: ShortcutSolves,
    rounds: List[List[Tuple[int, int, int]]],
    states_out: np.ndarray,
    first_mask: np.ndarray,
    final_mask: np.ndarray,
    metrics: ExecutionMetrics,
) -> List[Dict[int, float]]:
    """Shortcut vectors from a finished kernel run, in ``solves.sources`` order.

    Shared by the serial and the pool path.  Per source it replays the
    round triples into ``metrics``, rebuilds the reference's dict insertion
    order — rows touched in round 0 ascending, then the rows touched later
    ascending, which is how the reference's two write-backs insert them —
    and applies the reference's post-filter: the identity / insignificant
    values go, and the source's own entry keeps only the surplus over the
    injected unit (accumulative algorithms; selective ones drop it).
    """
    scalars = solves.scalars
    selective = scalars["selective"]
    identity = scalars["identity"]
    tolerance = scalars["tolerance"]
    unit = scalars["unit"]
    source_rows = solves.arrays["source_rows"]
    ids = solves.ids
    vectors: List[Dict[int, float]] = []
    for position in range(len(solves.sources)):
        record_propagation_rounds(metrics, rounds[position])
        first = first_mask[position]
        order = np.concatenate(
            (np.flatnonzero(first), np.flatnonzero(final_mask[position] & ~first))
        )
        values = states_out[position, order]
        own = order == source_rows[position]
        if selective:
            keep = (values != identity) & ~own
        else:
            values = np.where(own, values - unit, values)
            keep = np.abs(values) > tolerance
        rows = order[keep].tolist()
        vectors.append(dict(zip([ids[row] for row in rows], values[keep].tolist())))
    return vectors


def compute_shortcut_vectors(
    spec: AlgorithmSpec,
    local_adjacency: FactorAdjacency,
    sources: Sequence[int],
    boundary: Set[int],
    metrics: Optional[ExecutionMetrics] = None,
    backend: Optional[str] = None,
) -> List[Dict[int, float]]:
    """From-scratch shortcut vectors of several sources of one subgraph.

    Equal — values, dict order and recorded metrics — to
    :func:`compute_shortcuts_from` per source in ``sources`` order.  Under a
    numpy backend all sources run in one lockstep kernel call
    (:func:`prepare_shortcut_solves`, :func:`merge_shortcut_solves`).
    """
    if metrics is None:
        metrics = ExecutionMetrics()
    if sources and is_numpy_backend(backend):
        solves = prepare_shortcut_solves(spec, local_adjacency, sources, boundary)
        if solves is not None:
            arrays = solves.arrays
            return merge_shortcut_solves(
                solves,
                run_shortcut_solves(**arrays, **solves.scalars),
                arrays["states_out"],
                arrays["first_mask"],
                arrays["final_mask"],
                metrics,
            )
    return [
        _propagate_shortcuts(spec, local_adjacency, source, boundary, metrics, backend=backend)
        for source in sources
    ]


def _fold_propagate(
    spec: AlgorithmSpec,
    local_adjacency: FactorAdjacency,
    source: int,
    boundary: Set[int],
    vector: Dict[int, float],
    pending: Dict[int, float],
    metrics: ExecutionMetrics,
    backend: Optional[str] = None,
) -> Dict[int, float]:
    """Propagate pending messages over a subgraph with boundary absorption.

    Shared by the from-scratch and the incremental shortcut calculations:
    messages spread along intra-subgraph links, boundary vertices (and the
    source) accumulate without re-emitting.
    """
    propagate(
        _NeutralSpec(spec),
        SilencedAdjacency(local_adjacency, boundary | {source}),
        vector,
        pending,
        metrics,
        backend=backend,
    )
    return vector


def update_shortcut_vector(
    spec: AlgorithmSpec,
    old_local: FactorAdjacency,
    new_local: FactorAdjacency,
    source: int,
    boundary: Set[int],
    old_vector: Dict[int, float],
    changed_sources: Set[int],
    metrics: Optional[ExecutionMetrics] = None,
    backend: Optional[str] = None,
) -> Optional[Dict[int, float]]:
    """Incrementally update one boundary vertex's shortcut vector.

    Mirrors the paper's incremental shortcut maintenance (Section IV-B): the
    weights memoized in ``old_vector`` are revised with the messages induced
    by the changed intra-subgraph links instead of being recomputed from
    scratch.

    Returns the updated vector, or ``None`` when an exact cheap update is not
    possible (a selective algorithm losing a supporting link needs the full
    trim machinery; the caller then falls back to recomputation).
    """
    if metrics is None:
        metrics = ExecutionMetrics()
    identity = spec.aggregate_identity()
    unit = spec.combine_identity()

    def emitted_mass(vertex: int) -> float:
        # Mass available at a vertex for onward propagation: the injected unit
        # at the source, the folded mass at an internal vertex, nothing usable
        # at other boundary vertices (they absorb).
        if vertex == source:
            return unit
        if vertex in boundary:
            return identity
        return old_vector.get(vertex, identity)

    pending: Dict[int, float] = {}
    for vertex in changed_sources:
        available = emitted_mass(vertex)
        if available == identity and vertex != source:
            continue
        old_links = dict(old_local(vertex))
        new_links = dict(new_local(vertex))
        for target in set(old_links) | set(new_links):
            old_factor = old_links.get(target)
            new_factor = new_links.get(target)
            if old_factor == new_factor:
                continue
            metrics.edge_activations += 1
            if spec.is_selective():
                if old_factor is not None and (
                    new_factor is None or new_factor > old_factor
                ):
                    # A path may have been lost; only the trim machinery can
                    # tell, so report "cannot update cheaply".
                    supported = old_vector.get(target)
                    offered = spec.combine(available, old_factor)
                    if supported is not None and offered <= supported + 1e-12:
                        return None
                if new_factor is not None:
                    offer = spec.combine(available, new_factor)
                    if spec.is_significant(offer):
                        pending[target] = spec.aggregate(
                            pending.get(target, identity), offer
                        )
            else:
                old_contribution = (
                    spec.combine(available, old_factor) if old_factor is not None else identity
                )
                new_contribution = (
                    spec.combine(available, new_factor) if new_factor is not None else identity
                )
                difference = spec.aggregate(
                    new_contribution, spec.negate(old_contribution)
                )
                if spec.is_significant(difference):
                    pending[target] = spec.aggregate(
                        pending.get(target, identity), difference
                    )

    vector = dict(old_vector)
    if not pending:
        return vector
    _fold_propagate(spec, new_local, source, boundary, vector, pending, metrics, backend=backend)
    if spec.is_selective():
        vector = {v: value for v, value in vector.items() if value != identity}
    else:
        vector = {v: value for v, value in vector.items() if spec.is_significant(value)}
    if spec.is_selective():
        vector.pop(source, None)
    return vector


def compute_all_shortcuts(
    spec: AlgorithmSpec,
    local_adjacency: FactorAdjacency,
    boundary: Set[int],
    metrics: Optional[ExecutionMetrics] = None,
    backend: Optional[str] = None,
) -> Dict[int, Dict[int, float]]:
    """Shortcuts from every boundary vertex of a subgraph.

    Returns ``{boundary_vertex: {target: weight}}``.
    """
    sources = sorted(boundary)
    vectors = compute_shortcut_vectors(
        spec, local_adjacency, sources, boundary, metrics, backend=backend
    )
    return dict(zip(sources, vectors))
