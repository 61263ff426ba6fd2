"""Process-parallel execution of Layph's per-subgraph phases.

Layph's phase-1 shortcut recomputations, phase-2 local uploads and phase-4
shortcut assignments are embarrassingly parallel across subgraphs: a
shortcut solve reads only its own subgraph's local adjacency and writes a
private state vector, an upload reads and writes only its own subgraph's
internal states (boundary vertices are accumulated into a private
``arrived`` map, never revised), and an assignment writes only its own
internal vertices.  The coordinators below exploit that: every subgraph's
work unit is compiled to arrays (the same slabs/CSRs the serial numpy
kernels use), exported to one shared-memory arena, dispatched to the
persistent worker pool under the LPT schedule, and merged back **in the
serial processing order** — per-subgraph results are disjoint, so replaying
the serial order at merge time makes states, metrics and error behaviour
bitwise-identical to the serial numpy path.

All-or-nothing gating: if any subgraph cannot be expressed as arrays (NaN
inputs, undeclared algebra) or the total work is below
``REPRO_PARALLEL_MIN_EDGES``, the coordinator returns ``None`` / ``False``
*before mutating anything* and the engine runs its serial loop.  A
:class:`repro.parallel.executor.WorkerPoolError` degrades the same way —
engine state is only ever touched during the merge, which runs strictly
after the pool round-trip.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.engine.dense_propagation import AGGREGATE_MIN, COMBINE_ADD, classify_spec
from repro.engine.metrics import ExecutionMetrics
from repro.engine.parallel_propagation import parallel_min_edges
from repro.layph.shortcuts import SHORTCUT_ARRAYS, KernelCall, ShortcutBatch
from repro.layph.vectorized import (
    _shortcut_csr,
    build_upload_slab,
    upload_nonconvergence_error,
)
from repro.parallel import shm
from repro.parallel.executor import (
    POOL_STATS,
    WorkerPool,
    WorkerPoolError,
    run_with_respawn,
)


#: slab fields exported to the arena for one upload task, in payload order
_UPLOAD_FIELDS = (
    "offsets",
    "targets",
    "factors",
    "out_degree",
    "state",
    "pending",
    "in_dict",
    "state_touched",
    "absorb",
    "boundary",
    "arrived",
    "arrived_touched",
)


def parallel_local_uploads(
    engine,
    layered,
    per_subgraph: Dict[int, Dict[int, float]],
    work: Dict[int, float],
    metrics: ExecutionMetrics,
    pool: WorkerPool,
    max_rounds: int = 10_000,
) -> Optional[Dict[int, Dict[int, float]]]:
    """Run every pending subgraph's local upload across the pool.

    Returns ``{subgraph index: arrived map}`` in ``per_subgraph`` order, with
    ``work``/``metrics`` already revised exactly as the serial per-subgraph
    loop would have; ``None`` (nothing mutated) tells the engine to run the
    serial loop instead.

    Raises:
        NonConvergenceError: replayed in serial order — every subgraph that
            the serial loop would have finished before the offender is
            merged first, then the offender's completed rounds are recorded
            and the serial loop's exact error raised.
    """
    spec = engine.spec
    slabs: List[Tuple[int, object, list]] = []
    for index, local_pending in per_subgraph.items():
        built = build_upload_slab(spec, layered.subgraphs[index], work, local_pending)
        if built is None:
            return None
        slab, ids = built
        slabs.append((index, slab, ids))
    total_edges = sum(int(slab.targets.size) for _i, slab, _v in slabs)
    if total_edges < parallel_min_edges():
        return None

    arrays = []
    for _index, slab, _ids in slabs:
        arrays.extend(getattr(slab, field) for field in _UPLOAD_FIELDS)
    # One export per attempt: a worker that died mid-upload may have
    # half-mutated the previous arena, so the retry (run_with_respawn) must
    # re-share the pristine slab arrays rather than reuse the old refs.
    holder: Dict[str, object] = {"arena": None}

    def build_tasks():
        if holder["arena"] is not None:
            holder["arena"].close()
            holder["arena"] = None
        arena, refs = shm.share_many(arrays)
        holder["arena"] = arena
        tasks = []
        costs = []
        for position, (_index, slab, _ids) in enumerate(slabs):
            base = position * len(_UPLOAD_FIELDS)
            payload = {
                field: refs[base + offset]
                for offset, field in enumerate(_UPLOAD_FIELDS)
            }
            payload.update(
                allowed=None,
                selective=slab.selective,
                combine_add=slab.combine_add,
                identity=slab.identity,
                tolerance=slab.tolerance,
                max_rounds=max_rounds,
            )
            tasks.append(("upload", payload))
            costs.append(float(slab.targets.size + slab.state.size))
        return tasks, costs

    try:
        try:
            results, _pool = run_with_respawn(pool, build_tasks)
        except shm.ShmUnavailable:
            return None
        except WorkerPoolError:
            return None

        # Merge in the serial processing order (``per_subgraph`` insertion
        # order); per-subgraph writes are disjoint, so this replay is
        # bitwise-identical to running the subgraphs one by one.
        arena = holder["arena"]
        arrived_maps: Dict[int, Dict[int, float]] = {}
        for position, (index, _slab, ids) in enumerate(slabs):
            result = results[position]
            for total, active, _updates in result["rounds"]:
                metrics.record_round(total, active)
            if result["remaining"]:
                raise upload_nonconvergence_error(
                    index, spec.name, max_rounds, result["remaining"]
                )
            base = position * len(_UPLOAD_FIELDS)
            state = arena.view(base + _UPLOAD_FIELDS.index("state"))
            state_touched = arena.view(base + _UPLOAD_FIELDS.index("state_touched"))
            arrived = arena.view(base + _UPLOAD_FIELDS.index("arrived"))
            arrived_touched = arena.view(
                base + _UPLOAD_FIELDS.index("arrived_touched")
            )
            for row in np.nonzero(state_touched)[0]:
                work[ids[row]] = float(state[row])
            arrived_maps[index] = {
                ids[row]: float(arrived[row])
                for row in np.nonzero(arrived_touched)[0]
            }
        return arrived_maps
    finally:
        if holder["arena"] is not None:
            holder["arena"].close()


def parallel_shortcuts(
    spec,
    layered,
    deferred: List[Tuple[int, int]],
    metrics: ExecutionMetrics,
    pool: WorkerPool,
) -> Optional[List[Dict[int, float]]]:
    """Batch-solve deferred shortcut recomputations across the pool.

    ``deferred`` is the rebuild pass's ``(subgraph index, boundary vertex)``
    list (see :meth:`repro.layph.layered_graph.LayeredGraph.
    rebuild_subgraphs`); each rebuilt subgraph's solves form one
    LPT-scheduled ``"shortcuts"`` task running the lockstep kernel
    :func:`repro.parallel.slabs.run_shortcut_solves` on the arrays a
    one-subgraph :class:`repro.layph.shortcuts.ShortcutBatch` compiles — the
    same kernel and the same merge as the serial path, so the vectors are
    bitwise the serial ones.  Returns the shortcut vectors in ``deferred``
    order with ``metrics`` replayed exactly as the serial solves would have
    recorded them; ``None`` (nothing mutated) tells the caller to run the
    serial solves.
    """
    order: List[int] = []
    groups: Dict[int, List[int]] = {}
    for index, vertex in deferred:
        if index not in groups:
            groups[index] = []
            order.append(index)
        groups[index].append(vertex)

    vectors: Dict[Tuple[int, int], Dict[int, float]] = {}
    units: List[Tuple[ShortcutBatch, KernelCall]] = []
    total_edges = 0
    for index in order:
        subgraph = layered.subgraphs[index]
        batch = ShortcutBatch(spec, "numpy")
        block = batch.block(index, subgraph.local_adjacency, subgraph.boundary)
        for vertex in groups[index]:
            batch.solve(block, vertex, vectors, key=(index, vertex))
        call = batch.prepare()
        if call is None:
            return None
        units.append((batch, call))
        total_edges += int(call.arrays["targets"].size) * len(call.jobs)
    if total_edges < parallel_min_edges():
        return None

    flat: List[np.ndarray] = []
    for _batch, call in units:
        flat.extend(call.arrays[field] for field in SHORTCUT_ARRAYS)
    # As in the other phases, each retry attempt re-exports the pristine
    # arrays into a fresh arena (a dead worker may have half-written the
    # previous one's output regions).
    holder: Dict[str, object] = {"arena": None}

    def build_tasks():
        if holder["arena"] is not None:
            holder["arena"].close()
            holder["arena"] = None
        arena, refs = shm.share_many(flat)
        holder["arena"] = arena
        tasks = []
        costs = []
        for position, (_batch, call) in enumerate(units):
            base = position * len(SHORTCUT_ARRAYS)
            payload = {
                field: refs[base + offset]
                for offset, field in enumerate(SHORTCUT_ARRAYS)
            }
            payload.update(call.scalars)
            tasks.append(("shortcuts", payload))
            costs.append(
                float(call.arrays["targets"].size * len(call.jobs) + call.arrays["states"].size)
            )
        return tasks, costs

    try:
        try:
            results, _pool = run_with_respawn(pool, build_tasks)
        except shm.ShmUnavailable:
            return None
        except WorkerPoolError:
            return None

        POOL_STATS.shortcut_batches += 1
        arena = holder["arena"]
        for position, (batch, call) in enumerate(units):
            base = position * len(SHORTCUT_ARRAYS)
            states, first_mask, final_mask = (
                arena.view(base + SHORTCUT_ARRAYS.index(field))
                for field in ("states", "first_mask", "final_mask")
            )
            batch.merge(call, results[position], states, first_mask, final_mask, metrics)
        return [vectors[entry] for entry in deferred]
    finally:
        if holder["arena"] is not None:
            holder["arena"].close()


def parallel_assign(
    engine,
    indices: List[int],
    deltas: Dict[int, float],
    work: Dict[int, float],
    metrics: ExecutionMetrics,
    new_graph,
    source: Optional[int],
    pool: WorkerPool,
) -> bool:
    """Run phase 4's shortcut assignments for ``indices`` across the pool.

    ``indices`` must already be the serial processing order (ascending) with
    empty-internal subgraphs dropped.  Returns ``True`` with ``work`` and
    ``metrics`` revised exactly like the serial loop, ``False`` (nothing
    mutated) for the serial fallback.
    """
    spec = engine.spec
    kinds = classify_spec(spec)
    if kinds is None:
        return False
    selective = kinds[0] == AGGREGATE_MIN
    combine_add = kinds[1] == COMBINE_ADD
    layered = engine._require_layered()
    identity = spec.aggregate_identity()

    units = []  # (index, csr, per-kind prepared arrays)
    for index in indices:
        subgraph = layered.subgraphs[index]
        csr = _shortcut_csr(subgraph)
        if np.isnan(csr.factors).any():
            return False
        if selective:
            source_values = np.fromiter(
                (work.get(vertex, identity) for vertex in csr.boundary_ids),
                np.float64,
                count=len(csr.boundary_ids),
            )
            if np.isnan(source_values).any():
                return False
            best = np.fromiter(
                (spec.initial_message(vertex) for vertex in csr.internal_ids),
                np.float64,
                count=len(csr.internal_ids),
            )
            units.append((index, subgraph, csr, source_values, best))
        else:
            boundary_deltas = np.zeros(len(csr.boundary_ids), dtype=np.float64)
            live_mask = np.zeros(len(csr.boundary_ids), dtype=bool)
            for position, vertex in enumerate(csr.boundary_ids):
                difference = deltas.get(vertex)
                if difference is None or not spec.is_significant(difference):
                    continue
                if np.isnan(difference):
                    return False
                boundary_deltas[position] = difference
                live_mask[position] = True
            values = np.fromiter(
                (
                    work[vertex]
                    if vertex in work
                    else float(spec.initial_state(vertex))
                    for vertex in csr.internal_ids
                ),
                np.float64,
                count=len(csr.internal_ids),
            )
            if np.isnan(values).any():
                return False
            allowed = np.fromiter(
                (
                    not spec.absorbs(vertex) and new_graph.has_vertex(vertex)
                    for vertex in csr.internal_ids
                ),
                bool,
                count=len(csr.internal_ids),
            )
            units.append(
                (index, subgraph, csr, boundary_deltas, live_mask, values, allowed)
            )
    total_edges = sum(int(unit[2].targets.size) for unit in units)
    if total_edges < parallel_min_edges():
        return False

    # The mutated array (``best`` / ``values``) must be shared; the CSR
    # block rides along in the same arena (one segment per phase).  As in
    # the upload phase, each retry attempt re-exports the pristine source
    # arrays into a fresh arena (see ``run_with_respawn``).
    arrays = []
    for unit in units:
        csr = unit[2]
        arrays.extend((csr.offsets, csr.counts, csr.targets, csr.factors))
        arrays.append(unit[4] if selective else unit[5])  # best / values
    holder: Dict[str, object] = {"arena": None}

    def build_tasks():
        if holder["arena"] is not None:
            holder["arena"].close()
            holder["arena"] = None
        arena, refs = shm.share_many(arrays)
        holder["arena"] = arena
        tasks = []
        costs = []
        for position, unit in enumerate(units):
            base = position * 5
            csr_refs = dict(
                offsets=refs[base],
                counts=refs[base + 1],
                targets=refs[base + 2],
                factors=refs[base + 3],
            )
            if selective:
                payload = dict(
                    csr_refs,
                    source_values=unit[3],
                    best=refs[base + 4],
                    identity=identity,
                    combine_add=combine_add,
                )
                tasks.append(("assign_best", payload))
            else:
                payload = dict(
                    csr_refs,
                    source_deltas=unit[3],
                    live=unit[4],
                    values=refs[base + 4],
                    allowed=unit[6],
                    combine_add=combine_add,
                )
                tasks.append(("assign_deltas", payload))
            costs.append(float(unit[2].targets.size + 1))
        return tasks, costs

    try:
        try:
            results, _pool = run_with_respawn(pool, build_tasks)
        except shm.ShmUnavailable:
            return False
        except WorkerPoolError:
            return False

        arena = holder["arena"]
        for position, unit in enumerate(units):
            index, subgraph, csr = unit[0], unit[1], unit[2]
            mutated = arena.view(position * 5 + 4)
            if selective:
                metrics.edge_activations += int(results[position])
                best_map = dict(zip(csr.internal_ids, mutated.tolist()))
                engine._finish_selective_assign(
                    subgraph, best_map, work, new_graph, source
                )
            else:
                result = results[position]
                metrics.edge_activations += int(result["applied"])
                for row in np.nonzero(result["touched"])[0]:
                    work[csr.internal_ids[row]] = float(mutated[row])
        return True
    finally:
        if holder["arena"] is not None:
            holder["arena"].close()
