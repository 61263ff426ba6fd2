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

Under a numpy backend the shortcut work runs in the lockstep kernel
:func:`repro.parallel.slabs.run_shortcut_solves`, driven by
:class:`ShortcutBatch`: one call holds the from-scratch solves and the
incremental revisions of any number of subgraphs (all of one delta's, or
one subgraph's at build time).  The two-``propagate`` bodies of
:func:`_propagate_shortcuts` and :func:`_fold_propagate` are the
Python-backend reference and the fallback for specs or inputs the kernel
cannot express.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.engine.algorithm import AlgorithmSpec
from repro.engine.backends import is_numpy_backend
from repro.engine.dense_propagation import AGGREGATE_MIN, COMBINE_ADD, classify_spec
from repro.engine.metrics import ExecutionMetrics
from repro.engine.propagation import FactorAdjacency, SilencedAdjacency, propagate
from repro.graph.csr import FactorCSR
from repro.graph.csr_cache import master_factor_csr
from repro.parallel.slabs import run_shortcut_solves

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
    :class:`ShortcutBatch`).
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


class _Block:
    """One subgraph's local adjacency, a diagonal block of a kernel call."""

    __slots__ = ("local_adjacency", "boundary", "jobs")

    def __init__(self, local_adjacency: FactorAdjacency, boundary: Set[int]) -> None:
        self.local_adjacency = local_adjacency
        #: the boundary the reference silences (internal sources excluded)
        self.boundary = boundary
        self.jobs: List["_Job"] = []


class _Job:
    """One shortcut vector to produce: a solve, or a revision of
    ``old_vector`` by the revision messages ``pending``; the result is
    stored as ``table[key]``."""

    __slots__ = ("block", "source", "old_vector", "pending", "table", "key")

    def __init__(self, block, source, old_vector, pending, table, key) -> None:
        self.block = block
        self.source = source
        self.old_vector = old_vector
        self.pending = pending
        self.table = table
        self.key = key

    @property
    def solve(self) -> bool:
        return self.old_vector is None


@dataclass
class KernelCall:
    """A :class:`ShortcutBatch` compiled to the arguments of
    :func:`repro.parallel.slabs.run_shortcut_solves`.

    ``arrays`` and ``scalars`` are exactly the kernel's arguments, and
    :meth:`ShortcutBatch.merge` turns the kernel's output back into vectors.
    """

    jobs: List[_Job]
    #: per job: vertex id of every local row (the CSR's own list: shortcut
    #: keys share its int objects instead of minting one per table entry)
    ids: List[List[int]]
    #: per job: first cell, number of cells, local row of the source
    starts: List[int]
    sizes: List[int]
    source_rows: List[int]
    arrays: Dict[str, np.ndarray]
    scalars: Dict[str, object]
    unit: float


class ShortcutBatch:
    """Shortcut solves and revisions of one or more subgraphs, run as one
    call of the lockstep kernel :func:`repro.parallel.slabs.run_shortcut_solves`.

    Callers open one block per subgraph (:meth:`block`), queue its jobs —
    :meth:`solve` for a from-scratch vector, :meth:`revise` for an
    incremental revision of an old vector by its revision messages
    (:func:`shortcut_revision`) — and :meth:`run` the batch once.  The
    kernel sees the blocks' local CSRs as one block-diagonal CSR and every
    job owns only its own block's cells, so a call costs O(Σ job cells),
    never a ``(jobs × Σ rows)`` matrix.  Every vector is bitwise the one
    the reference bodies produce on the numpy backend — values, dict key
    order and recorded work.

    Jobs the kernel cannot express run the reference bodies instead
    (:func:`_propagate_shortcuts`, :func:`_fold_propagate`): every job on a
    non-numpy backend or for an undeclared algebra, a block whose factors
    carry NaN, a revision whose old vector or messages carry NaN.
    """

    def __init__(self, spec: AlgorithmSpec, backend: Optional[str] = None) -> None:
        self.spec = spec
        self.backend = backend
        self._kinds = classify_spec(spec) if is_numpy_backend(backend) else None
        self._blocks: List[_Block] = []

    def block(self, local_adjacency: FactorAdjacency, boundary: Set[int]) -> _Block:
        """Open the block of one subgraph."""
        block = _Block(local_adjacency, boundary)
        self._blocks.append(block)
        return block

    def solve(self, block: _Block, source: int, table: dict, key=None) -> None:
        """Queue the from-scratch vector of ``source`` into ``table[key]``
        (``key`` defaults to ``source``)."""
        block.jobs.append(_Job(block, source, None, None, table, source if key is None else key))

    def revise(
        self,
        block: _Block,
        source: int,
        old_vector: Dict[int, float],
        pending: Dict[int, float],
        table: dict,
        key=None,
    ) -> None:
        """Queue the revision of ``old_vector`` by ``pending`` into ``table[key]``."""
        block.jobs.append(
            _Job(block, source, old_vector, pending, table, source if key is None else key)
        )

    def run(self, metrics: ExecutionMetrics, per_round: bool = True) -> None:
        """Produce every queued vector; ``metrics`` receives the work.

        Jobs that need a reference body run first, then the kernel call.
        With ``per_round`` each kernel job's rounds are replayed into
        ``metrics`` in job order, exactly as one reference body per vector
        records them; without it only the totals (activations, vertex
        updates, rounds) are added.
        """
        call, reference = self._compile()
        for job in reference:
            self._run_reference(job, metrics)
        if call is not None:
            arrays = call.arrays
            record = run_shortcut_solves(**arrays, **call.scalars)
            self.merge(
                call,
                record,
                arrays["states"],
                arrays["first_mask"],
                arrays["final_mask"],
                metrics,
                per_round,
            )

    def prepare(self) -> Optional[KernelCall]:
        """The whole batch as one kernel call; ``None`` when some job needs
        a reference body."""
        call, reference = self._compile()
        return None if reference or call is None else call

    # ------------------------------------------------------------------
    def _compile(self) -> Tuple[Optional[KernelCall], List[_Job]]:
        """Split the queued jobs into one kernel call and the reference rest."""
        spec = self.spec
        kinds = self._kinds
        reference: List[_Job] = []
        compiled = []  # (csr, silenced degree, jobs)
        for block in self._blocks:
            if not block.jobs:
                continue
            csr = None if kinds is None else self._block_csr(block)
            if csr is None:
                reference.extend(block.jobs)
                continue
            jobs = []
            for job in block.jobs:
                if job.solve or self._revision_fits(job, csr.index):
                    jobs.append(job)
                else:
                    reference.append(job)
            if jobs:
                silenced_degree = csr.out_degree.copy()
                silenced_degree[[csr.index[vertex] for vertex in self._silenced(block)]] = 0
                compiled.append((csr, silenced_degree, jobs))
        if not compiled:
            return None, reference

        selective = kinds[0] == AGGREGATE_MIN
        identity = float(spec.aggregate_identity())
        unit = float(spec.combine_identity())
        offsets, targets, factors, full_degree, silenced, absorb = [], [], [], [], [], []
        jobs: List[_Job] = []
        # per job: its block's row ids, id -> row map and first global row
        ids: List[List[int]] = []
        indexes: List[Dict[int, int]] = []
        job_rows: List[int] = []
        row_base = slot_base = 0
        for csr, silenced_degree, block_jobs in compiled:
            offsets.append(csr.offsets[:-1] + slot_base)
            targets.append(csr.targets + row_base)
            factors.append(csr.factors)
            full_degree.append(csr.out_degree)
            silenced.append(silenced_degree)
            absorb.append(
                np.fromiter(
                    (bool(spec.absorbs(vertex)) for vertex in csr.vertex_ids),
                    dtype=bool,
                    count=csr.num_vertices,
                )
            )
            jobs.extend(block_jobs)
            ids.extend([csr.vertex_ids] * len(block_jobs))
            indexes.extend([csr.index] * len(block_jobs))
            job_rows.extend([row_base] * len(block_jobs))
            row_base += csr.num_vertices
            slot_base += int(csr.targets.size)

        sizes = [len(job_ids) for job_ids in ids]
        starts = np.zeros(len(jobs), dtype=np.int64)
        np.cumsum(sizes[:-1], out=starts[1:])
        cells = int(starts[-1]) + sizes[-1]
        states = np.full(cells, identity, dtype=np.float64)
        pending = np.full(cells, identity, dtype=np.float64)
        in_dict = np.zeros(cells, dtype=bool)
        source_rows: List[int] = []
        state_cells: List[int] = []
        state_values: List[float] = []
        pending_cells: List[int] = []
        pending_values: List[float] = []
        for job, index, start in zip(jobs, indexes, starts.tolist()):
            source_rows.append(index[job.source])
            if job.solve:
                pending_cells.append(start + index[job.source])
                pending_values.append(unit)
                continue
            for vertex, value in job.old_vector.items():
                row = index.get(vertex)
                if row is not None:
                    state_cells.append(start + row)
                    state_values.append(value)
            for vertex, value in job.pending.items():
                pending_cells.append(start + index[vertex])
                pending_values.append(value)
        states[state_cells] = state_values
        pending[pending_cells] = pending_values
        in_dict[pending_cells] = True
        arrays = {
            "offsets": np.concatenate(offsets),
            "targets": np.concatenate(targets),
            "factors": np.concatenate(factors),
            "full_degree": np.concatenate(full_degree),
            "silenced_degree": np.concatenate(silenced),
            "absorb": np.concatenate(absorb),
            "cell_job": np.repeat(np.arange(len(jobs), dtype=np.int64), sizes),
            "job_shift": starts - np.asarray(job_rows, dtype=np.int64),
            "job_solves": np.fromiter((job.solve for job in jobs), dtype=bool, count=len(jobs)),
            "states": states,
            "pending": pending,
            "in_dict": in_dict,
            "first_mask": np.zeros(cells, dtype=bool),
            "final_mask": np.zeros(cells, dtype=bool),
        }
        scalars = {
            "run_first": bool(spec.is_significant(unit)),
            "selective": selective,
            "combine_add": kinds[1] == COMBINE_ADD,
            "identity": identity,
            "tolerance": 0.0 if selective else float(spec.tolerance()),
        }
        call = KernelCall(
            jobs=jobs,
            ids=ids,
            starts=starts.tolist(),
            sizes=sizes,
            source_rows=source_rows,
            arrays=arrays,
            scalars=scalars,
            unit=unit,
        )
        return call, reference

    @staticmethod
    def _silenced(block: _Block) -> Set[int]:
        """Rows with no out-links after round 0: the boundary and the sources."""
        silenced = set(block.boundary)
        silenced.update(job.source for job in block.jobs)
        return silenced

    def _block_csr(self, block: _Block) -> Optional[FactorCSR]:
        """The block's local CSR, or ``None`` when a factor is NaN."""
        silenced = self._silenced(block)
        csr = master_factor_csr(block.local_adjacency, silenced)
        if csr is None:
            csr = FactorCSR.from_factor_adjacency(block.local_adjacency, universe=silenced)
        if np.isnan(csr.factors).any():
            return None
        return csr

    @staticmethod
    def _revision_fits(job: _Job, index: Dict[int, int]) -> bool:
        """Whether the kernel reproduces this revision: no NaN among its
        inputs, every message aimed at a row of the block."""
        values = np.fromiter(job.old_vector.values(), np.float64, count=len(job.old_vector))
        messages = np.fromiter(job.pending.values(), np.float64, count=len(job.pending))
        if np.isnan(values).any() or np.isnan(messages).any():
            return False
        return all(vertex in index for vertex in job.pending)

    def _run_reference(self, job: _Job, metrics: ExecutionMetrics) -> None:
        block = job.block
        if job.solve:
            vector = _propagate_shortcuts(
                self.spec,
                block.local_adjacency,
                job.source,
                block.boundary,
                metrics,
                backend=self.backend,
            )
        else:
            vector = _revise_reference(
                self.spec,
                block.local_adjacency,
                job.source,
                block.boundary,
                job.old_vector,
                job.pending,
                metrics,
                self.backend,
            )
        job.table[job.key] = vector

    def merge(
        self,
        call: KernelCall,
        record: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        states: np.ndarray,
        first_mask: np.ndarray,
        final_mask: np.ndarray,
        metrics: ExecutionMetrics,
        per_round: bool = True,
    ) -> None:
        """Store a finished kernel call's vectors and record its work.

        A solve rebuilds the reference's dict insertion order — rows
        touched in round 0 ascending, then the rows touched later ascending,
        which is how the reference's two write-backs insert them — and drops
        the identity / insignificant values; its source's own entry keeps
        only the surplus over the injected unit (accumulative algorithms;
        selective ones drop it).  A revision updates the old vector's keys
        in place and appends the newly touched rows ascending, as the
        reference's write-back does, then applies the reference's
        post-filter.
        """
        round_job, activations, active, updates = record
        if per_round:
            order = np.argsort(round_job, kind="stable")
            for total, count, updated in zip(
                activations[order].tolist(), active[order].tolist(), updates[order].tolist()
            ):
                metrics.vertex_updates += updated
                metrics.record_round(total, count)
        else:
            metrics.edge_activations += int(activations.sum())
            metrics.vertex_updates += int(updates.sum())
            metrics.iterations += int(round_job.size)

        scalars = call.scalars
        selective = scalars["selective"]
        identity = scalars["identity"]
        tolerance = scalars["tolerance"]
        unit = call.unit
        for job, ids, start, size, source_row in zip(
            call.jobs, call.ids, call.starts, call.sizes, call.source_rows
        ):
            end = start + size
            final = final_mask[start:end]
            if job.solve:
                first = first_mask[start:end]
                order = np.concatenate((np.flatnonzero(first), np.flatnonzero(final & ~first)))
                values = states[start + order]
                own = order == source_row
                if selective:
                    keep = (values != identity) & ~own
                else:
                    values = np.where(own, values - unit, values)
                    keep = np.abs(values) > tolerance
                rows = order[keep].tolist()
                job.table[job.key] = dict(zip([ids[row] for row in rows], values[keep].tolist()))
                continue
            rows = np.flatnonzero(final)
            vector = dict(job.old_vector)
            vector.update(zip([ids[row] for row in rows.tolist()], states[start + rows].tolist()))
            if selective:
                vector = {v: value for v, value in vector.items() if value != identity}
                vector.pop(job.source, None)
            else:
                vector = {v: value for v, value in vector.items() if abs(value) > tolerance}
            job.table[job.key] = vector


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
    (:class:`ShortcutBatch`).  Every boundary vertex and every source is
    silenced after the first round, so several sources can share the call
    only when they are all boundary vertices; a single source may be
    internal (the rooted source of a selective algorithm).
    """
    if len(sources) > 1 and not boundary.issuperset(sources):
        raise ValueError("only boundary vertices can share a shortcut solve")
    if metrics is None:
        metrics = ExecutionMetrics()
    vectors: Dict[int, Dict[int, float]] = {}
    batch = ShortcutBatch(spec, backend)
    block = batch.block(local_adjacency, boundary)
    for source in sources:
        batch.solve(block, source, vectors)
    batch.run(metrics)
    return [vectors[source] for source in sources]


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

    The reference revision body: messages spread along intra-subgraph
    links, boundary vertices (and the source) accumulate without
    re-emitting.
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


def _revise_reference(
    spec: AlgorithmSpec,
    local_adjacency: FactorAdjacency,
    source: int,
    boundary: Set[int],
    old_vector: Dict[int, float],
    pending: Dict[int, float],
    metrics: ExecutionMetrics,
    backend: Optional[str] = None,
) -> Dict[int, float]:
    """Fold ``pending`` into a copy of ``old_vector`` and post-filter it."""
    vector = dict(old_vector)
    _fold_propagate(
        spec, local_adjacency, source, boundary, vector, dict(pending), metrics, backend=backend
    )
    if spec.is_selective():
        identity = spec.aggregate_identity()
        vector = {v: value for v, value in vector.items() if value != identity}
        vector.pop(source, None)
    else:
        vector = {v: value for v, value in vector.items() if spec.is_significant(value)}
    return vector


def shortcut_revision(
    spec: AlgorithmSpec,
    old_local: FactorAdjacency,
    new_local: FactorAdjacency,
    source: int,
    boundary: Set[int],
    old_vector: Dict[int, float],
    changed_sources: Set[int],
    metrics: Optional[ExecutionMetrics] = None,
) -> Optional[Dict[int, float]]:
    """The revision messages that update one boundary vertex's shortcut vector.

    Mirrors the paper's incremental shortcut maintenance (Section IV-B): the
    weights memoized in ``old_vector`` are to be revised with the messages
    induced by the changed intra-subgraph links (one ``F`` application per
    changed link, charged to ``metrics``) instead of being recomputed from
    scratch.  Returns the pending messages to fold into the old vector — an
    empty map means the vector is unchanged — or ``None`` when an exact
    cheap update is not possible (a selective algorithm losing a supporting
    link needs the full trim machinery; the caller then recomputes).
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
    return pending


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

    :func:`shortcut_revision` followed by the fold of its messages
    (one revision job of a :class:`ShortcutBatch`).  Returns the updated
    vector, or ``None`` when the caller must recompute it from scratch.
    """
    if metrics is None:
        metrics = ExecutionMetrics()
    pending = shortcut_revision(
        spec, old_local, new_local, source, boundary, old_vector, changed_sources, metrics
    )
    if pending is None:
        return None
    if not pending:
        return dict(old_vector)
    vectors: Dict[int, Dict[int, float]] = {}
    batch = ShortcutBatch(spec, backend)
    batch.revise(batch.block(new_local, boundary), source, old_vector, pending, vectors)
    batch.run(metrics)
    return vectors[source]


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
