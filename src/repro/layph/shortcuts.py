"""Automated shortcut deduction (Section IV-A2, Definition 3).

A shortcut from a boundary vertex ``b`` of a dense subgraph to another vertex
``v`` of it aggregates the path compositions of edge factors along every path
``b -> ... -> v`` whose *intermediate* vertices are all internal: the value
``v`` receives when the algorithm's unit message (the identity of
``combine``) is injected at ``b`` and the ``F``/``G`` iteration runs inside
the subgraph to convergence (Equation (6)), every other boundary vertex
absorbing.  That makes the shortcuts an exact folding of the subgraph
(Theorems 1 and 2, for both algorithm families).

A subgraph holds its shortcuts as a :class:`ShortcutTable`: a dense float64
block with one row per boundary vertex (ascending) and one column per vertex
of the subgraph's compiled local CSR (ascending ids), the aggregation
identity marking "no shortcut".

:class:`ShortcutBatch` runs the from-scratch solves and incremental
revisions of any number of subgraphs, or phase 2's revision-message uploads
(:func:`local_uploads`), in one call: sum/mul solves in closed form
(:func:`closed_form_solves`, one dense ``np.linalg.solve`` per subgraph of
at most :data:`CLOSED_FORM_MAX_VERTICES` local vertices), everything else
in the lockstep kernel :func:`repro.parallel.slabs.run_shortcut_solves`,
whose cells share the table's column index.  The reference bodies the
kernel reproduces bit for bit live with the test oracles.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.engine.algorithm import AlgorithmSpec
from repro.engine.dense_propagation import AGGREGATE_MIN, COMBINE_ADD
from repro.engine.metrics import ExecutionMetrics
from repro.engine.propagation import FactorAdjacency, NonConvergenceError
from repro.graph.csr import locate
from repro.graph.csr_cache import master_factor_csr
from repro.parallel.slabs import SlabNonConvergence, run_shortcut_solves

#: rounds a kernel call may run before it raises :class:`NonConvergenceError`
MAX_ROUNDS = 10_000

#: largest local CSR whose sum/mul rows are solved in closed form.  The
#: dense solve costs n³/3 multiply-adds and n² floats however few rows are
#: stale; past about this size a handful of rows is cheaper in the kernel.
CLOSED_FORM_MAX_VERTICES = 128


def local_vertex_arrays(spec: AlgorithmSpec, base: FactorAdjacency, csr) -> Tuple[np.ndarray, np.ndarray]:
    """``(absorb, initial)`` of ``csr``'s vertices: ``spec.absorbs`` and
    ``spec.initial_message`` per row of the compile of ``base``.

    Memoized on ``base`` by the compile's id array, which a splice that
    keeps the id space carries along; any other compile asks ``spec`` again.
    """
    ids = csr.ids_array()
    memo = getattr(base, "_vertex_arrays_memo", None)
    if memo is None or memo[0] is not spec or memo[1] is not ids:
        vertices = ids.tolist()
        absorb = np.array([bool(spec.absorbs(vertex)) for vertex in vertices], dtype=bool)
        initial = np.array([spec.initial_message(vertex) for vertex in vertices], dtype=np.float64)
        memo = base._vertex_arrays_memo = (spec, ids, absorb, initial)
    return memo[2], memo[3]


class ShortcutTable:
    """One dense subgraph's shortcut tables as a dense block.

    Row ``rows[b]`` of ``block`` is the shortcut vector of source ``b``
    (``sources`` ascending); column ``index[v]`` the weight to ``v``
    (``columns`` ascending).  ``identity`` — the aggregation identity —
    marks "no shortcut", so two tables hold the same shortcuts when their
    :meth:`vectors` are equal, whatever their column lists.
    """

    __slots__ = ("sources", "rows", "identity", "columns", "index", "block", "_links")

    def __init__(self, sources: Sequence[int], identity: float) -> None:
        self.sources: List[int] = list(sources)
        self.rows: Dict[int, int] = {source: row for row, source in enumerate(self.sources)}
        self.identity = identity
        self.fill([], np.full((len(self.sources), 0), identity))

    def fill(self, columns: List[int], block: np.ndarray, index=None) -> "ShortcutTable":
        """Install the block's values over the (ascending) ``columns``."""
        self.columns = columns
        self.index: Dict[int, int] = (
            index if index is not None else {vertex: column for column, vertex in enumerate(columns)}
        )
        self.block = block
        self._links: Optional[Tuple[np.ndarray, ...]] = None
        return self

    def fill_vectors(self, vectors: Dict[int, Dict[int, float]]) -> "ShortcutTable":
        """Install ``{source: {target: weight}}`` over every target's column."""
        targets = set()
        for vector in vectors.values():
            targets.update(vector)
        self.fill(sorted(targets), np.full((len(self.sources), len(targets)), self.identity))
        for source, vector in vectors.items():
            columns = [self.index[target] for target in vector]
            self.block[self.rows[source], columns] = list(vector.values())
        return self

    @classmethod
    def from_vectors(
        cls, vectors: Dict[int, Dict[int, float]], identity: float
    ) -> "ShortcutTable":
        """The table of ``{source: {target: weight}}``."""
        return cls(sorted(vectors), identity).fill_vectors(vectors)

    def __len__(self) -> int:
        return len(self.sources)

    def vector(self, source: int) -> Dict[int, float]:
        """``source``'s shortcut weights by target, ascending."""
        row = self.rows.get(source)
        if row is None:
            return {}
        values = self.block[row]
        present = np.flatnonzero(values != self.identity)
        columns = self.columns
        return dict(zip([columns[c] for c in present.tolist()], values[present].tolist()))

    def vectors(self) -> Dict[int, Dict[int, float]]:
        """Every row as ``{source: {target: weight}}``."""
        return {source: self.vector(source) for source in self.sources}

    def count(self) -> int:
        """Number of shortcut entries."""
        return int(np.count_nonzero(self.block != self.identity))

    def boundary_links(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The shortcuts to the table's sources — the boundary, so its links
        on the upper layer — as rows over ``sources``: ``(sources, row
        lengths, target ids, weights)``, each row's targets ascending (read
        off the block with one ``np.nonzero`` per table; the caller must not
        mutate them)."""
        if self._links is None:
            sources = np.array(self.sources, dtype=np.int64)
            columns, found = locate(np.asarray(self.columns, dtype=np.int64), sources)
            values = self.block[:, columns[found]]
            rows, picks = np.nonzero(values != self.identity)
            counts = np.bincount(rows, minlength=sources.size)
            self._links = (sources, counts, sources[found][picks], values[rows, picks])
        return self._links

    def project(self, sources: Sequence[int], columns: List[int], index: Dict[int, int]) -> np.ndarray:
        """The rows of ``sources`` over another ascending column list
        (``index`` maps its ids to columns); entries outside it drop out."""
        rows = [self.rows[source] for source in sources]
        if columns == self.columns:
            return self.block[rows]
        projected = np.full((len(rows), len(columns)), self.identity)
        mine, theirs = [], []
        for column, vertex in enumerate(self.columns):
            position = index.get(vertex)
            if position is not None:
                mine.append(column)
                theirs.append(position)
        projected[:, theirs] = self.block[np.ix_(rows, mine)]
        return projected


def compute_shortcuts_from(
    spec: AlgorithmSpec,
    local_adjacency: FactorAdjacency,
    source: int,
    boundary: Set[int],
    metrics: Optional[ExecutionMetrics] = None,
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

    Returns:
        Mapping ``vertex -> shortcut weight``.  The source itself is omitted
        unless the subgraph feeds mass back to it through internal cycles
        (only possible for accumulative algorithms), in which case the entry
        carries only that cyclic surplus, never the injected unit.

    This is the one-source case of :func:`compute_shortcut_vectors`.
    """
    return compute_shortcut_vectors(spec, local_adjacency, [source], boundary, metrics)[0]


class _Block:
    """One subgraph's local adjacency, a diagonal block of a batch call.

    ``table`` (``None`` for an upload) receives the solved and revised rows
    when the batch runs; its other rows keep their ``old`` row.
    """

    __slots__ = ("local_adjacency", "boundary", "label", "old", "table", "jobs", "csr",
                 "absorb", "silenced_rows", "start", "arrived")

    def __init__(self, local_adjacency, boundary, label, old, table) -> None:
        self.local_adjacency = local_adjacency
        #: the boundary silenced after round 0 (internal sources excluded)
        self.boundary = boundary
        #: the subgraph index a non-convergence error names
        self.label = label
        self.old: Optional[ShortcutTable] = old
        self.table: Optional[ShortcutTable] = table
        self.jobs: List["_Job"] = []
        #: an upload's messages that reached the boundary, once the batch ran
        self.arrived: Dict[int, float] = {}

    def compile(self, spec: AlgorithmSpec) -> None:
        """Take the local CSR the jobs run on, its absorb flags and the rows
        silenced after round 0: the boundary and the sources."""
        silenced = set(self.boundary)
        silenced.update(job.source for job in self.jobs if not job.upload)
        # a revision message may aim at a vertex with no local row left
        universe = set(silenced)
        for job in self.jobs:
            if not job.solve:
                universe.update(job.pending)
        self.csr = master_factor_csr(self.local_adjacency, universe)
        self.absorb = local_vertex_arrays(spec, self.local_adjacency, self.csr)[0]
        index = self.csr.index
        self.silenced_rows = np.array([index[vertex] for vertex in silenced], dtype=np.int64)

    def closed_form(self, spec: AlgorithmSpec) -> bool:
        """Whether the compiled block's jobs run in :func:`closed_form_solves`:
        sum/mul solves over at most :data:`CLOSED_FORM_MAX_VERTICES` local
        vertices."""
        return (
            self.table is not None
            and not spec.is_selective()
            and self.csr.num_vertices <= CLOSED_FORM_MAX_VERTICES
        )

    def where(self) -> str:
        """`` in subgraph N`` for an error message (empty without a label)."""
        return "" if self.label is None else f" in subgraph {self.label}"

    def fill(self, finished: np.ndarray) -> None:
        """Install the finished rows of the jobs (in job order, over the
        local CSR's columns) in ``table``, the other rows from ``old``."""
        table, jobs, csr = self.table, self.jobs, self.csr
        values = np.full((len(table), csr.num_vertices), table.identity)
        values[[table.rows[job.source] for job in jobs]] = finished
        queued = {job.source for job in jobs}
        kept = [source for source in table.sources if source not in queued]
        if kept:
            values[[table.rows[source] for source in kept]] = self.old.project(
                kept, csr.vertex_ids, csr.index
            )
        table.fill(csr.vertex_ids, values, csr.index)


class _Job:
    """One job: a solve from ``source``, a revision of ``source``'s old row
    by the messages ``pending``, or (``source`` ``None``) the upload of
    ``pending`` into the states ``work``."""

    __slots__ = ("source", "pending", "work", "start")

    def __init__(self, source, pending, work=None) -> None:
        self.source = source
        self.pending = pending
        self.work = work

    @property
    def solve(self) -> bool:
        return self.pending is None

    @property
    def upload(self) -> bool:
        return self.source is None


class ShortcutBatch:
    """Shortcut solves and revisions, or revision-message uploads, of one or
    more subgraphs, run as one call.

    Callers open one block per subgraph (:meth:`block`), queue its jobs —
    :meth:`solve` for a from-scratch row, :meth:`revise` for an incremental
    revision of an old min/+ row by its revision messages
    (:func:`shortcut_revision`), :meth:`upload` for phase 2's local
    propagation — and :meth:`run` the batch once.  The sum/mul solves of
    every block small enough (:meth:`_Block.closed_form`) run in one
    :func:`closed_form_solves` call; everything else runs in one call of
    the lockstep kernel :func:`repro.parallel.slabs.run_shortcut_solves`,
    which sees the blocks' local CSRs as one block-diagonal CSR in which
    every job owns only its own block's cells, so a call costs O(Σ job
    cells), never a ``(jobs × Σ rows)`` matrix.  Every kernel row, upload
    and recorded round is bitwise the one the reference bodies of the test
    oracles produce.
    """

    def __init__(self, spec: AlgorithmSpec) -> None:
        self.spec = spec
        self._blocks: List[_Block] = []

    def block(self, local_adjacency, boundary, old=None, sources=None, label=None) -> _Block:
        """Open the block of one subgraph (``label``: its index); with
        ``sources`` its ``table`` gets those rows (ascending), the rows
        without a job copied from the ``old`` table."""
        table = None
        if sources is not None:
            table = ShortcutTable(sources, float(self.spec.aggregate_identity()))
        block = _Block(local_adjacency, boundary, label, old, table)
        self._blocks.append(block)
        return block

    def solve(self, block: _Block, source: int) -> None:
        """Queue the from-scratch row of ``source``."""
        block.jobs.append(_Job(source, None))

    def revise(self, block: _Block, source: int, pending: Dict[int, float]) -> None:
        """Queue the revision of ``source``'s old row by ``pending`` (min/+
        only: a stale sum/mul row is always re-solved)."""
        if not self.spec.is_selective():
            raise ValueError("sum/mul shortcut rows are solved, not revised")
        block.jobs.append(_Job(source, pending))

    def upload(self, block: _Block, pending: Dict[int, float], work: Dict[int, float]) -> None:
        """Queue the upload of ``pending`` (internal vertices revise their
        states in ``work``; the boundary collects ``block.arrived``)."""
        block.jobs.append(_Job(None, pending, work))

    def run(self, metrics: ExecutionMetrics, per_round: bool = True) -> None:
        """Run every queued job; ``metrics`` receives the work.

        With ``per_round`` each kernel job's rounds are replayed into
        ``metrics`` in job order, exactly as one reference body per job
        records them, after the closed-form call's one round; without it
        only the totals (activations, vertex updates, rounds) are added.
        Uploads count no vertex updates, like their reference.

        Raises:
            NonConvergenceError: if a closed-form block does not contract,
                or a kernel job still holds significant messages after
                :data:`MAX_ROUNDS` rounds; the failing call writes nothing.
        """
        blocks = [block for block in self._blocks if block.jobs]
        for block in blocks:
            block.compile(self.spec)
        closed = [block for block in blocks if block.closed_form(self.spec)]
        if closed:
            closed_form_solves(self.spec, closed, metrics, per_round)
        blocks = [block for block in blocks if not block.closed_form(self.spec)]
        if blocks:
            arrays, scalars = self._prepare(blocks)
            jobs = [(block, job) for block in blocks for job in block.jobs]
            try:
                record = run_shortcut_solves(**arrays, **scalars)
            except SlabNonConvergence as error:
                block, job = jobs[error.jobs[0]]
                what = "local revision-message upload" if job.upload else "shortcut solve"
                raise NonConvergenceError(
                    f"{what}{block.where()} did not converge within {MAX_ROUNDS} rounds "
                    f"for {self.spec.name!r}; {error.remaining} significant pending "
                    "messages remain"
                ) from None
            uploads = np.array([job.upload for _block, job in jobs], dtype=bool)
            self._record(record, uploads, metrics, per_round)
            self._merge(blocks, arrays["states"], arrays["final_mask"])
        for block in self._blocks:
            if not block.jobs and block.table is not None:
                old = block.old
                block.table.fill(old.columns, old.project(block.table.sources, old.columns, old.index), old.index)

    def _prepare(self, blocks: List[_Block]):
        """The compiled blocks as the kernel's ``(arrays, scalars)`` arguments."""
        spec = self.spec
        kinds = spec.dense_algebra
        identity = float(spec.aggregate_identity())
        unit = float(spec.combine_identity())
        offsets, targets, factors, full_degree, silenced_degree = [], [], [], [], []
        shifts: List[int] = []
        sizes: List[int] = []
        seeds: List[Tuple[int, np.ndarray]] = []
        pending_cells: List[int] = []
        pending_values: List[float] = []
        row_base = slot_base = cell = 0
        for block in blocks:
            csr, silenced_rows = block.csr, block.silenced_rows
            ids, index, n = csr.vertex_ids, csr.index, csr.num_vertices
            degree = csr.out_degree.copy()
            degree[silenced_rows] = 0
            offsets.append(csr.offsets[:-1] + slot_base)
            targets.append(csr.targets + row_base)
            factors.append(csr.factors)
            full_degree.append(csr.out_degree)
            silenced_degree.append(degree)
            block.start = cell

            revised = [job.source for job in block.jobs if not job.solve and not job.upload]
            old_rows = iter(block.old.project(revised, ids, index)) if revised else None
            for job in block.jobs:
                job.start = cell
                shifts.append(cell - row_base)
                sizes.append(n)
                if job.solve:
                    pending_cells.append(cell + index[job.source])
                    pending_values.append(unit)
                else:
                    if job.upload:
                        # internal cells start from the states, boundary ones absorb
                        work = job.work
                        seed = np.array(
                            [work[v] if v in work else spec.initial_state(v) for v in ids],
                            dtype=np.float64,
                        )
                        seed[silenced_rows] = identity
                    else:
                        seed = next(old_rows)
                    seeds.append((cell, seed))
                    for vertex, message in job.pending.items():
                        pending_cells.append(cell + index[vertex])
                        pending_values.append(message)
                cell += n
            row_base += n
            slot_base += int(csr.targets.size)

        states = np.full(cell, identity, dtype=np.float64)
        for start, seed in seeds:
            states[start : start + seed.size] = seed
        pending = np.full(cell, identity, dtype=np.float64)
        pending[pending_cells] = pending_values
        in_dict = np.zeros(cell, dtype=bool)
        in_dict[pending_cells] = True
        selective = kinds[0] == AGGREGATE_MIN
        arrays = {
            "offsets": np.concatenate(offsets),
            "targets": np.concatenate(targets),
            "factors": np.concatenate(factors),
            "full_degree": np.concatenate(full_degree),
            "silenced_degree": np.concatenate(silenced_degree),
            "absorb": np.concatenate([block.absorb for block in blocks]),
            "cell_job": np.repeat(np.arange(len(sizes), dtype=np.int64), sizes),
            "job_shift": np.asarray(shifts, dtype=np.int64),
            "job_solves": np.array([job.solve for block in blocks for job in block.jobs], dtype=bool),
            "states": states,
            "pending": pending,
            "in_dict": in_dict,
            "final_mask": np.zeros(cell, dtype=bool),
        }
        scalars = {
            "selective": selective,
            "combine_add": kinds[1] == COMBINE_ADD,
            "identity": identity,
            "tolerance": 0.0 if selective else float(spec.tolerance()),
            "max_rounds": MAX_ROUNDS,
        }
        return arrays, scalars

    @staticmethod
    def _record(record, uploads: np.ndarray, metrics: ExecutionMetrics, per_round: bool) -> None:
        """Add a finished call's work to ``metrics``."""
        round_job, activations, active, updates = record
        updates = np.where(uploads[round_job], 0, updates)
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

    def _merge(self, blocks: List[_Block], states: np.ndarray, final_mask: np.ndarray) -> None:
        """Write a finished kernel call's rows into the tables and its
        uploads into their states and arrived messages.

        A row's post-filter is the reference's: a min/+ row drops its
        source's own entry; a sum/mul solve (a block too large for the
        closed form) keeps only the surplus over the injected unit there,
        and its weights within the tolerance of zero are no shortcut.
        """
        spec = self.spec
        selective = spec.is_selective()
        identity = float(spec.aggregate_identity())
        for block in blocks:
            csr = block.csr
            ids, n = csr.vertex_ids, csr.num_vertices
            if block.table is None:
                at_boundary = np.zeros(n, dtype=bool)
                at_boundary[block.silenced_rows] = True
                for job in block.jobs:
                    values = states[job.start : job.start + n]
                    written = final_mask[job.start : job.start + n]
                    revised = np.flatnonzero(written & ~at_boundary)
                    job.work.update(zip([ids[row] for row in revised.tolist()], values[revised].tolist()))
                    arrived = np.flatnonzero(written & at_boundary)
                    block.arrived = dict(zip([ids[row] for row in arrived.tolist()], values[arrived].tolist()))
                continue
            jobs = block.jobs
            finished = states[block.start : block.start + len(jobs) * n].reshape(len(jobs), n)
            own = np.array([csr.index[job.source] for job in jobs], dtype=np.int64)
            if selective:
                finished[np.arange(len(jobs)), own] = identity
            else:
                finished[np.arange(len(jobs)), own] -= float(spec.combine_identity())
                finished[np.abs(finished) <= float(spec.tolerance())] = identity
            block.fill(finished)


def closed_form_solves(
    spec: AlgorithmSpec, blocks: Sequence[_Block], metrics: ExecutionMetrics, per_round: bool = True
) -> None:
    """Every solve job of the compiled sum/mul ``blocks``, in closed form,
    into their tables.

    A block's shortcut rows are the fixpoint of Equation (6) inside its
    subgraph.  With ``A′`` the local factor matrix (duplicate links summed
    in CSR slot order, the columns of absorbing vertices zeroed) and ``P``
    the projection on the rows that re-emit (all but the boundary's and the
    sources'), the rows of the sources ``B`` are
    ``X_B = A′_B · (I − P·A′)⁻¹``: the iteration's limit without its
    tolerance truncation, and without the unit the iteration injects at the
    source's own column.  Each block is one ``np.linalg.solve`` of
    ``Mᵀ·Y = A′_Bᵀ`` with ``M = I − P·A′``, on its own ``n × n`` system
    (never padded to another block's size).  The post-filter is the
    iteration's: weights within the tolerance of zero are no shortcut.

    The solve applies no ``F``, so it charges no edge activation.  Its
    arithmetic — ``n³/3`` multiply-adds for the LU factorization and ``n²``
    per row for the two triangular solves — goes to
    ``metrics.dense_multiply_adds``, each row's ``n`` cells to the vertex
    updates, and the call is one round.

    Raises:
        NonConvergenceError: if some block's ``P·A′`` has spectral radius
            ≥ 1 — the iteration would not converge there — before any table
            is filled.
    """
    solved = []
    for block in blocks:
        csr = block.csr
        n = csr.num_vertices
        local = np.zeros((n, n))
        np.add.at(local, (np.repeat(np.arange(n), csr.out_degree), csr.targets), csr.factors)
        local[:, block.absorb] = 0.0
        # the right-hand sides are the sources' full rows; then P silences them
        rhs = local[[csr.index[job.source] for job in block.jobs]].T
        local[block.silenced_rows] = 0.0
        # every row sum below 1 bounds the spectral radius below 1
        if np.abs(local).sum(axis=1).max() >= 1.0:
            radius = float(np.abs(np.linalg.eigvals(local)).max())
            if radius >= 1.0 - 1e-9:
                raise NonConvergenceError(
                    f"shortcut solve{block.where()} did not converge for {spec.name!r}: "
                    f"its internal propagation has spectral radius {radius:.6g}"
                )
        solved.append(np.linalg.solve(np.eye(n) - local.T, rhs).T)

    identity, tolerance = float(spec.aggregate_identity()), float(spec.tolerance())
    cells = multiply_adds = 0
    for block, finished in zip(blocks, solved):
        finished[np.abs(finished) <= tolerance] = identity
        block.fill(finished)
        n, rows = block.csr.num_vertices, len(block.jobs)
        cells += rows * n
        multiply_adds += n**3 // 3 + rows * n * n
    metrics.vertex_updates += cells
    metrics.dense_multiply_adds += multiply_adds
    if per_round:
        metrics.record_round(0, cells)
    else:
        metrics.iterations += 1


def compute_shortcut_vectors(
    spec: AlgorithmSpec,
    local_adjacency: FactorAdjacency,
    sources: Sequence[int],
    boundary: Set[int],
    metrics: Optional[ExecutionMetrics] = None,
) -> List[Dict[int, float]]:
    """From-scratch shortcut vectors of several sources of one subgraph.

    All sources run in one :class:`ShortcutBatch` call; for min/+ its rows
    and recorded metrics equal :func:`compute_shortcuts_from` per source in
    ``sources`` order.  Every boundary vertex and every source is silenced
    after the first round, so several sources can share the call only when
    they are all boundary vertices; a single source may be internal (the
    rooted source of a selective algorithm).
    """
    if len(sources) > 1 and not boundary.issuperset(sources):
        raise ValueError("only boundary vertices can share a shortcut solve")
    if metrics is None:
        metrics = ExecutionMetrics()
    batch = ShortcutBatch(spec)
    block = batch.block(local_adjacency, boundary, sources=sorted(set(sources)))
    for source in sources:
        batch.solve(block, source)
    batch.run(metrics)
    return [block.table.vector(source) for source in sources]


def local_uploads(
    spec: AlgorithmSpec,
    uploads: Sequence[Tuple[object, Dict[int, float]]],
    work: Dict[int, float],
    metrics: ExecutionMetrics,
) -> List[Dict[int, float]]:
    """Phase 2's revision-message uploads, one kernel call for all subgraphs.

    ``uploads`` pairs each subgraph with the messages pending at its
    internal vertices.  Internal vertices revise their states in ``work``
    in place and scatter along the local adjacency (Equation (11)); boundary
    vertices absorb, and the messages that reach them are returned per
    subgraph, to be fed into the upper-layer iteration (Equation (7)).
    Rounds are recorded subgraph by subgraph in ``uploads`` order.

    Raises:
        NonConvergenceError: if a subgraph's upload still holds significant
            messages after :data:`MAX_ROUNDS` rounds.  Returning partial
            results would leave stale internal states behind and silently
            corrupt every subsequent delta.
    """
    batch = ShortcutBatch(spec)
    blocks = []
    for subgraph, pending in uploads:
        block = batch.block(subgraph.local_adjacency, subgraph.boundary, label=subgraph.index)
        batch.upload(block, pending, work)
        blocks.append(block)
    batch.run(metrics)
    return [block.arrived for block in blocks]


def shortcut_revision(
    spec: AlgorithmSpec,
    old_local: FactorAdjacency,
    new_local: FactorAdjacency,
    source: int,
    boundary: Set[int],
    old: ShortcutTable,
    changed_sources: Set[int],
    metrics: Optional[ExecutionMetrics] = None,
) -> Optional[Dict[int, float]]:
    """The revision messages that update one boundary vertex's min/+
    shortcut vector.

    Mirrors the paper's incremental shortcut maintenance (Section IV-B): the
    weights memoized in ``source``'s row of ``old`` are to be revised with
    the messages induced by the changed intra-subgraph links (one ``F``
    application per changed link, charged to ``metrics``) instead of being
    recomputed from scratch.  Returns the pending messages to fold into the
    old row — an empty map means the row is unchanged — or ``None`` when an
    exact cheap update is not possible (losing a supporting link needs the
    full trim machinery; the caller then recomputes).  A sum/mul row is
    never revised: a stale one is re-solved, in closed form
    (:func:`closed_form_solves`) unless its subgraph is too large.
    """
    if not spec.is_selective():
        raise ValueError("only min/+ shortcut rows are revised; sum/mul rows are solved")
    if metrics is None:
        metrics = ExecutionMetrics()
    identity = spec.aggregate_identity()
    unit = spec.combine_identity()
    row = old.block[old.rows[source]]
    index = old.index

    def old_weight(vertex: int) -> float:
        column = index.get(vertex)
        return identity if column is None else float(row[column])

    def emitted_mass(vertex: int) -> float:
        # Mass available at a vertex for onward propagation: the injected unit
        # at the source, the folded mass at an internal vertex, nothing usable
        # at other boundary vertices (they absorb).
        if vertex == source:
            return unit
        if vertex in boundary:
            return identity
        return old_weight(vertex)

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
            if old_factor is not None and (new_factor is None or new_factor > old_factor):
                # A path may have been lost; only the trim machinery can
                # tell, so report "cannot update cheaply".
                supported = old_weight(target)
                offered = spec.combine(available, old_factor)
                if supported != identity and offered <= supported + 1e-12:
                    return None
            if new_factor is not None:
                offer = spec.combine(available, new_factor)
                if spec.is_significant(offer):
                    pending[target] = spec.aggregate(pending.get(target, identity), offer)
    return pending
