"""Array-only kernel slabs: the numpy hot loops, free of engine objects.

Every vectorized kernel of the reproduction — the delta-accumulative
superstep of :mod:`repro.engine.dense_propagation`, Layph's lockstep
shortcut / upload kernel and its shortcut assignments
(:mod:`repro.layph.shortcuts`, :mod:`repro.layph.vectorized`), and the BSP
refinement pulls of the GraphBolt/DZiG engines — bottoms out in the
functions of this module.  They operate exclusively on plain numpy arrays
and Python scalars (one propagation's are bundled into
:class:`PropagationSlab`): no ``Graph``, no ``AlgorithmSpec``, no engine
objects, no adjacency callables.  That boundary keeps every kernel testable
on hand-built arrays, and it is the seam a compiled kernel (numba, C) would
replace without touching the engines.

The algebra is the checked delta-accumulative one (see
:func:`repro.engine.dense_propagation.require_algebra`), reduced to scalars:

* ``selective`` — ``min`` aggregation with identity ``+inf`` (SSSP/BFS
  style) when true, ``+`` aggregation with identity ``0`` (PageRank/PHP
  style) when false;
* ``combine_add`` — messages combine as ``value + factor`` when true,
  ``value * factor`` when false;
* ``tolerance`` — the accumulative significance threshold (selective
  algorithms use ``!= identity``).

Every kernel preserves the bitwise-identity contract of the object-based
entry points that build the slabs: active vertices in ascending dense-index
order, CSR slot order for the unbuffered ``np.add.at`` / ``np.minimum.at``
scatters, and the dict-loop termination quirks replayed exactly.  The
engines reject NaN inputs at their boundary, so no kernel guards against
them.  This
module must not import anything from ``repro`` — the lint test
``tests/parallel/test_slab_signatures.py`` enforces both the import
discipline and the arrays-and-scalars-only call signatures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np


def expand_slots(starts: np.ndarray, counts: np.ndarray, total: int) -> np.ndarray:
    """Flat CSR slot indices for the concatenated rows ``[starts, starts+counts)``.

    Ordered row by row (rows in the order given, slots in CSR order) — the
    exact scatter order of the Python propagation loop.  Mirrors
    :func:`repro.graph.csr.expand_edges`, restated here so the slab kernels
    stay free of ``repro`` imports.
    """
    cumulative = np.cumsum(counts)
    row_offset = np.repeat(starts - np.concatenate(([0], cumulative[:-1])), counts)
    return np.arange(total, dtype=np.int64) + row_offset


class SlabNonConvergence(Exception):
    """A capped kernel run still holds significant pending messages.

    The object-based callers translate this into the engine-level
    :class:`repro.engine.propagation.NonConvergenceError` (the slab layer
    cannot import it); ``jobs`` are the jobs still pending, ascending.
    """

    def __init__(self, remaining: int, rounds: int, jobs: List[int]) -> None:
        super().__init__(
            f"{remaining} significant pending messages remain after {rounds} rounds"
        )
        self.remaining = remaining
        self.rounds = rounds
        self.jobs = jobs


@dataclass
class PropagationSlab:
    """One propagation work unit as plain arrays plus algebra scalars.

    The CSR block (``offsets``/``targets``/``factors``/``out_degree``) and
    the absorb mask are read-only during a run; the per-vertex working
    arrays (``state``/``pending``/``in_dict``/``state_touched``) are mutated
    in place.
    """

    # CSR block (read-only during the run)
    offsets: np.ndarray
    targets: np.ndarray
    factors: np.ndarray
    out_degree: np.ndarray
    # per-vertex working arrays (mutated in place)
    state: np.ndarray
    pending: np.ndarray
    in_dict: np.ndarray
    state_touched: np.ndarray
    absorb: np.ndarray
    # algebra scalars
    selective: bool = True
    combine_add: bool = True
    identity: float = math.inf
    tolerance: float = 0.0


def take_active(
    pending: np.ndarray,
    in_dict: np.ndarray,
    selective: bool,
    identity: float,
    tolerance: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Pop the significant pending entries: ``(active, deltas)``, ascending."""
    if selective:
        significant = (pending != identity) & in_dict
    else:
        significant = (np.abs(pending) > tolerance) & in_dict
    active = np.flatnonzero(significant)
    deltas = pending[active]
    pending[active] = identity
    in_dict[active] = False
    return active, deltas


def apply_deltas(
    state: np.ndarray, active: np.ndarray, deltas: np.ndarray, selective: bool
) -> Tuple[np.ndarray, np.ndarray]:
    """Fold ``deltas`` into ``state``: ``(scatterers, out_values)``.

    A selective row scatters its improved state, an accumulative one its
    delta.
    """
    old_states = state[active]
    if selective:
        new_states = np.minimum(old_states, deltas)
        improved = new_states != old_states
        state[active[improved]] = new_states[improved]
        return active[improved], new_states[improved]
    state[active] = old_states + deltas
    return active, deltas


def gather_messages(
    targets: np.ndarray,
    factors: np.ndarray,
    absorb: np.ndarray,
    starts: np.ndarray,
    counts: np.ndarray,
    total: int,
    out_values: np.ndarray,
    selective: bool,
    combine_add: bool,
    identity: float,
    tolerance: float,
    shift: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """The scatter half of one superstep: ``(kept_targets, kept_messages)``.

    Pure gather — no per-vertex state is touched — over the CSR rows
    ``[starts, starts+counts)`` in row order; ``shift`` (one per row) moves
    each row's targets into its job's cells.
    """
    slots = expand_slots(starts, counts, total)
    edge_targets = targets[slots]
    messages = np.repeat(out_values, counts)
    if combine_add:
        messages = messages + factors[slots]
    else:
        messages = messages * factors[slots]
    keep = ~absorb[edge_targets]
    if selective:
        keep &= messages != identity
    else:
        keep &= np.abs(messages) > tolerance
    if shift is not None:
        edge_targets = edge_targets + np.repeat(shift, counts)
    return edge_targets[keep], messages[keep]


def scatter_messages(
    pending: np.ndarray,
    in_dict: np.ndarray,
    kept_targets: np.ndarray,
    kept_messages: np.ndarray,
    selective: bool,
) -> None:
    """Apply kept messages to the pending array (unbuffered, slot order)."""
    if selective:
        np.minimum.at(pending, kept_targets, kept_messages)
    else:
        np.add.at(pending, kept_targets, kept_messages)
    in_dict[kept_targets] = True


def propagation_superstep(slab: PropagationSlab) -> Optional[Tuple[int, int, int]]:
    """One superstep; ``(activations, active, updates)`` or ``None`` when
    no pending entry is significant (the caller decides how to terminate).
    """
    active, deltas = take_active(
        slab.pending, slab.in_dict, slab.selective, slab.identity, slab.tolerance
    )
    if active.size == 0:
        return None
    scatterers, out_values = apply_deltas(slab.state, active, deltas, slab.selective)
    slab.state_touched[scatterers] = True

    counts = slab.out_degree[scatterers]
    total = int(counts.sum())
    if total:
        kept_targets, kept_messages = gather_messages(
            slab.targets, slab.factors, slab.absorb, slab.offsets[scatterers], counts, total,
            out_values, slab.selective, slab.combine_add, slab.identity, slab.tolerance,
        )
        scatter_messages(slab.pending, slab.in_dict, kept_targets, kept_messages, slab.selective)
    return total, int(active.size), int(scatterers.size)


def run_propagation(
    slab: PropagationSlab, max_rounds: Optional[int] = None
) -> List[Tuple[int, int, int]]:
    """Run the delta-accumulative loop to convergence on one slab.

    Returns the per-round ``(activations, active, updates)`` triples.
    Termination replays the dict loop exactly: insignificant leftovers end
    the loop with the pending membership cleared (the final, unrecorded
    clearing round), while a ``max_rounds`` cap breaks with the leftovers
    preserved for write-back.
    """
    rounds: List[Tuple[int, int, int]] = []
    while slab.in_dict.any():
        if max_rounds is not None and len(rounds) >= max_rounds:
            break
        step = propagation_superstep(slab)
        if step is None:
            slab.in_dict[:] = False
            break
        rounds.append(step)
    return rounds


def run_shortcut_solves(
    offsets: np.ndarray,
    targets: np.ndarray,
    factors: np.ndarray,
    full_degree: np.ndarray,
    silenced_degree: np.ndarray,
    absorb: np.ndarray,
    cell_job: np.ndarray,
    job_shift: np.ndarray,
    job_solves: np.ndarray,
    states: np.ndarray,
    pending: np.ndarray,
    in_dict: np.ndarray,
    final_mask: np.ndarray,
    selective: bool,
    combine_add: bool,
    identity: float,
    tolerance: float,
    max_rounds: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shortcut solves, revisions and uploads of several subgraphs, in lockstep.

    The CSR block (``offsets`` … ``absorb``, one entry per row) is the
    block-diagonal union of the subgraphs' local CSRs: ``targets`` hold
    global row ids and ``offsets`` the start slot of every row.  A *job*
    owns the rows of one subgraph only: its cells are a contiguous range of
    the flat per-cell arrays (``cell_job``, ``states``, ``pending``,
    ``in_dict`` and ``final_mask``), and the cell of global row ``r`` in job
    ``j`` is ``r + job_shift[j]``.  No job ever touches another job's
    cells, so the jobs share nothing but the CSR block.

    * A *solve* (``job_solves[j]``) is Layph's two-phase neutral
      propagation from one source: the caller seeds the unit message in the
      source's cell, round 0 reads ``full_degree`` (only the source is
      pending then, so this re-opens exactly its row) and every later round
      ``silenced_degree`` — every boundary row, the sources among them,
      zeroed.  The algebra contract makes the unit significant (0 for
      min/+, 1 for sum/×), so round 0 always runs.
    * A *revision* folds the pending messages the caller seeded into the
      states it seeded, reading ``silenced_degree`` throughout: a shortcut
      revision starts from the old shortcut row, an upload from the
      internal vertices' states with the boundary cells at the identity
      (they then accumulate the messages that arrive there).

    Active cells are taken in ascending flat order, which is ascending row
    order within each job, and the messages of a round are scattered with
    one unbuffered ``np.minimum.at`` / ``np.add.at`` — so every cell
    receives its contributions in exactly the order the one-vector loop
    (:func:`run_propagation`) applies them, and even the accumulative float
    sums are bitwise equal.  A job ends when it has no significant pending
    cell; its insignificant leftovers stay pending and are never read
    again, as in the one-vector loop.

    On return ``states`` holds every job's final states and ``final_mask``
    marks the cells a round wrote.  A round that would start with
    significant messages after ``max_rounds`` rounds raises
    :class:`SlabNonConvergence` naming the jobs still pending.

    Returns the per-round ``(activations, active, updates)`` triples as four
    arrays ``(job, activations, active, updates)``, one entry per round in
    which a job had active cells, rounds in order and jobs ascending within
    a round.
    """
    jobs = int(job_shift.size)
    final_mask[...] = False
    recorded: List[Tuple[np.ndarray, ...]] = []
    first_round = True
    while True:
        active, deltas = take_active(pending, in_dict, selective, identity, tolerance)
        if active.size == 0:
            break
        if len(recorded) >= max_rounds:
            stuck = np.bincount(cell_job[active], minlength=jobs)
            stalled = np.flatnonzero(stuck)
            raise SlabNonConvergence(int(stuck[stalled[0]]), len(recorded), stalled.tolist())
        scatterers, out_values = apply_deltas(states, active, deltas, selective)
        final_mask[scatterers] = True

        job_of = cell_job[scatterers]
        shift = job_shift[job_of]
        rows = scatterers - shift
        counts = silenced_degree[rows]
        if first_round:
            counts = np.where(job_solves[job_of], full_degree[rows], counts)
        total = int(counts.sum())
        if total:
            kept_targets, kept_messages = gather_messages(
                targets, factors, absorb, offsets[rows], counts, total,
                out_values, selective, combine_add, identity, tolerance, shift,
            )
            scatter_messages(pending, in_dict, kept_targets, kept_messages, selective)

        active_per = np.bincount(cell_job[active], minlength=jobs)
        live = np.flatnonzero(active_per)
        recorded.append(
            (
                live,
                np.bincount(job_of, weights=counts, minlength=jobs)[live].astype(np.int64),
                active_per[live],
                np.bincount(job_of, minlength=jobs)[live],
            )
        )
        first_round = False
    if not recorded:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty, empty
    return tuple(
        np.concatenate([entry[field] for entry in recorded]).astype(np.int64)
        for field in range(4)
    )


def assign_best_offers(
    offsets: np.ndarray,
    counts: np.ndarray,
    targets: np.ndarray,
    factors: np.ndarray,
    source_values: np.ndarray,
    best: np.ndarray,
    identity: float,
    combine_add: bool,
) -> int:
    """Fold each live source's offers into ``best`` (min); returns the
    number of shortcut entries visited (the metered F-work).

    The selective assignment of Layph's subgraphs: row ``i`` (slots
    ``offsets[i]`` to ``offsets[i] + counts[i]``) lists the internal-target
    entries of a boundary vertex, ``source_values[i]`` its upper-layer
    state; ``best`` (mutated in place) is indexed by target.
    """
    live = np.nonzero(source_values != identity)[0]
    live_counts = counts[live]
    total = int(live_counts.sum())
    if total:
        slots = expand_slots(offsets[live], live_counts, total)
        offers = np.repeat(source_values[live], live_counts)
        if combine_add:
            offers = offers + factors[slots]
        else:
            offers = offers * factors[slots]
        np.minimum.at(best, targets[slots], offers)
    return total


def assign_deltas(
    offsets: np.ndarray,
    counts: np.ndarray,
    targets: np.ndarray,
    factors: np.ndarray,
    source_deltas: np.ndarray,
    values: np.ndarray,
    allowed: np.ndarray,
    combine_add: bool,
) -> int:
    """Push each source's delta through its shortcut row into ``values``.

    The accumulative assignment of Layph's subgraphs: row ``i`` (slots
    ``offsets[i]`` to ``offsets[i] + counts[i]``) carries
    ``source_deltas[i]``; applies ``combine(delta, factor)`` with
    ``np.add.at`` in row order (ascending boundary position, table order
    within — the Python loop's exact order), skipping targets where
    ``allowed`` is false.  Returns the number of applied entries.
    """
    total = int(counts.sum())
    if not total:
        return 0
    slots = expand_slots(offsets, counts, total)
    edge_targets = targets[slots]
    messages = np.repeat(source_deltas, counts)
    if combine_add:
        messages = messages + factors[slots]
    else:
        messages = messages * factors[slots]
    keep = allowed[edge_targets]
    np.add.at(values, edge_targets[keep], messages[keep])
    return int(keep.sum())


def pull_rows(
    offsets: np.ndarray,
    targets: np.ndarray,
    factors: np.ndarray,
    out_degree: np.ndarray,
    frontier_rows: np.ndarray,
    previous: np.ndarray,
    level: np.ndarray,
    root: np.ndarray,
    tolerance: float,
    combine_add: bool,
) -> Tuple[int, np.ndarray]:
    """BSP refinement pull: re-aggregate ``frontier_rows`` from the in-CSR.

    ``previous`` is the prior iteration's memoized row, ``level`` the row
    being refined (mutated in place), ``root`` the per-vertex root
    messages.  ``frontier_rows`` must be ascending (the sorted-vertex order
    of the reference); contributions are applied with ``np.add.at`` in slot
    order, so the refined values are bitwise equal to the dict paths.
    Returns ``(activations, changed_rows)``.
    """
    counts = out_degree[frontier_rows]
    total = int(counts.sum())
    values = root[frontier_rows]
    if total:
        slots = expand_slots(offsets[frontier_rows], counts, total)
        sources = targets[slots]
        # every column is populated: remaps fill each added vertex's column
        source_values = previous[sources]
        if combine_add:
            contributions = source_values + factors[slots]
        else:
            contributions = source_values * factors[slots]
        np.add.at(
            values,
            np.repeat(np.arange(frontier_rows.size, dtype=np.int64), counts),
            contributions,
        )
    unchanged = np.abs(values - level[frontier_rows]) <= tolerance
    level[frontier_rows] = values
    return total, frontier_rows[~unchanged]
