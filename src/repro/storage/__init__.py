"""Durable graph + derived-state store (warm starts and crash recovery).

The incremental engines exist because derived state — memoized BSP
iterations, dependency forests, Layph's layered skeleton — is expensive to
build and cheap to maintain.  Before this package a process restart threw all
of it away and re-ran batch initialization.  The storage layer follows the
strategy both related repos argue for (see ROADMAP): SQLite for the
*queryable* live edge list, an append-only log for *crash-safe* deltas, and
compacted array snapshots for the derived state.

Lifecycle (``log → snapshot → compact → restore → demote``):

* every applied :class:`repro.graph.delta.GraphDelta` appends one CRC-guarded,
  fsync'd record to ``delta.log`` (:class:`repro.storage.edge_store.DeltaLog`);
* ``engine.save(dir)`` / periodic compaction serialize the engine's derived
  state to ``snapshot-<seq>.npz`` (+ a checksummed JSON sidecar), fold the
  live edge list into the SQLite baseline and truncate the log;
* :func:`repro.storage.store.restore_engine` reloads the snapshot, replays
  the log suffix past it and resumes **bitwise-identical** to the
  uninterrupted run (the crash-injection suite in ``tests/storage`` enforces
  this at every log-record boundary for all seven engines);
* a missing, corrupt (checksum mismatch) or version-mismatched snapshot
  *demotes* to cold batch initialization on the logged graph — a warning is
  surfaced and the :class:`repro.storage.store.RestoreReport` records which
  path ran.

There is nothing to configure: ``engine.save(dir)`` attaches a store,
:func:`repro.storage.store.restore_engine` is the way back, and the log is
compacted every :data:`repro.storage.store.COMPACT_EVERY` (16) records.
"""

from __future__ import annotations

from repro.storage.edge_store import (
    DeltaLog,
    DurableEdgeStore,
    LogRecord,
    StoreError,
)
from repro.storage.store import (
    EngineStore,
    RestoreReport,
    SnapshotUnusable,
    restore_engine,
)

__all__ = [
    "DeltaLog",
    "DurableEdgeStore",
    "LogRecord",
    "StoreError",
    "EngineStore",
    "RestoreReport",
    "SnapshotUnusable",
    "restore_engine",
]
