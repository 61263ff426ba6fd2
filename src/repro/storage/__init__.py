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

Environment knobs:

* ``REPRO_STORE=0`` — escape hatch: ``engine.save`` becomes a no-op and
  nothing is ever written (everything stays in memory);
* ``REPRO_STORE_AUTOSAVE=1`` — every ``engine.initialize`` saves to a fresh
  temporary store and logs every subsequent delta (the CI persistence leg
  runs the whole tier-1 suite in this mode);
* ``REPRO_STORE_COMPACT_EVERY`` — log records between automatic compactions
  (default 16).
"""

from __future__ import annotations

import os

#: escape hatch: set to 0 to keep everything in memory
STORE_ENV_VAR = "REPRO_STORE"
#: opt-in: autosave every initialized engine to a temporary store
AUTOSAVE_ENV_VAR = "REPRO_STORE_AUTOSAVE"
#: log records between automatic compactions
COMPACT_EVERY_ENV_VAR = "REPRO_STORE_COMPACT_EVERY"
#: default compaction threshold
DEFAULT_COMPACT_EVERY = 16

_FALSY = {"0", "false", "off", "no"}


def env_flag_enabled(name: str, default: str = "1") -> bool:
    """Whether a boolean environment knob is enabled.

    The falsy spellings are ``0``/``false``/``off``/``no``, case-insensitive.
    """
    return os.environ.get(name, default).strip().lower() not in _FALSY


def storage_enabled() -> bool:
    """Whether the durable store is enabled (the ``REPRO_STORE`` knob)."""
    return env_flag_enabled(STORE_ENV_VAR)


def autosave_enabled() -> bool:
    """Whether ``initialize`` auto-saves engines (CI persistence leg)."""
    if not storage_enabled():
        return False
    raw = os.environ.get(AUTOSAVE_ENV_VAR, "").strip()
    if not raw:
        return False
    return env_flag_enabled(AUTOSAVE_ENV_VAR, default="0")


def compact_every_default() -> int:
    """The configured automatic-compaction threshold."""
    raw = os.environ.get(COMPACT_EVERY_ENV_VAR)
    if raw is None:
        return DEFAULT_COMPACT_EVERY
    try:
        value = int(raw)
    except ValueError:
        return DEFAULT_COMPACT_EVERY
    return value if value > 0 else DEFAULT_COMPACT_EVERY


from repro.storage.edge_store import (  # noqa: E402
    DeltaLog,
    DurableEdgeStore,
    LogRecord,
    StoreError,
)
from repro.storage.store import (  # noqa: E402
    EngineStore,
    RestoreReport,
    SnapshotUnusable,
    restore_engine,
)

__all__ = [
    "STORE_ENV_VAR",
    "AUTOSAVE_ENV_VAR",
    "COMPACT_EVERY_ENV_VAR",
    "DEFAULT_COMPACT_EVERY",
    "storage_enabled",
    "autosave_enabled",
    "compact_every_default",
    "DeltaLog",
    "DurableEdgeStore",
    "LogRecord",
    "StoreError",
    "EngineStore",
    "RestoreReport",
    "SnapshotUnusable",
    "restore_engine",
]
