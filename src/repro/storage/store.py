"""Engine-level durable store: snapshots, compaction and warm restore.

One :class:`EngineStore` binds an engine to a store directory::

    graph.db            SQLite baseline of the live edge list (+ identity meta)
    delta.log           append-only fsync'd log of deltas past the baseline
    snapshot-<seq>.npz  array snapshot of the derived state at sequence <seq>
    snapshot-<seq>.json sidecar: snapshot meta + sha256 of the ``.npz``
    MANIFEST.json       atomic pointer to the live snapshot (+ sidecar sha256)

``save`` writes in crash-safe order — snapshot arrays, sidecar, manifest (each
``os.replace``'d into place), then the SQLite baseline in one transaction,
then the log truncation — so a kill at *any* point leaves either the old or
the new snapshot fully restorable: log records at or below the baseline's
``last_seq`` are skipped during recovery, and a snapshot ahead of the baseline
carries its own adjacency arrays, so it never needs the pre-baseline rows.
The warm path decodes the graph from those arrays (no per-edge Python work);
the SQLite rows back the demote path and stay independently queryable.

:func:`restore_engine` is the single recovery entry point.  The warm path
rebuilds the engine from the snapshot and replays the log suffix through the
live ``apply_delta`` — bitwise-identical to the uninterrupted run.  Any
defect — missing/corrupt (checksum) snapshot, format or engine-identity
mismatch, log/graph version disagreement — raises :class:`SnapshotUnusable`
internally and *demotes* to cold batch initialization on the fully replayed
graph, surfacing a warning and recording the path in the returned
:class:`RestoreReport`.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import warnings
from dataclasses import asdict, dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.engine.algorithms import make_algorithm
from repro.engine.metrics import ExecutionMetrics
from repro.graph.delta import GraphDelta
from repro.layph.layered_graph import LayphConfig
from repro.storage.codecs import (
    decode_factor_csr,
    decode_float_map,
    decode_graph_arrays,
    encode_factor_csr,
    encode_float_map,
    encode_graph_arrays,
    pack,
    unpack,
)
from repro.storage.edge_store import (
    STORE_FORMAT,
    DeltaLog,
    DurableEdgeStore,
    LogRecord,
    StoreError,
    fsync_dir,
)


#: log records between automatic compactions (a full :meth:`EngineStore.save`)
COMPACT_EVERY = 16


class SnapshotUnusable(StoreError):
    """A snapshot exists but cannot be trusted; recovery demotes to cold."""


@dataclass(frozen=True)
class RestoreReport:
    """Which recovery path ran, and how much work each half did."""

    #: ``True``: snapshot restored + log suffix replayed (bitwise-identical);
    #: ``False``: demoted to cold batch initialization on the replayed graph
    warm: bool
    #: ``"snapshot"`` for the warm path, else why the snapshot was unusable
    reason: str
    #: sequence number the SQLite baseline was compacted at
    baseline_seq: int
    #: sequence number of the restored snapshot (``None`` when demoted)
    snapshot_seq: Optional[int]
    #: log records replayed through the live ``apply_delta`` after the
    #: snapshot (warm) — the demote path instead folds every record into the
    #: graph before the cold run, which this field does not count
    replayed_deltas: int
    #: torn/corrupt/stale log lines dropped by the longest-valid-prefix read
    discarded_log_records: int


# ----------------------------------------------------------------------
# small helpers
# ----------------------------------------------------------------------
def _sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_atomic(path: str, data: bytes) -> None:
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    fsync_dir(os.path.dirname(os.path.abspath(path)))


def _metrics_state(metrics: Optional[ExecutionMetrics]) -> Optional[dict]:
    return None if metrics is None else metrics.to_state()


def _metrics_from_state(state: Optional[dict]) -> Optional[ExecutionMetrics]:
    return None if state is None else ExecutionMetrics.from_state(state)


def _engine_identity(engine) -> dict:
    """Everything needed to rebuild the engine object from scratch."""
    spec = engine.spec
    identity = {
        "engine": engine.name,
        "algorithm": spec.name,
        "source": getattr(spec, "source", None),
        "damping": getattr(spec, "damping", None),
        "layph_config": None,
    }
    config = getattr(engine, "config", None)
    if isinstance(config, LayphConfig):
        identity["layph_config"] = asdict(config)
    return identity


def _current_identity(identity: Optional[dict]) -> Optional[dict]:
    """``identity`` without the ``backend`` keys older stores recorded.

    Stores written before the propagation backend was retired carry a
    ``backend`` entry at the top level and inside ``layph_config``; it
    selects nothing any more, so it must neither fail the snapshot's
    identity check nor reach ``LayphConfig``.
    """
    if identity is None:
        return None
    current = {key: value for key, value in identity.items() if key != "backend"}
    config = current.get("layph_config")
    if config is not None:
        current["layph_config"] = {
            key: value for key, value in config.items() if key != "backend"
        }
    return current


def _spec_from_identity(identity: dict):
    kwargs = {}
    if identity.get("source") is not None:
        kwargs["source"] = int(identity["source"])
    if identity.get("damping") is not None:
        kwargs["damping"] = float(identity["damping"])
    return make_algorithm(identity["algorithm"], **kwargs)


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------
class EngineStore:
    """A store directory bound to (at most) one live engine.

    Attach happens through ``engine.save(directory)`` or
    :func:`restore_engine`; once attached, every ``apply_delta`` appends one
    fsync'd log record and every :data:`COMPACT_EVERY` records trigger a full
    :meth:`save` (snapshot + baseline fold + log truncation).
    """

    GRAPH_DB = "graph.db"
    DELTA_LOG = "delta.log"
    MANIFEST = "MANIFEST.json"

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.edge_store = DurableEdgeStore(os.path.join(directory, self.GRAPH_DB))
        self.log = DeltaLog(os.path.join(directory, self.DELTA_LOG))
        #: sequence number the next logged delta receives
        self.next_seq = 1
        #: log records appended since the last :meth:`save`
        self.records_since_compact = 0
        #: statistics (exposed for tests and the fallback-path assertions)
        self.saves = 0
        self.compactions = 0
        self.logged = 0
        #: small application key/value annotations persisted with every
        #: baseline fold (the streaming service keeps its applied-event
        #: watermark here); values must be strings
        self.app_meta: Dict[str, str] = {}

    def close(self) -> None:
        self.edge_store.close()
        self.log.close()

    # ------------------------------------------------------------------
    # logging
    # ------------------------------------------------------------------
    def log_delta(
        self, delta: GraphDelta, graph_version: int, meta: Optional[dict] = None
    ) -> None:
        """Durably append one applied delta (fsync before returning)."""
        self.log.append(
            LogRecord(
                seq=self.next_seq,
                graph_version=graph_version,
                delta=delta.to_payload(),
                meta=meta,
            )
        )
        self.next_seq += 1
        self.records_since_compact += 1
        self.logged += 1

    def compaction_due(self) -> bool:
        """Whether enough records accumulated to fold the log into SQLite."""
        return self.records_since_compact >= COMPACT_EVERY

    # ------------------------------------------------------------------
    # save / compaction
    # ------------------------------------------------------------------
    def _snapshot_paths(self, seq: int) -> Tuple[str, str]:
        base = os.path.join(self.directory, f"snapshot-{seq}")
        return base + ".npz", base + ".json"

    def save(self, engine) -> None:
        """Full save: snapshot, manifest, SQLite baseline, log truncation.

        The write order is what makes every kill point recoverable; see the
        module docstring.
        """
        graph = engine.graph
        if graph is None:
            raise RuntimeError("initialize() must be called before save()")
        last_seq = self.next_seq - 1
        identity = _engine_identity(engine)

        meta: dict = {
            "format": STORE_FORMAT,
            "seq": last_seq,
            "graph_version": graph.version,
            "identity": identity,
            "initial_metrics": _metrics_state(engine.initial_metrics),
        }
        arrays: Dict[str, np.ndarray] = {}
        # the snapshot carries its own adjacency arrays: a warm restore then
        # decodes the graph at C speed instead of re-walking the SQLite rows
        # (which remain the durable baseline the demote path rebuilds from)
        graph_meta, graph_arrays = encode_graph_arrays(graph)
        meta["graph"] = graph_meta
        arrays.update(pack("graph", graph_arrays))
        arrays.update(pack("states", encode_float_map(engine.states)))
        captured_csr: List[str] = []
        for orientation in ("out", "in"):
            csr = engine.csr_cache.peek_csr(orientation, engine.spec, graph)
            if csr is not None:
                captured_csr.append(orientation)
                arrays.update(pack(f"csr_{orientation}", encode_factor_csr(csr)))
        meta["csr"] = captured_csr
        extras_meta, extras_arrays = engine._snapshot_extras()
        meta["extras"] = extras_meta
        arrays.update(pack("extras", extras_arrays))

        npz_path, sidecar_path = self._snapshot_paths(last_seq)
        tmp = npz_path + ".tmp"
        with open(tmp, "wb") as handle:
            np.savez(handle, **arrays)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, npz_path)
        fsync_dir(self.directory)

        sidecar = {"meta": meta, "npz_sha256": _sha256_file(npz_path)}
        sidecar_bytes = json.dumps(sidecar, sort_keys=True).encode("utf-8")
        _write_atomic(sidecar_path, sidecar_bytes)
        manifest = {
            "format": STORE_FORMAT,
            "snapshot_seq": last_seq,
            "sidecar_sha256": _sha256_bytes(sidecar_bytes),
        }
        _write_atomic(
            os.path.join(self.directory, self.MANIFEST),
            json.dumps(manifest, sort_keys=True).encode("utf-8"),
        )

        extra_meta = {"identity": json.dumps(identity)}
        for key, value in self.app_meta.items():
            extra_meta[f"app:{key}"] = str(value)
        self.edge_store.write_baseline(graph, last_seq, extra_meta=extra_meta)
        self.log.truncate()
        if self.records_since_compact:
            self.compactions += 1
        self.records_since_compact = 0
        self.saves += 1
        self._drop_stale_snapshots(keep_seq=last_seq)

    def _drop_stale_snapshots(self, keep_seq: int) -> None:
        keep = {f"snapshot-{keep_seq}.npz", f"snapshot-{keep_seq}.json"}
        for entry in os.listdir(self.directory):
            if not entry.startswith("snapshot-") or entry in keep:
                continue
            if entry.endswith((".npz", ".json", ".tmp")):
                with contextlib.suppress(OSError):
                    os.remove(os.path.join(self.directory, entry))

    # ------------------------------------------------------------------
    # snapshot loading
    # ------------------------------------------------------------------
    def load_snapshot(self) -> Tuple[int, dict, Mapping[str, np.ndarray]]:
        """``(seq, meta, arrays)`` of the manifest's snapshot, fully verified.

        Raises:
            SnapshotUnusable: manifest/sidecar/npz missing, checksums broken,
                or the snapshot format is not this build's.
        """
        manifest_path = os.path.join(self.directory, self.MANIFEST)
        try:
            with open(manifest_path, "rb") as handle:
                manifest = json.loads(handle.read().decode("utf-8"))
        except FileNotFoundError:
            raise SnapshotUnusable("no snapshot manifest") from None
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise SnapshotUnusable(f"unreadable manifest: {error}") from None
        if manifest.get("format") != STORE_FORMAT:
            raise SnapshotUnusable(
                f"manifest format {manifest.get('format')} != {STORE_FORMAT}"
            )
        seq = int(manifest["snapshot_seq"])
        npz_path, sidecar_path = self._snapshot_paths(seq)
        try:
            with open(sidecar_path, "rb") as handle:
                sidecar_bytes = handle.read()
        except FileNotFoundError:
            raise SnapshotUnusable(f"missing snapshot sidecar for seq {seq}") from None
        if _sha256_bytes(sidecar_bytes) != manifest.get("sidecar_sha256"):
            raise SnapshotUnusable("snapshot sidecar checksum mismatch")
        sidecar = json.loads(sidecar_bytes.decode("utf-8"))
        if not os.path.exists(npz_path):
            raise SnapshotUnusable(f"missing snapshot arrays for seq {seq}")
        if _sha256_file(npz_path) != sidecar.get("npz_sha256"):
            raise SnapshotUnusable("snapshot array checksum mismatch")
        meta = sidecar["meta"]
        if meta.get("format") != STORE_FORMAT:
            raise SnapshotUnusable(
                f"snapshot format {meta.get('format')} != {STORE_FORMAT}"
            )
        with np.load(npz_path) as archive:
            return seq, meta, {key: archive[key] for key in archive.files}


# ----------------------------------------------------------------------
# recovery
# ----------------------------------------------------------------------
def _usable_log_suffix(
    records: List[LogRecord], baseline_seq: int
) -> Tuple[List[LogRecord], int]:
    """Records past the baseline forming a contiguous run, + extra discards."""
    suffix = [record for record in records if record.seq > baseline_seq]
    usable: List[LogRecord] = []
    expected = baseline_seq + 1
    for record in suffix:
        if record.seq != expected:
            break
        usable.append(record)
        expected += 1
    return usable, len(suffix) - len(usable)


def _advance_graph(graph, records: List[LogRecord]):
    """Replay ``records`` onto ``graph`` exactly as the live engine did.

    ``GraphDelta.apply`` copies then mutates, which is the same path
    ``IncrementalEngine._update_graph`` takes — so the mutation counter
    evolves identically, and each record's stored post-delta version is a
    checksum of the replay.
    """
    for record in records:
        graph = record.to_delta().apply(graph)
        if graph.version != record.graph_version:
            raise SnapshotUnusable(
                f"log record {record.seq}: replayed graph version "
                f"{graph.version} != recorded {record.graph_version}"
            )
    return graph


def restore_engine(directory: str):
    """Rebuild an engine from a store directory.

    Returns ``(engine, report)``.  The warm path resumes bitwise-identical to
    the uninterrupted run; every snapshot defect demotes to cold batch
    initialization on the fully replayed graph (with a warning).  The engine
    comes back attached to the store, so subsequent deltas keep logging.

    Raises:
        StoreError: the directory holds no usable baseline at all.
    """
    from repro.incremental import make_engine

    store = EngineStore(directory)
    try:
        baseline_meta = store.edge_store.baseline_meta()
        identity_raw = baseline_meta.get("identity")
        if identity_raw is None:
            raise StoreError(f"{directory} holds no engine identity")
    except StoreError:
        store.close()
        raise
    baseline_seq = int(baseline_meta.get("last_seq", "0"))
    store.app_meta = {
        key[len("app:") :]: value
        for key, value in baseline_meta.items()
        if key.startswith("app:")
    }
    identity = _current_identity(json.loads(identity_raw))
    spec = _spec_from_identity(identity)
    layph_config = (
        LayphConfig(**identity["layph_config"])
        if identity.get("layph_config") is not None
        else None
    )

    records, discarded = store.log.read()
    usable, extra_discards = _usable_log_suffix(records, baseline_seq)
    discarded += extra_discards
    if discarded or len(records) != len(usable):
        # Drop torn tails and stale pre-baseline records *now*: the log is
        # opened in append mode, and appending after a torn line would put
        # valid records beyond the longest-valid-prefix horizon forever.
        store.log.truncate()
        for record in usable:
            store.log.append(record)

    last_seq = baseline_seq + len(usable)

    try:
        snapshot_seq, meta, arrays = store.load_snapshot()
        if _current_identity(meta.get("identity")) != identity:
            raise SnapshotUnusable("snapshot belongs to a different engine")
        if snapshot_seq != int(meta.get("seq", -1)):
            raise SnapshotUnusable("snapshot sequence disagrees with sidecar")
        if not baseline_seq <= snapshot_seq <= last_seq:
            raise SnapshotUnusable(
                f"snapshot seq {snapshot_seq} outside recoverable range "
                f"[{baseline_seq}, {last_seq}]"
            )
        graph_meta = meta.get("graph")
        if graph_meta is None:
            raise SnapshotUnusable("snapshot holds no graph arrays")
        # the snapshot's own adjacency arrays are the warm path's graph;
        # the SQLite rows back only the demote path (this keeps the warm
        # restore free of the row-by-row edge-list rebuild)
        graph_at = decode_graph_arrays(graph_meta, unpack("graph", arrays))
        if graph_at.version != int(meta["graph_version"]):
            raise SnapshotUnusable(
                f"snapshot graph version {meta['graph_version']} != "
                f"decoded {graph_at.version}"
            )
    except SnapshotUnusable as error:
        warnings.warn(
            f"durable store {directory}: {error}; demoting to cold "
            "batch initialization",
            RuntimeWarning,
            stacklevel=2,
        )
        baseline_graph, _baseline_seq = store.edge_store.load_baseline()
        graph_full = _advance_graph(baseline_graph, usable)
        engine = make_engine(identity["engine"], spec, layph_config)
        engine.initialize(graph_full)
        store.next_seq = last_seq + 1
        store.save(engine)
        engine._store = store
        report = RestoreReport(
            warm=False,
            reason=str(error),
            baseline_seq=baseline_seq,
            snapshot_seq=None,
            replayed_deltas=0,
            discarded_log_records=discarded,
        )
        engine.last_restore_report = report
        return engine, report

    engine = make_engine(identity["engine"], spec, layph_config)
    engine.graph = graph_at
    engine.states = decode_float_map(unpack("states", arrays))
    engine.initial_metrics = _metrics_from_state(meta.get("initial_metrics"))
    for orientation in meta.get("csr", ()):
        csr = decode_factor_csr(unpack(f"csr_{orientation}", arrays))
        engine.csr_cache.install_csr(orientation, engine.spec, graph_at, csr)
    engine._restore_extras(meta.get("extras", {}), unpack("extras", arrays))

    # Replay the log suffix through the *live* path (the store is not
    # attached yet, so replayed deltas cannot double-log).
    replay = usable[snapshot_seq - baseline_seq :]
    for record in replay:
        engine.apply_delta(record.to_delta())

    store.next_seq = last_seq + 1
    store.records_since_compact = len(usable)
    engine._store = store
    report = RestoreReport(
        warm=True,
        reason="snapshot",
        baseline_seq=baseline_seq,
        snapshot_seq=snapshot_seq,
        replayed_deltas=len(replay),
        discarded_log_records=discarded,
    )
    engine.last_restore_report = report
    return engine, report
