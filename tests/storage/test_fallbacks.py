"""Corruption and escape-hatch behavior of the durable store.

Every snapshot defect — flipped bytes in the ``.npz``, a tampered sidecar, a
missing manifest, a format bump, an identity swap — must degrade *cleanly*:
``restore_engine`` surfaces a :class:`RuntimeWarning`, demotes to cold batch
initialization on the fully replayed graph (so no logged delta is ever lost),
and records the path in the returned :class:`RestoreReport`.  A demote is
never allowed to crash, and the demoted engine must equal a from-scratch
engine on the same graph bitwise.

Log corruption is softer still: torn or garbage tail lines are discarded by
the longest-valid-prefix read, the log is rewritten clean, and recovery stays
*warm* at the last intact record.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import shutil

import pytest

from repro.engine.algorithms import make_algorithm
from repro.graph.generators import community_graph
from repro.incremental import make_engine
from repro.storage.edge_store import StoreError
from repro.storage.store import restore_engine
from repro.workloads.updates import random_edge_delta

NUM_DELTAS = 5


def _graph():
    return community_graph(
        num_communities=3,
        community_size_range=(12, 18),
        intra_edge_probability=0.25,
        inter_edges_per_community=3,
        weighted=True,
        seed=7,
    )


@pytest.fixture()
def populated_store(tmp_path):
    """A reference engine with an attached store and a few logged deltas."""
    spec = make_algorithm("sssp", source=0)
    engine = make_engine("kickstarter", spec)
    engine.initialize(_graph())
    store_dir = tmp_path / "store"
    engine.save(str(store_dir))  # NUM_DELTAS < COMPACT_EVERY: every record stays logged
    for step in range(NUM_DELTAS):
        engine.apply_delta(
            random_edge_delta(engine.graph, 3, 2, seed=50 + step, protect=0)
        )
    return engine, store_dir


def _assert_demotes(store_dir, reason_fragment, reference):
    """Restore must warn, demote, and land on the reference's exact graph."""
    with pytest.warns(RuntimeWarning, match="demoting to cold"):
        engine, report = restore_engine(str(store_dir))
    assert report.warm is False
    assert reason_fragment in report.reason
    assert report.snapshot_seq is None
    assert engine.last_restore_report is report
    # no logged delta was lost: the demote replayed the full log first
    assert list(engine.graph.edges()) == list(reference.graph.edges())
    # the demoted engine is a clean cold start on that graph — bitwise equal
    # to a from-scratch engine
    cold = make_engine("kickstarter", make_algorithm("sssp", source=0))
    cold.initialize(reference.graph)
    assert engine.states == cold.states
    # the demote path re-saved a fresh snapshot, so the *next* restore is warm
    assert engine._store is not None
    assert engine._store.saves >= 1
    again, report2 = restore_engine(str(store_dir))
    assert report2.warm, report2.reason
    assert again.states == engine.states
    return engine, report


# ----------------------------------------------------------------------
# snapshot defects: each one demotes, none crashes
# ----------------------------------------------------------------------
def test_corrupt_npz_demotes_to_cold_init(populated_store):
    reference, store_dir = populated_store
    npz_path = glob.glob(str(store_dir / "snapshot-*.npz"))[0]
    data = bytearray(open(npz_path, "rb").read())
    data[len(data) // 2] ^= 0xFF
    open(npz_path, "wb").write(bytes(data))
    _assert_demotes(store_dir, "array checksum mismatch", reference)


def test_tampered_sidecar_demotes(populated_store):
    reference, store_dir = populated_store
    sidecar_path = glob.glob(str(store_dir / "snapshot-*.json"))[0]
    sidecar = json.loads(open(sidecar_path, "rb").read())
    sidecar["npz_sha256"] = "0" * 64
    open(sidecar_path, "wb").write(json.dumps(sidecar).encode())
    _assert_demotes(store_dir, "sidecar checksum mismatch", reference)


def test_missing_manifest_demotes(populated_store):
    reference, store_dir = populated_store
    os.remove(store_dir / "MANIFEST.json")
    _assert_demotes(store_dir, "no snapshot manifest", reference)


def test_missing_npz_demotes(populated_store):
    reference, store_dir = populated_store
    os.remove(glob.glob(str(store_dir / "snapshot-*.npz"))[0])
    _assert_demotes(store_dir, "missing snapshot arrays", reference)


def test_format_version_bump_demotes(populated_store):
    """A snapshot written by a future store format is not trusted."""
    reference, store_dir = populated_store
    manifest_path = store_dir / "MANIFEST.json"
    manifest = json.loads(open(manifest_path, "rb").read())
    manifest["format"] = 999
    open(manifest_path, "wb").write(json.dumps(manifest, sort_keys=True).encode())
    _assert_demotes(store_dir, "format 999", reference)


def test_identity_mismatch_demotes(populated_store):
    """A (checksum-valid) snapshot of a different engine is rejected."""
    reference, store_dir = populated_store
    sidecar_path = glob.glob(str(store_dir / "snapshot-*.json"))[0]
    sidecar = json.loads(open(sidecar_path, "rb").read())
    sidecar["meta"]["identity"]["engine"] = "risgraph"
    sidecar_bytes = json.dumps(sidecar, sort_keys=True).encode()
    open(sidecar_path, "wb").write(sidecar_bytes)
    manifest_path = store_dir / "MANIFEST.json"
    manifest = json.loads(open(manifest_path, "rb").read())
    manifest["sidecar_sha256"] = hashlib.sha256(sidecar_bytes).hexdigest()
    open(manifest_path, "wb").write(json.dumps(manifest, sort_keys=True).encode())
    _assert_demotes(store_dir, "different engine", reference)


# ----------------------------------------------------------------------
# log corruption: discard the tail, stay warm, rewrite the log clean
# ----------------------------------------------------------------------
def _log_line_count(store_dir):
    return len((store_dir / "delta.log").read_bytes().splitlines())


def test_garbage_log_tail_is_discarded_and_rewritten(populated_store):
    reference, store_dir = populated_store
    log_path = store_dir / "delta.log"
    with open(log_path, "ab") as handle:
        handle.write(b"\x00\xffnot a log record")  # torn append, no newline
    engine, report = restore_engine(str(store_dir))
    assert report.warm
    assert report.discarded_log_records == 1
    assert report.replayed_deltas == NUM_DELTAS
    assert engine.states == reference.states
    # the log was rewritten without the garbage: a second restore is clean
    assert _log_line_count(store_dir) == NUM_DELTAS
    _again, report2 = restore_engine(str(store_dir))
    assert report2.warm
    assert report2.discarded_log_records == 0


def test_corrupted_log_crc_discards_that_record(populated_store):
    reference, store_dir = populated_store
    log_path = store_dir / "delta.log"
    lines = log_path.read_bytes().splitlines(keepends=True)
    # flip one payload byte of the last record: its CRC no longer matches
    last = bytearray(lines[-1])
    last[20] ^= 0x01
    log_path.write_bytes(b"".join(lines[:-1]) + bytes(last))
    engine, report = restore_engine(str(store_dir))
    assert report.warm
    assert report.discarded_log_records == 1
    assert report.replayed_deltas == NUM_DELTAS - 1


def test_empty_directory_raises_store_error(tmp_path):
    """No baseline at all is a hard error, not a silent empty engine."""
    with pytest.raises(StoreError, match="no baseline"):
        restore_engine(str(tmp_path))


# ----------------------------------------------------------------------
# save-order crash windows: a kill between save steps stays recoverable
# ----------------------------------------------------------------------
def test_kill_between_snapshot_and_baseline_recovers(populated_store, tmp_path):
    """Simulate dying after the manifest write but before the SQLite fold.

    That on-disk state is: new snapshot at seq N, baseline still at an older
    seq, log still holding every record — exactly what the save order
    guarantees.  Recovery must reach the snapshot by replaying the log prefix
    and stay warm.
    """
    reference, store_dir = populated_store
    # build the "half-saved" directory: take the live store (snapshot at the
    # initial save, log holding all NUM_DELTAS records) — this *is* the
    # pre-baseline window for the compaction that would come next
    work = tmp_path / "window"
    shutil.copytree(store_dir, work)
    engine, report = restore_engine(str(work))
    assert report.warm
    assert report.baseline_seq == 0
    assert report.snapshot_seq == 0
    assert report.replayed_deltas == NUM_DELTAS
    assert engine.states == reference.states
