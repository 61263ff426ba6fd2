"""Regression tests for the durability hardening around the store.

Three properties, each of which silently held (or silently failed) before it
was made explicit:

* *Directory entries are durable*: after a snapshot ``os.replace`` or a log
  rewrite, the containing directory is fsync'd — a crash right after the
  rename can no longer resurrect the old file name on journaling
  filesystems.
* *Persistence failures degrade, never crash*: an ``OSError`` out of the
  delta log becomes a ``RuntimeWarning`` and the in-memory engine keeps
  working.
* *A torn log append cannot poison the log*: ``CrcLog.append_payload`` rolls
  the file back to the pre-append offset when the write fails partway, so a
  failed append in the *middle* of a session never hides the records
  appended after it from the longest-valid-prefix read.

Plus round-trips for the two fields recovery leans on: ``LogRecord.meta``
annotations and the baseline-folded ``app_meta`` watermark.
"""

from __future__ import annotations

import os

import pytest

from repro.engine.algorithms import make_algorithm
from repro.graph.generators import community_graph
from repro.incremental import make_engine
from repro.storage import edge_store as edge_store_module
from repro.storage import store as store_module
from repro.storage.edge_store import CrcLog, fsync_dir
from repro.storage.store import restore_engine
from repro.workloads.updates import random_edge_delta


def _graph():
    return community_graph(
        num_communities=2,
        community_size_range=(10, 14),
        intra_edge_probability=0.3,
        inter_edges_per_community=3,
        weighted=True,
        seed=13,
    )


def _engine_with_store(tmp_path):
    spec = make_algorithm("sssp", source=0)
    engine = make_engine("kickstarter", spec)
    engine.initialize(_graph())
    store = engine.save(str(tmp_path / "store"))
    return engine, store


# ----------------------------------------------------------------------
# directory fsync
# ----------------------------------------------------------------------
def test_save_fsyncs_store_directory(tmp_path, monkeypatch):
    synced = []
    monkeypatch.setattr(
        store_module, "fsync_dir", lambda path: synced.append(os.path.abspath(path))
    )
    engine, store = _engine_with_store(tmp_path)
    synced.clear()
    store.save(engine)
    assert os.path.abspath(store.directory) in synced


def test_log_truncate_fsyncs_directory(tmp_path, monkeypatch):
    synced = []
    monkeypatch.setattr(
        edge_store_module,
        "fsync_dir",
        lambda path: synced.append(os.path.abspath(path)),
    )
    log = CrcLog(str(tmp_path / "probe.log"))
    try:
        log.append_payload({"n": 1})
        log.truncate()
    finally:
        log.close()
    assert os.path.abspath(str(tmp_path)) in synced


def test_fsync_dir_swallows_oserror(tmp_path):
    # a directory that cannot be opened must not raise out of fsync_dir
    fsync_dir(str(tmp_path / "no-such-subdir"))


# ----------------------------------------------------------------------
# OSError degradation
# ----------------------------------------------------------------------
def test_apply_delta_survives_log_oserror(tmp_path, monkeypatch):
    engine, store = _engine_with_store(tmp_path)

    def broken_log_delta(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(store, "log_delta", broken_log_delta)
    delta = random_edge_delta(engine.graph, 3, 2, seed=3, protect=0)
    before = dict(engine.states)
    with pytest.warns(RuntimeWarning, match="delta applied in memory only"):
        engine.apply_delta(delta)
    assert engine.states != before or engine.graph is not None  # still alive
    # the engine keeps serving further deltas without a store write
    with pytest.warns(RuntimeWarning, match="delta applied in memory only"):
        engine.apply_delta(random_edge_delta(engine.graph, 2, 1, seed=4, protect=0))


# ----------------------------------------------------------------------
# torn-append rollback
# ----------------------------------------------------------------------
class _PartialWriteFile:
    """Proxy that writes half of one record then fails, like a full disk."""

    def __init__(self, real):
        self._real = real
        self.break_next = False

    def write(self, data):
        if self.break_next:
            self.break_next = False
            self._real.write(data[: max(1, len(data) // 2)])
            self._real.flush()
            raise OSError(28, "No space left on device")
        return self._real.write(data)

    def __getattr__(self, name):
        return getattr(self._real, name)


def test_failed_append_rolls_back_partial_line(tmp_path):
    path = str(tmp_path / "torn.log")
    log = CrcLog(path)
    try:
        log.append_payload({"n": 1})
        proxy = _PartialWriteFile(log._file)
        log._file = proxy
        proxy.break_next = True
        with pytest.raises(OSError):
            log.append_payload({"n": 2})
        # the half-written line was truncated away, so the next append
        # starts on a clean boundary and stays readable
        log.append_payload({"n": 3})
        payloads, discarded = log.read_payloads()
    finally:
        log.close()
    assert payloads == [{"n": 1}, {"n": 3}]
    assert discarded == 0


# ----------------------------------------------------------------------
# recovery metadata round-trips
# ----------------------------------------------------------------------
def test_log_record_meta_roundtrips(tmp_path):
    engine, store = _engine_with_store(tmp_path)
    delta = random_edge_delta(engine.graph, 3, 2, seed=9, protect=0)
    engine.apply_delta(delta, log_meta={"events": [11, 18]})
    records, discarded = store.log.read()
    assert discarded == 0
    assert records[-1].meta == {"events": [11, 18]}
    # records logged without meta stay meta-less
    engine.apply_delta(random_edge_delta(engine.graph, 2, 1, seed=10, protect=0))
    records, _ = store.log.read()
    assert records[-1].meta is None


def test_app_meta_survives_baseline_fold(tmp_path):
    engine, store = _engine_with_store(tmp_path)
    store.app_meta["applied_event_seq"] = "42"
    store.save(engine)
    store.close()
    restored, report = restore_engine(str(tmp_path / "store"))
    try:
        assert report.warm, report.reason
        assert restored._store.app_meta["applied_event_seq"] == "42"
    finally:
        restored._store.close()
