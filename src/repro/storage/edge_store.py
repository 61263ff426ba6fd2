"""Durable edge store: SQLite baseline + append-only crash-safe delta log.

Two complementary halves, mirroring the storage strategy in ROADMAP/SNIPPETS:

* :class:`DurableEdgeStore` — the *queryable* half.  One SQLite database
  holds the live edge list of the baseline graph plus a small ``meta``
  key/value table.  SQLite ``REAL`` columns are 8-byte IEEE doubles, so edge
  weights round-trip bit-exactly.  The adjacency **insertion orders** of
  :class:`repro.graph.graph.Graph` are load-bearing (in-CSR slot order drives
  the bitwise-reproducible float sums of the accumulative engines), so the
  tables store an explicit ``position`` column for the ``_out``-key order,
  the ``edges()`` order and the ``_in`` traversal order, and the rebuild
  reconstructs both adjacency dicts in exactly the saved order.
* :class:`DeltaLog` — the *crash-safe* half.  One JSON line per applied
  :class:`repro.graph.delta.GraphDelta`, guarded by a CRC32 prefix, flushed
  and ``fsync``'d before ``apply_delta`` returns.  The reader accepts the
  longest valid prefix and discards a torn tail (a crash mid-write loses at
  most the unacknowledged record — exactly the write-ahead guarantee).
"""

from __future__ import annotations

import json
import os
import sqlite3
import zlib
from dataclasses import dataclass

import numpy as np
from typing import Dict, List, Optional, Tuple

from repro.graph.delta import GraphDelta
from repro.graph.graph import Graph

#: bumped when the on-disk layout changes incompatibly
STORE_FORMAT = 1


class StoreError(RuntimeError):
    """A store directory is missing, incomplete or unreadable."""


def fsync_dir(path: str) -> None:
    """``fsync`` a directory so renames/creates/truncates in it are durable.

    ``os.replace`` and ``open(..., "wb")`` make the *data* durable once the
    file itself is fsync'd, but the directory entry pointing at it lives in
    the directory inode — without this, a crash right after a log rewrite or
    snapshot rename can resurrect the old name.  Best-effort: platforms or
    filesystems that refuse to fsync a directory fd are silently skipped.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _fill_grouped_rows(rows, dest: Dict[int, Dict[int, float]]) -> None:
    """Rebuild adjacency dicts from grouped ``(key, neighbor, weight)`` rows.

    The rows were written in one contiguous run per key (``Graph.edges()``
    emits per-source runs, the in-edge dump per-target runs), so the rebuild
    transposes the row list once (C speed), finds the run boundaries with one
    array compare, and materialises each adjacency row as ``dict(zip(...))``
    over tuple slices — no Python-level work per edge.  This is the hot path
    of a warm restore; the naive one-store-per-row loop is ~5x slower on the
    100k-edge benchmark graph.
    """
    if not rows:
        return
    keys, neighbors, weights = zip(*rows)
    key_array = np.fromiter(keys, np.int64, count=len(keys))
    breaks = np.flatnonzero(key_array[1:] != key_array[:-1]) + 1
    starts = (0, *breaks.tolist(), len(keys))
    for i in range(len(starts) - 1):
        lo, hi = starts[i], starts[i + 1]
        dest[keys[lo]] = dict(zip(neighbors[lo:hi], weights[lo:hi]))


# ----------------------------------------------------------------------
# SQLite baseline
# ----------------------------------------------------------------------
class DurableEdgeStore:
    """SQLite-backed baseline of the live edge list (order-preserving).

    Schema::

        meta(key TEXT PRIMARY KEY, value TEXT)
        vertices(position INTEGER PRIMARY KEY, vertex INTEGER)
        edges(position INTEGER PRIMARY KEY, source INTEGER,
              target INTEGER, weight REAL)
        in_edges(position INTEGER PRIMARY KEY, target INTEGER, source INTEGER)

    ``meta`` carries the store format, the graph's ``directed`` flag and
    mutation counter, the sequence number of the last compacted delta and
    the engine identity (enough to rebuild the engine even when every other
    store file is lost).
    """

    def __init__(self, path: str) -> None:
        self.path = path
        # the store has a single owner at any moment, but ownership moves
        # between threads (the service constructs it on the caller thread,
        # then its writer thread applies and compacts) — sqlite's same-thread
        # check would reject that handoff even though access never overlaps
        self._connection = sqlite3.connect(path, check_same_thread=False)
        self._ensure_schema()

    def close(self) -> None:
        self._connection.close()

    def _ensure_schema(self) -> None:
        cursor = self._connection.cursor()
        cursor.execute(
            "CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT)"
        )
        cursor.execute(
            "CREATE TABLE IF NOT EXISTS vertices "
            "(position INTEGER PRIMARY KEY, vertex INTEGER NOT NULL)"
        )
        cursor.execute(
            "CREATE TABLE IF NOT EXISTS edges "
            "(position INTEGER PRIMARY KEY, source INTEGER NOT NULL, "
            "target INTEGER NOT NULL, weight REAL NOT NULL)"
        )
        cursor.execute(
            "CREATE TABLE IF NOT EXISTS in_edges "
            "(position INTEGER PRIMARY KEY, target INTEGER NOT NULL, "
            "source INTEGER NOT NULL, weight REAL NOT NULL)"
        )
        self._connection.commit()

    # ------------------------------------------------------------------
    # meta
    # ------------------------------------------------------------------
    def meta_dict(self) -> Dict[str, str]:
        """Every ``meta`` key/value pair."""
        return dict(self._connection.execute("SELECT key, value FROM meta"))

    # ------------------------------------------------------------------
    # baseline write/read
    # ------------------------------------------------------------------
    def write_baseline(
        self, graph: Graph, last_seq: int, extra_meta: Optional[Dict[str, str]] = None
    ) -> None:
        """Replace the baseline with ``graph`` in one transaction.

        ``last_seq`` is the sequence number of the last delta folded into the
        baseline (0 for the initial graph); log records at or below it are
        skipped during recovery, which is what makes a crash between the
        baseline commit and the log truncation harmless.
        """
        connection = self._connection
        cursor = connection.cursor()
        try:
            cursor.execute("BEGIN")
            cursor.execute("DELETE FROM vertices")
            cursor.execute("DELETE FROM edges")
            cursor.execute("DELETE FROM in_edges")
            cursor.executemany(
                "INSERT INTO vertices (position, vertex) VALUES (?, ?)",
                list(enumerate(graph.vertices())),
            )
            cursor.executemany(
                "INSERT INTO edges (position, source, target, weight) "
                "VALUES (?, ?, ?, ?)",
                [
                    (position, source, target, weight)
                    for position, (source, target, weight) in enumerate(graph.edges())
                ],
            )
            in_rows: List[Tuple[int, int, int, float]] = []
            for target in graph.vertices():
                for source, weight in graph.in_neighbors(target).items():
                    in_rows.append((len(in_rows), target, source, weight))
            cursor.executemany(
                "INSERT INTO in_edges (position, target, source, weight) "
                "VALUES (?, ?, ?, ?)",
                in_rows,
            )
            meta = {
                "format": str(STORE_FORMAT),
                "directed": "1" if graph.directed else "0",
                "graph_version": str(graph.version),
                "last_seq": str(last_seq),
            }
            if extra_meta:
                meta.update(extra_meta)
            cursor.executemany(
                "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                list(meta.items()),
            )
            connection.commit()
        except BaseException:
            connection.rollback()
            raise

    def baseline_meta(self) -> Dict[str, str]:
        """The format-validated ``meta`` table of a written baseline.

        Raises:
            StoreError: no baseline was ever written, or it was written by an
                incompatible store format.
        """
        meta = self.meta_dict()
        if "format" not in meta:
            raise StoreError(f"{self.path} holds no baseline")
        stored_format = int(meta["format"])
        if stored_format != STORE_FORMAT:
            raise StoreError(
                f"baseline format {stored_format} != supported {STORE_FORMAT}"
            )
        return meta

    def load_baseline(self) -> Tuple[Graph, int]:
        """Rebuild ``(graph, last_seq)`` from the baseline tables.

        The adjacency dicts are reconstructed in the exact saved insertion
        orders and the graph's mutation counter is restored, so the rebuilt
        object is interchangeable with the live one for every order- and
        version-sensitive consumer (CSR compiles, cache staleness checks).
        """
        meta = self.baseline_meta()
        directed = meta.get("directed", "1") == "1"
        out_rows: Dict[int, Dict[int, float]] = {}
        in_rows: Dict[int, Dict[int, float]] = {}
        for (vertex,) in self._connection.execute(
            "SELECT vertex FROM vertices ORDER BY position"
        ):
            out_rows[vertex] = {}
            in_rows[vertex] = {}
        _fill_grouped_rows(
            self._connection.execute(
                "SELECT source, target, weight FROM edges ORDER BY position"
            ).fetchall(),
            out_rows,
        )
        _fill_grouped_rows(
            self._connection.execute(
                "SELECT target, source, weight FROM in_edges ORDER BY position"
            ).fetchall(),
            in_rows,
        )
        graph = Graph.from_adjacency_order(
            directed, out_rows, in_rows, version=int(meta.get("graph_version", "0"))
        )
        return graph, int(meta.get("last_seq", "0"))

    # ------------------------------------------------------------------
    # point queries (the "SQLite for the queryable graph" story)
    # ------------------------------------------------------------------
    def num_vertices(self) -> int:
        """Number of vertices in the baseline."""
        return self._connection.execute("SELECT COUNT(*) FROM vertices").fetchone()[0]

    def num_edges(self) -> int:
        """Number of directed edges in the baseline."""
        return self._connection.execute("SELECT COUNT(*) FROM edges").fetchone()[0]

    def has_edge(self, source: int, target: int) -> bool:
        """Whether the baseline holds edge ``source -> target``."""
        row = self._connection.execute(
            "SELECT 1 FROM edges WHERE source = ? AND target = ? LIMIT 1",
            (source, target),
        ).fetchone()
        return row is not None

    def edge_weight(self, source: int, target: int) -> float:
        """Baseline weight of ``source -> target``.

        Raises:
            KeyError: if the edge is not in the baseline.
        """
        row = self._connection.execute(
            "SELECT weight FROM edges WHERE source = ? AND target = ?",
            (source, target),
        ).fetchone()
        if row is None:
            raise KeyError(f"edge ({source}, {target}) not in baseline")
        return row[0]

    def out_edges_of(self, vertex: int) -> List[Tuple[int, float]]:
        """Baseline out-edges of ``vertex`` in stored adjacency order."""
        return [
            (target, weight)
            for target, weight in self._connection.execute(
                "SELECT target, weight FROM edges WHERE source = ? ORDER BY position",
                (vertex,),
            )
        ]


# ----------------------------------------------------------------------
# append-only CRC log (shared by the delta log and the service event WAL)
# ----------------------------------------------------------------------
class CrcLog:
    """Append-only JSONL log with per-record CRC and fsync.

    Line format: ``<crc32 hex> <payload json>\\n`` where the CRC covers the
    payload bytes.  ``append_payload`` flushes and ``fsync``s before
    returning, so an acknowledged record survives a crash;
    ``read_payloads`` returns the longest valid record prefix and the number
    of discarded (torn or corrupt) tail lines.  Subclasses add record typing
    and ordering rules on top (:class:`DeltaLog` here,
    :class:`repro.service.events.EventLog` for the service WAL).
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._file = open(path, "ab")

    def close(self) -> None:
        self._file.close()

    def append_payload(self, payload: dict) -> None:
        """Durably append one JSON payload (flush + fsync).

        On an ``OSError`` (disk full) the partially written line is truncated
        away before re-raising: a torn line in the *middle* of the log would
        otherwise hide every later record from the longest-valid-prefix read,
        turning one transient failure into permanent data loss.
        """
        data = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        line = b"%08x %s\n" % (zlib.crc32(data) & 0xFFFFFFFF, data)
        offset = self._file.tell()
        try:
            self._file.write(line)
            self._file.flush()
            os.fsync(self._file.fileno())
        except OSError:
            try:
                self._file.truncate(offset)
                self._file.flush()
            except OSError:
                pass
            raise

    def read_payloads(self) -> Tuple[List[dict], int]:
        """``(payloads, discarded)``: the valid prefix and dropped tail lines.

        Reading stops at the first torn or corrupt line; every line from
        there on counts as discarded (a torn record can only be the tail of a
        crashed write, so nothing after it was acknowledged).
        """
        payloads: List[dict] = []
        discarded = 0
        try:
            with open(self.path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            return payloads, discarded
        lines = raw.split(b"\n")
        # a trailing newline leaves one empty chunk; it is not a torn record
        if lines and lines[-1] == b"":
            lines.pop()
        valid = True
        for line in lines:
            if valid:
                payload = self._parse_payload(line)
                if payload is not None:
                    payloads.append(payload)
                    continue
                valid = False
            discarded += 1
        return payloads, discarded

    @staticmethod
    def _parse_payload(line: bytes) -> Optional[dict]:
        if b" " not in line:
            return None
        prefix, payload = line.split(b" ", 1)
        try:
            expected = int(prefix, 16)
        except ValueError:
            return None
        if zlib.crc32(payload) & 0xFFFFFFFF != expected:
            return None
        try:
            body = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None
        return body if isinstance(body, dict) else None

    def truncate(self) -> None:
        """Drop every record, durably (file rewrite + directory fsync)."""
        self._file.close()
        self._file = open(self.path, "wb")
        self._file.flush()
        os.fsync(self._file.fileno())
        fsync_dir(os.path.dirname(os.path.abspath(self.path)))


# ----------------------------------------------------------------------
# append-only delta log
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LogRecord:
    """One durable delta: sequence number, post-delta graph version, payload.

    ``meta`` is an optional application-level annotation carried verbatim
    (the streaming service stamps the WAL event range each delta covers, so
    recovery knows the exact replay floor without a separate applied-marker
    file).
    """

    seq: int
    graph_version: int
    delta: dict
    meta: Optional[dict] = None

    def to_delta(self) -> GraphDelta:
        """Materialise the payload back into a :class:`GraphDelta`."""
        return GraphDelta.from_payload(self.delta)


class DeltaLog(CrcLog):
    """Append-only JSONL delta log: :class:`CrcLog` + contiguous sequencing.

    ``read`` additionally stops at the first out-of-order sequence number, so
    the returned records always form one contiguous run.
    """

    def append(self, record: LogRecord) -> None:
        """Durably append one record (flush + fsync)."""
        payload = {
            "seq": record.seq,
            "graph_version": record.graph_version,
            "delta": record.delta,
        }
        if record.meta is not None:
            payload["meta"] = record.meta
        self.append_payload(payload)

    def read(self) -> Tuple[List[LogRecord], int]:
        """``(records, discarded)``: the valid prefix and dropped tail lines."""
        payloads, discarded = self.read_payloads()
        records: List[LogRecord] = []
        for index, body in enumerate(payloads):
            record = self._parse_record(body)
            if record is None or (records and record.seq != records[-1].seq + 1):
                discarded += len(payloads) - index
                break
            records.append(record)
        return records, discarded

    @staticmethod
    def _parse_record(body: dict) -> Optional[LogRecord]:
        try:
            meta = body.get("meta")
            return LogRecord(
                seq=int(body["seq"]),
                graph_version=int(body["graph_version"]),
                delta=body["delta"],
                meta=dict(meta) if meta is not None else None,
            )
        except (KeyError, TypeError, ValueError):
            return None
