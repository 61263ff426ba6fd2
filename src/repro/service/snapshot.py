"""Immutable versioned state snapshots for the service's read path.

Queries must never block on propagation and never observe torn state.  The
writer publishes a fresh :class:`StateSnapshot` after every applied batch by
a single reference assignment (atomic under the GIL); readers grab the
current reference and keep using it for as long as they like — nothing the
writer does afterwards mutates it:

* ``states`` is a fresh dict copy made at publish time (engines rebind and
  mutate their own ``states`` dict on the next apply, they never reach into
  a published copy);
* ``csr`` is the engine's current :class:`FactorCSR` — safe to share
  because :mod:`repro.graph.csr_cache` *patches by replacement*: applying a
  delta allocates new arrays and installs a new entry, leaving every
  previously handed-out CSR frozen (copy-on-write at the cache layer);
* ``checksum`` fingerprints the states at publish time, so a reader (or the
  chaos harness) can prove the snapshot it read was internally consistent —
  a torn read would mix entries from two versions and break the digest.
"""

from __future__ import annotations

import heapq
import struct
import time
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np


def states_checksum(seq: int, graph_version: int, states: Dict[int, float]) -> str:
    """Order-independent CRC32 digest of ``(seq, graph_version, states)``."""
    crc = zlib.crc32(struct.pack("<qq", seq, graph_version))
    for vertex in sorted(states):
        crc = zlib.crc32(
            struct.pack("<qd", vertex, states[vertex]), crc
        )
    return f"{crc & 0xFFFFFFFF:08x}"


@dataclass(frozen=True)
class StateSnapshot:
    """One published, immutable version of the computation's result."""

    #: WAL sequence number of the last event folded into this snapshot
    seq: int
    #: the engine graph's mutation counter at publish time
    graph_version: int
    #: vertex -> state value (treat as frozen; the writer never mutates it)
    states: Dict[int, float]
    #: the engine's out-edge factor CSR at publish time, when one was
    #: compiled (``None`` when only the reference loops ran)
    csr: Optional[object]
    #: events quarantined to the dead-letter queue so far
    quarantined: int
    #: monotonic publish timestamp (staleness diagnostics)
    published_at: float = field(default_factory=time.monotonic)
    #: digest of (seq, graph_version, states); ``verify()`` recomputes it
    checksum: str = ""
    #: lazily built ``(ids, values)`` arrays for vectorized diffing; the
    #: dict is the mutable cache slot a frozen dataclass is allowed to fill
    _cache: Dict[str, Tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict, repr=False, compare=False
    )

    @classmethod
    def capture(
        cls,
        seq: int,
        graph_version: int,
        states: Dict[int, float],
        csr: Optional[object],
        quarantined: int,
    ) -> "StateSnapshot":
        copied = dict(states)
        return cls(
            seq=seq,
            graph_version=graph_version,
            states=copied,
            csr=csr,
            quarantined=quarantined,
            checksum=states_checksum(seq, graph_version, copied),
        )

    def verify(self) -> bool:
        """Recompute the digest; ``False`` means the snapshot was torn."""
        return (
            states_checksum(self.seq, self.graph_version, self.states)
            == self.checksum
        )

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(ids, values)`` arrays over ``states`` in iteration order.

        Built once on first use and cached, so the subscription diff pays
        the dict-to-array conversion a single time per snapshot no matter
        how many subscribers consume it.  Two snapshots from the same
        engine without vertex churn iterate in the same order, which is
        what makes the aligned vectorized compare in
        :func:`repro.service.subscriptions.snapshot_diff` valid.
        """
        cached = self._cache.get("arrays")
        if cached is None:
            ids = np.fromiter(self.states.keys(), dtype=np.int64, count=len(self.states))
            values = np.fromiter(
                self.states.values(), dtype=np.float64, count=len(self.states)
            )
            cached = (ids, values)
            self._cache["arrays"] = cached
        return cached

    # ------------------------------------------------------------------
    # point / top-k queries
    # ------------------------------------------------------------------
    def value(self, vertex: int, default: Optional[float] = None) -> Optional[float]:
        """The state of ``vertex`` in this version."""
        return self.states.get(vertex, default)

    def top_k(self, k: int, largest: bool = True) -> List[Tuple[int, float]]:
        """The ``k`` most extreme ``(vertex, value)`` pairs, deterministically.

        ``largest=True`` ranks by descending value (PageRank-style
        influence); ``largest=False`` by ascending value (SSSP-style
        nearest).  Ties break on vertex id so equal-valued vertices always
        come back in the same order.
        """
        if largest:
            return heapq.nsmallest(
                k, self.states.items(), key=lambda item: (-item[1], item[0])
            )
        return heapq.nsmallest(k, self.states.items(), key=lambda item: (item[1], item[0]))
