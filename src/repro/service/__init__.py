"""Fault-tolerant streaming update service around the incremental engines.

``UpdateService`` turns any initialized :class:`IncrementalEngine` into a
long-running update/query server: WAL-backed ingestion with exactly-once
acknowledgement, a coalescing single-writer apply loop with watchdog,
retries and bisect-and-quarantine, immutable versioned snapshots on the
read path, and crash recovery from the service directory.

``repro.service.net`` puts that API on the network — a threaded HTTP/1.1
front end on the standard library's ``http.server`` and ``http.client``
(``serve()`` / ``ServiceServer`` / ``ServiceClient``) with idempotent
submits, 429 backpressure, and push subscriptions (``SubscriptionRegistry``)
delivering snapshot-diff deltas over long-poll and chunked streams.
"""

from repro.service.coalescer import (
    FIG10_BATCH_SIZES,
    AdaptiveBatchSizer,
    coalesce_edge_run,
    segment_events,
)
from repro.service.events import Event, EventLog, update_from_payload, update_payload
from repro.service.faults import (
    NO_FAULTS,
    STAGES,
    FaultInjector,
    ServiceDead,
    ServiceKilled,
    ServiceOverloaded,
)
from repro.service.net import (
    HttpError,
    ServiceClient,
    ServiceServer,
    serve,
    value_from_wire,
    wire_value,
)
from repro.service.service import (
    ApplyTimeout,
    DeadLetterQueue,
    QuarantinedEvent,
    ServiceStats,
    UpdateService,
)
from repro.service.snapshot import StateSnapshot, states_checksum
from repro.service.subscriptions import (
    Subscription,
    SubscriptionEvicted,
    SubscriptionRegistry,
    snapshot_diff,
)

__all__ = [
    "AdaptiveBatchSizer",
    "ApplyTimeout",
    "DeadLetterQueue",
    "Event",
    "EventLog",
    "FIG10_BATCH_SIZES",
    "FaultInjector",
    "HttpError",
    "NO_FAULTS",
    "QuarantinedEvent",
    "STAGES",
    "ServiceClient",
    "ServiceDead",
    "ServiceKilled",
    "ServiceOverloaded",
    "ServiceServer",
    "ServiceStats",
    "StateSnapshot",
    "Subscription",
    "SubscriptionEvicted",
    "SubscriptionRegistry",
    "UpdateService",
    "coalesce_edge_run",
    "segment_events",
    "serve",
    "snapshot_diff",
    "states_checksum",
    "update_from_payload",
    "update_payload",
    "value_from_wire",
    "wire_value",
]
