"""Fault injection for the streaming update service.

The chaos harness (``tests/service/test_chaos.py``) needs to break the
service at *exact* pipeline stages, deterministically.  Rather than
scattering test-only conditionals through the service, the service calls
``faults.fire(stage, ...)`` at every stage boundary and an armed
:class:`FaultInjector` decides whether that crossing raises, blocks or
passes.  Production runs use the inert default injector (every ``fire`` is a
no-op dict lookup on an empty table).

Stages, in pipeline order:

``pre_wal_append``/``post_wal_append``
    Around the WAL fsync inside ``submit`` — the two sides of the
    acknowledgement boundary.  A kill before the append loses the event (the
    client never got an ack, so it must resubmit); a kill after must *not*
    lose it (recovery replays the WAL).
``pre_apply``
    In the writer, after a batch validated but before the engine runs.
``mid_apply``
    Inside the apply itself, after the watchdog started but before the
    engine mutated anything — the spot where transient I/O faults, stuck
    propagations and hard kills are simulated.
``pre_publish``/``post_publish``
    Around the atomic snapshot swap: a kill between apply and publish leaves
    durable state ahead of the published snapshot, which recovery must
    reconcile.

Actions: an exception *instance or class* to raise (:class:`ServiceKilled`
simulates a process death; ``OSError`` simulates a transient), or a
callable run at the crossing (blocking callables simulate stuck batches for
the watchdog).
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional

STAGES = (
    "pre_wal_append",
    "post_wal_append",
    "pre_apply",
    "mid_apply",
    "pre_publish",
    "post_publish",
)


class ServiceKilled(RuntimeError):
    """Simulated process death: the service instance is dead, state on disk
    is whatever the crash left behind, and recovery must start from the
    store directory (``UpdateService.recover``)."""


class ServiceDead(RuntimeError):
    """The service was killed or closed; no further calls are accepted."""


class ServiceOverloaded(RuntimeError):
    """The bounded ingest queue stayed full past the submit timeout."""


class _Arm:
    def __init__(
        self,
        stage: str,
        action,
        when: Optional[Callable[[dict], bool]],
        times: int,
    ) -> None:
        self.stage = stage
        self.action = action
        self.when = when
        self.remaining = times

    def matches(self, context: dict) -> bool:
        if self.remaining <= 0:
            return False
        if self.when is not None and not self.when(context):
            return False
        return True


class FaultInjector:
    """Armed faults, fired at stage crossings.

    ``arm(stage, action, when=..., times=...)`` registers a fault;
    ``fire(stage, **context)`` triggers the first matching arm (decrementing
    its budget).  ``when`` receives the context dict the service passes
    (event/batch sequence numbers, attempt counts) so a fault can target
    "the batch containing event 100" precisely.
    """

    def __init__(self) -> None:
        self._arms: Dict[str, List[_Arm]] = {}
        self._lock = threading.Lock()
        #: every fired (stage, context) pair, for harness assertions
        self.fired: List[tuple] = []

    def arm(
        self,
        stage: str,
        action,
        when: Optional[Callable[[dict], bool]] = None,
        times: int = 1,
    ) -> None:
        if stage not in STAGES:
            raise ValueError(f"unknown stage {stage!r} (expected one of {STAGES})")
        with self._lock:
            self._arms.setdefault(stage, []).append(_Arm(stage, action, when, times))

    def fire(self, stage: str, **context) -> None:
        arms = self._arms.get(stage)
        if not arms:
            return
        with self._lock:
            arm = next((a for a in arms if a.matches(context)), None)
            if arm is None:
                return
            arm.remaining -= 1
            self.fired.append((stage, dict(context)))
        action = arm.action
        if isinstance(action, BaseException):
            raise action
        if isinstance(action, type) and issubclass(action, BaseException):
            raise action(f"injected fault at {stage}")
        action(context)


#: the inert injector production services run with
NO_FAULTS = FaultInjector()
