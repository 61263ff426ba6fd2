"""Compatibility shim: the process pool this module ran is gone.

:func:`shutdown_pools` stays only because ``perf/bench.py`` imports it to
tear down a pool before counting leftover child processes; the benchmark
harness drops that import in its next revision and this module goes with it.
"""

from __future__ import annotations


def shutdown_pools() -> None:
    """No-op: there is no worker pool to shut down."""
