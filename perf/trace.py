"""In-memory span recorder for the traced run.

A span is ``(id, name, start, end, parent, ids)`` with times from
``time.perf_counter()``.  Spans are kept in a list and written out once, at
exit.  A layer's *self time* is its span's duration minus the part of it its
child spans cover.

The spans are recorded from the benchmark's own files, around the calls into
each layer.  The inside of ``apply_delta`` is not instrumented: its child
spans are laid out end to end from the durations the program itself reports
in ``IncrementalResult.phases`` (their sum is checked against the enclosing
span by ``coverage``).
"""

from __future__ import annotations

import itertools
import json
import time
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional, Tuple


class Tracer:
    """Span recorder; ``Tracer(enabled=False)`` records nothing."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[dict] = []
        # next() on itertools.count and list.append are atomic under the GIL:
        # the service's writer thread records spans beside the main thread
        self._ids = itertools.count(1)

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
        **ids,
    ) -> Optional[int]:
        """Record a finished span; returns its id (``None`` when disabled)."""
        if not self.enabled:
            return None
        span_id = next(self._ids)
        self.spans.append(
            {
                "id": span_id,
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                **ids,
            }
        )
        return span_id

    @contextmanager
    def span(self, name: str, parent: Optional[int] = None, **ids) -> Iterator[None]:
        """Record the enclosed block as one span."""
        if not self.enabled:
            yield
            return
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, start, time.perf_counter(), parent, **ids)

    def add_sequential_children(
        self, parent: Optional[int], start: float, durations: Iterable[Tuple[str, float]], **ids
    ) -> None:
        """Lay ``(name, seconds)`` children end to end from ``start``."""
        if not self.enabled:
            return
        cursor = start
        for name, seconds in durations:
            self.add(name, cursor, cursor + seconds, parent, **ids)
            cursor += seconds

    # ------------------------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        """Total self seconds per span name."""
        covered: Dict[int, float] = {}
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] = covered.get(span["parent"], 0.0) + (
                    span["end"] - span["start"]
                )
        totals: Dict[str, float] = {}
        for span in self.spans:
            own = span["end"] - span["start"] - covered.get(span["id"], 0.0)
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
        return totals

    def coverage(self, parent_name: str) -> float:
        """Share of the ``parent_name`` spans' time their children account for."""
        parents = {s["id"]: s for s in self.spans if s["name"] == parent_name}
        total = sum(s["end"] - s["start"] for s in parents.values())
        children = sum(
            s["end"] - s["start"] for s in self.spans if s["parent"] in parents
        )
        return children / total if total else 0.0

    def write(self, path: str) -> None:
        body = {"spans": self.spans, "self_seconds": self.self_times()}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(body, handle)
