"""Per-layer measurements of the traced run.

Each function times calls into one package under ``src/repro/`` through its
public functions, on the workload's own graph and deltas, and records a span
around every call.  Nothing here feeds an end-to-end metric.  Times are in
reference-host units: each block of measurements sits between yardstick
readings (see ``calibrate.py``).
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from statistics import median
from typing import Callable, Dict, List

from repro import GraphBoltEngine, KickStarterEngine, RestartEngine, run_batch
from repro.graph.csr_cache import CSRCache
from repro.graph.delta import EdgeUpdate
from repro.graph.footprint import DeltaFootprint
from repro.service.coalescer import coalesce_edge_run
from repro.service.snapshot import StateSnapshot
from repro.service.subscriptions import snapshot_diff
from repro.storage.store import restore_engine

from perf.calibrate import Yardstick
from perf.trace import Tracer
from perf.workloads import BATCH_SIZE, WARMUP_DELTAS, Inputs

#: yardstick readings on each side of a block
READINGS = 3
GRAPH_DELTAS = 10
BATCH_RUNS = 3
RESTART_DELTAS = 5
BASELINE2_DELTAS = 10
LOGGED_DELTAS = 16


class _Scaled:
    """Context manager: ``factor`` scales what the enclosed block timed."""

    factor = 1.0

    def __enter__(self) -> "_Scaled":
        self._yard = Yardstick()
        self._yard.read(READINGS)
        return self

    def __exit__(self, *_exc) -> None:
        inside = time.perf_counter()
        self._yard.read(READINGS)
        self.factor = self._yard.scale_at(inside, neighbours=READINGS)


def _timed(tracer: Tracer, name: str, call: Callable[[], object], **ids):
    start = time.perf_counter()
    value = call()
    end = time.perf_counter()
    tracer.add(name, start, end, **ids)
    return value, end - start


def graph_layer(inputs: Inputs, tracer: Tracer) -> Dict[str, float]:
    """``GraphDelta.apply``, CSR patch / compile and the delta footprint."""
    spec = inputs.workload.spec()
    graph = inputs.graph.copy()
    cache = CSRCache()
    cache.out_csr(spec, graph)
    cache.in_csr(spec, graph)
    apply_s: List[float] = []
    patch_s: List[float] = []
    footprint_s: List[float] = []
    with _Scaled() as scaled:
        for index, delta in enumerate(inputs.deltas[:GRAPH_DELTAS]):
            new_graph, seconds = _timed(
                tracer, "graph.apply", lambda: delta.apply(graph), delta=index
            )
            apply_s.append(seconds)
            old_out = cache.peek_csr("out", spec, graph)
            old_in = cache.peek_csr("in", spec, graph)
            _none, seconds = _timed(
                tracer,
                "graph.csr_patch",
                lambda: cache.apply_delta(spec, graph, new_graph, delta),
                delta=index,
            )
            patch_s.append(seconds)

            def footprint() -> None:
                built = DeltaFootprint(
                    spec,
                    graph,
                    new_graph,
                    delta,
                    old_out_csr=old_out,
                    new_out_csr=cache.peek_csr("out", spec, new_graph),
                    old_in_csr=old_in,
                    new_in_csr=cache.peek_csr("in", spec, new_graph),
                )
                built.changed_sources
                built.dirty_targets

            _none, seconds = _timed(tracer, "graph.footprint", footprint, delta=index)
            footprint_s.append(seconds)
            # a patch past the rebuild threshold drops the entry: prime it again
            cache.out_csr(spec, new_graph)
            cache.in_csr(spec, new_graph)
            graph = new_graph
        compile_s = [
            _timed(tracer, "graph.csr_compile", lambda: CSRCache().out_csr(spec, inputs.graph))[1]
            for _ in range(BATCH_RUNS)
        ]
    to_ms = scaled.factor * 1e3
    return {
        "graph.apply_ms": median(apply_s) * to_ms,
        "graph.csr_patch_ms": median(patch_s) * to_ms,
        "graph.csr_compile_ms": median(compile_s) * to_ms,
        "graph.footprint_ms": median(footprint_s) * to_ms,
    }


def engine_layer(inputs: Inputs, tracer: Tracer) -> Dict[str, float]:
    """``run_batch`` on the initial graph — what a restart costs."""
    spec = inputs.workload.spec()
    seconds: List[float] = []
    with _Scaled() as scaled:
        for _ in range(BATCH_RUNS):
            result, elapsed = _timed(
                tracer, "engine.batch", lambda: run_batch(spec, inputs.graph, backend="numpy")
            )
            seconds.append(elapsed)
    return {
        "engine.batch_ms": median(seconds) * scaled.factor * 1e3,
        "engine.batch_activations": float(result.metrics.edge_activations),
        "engine.batch_rounds": float(result.metrics.iterations),
    }


def baseline_engines(inputs: Inputs, tracer: Tracer) -> Dict[str, float]:
    """Restart, and the paper's second baseline for the algorithm family."""
    spec = inputs.workload.spec()
    timed = inputs.deltas[WARMUP_DELTAS:]

    def replay(engine, name: str, count: int):
        engine.initialize(inputs.graph)
        for delta in inputs.deltas[:WARMUP_DELTAS]:
            engine.apply_delta(delta)
        seconds, activations = [], []
        with _Scaled() as scaled:
            for index, delta in enumerate(timed[:count]):
                result, elapsed = _timed(
                    tracer, name, lambda: engine.apply_delta(delta), delta=index
                )
                seconds.append(elapsed)
                activations.append(result.metrics.edge_activations)
        return median(seconds) * scaled.factor * 1e3, sum(activations) / len(activations)

    restart_ms, _count = replay(
        RestartEngine(spec, backend="numpy"), "incremental.restart", RESTART_DELTAS
    )
    second = KickStarterEngine if spec.is_selective() else GraphBoltEngine
    second_ms, second_activations = replay(
        second(spec, backend="numpy"), "incremental.baseline2", BASELINE2_DELTAS
    )
    return {
        "incremental.restart_delta_ms": restart_ms,
        "incremental.baseline2_delta_ms": second_ms,
        "incremental.baseline2_activations": second_activations,
    }


def storage_layer(inputs: Inputs, engine, out_dir: str, tracer: Tracer) -> Dict[str, float]:
    """Save, log, compact and warm-restore ``engine`` in a scratch store."""
    directory = tempfile.mkdtemp(prefix="store-", dir=out_dir)
    try:
        with _Scaled() as scaled:
            store, save_s = _timed(tracer, "storage.save", lambda: engine.save(directory))
            try:
                snapshot_bytes = sum(
                    os.path.getsize(os.path.join(directory, entry))
                    for entry in os.listdir(directory)
                    if entry.startswith("snapshot-")
                )
                log_s = []
                for index, delta in enumerate(inputs.deltas[:LOGGED_DELTAS]):
                    # only the record matters here; the engine is not advanced
                    _none, seconds = _timed(
                        tracer,
                        "storage.log_delta",
                        lambda: store.log_delta(delta, engine.graph.version),
                        delta=index,
                    )
                    log_s.append(seconds)
                _none, compaction_s = _timed(
                    tracer, "storage.compaction", lambda: store.save(engine)
                )
            finally:
                store.close()
            (restored, _report), restore_s = _timed(
                tracer, "storage.restore_warm", lambda: restore_engine(directory)
            )
        # the restored engine comes back attached; save() hands out its store
        restored.save(directory).close()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return {
        "storage.save_s": save_s * scaled.factor,
        "storage.snapshot_mb": snapshot_bytes / 1e6,
        "storage.log_delta_ms": median(log_s) * scaled.factor * 1e3,
        "storage.compaction_s": compaction_s * scaled.factor,
        "storage.restore_warm_s": restore_s * scaled.factor,
    }


def service_parts(inputs: Inputs, engine, snapshots: list, tracer: Tracer) -> Dict[str, float]:
    """The service's building blocks on their own, off the writer thread."""
    edge_events = [event for event in inputs.events if isinstance(event, EdgeUpdate)]
    csr = engine.csr_cache.peek_csr("out", engine.spec, engine.graph)
    with _Scaled() as scaled:
        coalesce_s = [
            _timed(
                tracer,
                "service.coalesce",
                lambda: coalesce_edge_run(
                    inputs.served_graph, edge_events[start : start + BATCH_SIZE]
                ),
            )[1]
            for start in range(0, GRAPH_DELTAS * BATCH_SIZE, BATCH_SIZE)
        ]
        capture_s = [
            _timed(
                tracer,
                "service.capture",
                lambda: StateSnapshot.capture(0, engine.graph.version, engine.states, csr, 0),
            )[1]
            for _ in range(GRAPH_DELTAS)
        ]
        diff_s = [
            _timed(tracer, "service.diff", lambda: snapshot_diff(old, new))[1]
            for old, new in zip(snapshots, snapshots[1:])
        ]
    to_ms = scaled.factor * 1e3
    return {
        "service.coalesce_ms": median(coalesce_s) * to_ms,
        "service.capture_ms": median(capture_s) * to_ms,
        "service.diff_ms": median(diff_s) * to_ms if diff_s else 0.0,
    }
