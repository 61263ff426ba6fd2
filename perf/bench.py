"""One workload run: generate, replay, serve, check, and name every metric.

An untraced run yields the end-to-end metrics; a traced run yields the
per-layer metrics and a span file.  The two never mix: tracing costs time,
and what it costs is itself reported (``trace.overhead_pct``).
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from dataclasses import dataclass, field
from statistics import median
from typing import Dict, List

import numpy as np
from repro.parallel.executor import shutdown_pools

from perf import layers
from perf.replay import LAYPH_PHASES, ReplayOutcome, batch_reference, run_replays
from perf.serve import ServeOutcome, run_serve
from perf.trace import Tracer
from perf.workloads import (
    BATCH_SIZE,
    REPLAYS,
    SATURATION_EVENTS,
    WARMUP_DELTAS,
    WORKLOADS,
    generate,
)

#: share of ``--seconds`` the open loop lasts.  The replay and saturation
#: phases are fixed work — their counts must repeat exactly — so the run
#: length scales the one phase that is timed by the clock.
OPEN_LOOP_SHARE = 1.0 / 3.0


@dataclass
class Report:
    workload: str
    seed: int
    traced: bool
    metrics: Dict[str, float] = field(default_factory=dict)
    #: samples behind each percentile metric
    samples: Dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)
    #: raw per-sample observations, kept in the result file for noise studies
    raw: Dict[str, list] = field(default_factory=dict)


def open_loop_events(rate: float, seconds: float) -> int:
    """Events of the open loop: whole batches filling its share of the run."""
    batches = max(1, round(rate * seconds * OPEN_LOOP_SHARE / BATCH_SIZE))
    return batches * BATCH_SIZE


def run_workload(name: str, seed: int, seconds: float, traced: bool, out_dir: str) -> Report:
    workload = WORKLOADS[name]
    report = Report(name, seed, traced)
    reset_peak_rss()
    # the closed-loop saturation phase feeds a per-layer metric only
    events = open_loop_events(workload.open_loop_rate, seconds)
    inputs = generate(workload, seed, events + (SATURATION_EVENTS if traced else 0))
    spec = workload.spec()
    reference = batch_reference(spec, inputs.served_graph)

    tracer = Tracer(enabled=traced)
    if traced:
        # one untraced replay beside the traced one prices the tracing
        tracers = [Tracer(enabled=False), tracer]
    else:
        tracers = [tracer] * REPLAYS
    replay = run_replays(inputs, reference, tracers)
    report.failures += replay.failures
    report.attempted += replay.deltas_applied

    if traced:
        report.metrics.update(layers.graph_layer(inputs, tracer))
        report.metrics.update(layers.engine_layer(inputs, tracer))
        report.metrics.update(layers.baseline_engines(inputs, tracer))
        # before the serve phase: the service replaces the store this attaches
        report.metrics.update(layers.storage_layer(inputs, replay.engine, out_dir, tracer))

    serve = run_serve(inputs, replay.engine, out_dir, tracer)
    report.failures += serve.failures
    report.warnings += serve.warnings
    report.attempted += serve.events_submitted + len(serve.read_seconds)

    report.raw = {
        "setup_seconds": replay.setup_seconds,
        "raw_setup_seconds": replay.raw_setup_seconds,
        "layph_seconds": replay.layph.seconds,
        "raw_layph_seconds": replay.layph.raw_seconds,
        "ingress_seconds": replay.ingress.seconds,
        "raw_ingress_seconds": replay.ingress.raw_seconds,
        "layph_activations": replay.layph.activations,
        "ingress_activations": replay.ingress.activations,
        "kernel_readings": replay.kernel_readings + serve.kernel_readings,
        "raw_ingest_events_per_s": serve.raw_ingest_events_per_s,
        "batch_visible_seconds": serve.batch_visible_seconds,
        "raw_batch_visible_seconds": serve.raw_batch_visible_seconds,
        "read_seconds": serve.read_seconds,
        "raw_read_seconds": serve.raw_read_seconds,
        "raw_late_seconds": serve.raw_late_seconds,
        "writer_busy_share": serve.writer_busy_share,
        "raw_chunk_seconds": serve.raw_chunk_seconds,
    }
    if traced:
        report.metrics.update(
            layers.service_parts(inputs, replay.engine, serve.snapshots, tracer)
        )
        _per_layer_metrics(report, replay, serve, tracer)
        tracer.write(os.path.join(out_dir, f"trace-{name}.json"))
    else:
        _end_to_end_metrics(report, replay, serve)

    shutdown_pools()
    children = multiprocessing.active_children()
    threads = [t.name for t in threading.enumerate() if t is not threading.main_thread()]
    leftovers = [e for e in os.listdir(out_dir) if e.startswith(("serve-", "store-"))]
    if children or threads or leftovers:
        report.failures.append(
            f"left behind: {len(children)} processes, threads {threads}, dirs {leftovers}"
        )
    if traced:
        report.metrics["parallel.child_processes_at_exit"] = float(len(children))
        report.metrics["run.failed_ops_share"] = len(report.failures) / report.attempted
    return report


# ----------------------------------------------------------------------
def _end_to_end_metrics(report: Report, replay: ReplayOutcome, serve: ServeOutcome) -> None:
    layph = replay.layph.timed_minima()
    ingress = replay.ingress.timed_minima()
    if not (layph and ingress and serve.batch_visible_seconds and serve.read_seconds):
        raise RuntimeError(f"{report.workload}: a phase produced no samples")
    report.metrics.update(
        {
            "setup_s": min(replay.setup_seconds),
            "layph_delta_ms_p50": median(layph) * 1e3,
            "ingress_delta_ms_p50": median(ingress) * 1e3,
            "layph_speedup_vs_ingress": sum(ingress) / sum(layph),
            "batch_visible_ms_p50": median(serve.batch_visible_seconds) * 1e3,
            "query_ms_p50": median(serve.read_seconds) * 1e3,
            "peak_rss_mb": peak_rss_mb(),
        }
    )
    report.samples.update(
        {
            "setup_s": len(replay.setup_seconds),
            "layph_delta_ms_p50": len(layph),
            "ingress_delta_ms_p50": len(ingress),
            "batch_visible_ms_p50": len(serve.batch_visible_seconds),
            "query_ms_p50": len(serve.read_seconds),
        }
    )


def _per_layer_metrics(
    report: Report, replay: ReplayOutcome, serve: ServeOutcome, tracer: Tracer
) -> None:
    if not (serve.batch_visible_seconds and serve.read_seconds):
        raise RuntimeError(f"{report.workload}: the serve phase produced no samples")
    metrics = report.metrics
    layph, ingress = replay.layph, replay.ingress

    def phase_ms(track, *names: str) -> float:
        rows = track.phases[WARMUP_DELTAS:]
        return median([sum(row.get(name, 0.0) for name in names) for row in rows]) * 1e3

    ingress_phases = {name for row in ingress.phases for name in row}
    revision = sorted(ingress_phases - {"graph update", "propagation"})
    layph_counts = layph.timed_activations()
    ingress_counts = ingress.timed_activations()
    metrics.update(
        {
            "incremental.ingress_delta_ms_p75": np.percentile(ingress.timed_minima(), 75) * 1e3,
            "incremental.ingress_graph_update_ms": phase_ms(ingress, "graph update"),
            "incremental.ingress_revision_ms": phase_ms(ingress, *revision),
            "incremental.ingress_propagation_ms": phase_ms(ingress, "propagation"),
            "incremental.ingress_activations_p50": median(ingress_counts),
            "incremental.ingress_activations_mean": sum(ingress_counts) / len(ingress_counts),
            "layph.build_s": min(replay.build_seconds),
            "layph.affected_subgraphs_p50": median(replay.affected_subgraphs[WARMUP_DELTAS:]),
            "layph.delta_ms_p75": np.percentile(layph.timed_minima(), 75) * 1e3,
            "layph.activations_p50": median(layph_counts),
            "layph.activations_mean": sum(layph_counts) / len(layph_counts),
            "layph.activation_ratio_vs_ingress": sum(layph_counts) / max(sum(ingress_counts), 1),
        }
    )
    metrics.update(replay.layered_stats)
    for label, phase in LAYPH_PHASES.items():
        metrics[f"{label}_ms"] = phase_ms(layph, phase)
    untraced, traced = layph.replay_seconds(0), layph.replay_seconds(1)
    metrics["trace.overhead_pct"] = (median(traced) / median(untraced) - 1.0) * 100.0
    metrics["trace.apply_coverage_pct"] = tracer.coverage("layph.apply_delta") * 100.0
    metrics["host.kernel_ms"] = median(replay.kernel_readings + serve.kernel_readings) * 1e3

    stats = serve.stats
    metrics.update(
        {
            "service.ingest_events_per_s": serve.ingest_events_per_s,
            "service.submit_ack_ms_p50": median(serve.submit_ack_seconds) * 1e3,
            "service.event_visible_ms_p50": median(serve.raw_event_visible_seconds) * 1e3,
            "service.batch_visible_ms_p50": median(serve.batch_visible_seconds) * 1e3,
            "service.batch_visible_ms_p80": np.percentile(serve.batch_visible_seconds, 80) * 1e3,
            "service.batch_visible_samples": float(len(serve.batch_visible_seconds)),
            "service.read_ms_p75": np.percentile(serve.read_seconds, 75) * 1e3,
            "service.read_samples": float(len(serve.read_seconds)),
            "service.topk_ms": median(serve.topk_seconds) * 1e3,
            "service.value_us": median(serve.value_seconds) * 1e6,
            "service.writer_busy_share": serve.writer_busy_share,
            "service.batches_applied": float(stats["batches_taken"]),
            "service.deltas_applied": float(stats["deltas_applied"]),
            "service.quarantined": float(serve.quarantined),
            "service.apply_retries": float(stats["apply_retries"]),
            "service.watchdog_timeouts": float(stats["watchdog_timeouts"]),
            "loadgen.late_ms_p99": np.percentile(serve.raw_late_seconds, 99) * 1e3,
            "loadgen.backlog_end": float(serve.backlog_end),
        }
    )


# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """High-water resident set size of this process (``VmHWM``)."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found in /proc/self/status")


def reset_peak_rss() -> None:
    """Restart the high-water mark, so each workload reports its own peak."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        pass  # first workload of a process: the mark is still its own
