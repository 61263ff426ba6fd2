"""Replay phase: one delta stream applied to Layph and Ingress, interleaved.

Each replay cold-initialises one ``IngressEngine`` and one ``LayphEngine`` on
the same graph and feeds both the same deltas, delta by delta, alternating
which engine goes first.  Whatever slows the host for a few hundred
milliseconds therefore hits both engines, and the *ratio* of their times
repeats far better than either time.  Every wall time is scaled by the
host-speed yardstick read right before and after its pair (see
``calibrate.py``), and a delta's sample is its minimum over the replays:
what noise is left on a wall-clock time is one-sided.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import IngressEngine, LayphEngine, run_batch
from repro.layph.engine import PHASE_ASSIGN, PHASE_UPDATE, PHASE_UPLOAD, PHASE_UPPER

from perf.calibrate import Yardstick
from perf.trace import Tracer
from perf.workloads import WARMUP_DELTAS, Inputs

#: 1e-9 relative on selective results (float re-association only).  The
#: accumulative engines each stop at their own 1e-6 residue per delta and the
#: residues add up over the stream: after 43 deltas Ingress/PageRank sits at
#: 1.4e-3 from the batch result on the seed commit, so the issue's 1e-3 would
#: fail a correct run.  A lost or doubled edge moves a state by ~1e-1.
SELECTIVE_TOLERANCE = 1e-9
ACCUMULATIVE_TOLERANCE = 5e-3

#: yardstick readings on each side of an initialisation
SETUP_READINGS = 3

LAYPH_PHASES = {
    "layph.update": PHASE_UPDATE,
    "layph.upload": PHASE_UPLOAD,
    "layph.upper": PHASE_UPPER,
    "layph.assign": PHASE_ASSIGN,
}


def matches_batch(spec, states: Dict[int, float], reference: Dict[int, float]) -> bool:
    tolerance = SELECTIVE_TOLERANCE if spec.is_selective() else ACCUMULATIVE_TOLERANCE
    return spec.states_match(states, reference, tolerance=tolerance)


def batch_reference(spec, graph) -> Dict[int, float]:
    """The from-scratch result every engine must match."""
    return run_batch(spec, graph, backend="numpy").states


@dataclass
class EngineTrack:
    """Per-delta observations of one engine over all replays."""

    #: reference-host seconds of ``apply_delta``: ``seconds[delta][replay]``
    seconds: List[List[float]] = field(default_factory=list)
    #: the same samples as the clock read them
    raw_seconds: List[List[float]] = field(default_factory=list)
    #: edge activations per delta (identical in every replay)
    activations: List[int] = field(default_factory=list)
    #: the program's own phase times per delta (reference-host seconds),
    #: from the last replay
    phases: List[Dict[str, float]] = field(default_factory=list)

    def timed_minima(self) -> List[float]:
        return [min(samples) for samples in self.seconds[WARMUP_DELTAS:]]

    def timed_activations(self) -> List[int]:
        return self.activations[WARMUP_DELTAS:]

    def replay_seconds(self, replay: int) -> List[float]:
        return [samples[replay] for samples in self.seconds[WARMUP_DELTAS:]]


@dataclass
class ReplayOutcome:
    layph: EngineTrack
    ingress: EngineTrack
    #: reference-host seconds of ``LayphEngine.initialize`` per replay, the
    #: same as the clock read them, and the part spent in ``LayeredGraph.build``
    setup_seconds: List[float]
    raw_setup_seconds: List[float]
    build_seconds: List[float]
    #: every yardstick reading taken during the replays
    kernel_readings: List[float]
    #: affected dense subgraphs per delta (traced replays only)
    affected_subgraphs: List[int]
    #: size of the layered graph right after the last replay's initialisation
    layered_stats: Dict[str, float]
    deltas_applied: int
    #: human-readable failures: state mismatches, counts that did not repeat
    failures: List[str]
    #: the last replay's Layph engine, at the post-stream graph
    engine: LayphEngine


def run_replays(
    inputs: Inputs,
    reference: Dict[int, float],
    tracers: List[Tracer],
) -> ReplayOutcome:
    """One replay per tracer; pass disabled tracers for untraced replays."""
    spec = inputs.workload.spec()
    tracks = {"layph": EngineTrack(), "ingress": EngineTrack()}
    for track in tracks.values():
        track.seconds = [[] for _ in inputs.deltas]
        track.raw_seconds = [[] for _ in inputs.deltas]
    setup_seconds: List[float] = []
    raw_setup_seconds: List[float] = []
    build_seconds: List[float] = []
    yard = Yardstick()
    affected: List[int] = []
    failures: List[str] = []
    layph: Optional[LayphEngine] = None

    for replay, tracer in enumerate(tracers):
        # drop the previous pair first: peak memory is one pair of engines
        layph = ingress = None
        gc.collect()
        yard.read(SETUP_READINGS)
        with tracer.span("layph.initialize", replay=replay):
            start = time.perf_counter()
            layph = LayphEngine(spec, backend="numpy")
            layph.initialize(inputs.graph)
            elapsed = time.perf_counter() - start
        yard.read(SETUP_READINGS)
        factor = yard.scale_at(start + elapsed / 2, neighbours=SETUP_READINGS)
        raw_setup_seconds.append(elapsed)
        setup_seconds.append(elapsed * factor)
        build_seconds.append(layph.offline_seconds * factor)
        layered_stats = _layered_stats(layph, inputs)
        ingress = IngressEngine(spec, backend="numpy")
        ingress.initialize(inputs.graph)
        # the initialised engines are long-lived: keep them out of the
        # per-delta collections below
        gc.collect()
        gc.freeze()
        try:
            for index, delta in enumerate(inputs.deltas):
                if tracer.enabled:
                    affected.append(
                        len(
                            layph.layered.affected_subgraphs(
                                delta.touched_vertices(layph.graph)
                            )
                        )
                    )
                pair = [("layph", layph), ("ingress", ingress)]
                if index % 2:
                    pair.reverse()
                gc.collect()
                gc.disable()
                try:
                    yard.read()
                    applied = []
                    for name, engine in pair:
                        start = time.perf_counter()
                        result = engine.apply_delta(delta)
                        applied.append((name, result, start, time.perf_counter()))
                    yard.read()
                finally:
                    gc.enable()
                factor = yard.scale_at(applied[0][3])
                for name, result, start, end in applied:
                    track = tracks[name]
                    track.raw_seconds[index].append(end - start)
                    track.seconds[index].append((end - start) * factor)
                    count = result.metrics.edge_activations
                    if replay == 0:
                        track.activations.append(count)
                    elif count != track.activations[index]:
                        failures.append(
                            f"{name} delta {index}: {count} activations in replay "
                            f"{replay}, {track.activations[index]} in replay 0"
                        )
                    if replay == len(tracers) - 1:
                        track.phases.append(
                            {k: v * factor for k, v in result.phases.as_dict().items()}
                        )
                    span = tracer.add(
                        f"{name}.apply_delta", start, end, delta=index, replay=replay
                    )
                    tracer.add_sequential_children(
                        span, start, _phase_children(name, result), delta=index
                    )
        finally:
            gc.unfreeze()
        for name, engine in (("layph", layph), ("ingress", ingress)):
            if not matches_batch(spec, engine.states, reference):
                failures.append(f"{name} replay {replay}: states differ from run_batch")

    return ReplayOutcome(
        layph=tracks["layph"],
        ingress=tracks["ingress"],
        setup_seconds=setup_seconds,
        raw_setup_seconds=raw_setup_seconds,
        build_seconds=build_seconds,
        kernel_readings=yard.values,
        affected_subgraphs=affected,
        layered_stats=layered_stats,
        deltas_applied=2 * len(inputs.deltas) * len(tracers),
        failures=failures,
        engine=layph,
    )


def _layered_stats(layph: LayphEngine, inputs: Inputs) -> Dict[str, float]:
    upper_vertices, upper_links = layph.layered.upper_size()
    return {
        "layph.offline_activations": float(layph.offline_metrics.edge_activations),
        "layph.subgraphs": float(len(layph.layered.subgraphs)),
        "layph.upper_vertex_share": upper_vertices / inputs.graph.num_vertices(),
        "layph.upper_link_share": upper_links / inputs.graph.num_edges(),
    }


def _phase_children(engine_name: str, result):
    phases = result.phases.as_dict()
    if engine_name == "layph":
        return [(label, phases.get(key, 0.0)) for label, key in LAYPH_PHASES.items()]
    return [(f"ingress.{key}", seconds) for key, seconds in phases.items()]
