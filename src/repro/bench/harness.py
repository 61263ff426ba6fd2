"""Experiment harness: run engines against a dataset + ΔG and collect metrics.

Every benchmark module under ``benchmarks/`` drives this harness; it is also
what the examples use, so the numbers printed by ``examples/*.py`` and the
figures regenerated by ``pytest benchmarks/`` come from the same code path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.engine.algorithm import AlgorithmSpec
from repro.engine.algorithms import make_algorithm
from repro.engine.runner import run_batch
from repro.graph.delta import GraphDelta
from repro.graph.graph import Graph
from repro.incremental import make_engine
from repro.layph.layered_graph import LayphConfig


@dataclass
class EngineRun:
    """Metrics of one engine processing one delta."""

    engine: str
    algorithm: str
    dataset: str
    edge_activations: int
    wall_seconds: float
    #: Layph's closed-form sum/mul shortcut solves, which activate no edge
    dense_multiply_adds: int = 0
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    correct: Optional[bool] = None


@dataclass
class ExperimentResult:
    """All engine runs of one experiment cell (dataset × algorithm)."""

    dataset: str
    algorithm: str
    runs: List[EngineRun] = field(default_factory=list)

    def by_engine(self) -> Dict[str, EngineRun]:
        """Map engine name -> run."""
        return {run.engine: run for run in self.runs}

    def normalized_activations(self, baseline: str = "layph") -> Dict[str, float]:
        """Activations of every engine divided by the baseline engine's."""
        runs = self.by_engine()
        base = max(runs[baseline].edge_activations, 1)
        return {name: run.edge_activations / base for name, run in runs.items()}

    def normalized_time(self, baseline: str = "layph") -> Dict[str, float]:
        """Wall time of every engine divided by the baseline engine's."""
        runs = self.by_engine()
        base = max(runs[baseline].wall_seconds, 1e-9)
        return {name: run.wall_seconds / base for name, run in runs.items()}


def engines_for(spec: AlgorithmSpec) -> List[str]:
    """Engines applicable to an algorithm, in the paper's presentation order.

    SSSP/BFS are compared against KickStarter, RisGraph and Ingress; PageRank
    and PHP against GraphBolt, DZiG and Ingress (Section VI-A).
    """
    if spec.is_selective():
        return ["restart", "kickstarter", "risgraph", "ingress", "layph"]
    return ["restart", "graphbolt", "dzig", "ingress", "layph"]


def run_engine(
    engine_name: str,
    spec: AlgorithmSpec,
    graph: Graph,
    deltas: Sequence[GraphDelta],
    dataset: str = "",
    check_correctness: bool = False,
    layph_config: Optional[LayphConfig] = None,
) -> EngineRun:
    """Initialize one engine and apply a sequence of deltas, summing metrics."""
    engine = make_engine(engine_name, spec, layph_config)
    engine.initialize(graph)
    total_activations = total_multiply_adds = 0
    total_seconds = 0.0
    phase_seconds: Dict[str, float] = {}
    result = None
    for delta in deltas:
        result = engine.apply_delta(delta)
        total_activations += result.metrics.edge_activations
        total_multiply_adds += result.metrics.dense_multiply_adds
        total_seconds += result.wall_seconds
        for phase, seconds in result.phases.as_dict().items():
            phase_seconds[phase] = phase_seconds.get(phase, 0.0) + seconds

    correct: Optional[bool] = None
    if check_correctness and result is not None:
        reference = run_batch(spec, engine.graph).states
        # Selective results agree to float re-association; accumulative
        # engines each converge independently to 1e-6.
        tolerance = 1e-9 if spec.is_selective() else 1e-3
        correct = spec.states_match(result.states, reference, tolerance=tolerance)

    return EngineRun(
        engine=engine_name,
        algorithm=spec.name,
        dataset=dataset,
        edge_activations=total_activations,
        wall_seconds=total_seconds,
        dense_multiply_adds=total_multiply_adds,
        phase_seconds=phase_seconds,
        correct=correct,
    )


def compare_engines(
    algorithm: str,
    graph: Graph,
    deltas: Sequence[GraphDelta],
    dataset: str = "",
    engines: Optional[Sequence[str]] = None,
    source: int = 0,
    check_correctness: bool = False,
    layph_config: Optional[LayphConfig] = None,
) -> ExperimentResult:
    """Run every applicable engine on the same workload and collect results."""
    spec = make_algorithm(algorithm, source=source)
    selected = list(engines) if engines is not None else engines_for(spec)
    experiment = ExperimentResult(dataset=dataset, algorithm=spec.name)
    for engine_name in selected:
        spec_instance = make_algorithm(algorithm, source=source)
        experiment.runs.append(
            run_engine(
                engine_name,
                spec_instance,
                graph,
                deltas,
                dataset=dataset,
                check_correctness=check_correctness,
                layph_config=layph_config,
            )
        )
    return experiment
