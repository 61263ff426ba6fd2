"""Vertex-centric delta-accumulative iterative engine (Equations (1)–(3)).

The engine executes algorithms expressed as a message-generation function
``F`` and an aggregation function ``G`` in the asynchronous accumulative model
of the paper (Section II-A).  Every engine in :mod:`repro.incremental` and
:mod:`repro.layph` builds on the propagation core defined here so that edge
activation counts are directly comparable across systems.
"""

from repro.engine.algorithm import AlgorithmSpec
from repro.engine.algorithms import BFS, PHP, PageRank, SSSP
from repro.engine.metrics import ExecutionMetrics, PhaseTimer
from repro.engine.propagation import (
    FactorAdjacency,
    NonConvergenceError,
    SilencedAdjacency,
    propagate,
)
from repro.engine.runner import BatchResult, run_batch
from repro.engine.convergence import states_close, states_equal

__all__ = [
    "AlgorithmSpec",
    "SSSP",
    "BFS",
    "PageRank",
    "PHP",
    "ExecutionMetrics",
    "PhaseTimer",
    "FactorAdjacency",
    "SilencedAdjacency",
    "NonConvergenceError",
    "propagate",
    "BatchResult",
    "run_batch",
    "states_equal",
    "states_close",
]
