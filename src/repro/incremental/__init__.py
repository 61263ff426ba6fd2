"""Incremental graph-processing engines.

Besides the Restart baseline, this subpackage reimplements (in spirit) the
incremental strategies of the five systems the paper compares against:

* :class:`KickStarterEngine` — dependency-DAG tagging with trimmed
  approximations (selective algorithms: SSSP/BFS);
* :class:`RisGraphEngine` — single-dependency tree with safe/unsafe
  classification of unit updates (selective algorithms);
* :class:`GraphBoltEngine` — per-iteration dependency memoization
  (accumulative algorithms: PageRank/PHP);
* :class:`DZiGEngine` — GraphBolt plus sparsity-aware change propagation;
* :class:`IngressEngine` — automated memoization policy: memoization-path for
  selective algorithms and memoization-free cancellation/compensation
  messages for accumulative algorithms.  Layph is built on top of this
  engine, exactly as in the paper.

All engines share one contract: after :meth:`IncrementalEngine.apply_delta`
their states must equal a from-scratch batch run on the updated graph.
"""

from repro.incremental.base import IncrementalEngine, IncrementalResult
from repro.incremental.restart import RestartEngine
from repro.incremental.kickstarter import KickStarterEngine
from repro.incremental.risgraph import RisGraphEngine
from repro.incremental.graphbolt import GraphBoltEngine
from repro.incremental.dzig import DZiGEngine
from repro.incremental.ingress import IngressEngine

ENGINE_REGISTRY = {
    "restart": RestartEngine,
    "kickstarter": KickStarterEngine,
    "risgraph": RisGraphEngine,
    "graphbolt": GraphBoltEngine,
    "dzig": DZiGEngine,
    "ingress": IngressEngine,
}

__all__ = [
    "IncrementalEngine",
    "IncrementalResult",
    "RestartEngine",
    "KickStarterEngine",
    "RisGraphEngine",
    "GraphBoltEngine",
    "DZiGEngine",
    "IngressEngine",
    "ENGINE_REGISTRY",
    "make_engine",
]


def make_engine(name: str, spec, layph_config=None) -> IncrementalEngine:
    """Instantiate an engine by its registry name, or ``layph``."""
    lowered = name.lower()
    if lowered == "layph":
        from repro.layph.engine import LayphEngine  # layph builds on this package

        return LayphEngine(spec, layph_config)
    try:
        engine_class = ENGINE_REGISTRY[lowered]
    except KeyError as error:
        raise ValueError(
            f"unknown engine {name!r}; expected one of "
            f"{sorted(ENGINE_REGISTRY) + ['layph']}"
        ) from error
    return engine_class(spec)
