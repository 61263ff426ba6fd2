"""Layph reproduction: layered-graph incremental graph processing.

This package reimplements, in pure Python, the system described in
"Layph: Making Change Propagation Constraint in Incremental Graph Processing
by Layering Graph" (ICDE 2023), together with every substrate it builds on
and every baseline it is evaluated against.

Typical usage::

    from repro import Graph, GraphDelta, LayphEngine, SSSP

    graph = Graph.from_edges([(0, 1, 2.0), (1, 2, 1.0), (0, 2, 5.0)])
    engine = LayphEngine(SSSP(source=0))
    engine.initialize(graph)

    delta = GraphDelta()
    delta.add_edge(2, 3, 1.0)
    result = engine.apply_delta(delta)
    print(result.states[3])

One algebra, one array-native core
----------------------------------

Every hot loop — the shared delta-accumulative propagation, the BSP engines'
memoized iterations, the selective engines' dependency maintenance, Layph's
shortcuts, upload and assignment — runs as numpy array kernels over compiled
CSR snapshots.  The engines run the algebra a spec declares in
:attr:`repro.engine.AlgorithmSpec.dense_algebra` — ``("min", "add")`` or
``("sum", "mul")``, set on all four built-in algorithms — and check it once,
at construction (``run_batch`` checks it per call); ``initialize`` and
``apply_delta`` refuse non-finite weights and NaN initial values.  A spec or
an input outside that contract raises ``ValueError``.
"""

from repro.engine.algorithms import BFS, PHP, PageRank, SSSP, make_algorithm
from repro.engine.runner import run_batch
from repro.graph.delta import GraphDelta
from repro.graph.graph import Graph
from repro.incremental import (
    DZiGEngine,
    GraphBoltEngine,
    IngressEngine,
    KickStarterEngine,
    RestartEngine,
    RisGraphEngine,
)
from repro.layph.engine import LayphEngine
from repro.layph.layered_graph import LayeredGraph, LayphConfig

__version__ = "1.0.0"

__all__ = [
    "Graph",
    "GraphDelta",
    "SSSP",
    "BFS",
    "PageRank",
    "PHP",
    "make_algorithm",
    "run_batch",
    "RestartEngine",
    "KickStarterEngine",
    "RisGraphEngine",
    "GraphBoltEngine",
    "DZiGEngine",
    "IngressEngine",
    "LayphEngine",
    "LayeredGraph",
    "LayphConfig",
    "__version__",
]
