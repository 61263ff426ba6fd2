"""Graph substrate: directed weighted graphs, deltas, generators and I/O.

This subpackage provides the mutable adjacency-list :class:`Graph` used by
every engine in the repository, the immutable :class:`CSRGraph` snapshot used
by the batch runner, the :class:`GraphDelta` batch-update abstraction, and
synthetic graph generators that stand in for the paper's web/social datasets.
"""

from repro.graph.graph import Edge, Graph
from repro.graph.csr import CSRGraph, FactorCSR
from repro.graph.csr_cache import CSRCache, CachedGraphAdjacency
from repro.graph.delta import EdgeUpdate, GraphDelta, UpdateKind, VertexUpdate
from repro.graph.generators import (
    community_graph,
    erdos_renyi_graph,
    grid_graph,
    path_graph,
    powerlaw_cluster_graph,
    star_graph,
)
from repro.graph.io import load_edge_list, save_edge_list

__all__ = [
    "Edge",
    "Graph",
    "CSRGraph",
    "FactorCSR",
    "CSRCache",
    "CachedGraphAdjacency",
    "EdgeUpdate",
    "VertexUpdate",
    "GraphDelta",
    "UpdateKind",
    "community_graph",
    "erdos_renyi_graph",
    "grid_graph",
    "path_graph",
    "powerlaw_cluster_graph",
    "star_graph",
    "load_edge_list",
    "save_edge_list",
]
