"""Graph substrate: directed weighted graphs, deltas, generators and I/O.

This subpackage provides the mutable adjacency-list :class:`Graph` used by
every engine in the repository, the :class:`FactorCSR` snapshots the array
kernels run on and the :class:`CSRCache` that keeps them patched, the
:class:`GraphDelta` batch-update abstraction, and synthetic graph generators
that stand in for the paper's web/social datasets.
"""

from repro.graph.graph import Edge, Graph
from repro.graph.csr import FactorCSR
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
