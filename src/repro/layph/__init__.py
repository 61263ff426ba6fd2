"""Layph: the paper's layered-graph incremental processing framework.

The construction pipeline (Section IV):

1. :mod:`repro.layph.community` — capped Louvain community detection provides
   dense-subgraph candidates;
2. :mod:`repro.layph.dense` — entry/exit/internal classification and the
   density rule ``|V_I|·|V_O| < |E_i|`` select the dense subgraphs;
3. :mod:`repro.layph.replication` — high-degree boundary neighbours are
   replicated as proxy vertices to shrink the skeleton;
4. :mod:`repro.layph.shortcuts` — per-subgraph shortcut weights are derived
   automatically from the algorithm's ``F``/``G`` (Definition 3);
5. :mod:`repro.layph.layered_graph` — the two-layer structure (``Lup`` /
   ``Llow``) is assembled.

The online engine (Section V) lives in :mod:`repro.layph.engine` and runs the
paper's four phases: layered-graph update, revision-message upload, iterative
computation on the upper layer, and revision-message assignment.
"""

from repro.layph.community import louvain_communities
from repro.layph.dense import BoundaryClassification, classify_boundary, is_dense
from repro.layph.layered_graph import DenseSubgraph, LayeredGraph, LayphConfig
from repro.layph.engine import LayphEngine

__all__ = [
    "louvain_communities",
    "BoundaryClassification",
    "classify_boundary",
    "is_dense",
    "DenseSubgraph",
    "LayeredGraph",
    "LayphConfig",
    "LayphEngine",
]
