"""KickStarter-style incremental engine (Vora et al., ASPLOS'17).

KickStarter maintains value dependencies for monotone selective algorithms
and, after deletions, trims the affected values back to safe approximations
before resuming propagation.  Its tagging is conservative: the affected
region is the whole value-dependence DAG reachable from an invalidated edge,
which is why it activates more edges than RisGraph or Ingress in the paper's
Figures 1 and 6 — the ordering this reproduction preserves.

Like the original system it only supports selective algorithms (SSSP, BFS);
PageRank/PHP raise ``ValueError`` exactly as the paper notes in Section VI-A.

The engine is a thin policy over the shared dependency machinery: for the
min/+ algebra the DAG taint runs as a mask-based frontier walk on the cached
out-edge CSR of the dense :class:`repro.incremental.dep_table.DepTable`.
"""

from __future__ import annotations

from repro.incremental.selective_base import SelectiveDependencyEngine


class KickStarterEngine(SelectiveDependencyEngine):
    """Dependency-DAG trimming with conservative tagging."""

    name = "kickstarter"
    tainting = "dag"
    classify_safe_updates = False
