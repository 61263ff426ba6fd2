"""RisGraph-style incremental engine (Feng et al., SIGMOD'21).

RisGraph keeps one recorded dependency parent per vertex and classifies every
unit update as *safe* (provably requires no propagation: an insertion that
does not improve its target, or a deletion of a non-supporting edge) or
*unsafe*.  Safe updates are absorbed in O(1); unsafe updates trigger a
localized trim-and-propagate identical in spirit to Ingress's
memoization-path policy, which is why the paper calls the two comparable.

Only selective algorithms are supported (the single-dependency requirement
the paper mentions in Section VI-A).

The engine is a thin policy over the shared dependency machinery: the
safe/unsafe classification reads the recorded parent from whichever store is
live, and for the min/+ algebra the single-parent taint is a frontier walk
on the cached out-edge CSR that follows the dense
:class:`repro.incremental.dep_table.DepTable`'s parent links.
"""

from __future__ import annotations

from repro.incremental.selective_base import SelectiveDependencyEngine


class RisGraphEngine(SelectiveDependencyEngine):
    """Single-parent dependency tree with safe/unsafe classification."""

    name = "risgraph"
    tainting = "tree"
    classify_safe_updates = True
