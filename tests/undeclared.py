"""The undeclared-algebra clone of a spec: the route to the reference loops.

Every array kernel declines a spec that does not declare its operator
algebra (:attr:`repro.engine.algorithm.AlgorithmSpec.dense_algebra`), so an
engine running the clone takes every reference loop and keeps its memo and
dependency structures in the dict stores, while the original spec takes the
array kernels wherever they apply.  The operators are the same, so the two
runs must agree bit for bit: that comparison is the parity check between
the two paths.
"""

from __future__ import annotations

import copy


def undeclared(spec):
    """A copy of ``spec`` that declares no algebra (same operators)."""
    clone = copy.copy(spec)
    clone.dense_algebra = None
    return clone


#: the two routes through the code: the undeclared clone (reference loops,
#: dict stores) and the spec as declared (array kernels, dense stores)
ROUTES = ("undeclared", "declared")


def on_route(spec, route: str):
    """``spec`` itself on the ``"declared"`` route, its clone otherwise."""
    if route not in ROUTES:
        raise ValueError(f"unknown route {route!r}")
    return undeclared(spec) if route == "undeclared" else spec
