"""Propagation backend registry.

The round-based delta-accumulative loop (:func:`repro.engine.propagation.
propagate`) has interchangeable implementations:

* ``"python"`` — the reference pure-Python loop over ``(target, factor)``
  lists.  Always available, handles every :class:`AlgorithmSpec`.
* ``"numpy"`` — the vectorized CSR engine in
  :mod:`repro.engine.dense_propagation`.  It compiles the factor adjacency
  into ``offsets``/``targets``/``factors`` arrays and runs each superstep
  with array operations (``np.minimum.at`` for selective min-aggregation,
  ``np.add.at`` for accumulative sums).  It produces identical converged
  states, round counts and edge-activation counts as the Python loop, and
  falls back to it transparently for algorithm specs whose algebra it cannot
  express.

Selection precedence, from strongest to weakest:

1. the explicit ``backend=`` argument of :func:`propagate` /
   :func:`repro.engine.runner.run_batch` / an engine constructor /
   ``LayphConfig.backend``;
2. the ``REPRO_BACKEND`` environment variable;
3. the default, ``"python"``.

The numpy backend additionally reuses compiled CSR snapshots across calls
through :mod:`repro.graph.csr_cache`: each incremental engine owns a
:class:`~repro.graph.csr_cache.CSRCache` that compiles the factor CSR once
and patches each :class:`~repro.graph.delta.GraphDelta` into the arrays in
place (amortized rebuild past a threshold), and repeated compiles of the
same ``FactorAdjacency`` are memoized on the adjacency object.  On top of
it the BSP engines (GraphBolt/DZiG) keep their memoized iterations in a
dense matrix (:mod:`repro.incremental.memo`) and the selective engines their
dependency forests in a dense table (:mod:`repro.incremental.dep_table`);
both fall back to their dict stores under the Python backend, on NaN
factors and for an algebra the array kernels cannot express.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional

PYTHON_BACKEND = "python"
NUMPY_BACKEND = "numpy"

#: environment variable consulted when no explicit backend is requested
BACKEND_ENV_VAR = "REPRO_BACKEND"


def _load_numpy_backend() -> Callable:
    from repro.engine.dense_propagation import propagate_numpy

    return propagate_numpy


def is_numpy_backend(name: Optional[str] = None) -> bool:
    """Whether the resolved backend runs the vectorized (CSR/dense) code
    paths — the engines gate their fast paths on this."""
    return resolve_backend(name) == NUMPY_BACKEND


#: backend name -> zero-argument loader returning the propagate implementation
#: (``None`` marks the built-in Python loop, which needs no indirection).
_REGISTRY: Dict[str, Optional[Callable[[], Callable]]] = {
    PYTHON_BACKEND: None,
    NUMPY_BACKEND: _load_numpy_backend,
}

_LOADED: Dict[str, Callable] = {}


def register_backend(name: str, loader: Callable[[], Callable]) -> None:
    """Register (or replace) a propagation backend.

    ``loader`` is called lazily, once, and must return a callable with the
    signature of :func:`repro.engine.dense_propagation.propagate_numpy`:
    ``(spec, adjacency, states, pending, metrics, max_rounds,
    allowed_targets) -> Optional[states]`` — returning ``None`` signals
    "cannot handle this spec/adjacency, fall back to the Python loop".
    """
    lowered = name.strip().lower()
    if not lowered:
        raise ValueError("backend name must be non-empty")
    _REGISTRY[lowered] = loader
    _LOADED.pop(lowered, None)


def available_backends() -> List[str]:
    """Names of all registered backends."""
    return sorted(_REGISTRY)


def resolve_backend(name: Optional[str] = None) -> str:
    """Resolve a backend request to a registered backend name.

    ``None`` falls back to the ``REPRO_BACKEND`` environment variable and
    then to ``"python"``.

    Raises:
        ValueError: if the requested backend is not registered.
    """
    if name is None:
        name = os.environ.get(BACKEND_ENV_VAR) or PYTHON_BACKEND
    lowered = str(name).strip().lower() or PYTHON_BACKEND
    if lowered not in _REGISTRY:
        raise ValueError(
            f"unknown propagation backend {name!r}; "
            f"available: {', '.join(available_backends())}"
        )
    return lowered


def get_backend(name: str) -> Optional[Callable]:
    """The propagate implementation for a *resolved* backend name.

    Returns ``None`` for the built-in ``"python"`` loop (callers run it
    directly); loads and caches the implementation otherwise.
    """
    loader = _REGISTRY[name]
    if loader is None:
        return None
    if name not in _LOADED:
        _LOADED[name] = loader()
    return _LOADED[name]
