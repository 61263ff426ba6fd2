"""Vectorized (numpy) implementation of the delta-accumulative loop.

This is the array kernel :func:`repro.engine.propagation.propagate` tries
first on every call: it compiles an
:class:`AlgorithmSpec` plus a factor adjacency into CSR factor arrays
(:class:`repro.graph.csr.FactorCSR`) and runs the frontier rounds with numpy
— ``np.minimum.at`` for selective min-aggregation (SSSP/BFS style) and
``np.add.at`` for accumulative sums (PageRank/PHP style).

The kernel is a drop-in replacement for the pure-Python loop in
:mod:`repro.engine.propagation`: it mutates the same ``states``/``pending``
dicts and records the same :class:`ExecutionMetrics`.  It is engineered for
*exact* metric compatibility — identical converged states, round counts,
per-round edge activations and vertex-update counts — so that the paper's
Figure 1/6 comparisons do not depend on which of the two ran:

* active vertices are processed in ascending vertex-id order, matching the
  ``sorted(...)`` snapshot of the Python loop;
* CSR rows preserve the adjacency's edge order, and ``np.add.at`` /
  ``np.minimum.at`` apply element-wise *in order* (unbuffered), so even the
  non-associative float sums of accumulative algorithms reproduce the Python
  loop's results bit for bit;
* "pending dict" membership is tracked explicitly (a boolean array) so the
  subtle termination behaviour of the dict-based loop — insignificant
  leftovers keep the loop alive for one final, unrecorded clearing round —
  is replayed exactly.

The kernel handles the standard algebra of the delta-accumulative model
(``G`` = ``min`` with identity ``+inf`` or ``+`` with identity ``0``;
``combine`` = ``+`` with unit ``0`` or ``×`` with unit ``1``, tolerance-based
significance).  Specs opt in by declaring
:attr:`AlgorithmSpec.dense_algebra`; the declaration is sanity-checked with
point probes at call time — including through the delegation wrappers
Layph's shortcut computations use — and undeclared or mismatching specs
silently fall back to the Python loop.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, Optional, Tuple

import numpy as np

from repro.engine.algorithm import AlgorithmSpec
from repro.engine.metrics import ExecutionMetrics
from repro.graph.csr import FactorCSR, FactorCSRView, expand_edges
from repro.parallel.slabs import PropagationSlab, run_propagation

AGGREGATE_MIN = "min"
AGGREGATE_SUM = "sum"
COMBINE_ADD = "add"
COMBINE_MUL = "mul"


def _uses_default_significance(spec) -> bool:
    """Whether messages are filtered by the base-class significance rule.

    The vectorized significance masks implement exactly
    :meth:`AlgorithmSpec.is_significant`; point probes cannot distinguish a
    custom rule that happens to agree on the sampled values, so the bound
    method itself is checked.  Delegating wrappers (Layph's shortcut specs)
    resolve to the wrapped spec's bound method, which passes as long as the
    underlying algorithm keeps the default.
    """
    return getattr(spec.is_significant, "__func__", None) is AlgorithmSpec.is_significant


def classify_spec(spec) -> Optional[Tuple[str, str]]:
    """The declared-and-verified algebra of ``spec``: ``(aggregate, combine)``.

    The array kernels only run specs that *opt in* by declaring
    :attr:`AlgorithmSpec.dense_algebra` — point probes alone cannot prove
    that an operator is unclamped/unsaturated everywhere, so an undeclared
    spec always falls back to the Python loop rather than risking silently
    different states.  The declaration is then sanity-checked: the probes
    below catch declarations that contradict the actual operators or an
    overridden :meth:`AlgorithmSpec.is_significant` (delegating wrappers,
    like Layph's shortcut specs, resolve both the declaration and the bound
    methods to the wrapped algorithm).  Returns ``None`` — Python fallback —
    on any mismatch.
    """
    try:
        declared = getattr(spec, "dense_algebra", None)
        if declared is None:
            return None
        aggregate_kind, combine_kind = declared
        if not _uses_default_significance(spec):
            return None
        selective = bool(spec.is_selective())
        identity = spec.aggregate_identity()
        unit = spec.combine_identity()
        if aggregate_kind == AGGREGATE_MIN:
            if not selective or identity != math.inf:
                return None
            if spec.aggregate(1.5, 2.5) != 1.5 or spec.aggregate(2.5, 1.5) != 1.5:
                return None
            if spec.is_significant(identity) or not spec.is_significant(1.5):
                return None
        elif aggregate_kind == AGGREGATE_SUM:
            if selective or identity != 0.0:
                return None
            if spec.aggregate(1.5, 2.25) != 3.75:
                return None
            tolerance = float(spec.tolerance())
            if not tolerance > 0.0:
                return None
            if spec.is_significant(0.0) or spec.is_significant(tolerance / 2.0):
                return None
            if not spec.is_significant(2.0 * tolerance):
                return None
            if not spec.is_significant(-2.0 * tolerance):
                return None
        else:
            return None
        if combine_kind == COMBINE_ADD:
            if unit != 0.0 or spec.combine(1.5, 2.25) != 3.75:
                return None
        elif combine_kind == COMBINE_MUL:
            if unit != 1.0 or spec.combine(1.5, 2.0) != 3.0:
                return None
        else:
            return None
    except Exception:
        return None
    return aggregate_kind, combine_kind


def _compile_adjacency(
    adjacency,
) -> Optional[Callable[[Iterable[int]], FactorCSR]]:
    """A compiler closure for ``adjacency``, or ``None`` if not materialisable.

    Three shapes compile to CSR:

    * a cache-backed adjacency (anything exposing ``compiled_csr``, i.e.
      :class:`repro.graph.csr_cache.CachedGraphAdjacency`) hands back its
      engine's cached snapshot — no row enumeration at all;
    * :class:`FactorAdjacency` and :class:`SilencedAdjacency` compile through
      the :func:`repro.graph.csr_cache.master_factor_csr` memo: one master
      compile per adjacency version, with silenced variants derived as cheap
      :class:`FactorCSRView` row masks (so repeated ``propagate`` calls over
      the same adjacency — or Layph's B per-boundary shortcut computations —
      no longer recompile per call);
    * arbitrary callables (the general ``AdjacencyFn`` contract) stay on the
      Python loop.
    """
    from repro.engine.propagation import FactorAdjacency, SilencedAdjacency
    from repro.graph.csr_cache import master_factor_csr

    compiled_csr = getattr(adjacency, "compiled_csr", None)
    if compiled_csr is not None:

        def compile_cached(universe: Iterable[int]) -> FactorCSR:
            csr = compiled_csr(universe)
            if csr is not None:
                return csr
            # Universe reaches outside the cached index space: compile a
            # universe-specific snapshot from the adjacency view.
            return FactorCSR.from_factor_adjacency(adjacency, universe=universe)

        return compile_cached

    if isinstance(adjacency, SilencedAdjacency):
        base, silenced = adjacency.base, adjacency.silenced
    elif isinstance(adjacency, FactorAdjacency):
        base, silenced = adjacency, None
    else:
        return None

    def compile_with_universe(universe: Iterable[int]) -> FactorCSR:
        master = master_factor_csr(base, universe)
        if not silenced:
            return master
        return FactorCSRView(master, silenced)

    return compile_with_universe


#: flat slot indices of concatenated CSR rows, in exact scatter order
#: (shared with the cache patching and the vectorized Layph/BSP kernels)
_expand_edges = expand_edges


def build_propagation_slab(
    spec,
    adjacency,
    states: Dict[int, float],
    pending: Dict[int, float],
    allowed_targets: Optional[Callable[[int], bool]] = None,
) -> Optional[Tuple[PropagationSlab, list]]:
    """Compile one propagate call into an array slab; ``None`` = fall back.

    Returns ``(slab, vertex_ids)`` — the slab carries only arrays and
    scalars (:class:`repro.parallel.slabs.PropagationSlab`).
    Incompatibility — an algebra the array kernels cannot express, an
    adjacency that cannot be materialised, or NaN-carrying inputs — is
    detected here, before anything is mutated.
    """
    kinds = classify_spec(spec)
    if kinds is None:
        return None
    compiler = _compile_adjacency(adjacency)
    if compiler is None:
        return None
    aggregate_kind, combine_kind = kinds
    selective = aggregate_kind == AGGREGATE_MIN

    csr = compiler(set(states) | set(pending))
    ids = csr.vertex_ids
    index = csr.index
    n = csr.num_vertices
    identity = math.inf if selective else 0.0
    tolerance = 0.0 if selective else float(spec.tolerance())

    state_arr = np.fromiter(
        (
            states[vertex] if vertex in states else float(spec.initial_state(vertex))
            for vertex in ids
        ),
        dtype=np.float64,
        count=n,
    )

    pending_arr = np.full(n, identity, dtype=np.float64)
    in_dict = np.zeros(n, dtype=bool)
    for vertex, message in pending.items():
        position = index[vertex]
        pending_arr[position] = message
        in_dict[position] = True

    # NaN inputs make `min`/comparison semantics diverge between numpy and
    # the Python loop (np.minimum propagates NaN, Python's branchy min keeps
    # the non-NaN operand), so the metric-identical contract only covers
    # NaN-free inputs — hand anything else to the Python loop untouched.
    if (
        np.isnan(csr.factors).any()
        or np.isnan(state_arr).any()
        or np.isnan(pending_arr).any()
    ):
        return None

    absorb = np.fromiter((bool(spec.absorbs(vertex)) for vertex in ids), dtype=bool, count=n)
    allowed = (
        np.fromiter((bool(allowed_targets(vertex)) for vertex in ids), dtype=bool, count=n)
        if allowed_targets is not None
        else None
    )

    slab = PropagationSlab(
        offsets=csr.offsets,
        targets=csr.targets,
        factors=csr.factors,
        out_degree=csr.out_degree,
        state=state_arr,
        pending=pending_arr,
        in_dict=in_dict,
        state_touched=np.zeros(n, dtype=bool),
        absorb=absorb,
        allowed=allowed,
        selective=selective,
        combine_add=combine_kind == COMBINE_ADD,
        identity=identity,
        tolerance=tolerance,
    )
    return slab, ids


def write_back_slab(
    slab: PropagationSlab,
    ids: list,
    states: Dict[int, float],
    pending: Dict[int, float],
) -> None:
    """Split a finished slab back into the ``states``/``pending`` dicts."""
    for position in np.nonzero(slab.state_touched)[0]:
        states[ids[position]] = float(slab.state[position])
    pending.clear()
    for position in np.nonzero(slab.in_dict)[0]:
        pending[ids[position]] = float(slab.pending[position])


def record_propagation_rounds(
    metrics: ExecutionMetrics, rounds: list
) -> None:
    """Replay a slab run's per-round triples into the metrics object."""
    for total, active, updates in rounds:
        metrics.vertex_updates += updates
        metrics.record_round(total, active)


def propagate_numpy(
    spec,
    adjacency,
    states: Dict[int, float],
    pending: Dict[int, float],
    metrics: Optional[ExecutionMetrics] = None,
    max_rounds: Optional[int] = None,
    allowed_targets: Optional[Callable[[int], bool]] = None,
) -> Optional[Dict[int, float]]:
    """Run the delta-accumulative loop vectorized; ``None`` = cannot handle.

    Mirrors :func:`repro.engine.propagation.propagate` exactly (see module
    docstring).  This is now a thin adapter: :func:`build_propagation_slab`
    compiles the call into an array slab and the loop itself runs in the
    engine-object-free kernel :func:`repro.parallel.slabs.run_propagation`.
    A ``None`` return leaves ``states``/``pending``/``metrics`` untouched
    for the Python fallback.
    """
    if not pending:
        # Nothing to propagate; skip the O(V+E) CSR compile the way the
        # Python loop's ``while pending`` exits immediately.
        return states
    built = build_propagation_slab(spec, adjacency, states, pending, allowed_targets)
    if built is None:
        return None
    slab, ids = built
    if metrics is None:
        metrics = ExecutionMetrics()
    rounds = run_propagation(slab, max_rounds)
    record_propagation_rounds(metrics, rounds)
    write_back_slab(slab, ids, states, pending)
    return states
