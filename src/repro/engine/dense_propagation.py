"""The algebra contract and the array form of the delta-accumulative loop.

Every engine runs one algebra, the one the paper defines Layph and Ingress
over: ``G`` = ``min`` with identity ``+inf`` and ``combine`` = ``+`` with unit
``0`` (selective: SSSP, BFS), or ``G`` = ``+`` with identity ``0`` and
``combine`` = ``×`` with unit ``1`` (accumulative: PageRank, PHP), with the
base class's significance rule and negation.  A spec states which one it
runs in :attr:`AlgorithmSpec.dense_algebra`; :func:`require_algebra` checks
the declaration once, at the boundary (engine construction and
:func:`repro.engine.runner.run_batch`), and raises for anything else.  Past
that boundary every kernel trusts the declaration.

:func:`build_propagation_slab` compiles one
:func:`repro.engine.propagation.propagate` call into CSR factor arrays
(:class:`repro.graph.csr.FactorCSR`) and
:func:`repro.parallel.slabs.run_propagation` runs the frontier rounds with
numpy — ``np.minimum.at`` for the selective min, ``np.add.at`` for the
accumulative sum.  The kernel reproduces the reference loop kept in the
test oracles (``tests/oracles``) exactly — converged states, round counts,
per-round edge activations and vertex-update counts:

* active vertices are processed in ascending vertex-id order, matching the
  reference's ``sorted(...)`` snapshot;
* CSR rows preserve the adjacency's edge order, and ``np.add.at`` /
  ``np.minimum.at`` apply element-wise *in order* (unbuffered), so even the
  non-associative float sums of accumulative algorithms match bit for bit;
* "pending dict" membership is tracked explicitly (a boolean array) so the
  termination behaviour of the dict loop — insignificant leftovers keep it
  alive for one final, unrecorded clearing round — is replayed exactly.

The engines reject NaN inputs at their boundary (``initialize`` and
``apply_delta``), so no state is ever NaN: the memo table's "absent vertex"
marker relies on it.
"""

from __future__ import annotations

import math
from itertools import compress
from typing import Callable, Dict, Iterable, Optional, Tuple

import numpy as np

from repro.engine.algorithm import AlgorithmSpec
from repro.graph.csr import FactorCSR, FactorCSRView, locate
from repro.parallel.slabs import PropagationSlab

AGGREGATE_MIN = "min"
AGGREGATE_SUM = "sum"
COMBINE_ADD = "add"
COMBINE_MUL = "mul"

#: the two ``(aggregate, combine)`` pairs every engine runs
ALGEBRAS = ((AGGREGATE_MIN, COMBINE_ADD), (AGGREGATE_SUM, COMBINE_MUL))


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


def _uses_default_negate(spec) -> bool:
    """Whether ``spec.negate`` is the base class's arithmetic negation."""
    return getattr(spec.negate, "__func__", None) is AlgorithmSpec.negate


def classify_spec(spec) -> Optional[Tuple[str, str]]:
    """The declared-and-verified algebra of ``spec``: ``(aggregate, combine)``.

    Point probes alone cannot prove that an operator is unclamped or
    unsaturated everywhere, so a spec must *declare* its algebra in
    :attr:`AlgorithmSpec.dense_algebra`.  The declaration is then
    sanity-checked: the probes below catch declarations that contradict the
    actual operators or an overridden :meth:`AlgorithmSpec.is_significant`
    (delegating wrappers, like Layph's shortcut specs, resolve both the
    declaration and the bound methods to the wrapped algorithm).  Returns
    ``None`` for an undeclared spec, a pair outside :data:`ALGEBRAS` and on
    any mismatch.
    """
    try:
        declared = getattr(spec, "dense_algebra", None)
        if declared is None or tuple(declared) not in ALGEBRAS:
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
            if unit != 0.0 or spec.combine(1.5, 2.25) != 3.75:
                return None
        else:
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
            if unit != 1.0 or spec.combine(1.5, 2.0) != 3.0:
                return None
    except Exception:
        return None
    return aggregate_kind, combine_kind


def require_algebra(spec) -> Tuple[str, str]:
    """The checked algebra of ``spec``, or ``ValueError``.

    The one place the contract is enforced: engine construction and every
    :func:`repro.engine.runner.run_batch` call run it once, and nothing past
    them probes the spec again.  A spec passes when :func:`classify_spec`
    verifies its declaration and it keeps the base class's ``negate``.
    """
    kinds = classify_spec(spec)
    if kinds is None or not _uses_default_negate(spec):
        raise ValueError(
            f"{getattr(spec, 'name', type(spec).__name__)!r} does not run the "
            f"delta-accumulative algebra: declare dense_algebra = "
            f"{ALGEBRAS[0]!r} (selective) or {ALGEBRAS[1]!r} (accumulative) "
            "and keep the standard aggregate, combine, is_significant and "
            "negate operators"
        )
    return kinds


def _compile_adjacency(adjacency) -> Callable[[Iterable[int]], FactorCSR]:
    """A compiler closure for ``adjacency``.

    Three shapes compile to CSR:

    * a cache-backed adjacency (anything exposing ``compiled_csr``, i.e.
      :class:`repro.graph.csr_cache.CachedGraphAdjacency`) hands back its
      engine's cached snapshot — no row enumeration at all;
    * :class:`FactorAdjacency` and :class:`SilencedAdjacency` compile through
      the :func:`repro.graph.csr_cache.master_factor_csr` memo: one master
      compile per adjacency version, with silenced variants derived as cheap
      :class:`FactorCSRView` row masks.

    Any other adjacency raises ``TypeError``: every caller in the library
    passes one of the three.
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
        raise TypeError(
            f"cannot compile a {type(adjacency).__name__} adjacency: pass a "
            "FactorAdjacency, a SilencedAdjacency or a cache-backed view"
        )

    def compile_with_universe(universe: Iterable[int]) -> FactorCSR:
        master = master_factor_csr(base, universe)
        if not silenced:
            return master
        return FactorCSRView(master, silenced)

    return compile_with_universe


def build_propagation_slab(
    spec,
    adjacency,
    states: Dict[int, float],
    pending: Dict[int, float],
    owned: Optional[Iterable[int]] = None,
) -> Tuple[PropagationSlab, list]:
    """Compile one propagate call into an array slab.

    ``owned`` is the vertex set whose states the iteration reads and writes
    (Layph passes its skeleton); by default every id of the compiled CSR
    starts from ``states``.  With ``owned`` only ``owned`` and the keys of
    ``pending`` start from ``states`` (and have their absorb flag read);
    every other entry stays at the identity.  That is exact when no link of
    ``adjacency`` targets a vertex outside them, as every link of Layph's
    upper layer targets an upper vertex.

    Returns ``(slab, vertex_ids)`` — the slab carries only arrays and
    scalars (:class:`repro.parallel.slabs.PropagationSlab`).  Nothing is
    mutated here.
    """
    aggregate_kind, combine_kind = spec.dense_algebra
    selective = aggregate_kind == AGGREGATE_MIN

    universe = set(states if owned is None else owned)
    universe.update(pending)
    csr = _compile_adjacency(adjacency)(universe)
    ids = csr.vertex_ids
    index = csr.index
    n = csr.num_vertices
    identity = math.inf if selective else 0.0
    tolerance = 0.0 if selective else float(spec.tolerance())

    if owned is None:
        members, rows = ids, slice(None)
    else:
        members = universe
        rows, found = locate(csr.ids_array(), np.fromiter(universe, np.int64, count=len(universe)))
        if not found.all():
            raise KeyError("a vertex of the iteration lies outside the compiled id space")
    state_arr = np.full(n, identity, dtype=np.float64)
    state_arr[rows] = np.fromiter(
        (
            states[vertex] if vertex in states else float(spec.initial_state(vertex))
            for vertex in members
        ),
        dtype=np.float64,
        count=len(members),
    )
    absorb = np.zeros(n, dtype=bool)
    absorb[rows] = np.fromiter(
        (bool(spec.absorbs(vertex)) for vertex in members), dtype=bool, count=len(members)
    )

    pending_arr = np.full(n, identity, dtype=np.float64)
    in_dict = np.zeros(n, dtype=bool)
    for vertex, message in pending.items():
        position = index[vertex]
        pending_arr[position] = message
        in_dict[position] = True

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
    started: np.ndarray,
) -> Dict[int, float]:
    """Split a finished slab back into the ``states``/``pending`` dicts.

    ``started`` is the slab's state array as it was before the run.
    Returns the write-back journal: ``{vertex: state before the run}`` for
    every vertex whose state the run changed, in ascending id order.
    """
    touched = np.flatnonzero(slab.state_touched)
    vertices = [ids[row] for row in touched.tolist()]
    final = slab.state[touched]
    before = started[touched]
    states.update(zip(vertices, final.tolist()))
    journal = dict(compress(zip(vertices, before.tolist()), (final != before).tolist()))
    pending.clear()
    for position in np.nonzero(slab.in_dict)[0]:
        pending[ids[position]] = float(slab.pending[position])
    return journal
