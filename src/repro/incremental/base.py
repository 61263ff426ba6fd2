"""Common interface of every incremental engine.

The life cycle follows Equation (4) of the paper:

1. ``initialize(G)`` runs the batch algorithm ``A(G)`` and memoizes whatever
   the engine's strategy requires (dependency trees, per-iteration states,
   nothing at all, ...).
2. ``apply_delta(ΔG)`` adjusts the memoized result so that it equals
   ``A(G ⊕ ΔG)``, and returns the metrics of the adjustment.

Engines keep their own mutable copy of the graph so repeated deltas can be
applied (``Layph acc. inc.`` in Figure 11b accumulates exactly this way).

The engine is where the algebra contract is enforced: construction checks
the spec once (:func:`repro.engine.dense_propagation.require_algebra`),
``initialize`` rejects non-finite edge weights and NaN initial states or
messages, and ``apply_delta`` rejects a delta with intrinsic defects (the
rule of :meth:`repro.graph.delta.GraphDelta.validate`).  A rejected call
raises ``ValueError`` and leaves the engine untouched.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, Optional

import numpy as np

from repro.engine.algorithm import AlgorithmSpec
from repro.engine.dense_propagation import require_algebra
from repro.engine.metrics import ExecutionMetrics, PhaseTimer
from repro.engine.runner import BatchResult, check_backend, run_batch
from repro.graph.csr_cache import CSRCache
from repro.graph.delta import GraphDelta
from repro.graph.footprint import DeltaFootprint
from repro.graph.graph import Graph


@dataclass
class IncrementalResult:
    """Outcome of one ``apply_delta`` call."""

    states: Dict[int, float]
    metrics: ExecutionMetrics = field(default_factory=ExecutionMetrics)
    phases: PhaseTimer = field(default_factory=PhaseTimer)
    wall_seconds: float = 0.0


class IncrementalEngine(abc.ABC):
    """Base class for incremental graph-processing engines."""

    #: registry name used in benchmark output
    name: str = "engine"
    #: which algorithm family this engine can run: "selective", "accumulative"
    #: or "any".
    supported_family: str = "any"

    def __init__(self, spec: AlgorithmSpec, *, backend: Optional[str] = None) -> None:
        # ``backend`` is accepted only for compatibility (see check_backend)
        check_backend(backend)
        #: the spec's checked ``(aggregate, combine)`` pair
        self.algebra = require_algebra(spec)
        self._check_supported(spec)
        self.spec = spec
        #: compiled-CSR cache of this engine's graph (see
        #: :mod:`repro.graph.csr_cache`); kept in sync with applied deltas
        #: through :meth:`_update_graph`
        self.csr_cache = CSRCache()
        self.graph: Optional[Graph] = None
        self.states: Dict[int, float] = {}
        self.initial_metrics: Optional[ExecutionMetrics] = None
        #: shared per-delta footprint (see :mod:`repro.graph.footprint`),
        #: rebuilt by :meth:`_update_graph` on every delta (``None`` before
        #: the first one)
        self.footprint: Optional[DeltaFootprint] = None
        #: attached durable store (see :mod:`repro.storage`); every applied
        #: delta is logged to it and periodically compacted into a snapshot
        self._store = None
        #: the :class:`repro.storage.store.RestoreReport` of the restore that
        #: produced this engine, if any
        self.last_restore_report = None

    # ------------------------------------------------------------------
    @classmethod
    def supports(cls, spec: AlgorithmSpec) -> bool:
        """Whether this engine can execute ``spec``."""
        if cls.supported_family == "any":
            return True
        if cls.supported_family == "selective":
            return spec.is_selective()
        return not spec.is_selective()

    def _check_supported(self, spec: AlgorithmSpec) -> None:
        if not self.supports(spec):
            raise ValueError(
                f"{type(self).__name__} does not support {spec.name!r}: "
                f"it only handles {self.supported_family} algorithms "
                "(mirroring the limitation reported in the paper, Section VI-A)"
            )

    # ------------------------------------------------------------------
    def initialize(self, graph: Graph) -> BatchResult:
        """Run the batch computation on ``graph`` and memoize its result.

        Raises ``ValueError``, before anything changes, for a non-finite edge
        weight or a NaN initial state or message (``+inf`` states stay
        legal: they mark the vertices SSSP/BFS cannot reach).
        """
        _reject_invalid_inputs(self.spec, graph)
        self.graph = graph.copy()
        result = self._initial_run(self.graph)
        self.states = dict(result.states)
        self.initial_metrics = result.metrics
        return result

    def _initial_run(self, graph: Graph) -> BatchResult:
        """Batch run hook; engines override it to memoize extra structures."""
        return run_batch(
            self.spec, graph, adjacency=self._propagation_adjacency(graph)
        )

    # ------------------------------------------------------------------
    def apply_delta(
        self, delta: GraphDelta, log_meta: Optional[dict] = None
    ) -> IncrementalResult:
        """Incrementally update the memoized result for ``delta``.

        ``log_meta`` is an optional annotation stored on the durable log
        record of this delta (the streaming service stamps the WAL event
        range it covers).  A persistence failure (``OSError``, e.g. disk
        full) degrades to a :class:`RuntimeWarning` and skips the log/
        compaction step instead of crashing the apply: the in-memory result
        is already correct, and the WAL above this layer (or the next
        successful compaction) remains the durability story.

        A delta with intrinsic defects (non-finite weights, see
        :meth:`repro.graph.delta.GraphDelta.validate`) raises ``ValueError``
        and leaves the engine untouched.
        """
        if self.graph is None:
            raise RuntimeError("initialize() must be called before apply_delta()")
        problems = delta.validate()
        if problems:
            raise ValueError(f"delta rejected: {'; '.join(problems)}")
        start = time.perf_counter()
        result = self._apply_delta(delta)
        result.wall_seconds = time.perf_counter() - start
        self.states = dict(result.states)
        store = self._store
        if store is not None:
            import warnings

            try:
                store.log_delta(delta, self.graph.version, meta=log_meta)
                if store.compaction_due():
                    store.save(self)
            except OSError as error:
                warnings.warn(
                    f"durable store {store.directory}: persistence failed "
                    f"({error}); delta applied in memory only",
                    RuntimeWarning,
                    stacklevel=2,
                )
        return result

    @abc.abstractmethod
    def _apply_delta(self, delta: GraphDelta) -> IncrementalResult:
        """Engine-specific incremental adjustment."""

    # ------------------------------------------------------------------
    # durable storage (see repro.storage; imports stay lazy because the
    # storage package's restore path imports the engine registry)
    # ------------------------------------------------------------------
    def save(self, directory: str):
        """Persist the engine to ``directory`` and attach the store.

        Once attached, every subsequent ``apply_delta`` appends one fsync'd
        log record, and every :data:`repro.storage.store.COMPACT_EVERY`
        records trigger an automatic re-save (compaction).  Returns the
        attached :class:`repro.storage.store.EngineStore`;
        :func:`repro.storage.store.restore_engine` rebuilds the engine.
        """
        from repro.storage.store import EngineStore

        store = self._store
        if store is None or store.directory != directory:
            if store is not None:
                store.close()
            store = EngineStore(directory)
            self._store = store
        store.save(self)
        return store

    def detach_store(self) -> None:
        """Stop logging deltas to the attached store (which stays open)."""
        self._store = None

    def _snapshot_extras(self):
        """Engine-specific snapshot halves: ``(json_meta, numpy_arrays)``.

        Overridden by engines with cross-delta derived state (memo tables,
        dependency forests, Layph's layered skeleton).  The arrays end up in
        the snapshot ``.npz`` under the ``extras/`` prefix.
        """
        return {}, {}

    def _restore_extras(self, meta: dict, arrays) -> None:
        """Reinstall :meth:`_snapshot_extras` output after a warm restore."""

    # ------------------------------------------------------------------
    def _require_graph(self) -> Graph:
        if self.graph is None:
            raise RuntimeError("initialize() must be called first")
        return self.graph

    # ------------------------------------------------------------------
    # CSR-cache plumbing shared by the concrete engines
    # ------------------------------------------------------------------
    def _update_graph(self, delta: GraphDelta) -> Graph:
        """Apply ``delta`` to the engine's graph, keeping the CSR cache in sync.

        The cached factor CSR snapshots are patched in place (see
        :meth:`repro.graph.csr_cache.CSRCache.apply_delta`), so a sequence of
        deltas compiles the CSR once instead of once per ``propagate`` call.
        The shared :class:`repro.graph.footprint.DeltaFootprint` of this delta
        is installed as :attr:`footprint` (borrowing the old/new snapshots the
        cache already holds — never forcing a compile), so every downstream
        scan of the same delta shares one result.  Returns the updated graph,
        which is also installed as ``self.graph``.
        """
        old_graph = self._require_graph()
        new_graph = delta.apply(old_graph)
        spec = self.spec
        cache = self.csr_cache
        old_out = cache.peek_csr("out", spec, old_graph)
        old_in = cache.peek_csr("in", spec, old_graph)
        cache.apply_delta(spec, old_graph, new_graph, delta)
        self.footprint = DeltaFootprint(
            spec,
            old_graph,
            new_graph,
            delta,
            old_out_csr=old_out,
            new_out_csr=(
                cache.peek_csr("out", spec, new_graph) if old_out is not None else None
            ),
            old_in_csr=old_in,
            new_in_csr=(
                cache.peek_csr("in", spec, new_graph) if old_in is not None else None
            ),
        )
        self.graph = new_graph
        return new_graph

    def _propagation_adjacency(self, graph: Graph):
        """Cache-backed factor adjacency of ``graph`` for full-graph
        propagation (the array kernel reuses the compiled/patched CSR)."""
        return self.csr_cache.adjacency(self.spec, graph)


def _reject_invalid_inputs(spec: AlgorithmSpec, graph: Graph) -> None:
    """Raise ``ValueError`` for inputs outside the algebra contract."""
    weights = np.fromiter(
        chain.from_iterable(graph.out_neighbors(v).values() for v in graph.vertices()),
        np.float64,
    )
    if not np.isfinite(weights).all():
        raise ValueError("graph rejected: it carries a non-finite edge weight")
    initial = np.fromiter(
        chain.from_iterable(
            (spec.initial_state(v), spec.initial_message(v)) for v in graph.vertices()
        ),
        np.float64,
    )
    if np.isnan(initial).any():
        raise ValueError(f"graph rejected: {spec.name!r} gives a vertex a NaN initial value")
