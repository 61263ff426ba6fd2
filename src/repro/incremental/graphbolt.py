"""GraphBolt-style incremental engine (Mariappan & Vora, EuroSys'19).

GraphBolt memoizes the *per-iteration* aggregated values of a synchronous
(BSP) execution and, after a delta, refines the memoized iterations one by
one: a vertex is re-aggregated at iteration ``i`` when any of its in-neighbors
changed at iteration ``i-1`` or its in-edges changed, and the re-aggregation
pulls **all** of its in-edges.  This pull-everything refinement is what makes
GraphBolt activate far more edges than Ingress (Figure 6), while still being
much cheaper than a restart.

The synchronous fixed-point iteration
``x^i_v = m^0_v + Σ_{(u,v)} combine(x^{i-1}_u, f_{u,v})`` converges to the same
fixed point as the asynchronous delta-accumulative engine, so results from
all engines remain directly comparable.

The memoized iterations live in the dense
:class:`repro.incremental.memo.MemoTable` — one float64 matrix row per
iteration, keyed by the cached in-edge CSR's vertex index.  Batch supersteps
append rows, and frontier refinement is pure gather/scatter on them; the
dict loops these kernels replay bit for bit live with the test oracles.

Only accumulative algorithms are supported (PageRank, PHP), mirroring the
original system (the paper runs GraphBolt only on those two workloads).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.engine.algorithm import AlgorithmSpec
from repro.engine.dense_propagation import COMBINE_ADD
from repro.engine.metrics import ExecutionMetrics, PhaseTimer
from repro.engine.runner import BatchResult
from repro.graph.csr import FactorCSR, expand_edges
from repro.graph.delta import GraphDelta
from repro.graph.graph import Graph
from repro.incremental.base import IncrementalEngine, IncrementalResult
from repro.incremental.memo import MemoTable, refinement_preamble
from repro.parallel.slabs import pull_rows

#: hard bound on refinement iterations, far above anything PR/PHP need
_MAX_ITERATIONS = 10_000

#: phase name of the per-delta structural scans (dirty targets / changed
#: factor sources, read off the delta footprint)
PHASE_SCAN = "delta scan"


class GraphBoltEngine(IncrementalEngine):
    """Per-iteration dependency memoization with pull-based refinement."""

    name = "graphbolt"
    supported_family = "accumulative"

    def __init__(self, spec: AlgorithmSpec, *, backend: Optional[str] = None) -> None:
        super().__init__(spec, backend=backend)
        #: memoized-iteration store, built by ``initialize``
        self.memo: Optional[MemoTable] = None
        #: ``(vertex_ids, root, keep_mask)`` stash: the root-message array and
        #: the non-absorbing mask are invariant for a given dense index space,
        #: so they are rebuilt only when the memo table is remapped
        self._dense_aux: Optional[Tuple[List[int], np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------
    # memoized-iteration store
    # ------------------------------------------------------------------
    @property
    def iterations(self) -> List[Dict[int, float]]:
        """Memoized per-iteration vertex values, exported as dicts."""
        return self.memo.to_dicts()

    def adopt_baseline(self, other: "GraphBoltEngine") -> None:
        """Adopt another BSP engine's memoized batch baseline.

        GraphBolt and DZiG memoize the *same* per-iteration BSP values for a
        given spec and graph — only their refinement differs — so a harness
        that compares them (e.g. the ablation in
        ``benchmarks/test_ablations.py``) does not need to materialise the
        iteration store twice: initialize one engine, then let the other
        adopt its baseline.  The :class:`MemoTable` is shared as one matrix
        snapshot (:meth:`MemoTable.copy`); subsequent deltas on either engine
        leave the other's store untouched, and every post-delta result is
        bitwise identical to an independently initialized engine's.

        Both engines must run the same spec instance (the memoized values
        are functions of its algebra and parameters).
        """
        if other.spec is not self.spec:
            raise ValueError(
                "adopt_baseline requires both engines to share one spec "
                "instance; the memoized iterations are spec-dependent"
            )
        if other.graph is None:
            raise RuntimeError("the source engine must be initialized first")
        self.graph = other.graph.copy()
        self.states = dict(other.states)
        self.initial_metrics = other.initial_metrics
        self.csr_cache.clear()
        self.footprint = None
        self.memo = other.memo.copy()
        self._dense_aux = None

    # ------------------------------------------------------------------
    # durable snapshots (repro.storage)
    # ------------------------------------------------------------------
    def _snapshot_extras(self):
        from repro.storage.codecs import encode_memo_table, pack

        memo_meta, memo_arrays = encode_memo_table(self.memo)
        return {"store": "memo", "memo": memo_meta}, pack("memo", memo_arrays)

    def _restore_extras(self, meta: dict, arrays) -> None:
        from repro.storage.codecs import decode_iteration_dicts, decode_memo_table, unpack

        # The per-delta stash (``_dense_aux``) is a lazy derivation; leaving
        # it unset reproduces a fresh engine exactly.
        self._dense_aux = None
        if meta.get("store") == "memo":
            self.memo = decode_memo_table(meta["memo"], unpack("memo", arrays))
            return
        # a snapshot of the retired dict store: promote its levels
        graph = self._require_graph()
        csr = self.csr_cache.in_csr(self.spec, graph)
        self.memo = MemoTable(csr.vertex_ids, csr.index, graph_version=graph.version)
        for level in decode_iteration_dicts(meta["iterations"], unpack("iterations", arrays)):
            self.memo.append(
                np.fromiter(
                    (level.get(v, np.nan) for v in csr.vertex_ids),
                    np.float64,
                    count=csr.num_vertices,
                )
            )

    def _combine_add(self) -> bool:
        return self.algebra[1] == COMBINE_ADD

    # ------------------------------------------------------------------
    # batch phase: synchronous iterations with full memoization
    # ------------------------------------------------------------------
    def _initial_run(self, graph: Graph) -> BatchResult:
        """Vectorized BSP batch phase.

        Each superstep re-aggregates every non-absorbing vertex from all of
        its in-edges: ``np.add.at`` over the in-CSR applies the per-row
        contributions in slot order, which is exactly the in-adjacency
        iteration order of the reference loop, so even the non-associative
        float sums reproduce it bitwise.  Each superstep appends one row of
        the memo table.
        """
        spec = self.spec
        csr = self.csr_cache.in_csr(spec, graph)
        ids = csr.vertex_ids
        n = csr.num_vertices
        root = np.fromiter((spec.initial_message(v) for v in ids), np.float64, count=n)
        absorb = np.fromiter((bool(spec.absorbs(v)) for v in ids), bool, count=n)
        rows = np.repeat(np.arange(n, dtype=np.int64), csr.out_degree)
        keep = ~absorb[rows]
        kept_rows = rows[keep]
        kept_sources = csr.targets[keep]
        kept_factors = csr.factors[keep]
        activations = int(csr.out_degree[~absorb].sum())
        tolerance = spec.tolerance()

        metrics = ExecutionMetrics()
        current = root.copy()
        self.memo = MemoTable(ids, csr.index, graph_version=graph.version)
        self.memo.append(current)
        for _ in range(_MAX_ITERATIONS):
            following = root.copy()
            if kept_rows.size:
                values = current[kept_sources]
                np.add.at(
                    following,
                    kept_rows,
                    values + kept_factors if self._combine_add() else values * kept_factors,
                )
            changes = np.abs(following - current)
            if absorb.any():
                changes[absorb] = 0.0
            max_change = float(changes.max()) if n else 0.0
            metrics.record_round(activations, n)
            self.memo.append(following)
            current = following
            if max_change <= tolerance:
                break
        return BatchResult(states=dict(zip(ids, current.tolist())), metrics=metrics)

    # ------------------------------------------------------------------
    # incremental phase: iteration-by-iteration refinement
    # ------------------------------------------------------------------
    def _apply_delta(self, delta: GraphDelta) -> IncrementalResult:
        metrics = ExecutionMetrics()
        phases = PhaseTimer()
        old_graph = self._require_graph()

        with phases.phase("graph update"):
            new_graph = self._update_graph(delta)
            footprint = self.footprint
            added_vertices = footprint.added_vertices
            removed_vertices = footprint.removed_vertices

        with phases.phase(PHASE_SCAN):
            structurally_dirty = set(footprint.dirty_targets)

        with phases.phase("dependency refinement"):
            self._prepare_iteration_zero(new_graph, added_vertices, removed_vertices)
            states = self._refine(
                new_graph,
                old_graph,
                structurally_dirty,
                set(added_vertices),
                metrics,
            )

        return IncrementalResult(states=states, metrics=metrics, phases=phases)

    # ------------------------------------------------------------------
    # helpers shared with DZiG
    # ------------------------------------------------------------------
    def _prepare_iteration_zero(
        self, new_graph: Graph, added_vertices: Set[int], removed_vertices: Set[int]
    ) -> None:
        """Move the memo table to ``new_graph``'s index space: removed
        vertices' columns go, added vertices get their root message at every
        level."""
        csr = self.csr_cache.in_csr(self.spec, new_graph)
        memo = self.memo
        if not memo.matches_ids(csr.vertex_ids):
            spec = self.spec
            fill = {v: spec.initial_message(v) for v in added_vertices}
            memo.remap(csr.vertex_ids, csr.index, fill, graph_version=new_graph.version)
        else:
            memo.graph_version = new_graph.version

    def _pull_frontier_rows(
        self,
        csr: FactorCSR,
        memo: MemoTable,
        iteration: int,
        frontier_rows: np.ndarray,
        tolerance: float,
        root: np.ndarray,
    ) -> Tuple[int, np.ndarray]:
        """Dense-store frontier pull: pure gather/scatter on matrix rows.

        ``frontier_rows`` must be ascending (the sorted-vertex order of the
        reference); contributions are applied with ``np.add.at`` in slot
        order, so the refined values are bitwise equal to the dict paths.
        Returns ``(activations, changed_rows)``.
        """
        return pull_rows(
            csr.offsets,
            csr.targets,
            csr.factors,
            csr.out_degree,
            frontier_rows,
            memo.row(iteration - 1),
            memo.row(iteration),
            root,
            tolerance,
            self._combine_add(),
        )

    def _pull_frontier_memo(
        self,
        csr: FactorCSR,
        memo: MemoTable,
        iteration: int,
        frontier: Set[int],
        tolerance: float,
        root: np.ndarray,
    ) -> Tuple[int, Set[int]]:
        """Dense pull for an id-set frontier (DZiG's hybrid loops)."""
        if not frontier:
            return 0, set()
        index = csr.index
        frontier_rows = np.fromiter(
            (index[v] for v in sorted(frontier)), np.int64, count=len(frontier)
        )
        total, changed_rows = self._pull_frontier_rows(
            csr, memo, iteration, frontier_rows, tolerance, root
        )
        ids = csr.vertex_ids
        return total, {ids[int(row)] for row in changed_rows}

    def _root_array(self, csr: FactorCSR) -> np.ndarray:
        """Initial messages in dense-index order (the pull fallback values)."""
        spec = self.spec
        return np.fromiter(
            (spec.initial_message(v) for v in csr.vertex_ids),
            np.float64,
            count=csr.num_vertices,
        )

    def _dense_context(self, csr: FactorCSR) -> Tuple[np.ndarray, np.ndarray]:
        """``(root, keep_mask)`` for the dense store's index space, cached.

        Both arrays are pure functions of the vertex-id list (spec root
        messages and non-absorbing vertices), so they are recomputed only
        when the memo table was remapped to a new id list — not on every
        delta.
        """
        memo = self.memo
        cached = self._dense_aux
        if cached is not None and cached[0] is memo.vertex_ids:
            return cached[1], cached[2]
        spec = self.spec
        root = self._root_array(csr)
        keep_mask = np.fromiter(
            (not spec.absorbs(v) for v in csr.vertex_ids),
            bool,
            count=csr.num_vertices,
        )
        self._dense_aux = (memo.vertex_ids, root, keep_mask)
        return root, keep_mask

    # ------------------------------------------------------------------
    def _refine(
        self,
        new_graph: Graph,
        old_graph: Graph,
        structurally_dirty: Set[int],
        changed_prev: Set[int],
        metrics: ExecutionMetrics,
    ) -> Dict[int, float]:
        """GraphBolt refinement: pull every in-edge of every frontier vertex.

        Within the memoized range a vertex counts as changed when its refined
        value differs from the memoized one (those memoized values fed the
        next memoized iteration); beyond the memoized range the comparison is
        against the previous refined iteration, i.e. ordinary convergence.

        The per-iteration frontier — structurally-dirty rows plus the
        out-neighbors of the rows that changed at the previous iteration — is
        maintained as sorted row arrays on the cached out-edge CSR, and every
        pull is a :meth:`_pull_frontier_rows` gather/scatter.
        """
        spec = self.spec
        # Refinement uses a tighter threshold than the convergence tolerance
        # so that the truncation of "unchanged" vertices does not accumulate
        # into a visible divergence from a from-scratch run.
        tolerance = spec.tolerance() * 0.1
        memo = self.memo
        csr = self.csr_cache.in_csr(spec, new_graph)
        index = csr.index
        root, keep_mask = self._dense_context(csr)
        out_csr, dirty_mask = refinement_preamble(
            self.csr_cache, spec, new_graph, csr, structurally_dirty
        )
        changed_rows = np.unique(
            np.fromiter(
                (index[v] for v in changed_prev if v in index), np.int64
            )
        )
        last_memo = memo.num_levels - 1
        iteration = 1
        while iteration < _MAX_ITERATIONS:
            in_memo_range = iteration <= last_memo
            if not in_memo_range and changed_rows.size == 0:
                break
            frontier_rows = self._frontier_rows(
                out_csr, dirty_mask, changed_rows, keep_mask
            )
            if frontier_rows.size == 0:
                break
            if not in_memo_range:
                memo.append_copy_of(iteration - 1)
            activations, changed_rows = self._pull_frontier_rows(
                csr, memo, iteration, frontier_rows, tolerance, root
            )
            metrics.record_round(activations, int(frontier_rows.size))
            iteration += 1
        return memo.level_dict(memo.num_levels - 1)

    @staticmethod
    def _frontier_rows(
        out_csr: FactorCSR,
        dirty_mask: np.ndarray,
        changed_rows: np.ndarray,
        keep_mask: np.ndarray,
    ) -> np.ndarray:
        """Array-native frontier: dirty rows ∪ out-targets(changed), minus
        absorbing rows — ascending, the reference's sorted frontier set."""
        mask = dirty_mask.copy()
        if changed_rows.size:
            counts = out_csr.out_degree[changed_rows]
            total = int(counts.sum())
            if total:
                slots = expand_edges(out_csr.offsets[changed_rows], counts, total)
                mask[out_csr.targets[slots]] = True
        mask &= keep_mask
        return np.nonzero(mask)[0]
