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

The memoized iterations live in one of two stores:

* the dense :class:`repro.incremental.memo.MemoTable` — one float64 matrix
  row per iteration, keyed by the cached in-edge CSR's vertex index — which
  is used whenever the in-edge CSR can carry it (a declared sum algebra,
  NaN-free factors);
* the dict reference — ``List[Dict[int, float]]``, one dict per iteration —
  which defines the semantics and holds the iterations of every other spec.
  Batch supersteps append rows instead of materialising dicts, and frontier
  refinement becomes pure gather/scatter (no ``np.fromiter`` over dicts).
  Both stores are bitwise interchangeable; when the in-edge CSR becomes
  unavailable mid-run (e.g. a delta introduces NaN factors) the dense store
  demotes itself to the dict reference and refinement continues there.

Only accumulative algorithms are supported (PageRank, PHP), mirroring the
original system (the paper runs GraphBolt only on those two workloads).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.engine.algorithm import AlgorithmSpec
from repro.engine.dense_propagation import AGGREGATE_SUM, COMBINE_MUL, classify_spec
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
        # The BSP pulls (batch iterations and per-iteration refinement) run
        # on the cached in-edge factor CSR where ``_bsp_csr`` allows; the
        # Python loops below remain the metric-identical reference.
        super().__init__(spec, backend=backend)
        #: dict-reference memoized iterations, ``_iterations[i][v]`` (empty
        #: while the dense store is active)
        self._iterations: List[Dict[int, float]] = []
        #: dense memoized-iteration store (``None`` in dict mode)
        self.memo: Optional[MemoTable] = None
        #: ``(graph, version, in_csr)`` stash so one delta's prepare/refine
        #: pair costs a single ``_bsp_csr`` resolution (the NaN-factor gate
        #: scans the factor array)
        self._memo_csr: Optional[Tuple[Graph, int, FactorCSR]] = None
        #: ``(vertex_ids, root, keep_mask)`` stash: the root-message array and
        #: the non-absorbing mask are invariant for a given dense index space,
        #: so they are rebuilt only when the memo table is remapped
        self._dense_aux: Optional[Tuple[List[int], np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------
    # memoized-iteration store
    # ------------------------------------------------------------------
    @property
    def iterations(self) -> List[Dict[int, float]]:
        """Memoized per-iteration vertex values as dicts.

        With the dense store active this materialises an export view (the
        property-test surface); internal code reads the matrix directly.
        """
        if self.memo is not None:
            return self.memo.to_dicts()
        return self._iterations

    @iterations.setter
    def iterations(self, value: List[Dict[int, float]]) -> None:
        self._iterations = value
        self.memo = None
        self._memo_csr = None
        self._dense_aux = None

    def _demote_memo(self) -> None:
        """Materialise the dense store back into the dict reference."""
        if self.memo is not None:
            self._iterations = self.memo.to_dicts()
            self.memo = None
        self._memo_csr = None
        self._dense_aux = None

    def adopt_baseline(self, other: "GraphBoltEngine") -> None:
        """Adopt another BSP engine's memoized batch baseline.

        GraphBolt and DZiG memoize the *same* per-iteration BSP values for a
        given spec and graph — only their refinement differs — so a harness
        that compares them (e.g. the ablation in
        ``benchmarks/test_ablations.py``) does not need to materialise the
        iteration store twice: initialize one engine, then let the other
        adopt its baseline.  The dense :class:`MemoTable` is shared as one
        matrix snapshot (:meth:`MemoTable.copy`), the dict reference as
        per-level dict copies; subsequent deltas on either engine leave the
        other's store untouched, and every post-delta result is bitwise
        identical to an independently initialized engine's.

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
        if other.memo is not None:
            self._iterations = []
            self.memo = other.memo.copy()
        else:
            self._iterations = [dict(level) for level in other._iterations]
            self.memo = None
        self._memo_csr = None
        self._dense_aux = None

    # ------------------------------------------------------------------
    # durable snapshots (repro.storage)
    # ------------------------------------------------------------------
    def _snapshot_extras(self):
        from repro.storage.codecs import encode_iteration_dicts, encode_memo_table, pack

        if self.memo is not None:
            memo_meta, memo_arrays = encode_memo_table(self.memo)
            return {"store": "memo", "memo": memo_meta}, pack("memo", memo_arrays)
        iter_meta, iter_arrays = encode_iteration_dicts(self._iterations)
        return (
            {"store": "dicts", "iterations": iter_meta},
            pack("iterations", iter_arrays),
        )

    def _restore_extras(self, meta: dict, arrays) -> None:
        from repro.storage.codecs import decode_iteration_dicts, decode_memo_table, unpack

        # The per-delta stashes (``_memo_csr``, ``_dense_aux``) are lazy
        # derivations; leaving them unset reproduces a fresh engine exactly.
        self._memo_csr = None
        self._dense_aux = None
        if meta.get("store") == "memo":
            self.memo = decode_memo_table(meta["memo"], unpack("memo", arrays))
            self._iterations = []
        else:
            self.memo = None
            self._iterations = decode_iteration_dicts(
                meta["iterations"], unpack("iterations", arrays)
            )

    # ------------------------------------------------------------------
    # vectorization gates
    # ------------------------------------------------------------------
    def _algebra(self) -> Optional[Tuple[str, str]]:
        """Memoized ``classify_spec`` result (the spec's algebra is fixed)."""
        cached = getattr(self, "_algebra_cache", None)
        if cached is None or cached[0] is not self.spec:
            self._algebra_cache = (self.spec, classify_spec(self.spec))
        return self._algebra_cache[1]

    def _bsp_csr(self, graph: Graph) -> Optional[FactorCSR]:
        """In-edge factor CSR for vectorized pulls, or ``None`` to stay Python.

        Vectorized pulls need an algebra the array ops can express
        (``classify_spec``) and NaN-free factors (the significance
        comparisons behave identically under NaN for pure sums, but the
        declared-algebra probe keeps the gate conservative).
        """
        kinds = self._algebra()
        if kinds is None or kinds[0] != AGGREGATE_SUM:
            return None
        csr = self.csr_cache.in_csr(self.spec, graph)
        if np.isnan(csr.factors).any():
            return None
        return csr

    def _stashed_bsp_csr(self, graph: Graph) -> Optional[FactorCSR]:
        """The in-edge CSR resolved earlier this delta, if still current."""
        stash = self._memo_csr
        if stash is not None and stash[0] is graph and stash[1] == graph.version:
            return stash[2]
        return None

    def _combine_arrays(self, values: np.ndarray, factors: np.ndarray) -> np.ndarray:
        kinds = self._algebra()
        if kinds is not None and kinds[1] == COMBINE_MUL:
            return values * factors
        return values + factors

    # ------------------------------------------------------------------
    # batch phase: synchronous iterations with full memoization
    # ------------------------------------------------------------------
    def _initial_run(self, graph: Graph) -> BatchResult:
        csr = self._bsp_csr(graph)
        if csr is not None:
            result = self._initial_run_numpy(graph, csr)
            if result is not None:
                return result
        return self._initial_run_python(graph)

    def _initial_run_python(self, graph: Graph) -> BatchResult:
        spec = self.spec
        metrics = ExecutionMetrics()
        root = {vertex: spec.initial_message(vertex) for vertex in graph.vertices()}
        current = dict(root)
        self.iterations = [dict(current)]
        for _ in range(_MAX_ITERATIONS):
            following: Dict[int, float] = {}
            activations = 0
            max_change = 0.0
            for vertex in graph.vertices():
                if spec.absorbs(vertex):
                    following[vertex] = root[vertex]
                    continue
                total = root[vertex]
                for in_neighbor in graph.in_neighbors(vertex):
                    activations += 1
                    total = spec.aggregate(
                        total,
                        spec.combine(
                            current[in_neighbor],
                            spec.edge_factor(graph, in_neighbor, vertex),
                        ),
                    )
                following[vertex] = total
                max_change = max(max_change, abs(total - current[vertex]))
            metrics.record_round(activations, graph.num_vertices())
            self._iterations.append(following)
            current = following
            if max_change <= spec.tolerance():
                break
        return BatchResult(states=dict(current), metrics=metrics)

    def _initial_run_numpy(self, graph: Graph, csr: FactorCSR) -> Optional[BatchResult]:
        """Vectorized BSP batch phase, bit-for-bit equal to the Python loop.

        Each superstep re-aggregates every non-absorbing vertex from all of
        its in-edges: ``np.add.at`` over the in-CSR applies the per-row
        contributions in slot order, which is exactly the in-adjacency
        iteration order of the Python loop, so even the non-associative
        float sums reproduce it bitwise.  Each superstep appends one row of
        the dense memo store.
        """
        spec = self.spec
        ids = csr.vertex_ids
        n = csr.num_vertices
        root = np.fromiter((spec.initial_message(v) for v in ids), np.float64, count=n)
        if np.isnan(root).any():
            return None
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
        self._iterations = []
        self.memo = MemoTable(ids, csr.index, graph_version=graph.version)
        self.memo.append(current)
        self._memo_csr = (graph, graph.version, csr)
        for _ in range(_MAX_ITERATIONS):
            following = root.copy()
            if kept_rows.size:
                np.add.at(
                    following,
                    kept_rows,
                    self._combine_arrays(current[kept_sources], kept_factors),
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
    def _sync_memo(
        self, new_graph: Graph, added_vertices: Set[int], removed_vertices: Set[int]
    ) -> bool:
        """Bring the dense store in line with ``new_graph``'s index space.

        Returns ``True`` when the dense store stays active (columns remapped
        for vertex additions/removals, version recorded); ``False`` when the
        store was never dense or had to demote itself to the dict reference
        (no usable in-edge CSR for the new graph).
        """
        if self.memo is None:
            return False
        csr = self._bsp_csr(new_graph)
        if csr is None:
            self._demote_memo()
            return False
        if not self.memo.matches_ids(csr.vertex_ids):
            spec = self.spec
            fill = {v: spec.initial_message(v) for v in added_vertices}
            self.memo.remap(
                csr.vertex_ids, csr.index, fill, graph_version=new_graph.version
            )
        else:
            self.memo.graph_version = new_graph.version
        self._memo_csr = (new_graph, new_graph.version, csr)
        return True

    def _prepare_iteration_zero(
        self, new_graph: Graph, added_vertices: Set[int], removed_vertices: Set[int]
    ) -> None:
        """Insert new vertices (root messages) and drop removed ones."""
        if self._sync_memo(new_graph, added_vertices, removed_vertices):
            return
        spec = self.spec
        for level in self._iterations:
            for vertex in removed_vertices:
                level.pop(vertex, None)
            for vertex in added_vertices:
                level[vertex] = spec.initial_message(vertex)

    def _pull_value(self, graph: Graph, previous: Dict[int, float], vertex: int) -> float:
        """Re-aggregate ``vertex`` from all of its in-edges (one full pull)."""
        spec = self.spec
        root = spec.initial_message(vertex)
        if spec.absorbs(vertex):
            return root
        total = root
        for in_neighbor in graph.in_neighbors(vertex):
            total = spec.aggregate(
                total,
                spec.combine(
                    previous.get(in_neighbor, spec.initial_message(in_neighbor)),
                    spec.edge_factor(graph, in_neighbor, vertex),
                ),
            )
        return total

    def _pull_frontier(
        self,
        graph: Graph,
        previous: Dict[int, float],
        frontier: Set[int],
        level: Dict[int, float],
        tolerance: float,
        csr: Optional[FactorCSR] = None,
    ) -> Tuple[int, Set[int]]:
        """Re-aggregate every frontier vertex from all of its in-edges.

        Writes the refined values into ``level`` and returns
        ``(activations, changed)``.  When ``csr`` is given the pulls run
        vectorized on the in-edge CSR arrays — contributions are applied in
        slot order, matching the Python loop's in-adjacency iteration order
        bit for bit; otherwise the reference Python pulls run.  (This is the
        dict-store path; with the dense store active the engines call
        :meth:`_pull_frontier_rows` on the matrix instead.)
        """
        spec = self.spec
        ordered = sorted(frontier)
        if csr is not None:
            index = csr.index
            frontier_rows = np.fromiter(
                (index[v] for v in ordered), np.int64, count=len(ordered)
            )
            counts = csr.out_degree[frontier_rows]
            total = int(counts.sum())
            values = np.fromiter(
                (spec.initial_message(v) for v in ordered), np.float64, count=len(ordered)
            )
            if total:
                slots = expand_edges(csr.offsets[frontier_rows], counts, total)
                sources = csr.targets[slots]
                unique_sources, inverse = np.unique(sources, return_inverse=True)
                ids = csr.vertex_ids
                source_values = np.fromiter(
                    (
                        previous.get(ids[i], spec.initial_message(ids[i]))
                        for i in unique_sources
                    ),
                    np.float64,
                    count=len(unique_sources),
                )
                contributions = self._combine_arrays(
                    source_values[inverse], csr.factors[slots]
                )
                np.add.at(
                    values,
                    np.repeat(np.arange(len(ordered), dtype=np.int64), counts),
                    contributions,
                )
            changed: Set[int] = set()
            for position, vertex in enumerate(ordered):
                new_value = float(values[position])
                reference = level.get(vertex)
                if reference is None or abs(new_value - reference) > tolerance:
                    changed.add(vertex)
                level[vertex] = new_value
            return total, changed

        activations = 0
        changed = set()
        for vertex in ordered:
            new_value = self._pull_value(graph, previous, vertex)
            activations += graph.in_degree(vertex)
            reference = level.get(vertex)
            if reference is None or abs(new_value - reference) > tolerance:
                changed.add(vertex)
            level[vertex] = new_value
        return activations, changed

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
        kinds = self._algebra()
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
            not (kinds is not None and kinds[1] == COMBINE_MUL),
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

    def _frontier(
        self, new_graph: Graph, structurally_dirty: Set[int], changed_prev: Set[int]
    ) -> Set[int]:
        """Vertices that must be re-aggregated at the current iteration."""
        spec = self.spec
        frontier = set(structurally_dirty)
        for vertex in changed_prev:
            if new_graph.has_vertex(vertex):
                frontier.update(new_graph.out_neighbors(vertex))
        return {
            v for v in frontier if new_graph.has_vertex(v) and not spec.absorbs(v)
        }

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
        """
        spec = self.spec
        # Refinement uses a tighter threshold than the convergence tolerance
        # so that the truncation of "unchanged" vertices does not accumulate
        # into a visible divergence from a from-scratch run.
        tolerance = spec.tolerance() * 0.1
        if self.memo is not None:
            csr = self._stashed_bsp_csr(new_graph) or self._bsp_csr(new_graph)
            if csr is not None and self.memo.matches_ids(csr.vertex_ids):
                return self._refine_dense(
                    new_graph, csr, structurally_dirty, changed_prev, metrics, tolerance
                )
            self._demote_memo()
        csr = self._bsp_csr(new_graph)
        last_memo = len(self._iterations) - 1
        iteration = 1
        while iteration < _MAX_ITERATIONS:
            in_memo_range = iteration <= last_memo
            if not in_memo_range and not changed_prev:
                break
            frontier = self._frontier(new_graph, structurally_dirty, changed_prev)
            if not frontier:
                break
            if not in_memo_range:
                self._iterations.append(dict(self._iterations[iteration - 1]))
            previous = self._iterations[iteration - 1]
            level = self._iterations[iteration]
            activations, changed_now = self._pull_frontier(
                new_graph, previous, frontier, level, tolerance, csr=csr
            )
            metrics.record_round(activations, len(frontier))
            changed_prev = changed_now
            iteration += 1
        return dict(self._iterations[-1])

    def _refine_dense(
        self,
        new_graph: Graph,
        csr: FactorCSR,
        structurally_dirty: Set[int],
        changed_prev: Set[int],
        metrics: ExecutionMetrics,
        tolerance: float,
    ) -> Dict[int, float]:
        """Array-native refinement over the dense memo table.

        The per-iteration frontier — structurally-dirty rows plus the
        out-neighbors of the rows that changed at the previous iteration — is
        maintained as sorted row arrays on the cached out-edge CSR, and every
        pull is a :meth:`_pull_frontier_rows` gather/scatter.  Frontier sets,
        change detection and round metrics replay the dict reference exactly.
        """
        spec = self.spec
        memo = self.memo
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
        absorbing rows — ascending, exactly :meth:`_frontier`'s sorted set."""
        mask = dirty_mask.copy()
        if changed_rows.size:
            counts = out_csr.out_degree[changed_rows]
            total = int(counts.sum())
            if total:
                slots = expand_edges(out_csr.offsets[changed_rows], counts, total)
                mask[out_csr.targets[slots]] = True
        mask &= keep_mask
        return np.nonzero(mask)[0]
