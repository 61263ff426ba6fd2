"""Shared machinery of the dependency-based selective engines.

KickStarter, RisGraph and Ingress's memoization-path policy all follow the
same four steps after a delta — invalidate, trim, compensate, propagate — and
differ only in how aggressively they tag dependents and whether they classify
unit updates as safe/unsafe first.  This module hosts the shared template so
the three engines stay small and their differences explicit: a policy is the
:attr:`tainting` granularity (``"tree"`` — tag-versioned single-parent
invalidation — vs ``"dag"`` — conservative supporting-edge trimming) plus the
per-edge safe/unsafe classification hooks.

The mechanics behind the template run on the dense
:class:`repro.incremental.dep_table.DepTable` — parent and value arrays keyed
by the cached in-edge CSR's vertex index.  Taint expansion, the
trimmed-vertex re-pull and the post-propagation parent refresh run as array
kernels over the cached in-/out-edge CSR snapshots, bitwise identical to the
dict walks kept with the test oracles (states, rounds, edge activations),
and the invalidation inputs come straight from the shared
:class:`repro.graph.footprint.DeltaFootprint` (its cached weight-level
``invalidation_edges`` expansion and O(delta) membership diff).  The refresh
re-reads only the states the delta can have written: the tainted vertices,
the added vertices and the keys of the write-back journal ``propagate``
returns.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.engine.metrics import ExecutionMetrics, PhaseTimer
from repro.engine.propagation import propagate
from repro.engine.runner import BatchResult, run_batch
from repro.graph.csr import FactorCSR
from repro.graph.delta import GraphDelta
from repro.graph.graph import Graph
from repro.incremental.base import IncrementalEngine, IncrementalResult
from repro.incremental.dep_table import DepTable

#: phase names of the invalidation-and-repair pipeline
PHASE_INVALIDATION = "invalidation"
PHASE_TRIM = "trim and seed"
PHASE_MAINTENANCE = "dependency maintenance"


class SelectiveDependencyEngine(IncrementalEngine):
    """Template for dependency-tracking engines over selective algorithms.

    Subclasses choose the tagging granularity via :attr:`tainting` (``"tree"``
    for single-parent dependents, ``"dag"`` for conservative DAG dependents)
    and may enable :attr:`classify_safe_updates` to skip no-op insertions the
    way RisGraph does.
    """

    supported_family = "selective"
    #: "tree" (single winning parent) or "dag" (every supporting in-edge)
    tainting: str = "tree"
    #: whether to pre-classify insertions/deletions as safe (no work needed)
    classify_safe_updates: bool = False

    def __init__(self, spec, *, backend: Optional[str] = None) -> None:
        super().__init__(spec, backend=backend)
        #: dense dependency store, built by ``initialize``
        self.dep_table: Optional[DepTable] = None
        #: deltas applied (for tests)
        self.dense_deltas = 0
        self._initial_state_cache: Optional[Tuple[List[int], np.ndarray]] = None

    # ------------------------------------------------------------------
    def _initial_run(self, graph: Graph) -> BatchResult:
        result = run_batch(
            self.spec, graph, adjacency=self._propagation_adjacency(graph)
        )
        in_csr = self.csr_cache.in_csr(self.spec, graph)
        # warm the out-edge snapshot too, so the first delta patches it
        self.csr_cache.out_csr(self.spec, graph)
        self.dep_table = DepTable.build(
            in_csr,
            result.states,
            self._initial_state_array(in_csr),
            self.spec.aggregate_identity(),
            graph_version=graph.version,
        )
        return result

    def _parent_of(self, vertex: int) -> Optional[int]:
        """Recorded dependency parent of ``vertex`` (``None`` = root)."""
        return self.dep_table.parent_of(vertex)

    # ------------------------------------------------------------------
    # durable snapshots (repro.storage)
    # ------------------------------------------------------------------
    def _snapshot_extras(self):
        from repro.storage.codecs import encode_dep_table, pack

        table_meta, table_arrays = encode_dep_table(self.dep_table)
        meta = {
            "store": "table",
            "dense_deltas": self.dense_deltas,
            "dep_table": table_meta,
        }
        return meta, dict(pack("dep_table", table_arrays))

    def _restore_extras(self, meta: dict, arrays) -> None:
        from repro.storage.codecs import decode_dep_table, decode_parent_map, unpack

        if meta.get("store") == "table":
            self.dep_table = decode_dep_table(
                meta["dep_table"], unpack("dep_table", arrays)
            )
        else:
            # a snapshot of the retired dict store: promote its parents map
            graph = self._require_graph()
            self.dep_table = DepTable.from_parents(
                self.csr_cache.in_csr(self.spec, graph),
                self.states,
                decode_parent_map(unpack("parents", arrays)),
                self.spec.aggregate_identity(),
                graph_version=graph.version,
            )
        self.dense_deltas = int(meta.get("dense_deltas", 0))
        self._initial_state_cache = None

    def _initial_state_array(self, csr: FactorCSR) -> np.ndarray:
        """Per-row ``initial_state`` values, rebuilt only when the ids change."""
        cached = self._initial_state_cache
        ids = csr.vertex_ids
        if cached is not None and (cached[0] is ids or cached[0] == ids):
            return cached[1]
        spec = self.spec
        array = np.fromiter(
            (spec.initial_state(vertex) for vertex in ids), np.float64, count=len(ids)
        )
        self._initial_state_cache = (ids, array)
        return array

    # ------------------------------------------------------------------
    def _apply_delta(self, delta: GraphDelta) -> IncrementalResult:
        spec = self.spec
        metrics = ExecutionMetrics()
        phases = PhaseTimer()
        old_graph = self._require_graph()
        identity = spec.aggregate_identity()
        cache = self.csr_cache

        with phases.phase("graph update"):
            old_in_csr = cache.in_csr(spec, old_graph)
            old_out_csr = cache.out_csr(spec, old_graph)
            new_graph = self._update_graph(delta)
            # The footprint caches the delta expansion and the weight-level
            # link diff (weight changes made explicit as delete + add).
            footprint = self.footprint
            added, deleted = footprint.invalidation_edges
            added_vertices = footprint.added_vertices
            removed_vertices = footprint.removed_vertices
            new_in_csr = cache.in_csr(spec, new_graph)
            new_out_csr = cache.out_csr(spec, new_graph)

        states = dict(self.states)
        self.dense_deltas += 1

        with phases.phase(PHASE_INVALIDATION):
            roots: Set[int] = set()
            for source, target, _old_weight in deleted:
                if self.classify_safe_updates and not self._deletion_is_unsafe(
                    old_graph, states, source, target
                ):
                    continue
                if not self.classify_safe_updates:
                    # Without classification the engine still only invalidates
                    # targets whose value was actually supported by the edge.
                    if not self._edge_supported_target(old_graph, states, source, target):
                        continue
                if new_graph.has_vertex(target):
                    roots.add(target)
            tainted = self._taint(old_graph, states, roots, old_in_csr, old_out_csr)
            if removed_vertices:
                tainted = {v for v in tainted if new_graph.has_vertex(v)}
            for vertex in removed_vertices:
                states.pop(vertex, None)
            # Only a vertex added by this delta can be missing a state (the
            # memoized states always cover the previous graph).
            for vertex in added_vertices:
                if vertex not in states:
                    states[vertex] = spec.initial_state(vertex)

        with phases.phase(PHASE_TRIM):
            pending = self._trim_and_seed(new_in_csr, new_graph, states, tainted, metrics)

        with phases.phase("compensation"):
            for source, target, _weight in added:
                source_state = states.get(source, identity)
                if source_state == identity:
                    continue
                offered = spec.combine(
                    source_state, spec.edge_factor(new_graph, source, target)
                )
                metrics.edge_activations += 1
                if self.classify_safe_updates and not self._insertion_is_unsafe(
                    states, target, offered
                ):
                    continue
                pending[target] = spec.aggregate(pending.get(target, identity), offered)
            # root messages of brand-new vertices (a new source)
            for vertex in added_vertices:
                root = spec.initial_message(vertex)
                if spec.is_significant(root):
                    pending[vertex] = spec.aggregate(pending.get(vertex, identity), root)

        with phases.phase("propagation"):
            adjacency = self._propagation_adjacency(new_graph)
            journal = propagate(spec, adjacency, states, pending, metrics)

        with phases.phase(PHASE_MAINTENANCE):
            self._refresh_parents(
                new_in_csr,
                new_out_csr,
                new_graph,
                states,
                tainted,
                added,
                deleted,
                journal,
            )

        return IncrementalResult(states=states, metrics=metrics, phases=phases)

    # ------------------------------------------------------------------
    # dense kernels (bitwise equal to the dict walks of the test oracles)
    # ------------------------------------------------------------------
    def _taint(
        self,
        old_graph: Graph,
        states: Dict[int, float],
        roots: Set[int],
        old_in_csr: FactorCSR,
        old_out_csr: FactorCSR,
    ) -> Set[int]:
        """The dependents of ``roots`` in ``old_graph``: the dependency
        tree's (``"tree"``) or the supporting DAG's (``"dag"``)."""
        table = self.dep_table
        root_rows = np.fromiter(
            (old_in_csr.index[v] for v in roots), np.int64, count=len(roots)
        )
        if self.tainting == "dag":
            mask = table.taint_dag(old_out_csr, root_rows)
        else:
            mask = table.taint_tree(old_out_csr, root_rows)
        return set(old_in_csr.ids_array()[np.nonzero(mask)[0]].tolist())

    def _trim_and_seed(
        self,
        in_csr: FactorCSR,
        new_graph: Graph,
        states: Dict[int, float],
        tainted: Set[int],
        metrics: ExecutionMetrics,
    ) -> Dict[int, float]:
        """Reset the tainted vertices and seed their recovery from their
        surviving in-neighbors plus their own root message (the trimmed
        approximation); returns the pending map that restarts propagation.

        Every in-edge of a tainted vertex is one edge activation (the F-work
        the C++ systems count as their edge visits)."""
        spec = self.spec
        table = self.dep_table
        identity = spec.aggregate_identity()
        # Move the table to the post-delta index space first: brand-new
        # columns take their freshly seeded initial states from ``states``.
        table.remap(in_csr, states, identity, graph_version=new_graph.version)
        ordered = sorted(tainted)
        rows = np.fromiter(
            (in_csr.index[v] for v in ordered), np.int64, count=len(ordered)
        )
        initial = np.fromiter(
            (spec.initial_message(v) for v in ordered), np.float64, count=len(ordered)
        )
        best, visited = table.trim_and_seed(in_csr, rows, initial, identity)
        metrics.edge_activations += visited
        pending: Dict[int, float] = {}
        for vertex, value in zip(ordered, best.tolist()):
            states[vertex] = identity
            if value != identity:  # the classified spec's is_significant
                pending[vertex] = value
        return pending

    def _refresh_parents(
        self,
        in_csr: FactorCSR,
        out_csr: FactorCSR,
        graph: Graph,
        states: Dict[int, float],
        tainted: Set[int],
        added,
        deleted,
        journal: Dict[int, float],
    ) -> None:
        """Refresh the dependency parents of every vertex whose support may
        have changed: tainted vertices, endpoints of changed edges, and the
        out-neighbors of vertices whose state changed.

        The seed rows are the tainted vertices plus the endpoints of changed
        edges.  A state can only have been written if its vertex was
        tainted (trim reset), added (seeded) or is a key of the propagation
        ``journal``; :meth:`DepTable.refresh` re-reads those rows, detects
        the changed-state vertices and expands every stale vertex's
        out-neighbors on the cached out-CSR.
        """
        index = in_csr.index
        seeds: Set[int] = set(tainted)
        for source, target, _weight in list(added) + list(deleted):
            for vertex in (source, target):
                if graph.has_vertex(vertex):
                    seeds.add(vertex)
        written = set(tainted).union(self.footprint.added_vertices, journal)
        self.dep_table.refresh(
            in_csr,
            out_csr,
            states,
            np.fromiter((index[v] for v in seeds), np.int64, count=len(seeds)),
            np.fromiter((index[v] for v in written), np.int64, count=len(written)),
            self._initial_state_array(in_csr),
            self.spec.aggregate_identity(),
            graph_version=graph.version,
        )

    # ------------------------------------------------------------------
    def _edge_supported_target(
        self, graph: Graph, states: Dict[int, float], source: int, target: int
    ) -> bool:
        """Whether the (old) edge ``source -> target`` supported ``target``."""
        spec = self.spec
        identity = spec.aggregate_identity()
        source_state = states.get(source, identity)
        target_state = states.get(target, identity)
        if source_state == identity or target_state == identity:
            return False
        offered = spec.combine(source_state, spec.edge_factor(graph, source, target))
        return offered == target_state

    def _deletion_is_unsafe(
        self, graph: Graph, states: Dict[int, float], source: int, target: int
    ) -> bool:
        """RisGraph-style classification: deletion is unsafe only if the
        target's recorded dependency parent is the deleted edge's source."""
        return self._parent_of(target) == source

    def _insertion_is_unsafe(
        self, states: Dict[int, float], target: int, offered: float
    ) -> bool:
        """Insertion is unsafe only if the new edge improves the target."""
        spec = self.spec
        identity = spec.aggregate_identity()
        current = states.get(target, identity)
        return spec.aggregate(current, offered) != current
