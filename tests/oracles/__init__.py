"""Test oracles: the reference loops and the engines bound to them.

The library runs one array-native core.  Its reference — the dict-and-loop
definitions every kernel reproduces bit for bit — lives here:

* :mod:`oracles.loops` — the propagation loop, the bodies of Layph's
  lockstep kernel calls (min/+ shortcut solves and revisions, local
  uploads; sum/mul solves keep the library's closed form) and the dict
  revision-message deduction;
* :mod:`oracles.dependency` — the selective engines' dependency walks;
* :mod:`oracles.layph` — from-scratch rebuilds of Layph's resident lower
  layer, and the skeleton's reverse view.

:func:`oracle_engine` builds a library engine whose kernel seams are bound
to those loops, and whose memo and dependency stores are the reference's
dicts.  The parity suites run it next to the plain engine and compare the
two bitwise.
"""

from __future__ import annotations

import contextlib
import functools
from typing import Dict, Set

from repro.engine import runner
from repro.engine.metrics import ExecutionMetrics
from repro.engine.runner import BatchResult, run_batch
from repro.incremental import ingress, selective_base
from repro.incremental import make_engine
from repro.incremental.dzig import DZiGEngine
from repro.incremental.graphbolt import _MAX_ITERATIONS, GraphBoltEngine
from repro.incremental.selective_base import SelectiveDependencyEngine
from repro.layph import engine as layph_engine
from repro.layph.engine import LayphEngine
from repro.layph.shortcuts import ShortcutBatch

from oracles import dependency, loops
from oracles.layph import upper_in_adjacency

#: ``(owner, name, reference)``: the module-level kernel seams
_SEAMS = (
    (runner, "propagate", loops.propagate),
    (ingress, "propagate", loops.propagate),
    (selective_base, "propagate", loops.propagate),
    (layph_engine, "propagate", loops.propagate),
    (ingress, "accumulative_revision_messages", loops.accumulative_revision_messages),
    (layph_engine, "accumulative_revision_messages", loops.accumulative_revision_messages),
    (ShortcutBatch, "run", loops.run_shortcut_batch),
)

#: the two routes through an engine: its array kernels, and the oracle
ROUTES = ("oracle", "declared")


@contextlib.contextmanager
def oracle_loops():
    """Bind the module-level kernel seams to the reference loops."""
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in _SEAMS]
    for owner, name, reference in _SEAMS:
        setattr(owner, name, reference)
    try:
        yield
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)


def oracle_run_batch(spec, graph, **kwargs) -> BatchResult:
    """:func:`run_batch` on the reference propagation loop."""
    with oracle_loops():
        return run_batch(spec, graph, **kwargs)


def oracle_engine(name: str, spec, layph_config=None):
    """Engine ``name`` with every kernel bound to its reference loop."""
    if name == "layph":
        return oracle_class(LayphEngine)(spec, layph_config)
    # Ingress picks its policy class at construction: bind that class
    return oracle_class(type(make_engine(name, spec)))(spec)


def engine_on_route(name: str, spec, route: str, layph_config=None):
    """:func:`oracle_engine` on the ``"oracle"`` route, the engine otherwise."""
    if route not in ROUTES:
        raise ValueError(f"unknown route {route!r}")
    if route == "oracle":
        return oracle_engine(name, spec, layph_config)
    return make_engine(name, spec, layph_config)


class _OracleEngine:
    """Runs the public entry points with the module seams bound."""

    def initialize(self, graph):
        with oracle_loops():
            return super().initialize(graph)

    def apply_delta(self, delta, log_meta=None):
        with oracle_loops():
            return super().apply_delta(delta, log_meta=log_meta)


class _OracleSelective:
    """The dict dependency store (``parents``) and its walks."""

    def _initial_run(self, graph):
        result = run_batch(self.spec, graph, adjacency=self._propagation_adjacency(graph))
        self.parents = dependency.compute_parents(self.spec, graph, result.states)
        return result

    def _parent_of(self, vertex):
        return self.parents.get(vertex)

    def _taint(self, old_graph, states, roots, old_in_csr, old_out_csr):
        if self.tainting == "dag":
            return dependency.dependents_dag(self.spec, old_graph, states, roots)
        return dependency.dependents_single_parent(self.parents, old_graph, roots)

    def _trim_and_seed(self, in_csr, new_graph, states, tainted, metrics):
        for vertex in self.footprint.removed_vertices:
            self.parents.pop(vertex, None)
        pending = dependency.trim_and_seed(self.spec, new_graph, states, tainted)
        # Re-aggregating each tainted vertex from its surviving in-edges is
        # F-work; count it like the C++ systems count their edge visits.
        metrics.edge_activations += sum(new_graph.in_degree(vertex) for vertex in tainted)
        return pending

    def _refresh_parents(
        self, in_csr, out_csr, graph, states, tainted, added, deleted, journal
    ):
        dependency.refresh_parents(
            self.spec, graph, self.states, states, tainted, added, deleted, self.parents
        )


class _Levels(list):
    """The BSP engines' reference store: one ``{vertex: value}`` dict per
    iteration, with the surface the engines read off a ``MemoTable``."""

    @property
    def num_levels(self) -> int:
        return len(self)

    def copy(self) -> "_Levels":
        return _Levels(dict(level) for level in self)

    def row_view(self, level: int) -> Dict[int, float]:
        return self[level]

    def to_dicts(self):
        return self


class _OracleGraphBolt:
    """GraphBolt's BSP loops over per-iteration dicts."""

    def _initial_run(self, graph):
        spec = self.spec
        metrics = ExecutionMetrics()
        root = {vertex: spec.initial_message(vertex) for vertex in graph.vertices()}
        current = dict(root)
        self.memo = _Levels([dict(current)])
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
            self.memo.append(following)
            current = following
            if max_change <= spec.tolerance():
                break
        return BatchResult(states=dict(current), metrics=metrics)

    def _prepare_iteration_zero(self, new_graph, added_vertices, removed_vertices):
        spec = self.spec
        for level in self.memo:
            for vertex in removed_vertices:
                level.pop(vertex, None)
            for vertex in added_vertices:
                level[vertex] = spec.initial_message(vertex)

    def _frontier(self, new_graph, structurally_dirty, changed_prev) -> Set[int]:
        """Vertices that must be re-aggregated at the current iteration."""
        spec = self.spec
        frontier = set(structurally_dirty)
        for vertex in changed_prev:
            if new_graph.has_vertex(vertex):
                frontier.update(new_graph.out_neighbors(vertex))
        return {v for v in frontier if new_graph.has_vertex(v) and not spec.absorbs(v)}

    def _pull_frontier(self, graph, previous, frontier, level, tolerance):
        """Re-aggregate every frontier vertex from all of its in-edges."""
        spec = self.spec
        activations = 0
        changed = set()
        for vertex in sorted(frontier):
            new_value = spec.initial_message(vertex)
            if not spec.absorbs(vertex):
                for in_neighbor in graph.in_neighbors(vertex):
                    new_value = spec.aggregate(
                        new_value,
                        spec.combine(
                            previous.get(in_neighbor, spec.initial_message(in_neighbor)),
                            spec.edge_factor(graph, in_neighbor, vertex),
                        ),
                    )
            activations += graph.in_degree(vertex)
            reference = level.get(vertex)
            if reference is None or abs(new_value - reference) > tolerance:
                changed.add(vertex)
            level[vertex] = new_value
        return activations, changed

    def _refine(self, new_graph, old_graph, structurally_dirty, changed_prev, metrics):
        tolerance = self.spec.tolerance() * 0.1
        iterations = self.memo
        last_memo = len(iterations) - 1
        iteration = 1
        while iteration < _MAX_ITERATIONS:
            in_memo_range = iteration <= last_memo
            if not in_memo_range and not changed_prev:
                break
            frontier = self._frontier(new_graph, structurally_dirty, changed_prev)
            if not frontier:
                break
            if not in_memo_range:
                iterations.append(dict(iterations[iteration - 1]))
            activations, changed_prev = self._pull_frontier(
                new_graph, iterations[iteration - 1], frontier, iterations[iteration], tolerance
            )
            metrics.record_round(activations, len(frontier))
            iteration += 1
        return dict(iterations[-1])


class _OracleDZiG:
    """DZiG's sparsity-aware refinement over per-iteration dicts."""

    def _refine_sparse(
        self,
        new_graph,
        old_graph,
        old_store,
        structurally_dirty,
        changed_sources,
        added_vertices,
        metrics,
    ):
        spec = self.spec
        tolerance = spec.tolerance() * 0.1
        iterations = self.memo
        num_vertices = max(new_graph.num_vertices(), 1)
        last_memo = len(iterations) - 1
        #: vertices whose value at the previous iteration differs from the
        #: pre-delta memoized value (added vertices count as changed)
        changed_prev: Set[int] = set(added_vertices)
        iteration = 1
        while iteration < _MAX_ITERATIONS:
            in_memo_range = iteration <= last_memo
            if not in_memo_range and not changed_prev:
                break
            push_sources = {
                v
                for v in (changed_prev | changed_sources)
                if new_graph.has_vertex(v) or old_graph.has_vertex(v)
            }
            frontier = self._frontier(new_graph, structurally_dirty, changed_prev)
            if not frontier and not push_sources:
                break
            if not in_memo_range:
                iterations.append(dict(iterations[iteration - 1]))
            previous = iterations[iteration - 1]
            level = iterations[iteration]
            sparse = len(push_sources) <= self.sparsity_threshold * num_vertices
            activations = 0
            changed_now: Set[int] = set()
            if sparse and in_memo_range and len(old_store):
                # Exact difference push: for every source whose contribution
                # changed, scatter (new contribution - old contribution).
                activations, changed_now = self._push_differences(
                    new_graph,
                    old_graph,
                    push_sources,
                    previous,
                    self._old_level(old_store, iteration - 1),
                    self._old_level(old_store, iteration),
                    level,
                    added_vertices,
                    tolerance,
                )
                # Added vertices have no memoized base value; pull them.
                fresh_pulls = {
                    vertex
                    for vertex in added_vertices
                    if new_graph.has_vertex(vertex) and not spec.absorbs(vertex)
                }
                if fresh_pulls:
                    pulled, pull_changed = self._pull_frontier(
                        new_graph, previous, fresh_pulls, level, tolerance
                    )
                    activations += pulled
                    changed_now |= pull_changed
            else:
                # Dense (or beyond the memoized range): GraphBolt-style pull.
                activations, changed_now = self._pull_frontier(
                    new_graph, previous, frontier, level, tolerance
                )
            metrics.record_round(activations, len(frontier) or len(push_sources))
            changed_prev = changed_now
            iteration += 1
        return dict(iterations[-1])


def _internal_shortcuts(subgraph, source):
    """``source``'s shortcuts to the subgraph's internal vertices, ascending."""
    vector = subgraph.shortcuts.vector(source)
    return [(target, factor) for target, factor in vector.items() if target in subgraph.internal]


class _OracleLayph:
    """Layph's upper-layer seeding and assignment loops (its uploads run
    through the ``ShortcutBatch.run`` seam)."""

    def _seed_tainted_upper(self, tainted, work, lup_pending, metrics):
        spec = self.spec
        identity = spec.aggregate_identity()
        incoming = upper_in_adjacency(self._require_layered())
        for vertex in sorted(tainted):
            best = spec.initial_message(vertex) if vertex >= 0 else identity
            for source, factor in incoming.get(vertex, []):
                metrics.edge_activations += 1
                if source in tainted:
                    continue
                source_state = work.get(source, identity)
                if source_state == identity:
                    continue
                best = spec.aggregate(best, spec.combine(source_state, factor))
            if spec.is_significant(best):
                lup_pending[vertex] = spec.aggregate(lup_pending.get(vertex, identity), best)

    def _assign_subgraphs(self, subgraphs, deltas, work, metrics, source):
        spec = self.spec
        identity = spec.aggregate_identity()
        for subgraph in subgraphs:
            if spec.is_selective():
                # best-offer assignment (boundary -> internal)
                best = {vertex: spec.initial_message(vertex) for vertex in subgraph.internal}
                for boundary_vertex in sorted(subgraph.boundary):
                    boundary_state = work.get(boundary_vertex, identity)
                    if boundary_state == identity:
                        continue
                    for target, factor in _internal_shortcuts(subgraph, boundary_vertex):
                        metrics.edge_activations += 1
                        candidate = spec.combine(boundary_state, factor)
                        best[target] = spec.aggregate(best[target], candidate)
                self._finish_selective_assign(subgraph, best, work, source)
                continue
            # delta push of the boundary changes through the shortcuts
            for boundary_vertex in sorted(subgraph.boundary):
                difference = deltas.get(boundary_vertex)
                if difference is None or not spec.is_significant(difference):
                    continue
                for target, factor in _internal_shortcuts(subgraph, boundary_vertex):
                    if spec.absorbs(target):
                        continue
                    metrics.edge_activations += 1
                    work[target] = spec.aggregate(work[target], spec.combine(difference, factor))


#: engine class -> the mixin binding its kernel methods (most derived first)
_MIXINS = (
    (DZiGEngine, _OracleDZiG),
    (GraphBoltEngine, _OracleGraphBolt),
    (SelectiveDependencyEngine, _OracleSelective),
    (LayphEngine, _OracleLayph),
)


@functools.lru_cache(maxsize=None)
def oracle_class(cls):
    mixins = tuple(mixin for base, mixin in _MIXINS if issubclass(cls, base))
    return type(f"Oracle{cls.__name__}", (*mixins, _OracleEngine, cls), {})
