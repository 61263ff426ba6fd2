"""Incremental maintenance of compiled CSR snapshots across graph deltas.

PR 1 gave the delta-accumulative loop a vectorized CSR backend, but every
``propagate`` call recompiled the :class:`repro.graph.csr.FactorCSR` from
scratch — an O(V+E) Python-level row enumeration that dwarfs the actual
(small) incremental propagation work of a typical ΔG.  This module closes
that gap:

* :class:`CSRCache` keeps one compiled out-edge factor CSR (and, for the
  pull-based BSP engines, one in-edge factor CSR) alive per engine.  A
  :class:`repro.graph.delta.GraphDelta` is *patched* into the cached arrays
  — only the rows whose adjacency (and therefore factors) changed are
  re-enumerated in Python; everything else is moved with O(E) numpy
  gather/scatter, which has a far smaller constant than the per-edge Python
  loop of a fresh compile.  When a delta touches more than
  ``rebuild_fraction`` of the edges the patch is abandoned and the next
  access recompiles from scratch (amortized rebuild).
* Staleness is detected through :attr:`repro.graph.graph.Graph.version`:
  every cache entry records the graph object *and* its version counter at
  compile/patch time, so any out-of-band mutation (one not announced through
  :meth:`CSRCache.apply_delta`) forces a rebuild instead of serving stale
  arrays.
* :func:`master_factor_csr` memoizes the compile of a materialised
  :class:`repro.engine.propagation.FactorAdjacency` on the adjacency object
  itself, so repeated ``propagate`` calls over the same adjacency (Layph's
  per-boundary-vertex shortcut computations, retries with unchanged
  ``states``/``pending``) compile once instead of per call; and
  :func:`splice_master_csr` carries that memo across an in-place row
  replacement, which is how Layph's compiled upper layer stays resident
  from delta to delta.
* Both kinds of patch go through :func:`splice_rows`, the one row splice:
  re-enumerated rows in, everything else moved in runs of consecutive rows,
  the id space followed when vertices join or leave.

Patched arrays are **exactly** equal — ids, offsets, targets and factor bits
— to a fresh ``FactorCSR.from_graph`` compile of the updated graph; the
property tests in ``tests/test_properties.py`` enforce this after every delta
of a random sequence for all four algorithms.

Contract: edge factors must be a function of the edge and its *source's
out-adjacency* only (true for SSSP/BFS weight factors and for the
degree-normalized PageRank/PHP factors).  A spec whose factors depend on
more remote structure must not be cached.

Environment knobs:

* ``REPRO_CSR_CACHE=0`` force-disables all CSR caching (every access
  compiles fresh) — CI runs the tier-1 suite in this mode so the
  patched-CSR and fresh-compile paths are both exercised;
* ``REPRO_CSR_REBUILD_FRACTION`` overrides the amortized-rebuild threshold
  (default ``0.25``: a delta touching more than a quarter of the edges
  triggers a full recompile instead of a patch).
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.graph.csr import FactorCSR, expand_edges
from repro.graph.delta import GraphDelta
from repro.graph.graph import Graph

#: environment variable that force-disables CSR caching when set to a falsy value
CSR_CACHE_ENV_VAR = "REPRO_CSR_CACHE"
#: environment variable overriding the amortized-rebuild threshold
REBUILD_FRACTION_ENV_VAR = "REPRO_CSR_REBUILD_FRACTION"
#: default fraction of edges a delta may touch before a patch is abandoned
DEFAULT_REBUILD_FRACTION = 0.25

_FALSY = {"0", "false", "off", "no"}


def env_flag_enabled(name: str, default: str = "1") -> bool:
    """Whether a boolean environment knob is enabled (default on).

    Shared by the CSR-cache knob here and the dense-memo knob in
    :mod:`repro.incremental.memo`, so every ``REPRO_*`` flag parses falsy
    values (``0``/``false``/``off``/``no``) identically.
    """
    return os.environ.get(name, default).strip().lower() not in _FALSY


def csr_cache_enabled() -> bool:
    """Whether CSR caching is enabled (the ``REPRO_CSR_CACHE`` knob)."""
    return env_flag_enabled(CSR_CACHE_ENV_VAR)


def rebuild_fraction_default() -> float:
    """The configured amortized-rebuild threshold."""
    raw = os.environ.get(REBUILD_FRACTION_ENV_VAR)
    if raw is None:
        return DEFAULT_REBUILD_FRACTION
    try:
        value = float(raw)
    except ValueError:
        return DEFAULT_REBUILD_FRACTION
    return value if value > 0.0 else DEFAULT_REBUILD_FRACTION


# ----------------------------------------------------------------------
# delta patching
# ----------------------------------------------------------------------
def _changed_row_vertices(
    spec,
    orientation: str,
    added: List[Tuple[int, int, float]],
    deleted: List[Tuple[int, int, float]],
    old_graph: Graph,
    new_graph: Graph,
) -> Set[int]:
    """Vertices whose CSR row content (targets or factors) may have changed.

    For the out orientation a row changes exactly when its source's
    out-adjacency changes (factors depend only on that, see the module
    contract).  For the in orientation a row changes when edges into it are
    added/removed *or* when any in-neighbor's out-adjacency changed (its
    factors are functions of the source's out-adjacency) — unless the spec
    declares :attr:`repro.engine.algorithm.AlgorithmSpec.edge_local_factors`,
    in which case only the updated edges' targets can differ and the
    O(degree²) neighbor re-enumeration is skipped.
    """
    changed: Set[int] = set()
    if orientation == "out":
        for source, _target, _weight in added:
            changed.add(source)
        for source, _target, _weight in deleted:
            changed.add(source)
        return changed
    changed_sources: Set[int] = set()
    for source, target, _weight in added:
        changed.add(target)
        changed_sources.add(source)
    for source, target, _weight in deleted:
        changed.add(target)
        changed_sources.add(source)
    if getattr(spec, "edge_local_factors", False):
        return changed
    for source in changed_sources:
        if old_graph.has_vertex(source):
            changed.update(old_graph.out_neighbors(source))
        if new_graph.has_vertex(source):
            changed.update(new_graph.out_neighbors(source))
    return changed


def splice_rows(
    old_csr: FactorCSR,
    rows: Dict[int, Sequence[Tuple[int, float]]],
    new_ids: Optional[Sequence[int]] = None,
) -> Optional[FactorCSR]:
    """``old_csr`` with some rows replaced and, optionally, its id space moved.

    ``rows`` maps a vertex id to its re-enumerated ``(target id, factor)``
    list; ``new_ids`` is the ascending id space of the result (``None``: the
    id space is unchanged).  Only the given rows cost Python work: every
    other row is moved in maximal runs that are consecutive in *both*
    snapshots, one slice copy each (targets additionally pass through the
    old-row → new-row remap when the id space shifted).  A vertex of
    ``new_ids`` that ``old_csr`` does not index gets its entry of ``rows``
    or an empty row; entries of ``rows`` for vertices outside ``new_ids``
    leave with their vertex.  The result is bit-for-bit a fresh compile of
    the same rows.

    Returns ``None`` when a link — of a row that was not handed in, or of
    one that was — points outside the new id space: the caller's row
    footprint was too small, and it must compile from scratch.
    """
    same_ids = new_ids is None
    n_old = old_csr.num_vertices
    if same_ids:
        ids: List[int] = old_csr.vertex_ids
        index = old_csr.index
        # Carry the memoized id array forward so per-delta consumers
        # (footprint row diffs, revision deduction) do not re-materialise an
        # O(V) conversion per patch.
        ids_arr = old_csr._ids_cache
        n_new = n_old
        remap: Optional[np.ndarray] = None
    else:
        ids_arr = np.asarray(new_ids, dtype=np.int64)
        ids = ids_arr.tolist()
        n_new = len(ids)
        index = dict(zip(ids, range(n_new)))
        # Both id lists ascend: one binary search aligns them.
        old_arr = old_csr.ids_array()
        if n_old:
            position = np.minimum(np.searchsorted(old_arr, ids_arr), n_old - 1)
            kept = old_arr[position] == ids_arr
        else:
            position = np.zeros(n_new, dtype=np.int64)
            kept = np.zeros(n_new, dtype=bool)
        old_row_of_new = np.where(kept, position, -1)
        remap = np.full(n_old, -1, dtype=np.int64)
        remap[position[kept]] = np.nonzero(kept)[0]

    changed: Set[int] = {index[vertex] for vertex in rows if vertex in index}
    if not same_ids:
        # Brand-new vertices have no old row to copy from, changed or not.
        changed.update(np.nonzero(~kept)[0].tolist())
    changed_rows = sorted(changed)
    changed_arr = np.array(changed_rows, dtype=np.int64)

    # The handed-in rows, flattened (Python work proportional to the
    # footprint, not to |E|).
    counts: List[int] = []
    flat_targets: List[int] = []
    flat_factors: List[float] = []
    try:
        for row in changed_rows:
            entries = rows.get(ids[row], ())
            counts.append(len(entries))
            for target, factor in entries:
                flat_targets.append(index[target])
                flat_factors.append(factor)
    except KeyError:
        return None

    if same_ids:
        row_counts = old_csr.out_degree.copy()
    else:
        row_counts = np.zeros(n_new, dtype=np.int64)
        row_counts[kept] = old_csr.out_degree[position[kept]]
    row_counts[changed_arr] = counts
    offsets = np.zeros(n_new + 1, dtype=np.int64)
    np.cumsum(row_counts, out=offsets[1:])
    num_edges = int(offsets[-1])
    targets = np.empty(num_edges, dtype=np.int64)
    factors = np.empty(num_edges, dtype=np.float64)

    # Bulk-move the untouched rows, one slice copy (memcpy speed) per run.
    untouched = np.ones(n_new, dtype=bool)
    untouched[changed_arr] = False
    dst_rows = np.nonzero(untouched)[0]
    if dst_rows.size:
        src_rows = dst_rows if same_ids else old_row_of_new[dst_rows]
        step = np.diff(dst_rows) != 1
        if not same_ids:
            step |= np.diff(src_rows) != 1
        breaks = np.nonzero(step)[0] + 1
        first = np.concatenate(([0], breaks))
        last = np.concatenate((breaks, [dst_rows.size])) - 1
        old_offsets = old_csr.offsets
        for src0, src1, dst0 in zip(
            old_offsets[src_rows[first]].tolist(),
            old_offsets[src_rows[last] + 1].tolist(),
            offsets[dst_rows[first]].tolist(),
        ):
            if src1 == src0:
                continue
            moved = old_csr.targets[src0:src1]
            if remap is not None:
                moved = remap[moved]
                if (moved < 0).any():
                    return None
            targets[dst0 : dst0 + (src1 - src0)] = moved
            factors[dst0 : dst0 + (src1 - src0)] = old_csr.factors[src0:src1]

    # Splice in the handed-in rows.
    if flat_targets:
        slots = expand_edges(
            offsets[changed_arr], np.array(counts, dtype=np.int64), len(flat_targets)
        )
        targets[slots] = np.array(flat_targets, dtype=np.int64)
        factors[slots] = np.array(flat_factors, dtype=np.float64)

    patched = FactorCSR(ids, offsets, targets, factors, index=index)
    patched._ids_cache = ids_arr
    return patched


def _patch_csr(
    spec,
    old_csr: FactorCSR,
    old_graph: Graph,
    new_graph: Graph,
    delta: GraphDelta,
    orientation: str,
    rebuild_fraction: float,
) -> Optional[FactorCSR]:
    """Patched snapshot for ``new_graph``, or ``None`` when a rebuild is due.

    Only the changed rows are re-enumerated in Python; :func:`splice_rows`
    moves the rest.  The result is bit-for-bit identical to a fresh compile
    of ``new_graph``.
    """
    added = delta.added_edges(old_graph)
    deleted = delta.deleted_edges(old_graph)
    if not new_graph.directed:
        # Undirected graphs install/remove the reverse edge alongside every
        # update, so both endpoints' rows change.
        added = added + [(t, s, w) for s, t, w in added if s != t]
        deleted = deleted + [(t, s, w) for s, t, w in deleted if s != t]
    if len(added) + len(deleted) > rebuild_fraction * max(old_csr.num_edges, 1):
        return None

    changed = _changed_row_vertices(
        spec, orientation, added, deleted, old_graph, new_graph
    )
    if orientation == "out":
        rows = {
            vertex: spec.out_factors(new_graph, vertex)
            for vertex in changed
            if new_graph.has_vertex(vertex)
        }
    else:
        rows = {
            vertex: [
                (source, spec.edge_factor(new_graph, source, vertex))
                for source in new_graph.in_neighbors(vertex)
            ]
            for vertex in changed
            if new_graph.has_vertex(vertex)
        }
    new_ids = sorted(new_graph.vertices())
    return splice_rows(
        old_csr, rows, None if new_ids == old_csr.vertex_ids else new_ids
    )


# ----------------------------------------------------------------------
# the cache
# ----------------------------------------------------------------------
class _Entry:
    __slots__ = ("spec", "graph", "version", "csr")

    def __init__(self, spec, graph: Graph, version: int, csr: FactorCSR) -> None:
        self.spec = spec
        self.graph = graph
        self.version = version
        self.csr = csr


class CSRCache:
    """Compile-once / patch-per-delta cache of factor CSR snapshots.

    One instance is owned by each incremental engine.  ``out_csr``/``in_csr``
    return the compiled snapshot of the engine's current graph, compiling at
    most once per (graph, version); :meth:`apply_delta` moves the cached
    arrays forward in O(delta + E·numpy) instead of O(V+E) Python.  Every
    entry is validated against the graph's mutation counter, so out-of-band
    mutations are never served stale.
    """

    def __init__(
        self,
        enabled: Optional[bool] = None,
        rebuild_fraction: Optional[float] = None,
    ) -> None:
        self._enabled_override = enabled
        self._rebuild_override = rebuild_fraction
        self._entries: Dict[str, _Entry] = {}
        #: statistics (exposed for tests and benchmark reporting)
        self.compiles = 0
        self.patches = 0
        self.rebuilds = 0
        self.hits = 0
        self.invalidations = 0

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """Whether this cache memoizes (the env knob is read dynamically)."""
        if self._enabled_override is not None:
            return self._enabled_override
        return csr_cache_enabled()

    @property
    def rebuild_fraction(self) -> float:
        """Delta-to-edges ratio beyond which patches give way to rebuilds."""
        if self._rebuild_override is not None:
            return self._rebuild_override
        return rebuild_fraction_default()

    # ------------------------------------------------------------------
    def out_csr(self, spec, graph: Graph) -> FactorCSR:
        """Out-edge factor CSR of ``graph`` under ``spec`` (cached)."""
        return self._get("out", spec, graph)

    def in_csr(self, spec, graph: Graph) -> FactorCSR:
        """In-edge factor CSR of ``graph`` under ``spec`` (cached)."""
        return self._get("in", spec, graph)

    def adjacency(self, spec, graph: Graph) -> "CachedGraphAdjacency":
        """Factor-adjacency view of ``graph`` served from this cache."""
        return CachedGraphAdjacency(self, spec, graph)

    def peek_csr(self, orientation: str, spec, graph: Graph) -> Optional[FactorCSR]:
        """Cached snapshot of ``graph`` if present and current, else ``None``.

        Unlike :meth:`out_csr`/:meth:`in_csr` this never compiles: the delta
        footprint (:mod:`repro.graph.footprint`) uses it to borrow whatever
        snapshots the engine already maintains without forcing an O(V+E)
        compile onto engines that never use that orientation.
        """
        if not self.enabled:
            return None
        entry = self._current_entry(orientation, spec, graph)
        return entry.csr if entry is not None else None

    def _current_entry(self, orientation: str, spec, graph: Graph) -> Optional[_Entry]:
        """The cached entry for ``orientation`` if it matches ``(spec, graph,
        version)`` exactly — the single definition of cache-hit validity."""
        entry = self._entries.get(orientation)
        if (
            entry is not None
            and entry.spec is spec
            and entry.graph is graph
            and entry.version == graph.version
        ):
            return entry
        return None

    def _compile(self, orientation: str, spec, graph: Graph) -> FactorCSR:
        self.compiles += 1
        if orientation == "out":
            return FactorCSR.from_graph(spec, graph)
        return FactorCSR.from_graph_in_edges(spec, graph)

    def _get(self, orientation: str, spec, graph: Graph) -> FactorCSR:
        if not self.enabled:
            return self._compile(orientation, spec, graph)
        entry = self._current_entry(orientation, spec, graph)
        if entry is not None:
            self.hits += 1
            return entry.csr
        if orientation in self._entries:
            self.invalidations += 1
        csr = self._compile(orientation, spec, graph)
        self._entries[orientation] = _Entry(spec, graph, graph.version, csr)
        return csr

    # ------------------------------------------------------------------
    def apply_delta(
        self, spec, old_graph: Graph, new_graph: Graph, delta: GraphDelta
    ) -> None:
        """Advance every cached snapshot from ``old_graph`` to ``new_graph``.

        Entries that do not match ``(spec, old_graph, version)`` — or whose
        patch exceeds the rebuild threshold — are dropped and recompiled
        lazily on the next access.
        """
        if not self.enabled:
            self._entries.clear()
            return
        for orientation in list(self._entries):
            entry = self._entries[orientation]
            if (
                entry.spec is not spec
                or entry.graph is not old_graph
                or entry.version != old_graph.version
            ):
                del self._entries[orientation]
                self.invalidations += 1
                continue
            try:
                patched = _patch_csr(
                    spec,
                    entry.csr,
                    old_graph,
                    new_graph,
                    delta,
                    orientation,
                    self.rebuild_fraction,
                )
            except Exception:
                patched = None
            if patched is None:
                del self._entries[orientation]
                self.rebuilds += 1
            else:
                self._entries[orientation] = _Entry(
                    spec, new_graph, new_graph.version, patched
                )
                self.patches += 1

    def install_csr(self, orientation: str, spec, graph: Graph, csr: FactorCSR) -> None:
        """Install a snapshot restored from a durable store.

        The entry is keyed by the live ``(spec, graph, version)`` triple like
        any compiled one, so subsequent accesses hit and subsequent deltas
        patch it forward.  No-op when caching is disabled.
        """
        if not self.enabled:
            return
        self._entries[orientation] = _Entry(spec, graph, graph.version, csr)

    def clear(self) -> None:
        """Drop every cached snapshot."""
        self._entries.clear()


class CachedGraphAdjacency:
    """Callable factor adjacency over a :class:`Graph`, cache-backed.

    Drop-in replacement for ``FactorAdjacency.from_graph(spec, graph)`` on the
    engines' full-graph propagation path: the Python loop iterates it like any
    adjacency (factors derived on the fly), while the vectorized backend asks
    for :meth:`compiled_csr` and skips both the adjacency materialisation and
    the CSR row enumeration entirely.
    """

    __slots__ = ("cache", "spec", "graph")

    def __init__(self, cache: CSRCache, spec, graph: Graph) -> None:
        self.cache = cache
        self.spec = spec
        self.graph = graph

    def __call__(self, vertex: int) -> List[Tuple[int, float]]:
        return self.spec.out_factors(self.graph, vertex)

    def __len__(self) -> int:
        return self.graph.num_edges()

    def vertices_with_out_edges(self) -> List[int]:
        """Vertices that have at least one out-edge."""
        graph = self.graph
        return [v for v in graph.vertices() if graph.out_degree(v) > 0]

    def compiled_csr(self, universe: Iterable[int]) -> Optional[FactorCSR]:
        """Cached CSR covering ``universe``, or ``None`` if it cannot.

        The cached snapshot indexes exactly the graph's vertices; a universe
        reaching outside it (states for vertices no longer in the graph)
        falls back to a fresh universe-specific compile in the caller.
        """
        csr = self.cache.out_csr(self.spec, self.graph)
        index = csr.index
        for vertex in universe:
            if vertex not in index:
                return None
        return csr


# ----------------------------------------------------------------------
# adjacency-level compile memo
# ----------------------------------------------------------------------
def master_factor_csr(base, universe: Iterable[int]) -> Optional[FactorCSR]:
    """Memoized full compile of a ``FactorAdjacency``-like object.

    The master snapshot (no silencing) is stored on the adjacency object
    itself, keyed by its mutation counter; repeated ``propagate`` calls — or
    the B per-boundary-vertex silenced variants of one Layph shortcut
    computation, served through :class:`repro.graph.csr.FactorCSRView` —
    compile once instead of per call.  A universe reaching outside the
    memoized id space recompiles over the union.  Returns ``None`` when
    caching is disabled or the adjacency does not carry a version counter
    (the caller then compiles fresh).
    """
    if not csr_cache_enabled():
        return None
    version = getattr(base, "_version", None)
    if version is None:
        return None
    universe = set(universe)
    memo = getattr(base, "_csr_memo", None)
    if memo is not None:
        memo_version, csr = memo
        if memo_version == version and universe <= csr.index.keys():
            return csr
        universe.update(csr.vertex_ids)
    csr = FactorCSR.from_factor_adjacency(base, universe=universe)
    base._csr_memo = (version, csr)
    return csr


def resident_master_csr(base) -> Optional[FactorCSR]:
    """``base``'s memoized master compile if it is current; never compiles."""
    memo = getattr(base, "_csr_memo", None)
    if memo is None or memo[0] != base.version or not csr_cache_enabled():
        return None
    return memo[1]


def splice_master_csr(
    base,
    resident: FactorCSR,
    rows: Dict[int, Sequence[Tuple[int, float]]],
    joining: Sequence[int] = (),
    leaving: Sequence[int] = (),
) -> None:
    """Carry a master compile across an in-place row replacement.

    ``resident`` is :func:`resident_master_csr` of ``base`` from *before*
    ``rows`` were replaced (``FactorAdjacency.replace_rows``); ``joining``
    are ids it does not index yet and that enter its id space, ``leaving``
    ids it indexes and that drop out.  The spliced
    snapshot (:func:`splice_rows`: O(replaced rows) Python plus slice copies)
    becomes the memo of ``base``'s current version, so the next
    ``propagate`` over ``base`` runs on it instead of recompiling the whole
    adjacency.  A splice that cannot be done drops the memo — the next
    access compiles from scratch.
    """
    new_ids = None
    if len(joining) or len(leaving):
        # The id array ascends: ids leave and join by binary search.
        new_ids = resident.ids_array()
        if len(leaving):
            new_ids = np.delete(new_ids, np.searchsorted(new_ids, sorted(leaving)))
        if len(joining):
            arriving = np.array(sorted(joining), dtype=np.int64)
            new_ids = np.insert(new_ids, np.searchsorted(new_ids, arriving), arriving)
    csr = splice_rows(resident, rows, new_ids)
    base._csr_memo = None if csr is None else (base.version, csr)
