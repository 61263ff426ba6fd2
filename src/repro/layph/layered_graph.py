"""The two-layer graph structure (Section IV) and its maintenance.

``LayeredGraph`` holds:

* a list of :class:`DenseSubgraph` objects — the lower layer ``Llow``: each
  records its members, its entry/exit/internal split (after optional vertex
  replication), its intra-subgraph *factor* adjacency and its shortcut tables;
* the upper layer ``Lup`` — a factor adjacency over the boundary vertices of
  all dense subgraphs, the proxies, and the outliers (vertices in no dense
  subgraph); its links are the boundary-to-boundary shortcuts, the original
  edges that do not lie inside any dense subgraph, and the host/proxy links
  introduced by replication.

Links everywhere carry explicit propagation factors (``edge_factor`` values of
the algorithm, or shortcut weights), so the structure is algorithm-specific —
exactly as in the paper, where shortcut weights are deduced from the
user-defined ``F`` and ``G``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.engine.algorithm import AlgorithmSpec
from repro.engine.metrics import ExecutionMetrics
from repro.engine.propagation import FactorAdjacency
from repro.graph.csr import FactorCSR
from repro.graph.csr_cache import (
    master_factor_csr,
    resident_master_csr,
    splice_master_csr,
)
from repro.graph.graph import Graph
from repro.layph.community import louvain_communities
from repro.layph.dense import select_dense_subgraphs
from repro.layph.replication import HostIndex, ReplicationPlan, plan_replication
from repro.layph.shortcuts import ShortcutBatch, ShortcutTable, shortcut_revision


@dataclass
class LayphConfig:
    """Construction knobs of the layered graph."""

    #: the paper's ``K``: maximum number of vertices per community; ``None``
    #: derives it from the graph size (paper: 0.002-0.2 percent of ``|V|``,
    #: clamped to stay useful on small synthetic graphs).
    max_community_size: Optional[int] = None
    #: candidates smaller than this are never considered dense
    min_subgraph_size: int = 3
    #: apply the ``|V_I|·|V_O| < |E_i|`` rule (Definition 2)
    apply_density_rule: bool = True
    #: replicate outside hosts shared by at least this many boundary vertices
    enable_replication: bool = True
    replication_threshold: int = 3
    #: random seed for community detection
    seed: int = 0

    def resolved_community_cap(self, num_vertices: int) -> Optional[int]:
        """The community size cap actually used for a graph of this size."""
        if self.max_community_size is not None:
            return self.max_community_size
        if num_vertices == 0:
            return None
        # 0.2% of |V| as in the paper, but never below a useful minimum for
        # the small synthetic graphs used by the test-suite and benchmarks.
        return max(64, int(0.002 * num_vertices))


@dataclass
class DenseSubgraph:
    """One dense subgraph of the lower layer (plus its shortcut tables)."""

    index: int
    #: real graph vertices assigned to this subgraph
    members: Set[int]
    #: entry/exit/internal split; entry and exit include proxy vertices
    entry: Set[int] = field(default_factory=set)
    exit: Set[int] = field(default_factory=set)
    internal: Set[int] = field(default_factory=set)
    #: proxy id -> host id
    proxies: Dict[int, int] = field(default_factory=dict)
    #: original cross edges rewired through proxies (excluded from Lup)
    rewired_edges: Set[Tuple[int, int]] = field(default_factory=set)
    #: host/proxy links contributed to the upper layer
    upper_links: List[Tuple[int, int, float]] = field(default_factory=list)
    #: intra-subgraph factor adjacency (members and proxies), patched in place
    local_adjacency: FactorAdjacency = field(default_factory=FactorAdjacency)
    #: the shortcut tables, one row per boundary vertex (empty until the
    #: first refresh)
    shortcuts: ShortcutTable = field(default_factory=lambda: ShortcutTable((), 0.0))
    #: the members' outside neighbours; a restore rebuilds it from the graph
    hosts: HostIndex = field(default_factory=HostIndex, compare=False, repr=False)

    @property
    def boundary(self) -> Set[int]:
        """Entry plus exit vertices (proxies included)."""
        return self.entry | self.exit

    @property
    def all_vertices(self) -> Set[int]:
        """Members plus proxies."""
        return self.members | set(self.proxies)

    def shortcut_count(self) -> int:
        """Number of shortcut entries (the Figure 11a space metric)."""
        return self.shortcuts.count()

    def boundary_shortcut_links(self) -> Iterable[Tuple[int, int, float]]:
        """Shortcuts whose target is a boundary vertex (they live on Lup)."""
        table = self.shortcuts
        for source in table.sources:
            for target, factor in table.links_to_sources(source):
                yield source, target, factor

    def internal_shortcuts(self, source: int) -> Dict[int, float]:
        """Shortcuts from ``source`` restricted to internal targets."""
        return {
            target: factor
            for target, factor in self.shortcuts.vector(source).items()
            if target in self.internal
        }


def _adjacency_state(adjacency: FactorAdjacency) -> dict:
    """JSON-able form of a factor adjacency — row order and version preserved.

    The row (and per-row link) order fixes the fold order of the propagation
    float sums, and the mutation counter keys the compiled-CSR memo, so both
    travel through the durable snapshot verbatim.
    """
    return {
        "rows": [
            [source, [[target, factor] for target, factor in row]]
            for source, row in adjacency._adjacency.items()
        ],
        "version": adjacency.version,
    }


def _adjacency_from_state(payload: dict) -> FactorAdjacency:
    """Rebuild a factor adjacency from :func:`_adjacency_state` output."""
    adjacency = FactorAdjacency(
        {
            int(source): [(int(target), float(factor)) for target, factor in row]
            for source, row in payload["rows"]
        }
    )
    adjacency._version = int(payload["version"])
    return adjacency


def _dedup_min_links(row: Iterable[Tuple[int, float]]) -> Dict[int, float]:
    """Per-target minimum over one upper row's links.

    Parallel upper-layer links can appear when a shortcut coexists with an
    original edge; the diff keeps the better one per target (the propagation
    itself uses both links).
    """
    links: Dict[int, float] = {}
    for target, factor in row:
        current = links.get(target)
        links[target] = factor if current is None else min(current, factor)
    return links


#: one changed skeleton link: ``(source, target, old_factor, new_factor)``,
#: ``None`` on the side where the link is absent
ChangedLink = Tuple[int, int, Optional[float], Optional[float]]


class LayeredGraph:
    """The layered representation of one graph for one algorithm."""

    def __init__(self, spec: AlgorithmSpec, graph: Graph, config: LayphConfig) -> None:
        self.spec = spec
        self.graph = graph
        self.config = config
        self.subgraphs: List[DenseSubgraph] = []
        #: real vertex -> index of the dense subgraph it belongs to
        self.subgraph_of: Dict[int, int] = {}
        self.upper_adjacency: FactorAdjacency = FactorAdjacency()
        self.upper_vertices: Set[int] = set()
        self._next_proxy_id: int = -1
        #: stable proxy ids: (subgraph index, host, side) -> proxy id, so that
        #: re-planning the same subgraph keeps the same proxies (which lets the
        #: online engine reuse shortcut tables and proxy states)
        self._proxy_registry: Dict[Tuple[int, int, str], int] = {}
        #: metrics of construction work (shortcut computation is F work):
        #: the build records its rounds, every later rebuild adds only its
        #: totals (the per-round lists would grow with every delta)
        self.construction_metrics = ExecutionMetrics()
        #: per-source indexes of the replication artifacts, maintained by
        #: :meth:`_refresh_subgraph` so the per-delta upper maintenance never
        #: re-unions them across all subgraphs:
        #: rewired original edge -> number of subgraphs rewiring it (one)
        self._rewired_counts: Dict[Tuple[int, int], int] = {}
        #: source -> {subgraph index -> its host/proxy links from that source}
        self._upper_links_by_source: Dict[int, Dict[int, List[Tuple[int, float]]]] = {}
        #: proxy vertex -> index of the subgraph that owns it
        self._proxy_owner: Dict[int, int] = {}
        #: upper-layer rebuilds that could keep the previous adjacency object
        #: (skeleton unchanged — its CSR compile memo stays valid) / that had
        #: to install a new one; exposed for tests and benchmark reporting
        self.upper_reuses = 0
        self.upper_rebuilds = 0
        #: deltas whose upper layer was maintained by the row-level diff path
        #: (:meth:`patch_upper`) instead of a full reassembly
        self.upper_patches = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        spec: AlgorithmSpec,
        graph: Graph,
        config: Optional[LayphConfig] = None,
    ) -> "LayeredGraph":
        """Build the layered graph of ``graph`` for algorithm ``spec``."""
        config = config or LayphConfig()
        if config.enable_replication and any(v < 0 for v in graph.vertices()):
            raise ValueError(
                "vertex replication reserves negative ids for proxies; "
                "the input graph must use non-negative vertex ids"
            )
        layered = cls(spec, graph, config)
        cap = config.resolved_community_cap(graph.num_vertices())
        candidates = louvain_communities(
            graph, max_community_size=cap, seed=config.seed
        )
        classifications = select_dense_subgraphs(
            graph,
            candidates,
            min_size=config.min_subgraph_size,
            apply_density_rule=config.apply_density_rule,
        )
        for index, classification in enumerate(classifications):
            members = set(classification.members)
            layered.subgraphs.append(DenseSubgraph(index=index, members=members))
            for vertex in members:
                layered.subgraph_of[vertex] = index
        # The build is a refresh with every member dirty, one kernel call
        # per subgraph (batching the whole build would hold every
        # subgraph's state cells at once).
        metrics = layered.construction_metrics
        for subgraph in layered.subgraphs:
            batch = ShortcutBatch(spec)
            layered._refresh_subgraph(subgraph, set(subgraph.members), batch, metrics)
            batch.run(metrics)
        layered.rebuild_upper()
        return layered

    # ------------------------------------------------------------------
    # (re)construction of one subgraph
    # ------------------------------------------------------------------
    def _allocate_proxy(self, subgraph_index: int, host: int, side: str) -> int:
        """Stable (negative) proxy id for ``host`` on ``side`` of one subgraph."""
        key = (subgraph_index, host, side)
        proxy = self._proxy_registry.get(key)
        if proxy is None:
            proxy = self._next_proxy_id
            self._next_proxy_id -= 1
            self._proxy_registry[key] = proxy
        return proxy

    def _refresh_subgraph(
        self,
        subgraph: DenseSubgraph,
        touched: Set[int],
        batch: ShortcutBatch,
        metrics: ExecutionMetrics,
    ) -> None:
        """Bring the resident tables of ``subgraph`` up to date with the graph.

        ``touched`` must hold every member whose adjacency changed and every
        member that left the graph: a delta's touched vertices, or all
        members for the build, which starts from empty tables.  From them:
        the host index, the plan, the split of the touched members and of the
        endpoints of rewired edges that entered or left the plan, and the
        dirty local rows — the touched members' and every row with a proxy
        link in the old or new plan — replaced in place, with the memoized
        compile spliced along (:func:`repro.graph.csr_cache.splice_master_csr`).
        Only the shortcut vectors of new boundary vertices and of those whose
        old region reaches a changed row are recomputed (the others provably
        keep their weights; Section IV-B).  A split or table that did not
        change keeps its object, so the caches keyed on them stay valid.

        Nothing is solved or folded here: the subgraph gets a new table
        whose stale rows are jobs in ``batch`` — for a min/+ spec a revision
        when :func:`repro.layph.shortcuts.shortcut_revision` yields its
        messages (charged to ``metrics``), a from-scratch solve when it
        cannot (new boundary vertices, support loss); for a sum/mul spec
        always a solve (closed-form unless the subgraph is too large) — and
        whose other rows the batch copies from the old table.  The caller
        runs the batch.
        """
        spec = self.spec
        graph = self.graph
        members = subgraph.members
        old_entry, old_exit = subgraph.entry, subgraph.exit
        old_internal = subgraph.internal
        old_proxies = subgraph.proxies
        old_rewired = subgraph.rewired_edges
        old_upper_links = subgraph.upper_links
        old_shortcuts = subgraph.shortcuts
        old_boundary = old_entry | old_exit

        named = (touched & members) | (touched & old_boundary) | (touched & old_internal)
        for vertex in named:
            if not graph.has_vertex(vertex):
                members.discard(vertex)
                self.subgraph_of.pop(vertex, None)
        dirty = named & members
        gone = named - dirty
        subgraph.hosts.update(graph, members, named)

        if self.config.enable_replication:
            rewired = self._rewired_counts
            plan = plan_replication(
                spec,
                graph,
                subgraph.hosts,
                self.config.replication_threshold,
                lambda host, side: self._allocate_proxy(subgraph.index, host, side),
                lambda edge: edge in rewired and edge not in old_rewired,
            )
        else:
            plan = ReplicationPlan()
        subgraph.proxies = plan.proxies
        subgraph.rewired_edges = plan.rewired_edges
        subgraph.upper_links = plan.upper_links
        self._reindex_subgraph(subgraph, old_proxies, old_rewired, old_upper_links)

        # Entry/exit status: an outside in-/out-neighbour whose edge is not
        # rewired through a proxy.
        rewired = plan.rewired_edges
        recheck = set(dirty)
        for source, target in old_rewired ^ rewired:
            recheck.add(source)
            recheck.add(target)
        recheck &= members
        in_hosts = subgraph.hosts.in_hosts
        out_hosts = subgraph.hosts.out_hosts
        entered = recheck & in_hosts.keys()
        exited = recheck & out_hosts.keys()
        if rewired:
            entered = {v for v in entered if any((h, v) not in rewired for h in in_hosts[v])}
            exited = {v for v in exited if any((v, h) not in rewired for h in out_hosts[v])}
        settled = recheck | gone | old_proxies.keys()
        entry = (old_entry - settled) | entered | plan.entry_proxies
        exit_ = (old_exit - settled) | exited | plan.exit_proxies
        internal = (old_internal - settled) | (recheck - entered - exited)
        subgraph.entry = old_entry if entry == old_entry else entry
        subgraph.exit = old_exit if exit_ == old_exit else exit_
        subgraph.internal = old_internal if internal == old_internal else internal

        # The dirty rows: original edges between members, then the links the
        # proxy rewiring adds, in plan order.
        links: Dict[int, List[Tuple[int, float]]] = {}
        for source, target, factor in plan.local_links:
            links.setdefault(source, []).append((target, factor))
        linked = {source for source, _target in old_rewired if source in members or source in gone}
        rows: Dict[int, List[Tuple[int, float]]] = {}
        for source in dirty | gone | linked | links.keys() | old_proxies.keys():
            if source in members:
                row = [
                    (target, spec.edge_factor(graph, source, target))
                    for target in graph.out_neighbors(source)
                    if target in members
                ]
                row.extend(links.get(source, ()))
            else:
                row = links.get(source, [])
            rows[source] = row
        local = subgraph.local_adjacency
        old_rows: Dict[int, List[Tuple[int, float]]] = {}
        old_sources: Set[int] = set()
        if old_shortcuts:
            # the revisions read the old rows; ``replace_rows`` installs new
            # lists, so the old ones stay intact (a build has none to revise)
            old_rows = {source: local(source) for source in rows}
            old_sources = set(local.vertices_with_out_edges())
        resident = resident_master_csr(local)
        replaced = local.replace_rows(rows)
        if resident is not None:
            vertices = subgraph.all_vertices
            joining = vertices - resident.index.keys()
            leaving = resident.index.keys() - vertices
            if replaced or joining or leaving:
                spliced = {source: rows[source] for source in replaced}
                splice_master_csr(local, resident, spliced, joining, leaving)

        boundary = subgraph.boundary
        # A build (no old tables) solves every boundary vertex from scratch.
        # The revision folds the changed sources' messages in set order,
        # which a set takes from its insertion order where ids collide: they
        # are inserted in the order of the old and new rows' union.
        changed_sources: Set[int] = set()
        if old_shortcuts and replaced:
            differ = {s for s in replaced if sorted(old_rows[s]) != sorted(local(s))}
            if differ:
                changed_sources = {
                    s for s in old_sources | set(local.vertices_with_out_edges()) if s in differ
                }
        stale_sources = self._stale_shortcut_sources(
            changed_sources, old_shortcuts, old_boundary, boundary
        )
        boundary_changed = old_boundary != boundary
        if not stale_sources and not boundary_changed:
            return
        old_local = FactorAdjacency(old_rows)
        selective = spec.is_selective()
        sources = sorted(boundary)
        block = None
        for vertex in sources:
            known = vertex in old_shortcuts.rows
            if vertex not in stale_sources and known:
                continue
            pending: Optional[Dict[int, float]] = None
            if not boundary_changed and known and selective:
                # Incremental shortcut maintenance (Section IV-B): revise the
                # memoized weights with the changed links' revision messages.
                pending = shortcut_revision(
                    spec,
                    old_local,
                    local,
                    vertex,
                    boundary,
                    old_shortcuts,
                    changed_sources,
                    metrics,
                )
            if pending is not None and not pending:
                continue
            if block is None:
                block = batch.block(local, boundary, old_shortcuts, sources, subgraph.index)
            if pending is None:
                batch.solve(block, vertex)
            else:
                batch.revise(block, vertex, pending)
        if block is None and boundary_changed:
            # no job: the batch copies the kept rows into the new row set
            block = batch.block(local, boundary, old_shortcuts, sources, subgraph.index)
        if block is not None:
            subgraph.shortcuts = block.table

    def _reindex_subgraph(
        self,
        subgraph: DenseSubgraph,
        old_proxies: Dict[int, int],
        old_rewired: Set[Tuple[int, int]],
        old_upper_links: List[Tuple[int, int, float]],
    ) -> None:
        """Move the per-source replication indexes from a subgraph's old
        tables to its freshly planned ones (an O(subgraph tables) diff,
        instead of the O(all subgraphs) re-unions ``patch_upper`` used to
        run on every delta)."""
        index = subgraph.index
        for proxy in old_proxies:
            if proxy not in subgraph.proxies and self._proxy_owner.get(proxy) == index:
                del self._proxy_owner[proxy]
        for proxy in subgraph.proxies:
            self._proxy_owner[proxy] = index
        for edge in old_rewired:
            count = self._rewired_counts.get(edge, 0) - 1
            if count <= 0:
                self._rewired_counts.pop(edge, None)
            else:
                self._rewired_counts[edge] = count
        for edge in subgraph.rewired_edges:
            self._rewired_counts[edge] = self._rewired_counts.get(edge, 0) + 1
        for source, _target, _factor in old_upper_links:
            bucket = self._upper_links_by_source.get(source)
            if bucket is not None:
                bucket.pop(index, None)
                if not bucket:
                    del self._upper_links_by_source[source]
        for source, target, factor in subgraph.upper_links:
            self._upper_links_by_source.setdefault(source, {}).setdefault(
                index, []
            ).append((target, factor))

    def proxy_owner_of(self, vertex: int) -> Optional[int]:
        """Index of the subgraph owning proxy ``vertex`` (``None`` otherwise)."""
        return self._proxy_owner.get(vertex)

    @staticmethod
    def _stale_shortcut_sources(
        changed_sources: Set[int],
        old_shortcuts: ShortcutTable,
        old_boundary: Set[int],
        new_boundary: Set[int],
    ) -> Set[int]:
        """Boundary vertices whose shortcut vectors must be recomputed.

        A boundary vertex is stale when some intra-subgraph link changed at a
        vertex its old shortcut region could reach (or at itself), or when the
        boundary set changed in a way that alters which vertices absorb
        messages along its internal paths.  ``changed_sources`` are the
        vertices whose intra-subgraph out-links changed.
        """
        if not old_shortcuts:
            return set(new_boundary)
        if not changed_sources and old_boundary == new_boundary:
            return set()
        if old_boundary != new_boundary:
            # Vertices that moved between boundary and internal change the
            # absorption pattern of every path that crosses them.
            changed_sources = set(changed_sources) | (old_boundary ^ new_boundary)
        # the old rows whose region (their shortcut targets) holds a change
        index = old_shortcuts.index
        columns = [index[vertex] for vertex in changed_sources if vertex in index]
        reaches = (old_shortcuts.block[:, columns] != old_shortcuts.identity).any(axis=1)
        rows = old_shortcuts.rows
        return {
            vertex
            for vertex in new_boundary
            if vertex not in rows or vertex in changed_sources or reaches[rows[vertex]]
        }

    def rebuild_subgraphs(
        self,
        indices: Iterable[int],
        touched: Set[int],
        metrics: Optional[ExecutionMetrics] = None,
    ) -> None:
        """Refresh several dense subgraphs against the current graph.

        Used by the online engine for the subgraphs affected by ΔG, with the
        delta's touched vertices (see :meth:`_refresh_subgraph`).  Every
        shortcut solve and revision of all ``indices`` runs in one
        :class:`repro.layph.shortcuts.ShortcutBatch` call after the refresh
        loop.  The shortcut work is added to ``construction_metrics`` as
        totals, and its activations and dense multiply-adds (the sum/mul
        closed form's) are charged to ``metrics`` when given.
        """
        work = ExecutionMetrics()
        batch = ShortcutBatch(self.spec)
        for index in indices:
            self._refresh_subgraph(self.subgraphs[index], touched, batch, work)
        batch.run(work, per_round=False)
        construction = self.construction_metrics
        construction.edge_activations += work.edge_activations
        construction.vertex_updates += work.vertex_updates
        construction.iterations += work.iterations
        construction.dense_multiply_adds += work.dense_multiply_adds
        if metrics is not None:
            metrics.edge_activations += work.edge_activations
            metrics.dense_multiply_adds += work.dense_multiply_adds

    # ------------------------------------------------------------------
    # upper layer
    # ------------------------------------------------------------------
    def outliers(self) -> Set[int]:
        """Vertices of the graph that belong to no dense subgraph."""
        return {
            vertex
            for vertex in self.graph.vertices()
            if vertex not in self.subgraph_of
        }

    def _assemble_upper(self) -> Tuple[FactorAdjacency, Set[int]]:
        """Assemble a fresh upper layer from the current subgraph tables.

        Pure function of the current graph and subgraph state: returns the
        ``(adjacency, upper_vertices)`` pair without installing anything, so
        :meth:`rebuild_upper` and the diff-path regression tests share one
        assembly.
        """
        spec = self.spec
        graph = self.graph
        upper = FactorAdjacency()
        upper_vertices: Set[int] = set()

        rewired: Set[Tuple[int, int]] = set()
        for subgraph in self.subgraphs:
            rewired.update(subgraph.rewired_edges)
            upper_vertices.update(subgraph.boundary)

        upper_vertices.update(self.outliers())

        # Original edges that are not inside any dense subgraph (and were not
        # rewired through a proxy) stay on the upper layer with their factors.
        subgraph_of = self.subgraph_of
        for source in graph.vertices():
            own = subgraph_of.get(source)
            if own is not None and all(
                subgraph_of.get(target) == own
                for target in graph.out_neighbors(source)
            ):
                # internal to its subgraph (most vertices of a web-like
                # graph): no cross edge, so no factors to derive
                continue
            for target, factor in spec.out_factors(graph, source):
                if own is not None and subgraph_of.get(target) == own:
                    continue
                if (source, target) in rewired:
                    continue
                upper.add(source, target, factor)

        # Boundary-to-boundary shortcuts and host/proxy links of every
        # dense subgraph.
        for subgraph in self.subgraphs:
            for source, target, factor in subgraph.boundary_shortcut_links():
                upper.add(source, target, factor)
            for source, target, factor in subgraph.upper_links:
                upper.add(source, target, factor)
        return upper, upper_vertices

    def rebuild_upper(self) -> None:
        """Assemble the upper layer from the current subgraph tables.

        This is the full-reassembly path — O(V + E).  It runs at build time;
        the online engine maintains the skeleton with :meth:`patch_upper`
        (row-level maintenance driven by the delta footprint).
        """
        self.upper_adjacency, self.upper_vertices = self._assemble_upper()
        self.upper_rebuilds += 1

    # ------------------------------------------------------------------
    # incremental (diff-based) upper-layer maintenance
    # ------------------------------------------------------------------
    def subgraph_upper_sources(self, indices: Iterable[int]) -> Set[int]:
        """Every source whose upper row the given subgraphs contribute to.

        Snapshot this for the affected subgraphs *before* rebuilding them and
        again after: the union bounds the rows a rebuild can have changed —
        shortcut links originate at boundary vertices (proxies included),
        host/proxy links at their recorded sources, and a rewired original
        edge flips its source's cross-edge row when the rewiring changes.
        """
        sources: Set[int] = set()
        for index in indices:
            subgraph = self.subgraphs[index]
            sources |= subgraph.boundary
            sources.update(source for source, _t, _f in subgraph.upper_links)
            sources.update(source for source, _t in subgraph.rewired_edges)
        return sources

    def subgraph_boundaries(self, indices: Iterable[int]) -> Set[int]:
        """Union of the boundary sets (proxies included) of the subgraphs."""
        boundaries: Set[int] = set()
        for index in indices:
            boundaries |= self.subgraphs[index].boundary
        return boundaries

    def patch_upper(
        self,
        dirty_sources: Set[int],
        removed_upper: Set[int],
        added_upper: Set[int],
    ) -> List[ChangedLink]:
        """Maintain the upper layer in place from a delta's row footprint.

        ``dirty_sources`` must cover every vertex whose upper row can differ
        from the previous delta's: the delta's touched sources (their
        out-adjacency — and with it every cross-edge factor — changed) plus
        :meth:`subgraph_upper_sources` of the rebuilt subgraphs, before and
        after the rebuild.  Each dirty row is re-derived exactly as
        :meth:`_assemble_upper` would build it (cross edges in out-adjacency
        order, then per subgraph — via the per-source replication indexes
        maintained at subgraph rebuild, never a re-union over all subgraphs —
        the boundary shortcuts and host/proxy links), so the patched
        adjacency is identical — content and per-row link order — to a full
        reassembly.  Rows outside ``dirty_sources`` cannot change: their
        cross edges, factors and rewiring status are functions of unchanged
        out-adjacencies and untouched subgraph tables.

        Vertices that left the graph belong in ``dirty_sources`` too (their
        rows vanish) and in ``removed_upper``.  A removal shrinks subgraph
        membership, but only edges incident to the removed vertex can flip
        their same-subgraph test, and those are gone with it: their sources
        are touched sources of the delta, so no row outside the footprint
        changes.  ``removed_upper``/``added_upper`` carry the membership diff
        of the upper vertex set (old vs new boundaries of the rebuilt
        subgraphs, the delta's removed vertices, and its brand-new vertices,
        which are always outliers).

        The compiled form of the skeleton follows the patch: when the
        adjacency's master CSR is resident
        (:func:`repro.graph.csr_cache.resident_master_csr`), the changed rows
        are spliced into it and vertices/proxies that joined or left enter or
        leave its id space, so the next upper-layer ``propagate`` runs on a
        snapshot bit-identical to a fresh compile without compiling one.

        For a selective spec, returns every ``(source, target, old_factor,
        new_factor)`` whose better-of-parallels factor the patch changed
        (``None`` where the link is absent), sources then targets ascending
        — the skeleton's changed-link list, read off the dirty rows only.
        For an accumulative spec the list is empty: nothing reads it.
        """
        spec = self.spec
        graph = self.graph
        subgraph_of = self.subgraph_of
        rewired = self._rewired_counts

        rows: Dict[int, List[Tuple[int, float]]] = {}
        for vertex in dirty_sources:
            row: List[Tuple[int, float]] = []
            if graph.has_vertex(vertex):
                own = subgraph_of.get(vertex)
                for target, factor in spec.out_factors(graph, vertex):
                    if own is not None and subgraph_of.get(target) == own:
                        continue
                    if (vertex, target) in rewired:
                        continue
                    row.append((target, factor))
            rows[vertex] = row
        # A vertex's shortcut links live only in its owning subgraph (members
        # via ``subgraph_of``, proxies via the maintained owner index); its
        # host/proxy links come from the per-source link index.  Contributions
        # replay the assembly order: subgraphs ascending, a subgraph's
        # shortcuts before its host/proxy links.
        for vertex in dirty_sources:
            own = subgraph_of.get(vertex)
            if own is None:
                own = self._proxy_owner.get(vertex)
            buckets = self._upper_links_by_source.get(vertex)
            if own is None and buckets is None:
                continue
            row = rows[vertex]
            indices = set(buckets) if buckets else set()
            if own is not None:
                indices.add(own)
            for index in sorted(indices):
                if index == own:
                    table = self.subgraphs[index].shortcuts
                    if vertex in table.rows:
                        row.extend(table.links_to_sources(vertex))
                if buckets is not None and index in buckets:
                    row.extend(buckets[index])

        adjacency = self.upper_adjacency
        changed_links: List[ChangedLink] = []
        # only the selective upload reads the link diff (accumulative
        # revision messages come from the graph)
        for vertex in sorted(rows) if spec.is_selective() else ():
            old_row = adjacency(vertex)
            if old_row == rows[vertex]:
                continue
            old = _dedup_min_links(old_row)
            new = _dedup_min_links(rows[vertex])
            for target in sorted(old.keys() | new.keys()):
                old_factor = old.get(target)
                new_factor = new.get(target)
                if old_factor != new_factor:
                    changed_links.append((vertex, target, old_factor, new_factor))
        resident = resident_master_csr(adjacency)
        changed = adjacency.replace_rows(rows)
        if changed:
            self.upper_patches += 1
        else:
            self.upper_reuses += 1
        self.upper_vertices.difference_update(removed_upper)
        self.upper_vertices.update(added_upper)
        if resident is not None:
            # The compiled id space is the graph's vertices plus the proxies:
            # a vertex that merely moved between the layers stays in it.
            joining = [v for v in added_upper if v not in resident.index]
            leaving = [
                v
                for v in removed_upper
                if v in resident.index
                and not graph.has_vertex(v)
                and v not in self._proxy_owner
            ]
            if changed or joining or leaving:
                splice_master_csr(
                    adjacency,
                    resident,
                    {vertex: rows[vertex] for vertex in changed},
                    joining,
                    leaving,
                )
        return changed_links

    def upper_csr(self) -> FactorCSR:
        """Compiled out-CSR of the upper layer over the graph's vertices and
        the proxies — the snapshot the upper-layer ``propagate`` runs on.

        Resident across deltas: compiled on first use after a build, a
        restore or a full reassembly, then kept current by
        :meth:`patch_upper`'s splice.
        """
        adjacency = self.upper_adjacency
        csr = resident_master_csr(adjacency)
        if csr is None:
            # only a compile needs the O(V) id space spelled out
            universe = set(self.graph.vertices())
            universe.update(self._proxy_owner)
            csr = master_factor_csr(adjacency, universe)
        return csr

    # ------------------------------------------------------------------
    # bookkeeping for deltas
    # ------------------------------------------------------------------
    def remove_vertices(self, vertices: Iterable[int]) -> Set[int]:
        """Drop deleted vertices from the membership maps.

        Returns the indices of the subgraphs that lost members (the caller is
        expected to rebuild them).
        """
        affected: Set[int] = set()
        for vertex in vertices:
            index = self.subgraph_of.pop(vertex, None)
            if index is not None:
                self.subgraphs[index].members.discard(vertex)
                affected.add(index)
        return affected

    def affected_subgraphs(self, touched_vertices: Set[int]) -> Set[int]:
        """Indices of the dense subgraphs containing any touched vertex, or
        replicating one as an entry host: the factors of a host's rewired
        edges live in the proxy's local row and follow its out-adjacency."""
        subgraph_of = self.subgraph_of
        affected = {subgraph_of[v] for v in touched_vertices if v in subgraph_of}
        for vertex in touched_vertices:
            affected.update(self._upper_links_by_source.get(vertex, ()))
        return affected

    def proxy_vertices(self) -> Set[int]:
        """Every proxy vertex currently present in the layered graph (served
        from the owner index :meth:`_reindex_subgraph` maintains)."""
        return set(self._proxy_owner)

    # ------------------------------------------------------------------
    # durable snapshots (repro.storage)
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """JSON-able state of the layered graph (everything but spec/graph/config).

        Orders matter and are preserved verbatim wherever a consumer folds
        floats over them: each subgraph's ``upper_links`` list, the local and
        upper adjacencies' row orders (and their mutation counters, which key
        the compiled-CSR memos), and the nested ``_upper_links_by_source``
        buckets whose inner lists :meth:`patch_upper` extends rows with.
        Each shortcut table is stored as its rows' ``[target, weight]``
        entries, ascending; its order is no part of the contract — no target
        receives two entries of one row — so any order restores the same
        table (stores written while the tables were dicts kept dict order).
        Pure sets (members, boundary splits, rewired edges, upper vertices)
        are stored sorted — their consumers are set operations, keyed
        lookups, or sorted iterations.  The compiled upper CSR is not
        stored; it is compiled on first use.
        """
        return {
            "subgraphs": [
                {
                    "index": subgraph.index,
                    "members": sorted(subgraph.members),
                    "entry": sorted(subgraph.entry),
                    "exit": sorted(subgraph.exit),
                    "internal": sorted(subgraph.internal),
                    "proxies": [
                        [proxy, host] for proxy, host in subgraph.proxies.items()
                    ],
                    "rewired_edges": sorted(
                        [source, target]
                        for source, target in subgraph.rewired_edges
                    ),
                    "upper_links": [list(link) for link in subgraph.upper_links],
                    "local_adjacency": _adjacency_state(subgraph.local_adjacency),
                    "shortcuts": [
                        [source, [[target, factor] for target, factor in row.items()]]
                        for source, row in subgraph.shortcuts.vectors().items()
                    ],
                }
                for subgraph in self.subgraphs
            ],
            "subgraph_of": [
                [vertex, index] for vertex, index in self.subgraph_of.items()
            ],
            "upper_adjacency": _adjacency_state(self.upper_adjacency),
            "upper_vertices": sorted(self.upper_vertices),
            "next_proxy_id": self._next_proxy_id,
            "proxy_registry": [
                [sub, host, side, proxy]
                for (sub, host, side), proxy in self._proxy_registry.items()
            ],
            "construction_metrics": self.construction_metrics.to_state(),
            "rewired_counts": [
                [source, target, count]
                for (source, target), count in self._rewired_counts.items()
            ],
            "upper_links_by_source": [
                [
                    source,
                    [
                        [index, [[target, factor] for target, factor in links]]
                        for index, links in buckets.items()
                    ],
                ]
                for source, buckets in self._upper_links_by_source.items()
            ],
            "proxy_owner": [
                [proxy, index] for proxy, index in self._proxy_owner.items()
            ],
            "counters": {
                "upper_reuses": self.upper_reuses,
                "upper_rebuilds": self.upper_rebuilds,
                "upper_patches": self.upper_patches,
            },
        }

    @classmethod
    def from_state(
        cls,
        spec: AlgorithmSpec,
        graph: Graph,
        config: LayphConfig,
        payload: dict,
    ) -> "LayeredGraph":
        """Rebuild a layered graph from :meth:`to_state` output.

        ``graph`` must already be the graph the state was captured against
        (same edges *and* adjacency orders — the durable store's baseline
        restore guarantees that).
        """
        layered = cls(spec, graph, config)
        for entry in payload["subgraphs"]:
            subgraph = DenseSubgraph(
                index=int(entry["index"]),
                members={int(vertex) for vertex in entry["members"]},
                entry={int(vertex) for vertex in entry["entry"]},
                exit={int(vertex) for vertex in entry["exit"]},
                internal={int(vertex) for vertex in entry["internal"]},
                proxies={
                    int(proxy): int(host) for proxy, host in entry["proxies"]
                },
                rewired_edges={
                    (int(source), int(target))
                    for source, target in entry["rewired_edges"]
                },
                upper_links=[
                    (int(source), int(target), float(factor))
                    for source, target, factor in entry["upper_links"]
                ],
                local_adjacency=_adjacency_from_state(entry["local_adjacency"]),
                shortcuts=ShortcutTable.from_vectors(
                    {
                        int(source): {
                            int(target): float(factor) for target, factor in row
                        }
                        for source, row in entry["shortcuts"]
                    },
                    float(spec.aggregate_identity()),
                ),
            )
            subgraph.hosts.update(graph, subgraph.members, subgraph.members)
            layered.subgraphs.append(subgraph)
        layered.subgraph_of = {
            int(vertex): int(index) for vertex, index in payload["subgraph_of"]
        }
        layered.upper_adjacency = _adjacency_from_state(payload["upper_adjacency"])
        layered.upper_vertices = {int(vertex) for vertex in payload["upper_vertices"]}
        layered._next_proxy_id = int(payload["next_proxy_id"])
        layered._proxy_registry = {
            (int(sub), int(host), str(side)): int(proxy)
            for sub, host, side, proxy in payload["proxy_registry"]
        }
        layered.construction_metrics = ExecutionMetrics.from_state(
            payload["construction_metrics"]
        )
        layered._rewired_counts = {
            (int(source), int(target)): int(count)
            for source, target, count in payload["rewired_counts"]
        }
        layered._upper_links_by_source = {
            int(source): {
                int(index): [
                    (int(target), float(factor)) for target, factor in links
                ]
                for index, links in buckets
            }
            for source, buckets in payload["upper_links_by_source"]
        }
        layered._proxy_owner = {
            int(proxy): int(index) for proxy, index in payload["proxy_owner"]
        }
        counters = payload["counters"]
        layered.upper_reuses = int(counters["upper_reuses"])
        layered.upper_rebuilds = int(counters["upper_rebuilds"])
        layered.upper_patches = int(counters["upper_patches"])
        return layered

    # ------------------------------------------------------------------
    # size accounting (Figures 8a and 11a)
    # ------------------------------------------------------------------
    def upper_size(self) -> Tuple[int, int]:
        """``(vertices, links)`` of the upper layer."""
        return len(self.upper_vertices | self.proxy_vertices()), len(
            self.upper_adjacency
        )

    def shortcut_count(self) -> int:
        """Total number of shortcut entries across all dense subgraphs."""
        return sum(subgraph.shortcut_count() for subgraph in self.subgraphs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        upper_vertices, upper_links = self.upper_size()
        return (
            f"LayeredGraph(subgraphs={len(self.subgraphs)}, "
            f"Lup=({upper_vertices} vertices, {upper_links} links), "
            f"shortcuts={self.shortcut_count()})"
        )

