"""The two-layer graph structure (Section IV) and its maintenance.

``LayeredGraph`` holds:

* a list of :class:`DenseSubgraph` objects — the lower layer ``Llow``: each
  records its members, its entry/exit/internal split (after optional vertex
  replication), its intra-subgraph *factor* adjacency and its shortcut tables;
* the upper layer ``Lup`` — a compiled factor CSR over the graph's vertices
  and the proxies, whose rows are non-empty only for the boundary vertices
  of all dense subgraphs, the proxies, and the outliers (vertices in no
  dense subgraph); its links are the boundary-to-boundary shortcuts, the
  original edges that do not lie inside any dense subgraph, and the
  host/proxy links introduced by replication.

Links carry propagation factors (``edge_factor`` values or shortcut
weights), so the structure is algorithm-specific, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

import numpy as np

from repro.engine.algorithm import AlgorithmSpec
from repro.engine.metrics import ExecutionMetrics
from repro.engine.propagation import FactorAdjacency
from repro.graph.csr import CSRAdjacency, FactorCSR, expand_edges, locate
from repro.graph.csr_cache import (
    flatten_rows,
    moved_id_space,
    resident_master_csr,
    splice_master_csr,
    splice_rows,
)
from repro.graph.graph import Graph
from repro.layph.community import louvain_communities
from repro.layph.dense import select_dense_subgraphs
from repro.layph.replication import HostIndex, ReplicationPlan, plan_replication
from repro.layph.shortcuts import ShortcutBatch, ShortcutTable, shortcut_revision
from repro.layph.vectorized import ShortcutStack


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


def _adjacency_state(adjacency, version: int) -> dict:
    """JSON-able rows of a factor adjacency, in its row order and each row's
    link order (the fold order of the propagation sums), and its mutation
    counter ``version``."""
    sources = adjacency.vertices_with_out_edges()
    rows = [[source, [list(link) for link in adjacency(source)]] for source in sources]
    return {"rows": rows, "version": version}


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


class ChangedLinks(NamedTuple):
    """The skeleton links whose best factor changed, as parallel arrays in
    ``(source, target)`` order; ``old``/``new`` hold ``inf`` on the side
    where the link is absent (every factor is finite)."""

    sources: np.ndarray
    targets: np.ndarray
    old: np.ndarray
    new: np.ndarray


NO_CHANGED_LINKS = ChangedLinks(
    np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0), np.empty(0)
)

#: flat upper rows ``(row, target ids, factors)``: each link's row is its
#: source's position among the sources the rows were read for
FlatRows = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _compile_rows(ids: np.ndarray, rows: Tuple[np.ndarray, ...]) -> FactorCSR:
    """Flat ``(sources, counts, targets, factors)`` rows spliced into an
    empty CSR over the ascending ``ids``: bit for bit a fresh compile."""
    empty = FactorCSR(ids.tolist(), np.zeros(ids.size + 1, dtype=np.int64), rows[2][:0], rows[3][:0])
    return splice_rows(empty, *rows)


def _link_diff(sources: np.ndarray, old: FlatRows, new: FlatRows) -> ChangedLinks:
    """Every link whose better of the parallel links (a shortcut can meet an
    original edge) differs between the ``old`` and ``new`` rows of
    ``sources``, sources then targets ascending."""
    targets = np.concatenate((old[1], new[1]))
    lowest = int(targets.min(initial=0))
    span = int(targets.max(initial=0)) - lowest + 1
    keys, key = np.unique(np.concatenate((old[0], new[0])) * span + (targets - lowest), return_inverse=True)
    best = np.full((2, keys.size), np.inf)
    np.minimum.at(best[0], key[: old[0].size], old[2])
    np.minimum.at(best[1], key[old[0].size :], new[2])
    changed = np.flatnonzero(best[0] != best[1])
    keys = keys[changed]
    return ChangedLinks(sources[keys // span], keys % span + lowest, best[0][changed], best[1][changed])


class LayeredGraph:
    """The layered representation of one graph for one algorithm."""

    def __init__(self, spec: AlgorithmSpec, graph: Graph, config: LayphConfig) -> None:
        self.spec = spec
        self.graph = graph
        self.config = config
        self.subgraphs: List[DenseSubgraph] = []
        #: real vertex -> index of the dense subgraph it belongs to
        self.subgraph_of: Dict[int, int] = {}
        #: ``subgraph_of`` by row of an ascending id array, -1 where no
        #: member, as ``(ids, owners)``: kept while the graph's out-CSR keeps
        #: its id array (a splice that keeps the id space keeps the array),
        #: dropped whenever the map loses a member (it gains none after the
        #: build)
        self._owner_rows: Optional[Tuple[np.ndarray, np.ndarray]] = None
        #: the upper layer: a read-only view of its CSR, compiled by a full
        #: reassembly and then spliced by :meth:`patch_upper`
        empty = FactorCSR([], np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0))
        self.upper_adjacency = CSRAdjacency(empty)
        #: its mutation counter: its link count at the last reassembly plus
        #: one per patch that changed a row (stored with it)
        self._upper_version = 0
        #: phase 4's input, every subgraph's boundary→internal shortcut rows
        self.shortcut_stack = ShortcutStack()
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
        #: patches that left the upper layer unchanged / changed it, and full
        #: reassemblies; exposed for tests and benchmark reporting
        self.upper_reuses = self.upper_patches = self.upper_rebuilds = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        spec: AlgorithmSpec,
        graph: Graph,
        config: Optional[LayphConfig] = None,
        out_csr: Optional[FactorCSR] = None,
    ) -> "LayeredGraph":
        """Build the layered graph of ``graph`` for algorithm ``spec``
        (``out_csr``: the graph's compiled out-CSR, if the caller has it)."""
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
        layered.rebuild_upper(out_csr)
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
        member that left the graph (all members for the build, which starts
        from empty tables).  From them: the host index, the plan, the split
        of the touched members and of the endpoints of rewired edges that
        entered or left the plan, and the dirty local rows (the touched
        members' and every row with a proxy link in the old or new plan),
        replaced in place with the memoized compile spliced along.  Only the
        shortcut rows of new boundary vertices and of those whose old region
        reaches a changed row are stale (Section IV-B); a split or table that
        did not change keeps its object.

        Nothing is solved here: the subgraph gets a new table whose stale
        rows are jobs in ``batch`` (a min/+ revision when
        :func:`repro.layph.shortcuts.shortcut_revision` yields its messages,
        charged to ``metrics``, else a solve) and whose other rows the batch
        copies from the old table.  The caller runs the batch.

        For a spec with exact path sums (``spec.exact_path_sums``: BFS) a
        vertex that joined the boundary invalidates no row: only its own row
        is solved.  A kept row may hold entries whose paths cross it, now an
        absorber; each equals, to the bit, the route through its upper links
        (its shortcut from the row's source, then its own row), so the
        layer's min-plus closure, and every state, is the rebuild's.
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
                self._owner_rows = None
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
            changed_sources, old_shortcuts, old_boundary, boundary, spec.exact_path_sums
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
        tables to its freshly planned ones (an O(subgraph tables) diff)."""
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
        keep_gains: bool,
    ) -> Set[int]:
        """Boundary vertices whose shortcut vectors must be recomputed.

        A boundary vertex is stale when it is new, when some intra-subgraph
        link changed at a vertex its old shortcut region could reach (or at
        itself), or when that region holds a vertex that moved between
        boundary and internal: the move changes the absorption pattern of
        every path that crosses it.  With ``keep_gains`` (a spec with exact
        path sums) a vertex that joined the boundary is no such move; one
        that left it still is.  ``changed_sources`` are the vertices whose
        intra-subgraph out-links changed.
        """
        if not old_shortcuts:
            return set(new_boundary)
        moved = old_boundary - new_boundary if keep_gains else old_boundary ^ new_boundary
        if not changed_sources and not moved:
            return new_boundary - old_shortcuts.rows.keys()
        if moved:
            changed_sources = set(changed_sources) | moved
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
        """Refresh the subgraphs ``indices`` affected by a delta that
        touched ``touched`` (:meth:`_refresh_subgraph`), with every shortcut
        solve and revision in one :class:`repro.layph.shortcuts.ShortcutBatch`
        call; the work is added to ``construction_metrics`` as totals and its
        activations and dense multiply-adds to ``metrics`` when given."""
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

    def rebuild_upper(self, out_csr: Optional[FactorCSR] = None) -> None:
        """Assemble the upper layer from the current graph and subgraph tables.

        Every row — of the graph's vertices and the proxies — comes from
        :meth:`_upper_rows` (``out_csr``: the graph's compiled out-CSR,
        compiled here when not given) and is spliced into an empty CSR: a
        fresh compile, O(V + E).  The build runs it; the online engine
        maintains the skeleton with :meth:`patch_upper`.
        """
        graph = self.graph
        if out_csr is None:
            out_csr = FactorCSR.from_graph(self.spec, graph)
        proxies = np.fromiter(self._proxy_owner, np.int64, count=len(self._proxy_owner))
        ids = np.union1d(out_csr.ids_array(), proxies)
        position, targets, factors = self._upper_rows(ids, out_csr)
        counts = np.bincount(position, minlength=ids.size)
        self.upper_adjacency.csr = _compile_rows(ids, (ids, counts, targets, factors))
        self.upper_vertices = self.outliers()
        for subgraph in self.subgraphs:
            self.upper_vertices |= subgraph.boundary
        self._upper_version = self.upper_adjacency.csr.num_edges
        self.upper_rebuilds += 1

    # ------------------------------------------------------------------
    # incremental (diff-based) upper-layer maintenance
    # ------------------------------------------------------------------
    def subgraph_upper_sources(self, indices: Iterable[int]) -> Tuple[Set[int], Set[int]]:
        """``(sources, boundaries)``: every source whose upper row the given
        subgraphs contribute to, and the union of their boundaries.

        Snapshot this for the affected subgraphs *before* rebuilding them and
        again after: the union bounds the rows a rebuild can have changed —
        shortcut links originate at boundary vertices (proxies included),
        host/proxy links at their recorded sources, and a rewired original
        edge flips its source's cross-edge row when the rewiring changes.
        """
        sources: Set[int] = set()
        boundaries: Set[int] = set()
        for index in indices:
            subgraph = self.subgraphs[index]
            boundaries |= subgraph.boundary
            sources.update(source for source, _t, _f in subgraph.upper_links)
            sources.update(source for source, _t in subgraph.rewired_edges)
        return sources | boundaries, boundaries

    def patch_upper(
        self,
        dirty_sources: Set[int],
        removed_upper: Set[int],
        added_upper: Set[int],
        out_csr: FactorCSR,
    ) -> ChangedLinks:
        """Maintain the upper layer in place from a delta's row footprint.

        ``dirty_sources`` must cover every vertex whose upper row can differ
        from the previous delta's: the delta's touched sources (their
        out-adjacency — and with it every cross-edge factor — changed) plus
        :meth:`subgraph_upper_sources` of the rebuilt subgraphs, before and
        after the rebuild.  Rows outside it cannot change: their cross edges,
        factors and rewiring status are functions of unchanged
        out-adjacencies and untouched subgraph tables.  Vertices that left
        the graph belong in it too (their rows vanish) and in
        ``removed_upper``: a removal can flip the same-subgraph test only of
        edges incident to the removed vertex, whose sources the delta
        touched.  ``removed_upper``/``added_upper`` carry the membership diff
        of the upper vertex set (old vs new boundaries of the rebuilt
        subgraphs, the delta's removed vertices, and its brand-new vertices,
        which are always outliers).

        The dirty rows are re-derived as flat arrays (:meth:`_upper_rows`,
        cross edges off ``out_csr``, the current graph's compiled out-CSR),
        and those that differ are spliced into the resident CSR
        (:func:`repro.graph.csr_cache.splice_rows`), vertices and proxies
        that joined or left entering or leaving its id space: it stays
        bit-identical to a fresh reassembly's compile.  For a selective spec,
        returns the changed links (:func:`_link_diff` of the pre-patch and
        the new rows of the sources that differ); for an accumulative spec
        none, as nothing reads them.
        """
        old = self.upper_csr()
        old_ids = old.ids_array()
        sources = np.array(sorted(dirty_sources), dtype=np.int64)
        new = self._upper_rows(sources, out_csr)
        counts = np.bincount(new[0], minlength=sources.size)
        rows, found = locate(old_ids, sources)
        old_counts = np.zeros(sources.size, dtype=np.int64)
        old_counts[found] = old.out_degree[rows[found]]
        slots = expand_edges(old.offsets[rows], old_counts, int(old_counts.sum()))
        old_rows = np.repeat(np.arange(sources.size), old_counts)
        before = (old_rows, old_ids[old.targets[slots]], old.factors[slots])
        # the rows that differ: in length, or in a link of the same slot
        same = old_counts == counts
        old_same, new_same = same[before[0]], same[new[0]]
        mismatch = (before[1][old_same] != new[1][new_same]) | (before[2][old_same] != new[2][new_same])
        differ = ~same
        differ[new[0][new_same][mismatch]] = True
        kept = differ[new[0]]
        changed = bool(differ.any())

        changed_links = NO_CHANGED_LINKS
        if self.spec.is_selective() and changed:
            old_kept = differ[old_rows]
            changed_links = _link_diff(
                sources, tuple(c[old_kept] for c in before), tuple(c[kept] for c in new)
            )
        self.upper_patches += changed
        self.upper_reuses += not changed
        self._upper_version += changed
        self.upper_vertices.difference_update(removed_upper)
        self.upper_vertices.update(added_upper)
        # The compiled id space is the graph's vertices plus the proxies: a
        # vertex that merely moved between the layers stays in it.
        joining = [v for v in added_upper if v not in old.index]
        leaving = [
            v
            for v in removed_upper
            if v in old.index and not self.graph.has_vertex(v) and v not in self._proxy_owner
        ]
        if changed or joining or leaving:
            new_ids = moved_id_space(old, joining, leaving)
            spliced = splice_rows(old, sources[differ], counts[differ], new[1][kept], new[2][kept], new_ids)
            if spliced is None:  # a link left the id space: the footprint missed a row
                self.rebuild_upper(out_csr)
            else:
                self.upper_adjacency.csr = spliced
        return changed_links

    def _upper_rows(self, sources: np.ndarray, out_csr: FactorCSR) -> FlatRows:
        """The upper rows of ``sources`` (distinct ids) as flat arrays, each
        row in assembly order, with no per-link Python.

        Cross edges come off ``out_csr`` under a same-subgraph mask and the
        rewiring set; shortcut links off the owning subgraphs' tables
        (:meth:`repro.layph.shortcuts.ShortcutTable.boundary_links`): a
        vertex has a row only in its owner's (members via ``subgraph_of``,
        proxies via the owner index), so they are searched as one; host/proxy
        links come from the per-source index.  One stable sort by (row,
        segment) replays the assembly order: cross edges, then per subgraph
        ascending its shortcuts before its host/proxy links.
        """
        graph_ids = out_csr.ids_array()
        owners = self._owners_by_row(graph_ids)
        rows, found = locate(graph_ids, sources)
        own = np.full(sources.size, -1, dtype=np.int64)
        own[found] = owners[rows[found]]
        outside = np.flatnonzero(own < 0)
        if outside.size and self._proxy_owner:
            own[outside] = [self._proxy_owner.get(v, -1) for v in sources[outside].tolist()]

        degree = np.zeros(sources.size, dtype=np.int64)
        degree[found] = out_csr.out_degree[rows[found]]
        slots = expand_edges(out_csr.offsets[rows], degree, int(degree.sum()))
        position = np.repeat(np.arange(sources.size), degree)
        targets = graph_ids[out_csr.targets[slots]]
        cross = (own[position] < 0) | (own[position] != owners[out_csr.targets[slots]])
        if self._rewired_counts and cross.any():
            pairs = zip(sources[position[cross]].tolist(), targets[cross].tolist())
            cross[cross] = [pair not in self._rewired_counts for pair in pairs]
        segment = np.zeros(int(cross.sum()), dtype=np.int64)
        parts = [(position[cross], segment, targets[cross], out_csr.factors[slots[cross]])]

        indices = np.unique(own[own >= 0])
        if indices.size:
            tables = [self.subgraphs[index].shortcuts.boundary_links() for index in indices.tolist()]
            table_sources, counts, link_targets, weights = (np.concatenate(column) for column in zip(*tables))
            segment = np.repeat(2 * indices + 1, [table[0].size for table in tables])
            order = np.argsort(table_sources)
            rows, found = locate(table_sources[order], sources)
            rows = order[rows[found]]
            picked = expand_edges((np.cumsum(counts) - counts)[rows], counts[rows], int(counts[rows].sum()))
            at, segment = (np.repeat(column, counts[rows]) for column in (np.flatnonzero(found), segment[rows]))
            parts.append((at, segment, link_targets[picked], weights[picked]))

        by_source = self._upper_links_by_source
        links = [
            (at, 2 * index + 2, target, factor)
            for at, vertex in enumerate(sources.tolist())
            if vertex in by_source
            for index, bucket in by_source[vertex].items()
            for target, factor in bucket
        ]
        if links:
            parts.append(tuple(np.array(column) for column in zip(*links)))
        position, segment, targets, factors = (np.concatenate(column) for column in zip(*parts))
        order = np.lexsort((segment, position))
        return position[order], targets[order], factors[order]

    def _owners_by_row(self, ids: np.ndarray) -> np.ndarray:
        """The subgraph index of each of the ascending ``ids`` (-1: in
        none); every member is one of them."""
        if self._owner_rows is None or self._owner_rows[0] is not ids:
            members = np.fromiter(self.subgraph_of, np.int64, count=len(self.subgraph_of))
            owners = np.full(ids.size, -1, dtype=np.int64)
            owners[np.searchsorted(ids, members)] = np.fromiter(
                self.subgraph_of.values(), np.int64, count=members.size
            )
            self._owner_rows = (ids, owners)
        return self._owner_rows[1]

    def upper_csr(self) -> FactorCSR:
        """The upper layer: its compiled out-CSR over the graph's vertices
        and the proxies, kept current by :meth:`patch_upper`'s splice."""
        return self.upper_adjacency.csr

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
                self._owner_rows = None
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

        Orders are preserved verbatim wherever a consumer folds floats over
        them: each subgraph's ``upper_links``, the local adjacency's rows and
        its mutation counter (the compiled-CSR memo's key), each upper row's
        links, and the ``_upper_links_by_source`` buckets.  The upper layer
        is written off its CSR as ``rows`` (sources ascending) and its
        mutation counter; the order of rows, and of a shortcut row's
        ``[target, weight]`` entries (written ascending), is no part of the
        contract: stores written while either was a dict kept insertion
        order, and restore the same.
        Pure sets (members, boundary splits, rewired edges, upper vertices)
        are stored sorted — their consumers are set operations, keyed
        lookups, or sorted iterations.
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
                    "local_adjacency": _adjacency_state(
                        subgraph.local_adjacency, subgraph.local_adjacency.version
                    ),
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
            "upper_adjacency": _adjacency_state(self.upper_adjacency, self._upper_version),
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
        upper = _adjacency_from_state(payload["upper_adjacency"])
        rows = flatten_rows(upper._adjacency)
        universe = np.fromiter(set(graph.vertices()) | layered._proxy_owner.keys(), np.int64)
        ids = np.union1d(universe, np.append(rows[0], rows[2]))
        layered.upper_adjacency.csr = _compile_rows(ids, rows)
        layered._upper_version = upper.version
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
        return len(self.upper_vertices | self.proxy_vertices()), len(self.upper_adjacency)

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

