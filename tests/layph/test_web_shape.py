"""Layph on a graph that actually forms dense subgraphs.

Most Layph property suites run on graphs too small to form more than a
handful of dense subgraphs, so a wrong lower-layer change can pass them.
This module replays the first deltas of the benchmark's three web
workloads (≈ 9k vertices, ~300 planted communities, generated by
``perf.workloads``) on the array kernels and checks Layph against a
from-scratch batch run after every delta, with the benchmark's own
tolerances, while the shortcut calls are observed — the lockstep kernel's
and, for sum/mul, the closed form's: one call per subgraph at build time,
at most one call per delta afterwards for the refresh, holding the solves
(and min/+ revisions) of several subgraphs, and at most one more kernel
call holding every subgraph's upload.  The batched upload is checked against the
per-subgraph reference loop, and the tables' size against the dict tables
they replaced.  The upper-layer iteration is observed too: its slab reads
the states of the skeleton and of the pending vertices only, and its
write-back journal triggers the same assignment as a full before/after scan
of the skeleton.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from repro.engine import propagation  # noqa: E402
from repro.engine.algorithms import make_algorithm  # noqa: E402
from repro.engine.metrics import ExecutionMetrics  # noqa: E402
from repro.engine.propagation import SilencedAdjacency  # noqa: E402
from repro.graph.csr import FactorCSR  # noqa: E402
from repro.layph import vectorized  # noqa: E402
from repro.layph import engine as layph_engine  # noqa: E402
from repro.layph import shortcuts as shortcuts_module  # noqa: E402
from repro.layph.engine import LayphEngine  # noqa: E402
from repro.layph.layered_graph import LayeredGraph  # noqa: E402

from oracles import loops  # noqa: E402  (tests/)

from perf.replay import batch_reference, matches_batch  # noqa: E402
from perf.workloads import BATCH_SIZE, WORKLOADS, generate  # noqa: E402

DELTAS = 5


def _call_shape(kwargs):
    """(subgraphs, solves, revisions) of one kernel call."""
    job_shift = kwargs["job_shift"]
    starts = np.searchsorted(kwargs["cell_job"], np.arange(job_shift.size))
    subgraphs = np.unique(starts - job_shift).size  # distinct block offsets
    solves = int(kwargs["job_solves"].sum())
    return subgraphs, solves, int(job_shift.size) - solves


def _closed_form_shape(blocks):
    """(subgraphs, solves, revisions) of one closed-form call."""
    return len(blocks), sum(len(block.jobs) for block in blocks), 0


@pytest.mark.parametrize(
    "workload", ["web-bfs-bridge", "web-pagerank-scattered", "web-sssp-local"]
)
def test_layph_matches_batch_on_the_web_shape(monkeypatch, workload):
    calls, uploads = [], []
    kernel = shortcuts_module.run_shortcut_solves
    uploading = []

    def observed(**arrays_and_scalars):
        (uploads if uploading else calls).append(_call_shape(arrays_and_scalars))
        return kernel(**arrays_and_scalars)

    monkeypatch.setattr(shortcuts_module, "run_shortcut_solves", observed)
    closed_form = shortcuts_module.closed_form_solves

    def closed_form_observed(spec, blocks, *args):
        calls.append(_closed_form_shape(blocks))
        return closed_form(spec, blocks, *args)

    monkeypatch.setattr(shortcuts_module, "closed_form_solves", closed_form_observed)
    upload = layph_engine.local_uploads

    def upload_observed(*args):
        uploading.append(True)
        try:
            return upload(*args)
        finally:
            uploading.pop()

    monkeypatch.setattr(layph_engine, "local_uploads", upload_observed)
    silenced_slabs = []
    build_slab = propagation.build_propagation_slab

    def slab_observed(spec, adjacency, *args, **kwargs):
        if isinstance(adjacency, SilencedAdjacency):
            silenced_slabs.append(adjacency)
        return build_slab(spec, adjacency, *args, **kwargs)

    monkeypatch.setattr(propagation, "build_propagation_slab", slab_observed)
    inputs = generate(WORKLOADS[workload], seed=1, num_events=BATCH_SIZE)
    spec = inputs.workload.spec()
    engine = LayphEngine(spec)
    engine.initialize(inputs.graph)
    assert len(engine.layered.subgraphs) >= 100, "the web shape formed few dense subgraphs"
    built = calls[:]
    assert max(solves for _subgraphs, solves, _revisions in built) >= 2, (
        "the offline build never batched sources"
    )
    assert all(subgraphs == 1 for subgraphs, _s, _r in built), (
        "the offline build must run one call per subgraph"
    )

    online, uploaded = [], []
    for step, delta in enumerate(inputs.deltas[:DELTAS]):
        del calls[:], uploads[:]
        result = engine.apply_delta(delta)
        assert len(calls) <= 1, f"delta {step} ran {len(calls)} shortcut kernel calls"
        assert len(uploads) <= 1, f"delta {step} ran {len(uploads)} upload kernel calls"
        online.extend(calls)
        uploaded.extend(uploads)
        assert matches_batch(spec, result.states, batch_reference(spec, engine.graph)), (
            f"{workload}: Layph diverged from run_batch at delta {step}"
        )
    assert not silenced_slabs, "shortcut work must not compile SilencedAdjacency slabs"
    # web-pagerank-scattered solves the rows of many subgraphs in one
    # closed-form call (a sum/mul row is never revised); web-sssp-local's
    # deltas stay in one community but produce revisions; web-bfs-bridge
    # refreshes several subgraphs
    wanted = {
        "web-pagerank-scattered": lambda subgraphs, revisions: subgraphs >= 2 and revisions == 0,
        "web-sssp-local": lambda subgraphs, revisions: revisions >= 1,
        "web-bfs-bridge": lambda subgraphs, revisions: subgraphs >= 2,
    }[workload]
    assert any(
        wanted(subgraphs, revisions) for subgraphs, _solves, revisions in online
    ), f"no delta's kernel call had the workload's shape: {online}"
    if spec.is_selective():
        assert not uploaded, "a selective spec uploads through the upper layer"
    else:
        # every reached subgraph uploads in the delta's one call
        assert max(subgraphs for subgraphs, _s, _r in uploaded) >= 2


def _bits(states):
    return {vertex: float(value).hex() for vertex, value in states.items()}


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("algorithm", ["pagerank", "php"])
def test_batched_upload_matches_the_per_subgraph_loop(monkeypatch, algorithm, seed):
    """Each delta's one upload call against ``loops.local_upload`` run
    subgraph by subgraph on a copy of the same states: revised states,
    arrived messages, activations and per-round lists, bit for bit."""
    inputs = generate(WORKLOADS["web-pagerank-scattered"], seed=seed, num_events=BATCH_SIZE)
    spec = inputs.workload.spec() if algorithm == "pagerank" else make_algorithm("php", source=1)
    checked = []
    upload = layph_engine.local_uploads

    def compared(spec, uploads, work, metrics):
        reference_work, reference = dict(work), ExecutionMetrics()
        want = [
            loops.local_upload(
                spec, subgraph.local_adjacency, subgraph.boundary, subgraph.index,
                reference_work, pending, reference,
            )
            for subgraph, pending in uploads
        ]
        got_metrics = ExecutionMetrics()
        got = upload(spec, uploads, work, got_metrics)
        assert [_bits(arrived) for arrived in got] == [_bits(arrived) for arrived in want]
        assert _bits(work) == _bits(reference_work)
        assert got_metrics.activations_per_round == reference.activations_per_round
        assert got_metrics.active_vertices_per_round == reference.active_vertices_per_round
        assert (got_metrics.edge_activations, got_metrics.vertex_updates) == (
            reference.edge_activations,
            0,
        )
        checked.append(len(uploads))
        metrics.merge(got_metrics)
        return got

    monkeypatch.setattr(layph_engine, "local_uploads", compared)
    engine = LayphEngine(spec)
    engine.initialize(inputs.graph)
    for delta in inputs.deltas[:DELTAS]:
        engine.apply_delta(delta)
    assert len(checked) == DELTAS
    # PageRank reaches several subgraphs per delta; PHP mass stays near its source
    assert max(checked) >= (2 if algorithm == "pagerank" else 1)


def test_shortcut_tables_keep_the_dict_tables_size():
    """The block tables hold exactly the entries the dict tables held (the
    counts the dict tables had on these graphs, seed 1) — for PageRank the
    closed-form solves' count: the exact rows keep the 36 weights above the
    tolerance that the truncated iteration stopped short of (67,534)."""
    counts = {}
    for workload in ("web-sssp-local", "web-pagerank-scattered"):
        inputs = generate(WORKLOADS[workload], seed=1, num_events=BATCH_SIZE)
        layered = LayeredGraph.build(inputs.workload.spec(), inputs.graph)
        counts[workload] = layered.shortcut_count()
    assert counts == {"web-sssp-local": 68324, "web-pagerank-scattered": 67570}


def test_scattered_seed_21_stays_with_batch():
    """Two dense subgraphs of this stream replicate each other's members:
    an edge between them was once rewired through a proxy on both sides, and
    PageRank carried its mass twice (5e-4 from the batch result after delta
    22, 1.1e-2 after delta 24).  Each edge is now rewired by one subgraph."""
    inputs = generate(WORKLOADS["web-pagerank-scattered"], seed=21, num_events=BATCH_SIZE)
    spec = inputs.workload.spec()
    engine = LayphEngine(spec)
    engine.initialize(inputs.graph)
    assert engine.layered.proxy_vertices(), "the stream no longer forms a proxy"
    for step, delta in enumerate(inputs.deltas[:25]):
        result = engine.apply_delta(delta)
        assert all(count == 1 for count in engine.layered._rewired_counts.values())
        if step >= 20:
            assert matches_batch(spec, result.states, batch_reference(spec, engine.graph)), (
                f"Layph diverged from run_batch at delta {step}"
            )


def test_cross_edge_deltas_keep_the_lower_layer_compiled(monkeypatch):
    """web-bfs-bridge's deltas only add edges between communities: no local
    CSR is compiled again (the refresh splices the resident one), and phase
    4 rebuilds a subgraph's segment of the resident shortcut stack only
    when its tables changed since the segment was built."""
    compiled = []
    compile_adjacency = FactorCSR.from_factor_adjacency.__func__

    def observed_compile(cls, adjacency, *args, **kwargs):
        compiled.append(adjacency)
        return compile_adjacency(cls, adjacency, *args, **kwargs)

    monkeypatch.setattr(FactorCSR, "from_factor_adjacency", classmethod(observed_compile))
    built = []
    segment = vectorized._segment

    def observed_segment(spec, subgraph):
        built.append(subgraph.index)
        return segment(spec, subgraph)

    monkeypatch.setattr(vectorized, "_segment", observed_segment)

    def snapshot(subgraph):
        return (
            subgraph.shortcuts.vectors(),
            set(subgraph.internal),
            subgraph.boundary,
        )

    inputs = generate(WORKLOADS["web-bfs-bridge"], seed=1, num_events=BATCH_SIZE)
    engine = LayphEngine(inputs.workload.spec())
    engine.initialize(inputs.graph)
    subgraphs = engine.layered.subgraphs
    # each built segment's subgraph as it was when the segment was built
    last = {}
    kept = 0
    for step, delta in enumerate(inputs.deltas[:DELTAS]):
        assert not delta.vertex_updates
        del compiled[:], built[:]
        engine.apply_delta(delta)
        local = {id(subgraph.local_adjacency) for subgraph in subgraphs}
        assert not [a for a in compiled if id(a) in local], f"delta {step} compiled a local CSR"
        unchanged = [index for index in built if last.get(index) == snapshot(subgraphs[index])]
        assert not unchanged, f"delta {step} rebuilt unchanged shortcut segments"
        kept += len(set(last) - set(built))
        last.update((index, snapshot(subgraphs[index])) for index in built)
    assert kept, "phase 4 never kept a shortcut segment"


class _ReadLog(dict):
    """A copy of a states dict that logs every vertex looked up in it."""

    def __init__(self, states):
        super().__init__(states)
        self.read = set()

    def __contains__(self, vertex):
        self.read.add(vertex)
        return super().__contains__(vertex)

    def __getitem__(self, vertex):
        self.read.add(vertex)
        return super().__getitem__(vertex)


@pytest.mark.parametrize("workload", ["web-sssp-local", "web-pagerank-scattered"])
def test_upper_iteration_is_sized_by_the_skeleton(monkeypatch, workload):
    inputs = generate(WORKLOADS[workload], seed=1, num_events=BATCH_SIZE)
    spec = inputs.workload.spec()
    engine = LayphEngine(spec)
    engine.initialize(inputs.graph)
    layered = engine.layered
    num_vertices = inputs.graph.num_vertices()
    baseline = spec.aggregate_identity() if spec.is_selective() else 0.0

    slabs = []
    build_slab = propagation.build_propagation_slab

    def slab_observed(spec, adjacency, states, pending, owned=None):
        if adjacency is not layered.upper_adjacency:
            return build_slab(spec, adjacency, states, pending, owned)
        log = _ReadLog(states)
        built = build_slab(spec, adjacency, log, pending, owned)
        slabs.append((log.read, layered.upper_vertices | set(pending)))
        return built

    monkeypatch.setattr(propagation, "build_propagation_slab", slab_observed)

    scans = []
    iterate = layph_engine.propagate

    def scanned(spec, adjacency, work, pending, metrics, owned=None):
        """The trigger as a full before/after scan of the skeleton."""
        upper = layered.upper_vertices
        before = {vertex: work.get(vertex, baseline) for vertex in upper}
        journal = iterate(spec, adjacency, work, pending, metrics, owned=owned)
        changed, deltas = set(), {}
        for vertex in upper:
            after = work.get(vertex, baseline)
            if after == before[vertex]:
                continue
            difference = after - before[vertex]
            if spec.is_selective():
                changed.add(vertex)
            elif spec.is_significant(difference):
                changed.add(vertex)
                deltas[vertex] = difference
        scans.append((changed, deltas))
        return journal

    monkeypatch.setattr(layph_engine, "propagate", scanned)
    triggers = []
    assign = engine._assign

    def assign_observed(affected, changed_upper, deltas, *rest):
        triggers.append((set(changed_upper), dict(deltas)))
        return assign(affected, changed_upper, deltas, *rest)

    monkeypatch.setattr(engine, "_assign", assign_observed)

    changed_any = False
    for step, delta in enumerate(inputs.deltas[:DELTAS]):
        del slabs[:], scans[:], triggers[:]
        engine.apply_delta(delta)
        changed_any = changed_any or bool(triggers[0][0])
        assert len(triggers) == 1
        if not scans:
            # nothing pending: no upper iteration, nothing triggered
            assert triggers == [(set(), {})]
            continue
        assert len(slabs) == 1, f"delta {step} built {len(slabs)} upper slabs"
        read, skeleton_and_pending = slabs[0]
        assert read == skeleton_and_pending, f"delta {step} read states off the skeleton"
        assert len(read) < 0.5 * num_vertices
        assert triggers == scans, f"delta {step}: the journal's trigger missed the scan's"
    assert changed_any, "no delta changed the skeleton"


@pytest.mark.parametrize("algorithm", ["bfs", "sssp"])
def test_bridge_deltas_keep_rows_across_boundary_gains(monkeypatch, algorithm):
    """web-bfs-bridge's deltas turn internal vertices into boundary ones.
    BFS's path sums are exact, so such a gain invalidates no shortcut row:
    a refresh solves the rows of the vertices that joined the boundary and
    of the old rows that reach a changed local row or a vertex that left
    it, and nothing else, while the states stay bitwise equal to a batch
    run.  SSSP re-solves every row a boundary change reaches (a kept row
    would make its states depend on batching by an ulp) and stays within
    the benchmark's tolerance."""
    refreshes, solves = [], []
    refresh = LayeredGraph._refresh_subgraph
    stale = LayeredGraph._stale_shortcut_sources

    def counted_refresh(self, subgraph, touched, batch, metrics):
        old_boundary, old_table = subgraph.boundary, subgraph.shortcuts
        reached = []

        def recording_stale(changed_sources, old_shortcuts, before, after, *rest):
            reached.append(set(changed_sources) | (before - after))
            return stale(changed_sources, old_shortcuts, before, after, *rest)

        queued = len(solves)
        with monkeypatch.context() as patch:
            patch.setattr(LayeredGraph, "_stale_shortcut_sources", staticmethod(recording_stale))
            refresh(self, subgraph, touched, batch, metrics)
        queued = len(solves) - queued
        joined = subgraph.boundary - old_boundary
        changed = reached[0] if reached and old_table else set()
        index = old_table.index
        columns = [index[vertex] for vertex in changed if vertex in index]
        reaching = {
            source
            for source, row in old_table.rows.items()
            if source in changed or (old_table.block[row, columns] != old_table.identity).any()
        }
        refreshes.append((queued, len(joined) + len(reaching & subgraph.boundary)))

    monkeypatch.setattr(LayeredGraph, "_refresh_subgraph", counted_refresh)
    solve = shortcuts_module.ShortcutBatch.solve

    def counted_solve(self, block, source):
        solves.append(source)
        return solve(self, block, source)

    monkeypatch.setattr(shortcuts_module.ShortcutBatch, "solve", counted_solve)
    inputs = generate(WORKLOADS["web-bfs-bridge"], seed=7, num_events=BATCH_SIZE)
    spec = make_algorithm(algorithm, source=0)
    engine = LayphEngine(spec)
    engine.initialize(inputs.graph)
    gained = 0
    for step, delta in enumerate(inputs.deltas[:10]):
        del refreshes[:]
        result = engine.apply_delta(delta)
        reference = batch_reference(spec, engine.graph)
        if algorithm == "bfs":
            assert _bits(result.states) == _bits(reference), f"delta {step}"
            assert all(queued <= bound for queued, bound in refreshes), f"delta {step} solved kept rows"
            gained += any(queued for queued, _bound in refreshes)
        else:
            assert matches_batch(spec, result.states, reference), f"delta {step}"
    assert algorithm == "sssp" or gained, "no delta moved a vertex onto a boundary"
