"""The batched shortcut solves against their references.

Every shortcut solve and every incremental revision of a
:class:`repro.layph.shortcuts.ShortcutBatch` — all of one delta's refreshed
subgraphs — runs in one call and lands in the subgraphs'
:class:`repro.layph.shortcuts.ShortcutTable` blocks.  A min/+ row comes
from a single :func:`repro.parallel.slabs.run_shortcut_solves` call over a
ragged, block-diagonal layout and must equal the reference loops'
(:func:`oracles.loops.propagate_shortcuts` per solve,
:func:`oracles.loops.revise_shortcuts` per revision) as a map — the same
weights, bit for bit, and the same recorded work; a row has no key order.
A sum/mul row comes from :func:`repro.layph.shortcuts.closed_form_solves`
and must equal a per-source dense-inverse reference to rounding, and the
iteration to within its truncation.  The batched phase-4 assignment pass
is checked against the per-subgraph reference loops the same way.
"""

from __future__ import annotations

import math
import os
import random
import sys
import types

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from repro.engine import propagation  # noqa: E402
from repro.engine.algorithms import PHP, SSSP, PageRank, make_algorithm  # noqa: E402
from repro.engine.metrics import ExecutionMetrics  # noqa: E402
from repro.engine.propagation import FactorAdjacency, NonConvergenceError  # noqa: E402
from repro.graph.csr_cache import (  # noqa: E402
    master_factor_csr,
    resident_master_csr,
    splice_master_csr,
)
from repro.graph.generators import community_graph  # noqa: E402
from repro.layph import shortcuts as shortcuts_module  # noqa: E402
from repro.layph.engine import LayphEngine  # noqa: E402
from repro.layph.layered_graph import LayeredGraph, LayphConfig  # noqa: E402
from repro.layph.shortcuts import (  # noqa: E402
    ShortcutBatch,
    ShortcutTable,
    compute_shortcut_vectors,
    compute_shortcuts_from,
    local_vertex_arrays,
    shortcut_revision,
)

from oracles import ROUTES, loops, oracle_class, oracle_engine, oracle_loops  # noqa: E402  (tests/)
from oracles.layph import (  # noqa: E402  (tests/)
    changed_local_sources,
    compute_all_shortcuts,
    update_shortcut_vector,
)
from perf.workloads import BATCH_SIZE, WORKLOADS, generate  # noqa: E402

ALGORITHMS = ["sssp", "bfs", "pagerank", "php"]


def _totals(metrics: ExecutionMetrics):
    return (
        metrics.edge_activations, metrics.vertex_updates, metrics.iterations, metrics.dense_multiply_adds
    )


def _bits(vector):
    """Exact bits of one vector by key (NaN-safe)."""
    return {vertex: float(value).hex() for vertex, value in vector.items()}


def inverse_reference(spec, local, source, boundary):
    """One sum/mul shortcut vector as ``A′_b · (I − P·A′)⁻¹`` with a dense
    ``np.linalg.inv``: ``A′`` sums duplicate links and drops the columns of
    absorbing vertices, ``P`` keeps the rows of the vertices that re-emit
    (all but the boundary and the source), and weights within the
    tolerance of zero are no shortcut."""
    links = [(vertex, target, factor) for vertex in local.vertices_with_out_edges()
             for target, factor in local(vertex)]
    ids = sorted({vertex for link in links for vertex in link[:2]} | boundary | {source})
    index = {vertex: position for position, vertex in enumerate(ids)}
    matrix = np.zeros((len(ids), len(ids)))
    for vertex, target, factor in links:
        matrix[index[vertex], index[target]] += factor
    matrix[:, [index[vertex] for vertex in ids if spec.absorbs(vertex)]] = 0.0
    internal = matrix.copy()
    internal[[index[vertex] for vertex in boundary | {source}]] = 0.0
    row = matrix[index[source]] @ np.linalg.inv(np.eye(len(ids)) - internal)
    return {vertex: float(row[index[vertex]]) for vertex in ids if abs(row[index[vertex]]) > spec.tolerance()}


def assert_close_to_inverse(spec, local, sources, boundary, batched):
    """Each closed-form row == its dense-inverse reference, same keys and
    weights within 1e-12 of the row's largest weight."""
    for source, got in zip(sources, batched):
        want = inverse_reference(spec, local, source, boundary)
        assert set(got) == set(want), f"entries differ for source {source}"
        scale = max((abs(value) for value in want.values()), default=0.0)
        for vertex, value in want.items():
            assert abs(got[vertex] - value) <= 1e-12 * scale, (source, vertex)


def assert_batch_matches_reference(spec, local, sources, boundary):
    """One batched call == per-source references: for min/+ the reference
    loops (weights bit for bit, metrics), for sum/mul the dense inverse."""
    batched_metrics = ExecutionMetrics()
    batched = compute_shortcut_vectors(
        spec, local, sources, boundary, batched_metrics
    )
    assert len(batched) == len(sources)
    if not spec.is_selective():
        assert_close_to_inverse(spec, local, sources, boundary, batched)
        return batched
    python_metrics = ExecutionMetrics()
    python = [
        loops.propagate_shortcuts(spec, local, source, boundary, python_metrics)
        for source in sources
    ]
    for source, got, want in zip(sources, batched, python):
        assert _bits(got) == _bits(want), f"values differ for source {source}"
    assert _totals(batched_metrics) == _totals(python_metrics)
    return batched


# ----------------------------------------------------------------------
# the property: community-graph subgraphs, all four algorithms
# ----------------------------------------------------------------------
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_batched_boundary_solve_equals_per_source_reference(algorithm, seed):
    graph = community_graph(
        num_communities=3,
        community_size_range=(10, 16),
        intra_edge_probability=0.35,
        inter_edges_per_community=3,
        weighted=True,
        seed=seed,
    )
    spec = make_algorithm(algorithm, source=0)
    with oracle_loops():
        layered = LayeredGraph.build(spec, graph, LayphConfig(seed=seed))
    for subgraph in layered.subgraphs:
        sources = sorted(subgraph.boundary)
        batched = assert_batch_matches_reference(
            spec, subgraph.local_adjacency, sources, subgraph.boundary
        )
        # the oracle build holds the reference tables
        for source, vector in zip(sources, batched):
            assert vector == subgraph.shortcuts.vector(source)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_numpy_build_matches_python_build(algorithm):
    """The offline build runs one batch per subgraph: same tables (values),
    same construction totals as the per-source Python build."""
    graph = community_graph(
        num_communities=4,
        community_size_range=(14, 20),
        intra_edge_probability=0.3,
        inter_edges_per_community=3,
        weighted=True,
        seed=5,
    )
    spec = make_algorithm(algorithm, source=0)
    with oracle_loops():
        python = LayeredGraph.build(spec, graph, LayphConfig(seed=2))
    numpy = LayeredGraph.build(spec, graph, LayphConfig(seed=2))
    assert numpy.subgraphs, "the graph formed no dense subgraph"
    for ours, reference in zip(numpy.subgraphs, python.subgraphs):
        assert ours.shortcuts.sources == reference.shortcuts.sources
        assert _table_bits(ours.shortcuts) == _table_bits(reference.shortcuts)
    assert _totals(numpy.construction_metrics) == _totals(python.construction_metrics)


def _table_bits(table):
    """A shortcut table as ``{source: {target: bits}}``."""
    return {source: _bits(row) for source, row in table.vectors().items()}


def _shortcut_values(layered):
    """Every subgraph's shortcut tables as exact bits."""
    return [_table_bits(subgraph.shortcuts) for subgraph in layered.subgraphs]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_delta_sequence_tables_match_python(algorithm):
    """The per-delta rebuild runs one batch for every refreshed subgraph:
    after each delta the numpy engine holds the Python engine's states,
    per-delta metrics, shortcut tables (values, bitwise) and construction
    totals."""
    from repro.workloads.updates import random_edge_delta

    def run(engine):
        engine.initialize(
            community_graph(
                num_communities=3,
                community_size_range=(14, 20),
                intra_edge_probability=0.3,
                inter_edges_per_community=3,
                weighted=True,
                seed=47,
            )
        )
        outputs = []
        for step in range(4):
            delta = random_edge_delta(
                engine.graph, num_additions=5, num_deletions=4, seed=900 + step, protect=0
            )
            result = engine.apply_delta(delta)
            outputs.append(
                (
                    dict(result.states),
                    (
                        result.metrics.iterations,
                        result.metrics.edge_activations,
                        list(result.metrics.activations_per_round),
                    ),
                    _shortcut_values(engine.layered),
                    _totals(engine.layered.construction_metrics),
                )
            )
        return outputs

    spec = make_algorithm(algorithm, source=0)
    reference = run(oracle_engine("layph", spec))
    vectorized = run(LayphEngine(spec))
    for step, (expected, actual) in enumerate(zip(reference, vectorized)):
        assert expected[0] == actual[0], f"states diverged at delta {step}"
        assert expected[1] == actual[1], f"metrics diverged at delta {step}"
        assert expected[2] == actual[2], f"shortcut tables diverged at delta {step}"
        assert expected[3] == actual[3], f"construction totals diverged at delta {step}"


# ----------------------------------------------------------------------
# the edge cases
# ----------------------------------------------------------------------
def _cyclic_local():
    # 0 and 3 are boundary; 1 and 2 form internal cycles back to both
    return FactorAdjacency(
        {
            0: [(1, 0.5), (2, 0.25)],
            1: [(2, 0.5), (0, 0.25)],
            2: [(1, 0.5), (3, 0.25), (0, 0.125)],
            3: [(2, 0.5)],
        }
    )


@pytest.mark.parametrize("spec", [PageRank(damping=0.5), PHP(source=99)])
def test_internal_cycles_keep_the_source_surplus(spec):
    local = _cyclic_local()
    batched = assert_batch_matches_reference(spec, local, [0, 3], {0, 3})
    # mass returns to each source through the internal cycles: the self
    # entry carries only that surplus, never the injected unit
    assert 0 < batched[0][0] < 1.0
    assert 0 < batched[1][3] < 1.0


def test_absorbing_rooted_source_inside_the_subgraph():
    """PHP absorbs its source: an internal source drops every message."""
    spec = PHP(source=2)
    batched = assert_batch_matches_reference(spec, _cyclic_local(), [0, 3], {0, 3})
    assert 2 not in batched[0] and 2 not in batched[1]


def test_single_internal_source():
    """The selective engine folds internal-only paths from an internal
    source (it is silenced after its one emission like a boundary vertex)."""
    spec = SSSP(source=1)
    local = FactorAdjacency(
        {1: [(2, 1.0), (0, 5.0)], 2: [(1, 1.0), (3, 1.0)], 0: [(2, 1.0)]}
    )
    batched = assert_batch_matches_reference(spec, local, [1], {0, 3})
    assert batched[0] == {2: 1.0, 0: 5.0, 3: 2.0}


def test_lossless_internal_cycle_raises_instead_of_looping():
    """Messages circling 1 -> 2 -> 1 at factor 1.0 never decay: the closed
    form finds the spectral radius 1 and raises instead of solving a
    singular system, and the kernel stops at the round cap instead of
    running forever."""
    local = FactorAdjacency({0: [(1, 1.0)], 1: [(2, 1.0)], 2: [(1, 1.0)]})
    with pytest.raises(NonConvergenceError, match="did not converge .* spectral radius 1"):
        compute_shortcuts_from(PageRank(), local, 0, {0})
    with pytest.raises(NonConvergenceError, match="did not converge within 10000 rounds"):
        compute_shortcuts_from(SSSP(source=0), FactorAdjacency({0: [(1, 1.0)], 1: [(2, -1.0)], 2: [(1, 0.5)]}), 0, {0})


def test_non_convergence_names_the_subgraph():
    """A stuck job fails the whole call, named by its block's subgraph."""
    spec = PageRank()
    batch = ShortcutBatch(spec)
    batch.solve(batch.block(_cyclic_local(), {0, 3}, sources=[0, 3], label=4), 0)
    stuck = FactorAdjacency({0: [(1, 1.0)], 1: [(2, 1.0)], 2: [(1, 1.0)]})
    block = batch.block(stuck, {0}, sources=[0], label=7)
    batch.solve(block, 0)
    with pytest.raises(NonConvergenceError, match="shortcut solve in subgraph 7 "):
        batch.run(ExecutionMetrics())
    assert block.table.vectors() == {0: {}}, "a failed call fills no row"


def test_vertex_arrays_follow_the_compile_across_splices():
    """A local CSR's absorb flags and initial messages are asked of the spec
    once per compile: a splice that keeps the id space reuses them, one that
    moves it gets them afresh for its new ids."""
    asked = []

    class Counted(PHP):
        def absorbs(self, vertex):
            asked.append(vertex)
            return super().absorbs(vertex)

    spec = Counted(source=2)
    local = _cyclic_local()
    csr = master_factor_csr(local, {0, 3})
    absorb, initial = local_vertex_arrays(spec, local, csr)
    assert sorted(asked) == [0, 1, 2, 3]
    assert absorb.tolist() == [False, False, True, False]
    assert initial.tolist() == [0.0, 0.0, 1.0, 0.0]
    assert local_vertex_arrays(spec, local, csr)[0] is absorb

    del asked[:]
    rows = {1: [(2, 0.25)]}
    local.replace_rows(rows)
    splice_master_csr(local, csr, rows)
    spliced = resident_master_csr(local)
    assert spliced is not csr
    assert local_vertex_arrays(spec, local, spliced)[0] is absorb
    assert asked == []

    rows = {0: [], 2: [(1, 0.5), (3, 0.25)], 3: [(2, 0.5), (5, 0.5)]}
    local.replace_rows(rows)
    splice_master_csr(local, spliced, rows, joining=[5], leaving=[0])
    moved = resident_master_csr(local)
    absorb, initial = local_vertex_arrays(spec, local, moved)
    assert moved.vertex_ids == [1, 2, 3, 5]
    assert absorb.tolist() == [False, True, False, False]
    assert initial.tolist() == [0.0, 1.0, 0.0, 0.0]


def test_multiple_sources_must_be_boundary():
    with pytest.raises(ValueError):
        compute_shortcut_vectors(
            SSSP(source=0), _cyclic_local(), [0, 1], {0, 3}
        )


@pytest.mark.parametrize(
    "spec, work",
    # the kernel runs one empty round 0; the closed form's one round
    # activates no edge, writes the row's 5 cells and charges the 5-vertex
    # solve 5³//3 + 1·5² = 66 multiply-adds
    [(SSSP(source=0), (0, 1, 1, 0)), (PageRank(damping=0.5), (0, 5, 1, 66))],
    ids=["sssp", "pagerank"],
)
def test_source_with_an_empty_row(spec, work):
    """Boundary vertex 4 has no local out-links: an empty row."""
    local = _cyclic_local()
    metrics = ExecutionMetrics()
    vectors = compute_shortcut_vectors(spec, local, [4], {0, 3, 4}, metrics)
    assert vectors == [{}]
    assert (
        metrics.edge_activations, metrics.vertex_updates, metrics.iterations, metrics.dense_multiply_adds
    ) == work
    assert_batch_matches_reference(spec, local, [0, 3, 4], {0, 3, 4})


def test_nan_weight_delta_never_reaches_the_shortcut_kernel(monkeypatch):
    """A NaN weight is refused at the engine's boundary: no shortcut is
    solved or revised for it and the engine keeps its states and graph."""
    graph = community_graph(
        num_communities=3,
        community_size_range=(14, 20),
        intra_edge_probability=0.3,
        inter_edges_per_community=3,
        weighted=True,
        seed=47,
    )
    engine = LayphEngine(SSSP(source=0))
    engine.initialize(graph)
    subgraph = engine.layered.subgraphs[0]
    source = min(subgraph.internal)
    target = next(iter(graph.out_neighbors(source)))
    before = (engine.graph, dict(engine.states), _shortcut_values(engine.layered))

    def fail(**_kwargs):
        raise AssertionError("a rejected delta must not reach the kernel")

    monkeypatch.setattr(shortcuts_module, "run_shortcut_solves", fail)
    from repro.graph.delta import GraphDelta

    poison = GraphDelta()
    poison.add_edge(source, target, math.nan)
    with pytest.raises(ValueError, match="non-finite weight"):
        engine.apply_delta(poison)
    assert engine.graph is before[0]
    assert engine.states == before[1]
    assert _shortcut_values(engine.layered) == before[2]


@pytest.mark.parametrize("spec", [SSSP(source=0), PageRank(damping=0.5)], ids=lambda s: s.name)
def test_compute_all_shortcuts_is_one_call(monkeypatch, spec):
    calls = []
    kernel, closed_form = shortcuts_module.run_shortcut_solves, shortcuts_module.closed_form_solves

    def record_kernel(**kwargs):
        calls.append(int(kwargs["job_shift"].size))
        return kernel(**kwargs)

    def record_closed_form(spec, blocks, *args):
        calls.append(sum(len(block.jobs) for block in blocks))
        return closed_form(spec, blocks, *args)

    monkeypatch.setattr(shortcuts_module, "run_shortcut_solves", record_kernel)
    monkeypatch.setattr(shortcuts_module, "closed_form_solves", record_closed_form)
    batched = compute_all_shortcuts(spec, _cyclic_local(), {0, 3})
    assert calls == [2]
    if spec.is_selective():
        python = {
            source: loops.propagate_shortcuts(spec, _cyclic_local(), source, {0, 3})
            for source in (0, 3)
        }
        assert batched == python
    else:
        assert_close_to_inverse(spec, _cyclic_local(), [0, 3], {0, 3}, [batched[0], batched[3]])


# ----------------------------------------------------------------------
# one call for several subgraphs: solves and revisions mixed
# ----------------------------------------------------------------------
def _mutated(local: FactorAdjacency, rng: random.Random) -> FactorAdjacency:
    """A copy of ``local`` with a quarter of its rows edited: a factor
    halved or doubled, a link dropped, or a link added."""
    rows = {vertex: list(row) for vertex, row in local._adjacency.items()}
    universe = sorted({vertex for vertex in rows} | {t for row in rows.values() for t, _f in row})
    for vertex in rng.sample(sorted(rows), k=max(1, len(rows) // 4)):
        row = rows[vertex]
        choice = rng.random()
        if choice < 0.4:
            position = rng.randrange(len(row))
            target, factor = row[position]
            row[position] = (target, factor * rng.choice([0.5, 2.0]))
        elif choice < 0.7 and len(row) > 1:
            del row[rng.randrange(len(row))]
        else:
            linked = {target for target, _factor in row}
            candidates = [u for u in universe if u != vertex and u not in linked]
            if candidates:
                row.append((rng.choice(candidates), row[0][1]))
    return FactorAdjacency({vertex: row for vertex, row in rows.items() if row})


def _subgraph_cases(spec, seed, count=3):
    """``count`` subgraphs of different sizes: (old local, new local,
    boundary, old tables) from the oracle build."""
    graph = community_graph(
        num_communities=5,
        community_size_range=(10, 30),
        intra_edge_probability=0.35,
        inter_edges_per_community=3,
        weighted=True,
        seed=seed,
    )
    with oracle_loops():
        layered = LayeredGraph.build(spec, graph, LayphConfig(seed=seed))
    rng = random.Random(seed)
    cases, sizes = [], set()
    for subgraph in layered.subgraphs:
        size = len(subgraph.all_vertices)
        if size in sizes:
            continue
        sizes.add(size)
        old_local = subgraph.local_adjacency
        cases.append((old_local, _mutated(old_local, rng), subgraph.boundary, subgraph.shortcuts))
        if len(cases) == count:
            break
    assert len(cases) == count, "the graph formed too few differently sized subgraphs"
    return cases


def _run_mixed_batch(spec, cases):
    """Queue every boundary source of every case as the refresh loop would
    (min/+: revision when the Python half yields messages, solve when it
    declines, the old row kept when the messages are empty; sum/mul: always
    a solve; the smallest boundary vertex counts as new and is solved) and
    run the batch once.  Returns (tables, kinds, pendings, metrics)."""
    metrics = ExecutionMetrics()
    batch = ShortcutBatch(spec)
    tables, kinds, pendings = [], [], []
    for old_local, new_local, boundary, old_table in cases:
        changed = changed_local_sources(old_local, new_local)
        block = batch.block(new_local, boundary, old_table, sorted(boundary))
        kind, pending_of = {}, {}
        for source in sorted(boundary):
            if source == min(boundary):
                kind[source] = "fresh"
                batch.solve(block, source)
                continue
            if not spec.is_selective():
                kind[source] = "solve"
                batch.solve(block, source)
                continue
            pending = shortcut_revision(
                spec, old_local, new_local, source, boundary, old_table, changed, metrics
            )
            pending_of[source] = pending
            if pending is None:
                kind[source] = "solve"
                batch.solve(block, source)
            elif pending:
                kind[source] = "revise"
                batch.revise(block, source, pending)
            else:
                kind[source] = "keep"
        tables.append(block.table)
        kinds.append(kind)
        pendings.append(pending_of)
    batch.run(metrics)
    return tables, kinds, pendings, metrics


def _assert_mixed_batch_matches_reference(spec, cases, tables, kinds, pendings, metrics):
    reference_metrics = ExecutionMetrics()
    for (old_local, new_local, boundary, old_table), table, kind, pending_of in zip(
        cases, tables, kinds, pendings
    ):
        changed = changed_local_sources(old_local, new_local)
        for source in sorted(boundary):
            old_vector = old_table.vector(source)
            want = None
            if kind[source] != "fresh":
                with oracle_loops():
                    want = update_shortcut_vector(
                        spec, old_local, new_local, source, boundary, old_vector,
                        changed, reference_metrics,
                    )
            if want is None:
                assert kind[source] in ("fresh", "solve")
                want = loops.propagate_shortcuts(
                    spec, new_local, source, boundary, reference_metrics
                )
            got = table.vector(source)
            assert _bits(got) == _bits(want), f"values differ for source {source}"
    assert _totals(metrics) == _totals(reference_metrics)


@pytest.mark.parametrize("algorithm", ["sssp", "bfs"])
@pytest.mark.parametrize("seed", [3, 8])
def test_one_call_mixes_solves_and_revisions_across_subgraphs(monkeypatch, algorithm, seed):
    calls = []
    kernel = shortcuts_module.run_shortcut_solves

    def observed(**kwargs):
        calls.append(kwargs["job_solves"].copy())
        return kernel(**kwargs)

    monkeypatch.setattr(shortcuts_module, "run_shortcut_solves", observed)
    spec = make_algorithm(algorithm, source=0)
    cases = _subgraph_cases(spec, seed)
    tables, kinds, pendings, metrics = _run_mixed_batch(spec, cases)
    assert len(calls) == 1, "the whole batch must run in one kernel call"
    solves = int(calls[0].sum())
    revisions = int((~calls[0]).sum())
    assert solves and revisions, f"the call held {solves} solves and {revisions} revisions"
    _assert_mixed_batch_matches_reference(spec, cases, tables, kinds, pendings, metrics)
    # a revision declined for lost support turns into a solve
    assert any("solve" in kind.values() for kind in kinds), "no support loss"


@pytest.mark.parametrize("algorithm", ["pagerank", "php"])
@pytest.mark.parametrize("seed", [3, 8])
def test_one_closed_form_call_solves_every_subgraph(monkeypatch, algorithm, seed):
    """Differently sized subgraphs share one closed-form call, each solved
    on its own system, and never reach the kernel; every row equals its
    dense-inverse reference.  The call is one round that activates no edge,
    writes each row's cells, and charges each subgraph's ``n``-vertex solve
    ``n³//3`` multiply-adds plus ``n²`` per row."""
    calls = []
    closed_form = shortcuts_module.closed_form_solves

    def observed(spec, blocks, *args):
        calls.append(len(blocks))
        return closed_form(spec, blocks, *args)

    def fail(**_kwargs):
        raise AssertionError("a sum/mul solve must not reach the kernel")

    monkeypatch.setattr(shortcuts_module, "closed_form_solves", observed)
    monkeypatch.setattr(shortcuts_module, "run_shortcut_solves", fail)
    spec = make_algorithm(algorithm, source=0)
    cases = _subgraph_cases(spec, seed)
    tables, _kinds, _pendings, metrics = _run_mixed_batch(spec, cases)
    assert calls == [len(cases)]
    cells = multiply_adds = 0
    sizes = set()
    for (_old_local, new_local, boundary, _old_table), table in zip(cases, tables):
        sources = sorted(boundary)
        assert_close_to_inverse(spec, new_local, sources, boundary, [table.vector(s) for s in sources])
        universe = set(new_local.vertices_with_out_edges()) | boundary
        universe.update(t for v in new_local.vertices_with_out_edges() for t, _f in new_local(v))
        n = len(universe)
        sizes.add(n)
        cells += len(sources) * n
        multiply_adds += n**3 // 3 + len(sources) * n * n
    assert len(sizes) > 1, "the subgraphs should differ in size"
    assert metrics.activations_per_round == [0]
    assert (
        metrics.edge_activations, metrics.vertex_updates, metrics.iterations, metrics.dense_multiply_adds
    ) == (0, cells, 1, multiply_adds)


def test_sum_mul_rows_are_solved_not_revised():
    spec = PageRank(damping=0.5)
    table = ShortcutTable.from_vectors({0: {1: 0.5}}, 0.0)
    with pytest.raises(ValueError, match="min/\\+"):
        shortcut_revision(spec, _cyclic_local(), _cyclic_local(), 0, {0, 3}, table, {0})
    batch = ShortcutBatch(spec)
    with pytest.raises(ValueError, match="solved, not revised"):
        batch.revise(batch.block(_cyclic_local(), {0, 3}, table, [0]), 0, {1: 0.25})


def _large_local(extra=8, seed=5):
    """A ring of ``CLOSED_FORM_MAX_VERTICES + extra`` vertices with random
    chords, PageRank-like factors (damping 0.85 over a larger global
    out-degree), and every tenth vertex on the boundary."""
    rng = random.Random(seed)
    n = shortcuts_module.CLOSED_FORM_MAX_VERTICES + extra
    adjacency = {}
    for vertex in range(n):
        targets = [(vertex + 1) % n] + [rng.randrange(n) for _ in range(rng.randint(1, 5))]
        adjacency[vertex] = [(target, 0.85 / (len(targets) + 3)) for target in targets]
    return FactorAdjacency(adjacency), set(range(0, n, 10))


@pytest.mark.parametrize("algorithm", ["pagerank", "php"])
def test_sum_mul_solves_past_the_size_cap_run_in_the_kernel(monkeypatch, algorithm):
    """A subgraph whose local CSR holds more than ``CLOSED_FORM_MAX_VERTICES``
    vertices solves its sum/mul rows in the lockstep kernel, whose dense
    system would cost n³/3 however few rows are stale: its rows and work
    are bitwise the iteration's.  One call holding a small and a large
    subgraph solves the small one in closed form and the large one in the
    kernel, and the oracle engine routes both the same way."""
    spec = make_algorithm(algorithm, source=0)
    large, boundary = _large_local()
    sources = sorted(boundary)
    closed_form = shortcuts_module.closed_form_solves
    closed_calls = []

    def observed(spec, blocks, *args):
        closed_calls.append([block.csr.num_vertices for block in blocks])
        return closed_form(spec, blocks, *args)

    monkeypatch.setattr(shortcuts_module, "closed_form_solves", observed)
    metrics = ExecutionMetrics()
    batched = compute_shortcut_vectors(spec, large, sources, boundary, metrics)
    assert closed_calls == []
    reference_metrics = ExecutionMetrics()
    for source, got in zip(sources, batched):
        want = loops.propagate_shortcuts(spec, large, source, boundary, reference_metrics)
        assert want, f"source {source} reached nothing"
        assert _bits(got) == _bits(want), f"values differ for source {source}"
    assert _totals(metrics) == _totals(reference_metrics)

    def mixed_call():
        batch = ShortcutBatch(spec)
        small = batch.block(_cyclic_local(), {0, 3}, sources=[0, 3], label=0)
        big = batch.block(large, boundary, sources=sources, label=1)
        for source in (0, 3):
            batch.solve(small, source)
        for source in sources:
            batch.solve(big, source)
        work = ExecutionMetrics()
        batch.run(work)
        return small.table, big.table, work

    small_table, big_table, work = mixed_call()
    assert closed_calls == [[4]]
    assert_close_to_inverse(spec, _cyclic_local(), [0, 3], {0, 3}, [small_table.vector(s) for s in (0, 3)])
    assert [_bits(big_table.vector(s)) for s in sources] == [_bits(vector) for vector in batched]
    with oracle_loops():
        oracle_small, oracle_big, oracle_work = mixed_call()
    assert oracle_small.vectors() == small_table.vectors()
    assert oracle_big.vectors() == big_table.vectors()
    assert _totals(oracle_work) == _totals(work)
    assert oracle_work.activations_per_round == work.activations_per_round


def test_revision_silences_boundary_messages():
    """A revision message reaching boundary vertex 4 in round 0 must not be
    re-emitted along 4's own link, and the rows the revision reaches (3,
    then 5) gain weights the old row did not have."""
    spec = SSSP(source=99)
    boundary = {0, 4}
    old_local = FactorAdjacency({0: [(1, 0.5)], 1: [(2, 0.5)], 2: [(4, 0.5)], 4: [(1, 0.5)]})
    new_local = FactorAdjacency(
        {
            0: [(1, 0.5)],
            1: [(2, 0.5), (4, 0.25), (3, 0.25)],
            2: [(4, 0.5)],
            3: [(5, 0.5)],
            4: [(1, 0.5)],
            5: [(2, 0.5)],
        }
    )
    old_vector = loops.propagate_shortcuts(spec, old_local, 0, boundary)
    old_table = ShortcutTable.from_vectors({0: old_vector}, spec.aggregate_identity())
    changed = changed_local_sources(old_local, new_local)
    pending = shortcut_revision(spec, old_local, new_local, 0, boundary, old_table, changed)
    assert set(pending) == {3, 4}
    metrics = ExecutionMetrics()
    got = update_shortcut_vector(
        spec, old_local, new_local, 0, boundary, old_vector, changed, metrics
    )
    reference_metrics = ExecutionMetrics()
    with oracle_loops():
        want = update_shortcut_vector(
            spec, old_local, new_local, 0, boundary, old_vector, changed,
            reference_metrics,
        )
    assert _bits(got) == _bits(want)
    assert {3, 5} <= set(got) and not {3, 5} & set(old_vector)
    assert _totals(metrics) == _totals(reference_metrics)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_oracle_batch_runs_the_reference(monkeypatch, algorithm):
    def fail(**_kwargs):
        raise AssertionError("the oracle batch must not reach the kernel")

    spec = make_algorithm(algorithm, source=0)
    cases = _subgraph_cases(spec, 3)
    numpy_tables, _kinds, _pendings, numpy_metrics = _run_mixed_batch(spec, cases)
    monkeypatch.setattr(shortcuts_module, "run_shortcut_solves", fail)
    with oracle_loops():
        tables, _kinds, _pendings, metrics = _run_mixed_batch(spec, cases)
    for table, numpy_table in zip(tables, numpy_tables):
        assert table.vectors() == numpy_table.vectors()
    assert _totals(metrics) == _totals(numpy_metrics)


@pytest.mark.parametrize("seed", [1, 7])
def test_closed_form_stays_within_the_iterations_truncation_on_the_web_shape(seed):
    """Every PageRank shortcut row of the web shape's build against the
    iteration (:func:`oracles.loops.propagate_shortcuts`).  The iteration
    drops every message within the tolerance (1e-6) of zero, so it holds a
    subset of the closed form's entries and, factors being positive, never
    more weight; the mass it drops stays below 2e-4 (200 × the tolerance)
    per entry — 1.02e-4 and 7.1e-5 measured at seeds 1 and 7."""
    inputs = generate(WORKLOADS["web-pagerank-scattered"], seed=seed, num_events=BATCH_SIZE)
    spec = inputs.workload.spec()
    layered = LayeredGraph.build(spec, inputs.graph)
    for subgraph in layered.subgraphs:
        for source in sorted(subgraph.boundary):
            got = subgraph.shortcuts.vector(source)
            want = loops.propagate_shortcuts(
                spec, subgraph.local_adjacency, source, subgraph.boundary,
                propagate_with=propagation.propagate,
            )
            assert set(want) <= set(got)
            for vertex, value in got.items():
                assert -1e-12 <= value - want.get(vertex, 0.0) <= 200 * spec.tolerance()


# ----------------------------------------------------------------------
# phase 4: one assignment pass over every assigned subgraph
# ----------------------------------------------------------------------
def _assign_graph():
    return community_graph(
        num_communities=6,
        community_size_range=(15, 30),
        intra_edge_probability=0.35,
        inter_edges_per_community=3,
        weighted=True,
        seed=21,
    )


def _internal_source(graph):
    layered = LayeredGraph.build(SSSP(source=0), graph, LayphConfig())
    return min(vertex for subgraph in layered.subgraphs for vertex in subgraph.internal)


def _assign_both_ways(monkeypatch, engine, deltas, work):
    from repro.layph import vectorized

    calls = []
    for name in ("assign_best_offers", "assign_deltas"):
        kernel = getattr(vectorized, name)

        def observed(*args, _kernel=kernel, **kwargs):
            calls.append(1)
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(vectorized, name, observed)
    everything = set(range(len(engine.layered.subgraphs)))
    outcomes = []
    oracle = types.MethodType(oracle_class(LayphEngine)._assign_subgraphs, engine)
    for route in ROUTES[::-1]:
        if route == "oracle":
            monkeypatch.setattr(engine, "_assign_subgraphs", oracle)
        revised = dict(work)
        metrics = ExecutionMetrics()
        engine._assign(everything, set(), deltas, revised, metrics)
        outcomes.append(
            ({vertex: float(value).hex() for vertex, value in revised.items()}, metrics.edge_activations)
        )
    assert calls == [1], "the kernel path must run one assignment kernel call"
    return outcomes


def test_batched_selective_assign_equals_per_subgraph_loop(monkeypatch):
    graph = _assign_graph()
    engine = LayphEngine(SSSP(source=_internal_source(graph)))
    engine.initialize(graph)
    assert engine._local_source_states is not None, "the source must fold local results"
    rng = random.Random(4)
    work = dict(engine.states)
    work.update(engine.proxy_states)
    for subgraph in engine.layered.subgraphs:
        for vertex in subgraph.boundary:
            if rng.random() < 0.3:
                work[vertex] = work.get(vertex, math.inf) * 0.5
    vectorized_outcome, reference_outcome = _assign_both_ways(monkeypatch, engine, {}, work)
    assert vectorized_outcome == reference_outcome
    assert vectorized_outcome[1] > 0


@pytest.mark.parametrize("algorithm", ["pagerank", "php"])
def test_batched_accumulative_assign_equals_per_subgraph_loop(monkeypatch, algorithm):
    graph = _assign_graph()
    # PHP absorbs its source: an internal one must be skipped, not pushed
    source = _internal_source(graph)
    engine = LayphEngine(make_algorithm(algorithm, source=source))
    engine.initialize(graph)
    rng = random.Random(5)
    work = dict(engine.states)
    work.update(engine.proxy_states)
    deltas = {}
    for subgraph in engine.layered.subgraphs:
        for vertex in sorted(subgraph.boundary):
            deltas[vertex] = rng.choice([-1.0, 1.0]) * rng.uniform(1e-4, 1e-2)
    deltas[min(deltas)] = 1e-12  # insignificant: must not be pushed
    vectorized_outcome, reference_outcome = _assign_both_ways(monkeypatch, engine, deltas, work)
    assert vectorized_outcome == reference_outcome
    assert vectorized_outcome[1] > 0
