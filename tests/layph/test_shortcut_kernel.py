"""The lockstep shortcut kernel against the per-vector reference.

Under a numpy backend every shortcut solve and every incremental revision
of a :class:`repro.layph.shortcuts.ShortcutBatch` — all of one delta's
refreshed subgraphs — runs in a single
:func:`repro.parallel.slabs.run_shortcut_solves` call over a ragged,
block-diagonal layout.  Every vector it produces must equal the
Python-backend reference (:func:`repro.layph.shortcuts.compute_shortcuts_from`
per solve, :func:`repro.layph.shortcuts.update_shortcut_vector` per
revision): the same values and the same recorded work.  Key order is the one
the reference's ``propagate`` write-backs leave on the numpy backend — for a
solve, rows touched in round 0 (the source) first, then the rest ascending;
for a revision, the old keys in place, then the new rows ascending — which
differs from the Python loop's first-touch order, so it is checked against
that numpy reference.  The batched phase-4 assignment pass is checked
against the per-subgraph reference loops the same way.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine.algorithms import PHP, SSSP, PageRank, make_algorithm
from repro.engine.dense_propagation import classify_spec
from repro.engine.metrics import ExecutionMetrics
from repro.engine.propagation import FactorAdjacency
from repro.graph.generators import community_graph
from repro.layph import shortcuts as shortcuts_module
from repro.layph.engine import LayphEngine
from repro.layph.layered_graph import LayeredGraph, LayphConfig
from repro.layph.shortcuts import (
    ShortcutBatch,
    _propagate_shortcuts,
    _revise_reference,
    compute_all_shortcuts,
    compute_shortcut_vectors,
    compute_shortcuts_from,
    shortcut_revision,
    update_shortcut_vector,
)

ALGORITHMS = ["sssp", "bfs", "pagerank", "php"]


def _totals(metrics: ExecutionMetrics):
    return metrics.edge_activations, metrics.vertex_updates, metrics.iterations


def _bits(vector):
    """Key order and exact bits of one vector (NaN-safe)."""
    return [(vertex, float(value).hex()) for vertex, value in vector.items()]


def assert_batch_matches_reference(spec, local, sources, boundary):
    """One batched call == per-source python reference (values, metrics)
    and == the numpy two-propagate reference (key order, bits)."""
    batched_metrics = ExecutionMetrics()
    batched = compute_shortcut_vectors(
        spec, local, sources, boundary, batched_metrics, backend="numpy"
    )
    python_metrics = ExecutionMetrics()
    python = [
        compute_shortcuts_from(spec, local, source, boundary, python_metrics, backend="python")
        for source in sources
    ]
    ordered = [
        _propagate_shortcuts(spec, local, source, boundary, backend="numpy")
        for source in sources
    ]
    assert len(batched) == len(sources)
    for source, got, want, order in zip(sources, batched, python, ordered):
        assert dict(_bits(got)) == dict(_bits(want)), f"values differ for source {source}"
        assert _bits(got) == _bits(order), f"key order differs for source {source}"
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
    layered = LayeredGraph.build(spec, graph, LayphConfig(seed=seed, backend="python"))
    for subgraph in layered.subgraphs:
        sources = sorted(subgraph.boundary)
        batched = assert_batch_matches_reference(
            spec, subgraph.local_adjacency, sources, subgraph.boundary
        )
        # the Python-backend build holds the reference tables
        for source, vector in zip(sources, batched):
            assert vector == subgraph.shortcuts[source]


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
    python = LayeredGraph.build(spec, graph, LayphConfig(seed=2, backend="python"))
    numpy = LayeredGraph.build(spec, graph, LayphConfig(seed=2, backend="numpy"))
    assert numpy.subgraphs, "the graph formed no dense subgraph"
    for ours, reference in zip(numpy.subgraphs, python.subgraphs):
        assert list(ours.shortcuts) == list(reference.shortcuts)
        assert ours.shortcuts == reference.shortcuts
    assert _totals(numpy.construction_metrics) == _totals(python.construction_metrics)


def _shortcut_values(layered):
    """Every subgraph's shortcut tables as exact bits, key order aside."""
    return [
        {source: dict(_bits(row)) for source, row in subgraph.shortcuts.items()}
        for subgraph in layered.subgraphs
    ]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_delta_sequence_tables_match_python(algorithm):
    """The per-delta rebuild runs one batch for every refreshed subgraph:
    after each delta the numpy engine holds the Python engine's states,
    per-delta metrics, shortcut tables (values, bitwise) and construction
    totals."""
    from repro.workloads.updates import random_edge_delta

    def run(backend: str):
        spec = make_algorithm(algorithm, source=0)
        engine = LayphEngine(spec, backend=backend)
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

    reference = run("python")
    vectorized = run("numpy")
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
    assert list(batched[0])[0] == 0, "the round-0 row leads the insertion order"


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


def test_multiple_sources_must_be_boundary():
    with pytest.raises(ValueError):
        compute_shortcut_vectors(
            SSSP(source=0), _cyclic_local(), [0, 1], {0, 3}, backend="numpy"
        )


@pytest.mark.parametrize("spec", [SSSP(source=0), PageRank(damping=0.5)])
def test_source_with_an_empty_row(spec):
    """Boundary vertex 4 has no local out-links: one empty round 0."""
    local = _cyclic_local()
    metrics = ExecutionMetrics()
    vectors = compute_shortcut_vectors(spec, local, [4], {0, 3, 4}, metrics, backend="numpy")
    assert vectors == [{}]
    assert (metrics.edge_activations, metrics.vertex_updates, metrics.iterations) == (0, 1, 1)
    assert_batch_matches_reference(spec, local, [0, 3, 4], {0, 3, 4})


class _AdditiveSum(PageRank):
    """A ``(sum, add)`` algebra: the unit 0 is insignificant, so no solve
    ever runs its first round (``run_first`` false)."""

    name = "additive-sum"
    dense_algebra = ("sum", "add")

    def combine(self, message: float, factor: float) -> float:
        return message + factor

    def combine_identity(self) -> float:
        return 0.0


def test_insignificant_unit_skips_the_first_round():
    spec = _AdditiveSum()
    assert classify_spec(spec) is not None, "the kernel must handle this algebra"
    batch = ShortcutBatch(spec, "numpy")
    block = batch.block(_cyclic_local(), {0, 3})
    batch.solve(block, 0, {})
    assert batch.prepare().scalars["run_first"] is False
    batched = assert_batch_matches_reference(spec, _cyclic_local(), [0, 3], {0, 3})
    assert batched == [{}, {}]


def test_nan_factor_takes_the_reference_fallback(monkeypatch):
    local = _cyclic_local()
    local.add(1, 3, math.nan)
    spec = SSSP(source=0)
    batch = ShortcutBatch(spec, "numpy")
    block = batch.block(local, {0, 3})
    batch.solve(block, 0, {})
    assert batch.prepare() is None

    def fail(**_kwargs):
        raise AssertionError("NaN factors must not reach the kernel")

    monkeypatch.setattr(shortcuts_module, "run_shortcut_solves", fail)
    assert_batch_matches_reference(spec, local, [0, 3], {0, 3})


def test_compute_all_shortcuts_is_one_kernel_call(monkeypatch):
    calls = []
    original = shortcuts_module.run_shortcut_solves

    def record(**kwargs):
        calls.append(int(kwargs["job_shift"].size))
        return original(**kwargs)

    monkeypatch.setattr(shortcuts_module, "run_shortcut_solves", record)
    spec = PageRank(damping=0.5)
    batched = compute_all_shortcuts(spec, _cyclic_local(), {0, 3}, backend="numpy")
    assert calls == [2]
    python = compute_all_shortcuts(spec, _cyclic_local(), {0, 3}, backend="python")
    assert batched == python


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
    boundary, old tables) from a Python-backend build."""
    graph = community_graph(
        num_communities=5,
        community_size_range=(10, 30),
        intra_edge_probability=0.35,
        inter_edges_per_community=3,
        weighted=True,
        seed=seed,
    )
    layered = LayeredGraph.build(spec, graph, LayphConfig(seed=seed, backend="python"))
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


def _run_mixed_batch(spec, cases, backend="numpy"):
    """Queue every boundary source of every case as the refresh loop would
    (revision when the Python half yields messages, solve when it declines;
    the smallest boundary vertex counts as new and is solved) and run the
    batch once.  Returns (tables, kinds, pendings, metrics)."""
    metrics = ExecutionMetrics()
    batch = ShortcutBatch(spec, backend)
    tables, kinds, pendings = [], [], []
    for old_local, new_local, boundary, old_tables in cases:
        changed = LayeredGraph._changed_local_sources(old_local, new_local)
        block = batch.block(new_local, boundary)
        table, kind, pending_of = {}, {}, {}
        for source in sorted(boundary):
            if source == min(boundary):
                kind[source] = "fresh"
                batch.solve(block, source, table)
                continue
            old_vector = old_tables[source]
            pending = shortcut_revision(
                spec, old_local, new_local, source, boundary, old_vector, changed, metrics
            )
            pending_of[source] = pending
            if pending is None:
                kind[source] = "solve"
                batch.solve(block, source, table)
            elif pending:
                kind[source] = "revise"
                batch.revise(block, source, old_vector, pending, table)
            else:
                kind[source] = "keep"
                table[source] = dict(old_vector)
        tables.append(table)
        kinds.append(kind)
        pendings.append(pending_of)
    batch.run(metrics)
    return tables, kinds, pendings, metrics


def _assert_mixed_batch_matches_reference(spec, cases, tables, kinds, pendings, metrics):
    reference_metrics = ExecutionMetrics()
    for (old_local, new_local, boundary, old_tables), table, kind, pending_of in zip(
        cases, tables, kinds, pendings
    ):
        changed = LayeredGraph._changed_local_sources(old_local, new_local)
        for source in sorted(boundary):
            old_vector = old_tables[source]
            want = None
            if kind[source] != "fresh":
                want = update_shortcut_vector(
                    spec, old_local, new_local, source, boundary, old_vector, changed,
                    reference_metrics, backend="python",
                )
            if want is None:
                assert kind[source] in ("fresh", "solve")
                want = compute_shortcuts_from(
                    spec, new_local, source, boundary, reference_metrics, backend="python"
                )
                order = _propagate_shortcuts(spec, new_local, source, boundary, backend="numpy")
            elif kind[source] == "revise":
                order = _revise_reference(
                    spec, new_local, source, boundary, old_vector, pending_of[source],
                    ExecutionMetrics(), backend="numpy",
                )
            else:
                order = want
            got = table[source]
            assert dict(_bits(got)) == dict(_bits(want)), f"values differ for source {source}"
            assert _bits(got) == _bits(order), f"key order differs for source {source}"
    assert _totals(metrics) == _totals(reference_metrics)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
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
    if spec.is_selective():
        # a revision declined for lost support turns into a solve
        assert any("solve" in kind.values() for kind in kinds), "no support loss"
    else:
        assert any(
            value < 0
            for pending_of in pendings
            for pending in pending_of.values()
            if pending
            for value in pending.values()
        ), "no accumulative revision carried a negative message"


def test_nan_block_takes_the_reference_while_the_others_share_the_call(monkeypatch):
    calls = []
    kernel = shortcuts_module.run_shortcut_solves

    def observed(**kwargs):
        calls.append(int(kwargs["job_shift"].size))
        return kernel(**kwargs)

    monkeypatch.setattr(shortcuts_module, "run_shortcut_solves", observed)
    spec = PageRank(damping=0.85)
    cases = _subgraph_cases(spec, 3)
    old_local, new_local, boundary, old_tables = cases[1]
    source = min(new_local.vertices_with_out_edges())
    new_local.add(source, new_local(source)[0][0], math.nan)
    tables, kinds, pendings, metrics = _run_mixed_batch(spec, cases)
    queued = [sum(kind != "keep" for kind in kinds[i].values()) for i in range(3)]
    assert queued[1], "the NaN block queued no job"
    assert calls == [queued[0] + queued[2]], "the NaN block must leave the kernel call"
    _assert_mixed_batch_matches_reference(spec, cases, tables, kinds, pendings, metrics)


@pytest.mark.parametrize("spec", [PageRank(damping=0.5), SSSP(source=99)], ids=lambda s: s.name)
def test_revision_silences_boundary_messages_and_appends_new_rows_ascending(spec):
    """A revision message reaching boundary vertex 4 in round 0 must not be
    re-emitted along 4's own link, and the rows the revision touches first
    (3, then 5) are appended after the old keys in ascending order."""
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
    old_vector = compute_shortcuts_from(spec, old_local, 0, boundary, backend="python")
    changed = LayeredGraph._changed_local_sources(old_local, new_local)
    pending = shortcut_revision(spec, old_local, new_local, 0, boundary, old_vector, changed)
    assert set(pending) == {3, 4}
    metrics = ExecutionMetrics()
    got = update_shortcut_vector(
        spec, old_local, new_local, 0, boundary, old_vector, changed, metrics, backend="numpy"
    )
    reference_metrics = ExecutionMetrics()
    want = update_shortcut_vector(
        spec, old_local, new_local, 0, boundary, old_vector, changed,
        reference_metrics, backend="python",
    )
    order = _revise_reference(
        spec, new_local, 0, boundary, old_vector, pending, ExecutionMetrics(), backend="numpy"
    )
    assert dict(_bits(got)) == dict(_bits(want))
    assert _bits(got) == _bits(order)
    assert list(got)[-2:] == [3, 5], "new rows are appended ascending"
    assert _totals(metrics) == _totals(reference_metrics)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_python_backend_batch_runs_the_reference(monkeypatch, algorithm):
    def fail(**_kwargs):
        raise AssertionError("the python backend must not reach the kernel")

    spec = make_algorithm(algorithm, source=0)
    cases = _subgraph_cases(spec, 3)
    numpy_tables, _kinds, _pendings, numpy_metrics = _run_mixed_batch(spec, cases)
    monkeypatch.setattr(shortcuts_module, "run_shortcut_solves", fail)
    tables, _kinds, _pendings, metrics = _run_mixed_batch(spec, cases, backend="python")
    for table, numpy_table in zip(tables, numpy_tables):
        assert table == numpy_table
    assert _totals(metrics) == _totals(numpy_metrics)


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
    layered = LayeredGraph.build(SSSP(source=0), graph, LayphConfig(backend="python"))
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
    for vectorized_phases in (True, False):
        monkeypatch.setattr(engine, "_vectorized_phases", lambda v=vectorized_phases: v)
        revised = dict(work)
        metrics = ExecutionMetrics()
        engine._assign(everything, set(), deltas, revised, metrics, engine.graph)
        outcomes.append(
            ({vertex: float(value).hex() for vertex, value in revised.items()}, metrics.edge_activations)
        )
    assert calls == [1], "the numpy path must run one assignment kernel call"
    return outcomes


def test_batched_selective_assign_equals_per_subgraph_loop(monkeypatch):
    graph = _assign_graph()
    engine = LayphEngine(SSSP(source=_internal_source(graph)), backend="numpy")
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
    engine = LayphEngine(make_algorithm(algorithm, source=source), backend="numpy")
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
