"""Ablations for the design choices called out in DESIGN.md.

* density rule on/off (Definition 2),
* community size cap K sweep,
* incremental shortcut maintenance vs recomputing every affected subgraph,
* sparsity-aware (DZiG) vs pull-only (GraphBolt) refinement over one shared
  memoized baseline.
"""

from __future__ import annotations

import time

from conftest import dataset, edge_delta, record, run_once

from repro.bench.reporting import format_table
from repro.engine.algorithms import make_algorithm
from repro.incremental import make_engine
from repro.layph.engine import LayphEngine
from repro.layph.layered_graph import LayeredGraph, LayphConfig
from repro.workloads.updates import random_edge_delta


def test_ablation_density_rule(benchmark):
    graph = dataset("uk")

    def build_both():
        with_rule = LayeredGraph.build(
            make_algorithm("sssp"), graph, LayphConfig(apply_density_rule=True)
        )
        without_rule = LayeredGraph.build(
            make_algorithm("sssp"), graph, LayphConfig(apply_density_rule=False)
        )
        return with_rule, without_rule

    with_rule, without_rule = run_once(benchmark, build_both)
    rows = [
        ["with density rule", len(with_rule.subgraphs), with_rule.shortcut_count(), with_rule.upper_size()[1]],
        ["without density rule", len(without_rule.subgraphs), without_rule.shortcut_count(), without_rule.upper_size()[1]],
    ]
    table = format_table(
        ["variant", "dense subgraphs", "shortcuts", "Lup links"],
        rows,
        title="Ablation: Definition 2 density rule (uk, SSSP)",
    )
    print("\n" + table)
    record("ablations", table)
    # Dropping the rule can only accept more candidates.
    assert len(without_rule.subgraphs) >= len(with_rule.subgraphs)


def test_ablation_community_size_cap(benchmark):
    graph = dataset("wb")
    caps = [16, 32, 64, 128]

    def sweep():
        results = []
        for cap in caps:
            layered = LayeredGraph.build(
                make_algorithm("pagerank"), graph, LayphConfig(max_community_size=cap)
            )
            results.append((cap, len(layered.subgraphs), layered.upper_size()[1], layered.shortcut_count()))
        return results

    results = run_once(benchmark, sweep)
    rows = [[cap, count, links, shortcuts] for cap, count, links, shortcuts in results]
    table = format_table(
        ["K (size cap)", "dense subgraphs", "Lup links", "shortcuts"],
        rows,
        title="Ablation: community size cap K (wb, PageRank)",
    )
    print("\n" + table)
    record("ablations", table)
    assert len(rows) == len(caps)


def test_ablation_incremental_shortcut_update(benchmark, monkeypatch):
    """Incremental shortcut maintenance vs recomputing affected subgraphs.

    Only min/+ rows are revised: a sum/mul row is always solved in closed
    form, so PageRank's counts are an information row, not a variant.  Its
    closed-form solves activate no edge; their dense multiply-adds are a
    separate column.
    """
    graph = dataset("uk")
    delta = edge_delta("uk")
    from repro.layph import layered_graph as layered_graph_module

    revision = layered_graph_module.shortcut_revision

    def run(algorithm: str, incremental: bool):
        # The from-scratch variant makes the revision step decline every
        # vector (as on lost support), so every stale boundary vertex
        # recomputes its shortcut vector from scratch.
        monkeypatch.setattr(
            layered_graph_module,
            "shortcut_revision",
            revision if incremental else (lambda *args, **kwargs: None),
        )
        engine = LayphEngine(make_algorithm(algorithm))
        engine.initialize(graph)
        metrics = engine.apply_delta(delta).metrics
        return metrics.edge_activations, metrics.dense_multiply_adds

    def run_all():
        counts = {
            (algorithm, incremental): run(algorithm, incremental)
            for algorithm in ("sssp", "bfs")
            for incremental in (True, False)
        }
        counts["pagerank", True] = run("pagerank", True)
        return counts

    work = run_once(benchmark, run_all)
    rows = [
        [algorithm.upper(), label, *work[algorithm, incremental]]
        for algorithm in ("sssp", "bfs")
        for label, incremental in (
            ("incremental shortcut update", True),
            ("recompute touched subgraphs", False),
        )
    ]
    rows.append(["PageRank", "closed-form solves (information)", *work["pagerank", True]])
    table = format_table(
        ["algorithm", "variant", "edge activations", "dense multiply-adds"],
        rows,
        title="Ablation: incremental vs from-scratch shortcut maintenance (uk)",
    )
    print("\n" + table)
    record("ablations", table)
    for algorithm in ("sssp", "bfs"):
        assert work[algorithm, True][0] < work[algorithm, False][0], algorithm


def test_ablation_sparsity_aware_refinement_shared_baseline(benchmark):
    """DZiG vs GraphBolt-style refinement over one shared memoized baseline.

    Both BSP engines memoize the same per-iteration values, so the ablation
    materialises the baseline once (DZiG's batch run) and hands the
    GraphBolt-style engine a shared ``MemoTable`` snapshot via
    ``adopt_baseline`` instead of re-running ``initialize``.  The
    shared-snapshot run must be bitwise identical to independently
    initialized engines — states, activations, rounds and memoized
    iterations per delta.
    """
    # Large enough that the batch BSP materialisation dominates the copy
    # cost of sharing the snapshot (the tiny Table-I substitutes would only
    # measure noise).
    from repro.graph.generators import erdos_renyi_graph

    graph = erdos_renyi_graph(10_000, 100_000, weighted=True, seed=11)
    deltas = []
    current = graph.copy()
    for seed in range(5):
        delta = random_edge_delta(current, 5, 5, seed=seed, protect=0)
        deltas.append(delta)
        current = delta.apply(current)

    def apply_all(engine):
        outcomes = []
        for delta in deltas:
            result = engine.apply_delta(delta)
            outcomes.append(
                (
                    result.states,
                    result.metrics.edge_activations,
                    result.metrics.iterations,
                    tuple(result.metrics.activations_per_round),
                )
            )
        return outcomes

    def run_shared_and_independent():
        spec = make_algorithm("pagerank")
        # Shared baseline: one batch materialisation serves both engines.
        shared_start = time.perf_counter()
        dzig_shared = make_engine("dzig", spec)
        dzig_shared.initialize(graph.copy())
        graphbolt_shared = make_engine("graphbolt", spec)
        graphbolt_shared.adopt_baseline(dzig_shared)
        shared_init_seconds = time.perf_counter() - shared_start
        shared = {
            "dzig": apply_all(dzig_shared),
            "graphbolt": apply_all(graphbolt_shared),
            "iterations": {
                "dzig": dzig_shared.iterations,
                "graphbolt": graphbolt_shared.iterations,
            },
            "init_seconds": shared_init_seconds,
        }
        # Independent baselines: each engine pays its own batch run.
        independent_start = time.perf_counter()
        dzig_solo = make_engine("dzig", spec)
        dzig_solo.initialize(graph.copy())
        graphbolt_solo = make_engine("graphbolt", spec)
        graphbolt_solo.initialize(graph.copy())
        independent_init_seconds = time.perf_counter() - independent_start
        independent = {
            "dzig": apply_all(dzig_solo),
            "graphbolt": apply_all(graphbolt_solo),
            "iterations": {
                "dzig": dzig_solo.iterations,
                "graphbolt": graphbolt_solo.iterations,
            },
            "init_seconds": independent_init_seconds,
        }
        return shared, independent

    shared, independent = run_once(benchmark, run_shared_and_independent)

    # The shared snapshot is a pure plumbing optimisation: every per-delta
    # outcome and the final memoized iterations must be bitwise identical.
    for engine_name in ("dzig", "graphbolt"):
        assert shared[engine_name] == independent[engine_name]
        assert shared["iterations"][engine_name] == independent["iterations"][engine_name]

    activations = {
        engine_name: sum(outcome[1] for outcome in shared[engine_name])
        for engine_name in ("dzig", "graphbolt")
    }
    rows = [
        [
            "shared MemoTable snapshot",
            f"{shared['init_seconds']:.3f}",
            activations["dzig"],
            activations["graphbolt"],
        ],
        [
            "independent initialisation",
            f"{independent['init_seconds']:.3f}",
            activations["dzig"],
            activations["graphbolt"],
        ],
    ]
    table = format_table(
        ["baseline", "init (s)", "DZiG activations", "GraphBolt activations"],
        rows,
        title=(
            "Ablation: sparsity-aware refinement over a shared memoized "
            "baseline (G(10k, 100k), PageRank)"
        ),
    )
    print("\n" + table)
    record("ablations", table)
    # DZiG's sparse difference pushes can only activate fewer (or equal)
    # edges than GraphBolt's pull-everything refinement.
    assert activations["dzig"] <= activations["graphbolt"]
