"""Figure 11: additional space cost and offline preprocessing amortization."""

from __future__ import annotations

from conftest import DATASET_NAMES, dataset, record, run_once

from repro.bench.reporting import format_table
from repro.engine.algorithms import make_algorithm
from repro.incremental.ingress import IngressEngine
from repro.layph.engine import LayphEngine
from repro.layph.layered_graph import LayeredGraph, LayphConfig
from repro.workloads.updates import random_edge_delta


def test_fig11a_additional_space_cost(benchmark):
    def build_all():
        return {
            name: LayeredGraph.build(make_algorithm("sssp"), dataset(name), LayphConfig())
            for name in DATASET_NAMES
        }

    layered_graphs = run_once(benchmark, build_all)
    rows = []
    for name in DATASET_NAMES:
        graph = dataset(name)
        layered = layered_graphs[name]
        shortcuts = layered.shortcut_count()
        ratio = shortcuts / graph.num_edges()
        rows.append([name, graph.num_edges(), shortcuts, f"{100 * ratio:.1f}%"])
        # The paper reports 0.3%-62% extra space; at this scale the layered
        # graph must at least stay within the same order as the original.
        assert shortcuts < 3 * graph.num_edges()
    table = format_table(
        ["dataset", "edges in original graph", "shortcuts in layered graph", "extra space"],
        rows,
        title="Figure 11a: additional space cost of the layered graph",
    )
    print("\n" + table)
    record("fig11_overheads", table)


def test_fig11b_offline_cost_amortization(benchmark):
    """Cumulative Layph time (offline + incremental runs) vs Ingress."""
    graph = dataset("uk")
    runs = 15

    def measure():
        layph = LayphEngine(make_algorithm("sssp"), LayphConfig())
        layph.initialize(graph)
        ingress = IngressEngine(make_algorithm("sssp"))
        ingress.initialize(graph)
        layph_cumulative = [layph.offline_seconds]
        ingress_cumulative = [0.0]
        current = graph
        for index in range(runs):
            delta = random_edge_delta(current, 5, 5, seed=1000 + index, protect=0)
            layph_result = layph.apply_delta(delta)
            ingress_result = ingress.apply_delta(delta)
            current = delta.apply(current)
            layph_cumulative.append(layph_cumulative[-1] + layph_result.wall_seconds)
            ingress_cumulative.append(ingress_cumulative[-1] + ingress_result.wall_seconds)
        return layph_cumulative, ingress_cumulative

    layph_cumulative, ingress_cumulative = run_once(benchmark, measure)
    rows = [
        [index, f"{layph_cumulative[index] * 1000:.1f} ms", f"{ingress_cumulative[index] * 1000:.1f} ms"]
        for index in range(0, runs + 1, 3)
    ]
    table = format_table(
        ["# incremental runs", "Layph offline + acc. inc.", "Ingress acc. inc."],
        rows,
        title="Figure 11b: offline preprocessing amortization over repeated runs (SSSP on uk)",
    )
    print("\n" + table)
    record("fig11_overheads", table)
    assert len(layph_cumulative) == runs + 1
