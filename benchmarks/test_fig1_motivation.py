"""Figure 1: edge activations and runtime of all systems on UK (SSSP & PR).

Paper shape: for SSSP, KickStarter activates the most edges among the
incremental engines and Layph the fewest; for PageRank, GraphBolt/DZiG
activate even more edges than a full restart while Ingress and Layph stay far
below it.
"""

from __future__ import annotations

from conftest import grid_cell, record, run_once

from repro.bench.reporting import format_table


def _render(result, metric):
    rows = []
    for run in result.runs:
        value = run.edge_activations if metric == "activations" else run.wall_seconds
        rows.append([run.engine, f"{value:.4f}" if metric != "activations" else value])
    return rows


def test_fig1a_sssp_on_uk(benchmark):
    result = run_once(benchmark, grid_cell, "uk", "sssp")
    runs = result.by_engine()
    rows = [
        [run.engine, run.edge_activations, f"{run.wall_seconds * 1000:.1f} ms"]
        for run in result.runs
    ]
    table = format_table(
        ["system", "edge activations", "runtime"],
        rows,
        title="Figure 1a substitute: SSSP on uk, 10 edge updates",
    )
    print("\n" + table)
    record("fig1_motivation", table)
    # Shape assertions: every incremental engine beats restarting, and the
    # dependency-tree engines order as in the paper (KickStarter >= Ingress).
    assert runs["ingress"].edge_activations < runs["restart"].edge_activations
    assert runs["kickstarter"].edge_activations >= runs["ingress"].edge_activations
    assert runs["layph"].edge_activations < runs["restart"].edge_activations


def test_fig1b_pagerank_on_uk(benchmark):
    result = run_once(benchmark, grid_cell, "uk", "pagerank")
    runs = result.by_engine()
    # Layph's shortcut solves are closed-form: dense arithmetic, no edge
    # activation, so that work is its own column
    rows = [
        [run.engine, run.edge_activations, run.dense_multiply_adds, f"{run.wall_seconds * 1000:.1f} ms"]
        for run in result.runs
    ]
    table = format_table(
        ["system", "edge activations", "dense multiply-adds", "runtime"],
        rows,
        title="Figure 1b substitute: PageRank on uk, 10 edge updates",
    )
    print("\n" + table)
    record("fig1_motivation", table)
    # Paper shape: the per-iteration memoization engines flood the graph with
    # refinement pulls (comparable to or above Restart); Ingress and Layph
    # stay well below Restart.
    assert runs["graphbolt"].edge_activations > runs["ingress"].edge_activations
    assert runs["dzig"].edge_activations <= runs["graphbolt"].edge_activations
    assert runs["ingress"].edge_activations < runs["restart"].edge_activations
    assert runs["layph"].edge_activations < runs["restart"].edge_activations
