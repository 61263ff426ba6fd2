"""Warm start from a durable snapshot vs cold batch initialization.

Not a paper figure — this guards the storage subsystem's performance floor:
restoring an engine from its store directory (SQLite edge baseline + ``.npz``
array snapshot, zero deltas to replay) must be at least 3x faster than
running the batch algorithm from scratch on the 10k-vertex / 100k-edge
benchmark graph, for both a BSP engine (GraphBolt/PageRank, whose memo holds
every iteration) and a selective engine (KickStarter/SSSP, whose dependency
forest is the expensive part).  Both legs measure the full kill-to-resumed
wall time from the same store directory: cold reloads the graph from the
SQLite baseline and recomputes, warm additionally loads the array snapshot
and skips the computation entirely.
"""

from __future__ import annotations

import os
import time

from conftest import record, run_once

from repro.bench.reporting import format_table
from repro.engine.algorithms import make_algorithm
from repro.graph.generators import erdos_renyi_graph
from repro.incremental import make_engine
from repro.storage.edge_store import DurableEdgeStore
from repro.storage.store import restore_engine

NUM_VERTICES = 10_000
NUM_EDGES = 100_000
SEED = 42
COMBOS = (("graphbolt", "pagerank"), ("kickstarter", "sssp"))
REQUIRED_SPEEDUP = 3.0


def _spec(algorithm: str):
    return make_algorithm(algorithm, source=0)


def test_warm_start_speedup(benchmark, tmp_path):
    graph = erdos_renyi_graph(NUM_VERTICES, NUM_EDGES, weighted=True, seed=SEED)

    def run_grid():
        cells = {}
        for engine_name, algorithm in COMBOS:
            seed_engine = make_engine(engine_name, _spec(algorithm))
            seed_engine.initialize(graph)
            store_dir = str(tmp_path / f"{engine_name}-{algorithm}")
            seed_engine.save(store_dir)

            # cold recovery: reload the edge baseline, recompute from scratch
            start = time.perf_counter()
            edge_store = DurableEdgeStore(os.path.join(store_dir, "graph.db"))
            reloaded, _last_seq = edge_store.load_baseline()
            edge_store.close()
            cold_engine = make_engine(engine_name, _spec(algorithm))
            cold_engine.initialize(reloaded)
            cold_seconds = time.perf_counter() - start

            # warm recovery: snapshot restore, zero recomputation
            start = time.perf_counter()
            warm_engine, report = restore_engine(store_dir)
            warm_seconds = time.perf_counter() - start

            assert report.warm, report.reason
            assert report.replayed_deltas == 0
            assert warm_engine.states == seed_engine.states
            assert warm_engine.states == cold_engine.states
            cells[(engine_name, algorithm)] = (cold_seconds, warm_seconds)
        return cells

    cells = run_once(benchmark, run_grid)

    rows = []
    for (engine_name, algorithm), (cold_seconds, warm_seconds) in cells.items():
        speedup = cold_seconds / max(warm_seconds, 1e-9)
        rows.append(
            [
                engine_name,
                algorithm,
                f"{cold_seconds:.3f}",
                f"{warm_seconds:.3f}",
                f"{speedup:.1f}x",
            ]
        )

    table = format_table(
        ["engine", "algorithm", "cold init (s)", "warm restore (s)", "speedup"],
        rows,
        title=(
            f"Warm start vs cold init on G({NUM_VERTICES} vertices, "
            f"{NUM_EDGES} edges)"
        ),
    )
    print("\n" + table)
    record("warm_start", table)

    for (engine_name, algorithm), (cold_seconds, warm_seconds) in cells.items():
        assert cold_seconds / max(warm_seconds, 1e-9) >= REQUIRED_SPEEDUP, (
            f"{engine_name}/{algorithm}: warm restore must be at least "
            f"{REQUIRED_SPEEDUP}x faster than cold init "
            f"(cold {cold_seconds:.3f}s, warm {warm_seconds:.3f}s)"
        )
