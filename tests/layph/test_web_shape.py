"""Layph on a graph that actually forms dense subgraphs.

Most Layph property suites run on graphs too small to form more than a
handful of dense subgraphs, so a wrong lower-layer change can pass them.
This module replays the first deltas of two of the benchmark's web
workloads (≈ 9k vertices, ~300 planted communities, generated by
``perf.workloads``) on the numpy backend and checks Layph against a
from-scratch batch run after every delta, with the benchmark's own
tolerances, while the multi-source shortcut kernel is observed solving
several boundary sources of one subgraph in one call.
"""

from __future__ import annotations

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from repro.layph import shortcuts as shortcuts_module  # noqa: E402
from repro.layph.engine import LayphEngine  # noqa: E402

from perf.replay import batch_reference, matches_batch  # noqa: E402
from perf.workloads import BATCH_SIZE, WORKLOADS, generate  # noqa: E402

DELTAS = 5


@pytest.mark.parametrize("workload", ["web-bfs-bridge", "web-pagerank-scattered"])
def test_layph_matches_batch_on_the_web_shape(monkeypatch, workload):
    solve_sizes = []
    kernel = shortcuts_module.run_shortcut_solves

    def observed(**arrays_and_scalars):
        solve_sizes.append(int(arrays_and_scalars["source_rows"].size))
        return kernel(**arrays_and_scalars)

    monkeypatch.setattr(shortcuts_module, "run_shortcut_solves", observed)
    inputs = generate(WORKLOADS[workload], seed=1, num_events=BATCH_SIZE)
    spec = inputs.workload.spec()
    engine = LayphEngine(spec, backend="numpy")
    engine.initialize(inputs.graph)
    assert len(engine.layered.subgraphs) >= 100, "the web shape formed few dense subgraphs"
    built = len(solve_sizes)

    for step, delta in enumerate(inputs.deltas[:DELTAS]):
        result = engine.apply_delta(delta)
        assert matches_batch(spec, result.states, batch_reference(spec, engine.graph)), (
            f"{workload}: Layph diverged from run_batch at delta {step}"
        )
    assert max(solve_sizes[:built]) >= 2, "the offline build never batched sources"
    assert max(solve_sizes[built:], default=0) >= 2, (
        "no delta solved two or more sources of one subgraph in one call"
    )
