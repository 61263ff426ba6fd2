"""Layph on a graph that actually forms dense subgraphs.

Most Layph property suites run on graphs too small to form more than a
handful of dense subgraphs, so a wrong lower-layer change can pass them.
This module replays the first deltas of the benchmark's three web
workloads (≈ 9k vertices, ~300 planted communities, generated by
``perf.workloads``) on the numpy backend and checks Layph against a
from-scratch batch run after every delta, with the benchmark's own
tolerances, while the shortcut kernel is observed: one call per subgraph
at build time, at most one call per delta afterwards, holding the solves
and revisions of several subgraphs.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from repro.engine import dense_propagation  # noqa: E402
from repro.engine.propagation import SilencedAdjacency  # noqa: E402
from repro.layph import shortcuts as shortcuts_module  # noqa: E402
from repro.layph.engine import LayphEngine  # noqa: E402

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


@pytest.mark.parametrize(
    "workload", ["web-bfs-bridge", "web-pagerank-scattered", "web-sssp-local"]
)
def test_layph_matches_batch_on_the_web_shape(monkeypatch, workload):
    calls = []
    kernel = shortcuts_module.run_shortcut_solves

    def observed(**arrays_and_scalars):
        calls.append(_call_shape(arrays_and_scalars))
        return kernel(**arrays_and_scalars)

    monkeypatch.setattr(shortcuts_module, "run_shortcut_solves", observed)
    silenced_slabs = []
    build_slab = dense_propagation.build_propagation_slab

    def slab_observed(spec, adjacency, *args, **kwargs):
        if isinstance(adjacency, SilencedAdjacency):
            silenced_slabs.append(adjacency)
        return build_slab(spec, adjacency, *args, **kwargs)

    monkeypatch.setattr(dense_propagation, "build_propagation_slab", slab_observed)
    inputs = generate(WORKLOADS[workload], seed=1, num_events=BATCH_SIZE)
    spec = inputs.workload.spec()
    engine = LayphEngine(spec, backend="numpy")
    engine.initialize(inputs.graph)
    assert len(engine.layered.subgraphs) >= 100, "the web shape formed few dense subgraphs"
    built = calls[:]
    assert max(solves for _subgraphs, solves, _revisions in built) >= 2, (
        "the offline build never batched sources"
    )
    assert all(subgraphs == 1 for subgraphs, _s, _r in built), (
        "the offline build must run one call per subgraph"
    )

    online = []
    for step, delta in enumerate(inputs.deltas[:DELTAS]):
        del calls[:]
        result = engine.apply_delta(delta)
        assert len(calls) <= 1, f"delta {step} ran {len(calls)} shortcut kernel calls"
        online.extend(calls)
        assert matches_batch(spec, result.states, batch_reference(spec, engine.graph)), (
            f"{workload}: Layph diverged from run_batch at delta {step}"
        )
    assert not silenced_slabs, "shortcut work must not compile SilencedAdjacency slabs"
    # web-pagerank-scattered mixes the revisions and solves of many
    # subgraphs in one call; web-sssp-local's deltas stay in one community
    # but produce revisions; web-bfs-bridge refreshes several subgraphs
    wanted = {
        "web-pagerank-scattered": lambda subgraphs, revisions: subgraphs >= 2 and revisions >= 1,
        "web-sssp-local": lambda subgraphs, revisions: revisions >= 1,
        "web-bfs-bridge": lambda subgraphs, revisions: subgraphs >= 2,
    }[workload]
    assert any(
        wanted(subgraphs, revisions) for subgraphs, _solves, revisions in online
    ), f"no delta's kernel call had the workload's shape: {online}"
