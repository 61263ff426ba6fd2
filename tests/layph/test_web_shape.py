"""Layph on a graph that actually forms dense subgraphs.

Most Layph property suites run on graphs too small to form more than a
handful of dense subgraphs, so a wrong lower-layer change can pass them.
This module replays the first deltas of the benchmark's three web
workloads (≈ 9k vertices, ~300 planted communities, generated by
``perf.workloads``) on the array kernels and checks Layph against a
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
from repro.graph.csr import FactorCSR  # noqa: E402
from repro.layph import vectorized  # noqa: E402
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
    4 rebuilds the shortcut CSR of a subgraph only when its tables changed."""
    compiled = []
    compile_adjacency = FactorCSR.from_factor_adjacency.__func__

    def observed_compile(cls, adjacency, *args, **kwargs):
        compiled.append(adjacency)
        return compile_adjacency(cls, adjacency, *args, **kwargs)

    monkeypatch.setattr(FactorCSR, "from_factor_adjacency", classmethod(observed_compile))
    built = []
    shortcut_csr = vectorized._ShortcutCSR

    class ObservedShortcutCSR(shortcut_csr):
        __slots__ = ()

        def __init__(self, subgraph):
            built.append(subgraph.index)
            super().__init__(subgraph)

    monkeypatch.setattr(vectorized, "_ShortcutCSR", ObservedShortcutCSR)
    asked = []
    cached_csr = vectorized._shortcut_csr

    def observed_shortcut_csr(subgraph):
        asked.append(subgraph.index)
        return cached_csr(subgraph)

    monkeypatch.setattr(vectorized, "_shortcut_csr", observed_shortcut_csr)

    def snapshot(subgraph):
        return (
            [(source, list(row.items())) for source, row in subgraph.shortcuts.items()],
            set(subgraph.internal),
            subgraph.boundary,
        )

    inputs = generate(WORKLOADS["web-bfs-bridge"], seed=1, num_events=BATCH_SIZE)
    engine = LayphEngine(inputs.workload.spec())
    engine.initialize(inputs.graph)
    subgraphs = engine.layered.subgraphs
    hits = 0
    for step, delta in enumerate(inputs.deltas[:DELTAS]):
        assert not delta.vertex_updates
        before = [snapshot(subgraph) for subgraph in subgraphs]
        cached = [getattr(s, "_shortcut_csr_cache", None) is not None for s in subgraphs]
        del compiled[:], built[:], asked[:]
        engine.apply_delta(delta)
        local = {id(subgraph.local_adjacency) for subgraph in subgraphs}
        assert not [a for a in compiled if id(a) in local], f"delta {step} compiled a local CSR"
        changed = {
            subgraph.index
            for subgraph, old in zip(subgraphs, before)
            if snapshot(subgraph) != old or not cached[subgraph.index]
        }
        assert set(built) <= changed, f"delta {step} rebuilt unchanged shortcut CSRs"
        hits += len(asked) - len(built)
    assert hits, "phase 4 never reused a shortcut CSR"
