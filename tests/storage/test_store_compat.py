"""Stores written before the propagation backend was retired restore warm.

Such a store records a ``"backend"`` entry in its engine identity (in the
snapshot sidecar and the SQLite baseline alike) and, for Layph, another one
inside ``layph_config``.  The entry selects nothing any more: a restore must
ignore it, come back warm, and continue bitwise like the live engine.
"""

from __future__ import annotations

import glob
import json
import shutil

import pytest

from repro.bench.harness import build_engine
from repro.engine.algorithms import make_algorithm
from repro.graph.generators import community_graph
from repro.storage import store as store_module
from repro.storage.store import restore_engine
from repro.workloads.updates import random_edge_delta, random_vertex_delta


def _graph():
    return community_graph(
        num_communities=4,
        community_size_range=(12, 18),
        intra_edge_probability=0.3,
        inter_edges_per_community=3,
        weighted=True,
        seed=17,
    )


def _delta(engine, step):
    if step % 3 == 1:
        return random_vertex_delta(engine.graph, 2, 1, seed=60 + step, protect=0)
    return random_edge_delta(engine.graph, 3, 2, seed=60 + step, protect=0)


def _bits(states):
    return {vertex: float(value).hex() for vertex, value in states.items()}


@pytest.mark.parametrize(
    "engine_name, algorithm",
    [("layph", "sssp"), ("layph", "pagerank"), ("graphbolt", "pagerank")],
)
def test_store_with_backend_entries_restores_warm(tmp_path, monkeypatch, engine_name, algorithm):
    identity = store_module._engine_identity

    def with_backend_entries(target):
        recorded = identity(target)
        recorded["backend"] = "python"
        if recorded["layph_config"] is not None:
            recorded["layph_config"]["backend"] = "python"
        return recorded

    live = build_engine(engine_name, make_algorithm(algorithm, source=0))
    live.initialize(_graph())
    with monkeypatch.context() as patch:
        patch.setattr(store_module, "_engine_identity", with_backend_entries)
        live.save(str(tmp_path / "live"), compact_every=100)
    for step in range(3):
        live.apply_delta(_delta(live, step))  # logged, replayed by the restore

    [sidecar] = glob.glob(str(tmp_path / "live" / "snapshot-*.json"))
    written = json.loads(open(sidecar, "rb").read())["meta"]["identity"]
    assert written["backend"] == "python"
    if engine_name == "layph":
        assert "backend" in written["layph_config"]

    shutil.copytree(tmp_path / "live", tmp_path / "copy")
    restored, report = restore_engine(str(tmp_path / "copy"))
    assert report.warm, report.reason
    assert report.replayed_deltas == 3
    assert _bits(restored.states) == _bits(live.states)
    for step in range(3, 7):
        delta = _delta(live, step)
        want = live.apply_delta(delta)
        got = restored.apply_delta(delta)
        assert _bits(got.states) == _bits(want.states), f"delta {step}"
        assert got.metrics.edge_activations == want.metrics.edge_activations
        assert got.metrics.activations_per_round == want.metrics.activations_per_round
