"""Stores written by older versions restore warm.

A store written before the propagation backend was retired records a
``"backend"`` entry in its engine identity (in the snapshot sidecar and the
SQLite baseline alike) and, for Layph, another one inside ``layph_config``.
The entry selects nothing any more: a restore must ignore it, come back
warm, and continue bitwise like the live engine.  A selective engine saved
by the retired dict dependency store restores the same way, and so does a
Layph store whose shortcut tables were written in a dict's insertion order
rather than ascending, and so does one whose upper layer was written while
it was a dict of rows (rows in the dict's insertion order).  A selective
Layph store written before the skeleton was seeded from its own links
restores warm with its skeleton re-seeded.
"""

from __future__ import annotations

import glob
import json
import shutil
from pathlib import Path

import numpy as np

import pytest

from repro.engine.algorithms import make_algorithm
from repro.engine.runner import run_batch
from repro.graph.generators import community_graph
from repro.incremental import make_engine
from repro.layph.engine import LayphEngine
from repro.layph.layered_graph import LayeredGraph
from repro.storage import store as store_module
from repro.storage.store import restore_engine
from repro.workloads.updates import random_edge_delta, random_vertex_delta

from oracles.layph import assert_exact_skeleton  # noqa: E402  (tests/)


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


#: the ``upper_adjacency`` payload a build that kept the upper layer as a
#: dict of rows wrote for :func:`_dict_era_engine` (rows in the dict's
#: insertion order, each row's links in assembly order, its mutation counter)
DICT_UPPER_LAYER = Path(__file__).parent / "data" / "dict_upper_layer_sssp.json"


def _dict_era_engine(algorithm="sssp"):
    """A Layph engine after three deltas, one of them vertex churn."""
    engine = make_engine("layph", make_algorithm(algorithm, source=0))
    engine.initialize(_graph())
    for step in range(3):
        engine.apply_delta(_delta(engine, step))
    return engine


def _assert_same_csr(left, right):
    assert left.vertex_ids == right.vertex_ids
    assert np.array_equal(left.offsets, right.offsets)
    assert np.array_equal(left.targets, right.targets)
    assert left.factors.tobytes() == right.factors.tobytes()


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

    live = make_engine(engine_name, make_algorithm(algorithm, source=0))
    live.initialize(_graph())
    with monkeypatch.context() as patch:
        patch.setattr(store_module, "_engine_identity", with_backend_entries)
        live.save(str(tmp_path / "live"))
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


def _dict_store_extras(engine):
    """Snapshot extras as the retired dict stores wrote them."""
    from repro.storage.codecs import encode_iteration_dicts, encode_parent_map, pack

    if hasattr(engine, "dep_table"):
        meta = {"store": "dict", "dense_deltas": 0, "dict_deltas": engine.dense_deltas}
        parents = encode_parent_map(engine.dep_table.to_parents_dict())
        return meta, dict(pack("parents", parents))
    iter_meta, iter_arrays = encode_iteration_dicts(engine.iterations)
    return {"store": "dicts", "iterations": iter_meta}, pack("iterations", iter_arrays)


@pytest.mark.parametrize(
    "engine_name, algorithm",
    [
        ("kickstarter", "sssp"),
        ("risgraph", "sssp"),
        ("ingress", "bfs"),
        ("graphbolt", "pagerank"),
        ("dzig", "php"),
    ],
)
def test_dict_store_snapshot_restores_warm(tmp_path, monkeypatch, engine_name, algorithm):
    """An engine saved by a retired dict store (extras ``"store": "dict"``
    with the selective ``parents`` map, ``"dicts"`` with the BSP levels)
    restores warm by promoting it, and continues bitwise, dependency forest
    and memoized levels included."""
    live = make_engine(engine_name, make_algorithm(algorithm, source=0))
    live.initialize(_graph())
    for step in range(2):
        live.apply_delta(_delta(live, step))
    with monkeypatch.context() as patch:
        patch.setattr(type(live), "_snapshot_extras", _dict_store_extras)
        live.save(str(tmp_path / "live"))
    [sidecar] = glob.glob(str(tmp_path / "live" / "snapshot-*.json"))
    assert json.loads(open(sidecar, "rb").read())["meta"]["extras"]["store"] in ("dict", "dicts")
    for step in range(2, 4):
        live.apply_delta(_delta(live, step))  # logged, replayed by the restore

    shutil.copytree(tmp_path / "live", tmp_path / "copy")
    restored, report = restore_engine(str(tmp_path / "copy"))
    assert report.warm, report.reason
    assert _bits(restored.states) == _bits(live.states)

    def store(engine):
        if hasattr(engine, "dep_table"):
            return engine.dep_table.to_parents_dict()
        return engine.iterations

    assert store(restored) == store(live)
    for step in range(4, 8):
        delta = _delta(live, step)
        want = live.apply_delta(delta)
        got = restored.apply_delta(delta)
        assert _bits(got.states) == _bits(want.states), f"delta {step}"
        assert got.metrics.activations_per_round == want.metrics.activations_per_round
        assert store(restored) == store(live), f"delta {step}"


@pytest.mark.parametrize("algorithm", ["sssp", "pagerank"])
def test_dict_ordered_shortcut_tables_restore_warm(tmp_path, monkeypatch, algorithm):
    """Stores written while the shortcut tables were dicts list each row's
    entries in the dict's insertion order.  Such a store restores warm into
    the block tables, equal as maps, and its next deltas are bitwise equal
    to a cold engine's that never saw a store."""
    from repro.layph.layered_graph import LayeredGraph

    to_state = LayeredGraph.to_state

    def dict_ordered(layered):
        state = to_state(layered)
        for subgraph in state["subgraphs"]:
            subgraph["shortcuts"] = [
                [source, list(reversed(row))] for source, row in subgraph["shortcuts"]
            ]
        return state

    spec = make_algorithm(algorithm, source=0)
    live = make_engine("layph", spec)
    cold = make_engine("layph", spec)
    for engine in (live, cold):
        engine.initialize(_graph())
    for step in range(2):
        delta = _delta(live, step)
        live.apply_delta(delta)
        cold.apply_delta(delta)
    with monkeypatch.context() as patch:
        patch.setattr(LayeredGraph, "to_state", dict_ordered)
        live.save(str(tmp_path / "live"))
    [sidecar] = glob.glob(str(tmp_path / "live" / "snapshot-*.json"))
    written = json.loads(open(sidecar, "rb").read())["meta"]["extras"]["layered"]
    assert any(
        [target for target, _w in row] != sorted(target for target, _w in row)
        for subgraph in written["subgraphs"]
        for _source, row in subgraph["shortcuts"]
    ), "no row was written out of order"

    shutil.copytree(tmp_path / "live", tmp_path / "copy")
    restored, report = restore_engine(str(tmp_path / "copy"))
    assert report.warm, report.reason
    for ours, theirs in zip(restored.layered.subgraphs, cold.layered.subgraphs):
        assert ours.shortcuts.vectors() == theirs.shortcuts.vectors()
    for step in range(2, 6):
        delta = _delta(cold, step)
        want = cold.apply_delta(delta)
        got = restored.apply_delta(delta)
        assert _bits(got.states) == _bits(want.states), f"delta {step}"
        assert got.metrics.activations_per_round == want.metrics.activations_per_round
        assert got.metrics.edge_activations == want.metrics.edge_activations


def test_new_snapshots_write_the_table_only(tmp_path):
    live = make_engine("kickstarter", make_algorithm("sssp", source=0))
    live.initialize(_graph())
    live.save(str(tmp_path / "store"))
    [sidecar] = glob.glob(str(tmp_path / "store" / "snapshot-*.json"))
    extras = json.loads(open(sidecar, "rb").read())["meta"]["extras"]
    assert extras["store"] == "table" and "dict_deltas" not in extras


def test_selective_layph_store_without_exact_skeleton_marker_reseeds(tmp_path, monkeypatch):
    """A selective Layph snapshot written before the skeleton was seeded
    from its own links holds the flat batch run's skeleton states, some an
    ulp off every in-link's offer, and no ``exact_skeleton`` marker.  It
    restores warm with its skeleton re-seeded: exact again, within 1e-9 of
    ``run_batch``, and so are the next deltas.  A marked snapshot restores
    bitwise."""
    spec = make_algorithm("sssp", source=0)
    live = make_engine("layph", spec)
    live.initialize(_graph())
    live.save(str(tmp_path / "marked"))
    marked, report = restore_engine(str(tmp_path / "marked"))
    assert report.warm, report.reason
    assert _bits(marked.states) == _bits(live.states)
    assert _bits(marked.proxy_states) == _bits(live.proxy_states)

    # what an older initialize left: the flat batch values everywhere
    live.states = dict(run_batch(spec, live.graph).states)
    with pytest.raises(AssertionError, match="match no offer"):
        assert_exact_skeleton(live)
    snapshot_extras = LayphEngine._snapshot_extras

    def unmarked(engine):
        meta, arrays = snapshot_extras(engine)
        del meta["exact_skeleton"]
        return meta, arrays

    with monkeypatch.context() as patch:
        patch.setattr(LayphEngine, "_snapshot_extras", unmarked)
        live.save(str(tmp_path / "old"))
    [sidecar] = glob.glob(str(tmp_path / "old" / "snapshot-*.json"))
    assert "exact_skeleton" not in json.loads(open(sidecar, "rb").read())["meta"]["extras"]

    restored, report = restore_engine(str(tmp_path / "old"))
    assert report.warm, report.reason
    assert_exact_skeleton(restored)
    assert spec.states_match(
        restored.states, run_batch(spec, restored.graph).states, tolerance=1e-9
    )
    for step in range(6):
        result = restored.apply_delta(_delta(restored, step))
        reference = run_batch(spec, restored.graph).states
        assert spec.states_match(result.states, reference, tolerance=1e-9), f"delta {step}"
        assert_exact_skeleton(restored)


def test_upper_payload_matches_the_dict_era_store():
    """``to_state`` writes the upper layer, read off its CSR, as the
    dict-era build wrote it for the same engine: the same rows, each
    row's links in the same order, and the same mutation counter; only
    the rows now come in ascending source order."""
    recorded = json.loads(DICT_UPPER_LAYER.read_text())
    written = _dict_era_engine().layered.to_state()["upper_adjacency"]
    assert written["version"] == recorded["version"]
    assert written["rows"] == sorted(recorded["rows"])
    assert written["rows"] != recorded["rows"], "the recorded rows are ascending already"


@pytest.mark.parametrize("algorithm", ["sssp", "pagerank"])
def test_dict_ordered_upper_rows_restore_warm(tmp_path, monkeypatch, algorithm):
    """A store whose upper rows come in a dict's insertion order — the
    recorded dict-era payload for SSSP, the rows reversed for PageRank —
    restores warm to the cold engine's upper CSR, bit for bit, and its
    next deltas are bitwise equal to the cold engine's."""
    to_state = LayeredGraph.to_state

    def dict_ordered(layered):
        state = to_state(layered)
        upper = state["upper_adjacency"]
        if algorithm == "sssp":
            recorded = json.loads(DICT_UPPER_LAYER.read_text())
            assert sorted(recorded["rows"]) == upper["rows"]
            state["upper_adjacency"] = recorded
        else:
            upper["rows"].reverse()
        return state

    live = _dict_era_engine(algorithm)
    cold = _dict_era_engine(algorithm)
    with monkeypatch.context() as patch:
        patch.setattr(LayeredGraph, "to_state", dict_ordered)
        live.save(str(tmp_path / "live"))
    [sidecar] = glob.glob(str(tmp_path / "live" / "snapshot-*.json"))
    written = json.loads(open(sidecar, "rb").read())["meta"]["extras"]["layered"]
    sources = [source for source, _row in written["upper_adjacency"]["rows"]]
    assert sources != sorted(sources), "no upper row was written out of order"

    shutil.copytree(tmp_path / "live", tmp_path / "copy")
    restored, report = restore_engine(str(tmp_path / "copy"))
    assert report.warm, report.reason
    _assert_same_csr(restored.layered.upper_csr(), cold.layered.upper_csr())
    for step in range(3, 7):
        delta = _delta(cold, step)
        want = cold.apply_delta(delta)
        got = restored.apply_delta(delta)
        assert _bits(got.states) == _bits(want.states), f"delta {step}"
        assert got.metrics.activations_per_round == want.metrics.activations_per_round
        assert got.metrics.edge_activations == want.metrics.edge_activations
        _assert_same_csr(restored.layered.upper_csr(), cold.layered.upper_csr())
