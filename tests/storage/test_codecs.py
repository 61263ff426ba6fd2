"""Round-trip property tests for every snapshot codec.

The codecs' contract (see :mod:`repro.storage.codecs`) is **bitwise**
round-tripping: floats travel as their raw 8 bytes, id lists keep their
insertion order, ``NaN`` absence markers survive, and decoding never counts
as a recompile.  Each codec is exercised on structures produced by the real
engines (so the encoded shapes are the ones the store actually sees) plus
the degenerate cases — empty graphs, post-vertex-removal remaps, ``None``
parents — and the SQLite edge baseline is checked to carry the graph's
mutation-counter version and both adjacency insertion orders.
"""

from __future__ import annotations

import json
import math

import numpy as np

from repro.engine.algorithms import make_algorithm
from repro.engine.propagation import FactorAdjacency
from repro.graph.csr import FactorCSR
from repro.graph.delta import GraphDelta
from repro.graph.generators import community_graph
from repro.graph.graph import Graph
from repro.incremental import make_engine
from repro.incremental.dep_table import DepTable
from repro.incremental.memo import MemoTable
from repro.layph.layered_graph import (
    LayeredGraph,
    _adjacency_from_state,
    _adjacency_state,
)
from repro.storage.codecs import (
    decode_dep_table,
    decode_factor_csr,
    decode_float_map,
    decode_iteration_dicts,
    decode_memo_table,
    decode_parent_map,
    encode_dep_table,
    encode_factor_csr,
    encode_float_map,
    encode_iteration_dicts,
    encode_memo_table,
    encode_parent_map,
    pack,
    unpack,
)
from repro.workloads.updates import random_edge_delta, random_vertex_delta


def _graph():
    return community_graph(
        num_communities=3,
        community_size_range=(10, 16),
        intra_edge_probability=0.3,
        inter_edges_per_community=3,
        weighted=True,
        seed=23,
    )


def _npz_round_trip(arrays, tmp_path, mmap=False):
    """Push arrays through an actual ``.npz`` file, as the store does."""
    path = tmp_path / "arrays.npz"
    np.savez(path, **arrays)
    if mmap:
        loaded = {}
        import zipfile

        extract_dir = tmp_path / "extracted"
        with zipfile.ZipFile(path) as archive:
            members = archive.namelist()
            archive.extractall(extract_dir)
        for member in members:
            key = member[: -len(".npy")] if member.endswith(".npy") else member
            loaded[key] = np.load(extract_dir / member, mmap_mode="r")
        return loaded
    with np.load(path) as archive:
        return {key: archive[key] for key in archive.files}


# ----------------------------------------------------------------------
# pack / unpack
# ----------------------------------------------------------------------
def test_pack_unpack_partitions_by_prefix():
    a = np.arange(3)
    b = np.arange(4)
    packed = {**pack("left", {"ids": a}), **pack("right", {"ids": b})}
    assert set(packed) == {"left/ids", "right/ids"}
    assert unpack("left", packed)["ids"] is a
    assert unpack("right", packed)["ids"] is b
    # a prefix is not a substring match: "left" must not swallow "leftover/"
    packed["leftover/ids"] = np.arange(5)
    assert set(unpack("left", packed)) == {"ids"}


# ----------------------------------------------------------------------
# ordered float maps
# ----------------------------------------------------------------------
def test_float_map_round_trip_preserves_order_and_bits():
    mapping = {7: 0.1 + 0.2, 3: -1.5, 99: float("inf"), 1: 1e-308}
    decoded = decode_float_map(encode_float_map(mapping))
    assert decoded == mapping
    assert list(decoded) == list(mapping)  # insertion order, not sorted
    assert decoded[7] == 0.1 + 0.2  # exact bits, not a reprint


def test_float_map_empty():
    assert decode_float_map(encode_float_map({})) == {}


# ----------------------------------------------------------------------
# FactorCSR
# ----------------------------------------------------------------------
def test_factor_csr_round_trip_through_npz(tmp_path):
    spec = make_algorithm("sssp", source=0)
    csr = FactorCSR.from_graph(spec, _graph())
    arrays = _npz_round_trip(encode_factor_csr(csr), tmp_path)
    decoded = decode_factor_csr(arrays)
    assert list(decoded.vertex_ids) == list(csr.vertex_ids)
    assert np.array_equal(decoded.offsets, csr.offsets)
    assert np.array_equal(decoded.targets, csr.targets)
    assert decoded.factors.tobytes() == np.asarray(csr.factors).tobytes()
    # a decode is a load, not a recompile
    assert decoded.compile_count == 0 or decoded.compile_count == csr.compile_count


def test_factor_csr_round_trip_empty_graph():
    spec = make_algorithm("pagerank")
    csr = FactorCSR.from_graph(spec, Graph())
    decoded = decode_factor_csr(encode_factor_csr(csr))
    assert decoded.num_vertices == 0
    assert decoded.num_edges == 0


def test_factor_csr_round_trip_after_vertex_removal():
    """The id remap after removing vertices survives the round trip."""
    spec = make_algorithm("sssp", source=0)
    graph = _graph()
    victim = max(graph.vertices())
    delta = GraphDelta()
    delta.delete_vertex(victim)
    smaller = delta.apply(graph)
    csr = FactorCSR.from_graph(spec, smaller)
    assert victim not in csr.index
    decoded = decode_factor_csr(encode_factor_csr(csr))
    assert list(decoded.vertex_ids) == list(csr.vertex_ids)
    assert decoded.index == csr.index
    assert np.array_equal(decoded.targets, csr.targets)


def test_factor_csr_decode_copies_read_only_arrays(tmp_path):
    spec = make_algorithm("sssp", source=0)
    csr = FactorCSR.from_graph(spec, _graph())
    arrays = _npz_round_trip(encode_factor_csr(csr), tmp_path, mmap=True)
    assert not arrays["factors"].flags.writeable  # really memory-mapped
    decoded = decode_factor_csr(arrays)
    for name in ("offsets", "targets", "factors"):
        array = getattr(decoded, name)
        assert array.flags.writeable
        assert not np.shares_memory(array, arrays[name])
        assert np.array_equal(array, getattr(csr, name))


# ----------------------------------------------------------------------
# MemoTable (NaN = absent vertex)
# ----------------------------------------------------------------------
def test_memo_table_round_trip_with_nan_columns(tmp_path):
    memo = MemoTable([4, 1, 9], graph_version=17)
    memo.append(np.array([1.0, float("nan"), 3.0]))
    memo.append(np.array([0.5, 2.5, float("nan")]))
    meta, arrays = encode_memo_table(memo)
    decoded = decode_memo_table(meta, _npz_round_trip(arrays, tmp_path))
    assert list(decoded.vertex_ids) == [4, 1, 9]
    assert decoded.graph_version == 17
    assert decoded.num_levels == 2
    # bitwise matrix equality (NaN-safe: compare the raw bytes)
    assert (
        decoded._matrix[: decoded.num_levels].tobytes()
        == memo._matrix[: memo.num_levels].tobytes()
    )
    # the absent-vertex marker is still NaN, not a number
    assert math.isnan(decoded.row(0)[1])
    # the decoded table stays growable
    decoded.append(np.array([1.0, 1.0, 1.0]))
    assert decoded.num_levels == 3


def test_memo_table_round_trip_from_live_engine(tmp_path):
    """The memo an actual BSP engine builds survives encode/decode bitwise."""
    engine = make_engine("graphbolt", make_algorithm("pagerank"))
    graph = _graph()
    engine.initialize(graph)
    engine.apply_delta(random_edge_delta(graph, 3, 2, seed=3, protect=0))
    # no configuration turns the dense store off: PageRank declares its algebra
    assert engine.memo is not None
    meta, arrays = encode_memo_table(engine.memo)
    decoded = decode_memo_table(meta, _npz_round_trip(arrays, tmp_path))
    assert decoded.matches_ids(engine.memo.vertex_ids)
    assert decoded.to_dicts() == engine.memo.to_dicts()


# ----------------------------------------------------------------------
# DepTable
# ----------------------------------------------------------------------
def test_dep_table_round_trip(tmp_path):
    spec = make_algorithm("sssp", source=0)
    graph = _graph()
    csr = FactorCSR.from_graph(spec, graph)
    parents = {vertex: None for vertex in csr.vertex_ids}
    states = {vertex: float(vertex) for vertex in csr.vertex_ids}
    # a small chain of real parents on top of the all-roots default
    ids = list(csr.vertex_ids)
    parents[ids[1]] = ids[0]
    parents[ids[2]] = ids[1]
    table = DepTable.from_parents(csr, states, parents, math.inf, graph_version=5)
    meta, arrays = encode_dep_table(table)
    decoded = decode_dep_table(meta, _npz_round_trip(arrays, tmp_path))
    assert decoded.graph_version == 5
    assert list(decoded.vertex_ids) == ids
    assert decoded.to_parents_dict() == table.to_parents_dict()
    assert decoded.values.tobytes() == table.values.tobytes()


def test_parent_map_round_trip_with_none_roots():
    parents = {5: None, 2: 5, 11: 2, 0: None}
    decoded = decode_parent_map(encode_parent_map(parents))
    assert decoded == parents
    assert list(decoded) == list(parents)


# ----------------------------------------------------------------------
# iteration dicts (the BSP memo of the reference path)
# ----------------------------------------------------------------------
def test_iteration_dicts_round_trip_with_absent_vertices(tmp_path):
    iterations = [
        {1: 0.25, 2: 0.25, 3: 0.5},
        {1: 0.3, 3: 0.7},  # vertex 2 absent at this level
        {},
    ]
    meta, arrays = encode_iteration_dicts(iterations)
    decoded = decode_iteration_dicts(meta, _npz_round_trip(arrays, tmp_path))
    assert decoded == iterations
    assert [list(level) for level in decoded] == [list(level) for level in iterations]


# ----------------------------------------------------------------------
# FactorAdjacency (Layph upper layer / subgraph-local adjacencies), in the
# JSON form the layered-graph state carries it
# ----------------------------------------------------------------------
def test_factor_adjacency_round_trip_preserves_rows_and_version():
    spec = make_algorithm("pagerank")
    graph = _graph()
    adjacency = FactorAdjacency.from_graph(spec, graph)
    adjacency._version = 42
    state = _adjacency_state(adjacency, adjacency.version)
    decoded = _adjacency_from_state(json.loads(json.dumps(state)))
    assert decoded._version == 42
    assert list(decoded._adjacency) == list(adjacency._adjacency)
    for source in adjacency._adjacency:
        assert decoded._adjacency[source] == adjacency._adjacency[source]


# ----------------------------------------------------------------------
# LayeredGraph skeleton
# ----------------------------------------------------------------------
def test_layered_graph_state_round_trip():
    spec = make_algorithm("sssp", source=0)
    engine = make_engine("layph", spec)
    graph = _graph()
    engine.initialize(graph)
    # mutate past the initial build so replication indexes are non-trivial
    engine.apply_delta(random_edge_delta(engine.graph, 3, 2, seed=9, protect=0))
    layered = engine.layered
    state = layered.to_state()
    rebuilt = LayeredGraph.from_state(spec, engine.graph, engine.config, state)
    assert rebuilt.to_state() == state
    # the skeleton is behaviorally identical, not just structurally: the
    # rebuilt upper layer compiles to the same CSR arrays
    resident, restored = layered.upper_csr(), rebuilt.upper_csr()
    assert restored.vertex_ids == resident.vertex_ids
    assert np.array_equal(restored.offsets, resident.offsets)
    assert np.array_equal(restored.targets, resident.targets)
    assert restored.factors.tobytes() == resident.factors.tobytes()


def test_layered_graph_state_counters_and_old_snapshots():
    """The ``counters`` block carries the three maintenance counters only —
    the reverse-view cache and its ``upper_in_*`` counters are gone — and a
    snapshot written by a build that still stored them restores all the
    same; the compiled upper CSR is never stored and the restore compiles
    it from the stored rows."""
    spec = make_algorithm("sssp", source=0)
    engine = make_engine("layph", spec)
    engine.initialize(_graph())
    engine.apply_delta(random_vertex_delta(engine.graph, 2, 2, seed=5, protect=0))
    layered = engine.layered
    state = layered.to_state()
    assert set(state["counters"]) == {"upper_reuses", "upper_rebuilds", "upper_patches"}

    old_format = json.loads(json.dumps(state))
    old_format["counters"].update({"upper_in_reuses": 4, "upper_in_rebuilds": 2})
    rebuilt = LayeredGraph.from_state(spec, engine.graph, engine.config, old_format)
    assert rebuilt.to_state() == state

    resident = layered.upper_csr()
    recompiled = rebuilt.upper_csr()
    assert recompiled is not resident
    assert recompiled.vertex_ids == resident.vertex_ids
    assert np.array_equal(recompiled.offsets, resident.offsets)
    assert np.array_equal(recompiled.targets, resident.targets)
    assert recompiled.factors.tobytes() == resident.factors.tobytes()


# ----------------------------------------------------------------------
# SQLite edge baseline (graph + version + both insertion orders)
# ----------------------------------------------------------------------
def test_edge_baseline_round_trip_carries_version_and_orders(tmp_path):
    from repro.storage.edge_store import DurableEdgeStore

    graph = _graph()
    for _ in range(3):  # advance the mutation counter past zero
        graph = random_edge_delta(graph, 2, 1, seed=31, protect=0).apply(graph)
    store = DurableEdgeStore(str(tmp_path / "graph.db"))
    store.write_baseline(graph, last_seq=12, extra_meta={"identity": "{}"})
    loaded, last_seq = store.load_baseline()
    store.close()
    assert last_seq == 12
    assert loaded.version == graph.version
    assert list(loaded.edges()) == list(graph.edges())
    # the in-adjacency insertion order drives in-CSR slot order, which
    # drives bitwise float fold order — it must survive SQLite verbatim
    for vertex in graph.vertices():
        assert list(loaded.in_neighbors(vertex)) == list(graph.in_neighbors(vertex))
        assert list(loaded.out_neighbors(vertex)) == list(graph.out_neighbors(vertex))


def test_edge_baseline_round_trip_empty_graph(tmp_path):
    from repro.storage.edge_store import DurableEdgeStore

    store = DurableEdgeStore(str(tmp_path / "graph.db"))
    store.write_baseline(Graph(), last_seq=0, extra_meta={})
    loaded, last_seq = store.load_baseline()
    store.close()
    assert last_seq == 0
    assert loaded.num_vertices() == 0
    assert loaded.num_edges() == 0
