"""Array codecs for the snapshot halves of the durable store.

Each codec turns one expensive derived structure — :class:`FactorCSR` arrays,
:class:`MemoTable` matrices, :class:`DepTable` forests, ordered state dicts —
into plain numpy arrays (packed into one ``.npz`` under a key prefix) plus a
JSON-able meta fragment, and back.  The round-trip contract is **bitwise**:
every float travels as its raw 8 bytes, every id list keeps its order, and
``NaN`` columns (a :class:`MemoTable`'s "absent vertex" marker) survive
because the arrays are stored, not re-derived.

Decoders copy, so the restored structures own their (writable) arrays.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.graph.csr import FactorCSR
from repro.incremental.dep_table import DepTable
from repro.incremental.memo import MemoTable

Arrays = Dict[str, np.ndarray]


def pack(prefix: str, arrays: Arrays) -> Arrays:
    """Prefix every key (``pack("memo", {"ids": a})`` → ``{"memo/ids": a}``)."""
    return {f"{prefix}/{key}": value for key, value in arrays.items()}


def unpack(prefix: str, arrays: Mapping[str, np.ndarray]) -> Arrays:
    """Select and strip one prefix out of a packed array mapping."""
    lead = f"{prefix}/"
    return {
        key[len(lead) :]: value for key, value in arrays.items() if key.startswith(lead)
    }


# ----------------------------------------------------------------------
# ordered {vertex: float} maps (engine states, Layph proxy states, ...)
# ----------------------------------------------------------------------
def encode_float_map(mapping: Mapping[int, float]) -> Arrays:
    """Encode an ordered ``{vertex: float}`` dict as parallel arrays."""
    n = len(mapping)
    return {
        "ids": np.fromiter(mapping.keys(), np.int64, count=n),
        "values": np.fromiter(mapping.values(), np.float64, count=n),
    }


def decode_float_map(arrays: Mapping[str, np.ndarray]) -> Dict[int, float]:
    """Decode :func:`encode_float_map` output (insertion order preserved)."""
    return {
        int(vertex): float(value)
        for vertex, value in zip(arrays["ids"], arrays["values"])
    }


# ----------------------------------------------------------------------
# whole-graph adjacency (the snapshot's fast-path copy of the edge list)
# ----------------------------------------------------------------------
def encode_graph_arrays(graph) -> Tuple[dict, Arrays]:
    """Encode a :class:`Graph` as offset-indexed adjacency arrays.

    The snapshot carries the full adjacency (both orientations, in exact
    insertion order) next to the SQLite baseline: the baseline stays the
    durable, queryable edge list, while the arrays are what a warm restore
    decodes — ``dict(zip(...))`` over array slices costs no Python-level work
    per edge, unlike the row-by-row SQLite rebuild the demote path uses.
    """
    num_vertices = graph.num_vertices()
    ids = np.fromiter(graph.vertices(), np.int64, count=num_vertices)
    arrays: Arrays = {"ids": ids}
    for orientation, neighbors_of in (
        ("out", graph.out_neighbors),
        ("in", graph.in_neighbors),
    ):
        rows = [neighbors_of(vertex) for vertex in graph.vertices()]
        counts = np.fromiter((len(row) for row in rows), np.int64, count=num_vertices)
        offsets = np.zeros(num_vertices + 1, np.int64)
        np.cumsum(counts, out=offsets[1:])
        total = int(offsets[-1]) if num_vertices else 0
        arrays[f"{orientation}_offsets"] = offsets
        arrays[f"{orientation}_neighbors"] = np.fromiter(
            (neighbor for row in rows for neighbor in row), np.int64, count=total
        )
        arrays[f"{orientation}_weights"] = np.fromiter(
            (weight for row in rows for weight in row.values()),
            np.float64,
            count=total,
        )
    meta = {"directed": graph.directed, "version": graph.version}
    return meta, arrays


def decode_graph_arrays(meta: dict, arrays: Mapping[str, np.ndarray]):
    """Decode :func:`encode_graph_arrays` output into a :class:`Graph`.

    Orders and the mutation counter round-trip exactly, so the rebuilt graph
    is interchangeable with the live one for every order- and
    version-sensitive consumer.
    """
    from repro.graph.graph import Graph

    ids = arrays["ids"].tolist()
    adjacency: Dict[str, Dict[int, Dict[int, float]]] = {}
    for orientation in ("out", "in"):
        offsets = arrays[f"{orientation}_offsets"].tolist()
        neighbors = arrays[f"{orientation}_neighbors"].tolist()
        weights = arrays[f"{orientation}_weights"].tolist()
        rows: Dict[int, Dict[int, float]] = {}
        for position, vertex in enumerate(ids):
            lo, hi = offsets[position], offsets[position + 1]
            rows[vertex] = dict(zip(neighbors[lo:hi], weights[lo:hi]))
        adjacency[orientation] = rows
    return Graph.from_adjacency_order(
        bool(meta["directed"]),
        adjacency["out"],
        adjacency["in"],
        version=int(meta["version"]),
    )


# ----------------------------------------------------------------------
# FactorCSR
# ----------------------------------------------------------------------
def encode_factor_csr(csr: FactorCSR) -> Arrays:
    """Encode a compiled factor CSR (ids + offsets + targets + factors)."""
    return {
        "ids": np.asarray(csr.vertex_ids, dtype=np.int64),
        "offsets": np.asarray(csr.offsets, dtype=np.int64),
        "targets": np.asarray(csr.targets, dtype=np.int64),
        "factors": np.asarray(csr.factors, dtype=np.float64),
    }


def decode_factor_csr(arrays: Mapping[str, np.ndarray]) -> FactorCSR:
    """Decode into a :class:`FactorCSR` without counting as a compile.

    The direct constructor rebuilds the id index and does not bump
    ``FactorCSR.compile_count`` — restoring a snapshot is a load, not a
    recompile, and the warm-start tests assert exactly that.
    """
    return FactorCSR(
        [int(vertex) for vertex in arrays["ids"]],
        np.array(arrays["offsets"]),
        np.array(arrays["targets"]),
        np.array(arrays["factors"]),
    )


# ----------------------------------------------------------------------
# MemoTable
# ----------------------------------------------------------------------
def encode_memo_table(memo: MemoTable) -> Tuple[dict, Arrays]:
    """Encode a memo table (live levels only; NaN absence markers survive)."""
    meta = {"graph_version": memo.graph_version}
    arrays = {
        "ids": np.asarray(memo.vertex_ids, dtype=np.int64),
        "matrix": memo._matrix[: memo.num_levels].copy(),
    }
    return meta, arrays


def decode_memo_table(meta: dict, arrays: Mapping[str, np.ndarray]) -> MemoTable:
    """Decode into a :class:`MemoTable` (always writable; levels grow)."""
    matrix = np.array(arrays["matrix"], dtype=np.float64)
    graph_version = meta.get("graph_version")
    memo = MemoTable(
        [int(vertex) for vertex in arrays["ids"]],
        graph_version=int(graph_version) if graph_version is not None else None,
        capacity=max(matrix.shape[0], 1),
    )
    memo._matrix[: matrix.shape[0]] = matrix
    memo.num_levels = matrix.shape[0]
    return memo


# ----------------------------------------------------------------------
# DepTable
# ----------------------------------------------------------------------
def encode_dep_table(table: DepTable) -> Tuple[dict, Arrays]:
    """Encode a dependency table (its ids, parent positions and values)."""
    meta = {"graph_version": table.graph_version}
    arrays = {
        "ids": np.asarray(table.vertex_ids, dtype=np.int64),
        "parent_pos": np.asarray(table.parent_pos, dtype=np.int64),
        "values": np.asarray(table.values, dtype=np.float64),
    }
    return meta, arrays


def decode_dep_table(meta: dict, arrays: Mapping[str, np.ndarray]) -> DepTable:
    """Decode into a :class:`DepTable` (the table is exactly its arrays)."""
    ids = [int(vertex) for vertex in arrays["ids"]]
    graph_version = meta.get("graph_version")
    return DepTable(
        ids,
        {vertex: position for position, vertex in enumerate(ids)},
        np.array(arrays["parent_pos"], dtype=np.int64),
        np.array(arrays["values"], dtype=np.float64),
        graph_version=int(graph_version) if graph_version is not None else None,
    )


# ----------------------------------------------------------------------
# GraphBolt's retired dict-backed iteration store (read by restores)
# ----------------------------------------------------------------------
def encode_iteration_dicts(iterations: List[Dict[int, float]]) -> Tuple[dict, Arrays]:
    """Encode a ``List[Dict[int, float]]`` memo as per-level id/value arrays.

    The BSP engines wrote their iterations this way before the dict store
    was retired; a restore still reads such snapshots.  Arrays (not JSON)
    keep the warm-start load O(load) even for hundreds of levels.
    """
    arrays: Arrays = {}
    for level, iteration in enumerate(iterations):
        level_arrays = encode_float_map(iteration)
        arrays[f"level{level}/ids"] = level_arrays["ids"]
        arrays[f"level{level}/values"] = level_arrays["values"]
    return {"num_levels": len(iterations)}, arrays


def decode_iteration_dicts(
    meta: dict, arrays: Mapping[str, np.ndarray]
) -> List[Dict[int, float]]:
    """Decode :func:`encode_iteration_dicts` output."""
    return [
        decode_float_map(unpack(f"level{level}", arrays))
        for level in range(int(meta["num_levels"]))
    ]


# ----------------------------------------------------------------------
# generic {int: Optional[int]} maps (the selective engines' parents dict)
# ----------------------------------------------------------------------
def encode_parent_map(parents: Mapping[int, Optional[int]]) -> Arrays:
    """Encode an ordered ``{vertex: parent-or-None}`` dict (-1 = ``None``)."""
    n = len(parents)
    return {
        "ids": np.fromiter(parents.keys(), np.int64, count=n),
        "parents": np.fromiter(
            (-1 if parent is None else parent for parent in parents.values()),
            np.int64,
            count=n,
        ),
    }


def decode_parent_map(arrays: Mapping[str, np.ndarray]) -> Dict[int, Optional[int]]:
    """Decode :func:`encode_parent_map` output (insertion order preserved)."""
    return {
        int(vertex): (None if parent < 0 else int(parent))
        for vertex, parent in zip(arrays["ids"], arrays["parents"])
    }
