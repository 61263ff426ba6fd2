"""The environment variables the library reads.

Every ``REPRO_*`` name is a switch a user has to know about, so the set is
pinned here: the backend choice and the durable store's three settings.  A
new name means a new user-facing option and has to be added on purpose.
The switches that once selected a second, older path are gone; one left
behind in a user's environment must change nothing.
"""

from __future__ import annotations

import ast
import pathlib
import re

import pytest

from repro.bench.harness import build_engine
from repro.engine.algorithms import make_algorithm
from repro.graph.generators import erdos_renyi_graph
from repro.workloads.updates import random_edge_delta, random_vertex_delta

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

KNOBS = {
    "REPRO_BACKEND",
    "REPRO_STORE",
    "REPRO_STORE_AUTOSAVE",
    "REPRO_STORE_COMPACT_EVERY",
}

RETIRED = (
    "REPRO_CSR_CACHE",
    "REPRO_MEMO_DENSE",
    "REPRO_DEP_DENSE",
    "REPRO_DELTA_FOOTPRINT",
    "REPRO_CSR_REBUILD_FRACTION",
)

_NAME = re.compile(r"REPRO_[A-Z_]+")


def _string_literals(path: pathlib.Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_src_reads_exactly_the_four_knobs():
    found = {
        literal
        for path in SRC.rglob("*.py")
        for literal in _string_literals(path)
        if _NAME.fullmatch(literal)
    }
    assert found == KNOBS


def _stream_outcomes():
    """Per-delta results of one engine per dense store, numpy backend."""
    graph = erdos_renyi_graph(30, 100, weighted=True, seed=3)
    deltas = []
    current = graph
    for step in range(3):
        if step == 1:
            delta = random_vertex_delta(current, 2, 1, seed=step, protect=0)
        else:
            delta = random_edge_delta(current, 3, 3, seed=step, protect=0)
        deltas.append(delta)
        current = delta.apply(current)
    outcomes = {}
    for engine_name, algorithm in (
        ("graphbolt", "pagerank"),
        ("kickstarter", "sssp"),
        ("layph", "sssp"),
    ):
        engine = build_engine(
            engine_name, make_algorithm(algorithm, source=0), backend="numpy"
        )
        engine.initialize(graph.copy())
        outcomes[engine_name] = [
            (
                result.states,
                result.metrics.edge_activations,
                tuple(result.metrics.activations_per_round),
            )
            for result in map(engine.apply_delta, deltas)
        ]
        assert engine.footprint is not None
        if engine_name == "graphbolt":
            assert engine.memo is not None
        if engine_name == "kickstarter":
            assert engine.dep_table is not None
            assert engine.dense_deltas == len(deltas)
            assert engine.csr_cache.patches > 0
    return outcomes


@pytest.mark.parametrize("name", RETIRED)
def test_retired_knob_changes_nothing(name, monkeypatch):
    monkeypatch.delenv(name, raising=False)
    expected = _stream_outcomes()
    monkeypatch.setenv(name, "0")
    assert _stream_outcomes() == expected
