"""The environment variables the library reads.

Every ``REPRO_*`` name is a switch a user has to know about, so the set is
pinned here, and it is empty.  A new name means a new user-facing option and
has to be added on purpose.  The switches that once selected a second, older
path are gone — the backend choice and the durable store's settings among
them: every engine runs its array kernels, and a store exists exactly when
``engine.save`` attached one — and one left behind in a user's environment
must change nothing.
"""

from __future__ import annotations

import ast
import pathlib
import re

import pytest

from repro.engine.algorithms import make_algorithm
from repro.graph.generators import erdos_renyi_graph
from repro.layph import layered_graph
from repro.layph import shortcuts as shortcuts_module
from repro.layph.shortcuts import ShortcutBatch
from repro.workloads.updates import random_edge_delta, random_vertex_delta

from oracles import engine_on_route  # noqa: E402  (tests/)

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

KNOBS: set = set()

#: each retired name with the stale value that used to select the old path
RETIRED = {
    "REPRO_CSR_CACHE": "0",
    "REPRO_MEMO_DENSE": "0",
    "REPRO_DEP_DENSE": "0",
    "REPRO_DELTA_FOOTPRINT": "0",
    "REPRO_CSR_REBUILD_FRACTION": "0",
    "REPRO_BACKEND": "python",
    "REPRO_STORE": "0",
    "REPRO_STORE_AUTOSAVE": "1",
    "REPRO_STORE_COMPACT_EVERY": "3",
}

#: one engine per dense store: memo table, dependency table, shortcut kernel
FAMILIES = (("graphbolt", "pagerank"), ("kickstarter", "sssp"), ("layph", "sssp"))

_NAME = re.compile(r"REPRO_[A-Z_]+")


def _string_literals(path: pathlib.Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_src_reads_exactly_the_pinned_knobs():
    found = {
        literal
        for path in SRC.rglob("*.py")
        for literal in _string_literals(path)
        if _NAME.fullmatch(literal)
    }
    assert found == KNOBS


def _run_stream(engine_name, spec, deltas, graph, monkeypatch, route="declared"):
    """One engine's per-delta results, plus the shortcut batches it opened."""
    opened = []

    class RecordedBatch(ShortcutBatch):
        def __init__(self, spec):
            super().__init__(spec)
            opened.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(layered_graph, "ShortcutBatch", RecordedBatch)
        engine = engine_on_route(engine_name, spec, route)
        engine.initialize(graph.copy())
        results = [
            (
                result.states,
                result.metrics.edge_activations,
                tuple(result.metrics.activations_per_round),
            )
            for result in map(engine.apply_delta, deltas)
        ]
    assert engine.footprint is not None
    return engine, results, opened


def _stream():
    """A small graph and a delta stream with edge and vertex churn."""
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
    return graph, deltas


def _stream_outcomes(monkeypatch):
    """Per-delta results of one engine per dense store; each must run on
    its array kernels and dense stores."""
    graph, deltas = _stream()
    outcomes = {}
    for engine_name, algorithm in FAMILIES:
        spec = make_algorithm(algorithm, source=0)
        engine, outcomes[engine_name], batches = _run_stream(
            engine_name, spec, deltas, graph, monkeypatch
        )
        assert engine._store is None  # only save() attaches a store
        if engine_name == "graphbolt":
            assert engine.memo is not None
        if engine_name == "kickstarter":
            assert engine.dep_table is not None
            assert engine.dense_deltas == len(deltas)
            assert engine.csr_cache.patches > 0
        if engine_name == "layph":
            assert batches
    return outcomes


@pytest.mark.parametrize("name", RETIRED)
def test_retired_knob_changes_nothing(name, monkeypatch):
    monkeypatch.delenv(name, raising=False)
    expected = _stream_outcomes(monkeypatch)
    monkeypatch.setenv(name, RETIRED[name])
    assert _stream_outcomes(monkeypatch) == expected


@pytest.mark.parametrize("engine_name, algorithm", FAMILIES)
def test_oracle_engine_reaches_the_reference_path(engine_name, algorithm, monkeypatch):
    """The parity suites compare an engine with its oracle; that only means
    something if the oracle really takes the reference loops and dict
    stores, and still gets the same answers."""
    graph, deltas = _stream()
    spec = make_algorithm(algorithm, source=0)

    def no_kernel(*_args, **_kwargs):
        raise AssertionError("the oracle must not reach an array kernel")

    with monkeypatch.context() as patch:
        patch.setattr(shortcuts_module, "run_shortcut_solves", no_kernel)
        engine, results, batches = _run_stream(
            engine_name, spec, deltas, graph, monkeypatch, route="oracle"
        )
    if engine_name == "graphbolt":
        assert isinstance(engine.memo, list) and engine.iterations is engine.memo
    if engine_name == "kickstarter":
        assert engine.dep_table is None and engine.parents
    if engine_name == "layph":
        assert batches
    _engine, declared, _batches = _run_stream(engine_name, spec, deltas, graph, monkeypatch)
    assert results == declared
