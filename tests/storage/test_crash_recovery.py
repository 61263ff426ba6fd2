"""Kill-and-restore at every log-record boundary, for every engine.

The durable store's headline contract is *bitwise* resume: a process killed
after any fsync'd log record (or mid-write, leaving a torn tail) must restore
to exactly the state of the uninterrupted run — states, graph edge order,
mutation-counter version, the selective engines' dependency forests, the BSP
engines' memo iterations and Layph's layered skeleton — and then produce
bit-identical states *and metrics* for every subsequent delta.

The harness runs one reference sequence per engine×algorithm combo (20 random
deltas with a store attached, compaction every 7 records), copies the store
directory at every delta boundary — each copy is what a kill at that boundary
leaves on disk — and then restores every copy:

* boundary ``k`` restores warm and matches the reference checkpoint ``k``;
* applying the next reference delta reproduces reference step ``k+1``'s
  states and full metrics fingerprint;
* a restore from mid-sequence replays the rest of the sequence bitwise;
* truncating the log's final line (a kill mid-append) resumes at ``k-1``.

A shorter stream that mixes vertex additions/deletions with edge deltas (and
compacts inside the run) restores warm and bitwise at each of its
boundaries too.

The reference run per combo is cached at module scope: the boundary copies
are pristine (every test re-copies before restoring, since a restored engine
re-attaches the store and keeps logging into its directory).
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest

from repro.engine.algorithms import make_algorithm
from repro.graph.generators import community_graph
from repro.incremental import make_engine
from repro.storage import store as store_module
from repro.storage.store import restore_engine
from repro.workloads.updates import random_edge_delta, random_vertex_delta

ALGORITHMS = ["sssp", "bfs", "pagerank", "php"]
ENGINES = ["restart", "kickstarter", "risgraph", "graphbolt", "dzig", "ingress", "layph"]
NUM_DELTAS = 20
COMPACT_EVERY = 7
#: the vertex-churn stream: a compaction falls inside it
CHURN_DELTAS = 6
CHURN_COMPACT_EVERY = 4


def _applicable(engine_name: str, algorithm: str) -> bool:
    selective = make_algorithm(algorithm).is_selective()
    return {
        "restart": True,
        "ingress": True,
        "layph": True,
        "kickstarter": selective,
        "risgraph": selective,
        "graphbolt": not selective,
        "dzig": not selective,
    }[engine_name]


COMBOS = [
    (engine, algorithm)
    for engine in ENGINES
    for algorithm in ALGORITHMS
    if _applicable(engine, algorithm)
]


def _base_graph():
    return community_graph(
        num_communities=4,
        community_size_range=(18, 30),
        intra_edge_probability=0.22,
        inter_edges_per_community=4,
        weighted=True,
        seed=11,
    )


def _metrics_fingerprint(metrics):
    return (
        metrics.iterations,
        metrics.edge_activations,
        metrics.vertex_updates,
        list(metrics.activations_per_round),
        list(metrics.active_vertices_per_round),
    )


def _parent_forest(engine):
    """The selective engines' dependency forest, whichever store holds it."""
    if getattr(engine, "dep_table", None) is not None:
        return engine.dep_table.to_parents_dict()
    parents = getattr(engine, "parents", None)
    return dict(parents) if parents is not None else None


def _extras_fingerprint(engine):
    """Canonical form of the engine's cross-delta derived state.

    ``_snapshot_extras`` is exactly the state the store claims to preserve
    (memo matrices, dependency tables, Layph's layered skeleton + proxy
    states), so fingerprinting its two halves — JSON meta canonically, arrays
    as raw bytes (bitwise, hence NaN-safe) — compares all of it at once.
    """
    meta, arrays = engine._snapshot_extras()
    return (
        json.dumps(meta, sort_keys=True),
        {
            key: (str(array.dtype), array.shape, np.asarray(array).tobytes())
            for key, array in sorted(arrays.items())
        },
    )


@dataclass
class Checkpoint:
    """Reference engine state at one delta boundary."""

    states: Dict[int, float]
    edges: list
    version: int
    forest: Optional[Dict[int, Optional[int]]]
    extras: tuple


@dataclass
class ReferenceRun:
    """One uninterrupted 20-delta run plus its per-boundary store copies."""

    boundary_dirs: List[Path]
    deltas: list
    checkpoints: List[Checkpoint]
    #: per-step ``(states, metrics fingerprint)`` of the reference deltas
    step_outputs: List[Tuple[Dict[int, float], tuple]]
    initial_metrics_fp: tuple


def _capture(engine) -> Checkpoint:
    return Checkpoint(
        states=dict(engine.states),
        edges=list(engine.graph.edges()),
        version=engine.graph.version,
        forest=_parent_forest(engine),
        extras=_extras_fingerprint(engine),
    )


_REFERENCE_CACHE: Dict[Tuple[str, str], ReferenceRun] = {}


def _reference_run(engine_name, algorithm, tmp_path_factory) -> ReferenceRun:
    key = (engine_name, algorithm)
    run = _REFERENCE_CACHE.get(key)
    if run is None:
        run = _build_reference(engine_name, algorithm, tmp_path_factory)
        _REFERENCE_CACHE[key] = run
    return run


def _edge_churn(graph, step: int):
    return random_edge_delta(graph, num_additions=3, num_deletions=2, seed=100 + step, protect=0)


def _vertex_churn(graph, step: int):
    """Vertex turnover on even steps, edge churn on odd ones."""
    if step % 2 == 0:
        return random_vertex_delta(graph, 2, 2, seed=200 + step, protect=0)
    return random_edge_delta(graph, 3, 2, seed=200 + step, protect=0)


def _build_reference(engine_name, algorithm, tmp_path_factory) -> ReferenceRun:
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(store_module, "COMPACT_EVERY", COMPACT_EVERY)
        root = tmp_path_factory.mktemp(f"ref-{engine_name}-{algorithm}")
        return _record_reference(engine_name, algorithm, root, _edge_churn, NUM_DELTAS)


def _record_reference(engine_name, algorithm, root, make_delta, num_deltas) -> ReferenceRun:
    """Run ``num_deltas`` deltas with a store attached, copying the store
    directory (and capturing a checkpoint) at every delta boundary."""
    store_dir = root / "store"
    spec = make_algorithm(algorithm, source=0)
    engine = make_engine(engine_name, spec)
    engine.initialize(_base_graph())
    engine.save(str(store_dir))

    boundary_dirs: List[Path] = []
    checkpoints: List[Checkpoint] = []
    deltas: list = []
    step_outputs: List[Tuple[Dict[int, float], tuple]] = []

    def snapshot_boundary(k: int) -> None:
        copy = root / f"boundary-{k}"
        shutil.copytree(store_dir, copy)
        boundary_dirs.append(copy)
        checkpoints.append(_capture(engine))

    snapshot_boundary(0)
    for step in range(num_deltas):
        delta = make_delta(engine.graph, step)
        deltas.append(delta)
        result = engine.apply_delta(delta)
        step_outputs.append(
            (dict(result.states), _metrics_fingerprint(result.metrics))
        )
        snapshot_boundary(step + 1)

    return ReferenceRun(
        boundary_dirs=boundary_dirs,
        deltas=deltas,
        checkpoints=checkpoints,
        step_outputs=step_outputs,
        initial_metrics_fp=_metrics_fingerprint(engine.initial_metrics),
    )


def _restore_copy(boundary_dir: Path, scratch: Path, tag: str):
    """Restore from a private copy (restores re-attach and keep logging)."""
    work = scratch / tag
    shutil.copytree(boundary_dir, work)
    return restore_engine(str(work))


def _assert_checkpoint(engine, checkpoint: Checkpoint, label: str) -> None:
    assert dict(engine.states) == checkpoint.states, f"states diverged at {label}"
    assert list(engine.graph.edges()) == checkpoint.edges, f"edges diverged at {label}"
    assert engine.graph.version == checkpoint.version, f"version diverged at {label}"
    assert _parent_forest(engine) == checkpoint.forest, f"forest diverged at {label}"
    assert _extras_fingerprint(engine) == checkpoint.extras, (
        f"derived state (memo/dep/layered) diverged at {label}"
    )


# ----------------------------------------------------------------------
# the headline: kill at every record boundary, restore, resume bitwise
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine_name,algorithm", COMBOS)
def test_kill_and_restore_at_every_boundary(
    engine_name, algorithm, tmp_path, tmp_path_factory
):
    ref = _reference_run(engine_name, algorithm, tmp_path_factory)
    for k in range(NUM_DELTAS + 1):
        engine, report = _restore_copy(ref.boundary_dirs[k], tmp_path, f"k{k}")
        assert report.warm, f"boundary {k} demoted to cold init: {report.reason}"
        assert report.discarded_log_records == 0
        assert engine.last_restore_report is report
        _assert_checkpoint(engine, ref.checkpoints[k], f"boundary {k}")
        assert _metrics_fingerprint(engine.initial_metrics) == ref.initial_metrics_fp
        if k < NUM_DELTAS:
            # the restored engine's very next delta must reproduce the
            # reference step bit-for-bit, metrics included
            result = engine.apply_delta(ref.deltas[k])
            expect_states, expect_fp = ref.step_outputs[k]
            assert dict(result.states) == expect_states, (
                f"states diverged on the delta after restarting at boundary {k}"
            )
            assert _metrics_fingerprint(result.metrics) == expect_fp, (
                f"metrics diverged on the delta after restarting at boundary {k}"
            )


@pytest.mark.parametrize("engine_name,algorithm", COMBOS)
def test_full_continuation_from_mid_sequence(
    engine_name, algorithm, tmp_path, tmp_path_factory
):
    """Restore at the midpoint, replay the rest, land on the final checkpoint."""
    ref = _reference_run(engine_name, algorithm, tmp_path_factory)
    mid = NUM_DELTAS // 2
    engine, report = _restore_copy(ref.boundary_dirs[mid], tmp_path, "mid")
    assert report.warm, report.reason
    for step in range(mid, NUM_DELTAS):
        result = engine.apply_delta(ref.deltas[step])
        expect_states, expect_fp = ref.step_outputs[step]
        assert dict(result.states) == expect_states, f"states diverged at step {step}"
        assert _metrics_fingerprint(result.metrics) == expect_fp, (
            f"metrics diverged at step {step}"
        )
    _assert_checkpoint(engine, ref.checkpoints[NUM_DELTAS], "final boundary")


# ----------------------------------------------------------------------
# mid-write kills: a torn final log line resumes at the previous boundary
# ----------------------------------------------------------------------
def _tear_log_tail(store_dir: Path) -> bool:
    """Cut into the log's final line (a kill mid-``append``); False if empty."""
    log_path = store_dir / "delta.log"
    raw = log_path.read_bytes()
    if not raw:
        return False
    log_path.write_bytes(raw[:-9])
    return True


@pytest.mark.parametrize("engine_name,algorithm", COMBOS)
def test_torn_log_tail_resumes_previous_boundary(
    engine_name, algorithm, tmp_path, tmp_path_factory
):
    ref = _reference_run(engine_name, algorithm, tmp_path_factory)
    work = tmp_path / "torn"
    shutil.copytree(ref.boundary_dirs[NUM_DELTAS], work)
    assert _tear_log_tail(work), "fixture expects a non-empty log at this boundary"
    engine, report = restore_engine(str(work))
    assert report.warm, report.reason
    assert report.discarded_log_records == 1
    _assert_checkpoint(
        engine, ref.checkpoints[NUM_DELTAS - 1], "torn-tail resume point"
    )
    # re-applying the delta whose record was torn reproduces the lost step
    result = engine.apply_delta(ref.deltas[NUM_DELTAS - 1])
    expect_states, expect_fp = ref.step_outputs[NUM_DELTAS - 1]
    assert dict(result.states) == expect_states
    assert _metrics_fingerprint(result.metrics) == expect_fp


@pytest.mark.parametrize(
    "engine_name,algorithm", [("kickstarter", "sssp"), ("graphbolt", "pagerank")]
)
def test_torn_tail_at_every_nonempty_boundary(
    engine_name, algorithm, tmp_path, tmp_path_factory
):
    """Sweep the mid-write kill across the whole sequence for two engines.

    Boundaries right after a compaction hold an empty log (nothing to tear);
    every other boundary must recover to exactly the previous one.
    """
    ref = _reference_run(engine_name, algorithm, tmp_path_factory)
    torn = 0
    for k in range(1, NUM_DELTAS + 1):
        work = tmp_path / f"torn-{k}"
        shutil.copytree(ref.boundary_dirs[k], work)
        if not _tear_log_tail(work):
            continue
        torn += 1
        engine, report = restore_engine(str(work))
        assert report.warm, f"boundary {k}: {report.reason}"
        assert report.discarded_log_records == 1
        _assert_checkpoint(engine, ref.checkpoints[k - 1], f"torn boundary {k}")
    # compaction fires every COMPACT_EVERY records, so exactly those
    # boundaries had empty logs
    assert torn == NUM_DELTAS - NUM_DELTAS // COMPACT_EVERY


# ----------------------------------------------------------------------
# vertex churn: added and deleted vertices through the log and a compaction
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine_name,algorithm", COMBOS)
def test_vertex_churn_restores_at_every_boundary(
    engine_name, algorithm, tmp_path, monkeypatch
):
    """Vertex deltas are logged, compacted and replayed like edge deltas.

    A stream alternating vertex turnover with edge churn runs with a
    compaction inside it; every boundary restores warm and lands bitwise on
    the uninterrupted engine, derived state included.
    """
    monkeypatch.setattr(store_module, "COMPACT_EVERY", CHURN_COMPACT_EVERY)
    ref = _record_reference(engine_name, algorithm, tmp_path, _vertex_churn, CHURN_DELTAS)
    # the boundary right after the compaction holds an empty log
    assert (ref.boundary_dirs[CHURN_COMPACT_EVERY] / "delta.log").stat().st_size == 0
    for k, checkpoint in enumerate(ref.checkpoints):
        engine, report = restore_engine(str(ref.boundary_dirs[k]))
        try:
            assert report.warm, f"churn boundary {k} demoted: {report.reason}"
            assert report.discarded_log_records == 0
            _assert_checkpoint(engine, checkpoint, f"churn boundary {k}")
        finally:
            engine._store.close()
