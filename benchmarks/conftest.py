"""Shared machinery for the figure-regeneration benchmarks.

Every module under ``benchmarks/`` regenerates one table or figure of the
paper: it runs the relevant engines through :mod:`repro.bench.harness`,
prints the series as a text table, writes it to ``benchmarks/out/<name>.txt``
(git-ignored; each run replaces the file), and exposes a pytest-benchmark
measurement of the Layph engine so ``pytest benchmarks/ --benchmark-only``
reports timings for every experiment.

The tracked copies under ``benchmarks/results/`` are refreshed only on
request — ``python -m pytest benchmarks --refresh-results`` — so running the
suite never rewrites tracked files.
"""

from __future__ import annotations

import functools
from pathlib import Path
from typing import Set

from repro.bench.harness import ExperimentResult, compare_engines, engines_for
from repro.engine.algorithms import make_algorithm
from repro.graph.delta import GraphDelta
from repro.graph.graph import Graph
from repro.workloads.datasets import DATASETS
from repro.workloads.updates import random_edge_delta, random_vertex_delta

#: tracked copies of the rendered tables, rewritten only by ``--refresh-results``
RESULTS_DIR = Path(__file__).parent / "results"
#: where a plain run writes them (listed in ``.gitignore``)
OUTPUT_DIR = Path(__file__).parent / "out"

_record_dir = OUTPUT_DIR
#: tables already written by this session: the first ``record`` of a name
#: replaces its file, later ones follow it
_recorded: Set[str] = set()

#: default ΔG size used by the figure benchmarks (the paper uses 5,000 unit
#: updates on graphs of ~10^9 edges; the substitutes keep the same "tiny
#: relative to the graph" regime on graphs of a few thousand edges)
DEFAULT_ADDITIONS = 5
DEFAULT_DELETIONS = 5

ALGORITHMS = ("sssp", "bfs", "pagerank", "php")
DATASET_NAMES = ("uk", "it", "sk", "wb")


def pytest_addoption(parser) -> None:
    # Seen when ``benchmarks`` (or a path below it) is named on the command
    # line; a bare ``pytest`` from the repo root loads this file too late to
    # add options, and then writes to ``benchmarks/out/`` like any plain run.
    parser.addoption(
        "--refresh-results",
        action="store_true",
        default=False,
        help="write the rendered tables to the tracked benchmarks/results/ "
        "instead of the git-ignored benchmarks/out/",
    )


def pytest_configure(config) -> None:
    global _record_dir
    if config.getoption("--refresh-results", default=False):
        _record_dir = RESULTS_DIR


def record(name: str, text: str) -> None:
    """Write a rendered table to ``<name>.txt`` of this run's output directory.

    The file holds exactly this session's tables: the first table recorded
    under a name replaces the file, further tables of the same name follow.
    """
    _record_dir.mkdir(parents=True, exist_ok=True)
    mode = "a" if name in _recorded else "w"
    _recorded.add(name)
    with open(_record_dir / f"{name}.txt", mode, encoding="utf-8") as handle:
        handle.write(text.rstrip("\n") + "\n\n")


@functools.lru_cache(maxsize=None)
def dataset(name: str) -> Graph:
    """Cached Table I dataset substitute."""
    return DATASETS[name].build()


@functools.lru_cache(maxsize=None)
def edge_delta(name: str, additions: int = DEFAULT_ADDITIONS, deletions: int = DEFAULT_DELETIONS, seed: int = 7) -> GraphDelta:
    """Cached random edge ΔG for one dataset."""
    return random_edge_delta(
        dataset(name), num_additions=additions, num_deletions=deletions, seed=seed, protect=0
    )


def vertex_delta(name: str, additions: int = 3, deletions: int = 3, seed: int = 13) -> GraphDelta:
    """Cached random vertex ΔG for one dataset."""
    return random_vertex_delta(
        dataset(name), num_additions=additions, num_deletions=deletions, seed=seed, protect=0
    )


@functools.lru_cache(maxsize=None)
def grid_cell(dataset_name: str, algorithm: str) -> ExperimentResult:
    """One cell of the Figures 5/6 grid (all applicable engines, one ΔG)."""
    graph = dataset(dataset_name)
    delta = edge_delta(dataset_name)
    return compare_engines(
        algorithm,
        graph,
        [delta],
        dataset=dataset_name,
        check_correctness=False,
    )


@functools.lru_cache(maxsize=None)
def vertex_update_cell(dataset_name: str) -> ExperimentResult:
    """The PageRank vertex-update cell (Figures 5e/6e)."""
    graph = dataset(dataset_name)
    delta = vertex_delta(dataset_name)
    return compare_engines(
        "pagerank",
        graph,
        [delta],
        dataset=dataset_name,
        engines=["ingress", "layph"],
        check_correctness=False,
    )


def run_once(benchmark, func, *args, **kwargs):
    """Measure ``func`` exactly once through pytest-benchmark."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)
