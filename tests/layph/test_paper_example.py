"""Reproduction of the paper's worked example (Figure 2, Examples 2 and 3).

Example 2: injecting the unit message at entry vertex v0 of the dense
subgraph and iterating F/G yields shortcut weights {1, 4, 1, 2} for
{v1, v2, v3, v4}.  Example 3: after deleting edge (v3, v4, 1) and adding edge
(v3, v2, 2), the incrementally updated shortcut weights become {1, 3, 1, 4}.
"""

import pytest

from repro.engine.algorithms import SSSP
from repro.engine.convergence import states_close
from repro.engine.propagation import FactorAdjacency
from repro.engine.runner import run_batch
from repro.graph.delta import GraphDelta
from repro.layph.engine import LayphEngine
from repro.layph.layered_graph import LayphConfig
from repro.layph.shortcuts import compute_shortcuts_from

from oracles.layph import update_shortcut_vector  # noqa: E402  (tests/layph)

# Intra-subgraph edges of the example's dense subgraph, entry v0, exit v4.
OLD_EDGES = {
    0: [(1, 1.0), (3, 1.0)],
    1: [(2, 3.0)],
    2: [(4, 1.0)],
    3: [(4, 1.0)],
}
NEW_EDGES = {
    0: [(1, 1.0), (3, 1.0)],
    1: [(2, 3.0)],
    2: [(4, 1.0)],
    3: [(2, 2.0)],  # (v3, v4) deleted, (v3, v2, 2) added
}
BOUNDARY = {0, 4}


class TestExample2Shortcuts:
    def test_shortcut_weights_before_update(self):
        spec = SSSP(source=0)
        shortcuts = compute_shortcuts_from(
            spec, FactorAdjacency(dict(OLD_EDGES)), 0, BOUNDARY
        )
        assert shortcuts == {1: 1.0, 2: 4.0, 3: 1.0, 4: 2.0}

    def test_shortcut_weights_after_update(self):
        spec = SSSP(source=0)
        shortcuts = compute_shortcuts_from(
            spec, FactorAdjacency(dict(NEW_EDGES)), 0, BOUNDARY
        )
        assert shortcuts == {1: 1.0, 2: 3.0, 3: 1.0, 4: 4.0}


class TestExample3IncrementalUpdate:
    def test_incremental_update_falls_back_on_lost_support(self):
        """Deleting (v3, v4) removes v4's supporting path, so the cheap
        revision update must decline and request a recomputation."""
        spec = SSSP(source=0)
        old_vector = {1: 1.0, 2: 4.0, 3: 1.0, 4: 2.0}
        updated = update_shortcut_vector(
            spec,
            FactorAdjacency(dict(OLD_EDGES)),
            FactorAdjacency(dict(NEW_EDGES)),
            0,
            BOUNDARY,
            old_vector,
            changed_sources={3},
        )
        assert updated is None

    def test_improvement_only_update_is_handled_incrementally(self):
        """Adding (v3, v2, 2) alone is an improvement; the memoized weights
        are revised in place, exactly as Section IV-B describes."""
        spec = SSSP(source=0)
        old_vector = {1: 1.0, 2: 4.0, 3: 1.0, 4: 2.0}
        improved = dict(OLD_EDGES)
        improved[3] = [(4, 1.0), (2, 2.0)]
        updated = update_shortcut_vector(
            spec,
            FactorAdjacency(dict(OLD_EDGES)),
            FactorAdjacency(improved),
            0,
            BOUNDARY,
            old_vector,
            changed_sources={3},
        )
        assert updated == {1: 1.0, 2: 3.0, 3: 1.0, 4: 2.0}


class TestFullExampleGraph:
    def test_incremental_sssp_on_example_graph(self, example_graph):
        """End-to-end run of the Figure 2 update on the example graph."""
        spec = SSSP(source=0)
        engine = LayphEngine(spec, LayphConfig(min_subgraph_size=3, seed=1))
        engine.initialize(example_graph)
        delta = GraphDelta()
        delta.delete_edge(3, 4)
        delta.add_edge(3, 2, 2.0)
        result = engine.apply_delta(delta)
        reference = run_batch(SSSP(source=0), delta.apply(example_graph)).states
        assert states_close(result.states, reference, tolerance=1e-9)
