import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rmop.graph import LAYOUTS, REWARD_KINDS, MetricGraph, Vertex, generate_scenario, path_cost
from rmop.reward import RewardModel, eval_vertex_set
from rmop.orienteering import (EXACT_SIZE_LIMIT, GCB_ETA, OpSolverConfig, SizeGuardError,
                               solve_op, solve_op_exact, solve_op_gcb)

from helpers import line_instance, oracle_best_rooted_path, random_tiny_scenario, vertex_cells
from oracles import solve_op_gcb_rescan

TOL = 1e-9


class TestSolverConfig:
    def test_exact_defaults_to_factor_one(self):
        cfg = OpSolverConfig(method="exact")
        assert cfg.eta == 1.0
        assert cfg.eta_note is None

    def test_gcb_factor_value(self):
        cfg = OpSolverConfig(method="gcb")
        assert cfg.eta == pytest.approx(2.0 / (1.0 - math.exp(-1.0)))
        assert cfg.eta == GCB_ETA
        assert "strict budget" in cfg.eta_note

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="method"):
            OpSolverConfig(method="magic")


class TestExactSolver:
    def test_line_instance_optimum(self):
        graph, model = line_instance()
        # Independent oracle: permutation enumeration over all rooted paths.
        seq, val = oracle_best_rooted_path(graph, vertex_cells(graph), 0, 2.0)
        assert seq == (0, 1, 2) and val == 8.0
        path = solve_op_exact(graph, model, 0, 2.0)
        assert path.vertices == (0, 1, 2)
        assert path.cost == pytest.approx(2.0)
        assert eval_vertex_set(model, path.vertices) == 8.0

    def test_zero_budget_returns_start_only(self):
        graph, model = line_instance()
        path = solve_op_exact(graph, model, 0, 0.0)
        assert path.vertices == (0,)
        assert path.cost == 0.0

    def test_all_zero_rewards_tie_breaks_to_start(self):
        graph, _ = line_instance()
        model = RewardModel.modular([0.0, 0.0, 0.0, 0.0])
        path = solve_op_exact(graph, model, 0, 2.0)
        assert path.vertices == (0,)

    def test_size_guard(self):
        n = EXACT_SIZE_LIMIT + 1
        verts = [Vertex(i, float(i), 0.0, 1.0) for i in range(n)]
        graph = MetricGraph.from_positions(verts)
        model = RewardModel.modular([1.0] * n)
        with pytest.raises(SizeGuardError, match="exact solver refuses"):
            solve_op_exact(graph, model, 0, 1.0)

    def test_invalid_start_rejected(self):
        graph, model = line_instance()
        with pytest.raises(ValueError, match="start vertex"):
            solve_op_exact(graph, model, 9, 1.0)

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(17)
        for trial in range(40):
            scenario = random_tiny_scenario(1000 + trial,
                                            kind="coverage" if trial % 2 else "modular")
            model = RewardModel.from_scenario(scenario)
            start = scenario.starts[0]
            cells = vertex_cells(scenario.graph, scenario.reward_kind)
            _, oracle_val = oracle_best_rooted_path(scenario.graph, cells, start,
                                                    scenario.budget)
            path = solve_op_exact(scenario.graph, model, start, scenario.budget)
            assert eval_vertex_set(model, path.vertices) == pytest.approx(oracle_val, abs=TOL)

    def test_masking_equals_deleting_from_model(self):
        graph, model = line_instance()
        masked = model.with_masked([1])
        zeroed = RewardModel.modular([0.0, 0.0, 3.0, 4.0])
        a = solve_op_exact(graph, masked, 0, 2.0)
        b = solve_op_exact(graph, zeroed, 0, 2.0)
        assert eval_vertex_set(masked, a.vertices) == eval_vertex_set(zeroed, b.vertices)


def decoy_trap_instance():
    """Three cheap decoys pull the greedy away from one rich vertex placed on
    the opposite side, so the budget dies before the rich vertex fits."""
    verts = [
        Vertex(0, 0.0, 0.0, 0.0),
        Vertex(1, 0.05, 0.0, 1.0),
        Vertex(2, 0.10, 0.0, 1.0),
        Vertex(3, 0.15, 0.0, 1.0),
        Vertex(4, -10.0, 0.0, 100.0),
    ]
    graph = MetricGraph.from_positions(verts)
    model = RewardModel.modular([0.0, 1.0, 1.0, 1.0, 100.0])
    return graph, model


class TestGcbSolver:
    def test_line_instance_hand_trace(self):
        # Ratio rounds: 5/1 beats 3/2 and 4/2; then 3/1 beats 4/2.236;
        # the offshoot no longer fits, so the greedy route is (0, 1, 2).
        graph, model = line_instance()
        path = solve_op_gcb(graph, model, 0, 2.0)
        assert path.vertices == (0, 1, 2)
        assert path.cost == pytest.approx(2.0)

    def test_zero_budget_returns_start(self):
        graph, model = line_instance()
        assert solve_op_gcb(graph, model, 0, 0.0).vertices == (0,)

    def test_rich_singleton_beats_greedy_trap(self):
        graph, model = decoy_trap_instance()
        path = solve_op_gcb(graph, model, 0, 10.0)
        assert path.vertices == (0, 4)
        assert path.cost == pytest.approx(10.0)
        # Exhaustive cross-check: the singleton is the true optimum here.
        exact = solve_op_exact(graph, model, 0, 10.0)
        assert eval_vertex_set(model, exact.vertices) == 100.0

    def test_deterministic(self):
        scenario = random_tiny_scenario(303, kind="coverage")
        model = RewardModel.from_scenario(scenario)
        a = solve_op_gcb(scenario.graph, model, scenario.starts[0], scenario.budget)
        b = solve_op_gcb(scenario.graph, model, scenario.starts[0], scenario.budget)
        assert a == b

    def test_coincident_vertices_cost_nothing_and_always_join(self):
        # A vertex on top of the start inserts at zero marginal cost, so
        # the infinite gain ratio must pick it up even with zero budget.
        verts = [Vertex(0, 0.0, 0.0, 0.0), Vertex(1, 0.0, 0.0, 2.0),
                 Vertex(2, 5.0, 0.0, 9.0)]
        graph = MetricGraph.from_positions(verts)
        model = RewardModel.modular([0.0, 2.0, 9.0])
        path = solve_op_gcb(graph, model, 0, 0.0)
        assert path.vertices == (0, 1)
        assert path.cost == 0.0
        exact = solve_op_exact(graph, model, 0, 0.0)
        assert exact.vertices == (0, 1)


class TestSolverInvariants:
    @pytest.mark.parametrize("method", ["exact", "gcb"])
    @pytest.mark.parametrize("budget", [math.nan, -1.0])
    def test_budget_that_is_not_non_negative_rejected(self, method, budget):
        graph, model = line_instance()
        with pytest.raises(ValueError, match=f"^budget must be non-negative, got {budget}$"):
            solve_op(graph, model, 0, budget, OpSolverConfig(method=method))

    @pytest.mark.parametrize("method", ["exact", "gcb"])
    @pytest.mark.parametrize("n_model", [3, 5, 10])
    def test_model_of_another_size_rejected(self, method, n_model):
        graph, _ = line_instance()
        model = RewardModel.modular([1.0] * n_model)
        with pytest.raises(ValueError,
                           match=f"^reward model has {n_model} vertices but the graph has 4$"):
            solve_op(graph, model, 0, 2.0, OpSolverConfig(method=method))

    @pytest.mark.parametrize("method", ["exact", "gcb"])
    def test_rooted_budgeted_simple(self, method):
        cfg = OpSolverConfig(method=method)
        for trial in range(60):
            scenario = random_tiny_scenario(4000 + trial,
                                            kind="coverage" if trial % 3 == 0 else "modular")
            model = RewardModel.from_scenario(scenario)
            start = scenario.starts[0]
            path = solve_op(scenario.graph, model, start, scenario.budget, cfg, robot=5)
            assert path.robot == 5
            assert path.vertices[0] == start
            assert len(set(path.vertices)) == len(path.vertices)
            assert path.cost <= scenario.budget
            assert path.cost == pytest.approx(path_cost(scenario.graph, path.vertices),
                                              abs=1e-12)

    def test_exact_dominates_gcb_and_singletons(self):
        for trial in range(200):
            scenario = random_tiny_scenario(5000 + trial, n_range=(4, 7),
                                            kind="coverage" if trial % 2 else "modular")
            model = RewardModel.from_scenario(scenario)
            graph, start, budget = scenario.graph, scenario.starts[0], scenario.budget
            exact_val = eval_vertex_set(model, solve_op_exact(graph, model, start, budget).vertices)
            gcb_val = eval_vertex_set(model, solve_op_gcb(graph, model, start, budget).vertices)
            best_single = 0.0
            for v in range(graph.n):
                if v != start and graph.distance[start, v] <= budget:
                    best_single = max(best_single, eval_vertex_set(model, {start, v}))
            assert gcb_val <= exact_val + TOL
            assert gcb_val >= best_single - TOL


@st.composite
def gcb_problems(draw):
    """(graph, model, start, budget) for the gcb equivalence check.

    Grid positions give many equal distances, so ratio and slot ties; an explicit
    matrix is the Euclidean one with entries nudged by up to 1e-9, each side of the
    diagonal on its own, as a loaded matrix may be. Coverage cells are shared between
    vertices; a random set of vertices may be masked.
    """
    n = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        pos = rng.integers(0, 4, size=(n, 2)).astype(float)
    else:
        pos = rng.uniform(0.0, 10.0, size=(n, 2))
    kind = draw(st.sampled_from(REWARD_KINDS))
    if kind == "modular":
        model = RewardModel.modular(rng.integers(0, 4, size=n).astype(float))
    else:
        weight = rng.integers(0, 5, size=6).astype(float)
        model = RewardModel.coverage([[(c, weight[c]) for c in np.flatnonzero(row)]
                                      for row in rng.random((n, 6)) < 0.4])
    verts = [Vertex(v, x, y) for v, (x, y) in enumerate(pos)]
    graph = MetricGraph.from_positions(verts)
    if draw(st.booleans()):
        d = graph.distance + rng.uniform(-1e-9, 1e-9, size=(n, n))
        np.fill_diagonal(d, 0.0)
        graph = MetricGraph(verts, d)
    if draw(st.booleans()):
        model = model.with_masked(np.flatnonzero(rng.random(n) < 0.3))
    start = draw(st.integers(0, n - 1))
    budget = draw(st.one_of(st.floats(0.0, 40.0), st.sampled_from([0.0, 1.0, 2.0, 3.0, 4.0])))
    return graph, model, start, budget


class TestGcbMatchesRescan:
    """solve_op_gcb returns, bit for bit, the path of the greedy that rescans every round."""

    @settings(max_examples=300, deadline=None)
    @given(gcb_problems())
    def test_random_maps(self, problem):
        graph, model, start, budget = problem
        assert (solve_op_gcb(graph, model, start, budget, robot=3)
                == solve_op_gcb_rescan(graph, model, start, budget, robot=3))

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("kind", REWARD_KINDS)
    def test_generated_maps(self, layout, kind):
        s = generate_scenario(96, 6, 1, 60.0, layout=layout, seed=5, reward_kind=kind)
        model = RewardModel.from_scenario(s)
        masked = model.with_masked(range(0, 96, 4))
        for start in s.starts:
            for budget in (15.0, 60.0, 120.0):
                for m in (model, masked):
                    path = solve_op_gcb(s.graph, m, start, budget)
                    assert path == solve_op_gcb_rescan(s.graph, m, start, budget)
                    assert type(path.cost) is float
