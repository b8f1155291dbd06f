import math

import numpy as np
import pytest

from rmop.graph import MetricGraph, Vertex, path_cost
from rmop.reward import RewardModel, eval_vertex_set
from rmop.orienteering import (EXACT_SIZE_LIMIT, GCB_ETA, OpSolverConfig, SizeGuardError,
                               solve_op, solve_op_exact, solve_op_gcb)

from helpers import line_instance, oracle_best_rooted_path, random_tiny_scenario

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
        seq, val = oracle_best_rooted_path(graph, model, 0, 2.0)
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
            _, oracle_val = oracle_best_rooted_path(scenario.graph, model, start,
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
