import dataclasses
import itertools

import numpy as np
import pytest

from rmop.graph import MetricGraph, Path, Scenario, Vertex
from rmop.reward import RewardModel, eval_team, eval_vertex_set
from rmop.orienteering import OpSolverConfig, solve_op_exact
from rmop.planner import (INVARIANT_TOL, Solution, check_solution, sga, solve_rmop,
                          solve_sga)
from rmop.attack import worst_case_attack

from helpers import (line_instance, line_scenario, oracle_max_min, oracle_rooted_paths,
                     oracle_team_value, random_tiny_scenario, vertex_cells)

EXACT = OpSolverConfig(method="exact")
GCB = OpSolverConfig(method="gcb")


class TestSga:
    def test_two_robots_on_line_instance(self):
        graph, model = line_instance()
        paths, trace = sga(graph, model, [0, 0], 2.0, EXACT)
        assert paths[0].vertices == (0, 1, 2)
        assert paths[1].vertices == (0, 3)
        assert eval_team(model, paths) == 12.0
        assert trace.order == (0, 1)
        assert trace.gains == (8.0, 4.0)
        assert trace.masked_counts == (0, 3)
        # Exhaustive check: no pair of rooted budget-2 paths beats 12.
        best = oracle_max_min(graph, vertex_cells(graph), [0, 0], 2.0, alpha=0)
        assert best == 12.0

    def test_single_robot_equals_bare_solver(self):
        graph, model = line_instance()
        paths, _ = sga(graph, model, [0], 2.0, EXACT)
        assert paths[0] == solve_op_exact(graph, model, 0, 2.0)

    def test_all_zero_rewards(self):
        graph, _ = line_instance()
        model = RewardModel.modular([0.0] * 4)
        paths, trace = sga(graph, model, [0, 0], 2.0, EXACT)
        assert [p.vertices for p in paths] == [(0,), (0,)]
        assert eval_team(model, paths) == 0.0
        assert trace.gains == (0.0, 0.0)

    def test_gains_are_non_negative(self):
        for trial in range(30):
            scenario = random_tiny_scenario(7000 + trial,
                                            kind="coverage" if trial % 2 else "modular")
            model = RewardModel.from_scenario(scenario)
            _, trace = sga(scenario.graph, model, scenario.starts, scenario.budget, GCB)
            assert all(g >= 0.0 for g in trace.gains)

    def test_robot_labels_follow_argument(self):
        graph, model = line_instance()
        paths, trace = sga(graph, model, [0, 0], 2.0, EXACT, robots=[4, 9])
        assert [p.robot for p in paths] == [4, 9]
        assert trace.order == (4, 9)


class TestSolveRmop:
    def test_worked_example_two_robots(self):
        scenario = line_scenario(n_robots=2, alpha=1)
        solution = solve_rmop(scenario, EXACT)
        assert solution.s1_robots == {0}
        assert solution.s2_robots == {1}
        assert solution.paths[0].vertices == (0, 1, 2)
        assert solution.paths[1].vertices == (0, 1, 2)
        assert solution.team_reward == 8.0
        assert solution.loop_iterations == 1
        model = RewardModel.from_scenario(scenario)
        outcome = worst_case_attack(model, solution, 1)
        assert outcome.residual == 8.0
        # Exhaustive max-min over all rooted path pairs confirms 8 is optimal.
        assert oracle_max_min(scenario.graph, vertex_cells(scenario.graph), [0, 0], 2.0,
                              alpha=1) == 8.0

    def test_alpha_zero_equals_sga(self):
        for trial in range(10):
            scenario = random_tiny_scenario(8000 + trial)
            scenario = dataclasses.replace(scenario, alpha=0)
            a = solve_rmop(scenario, EXACT)
            b = solve_sga(scenario, EXACT)
            assert [p.vertices for p in a.paths] == [p.vertices for p in b.paths]
            assert a.s1_robots == frozenset()
            assert a.loop_iterations == 0

    def test_single_robot_with_positive_alpha_rejected(self):
        graph, _ = line_instance()
        with pytest.raises(ValueError, match="alpha"):
            scenario = Scenario(graph=graph, starts=(0,), budget=2.0, alpha=1,
                                reward_kind="modular")
            solve_rmop(scenario, EXACT)

    def test_invariant_and_partition_on_random_instances(self):
        for trial in range(40):
            scenario = random_tiny_scenario(9000 + trial,
                                            kind="coverage" if trial % 3 == 0 else "modular")
            solution = solve_rmop(scenario, GCB if trial % 2 else EXACT)
            assert check_solution(scenario, solution) == []
            assert len(solution.s1_robots) == scenario.alpha

    def test_loop_history_improves_when_looping(self):
        # With the approximate subroutine the reassignment loop occasionally
        # fires (the masked run can stumble onto a path that scores better
        # unmasked than the robot's own independent run). Whenever it does,
        # some pool entry must strictly improve and none may regress. Seeds
        # 118 and 324 are known to loop, so the property is not vacuous.
        from rmop.graph import generate_scenario
        reran = 0
        for seed in list(range(100, 140)) + list(range(310, 340)):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(10, 30))
            n_robots = int(rng.integers(3, 6))
            alpha = int(rng.integers(1, n_robots))
            scenario = generate_scenario(
                n, n_robots, alpha, float(rng.uniform(15, 45)), layout="uniform",
                bumps=int(rng.integers(1, 4)), seed=seed,
                reward_kind="coverage" if seed % 2 else "modular")
            solution = solve_rmop(scenario, GCB)
            assert check_solution(scenario, solution) == []
            if solution.loop_iterations > 1:
                reran += 1
                for before, after in zip(solution.loop_history, solution.loop_history[1:]):
                    assert all(b2 >= b1 for b1, b2 in zip(before, after))
                    assert any(b2 > b1 for b1, b2 in zip(before, after))
        assert reran >= 1


class TestCheckSolution:
    def test_planner_output_is_clean(self):
        scenario = line_scenario()
        assert check_solution(scenario, solve_rmop(scenario, EXACT)) == []

    def test_budget_violation_reported_with_overshoot(self):
        scenario = line_scenario()
        bad = Solution(
            paths=(Path(0, (0, 1, 2), 2.0), Path(1, (0, 3, 1), 2.0 + 5 ** 0.5)),
            s1_robots=frozenset({0}), s2_robots=frozenset({1}),
            team_reward=12.0, loop_iterations=1, per_path_rewards=(8.0, 9.0))
        problems = check_solution(scenario, bad)
        assert any("robot 1" in p and "exceeds budget" in p for p in problems)

    @pytest.mark.parametrize("over, flagged", [(INVARIANT_TOL, False), (3 * INVARIANT_TOL, True)])
    def test_budget_tolerance_boundary(self, over, flagged):
        # The cost comes straight from an explicit matrix, so the path lands
        # exactly on budget + INVARIANT_TOL, or beyond it.
        d = 1.0 + over
        graph = MetricGraph((Vertex(0, 0.0, 0.0, 0.0), Vertex(1, d, 0.0, 1.0)),
                            np.array([[0.0, d], [d, 0.0]]))
        scenario = Scenario(graph=graph, starts=(0,), budget=1.0, alpha=0)
        solution = Solution.from_paths(RewardModel.from_scenario(scenario), [Path(0, (0, 1), d)])
        problems = check_solution(scenario, solution)
        if flagged:
            assert len(problems) == 1 and "exceeds budget 1.0" in problems[0], problems
        else:
            assert problems == []

    def test_outranking_coverage_path_reported(self):
        scenario = line_scenario()
        bad = Solution(
            paths=(Path(0, (0, 3), 2.0), Path(1, (0, 1, 2), 2.0)),
            s1_robots=frozenset({0}), s2_robots=frozenset({1}),
            team_reward=12.0, loop_iterations=1, per_path_rewards=(4.0, 8.0))
        problems = check_solution(scenario, bad)
        assert any("outranks" in p for p in problems)

    def test_wrong_root_reported(self):
        scenario = line_scenario()
        bad = Solution(
            paths=(Path(0, (1, 0), 1.0), Path(1, (0,), 0.0)),
            s1_robots=frozenset({0}), s2_robots=frozenset({1}),
            team_reward=5.0, loop_iterations=1, per_path_rewards=(5.0, 0.0))
        problems = check_solution(scenario, bad)
        assert any("starts at 1" in p for p in problems)

    def test_partition_violation_reported(self):
        scenario = line_scenario()
        bad = Solution(
            paths=(Path(0, (0,), 0.0), Path(1, (0,), 0.0)),
            s1_robots=frozenset({0, 1}), s2_robots=frozenset({1}),
            team_reward=0.0, loop_iterations=1, per_path_rewards=(0.0, 0.0))
        problems = check_solution(scenario, bad)
        assert any("overlap" in p for p in problems)

    def test_nan_stored_values_are_reported(self):
        # abs(nan - x) > tol is false, so each comparison must ask for <= tol instead.
        scenario = line_scenario()
        solution = solve_rmop(scenario, EXACT)
        nan = float("nan")
        doctored = dataclasses.replace(
            solution, team_reward=nan, per_path_rewards=(nan,) + solution.per_path_rewards[1:],
            paths=(dataclasses.replace(solution.paths[0], cost=nan),) + solution.paths[1:])
        problems = check_solution(scenario, doctored)
        assert [p.split(" differs")[0] for p in problems] == [
            "robot 0 stored cost nan", "robot 0 stored reward nan", "stored team reward nan"]

    @pytest.mark.parametrize("vertices, problem", [
        ((), "robot 1: path must contain at least one vertex"),
        ((0, 1, 0), "robot 1: repeated vertex id 0 in path"),
        ((0, 4), "robot 1: vertex id 4 out of range 0..3"),
    ], ids=["empty", "repeated", "unknown"])
    def test_unwalkable_path_is_one_problem(self, vertices, problem):
        # Its cost and rewards are undefined, so none of them is compared.
        scenario = line_scenario(n_robots=2, alpha=0)
        solution = solve_sga(scenario, EXACT)
        paths = (solution.paths[0], Path(robot=1, vertices=vertices, cost=0.0))
        assert check_solution(scenario, dataclasses.replace(solution, paths=paths)) == [problem]

    def test_robot_ids_outside_the_team_reported_without_reward_order(self):
        # At seed 0 robot 2 scores least, so a -1 that wrapped to it would
        # also raise a bogus "outranks" complaint.
        scenario = random_tiny_scenario(0, robots_range=(3, 3), alpha=1)
        solution = solve_rmop(scenario, EXACT)
        for bad in (99, -1):
            doctored = dataclasses.replace(solution, s1_robots=frozenset({bad}))
            assert check_solution(scenario, doctored) == [
                f"robot sets name robot {bad}, outside 0..2"]
