import dataclasses
import hashlib
import itertools

import numpy as np
import pytest

import rmop.planner
from rmop.bench import PLANNER_NAMES, _derived_seed, plan
from rmop.graph import (REWARD_KINDS, MetricGraph, Path, Scenario, Vertex, generate_scenario,
                        path_cost, resample_starts, verify_metric)
from rmop.reward import RewardModel, eval_team, eval_vertex_set
from rmop.orienteering import OpSolverConfig, solve_op, solve_op_exact
from rmop.planner import (INVARIANT_TOL, Solution, check_solution, sga, solve_rmop,
                          solve_sga)
from rmop.attack import worst_case_attack

from helpers import (line_instance, line_scenario, oracle_max_min, oracle_rooted_paths,
                     oracle_team_value, random_tiny_scenario, reward_model, vertex_cells)

EXACT = OpSolverConfig(method="exact")
GCB = OpSolverConfig(method="gcb")


class TestSga:
    def test_two_robots_on_line_instance(self):
        _, model = line_instance()
        scenario = line_scenario(alpha=0)
        paths = sga(scenario, model, EXACT)
        assert paths[0].vertices == (0, 1, 2)
        assert paths[1].vertices == (0, 3)
        assert [p.robot for p in paths] == [0, 1]
        assert eval_team(model, paths) == 12.0
        # Each robot's gain is its increment over the vertices of the robots before it.
        prefixes = [eval_vertex_set(model, {v for p in paths[:k] for v in p.vertices})
                    for k in range(len(paths) + 1)]
        assert np.diff(prefixes).tolist() == [8.0, 4.0]
        # Exhaustive check: no pair of rooted budget-2 paths beats 12.
        best = oracle_max_min(scenario.graph, vertex_cells(scenario.graph), [0, 0], 2.0, alpha=0)
        assert best == 12.0

    def test_single_robot_equals_bare_solver(self):
        graph, model = line_instance()
        paths = sga(line_scenario(n_robots=1, alpha=0), model, EXACT)
        assert paths[0] == solve_op_exact(graph, model, 0, 2.0)

    def test_all_zero_rewards(self):
        model = reward_model([0.0] * 4)
        paths = sga(line_scenario(alpha=0), model, EXACT)
        assert [p.vertices for p in paths] == [(0,), (0,)]
        assert eval_team(model, paths) == 0.0

    def test_robot_labels_follow_argument(self):
        _, model = line_instance()
        paths = sga(line_scenario(n_robots=10, alpha=0), model, EXACT, robots=[4, 9])
        assert [p.robot for p in paths] == [4, 9]

    def test_each_listed_robot_plans_from_its_own_start(self):
        graph, model = line_instance()
        scenario = Scenario(graph=graph, starts=(1, 2, 3), budget=2.0, alpha=0,
                            reward_kind="modular")
        paths = sga(scenario, model, EXACT, robots=[2, 0])
        assert [p.robot for p in paths] == [2, 0]
        assert [p.vertices[0] for p in paths] == [3, 1]
        assert paths[0] == solve_op_exact(graph, model, 3, 2.0, robot=2)
        assert paths[1] == solve_op_exact(graph, model.with_masked(paths[0].vertices), 1, 2.0,
                                          robot=0)

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_robot_ids_outside_the_team_are_refused(self, bad, monkeypatch):
        graph, model = line_instance()
        scenario = Scenario(graph=graph, starts=(1, 2, 3), budget=2.0, alpha=0,
                            reward_kind="modular")

        def refuse(*args, **kwargs):
            raise AssertionError("solved before the ids were checked")

        monkeypatch.setattr(rmop.planner, "solve_op", refuse)
        with pytest.raises(ValueError, match=rf"^robot id {bad} out of range 0\.\.2$"):
            sga(scenario, model, EXACT, robots=[0, bad])

    def test_a_repeated_robot_id_is_refused(self, monkeypatch):
        graph, model = line_instance()
        scenario = Scenario(graph=graph, starts=(1, 2, 3), budget=2.0, alpha=0,
                            reward_kind="modular")

        def refuse(*args, **kwargs):
            raise AssertionError("solved before the ids were checked")

        monkeypatch.setattr(rmop.planner, "solve_op", refuse)
        with pytest.raises(ValueError, match=r"^robot id 0 is listed more than once$"):
            sga(scenario, model, EXACT, robots=[0, 0])


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

    def test_looping_improves_the_redundancy_paths(self):
        # With the approximate subroutine the reassignment loop occasionally
        # fires (the masked run can stumble onto a path that scores better
        # unmasked than the robot's own independent run). A pool entry is only
        # ever replaced by a better path, so every redundancy path scores at
        # least its robot's independent path, and somewhere in the sweep one
        # scores more. Seed 328 is known to loop, so the property is not vacuous.
        reran = improved = 0
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
                model = RewardModel.from_scenario(scenario)
                for i in solution.s1_robots:
                    alone = solve_op(scenario.graph, model, scenario.starts[i], scenario.budget,
                                     GCB, robot=i)
                    baseline = eval_vertex_set(model, alone.vertices)
                    assert solution.per_path_rewards[i] >= baseline
                    improved += solution.per_path_rewards[i] > baseline
        assert reran >= 1
        assert improved >= 1

    def test_a_coverage_path_that_only_ties_the_weakest_redundancy_path_is_not_pooled(self):
        # Shortest-path metric of the edges below, budget 5. Robots 3 (10) and 4 and 5 (5
        # each, one start) form the redundancy set, so T = 5. Coverage robots 0, 1, 2 start
        # at 0, 3 and 6. Clean, robots 1 and 2 first take the 1 beside their start, which
        # leaves no budget for the 3s, so each keeps a single hop worth 3. Robot 0 collects
        # both 1s, and on that masked map robot 1 finds 3 + 3 = 6 > T, so the loop repeats,
        # and robot 2 finds 2 + 3 = 5, which only ties T. Only the better path enters the
        # pool: had robot 2's 5 replaced its 3, it would win the tie with robots 4 and 5 by
        # id and take robot 4's place in the next redundancy set.
        rewards = [0, 1, 1, 0, 3, 3, 0, 2, 3, 0, 10, 0, 5]
        n = len(rewards)
        dist = np.full((n, n), 1000.0)
        np.fill_diagonal(dist, 0.0)
        for a, b, w in [(0, 1, 1), (0, 2, 1), (3, 1, 1), (3, 4, 4), (4, 5, 1), (6, 2, 1),
                        (6, 7, 4), (7, 8, 1), (9, 10, 1), (11, 12, 1)]:
            dist[a, b] = dist[b, a] = w
        for k in range(n):
            dist = np.minimum(dist, dist[:, k:k + 1] + dist[k:k + 1, :])
        graph = MetricGraph([Vertex(i, float(i), 0.0, float(r)) for i, r in enumerate(rewards)],
                            dist)
        assert verify_metric(graph).ok
        scenario = Scenario(graph, (0, 3, 6, 9, 11, 11), 5.0, 3)
        solution = solve_rmop(scenario, GCB)
        assert check_solution(scenario, solution) == []
        assert (solution.s1_robots, solution.loop_iterations) == ({1, 3, 4}, 2)
        assert [p.vertices for p in solution.paths] == [
            (0, 2, 1), (3, 4, 5), (6, 7, 8), (9, 10), (11, 12), (11, 12)]


@pytest.mark.parametrize("solver", [GCB, EXACT], ids=["gcb", "exact"])
@pytest.mark.parametrize("planner", PLANNER_NAMES)
def test_stored_costs_are_the_path_cost_fold(planner, solver):
    # Every planner stores the cost that path_cost recomputes, bit for bit, on maps with
    # their Euclidean matrix and with an explicit Manhattan one.
    for seed in range(4):
        scenario = generate_scenario(12, 4, 2, 70.0, layout="uniform", seed=seed,
                                     reward_kind=REWARD_KINDS[seed % 2])
        vertices = scenario.graph.vertices
        manhattan = [[abs(u.x - v.x) + abs(u.y - v.y) for v in vertices] for u in vertices]
        for graph in (scenario.graph, MetricGraph(vertices, manhattan)):
            solution = plan(planner, dataclasses.replace(scenario, graph=graph), solver)
            for path in solution.paths:
                assert path.cost == path_cost(graph, path.vertices)


def test_reassignment_loops_are_pinned():
    # The one-trial output pins never loop, so they never reach the swap branch of
    # solve_rmop. These benchmark plans do (seed 7, starts as `run_experiment` resamples
    # them): crossover trial 2 at attack sizes 4-7 loops twice, coverage trial 1 at sizes
    # 3 and 4 loops twice and three times. The digest covers every path they plan.
    rows = []
    for base, trial, sizes in (
            (generate_scenario(96, 10, 0, 60.0, layout="grid", seed=1), 2, range(4, 8)),
            (generate_scenario(64, 16, 0, 60.0, layout="uniform", seed=1,
                               reward_kind="coverage"), 1, range(3, 5))):
        scenario = resample_starts(base, _derived_seed(7, trial, 101))
        for size in sizes:
            solution = solve_rmop(scenario.with_alpha(size), GCB)
            assert solution.loop_iterations >= 2
            rows.append((scenario.starts, [(p.robot, p.vertices, repr(p.cost))
                                           for p in solution.paths],
                         sorted(solution.s1_robots), solution.loop_iterations))
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "5cab87272154f736ca83f589bf6096d26fcea5a9a8947b1d637075c111eca343")


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

    @pytest.mark.parametrize("field", ["cost", "reward", "team reward"])
    @pytest.mark.parametrize("off, flagged", [(INVARIANT_TOL, False), (2 * INVARIANT_TOL, True)])
    def test_stored_value_tolerance_boundary(self, field, off, flagged):
        # One robot stays on a reward-0 vertex: true cost and rewards are 0.0, so the stored
        # value is off by exactly INVARIANT_TOL, or by twice it.
        scenario = Scenario(MetricGraph([Vertex(0, 0.0, 0.0, 0.0)]), starts=(0,), budget=1.0,
                            alpha=0)
        stored = {"cost": 0.0, "reward": 0.0, "team reward": 0.0, field: off}
        solution = Solution(paths=(Path(0, (0,), stored["cost"]),), s1_robots=frozenset(),
                            s2_robots=frozenset({0}), team_reward=stored["team reward"],
                            loop_iterations=0, per_path_rewards=(stored["reward"],))
        problems = check_solution(scenario, solution)
        if flagged:
            assert len(problems) == 1 and f"stored {field} {off} differs" in problems[0], problems
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
