import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rmop.bench import PLANNER_NAMES, _derived_seed, plan
from rmop.graph import Path, ScenarioError, generate_scenario, resample_starts
from rmop.reward import RewardModel, eval_team
from rmop.orienteering import OpSolverConfig, SizeGuardError
from rmop.planner import Solution, sga, solve_rmop
import rmop.attack
from rmop.attack import (ATTACK_MODELS, greedy_attack, random_attack, run_attack,
                         worst_case_attack)

from helpers import random_tiny_scenario, reward_model
from oracles import drawn_random_attack, enumerated_worst_attack, stepwise_greedy_attack

GCB = OpSolverConfig(method="gcb")


def disjoint_solution():
    """Three robots on vertex-disjoint single-vertex collections: 10, 7, 3."""
    model = reward_model([10.0, 7.0, 3.0])
    paths = (Path(0, (0,), 0.0), Path(1, (1,), 0.0), Path(2, (2,), 0.0))
    return model, Solution(paths)


def shared_solution():
    """Two robots share one 5-reward vertex; a third holds a 3-reward vertex."""
    model = reward_model([5.0, 3.0])
    paths = (Path(0, (0,), 0.0), Path(1, (0,), 0.0), Path(2, (1,), 0.0))
    return model, Solution(paths)


class TestWorstCaseAttack:
    def test_disjoint_removes_largest(self):
        model, solution = disjoint_solution()
        outcome = worst_case_attack(model, solution, 1)
        assert outcome.removed == {0}
        assert outcome.residual == 10.0

    def test_disjoint_removes_top_two(self):
        model, solution = disjoint_solution()
        outcome = worst_case_attack(model, solution, 2)
        assert outcome.removed == {0, 1}
        assert outcome.residual == 3.0

    def test_shared_vertex_minimizer(self):
        # Enumerating the three singleton removals: dropping either sharer
        # leaves 8, dropping the loner leaves 5, so the loner goes.
        model, solution = shared_solution()
        checks = {}
        for r in range(3):
            survivors = [p for p in solution.paths if p.robot != r]
            checks[r] = eval_team(model, survivors)
        assert checks == {0: 8.0, 1: 8.0, 2: 5.0}
        outcome = worst_case_attack(model, solution, 1)
        assert outcome.removed == {2}
        assert outcome.residual == 5.0

    def test_size_zero_keeps_everything(self):
        model, solution = disjoint_solution()
        outcome = worst_case_attack(model, solution, 0)
        assert outcome.removed == frozenset()
        assert outcome.residual == 20.0

    def test_size_must_leave_a_survivor(self):
        model, solution = disjoint_solution()
        with pytest.raises(ValueError, match="attack size"):
            worst_case_attack(model, solution, 3)
        with pytest.raises(ValueError, match="must be non-negative"):
            worst_case_attack(model, solution, -1)

    def test_guard_admits_exactly_its_own_count(self, monkeypatch):
        model, solution = disjoint_solution()
        monkeypatch.setattr(rmop.attack, "SUBSET_GUARD", math.comb(3, 2))
        assert worst_case_attack(model, solution, 2).removed == {0, 1}
        monkeypatch.setattr(rmop.attack, "SUBSET_GUARD", math.comb(3, 2) - 1)
        with pytest.raises(SizeGuardError):
            worst_case_attack(model, solution, 2)

    def test_enumeration_guard(self):
        # C(24, 12) = 2,704,156 removal subsets is above SUBSET_GUARD, so the
        # attack refuses before enumerating any of them.
        model = reward_model([1.0] * 24)
        solution = Solution(tuple(Path(r, (r,), 0.0) for r in range(24)))
        with pytest.raises(SizeGuardError, match="guard of 1000000"):
            worst_case_attack(model, solution, 12)

    def test_tie_breaks_to_lexicographically_smallest(self):
        model = reward_model([4.0, 4.0])
        paths = (Path(0, (0,), 0.0), Path(1, (1,), 0.0))
        solution = Solution(paths)
        assert worst_case_attack(model, solution, 1).removed == {0}


class TestGreedyAttack:
    def test_matches_exhaustive_on_disjoint_modular(self):
        model, solution = disjoint_solution()
        outcome = greedy_attack(model, solution, 2)
        assert outcome.removed == {0, 1}
        assert outcome.residual == 3.0

    def test_size_zero(self):
        model, solution = disjoint_solution()
        outcome = greedy_attack(model, solution, 0)
        assert outcome.removed == frozenset()
        assert outcome.residual == 20.0

    def test_never_below_exhaustive_on_random_coverage_teams(self):
        for trial in range(25):
            scenario = random_tiny_scenario(12_000 + trial, kind="coverage",
                                            robots_range=(3, 3))
            model = RewardModel.from_scenario(scenario)
            solution = solve_rmop(scenario, GCB)
            for size in range(scenario.n_robots):
                worst = worst_case_attack(model, solution, size).residual
                greedy = greedy_attack(model, solution, size).residual
                assert greedy >= worst - 1e-9

    def test_a_tie_at_step_two_goes_to_the_smaller_id(self):
        # Step 1 removes robot 0 (9) alone; step 2 then ties robots 1 and 3 (5 each) at
        # residual 6, and robot 1 goes.
        model = reward_model([9.0, 5.0, 1.0, 5.0])
        solution = Solution(tuple(Path(r, (r,), 0.0) for r in range(4)))
        assert greedy_attack(model, solution, 1).removed == {0}
        outcome = greedy_attack(model, solution, 2)
        assert (outcome.removed, outcome.residual) == ({0, 1}, 6.0)


class TestRandomAttack:
    def test_deterministic_per_seed(self):
        model, solution = disjoint_solution()
        a = random_attack(model, solution, 2, seed=5)
        b = random_attack(model, solution, 2, seed=5)
        assert a == b
        assert a.seed == 5

    def test_size_zero(self):
        model, solution = disjoint_solution()
        assert random_attack(model, solution, 0, seed=1).residual == 20.0

    def test_nearly_full_attack_leaves_one_survivor(self):
        model, solution = disjoint_solution()
        outcome = random_attack(model, solution, 2, seed=3)
        assert len(outcome.removed) == 2
        survivors = {0, 1, 2} - outcome.removed
        assert len(survivors) == 1

    def test_seed_zero_is_accepted(self):
        model, solution = disjoint_solution()
        assert run_attack("random", model, solution, 1, seed=0) == random_attack(
            model, solution, 1, seed=0)

    def test_never_beats_the_exhaustive_adversary(self):
        model, solution = shared_solution()
        worst = worst_case_attack(model, solution, 1).residual
        for seed in range(1000):
            assert random_attack(model, solution, 1, seed=seed).residual >= worst


class TestPartialWorstAttack:
    def test_full_strength_equals_worst_case(self):
        model, solution = disjoint_solution()
        partial = run_attack("partial", model, solution, 2, planned_alpha=2)
        worst = worst_case_attack(model, solution, 2)
        assert partial.removed == worst.removed
        assert partial.residual == worst.residual
        assert partial.model == "partial"

    def test_zero_actual_size(self):
        model, solution = disjoint_solution()
        outcome = run_attack("partial", model, solution, 0, planned_alpha=2)
        assert outcome.residual == 20.0

    def test_actual_size_capped_by_plan(self):
        model, solution = disjoint_solution()
        with pytest.raises(ValueError, match="exceeds"):
            run_attack("partial", model, solution, 2, planned_alpha=1)

    def test_residual_sits_between_full_attack_and_no_attack(self):
        scenario = random_tiny_scenario(777, robots_range=(3, 3), alpha=2)
        model = RewardModel.from_scenario(scenario)
        solution = solve_rmop(scenario, GCB)
        full = worst_case_attack(model, solution, 2).residual
        # Verified by enumeration: minima over nested removal families are ordered.
        for actual in range(0, 3):
            residual = run_attack("partial", model, solution, actual, planned_alpha=2).residual
            assert full - 1e-9 <= residual <= eval_team(model, solution.paths) + 1e-9


class TestRunAttack:
    def test_each_model_matches_its_attack_function(self):
        model, solution = shared_solution()
        expected = {"worst": worst_case_attack(model, solution, 1),
                    "greedy": greedy_attack(model, solution, 1),
                    "random": random_attack(model, solution, 1, seed=4)}
        for name, outcome in expected.items():
            assert run_attack(name, model, solution, 1, seed=4, planned_alpha=1) == outcome
        assert set(ATTACK_MODELS) == set(expected) | {"partial"}

    @pytest.mark.parametrize("name, missing", [("random", "seed"), ("partial", "planned_alpha")])
    def test_missing_argument_rejected(self, name, missing):
        model, solution = disjoint_solution()
        with pytest.raises(ValueError, match=missing):
            run_attack(name, model, solution, 1)

    def test_unknown_model_rejected(self):
        model, solution = disjoint_solution()
        with pytest.raises(ValueError, match="unknown attack model"):
            run_attack("magic", model, solution, 1)

    @pytest.mark.parametrize("attack", [worst_case_attack, greedy_attack,
                                        lambda model, solution, size: random_attack(
                                            model, solution, size, seed=0)],
                             ids=["worst", "greedy", "random"])
    def test_paths_labeled_out_of_order_are_refused(self, attack):
        # Robots 3 and 5 planned alone: removing "robot 0" would remove no path at all.
        # The Solution constructor refuses the plan, so no attack ever scores it.
        scenario = generate_scenario(30, 6, 1, 40.0, seed=3)
        model = RewardModel.from_scenario(scenario)
        paths = sga(scenario, model, GCB, robots=[3, 5])
        with pytest.raises(ScenarioError, match=r"^path 0 is labeled for robot 3$"):
            attack(model, Solution(paths), 1)


class TestResidualMonotonicity:
    def test_worst_residual_antitone_in_size(self):
        for trial in range(20):
            scenario = random_tiny_scenario(13_000 + trial, robots_range=(3, 3))
            model = RewardModel.from_scenario(scenario)
            solution = solve_rmop(scenario, GCB)
            residuals = [worst_case_attack(model, solution, s).residual
                         for s in range(scenario.n_robots)]
            for a, b in zip(residuals, residuals[1:]):
                assert b <= a + 1e-9


def test_removal_sets_are_pinned():
    # The output pins in tests/test_cli.py digest residuals only, so an attack that chose
    # another minimizer of the same residual would pass them. This digest also covers the
    # removed robots: a row per worst and greedy attack on the plans `run_experiment`
    # builds for those pins (seed 7, one trial), at the same attack sizes.
    rows = []
    for scenario, sizes in ((generate_scenario(96, 10, 0, 60.0, layout="grid", seed=1), 8),
                            (generate_scenario(64, 16, 0, 60.0, layout="uniform", seed=1,
                                               reward_kind="coverage"), 4)):
        scenario = resample_starts(scenario, _derived_seed(7, 0, 101))
        model = RewardModel.from_scenario(scenario)
        plans = {planner: plan(planner, scenario, GCB) for planner in ("sga", "ng")}
        for size in range(1, sizes + 1):
            plans["rmop"] = plan("rmop", scenario.with_alpha(size), GCB)
            for planner in PLANNER_NAMES:
                for attack in (worst_case_attack, greedy_attack):
                    outcome = attack(model, plans[planner], size)
                    rows.append((planner, outcome.model, size, sorted(outcome.removed),
                                 repr(outcome.residual)))
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "a9741f8437e386e4ae71093a06877f231a24e6f0ae450641b6e13375496908c2")


@st.composite
def desk_plans(draw):
    """A team of 1-6 robots on up to 8 vertices, with modular or coverage rewards.

    Weights are integers 0..10, or those divided by 3, so residual sums round and
    near-ties are decided by the order in which the evaluator adds.
    """
    n_vertices = draw(st.integers(1, 8))
    divisor = draw(st.sampled_from([1.0, 3.0]))
    weight = st.integers(0, 10).map(lambda w: w / divisor)
    if draw(st.booleans()):
        model = reward_model([draw(weight) for _ in range(n_vertices)])
    else:
        n_cells = draw(st.integers(1, 6))
        weights = [draw(weight) for _ in range(n_cells)]
        model = reward_model(cells=[[(c, weights[c]) for c in sorted(
            draw(st.sets(st.integers(0, n_cells - 1))))] for _ in range(n_vertices)])
    visits = st.lists(st.integers(0, n_vertices - 1), min_size=1, max_size=4, unique=True)
    return model, Solution(tuple(Path(r, tuple(draw(visits)), 0.0)
                                 for r in range(draw(st.integers(1, 6)))))


def _bits(outcome):
    return sorted(outcome.removed), outcome.residual.hex(), outcome.model, outcome.seed


@settings(max_examples=200, deadline=None)
@given(desk_plans(), st.integers(0, 2 ** 32 - 1))
def test_every_attack_matches_its_reference_at_every_size(plan, seed):
    model, solution = plan
    for size in range(solution.n_robots):
        assert _bits(worst_case_attack(model, solution, size)) == _bits(
            enumerated_worst_attack(model, solution, size))
        assert _bits(greedy_attack(model, solution, size)) == _bits(
            stepwise_greedy_attack(model, solution, size))
        assert _bits(random_attack(model, solution, size, seed)) == _bits(
            drawn_random_attack(model, solution, size, seed))


@pytest.mark.parametrize("size", range(5))
def test_eval_team_calls_per_attack(size, monkeypatch):
    # Worst scores each removal once, random its one draw, and greedy the n - k
    # extensions at each step k; none scores its answer again. Size 0 scores the team once.
    model = reward_model([float(v + 1) for v in range(5)])
    solution = Solution(tuple(Path(r, (r,), 0.0) for r in range(5)))
    calls = []
    monkeypatch.setattr(rmop.attack, "eval_team", lambda *args: calls.append(1) or eval_team(*args))
    expected = {"worst": math.comb(5, size), "random": 1,
                "greedy": sum(5 - k for k in range(size)) or 1}
    for name, cap in expected.items():
        calls.clear()
        run_attack(name, model, solution, size, seed=3)
        assert len(calls) == cap, name
