import dataclasses
import itertools
import math

import numpy as np
import pytest

from rmop.graph import Scenario, generate_scenario
from rmop.reward import RewardModel, eval_team, eval_vertex_set
from rmop.orienteering import OpSolverConfig, SizeGuardError, solve_op_exact
from rmop.planner import solve_rmop
from rmop.attack import worst_case_attack
from rmop.bench import (ExperimentSpec, bound_report, naive_greedy_baseline, plan,
                        records_to_csv, rmop_bound, run_experiment, sga_bound, summarize)

from helpers import (line_instance, line_scenario, oracle_max_min, random_tiny_scenario,
                     vertex_cells)
from oracles import brute_force_rmop, enumerate_feasible_paths

EXACT = OpSolverConfig(method="exact")


class TestNaiveGreedy:
    def test_hand_trace_on_line_instance(self):
        # Reward order 5, 4, 3: takes the 5 (fits), skips the 4 (3.236 over
        # budget from there), takes the 3 (lands exactly on budget).
        scenario = line_scenario(n_robots=1, alpha=0)
        paths = naive_greedy_baseline(scenario)
        assert paths[0].vertices == (0, 1, 2)
        assert paths[0].cost == pytest.approx(2.0)

    def test_zero_budget(self):
        scenario = line_scenario(n_robots=2, alpha=0, budget=0.0)
        for p in naive_greedy_baseline(scenario):
            assert p.vertices == (p.vertices[0],)

    def test_no_coordination_identical_starts_identical_paths(self):
        scenario = line_scenario(n_robots=2, alpha=0)
        a, b = naive_greedy_baseline(scenario)
        assert a.vertices == b.vertices


class TestBoundFormulas:
    def test_sga_bound_values(self):
        assert sga_bound(0.0, 0.0, 1.0) == pytest.approx(0.5)
        assert sga_bound(0.0, 0.0, 4.0) == pytest.approx(0.2)
        assert sga_bound(0.5, 0.5, 1.0) == pytest.approx(0.25)

    def test_rmop_bound_values(self):
        assert rmop_bound(0.0, 0.0, 1.0, alpha=1, n_robots=3) == pytest.approx(0.5)
        eta = 2.0 / (1.0 - math.exp(-1.0))
        expected = 1.0 / (1.0 + eta)
        assert rmop_bound(0.0, 0.0, eta, alpha=1, n_robots=3) == pytest.approx(expected)
        assert rmop_bound(0.0, 0.0, eta, alpha=1, n_robots=3) == pytest.approx(0.2402, abs=1e-4)
        assert rmop_bound(0.5, 0.0, 1.0, alpha=3, n_robots=10) == pytest.approx(1.0 / 6.0)

    def test_curvature_one_rejected(self):
        with pytest.raises(ValueError, match="strictly less than 1"):
            sga_bound(1.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="strictly less than 1"):
            rmop_bound(0.0, 1.0, 1.0, alpha=1, n_robots=2)

    def test_alpha_bounds_enforced(self):
        with pytest.raises(ValueError, match="alpha"):
            rmop_bound(0.0, 0.0, 1.0, alpha=0, n_robots=2)
        with pytest.raises(ValueError, match="alpha"):
            rmop_bound(0.0, 0.0, 1.0, alpha=2, n_robots=2)

    def test_eta_below_one_rejected(self):
        with pytest.raises(ValueError, match="eta"):
            sga_bound(0.0, 0.0, 0.9)

    def test_robust_fraction_never_exceeds_sga_fraction_when_curvature_rules(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            alpha = int(rng.integers(1, n))
            k_f = float(rng.uniform(0.0, 0.999))
            k_g = float(rng.uniform(0.0, 0.999))
            eta = float(rng.uniform(1.0, 5.0))
            if 1.0 - k_f >= max(1.0 / (alpha + 1), 1.0 / (n - alpha)):
                assert rmop_bound(k_f, k_g, eta, alpha, n) <= sga_bound(k_f, k_g, eta) + 1e-12


class TestBoundReport:
    def test_report_carries_surrogate_note(self):
        scenario = line_scenario()
        solution = solve_rmop(scenario, EXACT)
        model = RewardModel.from_scenario(scenario)
        # Both robots end on the same path here, so k_f degenerates to 1.
        with pytest.raises(ValueError, match="strictly less than 1"):
            bound_report(model, solution, 1.0, scenario.alpha, scenario.n_robots)

    def test_report_on_separated_instance(self):
        # Seed 52 gives distinct paths, so the path-curvature stays below 1.
        scenario = random_tiny_scenario(52, robots_range=(3, 3), alpha=1)
        solution = solve_rmop(scenario, EXACT)
        model = RewardModel.from_scenario(scenario)
        report = bound_report(model, solution, 1.0, scenario.alpha, scenario.n_robots)
        assert 0.0 < report.robust_fraction <= 1.0
        assert 0.0 < report.sga_fraction <= 1.0
        assert report.k_g == 0.0
        assert "ground set" in report.k_f_ground_set_note


class TestBruteForceOracles:
    def test_mop_on_line_instance(self):
        scenario = line_scenario(n_robots=2, alpha=0)
        value, witness = brute_force_rmop(scenario.with_alpha(0))
        assert value == 12.0
        model = RewardModel.from_scenario(scenario)
        assert eval_team(model, witness) == 12.0
        # Independent permutation-based enumeration agrees.
        assert oracle_max_min(scenario.graph, vertex_cells(scenario.graph), [0, 0], 2.0,
                              alpha=0) == 12.0

    def test_mop_single_robot_equals_exact_solver(self):
        scenario = line_scenario(n_robots=1, alpha=0)
        value, _ = brute_force_rmop(scenario.with_alpha(0))
        model = RewardModel.from_scenario(scenario)
        path = solve_op_exact(scenario.graph, model, 0, scenario.budget)
        assert value == eval_vertex_set(model, path.vertices)

    def test_mop_all_zero_rewards(self):
        graph, _ = line_instance()
        verts = [dataclasses.replace(v, reward=0.0) for v in graph.vertices]
        from rmop.graph import MetricGraph
        zero = Scenario(graph=MetricGraph(verts), starts=(0, 0),
                        budget=2.0, alpha=0, reward_kind="modular")
        assert brute_force_rmop(zero.with_alpha(0))[0] == 0.0

    def test_rmop_on_line_instance(self):
        scenario = line_scenario(n_robots=2, alpha=1)
        value, witness = brute_force_rmop(scenario)
        assert value == 8.0
        assert len(witness) == 2

    def test_rmop_zero_budget_forces_starts(self):
        graph, model = line_instance()
        scenario = Scenario(graph=graph, starts=(1, 2), budget=0.0, alpha=1,
                            reward_kind="modular")
        # Paths are pinned to the starts; the adversary drops the 5-vertex.
        assert brute_force_rmop(scenario)[0] == 3.0

    def test_rmop_matches_independent_oracle(self):
        for trial in range(15):
            scenario = random_tiny_scenario(14_000 + trial, n_range=(4, 5),
                                            robots_range=(2, 2), budget_range=(0.4, 0.8),
                                            kind="coverage" if trial % 2 else "modular")
            expected = oracle_max_min(scenario.graph,
                                      vertex_cells(scenario.graph, scenario.reward_kind),
                                      scenario.starts, scenario.budget, scenario.alpha)
            assert brute_force_rmop(scenario)[0] == pytest.approx(expected, abs=1e-9)

    def test_guard_trips_on_large_products(self):
        scenario = line_scenario(n_robots=2, alpha=1)
        with pytest.raises(SizeGuardError, match="guard"):
            brute_force_rmop(scenario, max_product=2)

    def test_guard_trips_on_wide_reward_tables(self):
        scenario = generate_scenario(24, 2, 1, 1.0, seed=6)
        with pytest.raises(SizeGuardError, match="table"):
            brute_force_rmop(scenario)

    def test_path_enumeration_counts_on_line_instance(self):
        graph, _ = line_instance()
        paths = enumerate_feasible_paths(graph, 0, 2.0)
        assert {p[0] for p in paths} == {(0,), (0, 1), (0, 1, 2), (0, 2), (0, 3)}

    def test_optimum_dominates_planner_residuals(self):
        for trial in range(15):
            scenario = random_tiny_scenario(15_000 + trial)
            model = RewardModel.from_scenario(scenario)
            f_star, _ = brute_force_rmop(scenario)
            solution = solve_rmop(scenario, EXACT)
            residual = worst_case_attack(model, solution, scenario.alpha).residual
            assert f_star >= residual - 1e-9

    def test_unattacked_optimum_of_coverage_robots_dominates_f_star(self):
        # The best the coverage group alone could do, with no adversary,
        # upper-bounds the optimal worst-case value.
        for trial in range(10):
            scenario = random_tiny_scenario(16_000 + trial)
            solution = solve_rmop(scenario, EXACT)
            f_star, _ = brute_force_rmop(scenario)
            s2_starts = [scenario.starts[i] for i in sorted(solution.s2_robots)]
            sub = Scenario(graph=scenario.graph, starts=tuple(s2_starts),
                           budget=scenario.budget, alpha=0,
                           reward_kind=scenario.reward_kind)
            q_value, _ = brute_force_rmop(sub.with_alpha(0))
            assert q_value >= f_star - 1e-9


def small_spec(**overrides):
    doc = {
        "scenario": {"vertices": 12, "robots": 3, "budget": 30.0, "layout": "grid",
                     "bumps": 2, "seed": 4},
        "planners": ["rmop", "sga"],
        "attacks": [{"model": "worst", "sizes": [1]}],
        "trials": 2,
        "seed": 99,
        "subroutine": "gcb",
    }
    doc.update(overrides)
    return doc


class TestExperimentHarness:
    def test_record_cardinality(self):
        spec = ExperimentSpec.from_document(small_spec())
        records = run_experiment(spec, measure_time=False)
        assert len(records) == 2 * 2 * 1  # trials x planners x sizes

    def test_deterministic_per_master_seed(self):
        spec = ExperimentSpec.from_document(small_spec())
        a = run_experiment(spec, measure_time=False)
        b = run_experiment(spec, measure_time=False)
        assert a == b
        assert records_to_csv(a) == records_to_csv(b)

    def test_timing_is_the_only_unstable_column(self):
        spec = ExperimentSpec.from_document(small_spec())
        a = run_experiment(spec, measure_time=True)
        b = run_experiment(spec, measure_time=True)
        strip = lambda rs: [dataclasses.replace(r, plan_ms=0.0) for r in rs]
        assert strip(a) == strip(b)

    def test_residual_never_exceeds_team_reward(self):
        spec = ExperimentSpec.from_document(small_spec(
            attacks=[{"model": "worst", "sizes": [1, 2]},
                     {"model": "random", "sizes": [1]},
                     {"model": "greedy", "sizes": [2]}],
            planners=["rmop", "sga", "ng"]))
        for r in run_experiment(spec, measure_time=False):
            assert r.residual <= r.f_S + 1e-9

    def test_partial_attacks_plan_once_at_planned_alpha(self):
        spec = ExperimentSpec.from_document(small_spec(
            attacks=[{"model": "partial", "sizes": [0, 1, 2], "planned_alpha": 2}],
            planners=["rmop"]))
        records = run_experiment(spec, measure_time=False)
        assert len(records) == 2 * 3
        by_trial = {}
        for r in records:
            by_trial.setdefault(r.trial, set()).add(r.f_S)
        for values in by_trial.values():
            assert len(values) == 1  # same plan scored under every actual size

    def test_csv_shape(self):
        spec = ExperimentSpec.from_document(small_spec())
        text = records_to_csv(run_experiment(spec, measure_time=False))
        lines = text.strip().split("\r\n")
        assert lines[0] == "trial,planner,attack_model,attack_size,f_S,residual,plan_ms,loop_iters"
        assert len(lines) == 1 + 4

    def test_zero_trials_gives_header_only(self):
        spec = ExperimentSpec.from_document(small_spec(trials=0))
        text = records_to_csv(run_experiment(spec, measure_time=False))
        assert text == "trial,planner,attack_model,attack_size,f_S,residual,plan_ms,loop_iters\r\n"

    def test_summary_groups(self):
        spec = ExperimentSpec.from_document(small_spec())
        summary = summarize(run_experiment(spec, measure_time=False))
        groups = {(g["planner"], g["attack_size"]): g for g in summary["groups"]}
        assert set(groups) == {("rmop", 1), ("sga", 1)}
        for g in groups.values():
            assert g["trials"] == 2
            assert g["variance_residual"] >= 0.0

    def test_unknown_planner_rejected(self):
        with pytest.raises(ValueError, match="unknown planner"):
            ExperimentSpec.from_document(small_spec(planners=["rmop", "magic"]))

    def test_partial_requires_planned_alpha(self):
        with pytest.raises(ValueError, match="planned_alpha"):
            ExperimentSpec.from_document(small_spec(
                attacks=[{"model": "partial", "sizes": [1]}]))

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment keys"):
            ExperimentSpec.from_document(small_spec(plot=True))

    def test_scenario_file_source(self, tmp_path):
        from rmop.graph import dump_scenario
        scenario = generate_scenario(10, 3, 1, 8.0, seed=2)
        path = tmp_path / "s.json"
        path.write_bytes(dump_scenario(scenario))
        spec = ExperimentSpec.from_document(small_spec(scenario={"path": str(path)}))
        records = run_experiment(spec, measure_time=False)
        assert len(records) == 4

    def test_plan_dispatch_names(self):
        scenario = generate_scenario(10, 3, 1, 8.0, seed=2)
        for name in ("rmop", "sga", "ng"):
            solution = plan(name, scenario, OpSolverConfig(method="gcb"))
            assert solution.n_robots == 3
        with pytest.raises(ValueError):
            plan("magic", scenario, OpSolverConfig(method="gcb"))
