"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run `pytest tests/test_acceptance.py -s` to watch the lines as they appear.
Everything is seeded, so reruns are bit-for-bit repeatable. The reassignment
loop statistics are gathered across the whole module and reported by the
final test, so keep that test last.
"""

import functools
import statistics
import time
import warnings

import numpy as np

from rmop.graph import Scenario, generate_scenario, resample_starts
from rmop.reward import (RewardModel, eval_team, eval_vertex_set, team_curvature,
                         vertex_curvature)
from rmop.orienteering import OpSolverConfig
from rmop.planner import LOOP_CAP_PER_ROBOT, solve_rmop, solve_sga
from rmop.attack import greedy_attack, worst_case_attack
from rmop.bench import ExperimentSpec, rmop_bound, run_experiment, sga_bound, summarize

from helpers import random_tiny_scenario
from oracles import brute_force_rmop

TOL = 1e-9
EXACT = OpSolverConfig(method="exact")
GCB = OpSolverConfig(method="gcb")

# Every robust-planner run in this module lands here; the final test reports
# the single-iteration rate.
LOOP_RECORDS: list[tuple[int, int]] = []  # (iterations, n_robots)


def _report(name, ok, detail=""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _solve_rmop_tracked(scenario, solver):
    solution = solve_rmop(scenario, solver)
    if scenario.alpha >= 1:
        LOOP_RECORDS.append((solution.loop_iterations, scenario.n_robots))
    return solution


def _bound_family(count):
    """Tiny instances mixing reward kinds; half are conditioned to keep the
    curvature surrogates away from 1 so the guarantee checks stay sharp."""
    out = []
    for i in range(count):
        kind = "coverage" if i % 2 else "modular"
        conditioned = i % 4 >= 2
        out.append(random_tiny_scenario(
            20_000 + i, kind=kind,
            distinct_starts=conditioned, private_cells=conditioned))
    return out


@functools.lru_cache(maxsize=None)
def _solved_bound_family():
    """(scenario, model, rmop solution, worst residual, k_g) for 120 instances."""
    out = []
    for scenario in _bound_family(120):
        model = RewardModel.from_scenario(scenario)
        solution = _solve_rmop_tracked(scenario, EXACT)
        residual = worst_case_attack(model, solution, scenario.alpha).residual
        k_g = vertex_curvature(model)
        out.append((scenario, model, solution, residual, k_g))
    return out


def test_criterion_1_robust_guarantee_holds():
    """Worst-case residual is at least the guarantee fraction of the true
    max-min optimum, with the exact subroutine and surrogate curvatures."""
    t0 = time.perf_counter()
    violations = 0
    degenerate = 0
    checked = 0
    for scenario, model, solution, residual, k_g in _solved_bound_family():
        k_f = team_curvature(model, solution.paths)
        f_star, _ = brute_force_rmop(scenario)
        if k_f >= 1.0 or k_g >= 1.0:
            # Fully redundant paths or vertices: the fraction's limit is 0,
            # so the guarantee is vacuous here; count it, don't fake it.
            degenerate += 1
            bound = 0.0
        else:
            bound = rmop_bound(k_f, k_g, 1.0, scenario.alpha, scenario.n_robots)
        checked += 1
        if residual < bound * f_star - TOL:
            violations += 1
    elapsed = time.perf_counter() - t0
    _report("criterion 1 (robust guarantee, exact subroutine)",
            violations == 0 and checked >= 100 and elapsed < 300,
            f"{checked} instances, {violations} violations, "
            f"{checked - degenerate} informative, {elapsed:.1f}s")


def test_criterion_2_sequential_guarantee_holds():
    """Sequential-planner reward is at least the guarantee fraction of the
    brute-force team optimum on the same instance family."""
    t0 = time.perf_counter()
    violations = 0
    degenerate = 0
    checked = 0
    for scenario, model, _, _, k_g in _solved_bound_family():
        solution = solve_sga(scenario, EXACT)
        k_f = team_curvature(model, solution.paths)
        q_star, _ = brute_force_rmop(scenario.with_alpha(0))
        if k_f >= 1.0 or k_g >= 1.0:
            degenerate += 1
            bound = 0.0
        else:
            bound = sga_bound(k_f, k_g, 1.0)
        checked += 1
        if solution.team_reward < bound * q_star - TOL:
            violations += 1
    elapsed = time.perf_counter() - t0
    _report("criterion 2 (sequential guarantee, exact subroutine)",
            violations == 0 and checked >= 100 and elapsed < 300,
            f"{checked} instances, {violations} violations, "
            f"{checked - degenerate} informative, {elapsed:.1f}s")


def test_criterion_3_residual_lower_bounds():
    """On every solved instance the worst-case residual dominates each of:
    (1-k_f) f(S2), f(S2)/(alpha+1), and f(S2)/(N-alpha)."""
    violations = 0
    runs = 0

    def check(scenario, model, solution, residual):
        nonlocal violations, runs
        runs += 1
        k_f = team_curvature(model, solution.paths)
        s2_paths = [solution.paths[i] for i in sorted(solution.s2_robots)]
        f_s2 = eval_team(model, s2_paths)
        alpha, n = scenario.alpha, scenario.n_robots
        if residual < (1.0 - k_f) * f_s2 - TOL:
            violations += 1
        if residual < f_s2 / (alpha + 1) - TOL:
            violations += 1
        if residual < f_s2 / (n - alpha) - TOL:
            violations += 1

    for scenario, model, solution, residual, _ in _solved_bound_family():
        check(scenario, model, solution, residual)
    # The same inequalities must hold for the approximate subroutine.
    for i in range(60):
        scenario = random_tiny_scenario(40_000 + i,
                                        kind="coverage" if i % 2 else "modular")
        model = RewardModel.from_scenario(scenario)
        solution = _solve_rmop_tracked(scenario, GCB)
        residual = worst_case_attack(model, solution, scenario.alpha).residual
        check(scenario, model, solution, residual)
    _report("criterion 3 (residual lower bounds)",
            violations == 0, f"{runs} planner runs x 3 inequalities, {violations} violations")


CROSSOVER_SCENARIO_SEED = 1
CROSSOVER_MASTER_SEED = 7


def test_criterion_4_crossover_trend():
    """At the benchmark scale the robust planner overtakes the sequential
    baseline once enough robots are attacked, and the uncoordinated
    baseline trails both everywhere."""
    t0 = time.perf_counter()
    sizes = [1, 2, 3, 4, 5, 6, 7, 8]
    doc = {
        "scenario": {"vertices": 96, "robots": 10, "budget": 60.0, "layout": "grid",
                     "bumps": 3, "seed": CROSSOVER_SCENARIO_SEED},
        "planners": ["rmop", "sga", "ng"],
        "attacks": [{"model": "worst", "sizes": sizes},
                    {"model": "greedy", "sizes": sizes}],
        "trials": 20,
        "seed": CROSSOVER_MASTER_SEED,
    }
    records = run_experiment(ExperimentSpec.from_document(doc), measure_time=False)
    for r in records:
        if r.planner == "rmop" and r.attack_size >= 1:
            LOOP_RECORDS.append((r.loop_iters, 10))
    means = {}
    for g in summarize(records)["groups"]:
        means[(g["planner"], g["attack_model"], g["attack_size"])] = g["mean_residual"]

    problems = []
    for attack in ("worst", "greedy"):
        for a in (6, 7, 8):
            if means[("rmop", attack, a)] < means[("sga", attack, a)]:
                problems.append(f"rmop below sga at alpha={a} ({attack})")
        for a in sizes:
            floor = min(means[("rmop", attack, a)], means[("sga", attack, a)])
            if means[("ng", attack, a)] > floor:
                problems.append(f"ng not dominated at alpha={a} ({attack})")
    elapsed = time.perf_counter() - t0
    crossover_gap = min(means[("rmop", "worst", a)] - means[("sga", "worst", a)]
                        for a in (6, 7, 8))
    _report("criterion 4 (crossover at benchmark scale)",
            not problems and elapsed < 900,
            f"{len(records)} records, min crossover gap {crossover_gap:.0f}, "
            f"{elapsed:.0f}s" + (f"; problems: {problems}" if problems else ""))


def test_criterion_5_alpha_zero_equals_sequential():
    """With no adversary the robust planner is the sequential planner."""
    mismatches = 0
    for i in range(50):
        if i < 25:
            scenario = random_tiny_scenario(50_000 + i,
                                            kind="coverage" if i % 2 else "modular")
            solver = EXACT if i % 3 else GCB
        else:
            scenario = generate_scenario(
                12 + (i % 5) * 4, 3 + i % 3, 0, 40.0 + (i % 4) * 15,
                layout="uniform" if i % 2 else "grid", bumps=2 + i % 2, seed=i,
                reward_kind="coverage" if i % 3 == 0 else "modular")
            solver = GCB
        scenario = Scenario(graph=scenario.graph, starts=scenario.starts,
                            budget=scenario.budget, alpha=0,
                            reward_kind=scenario.reward_kind)
        robust = solve_rmop(scenario, solver)
        sequential = solve_sga(scenario, solver)
        if [p.vertices for p in robust.paths] != [p.vertices for p in sequential.paths]:
            mismatches += 1
    _report("criterion 5 (alpha=0 degenerates to the sequential planner)",
            mismatches == 0, f"50 scenarios, {mismatches} mismatches")


def test_criterion_7_set_function_laws():
    """1000 random set pairs per model: submodularity and monotonicity at
    1e-9; modular curvature exactly 0; curvature always in [0, 1]."""
    rng = np.random.default_rng(2024)
    scenarios = []
    for i in range(3):
        scenarios.append(random_tiny_scenario(60_000 + i, kind="modular", n_range=(6, 8)))
        scenarios.append(random_tiny_scenario(61_000 + i, kind="coverage", n_range=(6, 8)))
    scenarios.append(generate_scenario(30, 4, 1, 40.0, seed=3, reward_kind="coverage"))
    scenarios.append(generate_scenario(30, 4, 1, 40.0, seed=4, reward_kind="modular"))
    models = [(s.reward_kind, RewardModel.from_scenario(s)) for s in scenarios]

    sub_viol = mono_viol = 0
    for _, model in models:
        n = model.n
        for _ in range(1000):
            a = {v for v in range(n) if rng.random() < 0.5}
            b = {v for v in range(n) if rng.random() < 0.5}
            fa, fb = eval_vertex_set(model, a), eval_vertex_set(model, b)
            if fa + fb < eval_vertex_set(model, a | b) + eval_vertex_set(model, a & b) - TOL:
                sub_viol += 1
            if fa > eval_vertex_set(model, a | b) + TOL:
                mono_viol += 1

    curvature_ok = True
    for kind, model in models:
        est = vertex_curvature(model)
        if not 0.0 <= est <= 1.0:
            curvature_ok = False
        if kind == "modular" and est != 0.0:
            curvature_ok = False
    _report("criterion 7 (set-function laws)",
            sub_viol == 0 and mono_viol == 0 and curvature_ok,
            f"{len(models)} models x 1000 pairs, {sub_viol} submodularity and "
            f"{mono_viol} monotonicity violations")


def test_criterion_8_attack_oracle_soundness():
    """No random removal ever beats the exhaustive adversary; the greedy
    adversary never beats it either, and matches it on disjoint modular
    teams."""
    rng = np.random.default_rng(77)
    random_beats = greedy_beats = disjoint_mismatch = 0
    disjoint_cases = 0
    instances = 0
    for i in range(200):
        scenario = random_tiny_scenario(70_000 + i,
                                        kind="coverage" if i % 2 else "modular")
        model = RewardModel.from_scenario(scenario)
        solution = _solve_rmop_tracked(scenario, GCB if i % 2 else EXACT)
        alpha, n = scenario.alpha, scenario.n_robots
        instances += 1
        worst = worst_case_attack(model, solution, alpha).residual
        greedy = greedy_attack(model, solution, alpha).residual
        if greedy < worst - TOL:
            greedy_beats += 1
        for _ in range(1000):
            removed = set(int(r) for r in rng.choice(n, size=alpha, replace=False))
            survivors = [p for p in solution.paths if p.robot not in removed]
            if eval_team(model, survivors) < worst - TOL:
                random_beats += 1
                break
        sets = [frozenset(p.vertices) for p in solution.paths]
        disjoint = all(not (sets[i1] & sets[j1])
                       for i1 in range(n) for j1 in range(i1 + 1, n))
        if scenario.reward_kind == "modular" and disjoint:
            disjoint_cases += 1
            if abs(greedy - worst) > TOL:
                disjoint_mismatch += 1
    _report("criterion 8 (attack oracle soundness)",
            random_beats == 0 and greedy_beats == 0 and disjoint_mismatch == 0,
            f"{instances} instances x 1000 random subsets; "
            f"{disjoint_cases} disjoint-modular cases all matched")


def test_criterion_9_runtime_scaling():
    """Planning time grows with the map and the team, and the robust
    planner never beats its own sequential subroutine.

    Each seeded run times a three-solve batch, runs interleave round-robin
    across configurations so a load spike cannot bias one configuration,
    every configuration gets an untimed warm-up, and the robot sweep slices
    prefixes of one shared start vector so a larger team always does a
    strict superset of the smaller team's work."""
    t0 = time.perf_counter()
    configs = [("V", n, 10) for n in (25, 50, 96)] + [("N", 96, n) for n in (4, 7, 10)]
    samples = {c: ([], []) for c in configs}
    bases = {n: generate_scenario(n, 10, 3, 60.0, layout="grid", bumps=3, seed=13)
             for n in (25, 50, 96)}

    def instance(c, seed):
        _, n_vertices, n_robots = c
        full = resample_starts(bases[n_vertices], seed)
        return full.with_starts(full.starts[:n_robots])

    for c in configs:
        warm = instance(c, 899)
        solve_sga(warm, GCB)
        solve_rmop(warm, GCB)
    for run in range(5):
        for c in configs:
            batch = [instance(c, 900 + 3 * run + k) for k in (0, 1, 2)]
            t1 = time.perf_counter()
            for scenario in batch:
                solve_sga(scenario, GCB)
            samples[c][0].append(time.perf_counter() - t1)
            t1 = time.perf_counter()
            for scenario in batch:
                solve_rmop(scenario, GCB)
            samples[c][1].append(time.perf_counter() - t1)

    def med(c):
        return statistics.median(samples[c][0]), statistics.median(samples[c][1])

    problems = []
    vertex_rows = [med(c) for c in configs[:3]]
    robot_rows = [med(c) for c in configs[3:]]
    for label, rows in (("vertex", vertex_rows), ("robot", robot_rows)):
        for (s1, r1), (s2, r2) in zip(rows, rows[1:]):
            if not (s2 > s1 and r2 > r1):
                problems.append(f"{label} sweep not monotone")
    for s, r in vertex_rows + robot_rows:
        if r < s:
            problems.append("robust planner faster than its sequential subroutine")
    elapsed = time.perf_counter() - t0
    fmt = lambda rows: ", ".join(f"(sga {s * 1e3:.0f}ms, rmop {r * 1e3:.0f}ms)"
                                 for s, r in rows)
    _report("criterion 9 (runtime scaling)", not problems,
            f"|V| sweep: {fmt(vertex_rows)}; N sweep: {fmt(robot_rows)}; "
            f"{elapsed:.0f}s" + (f"; problems: {problems}" if problems else ""))


def test_criterion_6_loop_behavior_last():
    """Reassignment loop always terminated under its cap; the fraction of
    runs settling in one iteration is reported (expected, not fatal)."""
    assert LOOP_RECORDS, "earlier criteria must populate the loop statistics"
    over_cap = sum(1 for iters, n in LOOP_RECORDS if iters > LOOP_CAP_PER_ROBOT * n)
    single = sum(1 for iters, _ in LOOP_RECORDS if iters == 1)
    pct = 100.0 * single / len(LOOP_RECORDS)
    if pct < 95.0:
        warnings.warn(f"only {pct:.1f}% of runs settled in one iteration")
    _report("criterion 6 (reassignment loop behavior)", over_cap == 0,
            f"{len(LOOP_RECORDS)} runs, 0 over cap, {pct:.1f}% single-iteration "
            f"(95% expected, reported only)")
