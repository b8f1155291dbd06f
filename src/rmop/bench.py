"""Baselines, guarantee calculators, and the experiment harness.

Everything a benchmark run needs around the planners: the uncoordinated
greedy baseline, the closed-form worst-case guarantee fractions (which
`cli.solution_document` writes into each robust plan's bound report), and a
seeded trial runner that emits plot-ready records.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .graph import (Path, Scenario, ScenarioError, check_keys, generate_scenario, load_scenario,
                    read_document, read_field, read_ints, resample_starts)
from .reward import IncrementalEval, RewardModel, eval_team
from .orienteering import SUBROUTINES, OpSolverConfig, SizeGuardError, check_exact_size
from .planner import Solution, solve_rmop, solve_sga
from .attack import ATTACK_MODELS, check_subset_guard, run_attack

PLANNER_NAMES = ("rmop", "sga", "ng")

SPEC_SIZE_LIMIT = 1000  # the most vertices, robots or bumps a spec's generated scenario asks for


def naive_greedy_baseline(scenario: Scenario) -> list[Path]:
    """Uncoordinated baseline: every robot chases rewards, ignoring travel cost.

    Each robot independently ranks vertices by their standalone reward (ties
    by id) and repeatedly appends the first unvisited one that still fits
    the budget, stopping when a full scan adds nothing. No masking between
    robots, so identical starts produce identical paths.
    """
    dist = scenario.graph.distance.tolist()
    model = RewardModel.from_scenario(scenario)
    order = np.argsort(-IncrementalEval(model).gains(np.arange(model.n)), kind="stable").tolist()
    paths = []
    for robot, start in enumerate(scenario.starts):
        route = [start]
        cost = 0.0
        visited = {start}
        while True:
            for v in order:
                if v in visited:
                    continue
                step = dist[route[-1]][v]
                if cost + step <= scenario.budget:
                    route.append(v)
                    cost += step
                    visited.add(v)
                    break
            else:
                break
        paths.append(Path(robot=robot, vertices=tuple(route), cost=cost))
    return paths


def sga_bound(k_f: float, k_g: float, eta: float) -> float:
    """Guaranteed fraction of the coordination optimum the sequential planner keeps."""
    for name, k in (("k_f", k_f), ("k_g", k_g)):
        if not 0.0 <= k < 1.0:
            raise ValueError(f"{name} must be non-negative and strictly less than 1, "
                             f"got {k}; at curvature 1 the guarantee degenerates")
    if eta < 1.0:
        raise ValueError(f"eta must be >= 1, got {eta}")
    return 1.0 / (1.0 / (1.0 - k_g) + eta / (1.0 - k_f))


def rmop_bound(k_f: float, k_g: float, eta: float, alpha: int, n_robots: int) -> float:
    """Guaranteed fraction of the optimal worst-case value the robust planner keeps."""
    if not 0 < alpha < n_robots:
        raise ValueError(f"alpha must satisfy 0 < alpha < n_robots, got {alpha} of {n_robots}")
    numerator = max(1.0 - k_f, 1.0 / (alpha + 1), 1.0 / (n_robots - alpha))
    return numerator * sga_bound(k_f, k_g, eta)


@dataclass(frozen=True)
class AttackSpec:
    model: str
    sizes: tuple[int, ...]
    planned_alpha: Optional[int]


@dataclass(frozen=True)
class ExperimentSpec:
    """Parsed experiment document: the base scenario, planners, attacks and trials."""

    planners: tuple[str, ...]
    attacks: tuple[AttackSpec, ...]
    trials: int
    seed: int
    base: Scenario
    subroutine: str

    @classmethod
    def from_document(cls, doc: dict) -> "ExperimentSpec":
        """The one spec reader. It checks keys, planners, subroutine, trials, seed, the scenario
        (built here, so every refusal comes before any trial runs) and attacks, in that order."""
        if not isinstance(doc, dict):
            raise ScenarioError("experiment spec must be a JSON object")
        check_keys(doc, {"scenario", "planners", "attacks", "trials", "seed", "subroutine"},
                   "experiment keys")
        raw_planners = read_field(doc, "planners", list)
        planners: list[str] = []
        for i in range(len(raw_planners)):
            p = read_field(raw_planners, i, str, "planners")
            if p not in PLANNER_NAMES:
                raise ScenarioError(f"unknown planner {p!r}; expected one of {PLANNER_NAMES}")
            if p in planners:  # its records would repeat the first one's
                raise ScenarioError(f"planners[{i}] repeats {p!r} from "
                                    f"planners[{planners.index(p)}]")
            planners.append(p)
        subroutine = read_field(doc, "subroutine", str, default="gcb")
        if subroutine not in SUBROUTINES:
            raise ScenarioError(f"unknown subroutine {subroutine!r}")
        trials = read_field(doc, "trials", int)
        if trials < 0:
            raise ScenarioError("trials must be >= 0")
        seed = read_field(doc, "seed", int)
        if seed < 0:
            raise ScenarioError(f"seed must be >= 0, got {seed}")
        scenario = read_field(doc, "scenario", dict)
        if "path" in scenario:
            if set(scenario) != {"path"}:
                raise ScenarioError("scenario with 'path' must contain only 'path'")
            base = read_document(read_field(scenario, "path", str, "scenario"), load_scenario)[0]
        else:
            check_keys(scenario, {"vertices", "robots", "alpha", "budget", "layout", "bumps",
                                  "seed", "reward_kind"}, "scenario params")
            params = dict(
                n_vertices=read_field(scenario, "vertices", int, "scenario"),
                n_robots=read_field(scenario, "robots", int, "scenario"),
                alpha=read_field(scenario, "alpha", int, "scenario", default=0),
                budget=read_field(scenario, "budget", float, "scenario"),
                layout=read_field(scenario, "layout", str, "scenario", default="grid"),
                bumps=read_field(scenario, "bumps", int, "scenario", default=3),
                seed=read_field(scenario, "seed", int, "scenario", default=0),
                reward_kind=read_field(scenario, "reward_kind", str, "scenario", default="modular"))
            if params["seed"] < 0:
                raise ScenarioError(f"scenario.seed must be >= 0, got {params['seed']}")
            for key in ("vertices", "robots", "bumps"):  # refused before any per-vertex work
                if scenario.get(key, 0) > SPEC_SIZE_LIMIT:
                    raise ScenarioError(f"scenario.{key} is {scenario[key]}, above the limit of "
                                        f"{SPEC_SIZE_LIMIT}; name a larger map by its 'path'")
            base = generate_scenario(**params)
        if subroutine == "exact" and {"rmop", "sga"} & set(planners):  # ng runs no solver
            try:
                check_exact_size(base.graph.n)
            except SizeGuardError as exc:
                raise ScenarioError(f"subroutine: {exc}") from exc
        robots = base.n_robots
        outside = f"outside 0..{robots - 1} for {robots} robots"
        raw_attacks = read_field(doc, "attacks", list)
        attacks, listed = [], {}  # listed: (model, size) -> where it is first listed
        for i in range(len(raw_attacks)):
            where = f"attacks[{i}]"
            entry = read_field(raw_attacks, i, dict, "attacks")
            check_keys(entry, {"model", "sizes", "planned_alpha"}, f"keys in {where}")
            attack_model = read_field(entry, "model", str, where)
            if attack_model not in ATTACK_MODELS:
                raise ScenarioError(f"unknown attack model {attack_model!r}")
            planned = None
            if entry.get("planned_alpha") is not None:
                if attack_model != "partial":
                    raise ScenarioError(f"{where}.planned_alpha applies only to partial "
                                        f"attacks, not {attack_model!r}")
                planned = read_field(entry, "planned_alpha", int, where)
                if not 0 <= planned < robots:
                    raise ScenarioError(f"{where}.planned_alpha is {planned}, {outside}")
            if attack_model == "partial" and planned is None:
                raise ScenarioError("partial attacks require 'planned_alpha'")
            sizes = tuple(read_ints(entry, "sizes", where))
            for j, size in enumerate(sizes):
                here = f"{where}.sizes[{j}]"
                if not 0 <= size < robots:
                    raise ScenarioError(f"{here} is {size}, {outside}")
                if planned is not None and size > planned:
                    raise ScenarioError(f"{here} is {size}, above planned_alpha {planned}")
                try:
                    check_subset_guard(attack_model, robots, size)
                except SizeGuardError as exc:
                    raise ScenarioError(f"{here} is {size}: {exc}") from exc
                if (attack_model, size) in listed:  # its records would be indistinguishable
                    raise ScenarioError(f"{here} repeats {attack_model} attacks of size {size} "
                                        f"from {listed[attack_model, size]}")
                listed[attack_model, size] = here
            attacks.append(AttackSpec(model=attack_model, sizes=sizes, planned_alpha=planned))
        return cls(planners=tuple(planners), attacks=tuple(attacks), trials=trials, seed=seed,
                   base=base, subroutine=subroutine)

    def base_scenario(self) -> Scenario:
        """The scenario every trial resamples."""
        return self.base


@dataclass(frozen=True)
class ExperimentRecord:
    trial: int
    planner: str
    attack_model: str
    attack_size: int
    f_S: float
    residual: float
    plan_ms: float
    loop_iters: int


def _derived_seed(*entropy: int) -> int:
    return int(np.random.SeedSequence(list(entropy)).generate_state(1)[0])


def plan(planner: str, scenario: Scenario, solver: OpSolverConfig) -> Solution:
    """Run one named planner on a scenario."""
    if planner == "rmop":
        return solve_rmop(scenario, solver)
    if planner == "sga":
        return solve_sga(scenario, solver)
    if planner == "ng":
        return Solution(tuple(naive_greedy_baseline(scenario)))
    raise ValueError(f"unknown planner {planner!r}")


def run_experiment(spec: ExperimentSpec, measure_time: bool = True) -> list[ExperimentRecord]:
    """Seeded trial sweep over the spec's base scenario: resample starts, plan, attack, record.

    Planning for non-partial attacks uses the attack size as the planner's
    assumed loss count (the robust planner re-plans per size); partial
    attacks plan once at `planned_alpha` and sweep weaker adversaries.
    Everything except wall-clock `plan_ms` is a pure function of the spec;
    pass measure_time=False to zero the timing column for byte-stable output.
    """
    base = spec.base_scenario()
    solver = OpSolverConfig(method=spec.subroutine)
    records: list[ExperimentRecord] = []
    for trial in range(spec.trials):
        scenario_t = resample_starts(base, _derived_seed(spec.seed, trial, 101))
        model = RewardModel.from_scenario(scenario_t)
        plan_cache: dict[tuple[str, int], tuple[Solution, float, float]] = {}

        def planned(planner: str, alpha: int) -> tuple[Solution, float, float]:
            """The plan, its team reward f_S and its planning time; sga/ng ignore alpha."""
            key = (planner, alpha if planner == "rmop" else -1)
            if key not in plan_cache:
                sc = scenario_t.with_alpha(alpha) if planner == "rmop" else scenario_t
                t0 = time.perf_counter()
                solution = plan(planner, sc, solver)
                elapsed = (time.perf_counter() - t0) * 1000.0 if measure_time else 0.0
                plan_cache[key] = (solution, eval_team(model, solution.paths), elapsed)
            return plan_cache[key]

        for a_idx, attack in enumerate(spec.attacks):
            for size in attack.sizes:
                plan_alpha = attack.planned_alpha if attack.model == "partial" else size
                for planner in spec.planners:
                    solution, f_S, elapsed = planned(planner, plan_alpha)
                    seed = _derived_seed(spec.seed, trial, 202, a_idx, size)
                    outcome = run_attack(attack.model, model, solution, size, seed=seed,
                                         planned_alpha=attack.planned_alpha)
                    records.append(ExperimentRecord(
                        trial=trial, planner=planner, attack_model=attack.model,
                        attack_size=size, f_S=f_S,
                        residual=outcome.residual, plan_ms=elapsed,
                        loop_iters=solution.loop_iterations))
    return records


CSV_COLUMNS = ("trial", "planner", "attack_model", "attack_size", "f_S", "residual",
               "plan_ms", "loop_iters")


def records_to_csv(records: Sequence[ExperimentRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(CSV_COLUMNS)
    for r in records:
        writer.writerow([r.trial, r.planner, r.attack_model, r.attack_size,
                         repr(r.f_S), repr(r.residual), repr(r.plan_ms), r.loop_iters])
    return buf.getvalue()


def summarize(records: Sequence[ExperimentRecord]) -> dict:
    """Per (planner, attack model, size) mean and variance of residuals."""
    groups: dict[tuple, list[ExperimentRecord]] = {}
    for r in records:
        groups.setdefault((r.planner, r.attack_model, r.attack_size), []).append(r)
    out = []
    for (planner, attack_model, size), rs in sorted(groups.items()):
        residuals = np.array([r.residual for r in rs])
        rewards = np.array([r.f_S for r in rs])
        with np.errstate(over="ignore"):  # an overflow is inf, which the JSON writer refuses
            out.append({
                "planner": planner,
                "attack_model": attack_model,
                "attack_size": size,
                "trials": len(rs),
                "mean_residual": float(residuals.mean()),
                "variance_residual": float(residuals.var()),
                "mean_f_S": float(rewards.mean()),
            })
    return {"groups": out}
