"""Team planners: sequential greedy assignment and the robust two-set planner.

The robust planner guards against the worst-case loss of `alpha` robots by
splitting the team: a redundancy set of the alpha individually best
independent paths, and a coverage set planned sequentially for the rest. An
outer loop enforces the invariant that every redundancy path individually
outscores every coverage path, swapping better coverage paths into the
candidate pool until it holds. With deterministic subroutines the loop
almost always settles in one pass, but the machinery is kept for the
approximate solver, which can surface a better path on the masked problem
than it found on the clean one. A `Solution` holds only what its planner
chose; the coverage set and every reward derive from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .graph import Path, Scenario, ScenarioError, path_cost
from .reward import RewardModel, eval_vertex_set
from .orienteering import OpSolverConfig, solve_op

LOOP_CAP_PER_ROBOT = 10

INVARIANT_TOL = 1e-9


class PlannerLoopError(RuntimeError):
    """The reassignment loop exceeded its hard cap; indicates a solver bug."""


@dataclass(frozen=True)
class Solution:
    """What a planner chose: a path per robot, the redundancy set and the loop passes it took.

    Every reward is a function of the scenario, so none is stored: read it from a model
    with `eval_vertex_set` or `eval_team`. The coverage set is every other robot.
    """

    paths: tuple[Path, ...]
    s1_robots: frozenset[int] = frozenset()
    loop_iterations: int = 0

    @property
    def n_robots(self) -> int:
        return len(self.paths)

    @property
    def s2_robots(self) -> frozenset[int]:
        return frozenset(p.robot for p in self.paths) - self.s1_robots


def sga(scenario: Scenario, model: RewardModel, solver: OpSolverConfig,
        robots: Optional[Sequence[int]] = None) -> tuple[Path, ...]:
    """Plan robots one at a time, zeroing the rewards each path collects.

    The listed robots (all of them by default, each a distinct id 0..n_robots-1) are
    served in the order given, each from its own start in `scenario`. After
    each path is found, its vertices are masked so later robots only chase
    what is still uncovered.

    Known limitation: masking empties the visited *vertices*, not the *cells*
    they covered, so on coverage rewards a later robot is still paid for a
    cell that an unvisited vertex shares with a visited one. With two
    vertices covering one cell, the second robot takes the other vertex for
    a true team gain of 0.0.
    """
    if robots is None:
        robots = range(scenario.n_robots)
    for k, robot in enumerate(robots):
        if not 0 <= robot < scenario.n_robots:
            raise ValueError(f"robot id {robot} out of range 0..{scenario.n_robots - 1}")
        if robot in robots[:k]:
            raise ValueError(f"robot id {robot} is listed more than once")
    paths = []
    for robot in robots:
        path = solve_op(scenario.graph, model, scenario.starts[robot], scenario.budget, solver,
                        robot=robot)
        paths.append(path)
        model = model.with_masked(path.vertices)
    return tuple(paths)


def solve_sga(scenario: Scenario, solver: OpSolverConfig) -> Solution:
    """Plain sequential planning for the whole team; no redundancy set."""
    return Solution(sga(scenario, RewardModel.from_scenario(scenario), solver))


def solve_rmop(scenario: Scenario, solver: OpSolverConfig) -> Solution:
    """Plan a team that is robust to losing the worst `alpha` of its robots.

    First solves the single-robot problem independently for everyone, then
    loops: take the alpha individually best paths as the redundancy set,
    plan the rest sequentially, and stop once no sequential path outscores
    the weakest redundancy path. Until then only the strictly better paths
    replace their robots' pool entries: pooled, a path that merely ties the
    weakest could win that tie by robot id and reorder the next pass. With
    alpha = 0 this reduces to the plain sequential planner.
    """
    alpha = scenario.alpha
    if alpha == 0:
        return solve_sga(scenario, solver)
    model = RewardModel.from_scenario(scenario)
    n = scenario.n_robots
    pool: list[Path] = [
        solve_op(scenario.graph, model, scenario.starts[i], scenario.budget, solver, robot=i)
        for i in range(n)
    ]

    cap = LOOP_CAP_PER_ROBOT * n
    rewards: list[float] = []
    for iterations in range(1, cap + 1):
        rewards = [eval_vertex_set(model, p.vertices) for p in pool]
        order = sorted(range(n), key=lambda i: (-rewards[i], i))
        s2_paths = sga(scenario, model, solver, robots=sorted(order[alpha:]))
        better = [p for p in s2_paths
                  if eval_vertex_set(model, p.vertices) > rewards[order[alpha - 1]]]
        # Better paths replace their robots' pool entries; with none, the coverage set is final.
        for path in better or s2_paths:
            pool[path.robot] = path
        if not better:
            return Solution(tuple(pool), frozenset(order[:alpha]), iterations)
    raise PlannerLoopError(
        f"reassignment loop exceeded {cap} iterations; pool rewards {tuple(rewards)}")


def check_solution(scenario: Scenario, solution: Solution) -> list[str]:
    """Re-verify every invariant of the choices that `solution` holds (it stores no reward to
    compare); returns violations as strings."""
    graph = scenario.graph
    n = scenario.n_robots
    problems: list[str] = []

    if len(solution.paths) != n:
        problems.append(f"expected {n} paths, found {len(solution.paths)}")
        return problems

    evaluable = True
    for i, path in enumerate(solution.paths):
        if path.robot != i:
            problems.append(f"path {i} is labeled for robot {path.robot}")
        if path.vertices and path.vertices[0] != scenario.starts[i]:
            problems.append(
                f"robot {i} path starts at {path.vertices[0]}, expected {scenario.starts[i]}")
        try:
            true_cost = path_cost(graph, path.vertices)
        except ScenarioError as exc:  # an empty path, or a repeated or unknown vertex
            problems.append(f"robot {i}: {exc}")
            evaluable = False
            continue
        if not abs(true_cost - path.cost) <= INVARIANT_TOL:
            problems.append(
                f"robot {i} stored cost {path.cost} differs from recomputed {true_cost}")
        if true_cost > scenario.budget + INVARIANT_TOL:
            problems.append(
                f"robot {i} path cost {true_cost} exceeds budget {scenario.budget} "
                f"by {true_cost - scenario.budget}")

    everyone = set(range(n))
    unknown = sorted((solution.s1_robots | solution.s2_robots) - everyone)
    if unknown:
        problems.append(f"robot sets name robot {unknown[0]}, outside 0..{n - 1}")
    if len(solution.s1_robots) not in (scenario.alpha, 0):
        problems.append(
            f"redundancy set has {len(solution.s1_robots)} robots, expected {scenario.alpha} or 0")

    if evaluable and solution.s1_robots and solution.s2_robots and not unknown:
        # Unknown or repeated vertices leave the path rewards undefined.
        model = RewardModel.from_scenario(scenario)
        rewards = [eval_vertex_set(model, p.vertices) for p in solution.paths]
        min_s1 = min(rewards[i] for i in solution.s1_robots)
        max_s2 = max(rewards[j] for j in solution.s2_robots)
        if min_s1 < max_s2 - INVARIANT_TOL:
            problems.append(
                f"coverage path reward {max_s2} outranks redundancy path reward {min_s1}")
    return problems
