"""Team-level exact max-min oracle for desk-scale instances.

A bitmask reward table over every vertex subset, every simple rooted path
within budget per robot, and the max over path tuples of the min over
removals. The size guards keep it to tiny instances; it exists to check the
fast planners against the paper's worst-case guarantees, not to scale.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Optional

from rmop.graph import MetricGraph, Path, Scenario
from rmop.reward import RewardModel, eval_vertex_set
from rmop.orienteering import SizeGuardError

PATH_PRODUCT_GUARD = 10 ** 7
TABLE_SIZE_GUARD = 20


def _subset_reward_table(model: RewardModel) -> list[float]:
    n = model.n
    if n > TABLE_SIZE_GUARD:
        raise SizeGuardError(f"subset table needs 2^{n} entries; guard is 2^{TABLE_SIZE_GUARD}")
    table = [0.0] * (1 << n)
    for mask in range(1, 1 << n):
        table[mask] = eval_vertex_set(model, [v for v in range(n) if mask >> v & 1])
    return table


def enumerate_feasible_paths(graph: MetricGraph, start: int, budget: float,
                             max_paths: int = 200_000) -> list[tuple[tuple[int, ...], int, float]]:
    """All simple rooted paths within budget as (vertices, bitmask, cost)."""
    dist = graph.distance.tolist()
    n = graph.n
    out: list[tuple[tuple[int, ...], int, float]] = []
    seq = [start]
    visited = [False] * n
    visited[start] = True

    def dfs(cost: float, mask: int) -> None:
        if len(out) > max_paths:
            raise SizeGuardError(f"more than {max_paths} feasible paths from vertex {start}")
        out.append((tuple(seq), mask, cost))
        last = seq[-1]
        for v in range(n):
            if visited[v]:
                continue
            step = dist[last][v]
            if cost + step > budget:
                continue
            visited[v] = True
            seq.append(v)
            dfs(cost + step, mask | (1 << v))
            seq.pop()
            visited[v] = False

    dfs(0.0, 1 << start)
    return out


def _feasible_path_sets(scenario: Scenario, max_product: int):
    per_robot = [
        enumerate_feasible_paths(scenario.graph, start, scenario.budget)
        for start in scenario.starts
    ]
    product = 1
    for options in per_robot:
        product *= len(options)
        if product > max_product:
            raise SizeGuardError(
                f"feasible path tuples exceed the guard of {max_product}")
    return per_robot


def brute_force_rmop(scenario: Scenario,
                     max_product: int = PATH_PRODUCT_GUARD) -> tuple[float, tuple[Path, ...]]:
    """Exact optimal worst-case value: max over path tuples of the min over
    removals of exactly alpha robots. Monotonicity makes size-alpha removals
    sufficient; at alpha 0 this is the team optimum with no adversary.
    Guarded to tiny instances."""
    alpha = scenario.alpha
    model = RewardModel.from_scenario(scenario)
    table = _subset_reward_table(model)
    per_robot = _feasible_path_sets(scenario, max_product)
    n = scenario.n_robots
    keep_sets = [
        [i for i in range(n) if i not in removed]
        for removed in combinations(range(n), alpha)
    ]
    best_val = -math.inf
    best_combo: Optional[tuple] = None

    def rec(i: int, masks: tuple, chosen: tuple) -> None:
        nonlocal best_val, best_combo
        if i == n:
            worst = math.inf
            for keep in keep_sets:
                m = 0
                for k in keep:
                    m |= masks[k]
                val = table[m]
                if val < worst:
                    worst = val
            if worst > best_val:
                best_val = worst
                best_combo = chosen
            return
        for entry in per_robot[i]:
            rec(i + 1, masks + (entry[1],), chosen + (entry,))

    rec(0, (), ())
    witness = tuple(
        Path(robot=i, vertices=entry[0], cost=entry[2]) for i, entry in enumerate(best_combo)
    )
    return best_val, witness
