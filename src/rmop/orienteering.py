"""Single-robot budget-limited path solvers behind one pluggable interface.

Two methods: `exact`, an exhaustive depth-first oracle for small graphs, and
`gcb`, a cost-benefit greedy that scales to the benchmark maps. Both return
an open path rooted at the start whose cost never exceeds the budget, and
both are deterministic (fixed tie-breaks) so planners built on top of them
are reproducible. Solvers are pure functions safe to run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .graph import MetricGraph, Path
from .reward import IncrementalEval, RewardModel, eval_vertex_set

# Approximation factor credited to the cost-benefit greedy when budgets may
# be relaxed; this implementation enforces the strict budget and reports the
# factor with a caveat.
GCB_ETA = 2.0 / (1.0 - math.exp(-1.0))

EXACT_SIZE_LIMIT = 14

SUBROUTINES = ("exact", "gcb")

GCB_ETA_NOTE = ("factor assumes a bounded budget relaxation; this solver enforces "
                "the strict budget, so the number is reported, not guaranteed")


class SizeGuardError(RuntimeError):
    """An exhaustive routine was asked for an instance above its size guard."""


@dataclass(frozen=True)
class OpSolverConfig:
    """Which single-robot subroutine to run; `eta` is the factor credited to it."""

    method: str = "exact"

    def __post_init__(self):
        if self.method not in SUBROUTINES:
            raise ValueError(f"method must be one of {SUBROUTINES}, got {self.method!r}")

    @property
    def eta(self) -> float:
        return 1.0 if self.method == "exact" else GCB_ETA

    @property
    def eta_note(self) -> Optional[str]:
        return GCB_ETA_NOTE if self.method == "gcb" else None


def _check_problem(graph: MetricGraph, start: int, budget: float) -> None:
    if not 0 <= start < graph.n:
        raise ValueError(f"start vertex {start} out of range 0..{graph.n - 1}")
    if budget < 0:
        raise ValueError("budget must be non-negative")


def _fold_cost(dist: list[list[float]], route: list[int]) -> float:
    total = 0.0
    for a, b in zip(route, route[1:]):
        total += dist[a][b]
    return total


def solve_op_exact(graph: MetricGraph, model: RewardModel, start: int, budget: float,
                   robot: int = 0) -> Path:
    """Maximum-reward rooted path within budget, by depth-first enumeration.

    Prunes branches whose remaining reachable reward cannot beat the
    incumbent (singleton sums upper-bound marginal gains). Ties break to the
    lexicographically smallest vertex sequence. Guarded to small graphs.
    """
    _check_problem(graph, start, budget)
    if graph.n > EXACT_SIZE_LIMIT:
        raise SizeGuardError(
            f"exact solver refuses |V|={graph.n} > {EXACT_SIZE_LIMIT}; use the gcb method")
    n = graph.n
    dist = graph.distance.tolist()
    singles = [model.singleton(v) for v in range(n)]
    ev = IncrementalEval(model)
    ev.add(start)

    best_seq = [start]
    best_reward = ev.value
    best_cost = 0.0
    seq = [start]
    visited = [False] * n
    visited[start] = True

    def dfs(cost: float) -> None:
        nonlocal best_seq, best_reward, best_cost
        value = ev.value
        if value > best_reward or (value == best_reward and seq < best_seq):
            best_seq = list(seq)
            best_reward = value
            best_cost = cost
        last = seq[-1]
        remaining = budget - cost
        bound = value
        for v in range(n):
            if not visited[v] and singles[v] > 0.0 and dist[last][v] <= remaining:
                bound += singles[v]
        if bound < best_reward:
            return
        for v in range(n):
            if visited[v]:
                continue
            step = dist[last][v]
            if cost + step > budget:
                continue
            visited[v] = True
            seq.append(v)
            ev.add(v)
            dfs(cost + step)
            ev.remove(v)
            seq.pop()
            visited[v] = False

    dfs(0.0)
    return Path(robot=robot, vertices=tuple(best_seq), cost=best_cost)


def _best_insertion(dist: list[list[float]], route: list[int], v: int) -> tuple[float, int]:
    """Cheapest place to put v in an open rooted route: (cost delta, index)."""
    row_v = dist[v]
    best_delta = None
    best_pos = None
    for pos in range(1, len(route) + 1):
        a = route[pos - 1]
        if pos == len(route):
            delta = dist[a][v]
        else:
            b = route[pos]
            delta = dist[a][v] + row_v[b] - dist[a][b]
        if delta < 0.0:
            delta = 0.0
        if best_delta is None or delta < best_delta:
            best_delta = delta
            best_pos = pos
    return best_delta, best_pos


def solve_op_gcb(graph: MetricGraph, model: RewardModel, start: int, budget: float,
                 robot: int = 0) -> Path:
    """Cost-benefit greedy: grow a cheapest-insertion route by gain/cost ratio.

    Each round scores every unselected vertex with positive marginal gain by
    gain over marginal insertion cost (zero cost counts as infinite ratio)
    and picks the best, breaking ties toward the smaller id. The pick is
    inserted if the route still fits the budget and permanently discarded
    otherwise. The final answer is the better of the greedy route and the
    best single-hop path from the start, so one far-but-rich vertex cannot
    be starved out by the ratio rule.
    """
    _check_problem(graph, start, budget)
    n = graph.n
    dist = graph.distance.tolist()
    ev = IncrementalEval(model)
    ev.add(start)
    route = [start]
    route_cost = 0.0
    selected = {start}
    discarded: set[int] = set()

    while True:
        best = None  # (ratio, vertex, position, delta)
        for v in range(n):
            if v in selected or v in discarded:
                continue
            g = ev.gain(v)
            if g <= 0.0:
                continue
            delta, pos = _best_insertion(dist, route, v)
            ratio = math.inf if delta == 0.0 else g / delta
            if best is None or ratio > best[0]:
                best = (ratio, v, pos, delta)
        if best is None:
            break
        _, v, pos, _ = best
        candidate = route[:pos] + [v] + route[pos:]
        candidate_cost = _fold_cost(dist, candidate)
        if candidate_cost <= budget:
            route = candidate
            route_cost = candidate_cost
            selected.add(v)
            ev.add(v)
        else:
            discarded.add(v)

    greedy_reward = ev.value

    best_single = None
    best_single_reward = -math.inf
    for v in range(n):
        if v == start or dist[start][v] > budget:
            continue
        value = eval_vertex_set(model, (start, v))
        if value > best_single_reward:
            best_single_reward = value
            best_single = v

    if best_single is not None and best_single_reward > greedy_reward:
        return Path(robot=robot, vertices=(start, best_single), cost=dist[start][best_single])
    return Path(robot=robot, vertices=tuple(route), cost=route_cost)


def solve_op(graph: MetricGraph, model: RewardModel, start: int, budget: float,
             config: OpSolverConfig, robot: int = 0) -> Path:
    """Dispatch to the configured single-robot solver."""
    if config.method == "exact":
        return solve_op_exact(graph, model, start, budget, robot=robot)
    return solve_op_gcb(graph, model, start, budget, robot=robot)
