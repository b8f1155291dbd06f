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

import numpy as np

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


def _check_problem(graph: MetricGraph, model: RewardModel, start: int, budget: float) -> None:
    if not 0 <= start < graph.n:
        raise ValueError(f"start vertex {start} out of range 0..{graph.n - 1}")
    if not budget >= 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    if model.n != graph.n:
        raise ValueError(f"reward model has {model.n} vertices but the graph has {graph.n}")


def solve_op_exact(graph: MetricGraph, model: RewardModel, start: int, budget: float,
                   robot: int = 0) -> Path:
    """Maximum-reward rooted path within budget, by depth-first enumeration.

    Ties break to the lexicographically smallest vertex sequence: the search
    visits rooted sequences in lexicographic pre-order (children in ascending
    id), so the first of equal value is the smallest. Guarded to small graphs.

    A child is skipped when an earlier sequence reached the same vertex set,
    ending at the same vertex, at no higher folded cost. Float addition is
    monotone and a set's value depends on the set alone, so every completion
    of the skipped sequence also completes the earlier one, which comes first
    in pre-order: the first maximal sequence is never skipped. A set is scored
    once, at its first sequence: the best value only rises, so no later one wins.
    """
    _check_problem(graph, model, start, budget)
    if graph.n > EXACT_SIZE_LIMIT:
        raise SizeGuardError(
            f"exact solver refuses |V|={graph.n} > {EXACT_SIZE_LIMIT}; use the gcb method")
    n = graph.n
    dist = graph.distance.tolist()

    best_seq, best_reward = [start], -math.inf  # the root replaces them
    seq = [start]
    cheapest: dict[int, float] = {}  # visited * n + last: the lowest cost it was searched from
    scored: set[int] = set()  # the visited sets already scored

    def dfs(visited: int, cost: float) -> None:
        nonlocal best_seq, best_reward
        if visited not in scored:
            scored.add(visited)
            value = eval_vertex_set(model, seq)
            if value > best_reward:
                best_seq, best_reward = list(seq), value
        last = seq[-1]
        for v in range(n):
            if visited >> v & 1:
                continue
            reached = cost + dist[last][v]
            state = (visited | 1 << v) * n + v
            if reached > budget or cheapest.get(state, math.inf) <= reached:
                continue
            cheapest[state] = reached
            seq.append(v)
            dfs(visited | 1 << v, reached)
            seq.pop()

    dfs(1 << start, 0.0)
    return Path(robot=robot, vertices=tuple(best_seq), cost=graph.route_cost(best_seq))


@np.errstate(over="ignore")  # a ratio or cost past the largest float is inf, and ranks as such
def solve_op_gcb(graph: MetricGraph, model: RewardModel, start: int, budget: float,
                 robot: int = 0) -> Path:
    """Cost-benefit greedy: grow a cheapest-insertion route by gain/cost ratio.

    Each round scores every unselected vertex u with positive marginal gain
    by gain over its cheapest insertion cost: (D[a,u] + D[u,b]) - D[a,b],
    clamped at 0, between route neighbours a and b, or D[a,u] after the last
    vertex a, the first slot on ties; zero cost counts as infinite ratio. The
    best, the smaller id on ties, is inserted if the route, its cost folded
    edge by edge (`graph.route_cost`), still fits the budget, and permanently
    discarded otherwise. A discard changes no other ratio, so gains and ratios
    are computed with numpy once per insertion and walked in stable (-ratio,
    id) order until one fits. The final answer is the better of the greedy
    route and the best single-hop path from the start, all hops scored at
    once, so one far-but-rich vertex cannot be starved out by the ratio rule.
    """
    _check_problem(graph, model, start, budget)
    dist = graph.distance
    ev = IncrementalEval(model)
    ev.add(start)
    hop_values = np.where(dist[start] <= budget, ev.values_with(np.arange(graph.n)), -math.inf)
    hop_values[start] = -math.inf
    route = [start]
    open_ = np.ones(graph.n, dtype=bool)  # neither selected nor discarded
    open_[start] = False

    while True:
        cand = np.flatnonzero(open_)
        gain = ev.gains(cand)
        open_[cand[gain <= 0.0]] = False  # a gain never rises as the route grows
        cand, gain = cand[gain > 0.0], gain[gain > 0.0]
        if not len(cand):
            break
        into = dist[np.ix_(route, cand)]  # D[a, u]
        delta = np.empty((len(cand), len(route)))
        np.add(into[:-1].T, dist[np.ix_(cand, route[1:])], out=delta[:, :-1])
        delta[:, :-1] -= dist[route[:-1], route[1:]]
        delta[:, -1] = into[-1]
        delta[delta < 0.0] = 0.0
        slot, cost = delta.argmin(axis=1), delta.min(axis=1)
        ratio = np.full(len(cand), math.inf)
        np.divide(gain, cost, out=ratio, where=cost != 0.0)
        order = np.argsort(-ratio, kind="stable")
        for v, pos in zip(cand[order].tolist(), (slot[order] + 1).tolist()):
            open_[v] = False
            candidate = route[:pos] + [v] + route[pos:]
            if graph.route_cost(candidate) <= budget:
                route = candidate
                ev.add(v)
                break

    hop = int(np.argmax(hop_values))  # the first of the best, so the smallest id
    if hop_values[hop] > eval_vertex_set(model, route):
        return Path(robot=robot, vertices=(start, hop), cost=float(dist[start, hop]))
    return Path(robot=robot, vertices=tuple(route), cost=graph.route_cost(route))


def solve_op(graph: MetricGraph, model: RewardModel, start: int, budget: float,
             config: OpSolverConfig, robot: int = 0) -> Path:
    """Dispatch to the configured single-robot solver."""
    if config.method == "exact":
        return solve_op_exact(graph, model, start, budget, robot=robot)
    return solve_op_gcb(graph, model, start, budget, robot=robot)
