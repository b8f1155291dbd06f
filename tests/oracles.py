"""Exact and reference oracles for checking the fast solvers and planners.

A team-level exact max-min oracle for desk-scale instances: a bitmask reward
table over every vertex subset, every simple rooted path within budget per
robot, and the max over path tuples of the min over removals. The size guards
keep it to tiny instances; it exists to check the fast planners against the
paper's worst-case guarantees, not to scale.

The cost-benefit greedy as it was before scoring moved to once per
insertion: every candidate rescored against every slot each round, in pure
Python. It reads rewards through the library's evaluator, so `solve_op_gcb`
must return the same path, bit for bit.

And the reward evaluators as they were before the array form: dicts keyed by
cell id, summed in the order CPython iterates the vertex set or a vertex's
own cell list. They read the raw per-vertex cells a model is built from,
never the model. The array evaluators must match them exactly on integer
weights, and to within a few ulps on fractional ones.

And the scenario generator as it was before it computed on Python floats:
positions, rewards and cell weights read one numpy scalar at a time, with its
own copy of the importance field. `generate_scenario` must dump the same bytes.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Optional

import numpy as np

from rmop.graph import (AREA_SIDE, GaussianBump, MetricGraph, Path, RewardError, Scenario,
                        Vertex, _verified)
from rmop.reward import IncrementalEval, RewardModel, eval_vertex_set
from rmop.orienteering import SizeGuardError, _check_problem

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


def _fold_cost(dist: list[list[float]], route: list[int]) -> float:
    total = 0.0
    for a, b in zip(route, route[1:]):
        total += dist[a][b]
    return total


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


def solve_op_gcb_rescan(graph: MetricGraph, model: RewardModel, start: int, budget: float,
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
    _check_problem(graph, model, start, budget)
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
        gains = ev.gains(list(range(n))).tolist()
        for v in range(n):
            if v in selected or v in discarded:
                continue
            g = gains[v]
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

    greedy_reward = eval_vertex_set(model, route)

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


def dict_eval_vertex_set(cells, ids) -> float:
    """Reward of a vertex set, its cells summed in the order CPython iterates set(ids).

    Vertex v covers the raw (cell, weight) pairs `cells[v]` that the model was built from.
    """
    covered: dict[int, float] = {}
    for v in set(ids):
        if not 0 <= v < len(cells):
            raise RewardError(f"vertex id {v} out of range 0..{len(cells) - 1}")
        for cell, w in cells[v]:
            covered[cell] = w
    return sum(covered.values())


class DictIncrementalEval:
    """Marginal gains over a mutable vertex set, kept in a dict of cell counts.

    Vertex v covers the raw (cell, weight) pairs `cells[v]`. A gain adds a vertex's
    uncovered cells in the order the vertex lists them; `value` adds and subtracts
    gains as vertices come and go.
    """

    def __init__(self, cells):
        self.cells = cells
        self.members: set[int] = set()
        self.value = 0.0
        self._cell_count: dict[int, int] = {}

    def gain(self, v: int) -> float:
        if v in self.members:
            return 0.0
        count = self._cell_count
        return sum(w for cell, w in self.cells[v] if cell not in count)

    def add(self, v: int) -> float:
        g = self.gain(v)
        if v not in self.members:
            self.members.add(v)
            for cell, _ in self.cells[v]:
                self._cell_count[cell] = self._cell_count.get(cell, 0) + 1
            self.value += g
        return g

    def remove(self, v: int) -> None:
        self.members.remove(v)
        for cell, w in self.cells[v]:
            self._cell_count[cell] -= 1
            if self._cell_count[cell] == 0:
                del self._cell_count[cell]
                self.value -= w


def leave_one_out_curvature(ground_set, evaluator) -> float:
    """1 - min over elements of (h(V) - h(V minus v)) / h({v}), by re-evaluating h.

    Elements whose singleton value is zero are skipped; if every one is, the value is 0.
    """
    elements = list(ground_set)
    h_full = evaluator(elements)
    ratios = [(h_full - evaluator(elements[:i] + elements[i + 1:])) / evaluator([v])
              for i, v in enumerate(elements) if evaluator([v]) > 0.0]
    return min(1.0, max(0.0, 1.0 - min(ratios))) if ratios else 0.0


def numpy_scalar_field_value(bumps, x, y) -> float:
    """The importance field as `generate_scenario` evaluated it on numpy scalars."""
    total = 0.0
    for b in bumps:
        r2 = (x - b.cx) ** 2 + (y - b.cy) ** 2
        total += b.amplitude * math.exp(-r2 / (2.0 * b.sigma ** 2))
    return total


def _numpy_scalar_grid_positions(n: int, side: float) -> np.ndarray:
    cols = math.ceil(math.sqrt(n))
    rows = math.ceil(n / cols)
    xs = np.linspace(0.0, side, cols) if cols > 1 else np.array([side / 2.0])
    ys = np.linspace(0.0, side, rows) if rows > 1 else np.array([side / 2.0])
    pos = [(xs[k % cols], ys[k // cols]) for k in range(n)]
    return np.array(pos, dtype=float)


def generate_scenario_on_numpy_scalars(n_vertices: int, n_robots: int, alpha: int,
                                       budget: float, layout: str = "grid", bumps: int = 3,
                                       seed: int = 0, reward_kind: str = "modular") -> Scenario:
    """`generate_scenario` as it was before it moved to Python floats, for valid arguments.

    It reads positions, rewards and cell weights one numpy scalar at a time out of their
    arrays; the library must dump the same bytes for the same arguments.
    """
    side = AREA_SIDE
    rng = np.random.default_rng(seed)
    bump_list = tuple(
        GaussianBump(
            cx=float(rng.uniform(0.15 * side, 0.85 * side)),
            cy=float(rng.uniform(0.15 * side, 0.85 * side)),
            amplitude=float(rng.uniform(0.9, 1.0)),
            sigma=float(rng.uniform(side / 9.0, side / 6.4)),
        )
        for _ in range(bumps)
    ) + (GaussianBump(cx=side / 2.0, cy=side / 2.0, amplitude=0.3, sigma=0.9 * side),)

    pos = (_numpy_scalar_grid_positions(n_vertices, side) if layout == "grid"
           else rng.uniform(0.0, side, size=(n_vertices, 2)))

    values = np.array([numpy_scalar_field_value(bump_list, x, y) for x, y in pos])
    peak = float(values.max())
    rewards = np.rint(100.0 * values / peak) if peak > 0 else np.zeros(n_vertices)

    coverage: list[tuple[tuple[int, float], ...]] = [() for _ in range(n_vertices)]
    if reward_kind == "coverage":
        cells_per_side = max(2, math.ceil(math.sqrt(n_vertices) / 2))
        pitch = side / cells_per_side
        centers = [((i + 0.5) * pitch, (j + 0.5) * pitch)
                   for j in range(cells_per_side) for i in range(cells_per_side)]
        cell_vals = np.array([numpy_scalar_field_value(bump_list, cx, cy) for cx, cy in centers])
        cell_peak = float(cell_vals.max())
        cell_w = np.rint(100.0 * cell_vals / cell_peak) if cell_peak > 0 else np.zeros(len(centers))
        radius = 1.3 * pitch
        for k in range(n_vertices):
            coverage[k] = tuple((c, float(cell_w[c])) for c, (cx, cy) in enumerate(centers)
                                if math.hypot(pos[k][0] - cx, pos[k][1] - cy) <= radius)

    vertices = [Vertex(id=k, x=float(pos[k][0]), y=float(pos[k][1]), reward=float(rewards[k]),
                       coverage=coverage[k]) for k in range(n_vertices)]
    graph, starts = MetricGraph.from_positions(vertices), rng.integers(0, n_vertices, size=n_robots)
    return _verified(Scenario(graph, starts, budget, alpha, reward_kind))
