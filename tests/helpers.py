"""Shared test instances and independent oracles.

The oracles here deliberately re-derive results with different algorithms
than the library (subset+permutation enumeration instead of DFS, direct
formula evaluation instead of incremental bookkeeping) so the two routes
check each other.
"""

import itertools
import math

import numpy as np

from rmop.graph import MetricGraph, Scenario, Vertex
from rmop.reward import RewardModel


def line_instance():
    """Four vertices: a collinear run plus one offshoot; the worked example
    used across the solver tests. Rewards 0/5/3/4, unit or 2-unit hops."""
    verts = [
        Vertex(0, 0.0, 0.0, 0.0),
        Vertex(1, 1.0, 0.0, 5.0),
        Vertex(2, 2.0, 0.0, 3.0),
        Vertex(3, 0.0, 2.0, 4.0),
    ]
    graph = MetricGraph.from_positions(verts)
    model = RewardModel.modular([0.0, 5.0, 3.0, 4.0])
    return graph, model


def line_scenario(n_robots=2, alpha=1, budget=2.0):
    graph, _ = line_instance()
    return Scenario(graph=graph, starts=tuple([0] * n_robots), budget=budget,
                    alpha=alpha, reward_kind="modular")


def vertex_cells(graph, kind="modular"):
    """Each vertex's raw (cell, weight) pairs, read from the graph's vertices.

    A modular vertex covers one private cell, its own id, of its reward.
    """
    if kind == "modular":
        return [[(v.id, v.reward)] for v in graph.vertices]
    return [list(v.coverage) for v in graph.vertices]


def oracle_eval(cells, ids):
    """Reward of a vertex set, recomputed straight from the raw per-vertex cells."""
    seen = {}
    for v in set(ids):
        for cell, w in cells[v]:
            seen[cell] = w
    return float(sum(seen.values()))


def oracle_rooted_paths(graph, start, budget):
    """Every feasible rooted simple path, by subset + permutation enumeration."""
    dist = graph.distance.tolist()
    others = [v for v in range(graph.n) if v != start]
    out = []
    for r in range(len(others) + 1):
        for combo in itertools.combinations(others, r):
            for perm in itertools.permutations(combo):
                seq = (start,) + perm
                cost = 0.0
                for a, b in zip(seq, seq[1:]):
                    cost += dist[a][b]
                if cost <= budget:
                    out.append((seq, cost))
    return out


def oracle_best_rooted_path(graph, cells, start, budget):
    """Max-reward feasible rooted path via the permutation oracle."""
    best_val = -math.inf
    best_seq = None
    for seq, _ in oracle_rooted_paths(graph, start, budget):
        val = oracle_eval(cells, seq)
        if val > best_val or (val == best_val and seq < best_seq):
            best_val = val
            best_seq = seq
    return best_seq, best_val


def oracle_team_value(cells, vertex_sets):
    union = set()
    for vs in vertex_sets:
        union.update(vs)
    return oracle_eval(cells, union)


def oracle_max_min(graph, cells, starts, budget, alpha):
    """Exhaustive max-min value over all rooted path tuples; independent of
    the library's bitmask-table oracle."""
    per_robot = [oracle_rooted_paths(graph, s, budget) for s in starts]
    n = len(starts)
    best = -math.inf
    for combo in itertools.product(*per_robot):
        sets = [set(seq) for seq, _ in combo]
        if alpha == 0:
            value = oracle_team_value(cells, sets)
        else:
            value = math.inf
            for removed in itertools.combinations(range(n), alpha):
                keep = [sets[i] for i in range(n) if i not in removed]
                value = min(value, oracle_team_value(cells, keep))
        best = max(best, value)
    return best


def random_tiny_scenario(seed, kind="modular", n_range=(4, 6), robots_range=(2, 3),
                         budget_range=(0.55, 1.25), alpha=None, max_tuples=60_000,
                         distinct_starts=False, private_cells=False):
    """Deterministic small random instance; redraws until the brute-force
    oracles stay comfortably inside their guards and the reward is nonzero.

    `distinct_starts` samples starts without replacement and `private_cells`
    gives every vertex one cell only it covers; both keep the curvature
    surrogates away from the fully-redundant extreme so guarantee checks
    stay informative.
    """
    from oracles import enumerate_feasible_paths
    from rmop.reward import eval_vertex_set

    attempt = 0
    while True:
        rng = np.random.default_rng([seed, attempt, 7243])
        n = int(rng.integers(n_range[0], n_range[1] + 1))
        pos = rng.uniform(0.0, 1.0, size=(n, 2))
        rewards = rng.integers(0, 11, size=n).astype(float)
        coverage = [()] * n
        if kind == "coverage":
            n_cells = int(rng.integers(3, 7))
            weights = rng.integers(0, 11, size=n_cells).astype(float)
            cover = rng.random((n, n_cells)) < 0.5
            coverage = [
                [(c, float(weights[c])) for c in range(n_cells) if cover[v, c]]
                for v in range(n)
            ]
            if private_cells:
                own = rng.integers(1, 6, size=n).astype(float)
                for v in range(n):
                    coverage[v].append((n_cells + v, float(own[v])))
            coverage = [tuple(entry) for entry in coverage]
        vertices = [
            Vertex(v, float(pos[v, 0]), float(pos[v, 1]),
                   float(rewards[v]) if kind == "modular" else 0.0, coverage[v])
            for v in range(n)
        ]
        graph = MetricGraph.from_positions(vertices)
        n_robots = int(rng.integers(robots_range[0], robots_range[1] + 1))
        a = alpha if alpha is not None else int(rng.integers(1, n_robots))
        budget = float(rng.uniform(*budget_range))
        if distinct_starts:
            starts = tuple(int(s) for s in rng.choice(n, size=n_robots, replace=False))
        else:
            starts = tuple(int(s) for s in rng.integers(0, n, size=n_robots))
        scenario = Scenario(graph=graph, starts=starts, budget=budget, alpha=a,
                            reward_kind=kind)
        model = RewardModel.from_scenario(scenario)
        if eval_vertex_set(model, range(n)) <= 0.0:
            attempt += 1
            continue
        product = 1
        for s in starts:
            product *= len(enumerate_feasible_paths(graph, s, budget))
        if product > max_tuples:
            attempt += 1
            continue
        return scenario
