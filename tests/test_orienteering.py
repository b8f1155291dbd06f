import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rmop.graph import (LAYOUTS, METRIC_TOL, REWARD_KINDS, MetricGraph, Vertex,
                        generate_scenario, path_cost, verify_metric)
from rmop import orienteering, reward
from rmop.reward import RewardModel, eval_vertex_set
from rmop.orienteering import (EXACT_SIZE_LIMIT, GCB_ETA, OpSolverConfig, SizeGuardError,
                               solve_op, solve_op_exact, solve_op_gcb)

from helpers import (line_instance, oracle_best_rooted_path, random_tiny_scenario, reward_model,
                     vertex_cells)
from oracles import solve_op_exact_unpruned, solve_op_gcb_rescan

TOL = 1e-9


class TestSolverConfig:
    def test_exact_defaults_to_factor_one(self):
        cfg = OpSolverConfig(method="exact")
        assert cfg.eta == 1.0
        assert cfg.eta_note is None

    def test_gcb_factor_value(self):
        cfg = OpSolverConfig(method="gcb")
        assert cfg.eta == pytest.approx(2.0 / (1.0 - math.exp(-1.0)))
        assert cfg.eta == GCB_ETA
        assert "strict budget" in cfg.eta_note

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="method"):
            OpSolverConfig(method="magic")


class TestExactSolver:
    def test_line_instance_optimum(self):
        graph, model = line_instance()
        # Independent oracle: permutation enumeration over all rooted paths.
        seq, val = oracle_best_rooted_path(graph, vertex_cells(graph), 0, 2.0)
        assert seq == (0, 1, 2) and val == 8.0
        path = solve_op_exact(graph, model, 0, 2.0)
        assert path.vertices == (0, 1, 2)
        assert path.cost == pytest.approx(2.0)
        assert eval_vertex_set(model, path.vertices) == 8.0

    def test_zero_budget_returns_start_only(self):
        graph, model = line_instance()
        path = solve_op_exact(graph, model, 0, 0.0)
        assert path.vertices == (0,)
        assert path.cost == 0.0

    def test_all_zero_rewards_tie_breaks_to_start(self):
        graph, _ = line_instance()
        model = reward_model([0.0, 0.0, 0.0, 0.0])
        path = solve_op_exact(graph, model, 0, 2.0)
        assert path.vertices == (0,)

    def test_size_guard(self):
        n = EXACT_SIZE_LIMIT + 1
        verts = [Vertex(i, float(i), 0.0, 1.0) for i in range(n)]
        graph = MetricGraph(verts)
        model = reward_model([1.0] * n)
        with pytest.raises(SizeGuardError, match="exact solver refuses"):
            solve_op_exact(graph, model, 0, 1.0)

    def test_size_limit_itself_is_accepted(self):
        n = EXACT_SIZE_LIMIT
        graph = MetricGraph([Vertex(i, float(i), 0.0, 1.0) for i in range(n)])
        path = solve_op_exact(graph, reward_model([1.0] * n), 0, 1.0)
        assert path.vertices == (0, 1)

    def test_vertex_exactly_the_remaining_budget_away_is_reachable(self):
        # 0 -> 1 earns 5 first. At vertex 2 (cost 1, value 1) only vertex 3, exactly
        # the remaining 3 away, can beat that: no pruning may lose it, or the
        # optimum 0 -> 2 -> 3 (value 11, cost 4) is lost to 0 -> 3 (value 10).
        graph = MetricGraph([Vertex(0, 0.0, 0.0, 0.0), Vertex(1, -2.5, 0.0, 5.0),
                             Vertex(2, 1.0, 0.0, 1.0), Vertex(3, 4.0, 0.0, 10.0)])
        path = solve_op_exact(graph, reward_model([0.0, 5.0, 1.0, 10.0]), 0, 4.0)
        assert (path.vertices, path.cost) == ((0, 2, 3), 4.0)

    def test_vertex_past_the_remaining_budget_by_the_metric_tolerance_is_reachable(self):
        # Line 0, -7, 2, 6, 10 with d(2,4) and d(0,4) raised by METRIC_TOL / 2, which
        # verify_metric accepts. Under the incumbent 0 -> 1 (50), at 0 -> 2 vertex 4 is
        # 8 + 0.5e-9 away with 8 left, yet reachable through 3: no pruning may lose it,
        # or the optimum 0 -> 2 -> 3 -> 4 (102) is lost to 0 -> 3 -> 4 (101).
        rewards = [0.0, 50.0, 1.0, 1.0, 100.0]
        vertices = [Vertex(i, x, 0.0, r)
                    for i, (x, r) in enumerate(zip([0.0, -7.0, 2.0, 6.0, 10.0], rewards))]
        dist = MetricGraph(vertices).distance.copy()
        for a, b in ((2, 4), (0, 4)):
            dist[a, b] = dist[b, a] = dist[a, b] + METRIC_TOL / 2
        graph = MetricGraph(vertices, dist)
        assert verify_metric(graph).ok
        path = solve_op_exact(graph, reward_model(rewards), 0, 10.0)
        assert (path.vertices, path.cost) == ((0, 2, 3, 4), 10.0)

    def test_cheaper_later_arrival_at_a_searched_state_is_searched(self):
        # 0 -> 1 -> 2 -> 3 (cost 5) and 0 -> 2 -> 1 -> 3 (cost 4) reach the same set at 3.
        # Only the later, cheaper arrival leaves the 2 that vertex 4 (10) needs, and no
        # order of all five vertices that starts 0 -> 1 fits the budget of 6.
        dist = np.array([[0, 1, 1, 3, 5], [1, 0, 1, 2, 4], [1, 1, 0, 3, 5],
                         [3, 2, 3, 0, 2], [5, 4, 5, 2, 0]], dtype=float)
        graph = MetricGraph([Vertex(v, 0.0, 0.0) for v in range(5)], dist)
        assert verify_metric(graph).ok
        path = solve_op_exact(graph, reward_model([0.0, 1.0, 1.0, 1.0, 10.0]), 0, 6.0)
        assert (path.vertices, path.cost) == ((0, 2, 1, 3, 4), 6.0)

    def test_full_reach_searches_each_state_from_its_cheapest_arrivals(self):
        # Every vertex is in reach, so the 986,409 rooted sequences of 10 vertices all fit;
        # one search per cheaper arrival at a (vertex set, last vertex) state is about 13k.
        s = generate_scenario(10, 1, 0, 1000.0, layout="uniform", seed=0)
        searched, dfs = 0, ("dfs", orienteering.__file__)  # the search calls dfs once per node

        def count_searches(frame, event, arg):
            nonlocal searched
            if event == "call" and (frame.f_code.co_name, frame.f_code.co_filename) == dfs:
                searched += 1
                assert searched <= 50_000, "exact solver searched past 50,000 nodes"

        sys.setprofile(count_searches)
        try:
            path = solve_op_exact(s.graph, RewardModel.from_scenario(s), s.starts[0], s.budget)
        finally:
            sys.setprofile(None)
        assert sorted(path.vertices) == list(range(10))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_full_reach_scores_each_vertex_set_once(self, seed, monkeypatch):
        # Every set holding the start is reached, 2^9 = 512 of them, by many sequences each.
        s = generate_scenario(10, 1, 0, 1000.0, layout="uniform", seed=seed)
        calls = 0
        totals = reward._totals

        def counted(weights):
            nonlocal calls
            calls += 1
            return totals(weights)

        monkeypatch.setattr(reward, "_totals", counted)
        solve_op_exact(s.graph, RewardModel.from_scenario(s), s.starts[0], s.budget)
        assert calls <= 2 ** 9

    @pytest.mark.parametrize("start", [4, 9])  # 4 is the first id past the 4 vertices
    def test_invalid_start_rejected(self, start):
        graph, model = line_instance()
        with pytest.raises(ValueError, match="start vertex"):
            solve_op_exact(graph, model, start, 1.0)

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(17)
        for trial in range(40):
            scenario = random_tiny_scenario(1000 + trial,
                                            kind="coverage" if trial % 2 else "modular")
            model = RewardModel.from_scenario(scenario)
            start = scenario.starts[0]
            cells = vertex_cells(scenario.graph, scenario.reward_kind)
            _, oracle_val = oracle_best_rooted_path(scenario.graph, cells, start,
                                                    scenario.budget)
            path = solve_op_exact(scenario.graph, model, start, scenario.budget)
            assert eval_vertex_set(model, path.vertices) == pytest.approx(oracle_val, abs=TOL)

    def test_masking_equals_deleting_from_model(self):
        graph, model = line_instance()
        masked = model.with_masked([1])
        zeroed = reward_model([0.0, 0.0, 3.0, 4.0])
        a = solve_op_exact(graph, masked, 0, 2.0)
        b = solve_op_exact(graph, zeroed, 0, 2.0)
        assert eval_vertex_set(masked, a.vertices) == eval_vertex_set(zeroed, b.vertices)


def decoy_trap_instance():
    """Three cheap decoys pull the greedy away from one rich vertex placed on
    the opposite side, so the budget dies before the rich vertex fits."""
    verts = [
        Vertex(0, 0.0, 0.0, 0.0),
        Vertex(1, 0.05, 0.0, 1.0),
        Vertex(2, 0.10, 0.0, 1.0),
        Vertex(3, 0.15, 0.0, 1.0),
        Vertex(4, -10.0, 0.0, 100.0),
    ]
    graph = MetricGraph(verts)
    model = reward_model([0.0, 1.0, 1.0, 1.0, 100.0])
    return graph, model


class TestGcbSolver:
    def test_line_instance_hand_trace(self):
        # Ratio rounds: 5/1 beats 3/2 and 4/2; then 3/1 beats 4/2.236;
        # the offshoot no longer fits, so the greedy route is (0, 1, 2).
        graph, model = line_instance()
        path = solve_op_gcb(graph, model, 0, 2.0)
        assert path.vertices == (0, 1, 2)
        assert path.cost == pytest.approx(2.0)

    def test_zero_budget_returns_start(self):
        graph, model = line_instance()
        assert solve_op_gcb(graph, model, 0, 0.0).vertices == (0,)

    def test_rich_singleton_beats_greedy_trap(self):
        graph, model = decoy_trap_instance()
        path = solve_op_gcb(graph, model, 0, 10.0)
        assert path.vertices == (0, 4)
        assert path.cost == pytest.approx(10.0)
        # Exhaustive cross-check: the singleton is the true optimum here.
        exact = solve_op_exact(graph, model, 0, 10.0)
        assert eval_vertex_set(model, exact.vertices) == 100.0

    def test_deterministic(self):
        scenario = random_tiny_scenario(303, kind="coverage")
        model = RewardModel.from_scenario(scenario)
        a = solve_op_gcb(scenario.graph, model, scenario.starts[0], scenario.budget)
        b = solve_op_gcb(scenario.graph, model, scenario.starts[0], scenario.budget)
        assert a == b

    def test_coincident_vertices_cost_nothing_and_always_join(self):
        # A vertex on top of the start inserts at zero marginal cost, so
        # the infinite gain ratio must pick it up even with zero budget.
        verts = [Vertex(0, 0.0, 0.0, 0.0), Vertex(1, 0.0, 0.0, 2.0),
                 Vertex(2, 5.0, 0.0, 9.0)]
        graph = MetricGraph(verts)
        model = reward_model([0.0, 2.0, 9.0])
        path = solve_op_gcb(graph, model, 0, 0.0)
        assert path.vertices == (0, 1)
        assert path.cost == 0.0
        exact = solve_op_exact(graph, model, 0, 0.0)
        assert exact.vertices == (0, 1)


class TestSolverInvariants:
    @pytest.mark.parametrize("method", ["exact", "gcb"])
    @pytest.mark.parametrize("budget", [math.nan, -1.0])
    def test_budget_that_is_not_non_negative_rejected(self, method, budget):
        graph, model = line_instance()
        with pytest.raises(ValueError, match=f"^budget must be non-negative, got {budget}$"):
            solve_op(graph, model, 0, budget, OpSolverConfig(method=method))

    @pytest.mark.parametrize("method", ["exact", "gcb"])
    @pytest.mark.parametrize("n_model", [3, 5, 10])
    def test_model_of_another_size_rejected(self, method, n_model):
        graph, _ = line_instance()
        model = reward_model([1.0] * n_model)
        with pytest.raises(ValueError,
                           match=f"^reward model has {n_model} vertices but the graph has 4$"):
            solve_op(graph, model, 0, 2.0, OpSolverConfig(method=method))

    @pytest.mark.parametrize("method", ["exact", "gcb"])
    def test_rooted_budgeted_simple(self, method):
        cfg = OpSolverConfig(method=method)
        for trial in range(60):
            scenario = random_tiny_scenario(4000 + trial,
                                            kind="coverage" if trial % 3 == 0 else "modular")
            model = RewardModel.from_scenario(scenario)
            start = scenario.starts[0]
            path = solve_op(scenario.graph, model, start, scenario.budget, cfg, robot=5)
            assert path.robot == 5
            assert path.vertices[0] == start
            assert len(set(path.vertices)) == len(path.vertices)
            assert path.cost <= scenario.budget
            assert path.cost == pytest.approx(path_cost(scenario.graph, path.vertices),
                                              abs=1e-12)

    def test_exact_dominates_gcb_and_singletons(self):
        for trial in range(200):
            scenario = random_tiny_scenario(5000 + trial, n_range=(4, 7),
                                            kind="coverage" if trial % 2 else "modular")
            model = RewardModel.from_scenario(scenario)
            graph, start, budget = scenario.graph, scenario.starts[0], scenario.budget
            exact_val = eval_vertex_set(model, solve_op_exact(graph, model, start, budget).vertices)
            gcb_val = eval_vertex_set(model, solve_op_gcb(graph, model, start, budget).vertices)
            best_single = 0.0
            for v in range(graph.n):
                if v != start and graph.distance[start, v] <= budget:
                    best_single = max(best_single, eval_vertex_set(model, {start, v}))
            assert gcb_val <= exact_val + TOL
            assert gcb_val >= best_single - TOL


@st.composite
def gcb_problems(draw):
    """(graph, model, start, budget) for the gcb equivalence check.

    Grid positions give many equal distances, so ratio and slot ties; an explicit
    matrix is the Euclidean one with entries nudged by up to 1e-9, each side of the
    diagonal on its own, as a loaded matrix may be. Coverage cells are shared between
    vertices; a random set of vertices may be masked.
    """
    n = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        pos = rng.integers(0, 4, size=(n, 2)).astype(float)
    else:
        pos = rng.uniform(0.0, 10.0, size=(n, 2))
    kind = draw(st.sampled_from(REWARD_KINDS))
    if kind == "modular":
        model = reward_model(rng.integers(0, 4, size=n).astype(float))
    else:
        weight = rng.integers(0, 5, size=6).astype(float)
        model = reward_model(cells=[[(c, weight[c]) for c in np.flatnonzero(row)]
                                    for row in rng.random((n, 6)) < 0.4])
    verts = [Vertex(v, x, y) for v, (x, y) in enumerate(pos)]
    graph = MetricGraph(verts)
    if draw(st.booleans()):
        d = graph.distance + rng.uniform(-1e-9, 1e-9, size=(n, n))
        np.fill_diagonal(d, 0.0)
        graph = MetricGraph(verts, d)
    if draw(st.booleans()):
        model = model.with_masked(np.flatnonzero(rng.random(n) < 0.3))
    start = draw(st.integers(0, n - 1))
    budget = draw(st.one_of(st.floats(0.0, 40.0), st.sampled_from([0.0, 1.0, 2.0, 3.0, 4.0])))
    return graph, model, start, budget


class TestGcbMatchesRescan:
    """solve_op_gcb returns, bit for bit, the path of the greedy that rescans every round."""

    @settings(max_examples=300, deadline=None)
    @given(gcb_problems())
    def test_random_maps(self, problem):
        graph, model, start, budget = problem
        assert (solve_op_gcb(graph, model, start, budget, robot=3)
                == solve_op_gcb_rescan(graph, model, start, budget, robot=3))

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("kind", REWARD_KINDS)
    def test_generated_maps(self, layout, kind):
        s = generate_scenario(96, 6, 1, 60.0, layout=layout, seed=5, reward_kind=kind)
        model = RewardModel.from_scenario(s)
        masked = model.with_masked(range(0, 96, 4))
        for start in s.starts:
            for budget in (15.0, 60.0, 120.0):
                for m in (model, masked):
                    path = solve_op_gcb(s.graph, m, start, budget)
                    assert path == solve_op_gcb_rescan(s.graph, m, start, budget)
                    assert type(path.cost) is float


@st.composite
def exact_problems(draw):
    """(graph, model, start, budget) for the pruned-against-unpruned check.

    An explicit matrix is the Euclidean or the Manhattan one with every off-diagonal
    entry moved by up to METRIC_TOL, each side of the diagonal on its own, so some are
    asymmetric or slightly negative. Weights may be divided by 3 and vertices masked. The budget is
    the folded cost of a random rooted path through all but at most two vertices, so
    that path fits to the last bit and most of the search runs near the budget.
    """
    n = draw(st.integers(2, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pos = (rng.integers(0, 4, size=(n, 2)).astype(float) if draw(st.booleans())
           else rng.uniform(0.0, 10.0, size=(n, 2)))
    scale = draw(st.sampled_from([1.0, 3.0]))
    if draw(st.sampled_from(REWARD_KINDS)) == "modular":
        model = reward_model(rng.integers(1, 4, size=n) / scale)
    else:
        weight = rng.integers(1, 5, size=6) / scale
        model = reward_model(cells=[[(c, weight[c]) for c in np.flatnonzero(row)]
                                    for row in rng.random((n, 6)) < 0.4])
    verts = [Vertex(v, x, y) for v, (x, y) in enumerate(pos)]
    graph = MetricGraph(verts)
    matrix = draw(st.sampled_from(["generated", "euclidean", "manhattan"]))
    if matrix != "generated":
        d = graph.distance if matrix == "euclidean" else abs(pos[:, None] - pos).sum(axis=2)
        d = d + rng.uniform(-METRIC_TOL, METRIC_TOL, size=(n, n))
        np.fill_diagonal(d, 0.0)
        graph = MetricGraph(verts, d)
    if draw(st.booleans()):
        model = model.with_masked(np.flatnonzero(rng.random(n) < 0.3))
    start = draw(st.integers(0, n - 1))
    route = [start] + [v for v in rng.permutation(n).tolist() if v != start]
    route = route[:max(1, n - draw(st.integers(0, 2)))]
    return graph, model, start, max(0.0, graph.route_cost(route))  # a path may cost -1e-9


class TestExactMatchesUnpruned:
    """solve_op_exact returns, bit for bit, the path of the search that prunes nothing."""

    @settings(max_examples=300, deadline=None)
    @given(exact_problems())
    def test_random_maps(self, problem):
        graph, model, start, budget = problem
        assert (solve_op_exact(graph, model, start, budget, robot=2)
                == solve_op_exact_unpruned(graph, model, start, budget, robot=2))
