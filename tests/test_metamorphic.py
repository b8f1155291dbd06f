"""Relations between outputs that must hold on every input.

Scaling every length and every reward of a scenario by a power of two
commutes exactly with subtraction, squaring, `sqrt`, sums and the gain/cost
ratio, so plans and attacks must not move and every cost, reward and
residual must scale exactly. A vertex farther than the budget from every
other vertex can never be visited, so appending one must change nothing.
"""

import copy
import json

from hypothesis import given, settings, strategies as st

from rmop.attack import greedy_attack, worst_case_attack
from rmop.graph import (AREA_SIDE, LAYOUTS, REWARD_KINDS, generate_scenario, load_scenario,
                        scenario_to_document)
from rmop.orienteering import OpSolverConfig
from rmop.planner import solve_rmop
from rmop.reward import RewardModel

GCB = OpSolverConfig(method="gcb")
EXACT = OpSolverConfig(method="exact")


@st.composite
def scenario_documents(draw, max_vertices, max_budget):
    """A generated scenario document, some with an explicit (Manhattan) distance matrix."""
    robots = draw(st.integers(2, 4))
    scenario = generate_scenario(
        n_vertices=draw(st.integers(3, max_vertices)), n_robots=robots,
        alpha=draw(st.integers(0, robots - 1)), budget=draw(st.floats(5.0, max_budget)),
        layout=draw(st.sampled_from(LAYOUTS)), bumps=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2**32 - 1)), reward_kind=draw(st.sampled_from(REWARD_KINDS)))
    doc = scenario_to_document(scenario)
    if draw(st.booleans()):
        doc["distance_matrix"] = [[abs(u["x"] - v["x"]) + abs(u["y"] - v["y"])
                                   for v in doc["vertices"]] for u in doc["vertices"]]
    return doc


def load(doc):
    return load_scenario(json.dumps(doc))


def attacks(scenario, solution):
    """Every worst and greedy attack outcome on `solution`, by size."""
    model = RewardModel.from_scenario(scenario)
    return [attack(model, solution, size) for size in range(1, scenario.n_robots)
            for attack in (worst_case_attack, greedy_attack)]


def scaled(doc, factor):
    doc = copy.deepcopy(doc)
    for v in doc["vertices"]:
        v["x"], v["y"], v["reward"] = v["x"] * factor, v["y"] * factor, v["reward"] * factor
        if "coverage" in v:
            v["coverage"] = [[c, w * factor] for c, w in v["coverage"]]
    doc["budget"] *= factor
    if "distance_matrix" in doc:
        doc["distance_matrix"] = [[d * factor for d in row] for row in doc["distance_matrix"]]
    return doc


@settings(max_examples=50, deadline=None)
@given(scenario_documents(max_vertices=24, max_budget=60.0), st.sampled_from([-1, 1, 2]))
def test_scaling_by_a_power_of_two_scales_every_value_and_moves_nothing(doc, k):
    factor = 2.0 ** k
    before, after = load(doc), load(scaled(doc, factor))
    plan, again = solve_rmop(before, GCB), solve_rmop(after, GCB)
    assert [(p.robot, p.vertices) for p in again.paths] == [
        (p.robot, p.vertices) for p in plan.paths]
    assert [p.cost for p in again.paths] == [p.cost * factor for p in plan.paths]
    assert again.per_path_rewards == tuple(r * factor for r in plan.per_path_rewards)
    assert again.team_reward == plan.team_reward * factor
    assert (again.s1_robots, again.s2_robots, again.loop_iterations) == (
        plan.s1_robots, plan.s2_robots, plan.loop_iterations)
    for hit, scaled_hit in zip(attacks(before, plan), attacks(after, again)):
        assert (scaled_hit.removed, scaled_hit.residual) == (hit.removed, hit.residual * factor)


def with_unreachable_vertex(doc):
    """`doc` plus a rewarding vertex, with a private cell, farther than the budget from all."""
    doc = copy.deepcopy(doc)
    x, y = 2 * AREA_SIDE + doc["budget"], 0.0
    vertices = doc["vertices"]
    cell = 1 + max([c for v in vertices for c, _ in v.get("coverage", [])], default=0)
    if "distance_matrix" in doc:
        far = [abs(x - v["x"]) + abs(y - v["y"]) for v in vertices]
        doc["distance_matrix"] = [row + [d] for row, d in zip(doc["distance_matrix"], far)]
        doc["distance_matrix"].append(far + [0.0])
    vertices.append({"id": len(vertices), "x": x, "y": y, "reward": 50.0,
                     **({"coverage": [[cell, 50.0]]} if doc["reward_kind"] == "coverage"
                        else {})})
    return doc


@settings(max_examples=40, deadline=None)
@given(scenario_documents(max_vertices=24, max_budget=60.0))
def test_an_unreachable_vertex_changes_no_gcb_plan_or_attack(doc):
    before, after = load(doc), load(with_unreachable_vertex(doc))
    assert after.graph.n == before.graph.n + 1
    plan, again = solve_rmop(before, GCB), solve_rmop(after, GCB)
    assert again == plan
    assert attacks(after, again) == attacks(before, plan)


@settings(max_examples=30, deadline=None)
@given(scenario_documents(max_vertices=13, max_budget=30.0))
def test_an_unreachable_vertex_changes_no_exact_plan_or_attack(doc):
    before, after = load(doc), load(with_unreachable_vertex(doc))
    plan, again = solve_rmop(before, EXACT), solve_rmop(after, EXACT)
    assert again == plan
    assert attacks(after, again) == attacks(before, plan)
