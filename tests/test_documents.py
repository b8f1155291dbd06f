"""Malformed scenario, solution and experiment documents.

Every defect must surface as one `error:` line (a `FAIL:` line for `verify`)
with exit code 1 that names the file the defect is in: never a traceback, and
never a silently truncated value.
"""

import copy
import json
import math
import os
import re
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

import rmop.attack
import rmop.bench
from rmop.bench import SPEC_SIZE_LIMIT, ExperimentSpec
from rmop.cli import main, read_solution, solution_document
from rmop.graph import ScenarioError, scenario_from_document
from rmop.orienteering import EXACT_SIZE_LIMIT, GCB_ETA, OpSolverConfig

SCENARIO = {
    "vertices": [{"id": i, "x": float(i), "y": 0.0, "reward": 1.0, "coverage": [[i, 1.0]]}
                 for i in range(3)],
    "starts": [0, 1], "budget": 3.0, "alpha": 1, "reward_kind": "modular",
}
SPEC = {
    "scenario": {"vertices": 12, "robots": 3, "budget": 30.0, "seed": 4},
    "planners": ["rmop"], "attacks": [{"model": "greedy", "sizes": [1]}],
    "trials": 1, "seed": 5,
}
DELETE = object()

# (test id, path to the node, its malformed value)
SCENARIO_CASES = [
    ("fractional-start", ("starts",), [1.7, 2]),
    ("fractional-id", ("vertices", 1, "id"), 1.9),
    ("bool-reward", ("vertices", 1, "reward"), True),
    ("bool-alpha", ("alpha",), True),
    ("string-budget", ("budget",), "20"),
    ("coverage-triple", ("vertices", 0, "coverage", 0), [0, 1.0, 2.0]),
    ("string-x", ("vertices", 1, "x"), "abc"),
    ("int-vertices", ("vertices",), 5),
    ("ragged-matrix", ("distance_matrix",), [[0.0, 1.0, 2.0], [1.0, 0.0], [2.0, 1.0, 0.0]]),
    ("null-starts", ("starts",), None),
    ("cell-with-two-weights", ("vertices", 1, "coverage"), [[0, 2.0]]),
    ("cell-repeated-in-one-vertex", ("vertices", 0, "coverage"), [[0, 1.0], [0, 1.0]]),
    ("far-apart-x", ("vertices", 1, "x"), 1e300),
    ("no-vertices", ("vertices",), []),
    ("two-row-matrix", ("distance_matrix",), [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0]]),
]
# A bound report with every key, as `rmop solve` writes one, but for a solver of eta 1. For
# the plan of SCENARIO, whose two paths are redundant (k_f = 1), `rmop solve` writes none.
BOUND_REPORT = {"k_f": 0.0, "k_g": 0.0, "eta": 1.0, "alpha": 1, "n_robots": 2,
                "robust_fraction": 0.25, "sga_fraction": 0.5, "k_f_ground_set_note": "note"}
SOLUTION_CASES = [
    ("fractional-path-vertex", ("paths", 0, "vertices", 0), 0.5),
    ("bool-robot", ("paths", 0, "robot"), False),
    ("out-of-range-s1-robot", ("s1_robots",), [99]),
    ("negative-s1-robot", ("s1_robots",), [-1]),
    ("missing-second-path", ("paths", 1), DELETE),
    ("empty-s1-robots", ("s1_robots",), []),  # the planner put robot 1 alone in s2
    ("misspelled-team-reward", ("team_rewrad",), 5),
    ("unknown-path-key", ("paths", 0, "extra"), 1),
    # Each below verified OK before: a repeat collapsed into a set, or a value no writer sets.
    ("repeated-s1-robot", ("s1_robots",), [0, 0]),
    ("repeated-s2-robot", ("s2_robots",), [1, 1]),
    ("bogus-planner", ("planner",), "bogus"),
    ("negative-loop-iterations", ("loop_iterations",), -7),
    ("zero-loop-iterations", ("loop_iterations",), 0),  # rmop at alpha 1 loops at least once
    ("int-solver", ("solver",), 42),
    ("bogus-solver-method", ("solver", "method"), "bogus"),
    ("exact-method-with-gcb-eta", ("solver", "method"), "exact"),
    ("gcb-method-with-exact-eta", ("solver", "eta"), 1.0),
    ("bool-solver-eta", ("solver", "eta"), True),
    ("missing-eta-note", ("solver", "eta_note"), DELETE),
    ("list-bound-report", ("bound_report",), [1]),
    ("bound-report-of-one-key", ("bound_report",), {"eta": GCB_ETA}),
    ("bound-report-with-exact-eta", ("bound_report",), BOUND_REPORT),
    ("int-bound-note", ("bound_note",), 3),
    ("missing-bound-note", ("bound_note",), DELETE),
    # A stored value that check_solution never reads (the rebuilt plan's costs and rewards
    # are recomputed), or a note that `rmop solve` writes for another plan: only the
    # rebuilt document tells them apart.
    ("cost-one-ulp-up", ("paths", 0, "cost"), math.nextafter(2.0, math.inf)),
    ("team-reward-within-tolerance", ("team_reward",), 3.0 + 1e-10),
    ("another-bound-note", ("bound_note",),
     "no guarantee fractions for the uncoordinated baseline"),
    # Values of another JSON type than the one written: `true` is not 1.0, nor 3 3.0.
    ("exact-solver-with-bool-eta", ("solver",), {"method": "exact", "eta": True, "eta_note": None}),
    ("int-team-reward", ("team_reward",), 3),
]
SPEC_CASES = [
    ("int-attack", ("attacks",), [1]),
    ("list-scenario", ("scenario",), [1]),
    ("missing-vertices", ("scenario", "vertices"), DELETE),
    ("string-bumps", ("scenario", "bumps"), "3"),
    ("missing-scenario-file", ("scenario",), {"path": "missing-scenario.json"}),
    ("fractional-trials", ("trials",), 1.9),
    ("fractional-size", ("attacks", 0, "sizes"), [1.9]),
    ("planned-alpha-on-greedy", ("attacks", 0, "planned_alpha"), 1),
    ("partial-size-above-planned-alpha", ("attacks", 0),
     {"model": "partial", "sizes": [1, 2], "planned_alpha": 1}),
    ("negative-seed", ("seed",), -1),
    ("negative-scenario-seed", ("scenario", "seed"), -2),
    ("bogus-subroutine", ("subroutine",), "bogus"),
    ("bogus-attack-model", ("attacks", 0, "model"), "bogus"),
    ("path-with-params", ("scenario",), {"path": "scenario.json", "vertices": 3}),
    ("negative-trials", ("trials",), -1),
    ("zero-robots", ("scenario", "robots"), 0),
    ("zero-bumps", ("scenario", "bumps"), 0),
    ("repeated-size", ("attacks", 0, "sizes"), [1, 2, 1]),
    ("repeated-partial-size", ("attacks",),
     [{"model": "partial", "sizes": [1], "planned_alpha": 1},
      {"model": "partial", "sizes": [0, 1], "planned_alpha": 2}]),
    ("repeated-greedy-entry", ("attacks",),
     [{"model": "greedy", "sizes": [1]}, {"model": "worst", "sizes": [1]},
      {"model": "greedy", "sizes": [2, 1]}]),
    ("repeated-planner", ("planners",), ["rmop", "rmop"]),
    ("nul-in-scenario-path", ("scenario",), {"path": "a\u0000"}),
    ("billion-vertices", ("scenario", "vertices"), 10 ** 9),
    # Refused only once the base scenario is built: the spec's robots bound every attack.
    ("zero-vertices", ("scenario", "vertices"), 0),
    ("hex-layout", ("scenario", "layout"), "hex"),
    ("bogus-reward-kind", ("scenario", "reward_kind"), "bogus"),
    ("alpha-at-robot-count", ("scenario", "alpha"), 3),
    ("attack-size-at-robot-count", ("attacks",),
     [{"model": "greedy", "sizes": [1]}, {"model": "worst", "sizes": [1, 2, 3]}]),
    ("negative-attack-size", ("attacks", 0, "sizes"), [-1]),
    ("planned-alpha-at-robot-count", ("attacks", 0),
     {"model": "partial", "sizes": [1], "planned_alpha": 3}),
]

# The refusal each of these cases reaches, in words no other test checks.
MESSAGES = {
    "no-vertices": "at least one vertex",
    "two-row-matrix": "got 2 rows",
    "missing-second-path": "expected 2 paths, found 1",
    "empty-s1-robots": "s2_robots is [1]; rmop solve writes [0, 1]",
    "bogus-subroutine": "unknown subroutine 'bogus'",
    "bogus-attack-model": "unknown attack model 'bogus'",
    "path-with-params": "must contain only 'path'",
    "negative-trials": "trials must be >= 0",
    "zero-robots": "n_robots must be >= 1",
    "zero-bumps": "bumps must be >= 1",
    "repeated-size": "attacks[0].sizes[2] repeats greedy attacks of size 1 from "
                     "attacks[0].sizes[0]",
    "repeated-partial-size": "attacks[1].sizes[1] repeats partial attacks of size 1 from "
                             "attacks[0].sizes[0]",
    "repeated-greedy-entry": "attacks[2].sizes[1] repeats greedy attacks of size 1 from "
                             "attacks[0].sizes[0]",
    "repeated-planner": "planners[1] repeats 'rmop' from planners[0]",
    "nul-in-scenario-path": "cannot read a\u0000: embedded null byte",
    "billion-vertices": "scenario.vertices is 1000000000, above the limit of 1000",
    "misspelled-team-reward": "team_rewrad is 5; rmop solve writes no such key",
    "unknown-path-key": "paths[0].extra is 1; rmop solve writes no such key",
    "repeated-s1-robot": "s1_robots is [0, 0]; rmop solve writes [0]",
    "repeated-s2-robot": "s2_robots is [1, 1]; rmop solve writes [1]",
    "bogus-planner": "unknown planner 'bogus'",
    "negative-loop-iterations": "loop_iterations must be >= 0, got -7",
    "zero-loop-iterations": "loop_iterations is 0; rmop solve writes at least 1",
    "int-solver": "solver must be an object, got 42",
    "bogus-solver-method": "unknown solver.method 'bogus'",
    "exact-method-with-gcb-eta": f"solver.eta is {GCB_ETA}; rmop solve writes 1.0",
    "gcb-method-with-exact-eta": f"solver.eta is 1.0; rmop solve writes {GCB_ETA}",
    "bool-solver-eta": f"solver.eta is true; rmop solve writes {GCB_ETA}",
    "missing-eta-note": 'solver.eta_note is missing; rmop solve writes "factor assumes',
    "list-bound-report": "bound_report is [1]; rmop solve writes null",
    "bound-report-of-one-key": f'bound_report is {{"eta": {GCB_ETA}}}; rmop solve writes null',
    "bound-report-with-exact-eta": f"bound_report is {json.dumps(BOUND_REPORT, sort_keys=True)}; "
                                   "rmop solve writes null",
    "int-bound-note": 'bound_note is 3; rmop solve writes "bound fractions unavailable: k_f',
    "missing-bound-note": 'bound_note is missing; rmop solve writes "bound fractions unavailable',
    "cost-one-ulp-up": "paths[0].cost is 2.0000000000000004; rmop solve writes 2.0",
    "team-reward-within-tolerance": "team_reward is 3.0000000001; rmop solve writes 3.0",
    "another-bound-note": 'bound_note is "no guarantee fractions for the uncoordinated baseline"; '
                          'rmop solve writes "bound fractions unavailable: k_f',
    "exact-solver-with-bool-eta": "solver.eta is true; rmop solve writes 1.0",
    "int-team-reward": "team_reward is 3; rmop solve writes 3.0",
}


def mutated(doc, path, value):
    doc = copy.deepcopy(doc)
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    if value is DELETE:
        del target[last]
    else:
        target[last] = value
    return doc


# The scenario file is rewritten (budget 2.0) after the solution was computed from it.
SWAPPED_SCENARIO = ("swapped-scenario", ("budget",), 2.0)
CASES = ([("solve", c) for c in SCENARIO_CASES] + [("verify", c) for c in SCENARIO_CASES]
         + [("verify-solution", c) for c in SOLUTION_CASES]
         + [("attack", c) for c in SOLUTION_CASES + [SWAPPED_SCENARIO]]
         + [("bench", c) for c in SPEC_CASES])


@pytest.mark.parametrize("case", CASES, ids=[f"{command}-{c[0]}" for command, c in CASES])
def test_malformed_input_is_one_error_line(case, tmp_path, monkeypatch, capsys):
    command, (name, path, value) = case
    monkeypatch.chdir(tmp_path)
    defective = {"bench": "spec.json", "verify-solution": "r.json",
                 "attack": "r.json"}.get(command, "s.json")
    if name == "missing-scenario-file":
        defective = "missing-scenario.json"
    if command == "bench":
        with open("spec.json", "w") as fh:
            json.dump(mutated(SPEC, path, value), fh)
        argv = ["bench", "--spec", "spec.json", "--out-csv", "out.csv"]
    elif command in ("verify-solution", "attack"):
        with open("s.json", "w") as fh:
            json.dump(SCENARIO, fh)
        assert main(["solve", "--scenario", "s.json", "--planner", "rmop",
                     "--out", "r.json"]) == 0
        if name == SWAPPED_SCENARIO[0]:
            with open("s.json", "w") as fh:
                json.dump(mutated(SCENARIO, path, value), fh)
        else:
            with open("r.json") as fh:
                solution = json.load(fh)
            with open("r.json", "w") as fh:
                json.dump(mutated(solution, path, value), fh)
        argv = (["verify", "--scenario", "s.json", "--solution", "r.json"]
                if command == "verify-solution" else
                ["attack", "r.json", "--scenario", "s.json", "--model", "worst", "--size", "1"])
    else:
        with open("s.json", "w") as fh:
            json.dump(mutated(SCENARIO, path, value), fh)
        argv = [command, "--scenario", "s.json"]
        if command == "solve":
            argv += ["--planner", "rmop", "--out", "r.json"]
    capsys.readouterr()
    assert main(argv) == 1
    out, err = capsys.readouterr()
    lines = (out if command.startswith("verify") else err).splitlines()
    prefix = "FAIL: " if command.startswith("verify") else "error: "
    assert len(lines) == 1 and lines[0].startswith(prefix), (out, err)
    assert f"{defective}: " in lines[0], lines[0]
    assert MESSAGES.get(name, "") in lines[0], lines[0]
    if command in ("attack", "bench"):
        assert lines[0].startswith(f"error: {'r' if command == 'attack' else 'spec'}.json: "), \
            lines[0]


# (test id, raw document bytes) that json.loads refuses with no JSONDecodeError
RAW_CASES = [
    ("deep-nesting", b"[" * 1000 + b"]" * 1000),  # RecursionError
    ("long-integer", b'{"alpha": ' + b"1" * 4301 + b"}"),  # the int-digit limit's ValueError
]
# (command form, the file that holds the raw bytes, argv)
RAW_FORMS = [
    ("verify", "s.json", ["verify", "--scenario", "s.json"]),
    ("verify-solution", "r.json", ["verify", "--scenario", "s.json", "--solution", "r.json"]),
    ("solve", "s.json", ["solve", "--scenario", "s.json", "--planner", "rmop", "--out", "o.json"]),
    ("attack", "r.json", ["attack", "r.json", "--scenario", "s.json", "--model", "worst",
                          "--size", "1", "--out", "o.json"]),
    ("bench", "spec.json", ["bench", "--spec", "spec.json", "--out-csv", "o.json"]),
    ("bench-scenario-path", "p.json", ["bench", "--spec", "spec.json", "--out-csv", "o.json"]),
]


@pytest.mark.parametrize("form", RAW_FORMS, ids=[f[0] for f in RAW_FORMS])
@pytest.mark.parametrize("data", [c[1] for c in RAW_CASES], ids=[c[0] for c in RAW_CASES])
def test_an_unparsable_document_is_one_error_line(form, data, tmp_path, monkeypatch, capsys):
    command, raw_file, argv = form
    monkeypatch.chdir(tmp_path)
    with open("s.json", "w") as fh:
        json.dump(SCENARIO, fh)
    assert main(["solve", "--scenario", "s.json", "--planner", "rmop", "--out", "r.json"]) == 0
    with open("spec.json", "w") as fh:
        json.dump(mutated(SPEC, ("scenario",), {"path": "p.json"}), fh)
    with open(raw_file, "wb") as fh:
        fh.write(data)
    capsys.readouterr()
    assert main(argv) == 1
    out, err = capsys.readouterr()
    verify = command.startswith("verify")
    lines, other = (out, err) if verify else (err, out)
    assert other == "" and len(lines.splitlines()) == 1, (out, err)
    assert lines.startswith("FAIL: " if verify else "error: ") and "not valid JSON" in lines
    assert f"{raw_file}: " in lines, lines
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("attack, field", [
    ({"model": "worst", "sizes": [1], "planned_alpha": 2}, "attacks[0].planned_alpha"),
    ({"model": "greedy", "sizes": [1], "planned_alpha": 1}, "attacks[0].planned_alpha"),
    ({"model": "random", "sizes": [1], "planned_alpha": 1}, "attacks[0].planned_alpha"),
    ({"model": "partial", "sizes": [1, 2], "planned_alpha": 1}, "attacks[0].sizes[1]"),
])
def test_attack_parameters_are_checked_while_parsing(attack, field):
    # Refused by the parse itself, before any trial is planned.
    with pytest.raises(ScenarioError, match=re.escape(field)):
        ExperimentSpec.from_document(mutated(SPEC, ("attacks", 0), attack))


@pytest.mark.parametrize("path, value, field", [
    (("seed",), -1, "seed"),
    (("scenario", "seed"), -2, "scenario.seed"),
])
def test_negative_seeds_are_refused_while_parsing(path, value, field):
    with pytest.raises(ScenarioError, match=rf"^{re.escape(field)} must be >= 0, got {value}$"):
        ExperimentSpec.from_document(mutated(SPEC, path, value))


# (test id, spec edits, the refusal) for specs whose sweep could not finish. Each is
# refused while the spec is read, so no plan is made.
UNRUNNABLE_SPECS = [
    ("repeated-planner", {"planners": ["sga", "rmop", "sga"]},
     "spec.json: planners[2] repeats 'sga' from planners[0]"),
    ("exact-above-its-limit", {"subroutine": "exact", "planners": ["ng", "sga"],
                               "scenario": {"vertices": 20, "robots": 3, "budget": 30.0}},
     "spec.json: subroutine: exact solver refuses |V|=20 > 14; use the gcb method"),
    ("worst-above-the-subset-guard",
     {"scenario": {"vertices": 30, "robots": 24, "budget": 30.0},
      "attacks": [{"model": "greedy", "sizes": [1]}, {"model": "worst", "sizes": [12]}]},
     "spec.json: attacks[1].sizes[0] is 12: C(24,12) removal subsets exceed the guard of "
     "1000000; use greedy_attack instead"),
]


@pytest.mark.parametrize("edits, message", [c[1:] for c in UNRUNNABLE_SPECS],
                         ids=[c[0] for c in UNRUNNABLE_SPECS])
def test_an_unrunnable_spec_is_refused_before_any_plan(edits, message, tmp_path, monkeypatch,
                                                       capsys):
    def refuse(*args):
        raise AssertionError("planned before the spec was refused")

    monkeypatch.setattr(rmop.bench, "plan", refuse)
    monkeypatch.chdir(tmp_path)
    with open("spec.json", "w") as fh:
        json.dump({**SPEC, **edits}, fh)
    assert main(["bench", "--spec", "spec.json", "--out-csv", "out.csv"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == [f"error: {message}"]
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("planners, vertices, ok", [
    (["rmop"], EXACT_SIZE_LIMIT, True),
    (["rmop"], EXACT_SIZE_LIMIT + 1, False),
    (["sga"], EXACT_SIZE_LIMIT + 1, False),
    (["ng"], EXACT_SIZE_LIMIT + 1, True),  # the uncoordinated baseline runs no solver
], ids=["rmop-at-limit", "rmop-above", "sga-above", "ng-above"])
def test_the_exact_subroutine_is_refused_above_its_limit(planners, vertices, ok):
    doc = {**SPEC, "subroutine": "exact", "planners": planners,
           "scenario": {**SPEC["scenario"], "vertices": vertices}}
    if ok:
        assert ExperimentSpec.from_document(doc).base_scenario().graph.n == vertices
    else:
        with pytest.raises(ScenarioError, match=rf"\|V\|={vertices} > {EXACT_SIZE_LIMIT}"):
            ExperimentSpec.from_document(doc)


@pytest.mark.parametrize("model", ["worst", "partial", "greedy", "random"])
@pytest.mark.parametrize("slack", [0, -1])
def test_the_subset_guard_bounds_exhaustive_attacks(model, slack, monkeypatch):
    # A guard of exactly C(6, 3) admits size 3 of 6 robots; one less refuses it.
    monkeypatch.setattr(rmop.attack, "SUBSET_GUARD", math.comb(6, 3) + slack)
    attack = {"model": model, "sizes": [3],
              **({"planned_alpha": 3} if model == "partial" else {})}
    doc = {**SPEC, "scenario": {**SPEC["scenario"], "robots": 6}, "attacks": [attack]}
    if slack == 0 or model in ("greedy", "random"):
        assert ExperimentSpec.from_document(doc).attacks[0].sizes == (3,)
    else:
        with pytest.raises(ScenarioError, match=r"^attacks\[0\]\.sizes\[0\] is 3: C\(6,3\)"):
            ExperimentSpec.from_document(doc)


@pytest.mark.parametrize("key", ["vertices", "robots", "bumps"])
def test_a_generated_scenario_is_bounded_before_it_is_built(key, monkeypatch):
    ExperimentSpec.from_document(mutated(SPEC, ("scenario", key), SPEC_SIZE_LIMIT))

    def refuse(**params):
        raise AssertionError("generated a scenario above the spec limit")

    monkeypatch.setattr(rmop.bench, "generate_scenario", refuse)
    doc = mutated(SPEC, ("scenario", key), SPEC_SIZE_LIMIT + 1)
    with pytest.raises(ScenarioError, match=rf"^scenario\.{key} is {SPEC_SIZE_LIMIT + 1}, above"):
        ExperimentSpec.from_document(doc)


def test_partial_sizes_up_to_planned_alpha_parse():
    spec = ExperimentSpec.from_document(
        mutated(SPEC, ("attacks", 0), {"model": "partial", "sizes": [1, 2], "planned_alpha": 2}))
    assert spec.attacks[0].sizes == (1, 2) and spec.attacks[0].planned_alpha == 2


def test_an_edited_guarantee_fraction_is_refused(tmp_path, monkeypatch, capsys):
    # The bound report holds values derived from the plan; edited ones are refused.
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "--vertices", "30", "--robots", "3", "--alpha", "1", "--budget", "25",
                 "--seed", "1", "--out", "s.json"]) == 0
    assert main(["solve", "--scenario", "s.json", "--planner", "rmop", "--out", "r.json"]) == 0
    with open("r.json") as fh:
        solution = json.load(fh)
    assert solution["bound_report"]["k_f"] == 0.0
    solution["bound_report"].update(k_f=0.5, robust_fraction=0.99)
    with open("r.json", "w") as fh:
        json.dump(solution, fh)
    capsys.readouterr()
    assert main(["verify", "--scenario", "s.json", "--solution", "r.json"]) == 1
    assert main(["attack", "r.json", "--scenario", "s.json", "--model", "worst",
                 "--size", "1"]) == 1
    problem = "r.json: bound_report.k_f is 0.5; rmop solve writes 0.0\n"
    assert capsys.readouterr() == ("FAIL: " + problem, "error: " + problem)


@pytest.mark.parametrize("planner, edits, problem", [
    ("sga", {"s1_robots": [1], "s2_robots": [0, 2], "loop_iterations": 5},
     "s1_robots is [1]; rmop solve writes []"),
    ("sga", {"loop_iterations": 5}, "loop_iterations is 5; rmop solve writes 0"),
    ("ng", {"s1_robots": [1], "s2_robots": [0, 2]}, "s1_robots is [1]; rmop solve writes []"),
    ("rmop", {"s1_robots": [], "s2_robots": [0, 1, 2]},
     "s1_robots is []; rmop solve writes at least one robot"),
], ids=["sga-as-robust", "sga-with-loops", "ng-as-robust", "rmop-without-s1"])
def test_a_plan_claims_the_split_and_loops_of_its_planner_alone(planner, edits, problem, tmp_path,
                                                                monkeypatch, capsys):
    # Only `rmop` with alpha > 0 writes a redundancy set and loop passes; every other plan
    # writes [] and 0 (SOLUTION_CASES holds an `rmop` plan that claims 0 loops). Each edit
    # is consistent in itself, and `check_solution` passes it.
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "--vertices", "30", "--robots", "3", "--alpha", "1", "--budget", "25",
                 "--seed", "1", "--out", "s.json"]) == 0
    assert main(["solve", "--scenario", "s.json", "--planner", planner, "--out", "r.json"]) == 0
    with open("r.json") as fh:
        solution = json.load(fh)
    solution.update(edits)
    with open("r.json", "w") as fh:
        json.dump(solution, fh)
    capsys.readouterr()
    assert main(["verify", "--scenario", "s.json", "--solution", "r.json"]) == 1
    assert main(["attack", "r.json", "--scenario", "s.json", "--model", "worst",
                 "--size", "1"]) == 1
    assert capsys.readouterr() == (f"FAIL: r.json: {problem}\n", f"error: r.json: {problem}\n")


SCENARIO_BYTES = json.dumps(SCENARIO).encode()
LOADED, GCB = scenario_from_document(SCENARIO), OpSolverConfig("gcb")
# The document `rmop solve --planner rmop` writes for SCENARIO, whose bytes are SCENARIO_BYTES.
SOLUTION = solution_document(LOADED, SCENARIO_BYTES, rmop.bench.plan("rmop", LOADED, GCB),
                             "rmop", GCB)


def read_solution_document(doc):
    """read_solution of `doc`, written to a file, against SCENARIO."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "r.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return read_solution(path, LOADED, SCENARIO_BYTES)


def test_the_written_solution_reads_back_with_no_problem():
    assert read_solution_document(SOLUTION)[1] == []


KEYS = sorted(set(SCENARIO) | set(SCENARIO["vertices"][0]) | set(SPEC) | set(SPEC["scenario"])
              | {"distance_matrix", "path", "model", "planned_alpha", "subroutine", "paths",
                 "robot", "cost", "reward", "s1_robots", "s2_robots", "team_reward",
                 "loop_iterations", "planner", "scenario_sha256", "layout", "bumps", "alpha"})
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), inner,
                                     max_size=8)),
    max_leaves=24)


@st.composite
def near_valid_documents(draw):
    """A valid scenario, spec or solution with one randomly chosen node replaced."""
    doc = copy.deepcopy(draw(st.sampled_from([SCENARIO, SPEC, SOLUTION])))
    target = doc
    while True:
        key = draw(st.sampled_from(list(target) if isinstance(target, dict)
                                   else range(len(target))))
        child = target[key]
        if isinstance(child, (dict, list)) and child and draw(st.booleans()):
            target = child
            continue
        target[key] = draw(json_values)
        return doc


@settings(max_examples=300, deadline=None)
@given(json_values | near_valid_documents())
def test_loaders_raise_only_document_errors(value):
    loaders = (scenario_from_document, read_solution_document, ExperimentSpec.from_document)
    for load in loaders:
        try:
            load(value)
        except ScenarioError:
            pass
