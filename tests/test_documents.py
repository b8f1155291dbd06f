"""Malformed scenario, solution and experiment documents.

Every defect must surface as one `error:` line (a `FAIL:` line for `verify`)
with exit code 1 that names the file the defect is in: never a traceback, and
never a silently truncated value.
"""

import copy
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from rmop.bench import ExperimentSpec
from rmop.cli import load_solution, main
from rmop.graph import ScenarioError, scenario_from_document

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
SOLUTION_CASES = [
    ("fractional-path-vertex", ("paths", 0, "vertices", 0), 0.5),
    ("bool-robot", ("paths", 0, "robot"), False),
    ("out-of-range-s1-robot", ("s1_robots",), [99]),
    ("negative-s1-robot", ("s1_robots",), [-1]),
    ("missing-second-path", ("paths", 1), DELETE),
    ("empty-s1-robots", ("s1_robots",), []),  # the planner put robot 1 alone in s2
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
    "empty-s1-robots": "do not cover all robots",
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


def test_partial_sizes_up_to_planned_alpha_parse():
    spec = ExperimentSpec.from_document(
        mutated(SPEC, ("attacks", 0), {"model": "partial", "sizes": [1, 2], "planned_alpha": 2}))
    assert spec.attacks[0].sizes == (1, 2) and spec.attacks[0].planned_alpha == 2


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
    """A valid scenario or spec with one randomly chosen node replaced."""
    doc = copy.deepcopy(draw(st.sampled_from([SCENARIO, SPEC])))
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
    loaders = (scenario_from_document, lambda doc: load_solution(json.dumps(doc).encode()),
               ExperimentSpec.from_document)
    for load in loaders:
        try:
            load(value)
        except ScenarioError:
            pass
