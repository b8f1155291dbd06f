"""The README's examples run as written."""

import json
import re
from pathlib import Path

from rmop.bench import ExperimentSpec
from rmop.reward import eval_team

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def fenced(language, text=README):
    return re.findall(rf"^```{language}\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL)


def section(title):
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_library_in_one_minute_runs(capsys):
    (block,) = fenced("python", section("Library in one minute"))
    names = {}
    exec(compile(block, "README.md", "exec"), names)
    solution, hit, scenario = names["solution"], names["hit"], names["scenario"]
    team_reward = eval_team(names["model"], solution.paths)
    assert len(hit.removed) == scenario.alpha
    assert 0.0 <= hit.residual <= team_reward
    assert capsys.readouterr().out == f"{team_reward} {hit.residual} {sorted(hit.removed)}\n"


def test_experiment_specs_parse_and_build_their_scenario():
    docs = [json.loads(block) for block in fenced("json")]
    assert len(docs) == 2
    for doc in docs:
        spec = ExperimentSpec.from_document(doc)
        assert spec.base_scenario().graph.n == doc["scenario"]["vertices"]
