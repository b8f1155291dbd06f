import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import pkgutil
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

import rmop
import rmop.bench
import rmop.cli
import rmop.graph
import rmop.planner
from rmop.attack import ATTACK_MODELS, run_attack
from rmop.bench import PLANNER_NAMES
from rmop.cli import build_parser, main, read_solution, solution_document
from rmop.graph import (LAYOUTS, REWARD_KINDS, Path, dump_scenario, generate_scenario,
                        load_scenario, scenario_to_document)
from rmop.orienteering import SUBROUTINES, OpSolverConfig
from rmop.planner import Solution
from rmop.reward import RewardModel


NUMPY_MEMORY_MESSAGE = ("Unable to allocate 298. GiB for an array with shape (200000, 200000) "
                        "and data type float64")


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "s.json"
    code = run_cli("gen", "--vertices", "12", "--robots", "3", "--alpha", "1",
                   "--budget", "30", "--seed", "7", "--out", str(path))
    assert code == 0
    return path


class TestGen:
    def test_output_is_loadable(self, scenario_file):
        scenario = load_scenario(scenario_file.read_bytes())
        assert scenario.graph.n == 12
        assert scenario.alpha == 1

    def test_missing_out_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("gen", "--vertices", "12", "--robots", "3", "--alpha", "1",
                    "--budget", "30", "--seed", "7")
        assert exc.value.code == 2

    def test_alpha_not_below_robots_is_validation_error(self, tmp_path, capsys):
        code = run_cli("gen", "--vertices", "12", "--robots", "10", "--alpha", "10",
                       "--budget", "30", "--seed", "7", "--out", str(tmp_path / "x.json"))
        assert code == 1
        assert "alpha" in capsys.readouterr().err

    def test_negative_seed_is_one_error_line(self, tmp_path, capsys):
        code = run_cli("gen", "--vertices", "12", "--robots", "3", "--alpha", "1",
                       "--budget", "30", "--seed", "-1", "--out", str(tmp_path / "x.json"))
        assert code == 1
        assert capsys.readouterr().err.splitlines() == ["error: seed must be >= 0, got -1"]

    def test_unwritable_out_is_one_error_line(self, tmp_path, capsys):
        out = tmp_path / "missing" / "s.json"
        code = run_cli("gen", "--vertices", "12", "--robots", "3", "--alpha", "1",
                       "--budget", "30", "--seed", "7", "--out", str(out))
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: cannot write {out}: ")

    @pytest.mark.parametrize("message, line", [
        (NUMPY_MEMORY_MESSAGE, "error: " + NUMPY_MEMORY_MESSAGE), ("", "error: out of memory")],
        ids=["numpy", "bare"])
    def test_a_map_larger_than_memory_is_one_error_line(self, tmp_path, capsys, monkeypatch,
                                                        message, line):
        # `gen --vertices 200000` asks numpy for a 298 GiB matrix; nothing that size is allocated.
        def refuse(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(rmop.cli, "generate_scenario", refuse)
        out = tmp_path / "s.json"
        code = run_cli("gen", "--vertices", "200000", "--robots", "3", "--alpha", "1",
                       "--budget", "30", "--seed", "7", "--out", str(out))
        assert code == 1 and not out.exists()
        assert capsys.readouterr().err.splitlines() == [line]

    def test_a_map_larger_than_memory_is_refused_before_any_vertex_is_placed(
            self, tmp_path, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("placed the vertices of a map larger than memory")

        monkeypatch.setattr(rmop.graph, "_grid_positions", refuse)
        out = tmp_path / "s.json"
        code = run_cli("gen", "--vertices", "100000000", "--robots", "3", "--alpha", "1",
                       "--budget", "30", "--seed", "7", "--out", str(out))
        assert code == 1 and not out.exists()
        assert capsys.readouterr().err.splitlines() == [
            "error: Unable to allocate 71.1 PiB for an array with shape (100000000, 100000000) "
            "and data type float64"]

    def test_robots_beyond_numpy_dimensions_is_one_error_line(self, tmp_path, capsys):
        # numpy refuses the robot array with a ValueError before allocating anything.
        out = tmp_path / "s.json"
        code = run_cli("gen", "--vertices", "12", "--robots", "100000000000000000000",
                       "--alpha", "1", "--budget", "30", "--seed", "7", "--out", str(out))
        assert code == 1 and not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err

    def test_benchmark_scale_generation(self, tmp_path):
        out = tmp_path / "big.json"
        code = run_cli("gen", "--vertices", "96", "--robots", "10", "--alpha", "3",
                       "--budget", "60", "--seed", "7", "--out", str(out))
        assert code == 0
        assert load_scenario(out.read_bytes()).graph.n == 96

    def test_seeded_generation_is_reproducible(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            run_cli("gen", "--vertices", "20", "--robots", "4", "--alpha", "2",
                    "--budget", "25", "--seed", "3", "--out", str(out))
        assert a.read_bytes() == b.read_bytes()


class TestSolve:
    def test_rmop_solution_document(self, tmp_path, scenario_file):
        out = tmp_path / "r.json"
        code = run_cli("solve", "--scenario", str(scenario_file), "--planner", "rmop",
                       "--subroutine", "gcb", "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["s1_robots"]) == 1
        assert len(doc["paths"]) == 3
        assert doc["solver"]["method"] == "gcb"
        assert doc["loop_iterations"] >= 1

    def test_sga_puts_everyone_in_coverage_set(self, tmp_path, scenario_file):
        out = tmp_path / "r.json"
        assert run_cli("solve", "--scenario", str(scenario_file), "--planner", "sga",
                       "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["s1_robots"] == []
        assert sorted(doc["s2_robots"]) == [0, 1, 2]

    def test_exact_subroutine_size_guard(self, tmp_path, capsys):
        big = tmp_path / "big.json"
        run_cli("gen", "--vertices", "96", "--robots", "10", "--alpha", "3",
                "--budget", "60", "--seed", "7", "--out", str(big))
        code = run_cli("solve", "--scenario", str(big), "--planner", "rmop",
                       "--subroutine", "exact", "--out", str(tmp_path / "r.json"))
        assert code == 1
        assert "gcb" in capsys.readouterr().err

    def test_ng_planner(self, tmp_path, scenario_file):
        out = tmp_path / "r.json"
        assert run_cli("solve", "--scenario", str(scenario_file), "--planner", "ng",
                       "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["bound_report"] is None
        assert "baseline" in doc["bound_note"]

    @pytest.mark.parametrize("planner", PLANNER_NAMES)
    def test_rewards_adding_up_to_inf_are_one_error_line(self, tmp_path, capsys, planner):
        # Each reward is finite and loads alone; their total, the team reward, is not.
        scenario = tmp_path / "s.json"
        assert run_cli("gen", "--vertices", "6", "--robots", "3", "--alpha", "1",
                       "--budget", "100", "--seed", "1", "--out", str(scenario)) == 0
        doc = json.loads(scenario.read_text())
        for vertex in doc["vertices"]:
            vertex["reward"] = 1.5e308
        scenario.write_text(json.dumps(doc))
        capsys.readouterr()
        out = tmp_path / "r.json"
        code = run_cli("solve", "--scenario", str(scenario), "--planner", planner,
                       "--out", str(out))
        assert code == 1 and not out.exists()
        assert capsys.readouterr().err.splitlines() == [
            f"error: {scenario}: vertex rewards add up to inf; the total reward must be finite"]

    def test_no_writer_emits_a_non_json_number(self):
        for value in (math.inf, math.nan):
            with pytest.raises(ValueError):
                rmop.cli._dump_json({"team_reward": value})

    def test_coverage_scenario_end_to_end(self, tmp_path, capsys):
        scenario = tmp_path / "cov.json"
        assert run_cli("gen", "--vertices", "16", "--robots", "3", "--alpha", "1",
                       "--budget", "40", "--seed", "9", "--reward-kind", "coverage",
                       "--out", str(scenario)) == 0
        out = tmp_path / "r.json"
        assert run_cli("solve", "--scenario", str(scenario), "--planner", "rmop",
                       "--out", str(out)) == 0
        assert run_cli("verify", "--scenario", str(scenario),
                       "--solution", str(out)) == 0
        assert run_cli("attack", str(out), "--scenario", str(scenario),
                       "--model", "greedy", "--size", "1") == 0
        doc = json.loads(capsys.readouterr().out.split("OK")[-1].split("\n", 1)[-1])
        assert doc["model"] == "worst-greedy"


@pytest.fixture
def solved(tmp_path, scenario_file):
    out = tmp_path / "r.json"
    assert run_cli("solve", "--scenario", str(scenario_file), "--planner", "rmop",
                   "--out", str(out)) == 0
    return scenario_file, out


class TestAttack:
    def test_worst_attack_report(self, tmp_path, solved, capsys):
        scenario_file, solution_file = solved
        out = tmp_path / "a.json"
        code = run_cli("attack", str(solution_file), "--scenario", str(scenario_file),
                       "--model", "worst", "--size", "1", "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["removed"]) == 1
        assert doc["residual"] <= doc["f_S"] + 1e-9

    def test_random_attack_deterministic(self, tmp_path, solved):
        scenario_file, solution_file = solved
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run_cli("attack", str(solution_file), "--scenario", str(scenario_file),
                           "--model", "random", "--size", "1", "--seed", "1",
                           "--out", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_random_attack_requires_seed(self, solved, capsys):
        scenario_file, solution_file = solved
        assert run_cli("attack", str(solution_file), "--scenario", str(scenario_file),
                       "--model", "random", "--size", "1") == 1
        assert "--seed" in capsys.readouterr().err

    def test_random_attack_negative_seed_names_the_flag(self, solved, capsys):
        scenario_file, solution_file = solved
        capsys.readouterr()
        assert run_cli("attack", str(solution_file), "--scenario", str(scenario_file),
                       "--model", "random", "--size", "1", "--seed", "-3") == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == ["error: random attack seed (--seed) must be >= 0, got -3"]

    def test_digest_mismatch_refused(self, tmp_path, solved, capsys):
        _, solution_file = solved
        other = tmp_path / "other.json"
        run_cli("gen", "--vertices", "12", "--robots", "3", "--alpha", "1",
                "--budget", "30", "--seed", "8", "--out", str(other))
        code = run_cli("attack", str(solution_file), "--scenario", str(other),
                       "--model", "worst", "--size", "1")
        assert code == 1
        assert "digest mismatch" in capsys.readouterr().err

    def test_partial_uses_scenario_alpha(self, solved, capsys):
        scenario_file, solution_file = solved
        code = run_cli("attack", str(solution_file), "--scenario", str(scenario_file),
                       "--model", "partial", "--size", "1")
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["model"] == "partial"

    def test_partial_above_the_scenario_alpha_names_the_attack_size(self, solved, capsys):
        scenario_file, solution_file = solved
        capsys.readouterr()
        assert run_cli("attack", str(solution_file), "--scenario", str(scenario_file),
                       "--model", "partial", "--size", "2") == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: attack size 2 exceeds the planned attack size 1"]

    @pytest.mark.parametrize("model", ["worst", "greedy", "random", "partial"])
    def test_report_matches_the_library_dispatch(self, solved, capsys, model):
        scenario_file, solution_file = solved
        capsys.readouterr()
        assert run_cli("attack", str(solution_file), "--scenario", str(scenario_file),
                       "--model", model, "--size", "1", "--seed", "3") == 0
        doc = json.loads(capsys.readouterr().out)
        scenario = load_scenario(scenario_file.read_bytes())
        solution, problems = read_solution(str(solution_file), scenario,
                                           scenario_file.read_bytes())
        assert problems == []
        outcome = run_attack(model, RewardModel.from_scenario(scenario), solution, 1, seed=3,
                             planned_alpha=scenario.alpha)
        assert doc["removed"] == sorted(outcome.removed)
        assert doc["residual"] == outcome.residual

    def test_plan_failing_verify_refused(self, tmp_path, solved, capsys):
        scenario_file, solution_file = solved
        doc = json.loads(solution_file.read_text())
        doc["paths"][1]["robot"] = 0
        relabelled = tmp_path / "relabelled.json"
        relabelled.write_text(json.dumps(doc))
        capsys.readouterr()
        code = run_cli("attack", str(relabelled), "--scenario", str(scenario_file),
                       "--model", "worst", "--size", "1")
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            f"error: {relabelled}: paths[1].robot is 0; rmop solve writes 1"]


def rmop_exceptions():
    """Every Exception subclass that an rmop module defines, by name."""
    found = {}
    for info in pkgutil.iter_modules(rmop.__path__):
        module = importlib.import_module(f"rmop.{info.name}")
        found.update((name, obj) for name, obj in vars(module).items()
                     if isinstance(obj, type) and issubclass(obj, Exception)
                     and obj.__module__ == module.__name__)
    return sorted(found.items())


RMOP_EXCEPTIONS = rmop_exceptions()


def test_the_exception_walk_finds_every_rmop_exception():
    assert {"PlannerLoopError", "RewardError", "ScenarioError", "SizeGuardError"} <= {
        name for name, _ in RMOP_EXCEPTIONS}


@pytest.mark.parametrize("exception", [cls for _, cls in RMOP_EXCEPTIONS],
                         ids=[name for name, _ in RMOP_EXCEPTIONS])
def test_every_rmop_exception_is_one_error_line(exception, tmp_path, scenario_file, capsys,
                                                monkeypatch):
    def refuse(*args, **kwargs):
        raise exception("planner refused")

    monkeypatch.setattr(rmop.bench, "plan", refuse)
    out = tmp_path / "r.json"
    capsys.readouterr()
    code = run_cli("solve", "--scenario", str(scenario_file), "--planner", "rmop",
                   "--out", str(out))
    assert code == 1 and not out.exists()
    assert capsys.readouterr().err == "error: planner refused\n"


def test_parser_choices_are_the_library_tables():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))

    def choices(command, flag):
        return next(tuple(a.choices) for a in sub.choices[command]._actions
                    if flag in a.option_strings)

    assert choices("solve", "--planner") == PLANNER_NAMES
    assert choices("solve", "--subroutine") == SUBROUTINES
    assert choices("attack", "--model") == ATTACK_MODELS
    assert choices("gen", "--layout") == LAYOUTS
    assert choices("gen", "--reward-kind") == REWARD_KINDS


class TestBench:
    def spec_doc(self, trials=1):
        return {
            "scenario": {"vertices": 12, "robots": 3, "budget": 30.0, "seed": 4},
            "planners": ["rmop", "sga", "ng"],
            "attacks": [{"model": "greedy", "sizes": [1, 2]}],
            "trials": trials,
            "seed": 5,
        }

    def test_end_to_end(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(self.spec_doc(trials=2)))
        csv_out = tmp_path / "out.csv"
        summary_out = tmp_path / "summary.json"
        code = run_cli("bench", "--spec", str(spec), "--out-csv", str(csv_out),
                       "--out-summary", str(summary_out), "--no-timing")
        assert code == 0
        lines = csv_out.read_text().strip().split("\n")
        assert len(lines) == 1 + 2 * 3 * 2
        summary = json.loads(summary_out.read_text())
        assert len(summary["groups"]) == 3 * 2
        assert [g["trials"] for g in summary["groups"]] == [2] * 6

    def test_zero_trials(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(self.spec_doc(trials=0)))
        csv_out = tmp_path / "out.csv"
        assert run_cli("bench", "--spec", str(spec), "--out-csv", str(csv_out)) == 0
        assert csv_out.read_text().startswith("trial,planner,")

    def test_unknown_planner_in_spec(self, tmp_path, capsys):
        doc = self.spec_doc()
        doc["planners"] = ["rmop", "magic"]
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        assert run_cli("bench", "--spec", str(spec), "--out-csv", str(tmp_path / "o.csv")) == 1
        assert "unknown planner" in capsys.readouterr().err

    def test_an_experiment_larger_than_memory_is_one_error_line(self, tmp_path, capsys,
                                                                  monkeypatch):
        def refuse(*args, **kwargs):
            raise MemoryError(NUMPY_MEMORY_MESSAGE)

        monkeypatch.setattr(rmop.bench, "run_experiment", refuse)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(self.spec_doc()))
        csv_out = tmp_path / "o.csv"
        assert run_cli("bench", "--spec", str(spec), "--out-csv", str(csv_out)) == 1
        assert not csv_out.exists()
        assert capsys.readouterr().err.splitlines() == ["error: " + NUMPY_MEMORY_MESSAGE]

    def test_a_reassignment_loop_over_its_cap_is_one_error_line(self, tmp_path, capsys,
                                                                  monkeypatch):
        monkeypatch.setattr(rmop.planner, "LOOP_CAP_PER_ROBOT", 0)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(self.spec_doc()))
        csv_out = tmp_path / "o.csv"
        assert run_cli("bench", "--spec", str(spec), "--out-csv", str(csv_out)) == 1
        assert not csv_out.exists()
        assert capsys.readouterr().err.splitlines() == [
            "error: reassignment loop exceeded 0 iterations; pool rewards ()"]

    def test_an_overflowed_summary_is_one_error_line(self, tmp_path, capsys):
        # The residuals are finite, but their variance overflows to inf.
        scenario = tmp_path / "s.json"
        assert run_cli("gen", "--vertices", "8", "--robots", "3", "--alpha", "1",
                       "--budget", "30", "--seed", "4", "--out", str(scenario)) == 0
        doc = json.loads(scenario.read_text())
        for i, vertex in enumerate(doc["vertices"]):
            vertex["reward"] = (1 + i) * 1e200
        scenario.write_text(json.dumps(doc))
        spec = dict(self.spec_doc(trials=3), scenario={"path": str(scenario)})
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        capsys.readouterr()
        summary = tmp_path / "summary.json"
        code = run_cli("bench", "--spec", str(spec_path), "--out-csv",
                       str(tmp_path / "o.csv"), "--out-summary", str(summary))
        assert code == 1 and not summary.exists()
        assert capsys.readouterr().err.splitlines() == [
            "error: Out of range float values are not JSON compliant: inf"]


    def test_crossover_output_is_pinned(self, tmp_path):
        # The crossover spec of the ROADMAP at one trial: any change to planning,
        # attacks or record formatting moves these digests.
        doc = {"scenario": {"vertices": 96, "robots": 10, "budget": 60.0, "layout": "grid",
                            "bumps": 3, "seed": 1},
               "planners": ["rmop", "sga", "ng"],
               "attacks": [{"model": "worst", "sizes": [1, 2, 3, 4, 5, 6, 7, 8]},
                           {"model": "greedy", "sizes": [1, 2, 3, 4, 5, 6, 7, 8]}],
               "trials": 1, "seed": 7}
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        csv_out, summary_out = tmp_path / "out.csv", tmp_path / "summary.json"
        assert run_cli("bench", "--no-timing", "--spec", str(spec), "--out-csv", str(csv_out),
                       "--out-summary", str(summary_out)) == 0
        assert hashlib.sha256(csv_out.read_bytes()).hexdigest() == (
            "16f181aac7f98035be107d78a2cee3e9b1333fb92e1de1d51263d25befd2a7dc")
        assert hashlib.sha256(summary_out.read_bytes()).hexdigest() == (
            "e342b1de60efc94d27b86330cad61b21f9defb3e074d7981d2931390ceb35f23")

    def test_coverage_output_is_pinned(self, tmp_path):
        # The coverage-attack benchmark scenario at one trial and small attack
        # sizes: pins the coverage reward path (shared cells, masking in sga,
        # cell-union team rewards) the way the crossover pin covers modular.
        sizes = [1, 2, 3, 4]
        doc = {"scenario": {"vertices": 64, "robots": 16, "budget": 60.0, "layout": "uniform",
                            "bumps": 3, "seed": 1, "reward_kind": "coverage"},
               "planners": ["rmop", "sga", "ng"],
               "attacks": [{"model": "worst", "sizes": sizes},
                           {"model": "greedy", "sizes": sizes}],
               "trials": 1, "seed": 7}
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        csv_out, summary_out = tmp_path / "out.csv", tmp_path / "summary.json"
        assert run_cli("bench", "--no-timing", "--spec", str(spec), "--out-csv", str(csv_out),
                       "--out-summary", str(summary_out)) == 0
        assert hashlib.sha256(csv_out.read_bytes()).hexdigest() == (
            "3e7d2aeb65f69a1c356148247730130fb86059c4182958bf7f0b353f87fe7100")
        assert hashlib.sha256(summary_out.read_bytes()).hexdigest() == (
            "22e53049c8c55443742c90bf4f9722a0aff597a8565868e5d13b961635b75ab2")


def test_every_command_output_is_pinned(tmp_path, monkeypatch):
    # Two 4-robot maps, each planner's solution on each, and a worst attack of size 1 on
    # every solution: 14 files, concatenated in sorted order of their names.
    monkeypatch.chdir(tmp_path)
    names = []
    for kind in REWARD_KINDS:
        assert run_cli("gen", "--vertices", "30", "--robots", "4", "--alpha", "1", "--budget",
                       "25", "--seed", "1", "--reward-kind", kind, "--out", f"{kind}.json") == 0
        names.append(f"{kind}.json")
        for planner in PLANNER_NAMES:
            solution, report = f"{kind}-{planner}.json", f"{kind}-{planner}-attack.json"
            assert run_cli("solve", "--scenario", f"{kind}.json", "--planner", planner,
                           "--out", solution) == 0
            assert run_cli("attack", solution, "--scenario", f"{kind}.json", "--model", "worst",
                           "--size", "1", "--out", report) == 0
            names += [solution, report]
    assert len(names) == 14
    digest = hashlib.sha256(b"".join((tmp_path / n).read_bytes() for n in sorted(names)))
    assert digest.hexdigest() == (
        "ddebaf660d1cb02b6179747d251fb7bc71ee84963bde8e2599cebc44b8bc53bc")


class TestVerify:
    def test_clean_pair_exits_zero(self, solved, capsys):
        scenario_file, solution_file = solved
        code = run_cli("verify", "--scenario", str(scenario_file),
                       "--solution", str(solution_file))
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_nonmetric_matrix_exits_one_listing_all_violations(self, tmp_path, capsys):
        doc = {
            "vertices": [{"id": i, "x": 0.0, "y": 0.0, "reward": 1.0} for i in range(3)],
            "distance_matrix": [[0.0, 1.0, 10.0], [1.0, 0.0, 1.0], [10.0, 1.0, 0.0]],
            "starts": [0], "budget": 3.0, "alpha": 0, "reward_kind": "modular",
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code = run_cli("verify", "--scenario", str(path))
        assert code == 1
        out = capsys.readouterr().out
        assert "(0,1,2)" in out and "(2,1,0)" in out

    @pytest.mark.parametrize("matrix, fails", [
        ([[0.0, 1e308, 1e308], [1e308, 0.0, 1e308], [1e308, 1e308, 0.0]], []),
        ([[0.0, 1.0, 1.0], [1.0, -1e308, 1.0], [1.0, 1.0, 0.0]],
         ["graph is not metric: negative distance at (1,1); nonzero diagonal at 1",
          "negative distance at (1,1)", "nonzero diagonal at 1"]),
        ([[0.0, -1e308, 1.0], [1e308, 0.0, 1.0], [1.0, 1.0, 0.0]],
         ["graph is not metric: negative distance at (0,1); asymmetric distance at (0,1); "
          "triangle inequality violated at (0,1,2); triangle inequality violated at (1,2,0); "
          "triangle inequality violated at (2,0,1)",
          "negative distance at (0,1)", "asymmetric distance at (0,1)",
          "triangle inequality violated at (0,1,2)", "triangle inequality violated at (1,2,0)",
          "triangle inequality violated at (2,0,1)"]),
    ], ids=["near-max", "negative-diagonal", "opposite-signs"])
    def test_a_matrix_near_the_largest_float_warns_nothing(self, matrix, fails, tmp_path,
                                                           capsys):
        # Sums and differences of these entries overflow inside the metric check.
        doc = {
            "vertices": [{"id": i, "x": float(i), "y": 0.0, "reward": 1.0} for i in range(3)],
            "distance_matrix": matrix,
            "starts": [0, 1], "budget": 3.0, "alpha": 1, "reward_kind": "modular",
        }
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        code = run_cli("verify", "--scenario", str(path))
        out, err = capsys.readouterr()
        # The first line is the load's error, which names the file as `rmop solve`'s does.
        assert (code, out.splitlines(), err) == (
            (1, [f"FAIL: {path}: {fails[0]}"] + [f"FAIL: {line}" for line in fails[1:]], "")
            if fails
            else (0, ["OK: all checks passed"], ""))
        code = run_cli("solve", "--scenario", str(path), "--planner", "rmop",
                       "--out", str(tmp_path / "plan.json"))
        err = capsys.readouterr().err
        assert (code, err.splitlines()) == ((1, [f"error: {path}: {fails[0]}"]) if fails
                                            else (0, []))

    def test_valid_scenario_is_metric_checked_only_by_its_load(self, scenario_file,
                                                               monkeypatch):
        calls = []
        real = rmop.graph.verify_metric
        counting = lambda g: calls.append(g) or real(g)  # noqa: E731
        monkeypatch.setattr(rmop.graph, "verify_metric", counting)
        monkeypatch.setattr(rmop.cli, "verify_metric", counting, raising=False)
        assert run_cli("verify", "--scenario", str(scenario_file)) == 0
        assert len(calls) == 1

    def test_a_missing_scenario_still_gets_a_json_report(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        code = run_cli("verify", "--scenario", str(missing), "--json")
        out, err = capsys.readouterr()
        report = json.loads(out)
        assert (code, err, report["ok"]) == (1, "", False)
        assert report["scenario"]["error"].startswith(f"cannot read {missing}: ")

    @pytest.mark.parametrize("as_json", [False, True])
    def test_a_solution_behind_an_unreadable_scenario_is_reported_unchecked(
            self, tmp_path, solved, capsys, as_json):
        _, solution_file = solved
        capsys.readouterr()
        code = run_cli("verify", "--scenario", str(tmp_path / "nope.json"),
                       "--solution", str(solution_file), *(["--json"] if as_json else []))
        out, err = capsys.readouterr()
        assert (code, err) == (1, "")
        unchecked = f"{solution_file}: not checked: the scenario did not load"
        if as_json:
            assert json.loads(out)["solution"] == {"path": str(solution_file), "error": unchecked}
        else:
            assert out.splitlines()[-1] == f"FAIL: solution: {unchecked}"

    def test_tampered_solution_exits_one(self, tmp_path, solved, capsys):
        scenario_file, solution_file = solved
        doc = json.loads(solution_file.read_text())
        doc["paths"][0]["vertices"] = doc["paths"][0]["vertices"] + [99]
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(doc))
        code = run_cli("verify", "--scenario", str(scenario_file),
                       "--solution", str(tampered), "--json")
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False

    def test_an_exact_label_on_a_gcb_plan_is_refused_by_its_bound_report(self, tmp_path, solved,
                                                                         capsys):
        # The solve wrote gcb's eta into the bound report; relabelled, the solver claims 1.0.
        scenario_file, solution_file = solved
        doc = json.loads(solution_file.read_text())
        assert doc["bound_report"]["eta"] == doc["solver"]["eta"] > 1.0
        doc["solver"] = {"method": "exact", "eta": 1.0, "eta_note": None}
        relabelled = tmp_path / "relabelled.json"
        relabelled.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli("verify", "--scenario", str(scenario_file),
                       "--solution", str(relabelled)) == 1
        assert capsys.readouterr().out.splitlines() == [
            f"FAIL: {relabelled}: bound_report.eta is {doc['bound_report']['eta']}; "
            f"rmop solve writes 1.0"]

    def test_a_plan_over_budget_by_a_rounding_is_refused_by_verify_and_attack(self, tmp_path,
                                                                              capsys):
        # `rmop solve --planner sga` collects 0.0 here: vertex 1 lies 1 + 5e-10 away, beyond
        # the budget of 1.0. A hand-built plan that walks there anyway scores 7.0.
        d = 1.0 + 5e-10
        doc = {"vertices": [{"id": 0, "x": 0.0, "y": 0.0, "reward": 0.0},
                            {"id": 1, "x": d, "y": 0.0, "reward": 7.0}],
               "distance_matrix": [[0.0, d], [d, 0.0]],
               "starts": [0], "budget": 1.0, "alpha": 0, "reward_kind": "modular"}
        scenario_file, plan_file = tmp_path / "s.json", tmp_path / "over.json"
        scenario_file.write_text(json.dumps(doc))
        data = scenario_file.read_bytes()
        scenario = load_scenario(data)
        over = Solution((Path(0, (0, 1), d),))
        plan_file.write_text(json.dumps(solution_document(scenario, data, over, "sga",
                                                          OpSolverConfig("gcb"))))
        problem = f"{plan_file}: robot 0 path cost {d} exceeds budget 1.0 by {d - 1.0}"
        assert problem.startswith(f"{plan_file}: robot 0 path cost 1.0000000005 exceeds budget "
                                  "1.0 by ")
        capsys.readouterr()
        assert run_cli("verify", "--scenario", str(scenario_file),
                       "--solution", str(plan_file)) == 1
        assert capsys.readouterr().out.splitlines() == [f"FAIL: {problem}"]
        assert run_cli("attack", str(plan_file), "--scenario", str(scenario_file),
                       "--model", "worst", "--size", "0") == 1
        assert capsys.readouterr() == ("", f"error: {problem}\n")

    def test_json_report_shape(self, solved, capsys):
        scenario_file, solution_file = solved
        code = run_cli("verify", "--scenario", str(scenario_file),
                       "--solution", str(solution_file), "--json")
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert report["solution"]["violations"] == []


class TestRoundTrips:
    def test_scenario_files_round_trip_through_the_cli(self, tmp_path):
        for seed in range(4):
            scenario = generate_scenario(10, 3, 1, 9.0, layout="uniform", seed=seed,
                                         reward_kind="coverage" if seed % 2 else "modular")
            path = tmp_path / f"s{seed}.json"
            path.write_bytes(dump_scenario(scenario))
            again = load_scenario(path.read_bytes())
            assert scenario_to_document(again) == scenario_to_document(scenario)
            assert dump_scenario(again) == dump_scenario(scenario)


def strict_json(text):
    """A JSON document, refused if it holds a token (NaN, Infinity) that no reader accepts."""
    def refuse(token):
        raise ValueError(f"non-JSON token {token}")
    return json.loads(text, parse_constant=refuse)


def chain_step(*argv):
    """Run one command; it exits 0 quietly on stderr, or 1 with exactly one `error:` line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    lines = err.getvalue().splitlines()
    assert (code, lines) == (0, []) or (code == 1 and len(lines) == 1
                                        and lines[0].startswith("error: ")), (argv, code, lines)
    return code


NEAR_MAX = st.floats(1e300, sys.float_info.max)  # finite, and near the largest float


def edit_scenario(path, data):
    """Redraw some of a generated document's rewards, weights, distances and budget.

    Returns whether anything was edited. Rewards and weights go near the largest float,
    distances become subnormal multiples of a line metric or a symmetric matrix near the
    largest float, and the budget becomes 0 or near the largest float. Edited documents
    may be refused, with one `error:` line.
    """
    with open(path) as fh:
        doc = json.load(fh)
    edited = False
    if data.draw(st.booleans(), label="huge rewards"):
        for vertex in doc["vertices"]:
            vertex["reward"] = data.draw(NEAR_MAX)
        edited = True
    if data.draw(st.booleans(), label="huge weights"):
        cells = sorted({c for vertex in doc["vertices"] for c, _ in vertex.get("coverage", [])})
        weight = {c: data.draw(NEAR_MAX) for c in cells}
        for vertex in doc["vertices"]:
            vertex["coverage"] = [[c, weight[c]] for c, _ in vertex.get("coverage", [])]
        edited = edited or bool(cells)
    if data.draw(st.booleans(), label="subnormal distances"):
        n = len(doc["vertices"])
        at = data.draw(st.permutations(range(n)))
        step = data.draw(st.integers(1, 3)) * 5e-324  # the smallest subnormal
        doc["distance_matrix"] = [[abs(at[i] - at[j]) * step for j in range(n)]
                                  for i in range(n)]
        edited = True
    if data.draw(st.booleans(), label="huge distances"):
        n = len(doc["vertices"])
        upper = {(i, j): data.draw(NEAR_MAX) for i in range(n) for j in range(i + 1, n)}
        doc["distance_matrix"] = [[upper[min(i, j), max(i, j)] if i != j else 0.0
                                   for j in range(n)] for i in range(n)]
        edited = True
    budget = data.draw(st.one_of(st.none(), st.just(0.0), NEAR_MAX), label="budget")
    if budget is not None:
        doc["budget"] = budget
        edited = True
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return edited


class TestCommandChain:
    """gen → solve → attack → verify, each document read by the next command."""

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_every_document_loads_in_the_next_command(self, data):
        n, robots = data.draw(st.integers(2, 6)), data.draw(st.integers(1, 3))
        with tempfile.TemporaryDirectory() as tmp:
            scenario = os.path.join(tmp, "s.json")
            assert chain_step(
                "gen", "--vertices", str(n), "--robots", str(robots),
                "--alpha", str(data.draw(st.integers(0, robots - 1))),
                "--budget", repr(data.draw(st.sampled_from([0.0, 1.0, 30.0, 300.0]))),
                "--layout", data.draw(st.sampled_from(LAYOUTS)),
                "--reward-kind", data.draw(st.sampled_from(REWARD_KINDS)),
                "--seed", str(data.draw(st.integers(0, 2 ** 32 - 1))), "--out", scenario) == 0
            edited = edit_scenario(scenario, data)
            for planner in PLANNER_NAMES:
                solution = os.path.join(tmp, f"{planner}.json")
                code = chain_step("solve", "--scenario", scenario, "--planner", planner,
                                  "--subroutine", data.draw(st.sampled_from(SUBROUTINES)),
                                  "--out", solution)
                assert code == 0 or edited  # gen's own document always solves
                if code:
                    assert not os.path.exists(solution)
                    continue
                with open(solution) as fh:
                    strict_json(fh.read())
                report = os.path.join(tmp, f"{planner}-attack.json")
                code = chain_step("attack", solution, "--scenario", scenario,
                                  "--model", data.draw(st.sampled_from(ATTACK_MODELS)),
                                  "--size", str(data.draw(st.integers(0, robots))),
                                  "--seed", str(data.draw(st.integers(0, 99))), "--out", report)
                if code == 0:
                    with open(report) as fh:
                        assert strict_json(fh.read())["residual"] >= 0.0
                assert chain_step("verify", "--scenario", scenario, "--solution", solution) == 0
