"""Command-line surface: generate, solve, attack, bench, verify.

All documents are UTF-8 JSON with stable key order; the bench command also
emits RFC-4180 CSV. Every random choice flows from an explicit --seed flag.
Solution and attack documents embed a digest of the scenario bytes they were
computed from, so a stale or swapped scenario is refused instead of silently
mis-scored. Exit codes: 0 success, 1 validation/verification failure or a
request larger than memory, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from typing import Optional, Sequence

from .graph import (LAYOUTS, REWARD_KINDS, Path, Scenario, ScenarioError, dump_scenario,
                    generate_scenario, load_scenario, read_field, read_ints)
from .reward import RewardModel
from .orienteering import SUBROUTINES, OpSolverConfig, SizeGuardError
from .planner import PlannerLoopError, Solution, check_solution
from .attack import ATTACK_MODELS, run_attack
from . import bench


class CliError(Exception):
    """Validation failure surfaced to the user with exit code 1."""


def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


def _read_json(path: str):
    try:
        return json.loads(_read_bytes(path).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CliError(f"{path}: not valid JSON: {exc}") from exc


def _dump_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def scenario_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def solution_to_document(solution: Solution, planner: str, solver: OpSolverConfig,
                         digest: str, bound: Optional[bench.BoundReport],
                         bound_note: Optional[str]) -> dict:
    return {
        "scenario_sha256": digest,
        "planner": planner,
        "solver": {"method": solver.method, "eta": solver.eta, "eta_note": solver.eta_note},
        "paths": [
            {"robot": p.robot, "vertices": list(p.vertices), "cost": p.cost,
             "reward": solution.per_path_rewards[i]}
            for i, p in enumerate(solution.paths)
        ],
        "s1_robots": sorted(solution.s1_robots),
        "s2_robots": sorted(solution.s2_robots),
        "team_reward": solution.team_reward,
        "loop_iterations": solution.loop_iterations,
        "bound_report": None if bound is None else dataclasses.asdict(bound),
        "bound_note": bound_note,
    }


def solution_from_document(doc: dict) -> tuple[Solution, str, str]:
    """Rebuild (solution, planner name, scenario digest) from a document.

    Only types are checked here; check_solution judges the paths against a scenario.
    """
    try:
        if not isinstance(doc, dict):
            raise ScenarioError("expected a JSON object")
        raw_paths = read_field(doc, "paths", list)
        paths, rewards = [], []
        for i in range(len(raw_paths)):
            where = f"paths[{i}]"
            entry = read_field(raw_paths, i, dict, "paths")
            paths.append(Path(robot=read_field(entry, "robot", int, where),
                              vertices=tuple(read_ints(entry, "vertices", where)),
                              cost=read_field(entry, "cost", float, where)))
            rewards.append(read_field(entry, "reward", float, where))
        solution = Solution(
            paths=tuple(paths),
            s1_robots=frozenset(read_ints(doc, "s1_robots")),
            s2_robots=frozenset(read_ints(doc, "s2_robots")),
            team_reward=read_field(doc, "team_reward", float),
            loop_iterations=read_field(doc, "loop_iterations", int),
            per_path_rewards=tuple(rewards),
        )
        return solution, read_field(doc, "planner", str), read_field(doc, "scenario_sha256", str)
    except ScenarioError as exc:
        raise CliError(f"malformed solution document: {exc}") from exc


def cmd_gen(args: argparse.Namespace) -> int:
    try:
        scenario = generate_scenario(
            n_vertices=args.vertices, n_robots=args.robots, alpha=args.alpha,
            budget=args.budget, layout=args.layout, bumps=args.bumps, seed=args.seed,
            reward_kind=args.reward_kind)
    except ScenarioError as exc:
        raise CliError(str(exc)) from exc
    _write_text(args.out, dump_scenario(scenario).decode("utf-8"))
    print(f"wrote scenario with {args.vertices} vertices, {args.robots} robots to {args.out}")
    return 0


def _load_scenario_file(path: str) -> tuple[Scenario, str]:
    data = _read_bytes(path)
    try:
        scenario = load_scenario(data)
    except ScenarioError as exc:
        raise CliError(f"{path}: {exc}") from exc
    return scenario, scenario_digest(data)


def cmd_solve(args: argparse.Namespace) -> int:
    scenario, digest = _load_scenario_file(args.scenario)
    solver = OpSolverConfig(method=args.subroutine)
    try:
        solution = bench.plan(args.planner, scenario, solver)
    except (SizeGuardError, PlannerLoopError) as exc:
        raise CliError(str(exc)) from exc

    bound = None
    bound_note = None
    if args.planner in ("rmop", "sga") and scenario.alpha >= 1:
        model = RewardModel.from_scenario(scenario)
        try:
            bound = bench.bound_report(model, solution, solver.eta, scenario.alpha,
                                       scenario.n_robots)
        except ValueError as exc:
            bound_note = f"bound fractions unavailable: {exc}"
    elif args.planner == "ng":
        bound_note = "no guarantee fractions for the uncoordinated baseline"
    else:
        bound_note = "alpha is 0: no adversary, no robust fraction to report"

    doc = solution_to_document(solution, args.planner, solver, digest, bound, bound_note)
    _write_text(args.out, _dump_json(doc))
    print(f"wrote solution (team reward {solution.team_reward}) to {args.out}")
    return 0


def cmd_attack(args: argparse.Namespace) -> int:
    solution, _, digest = solution_from_document(_read_json(args.solution))
    scenario, actual_digest = _load_scenario_file(args.scenario)
    if digest != actual_digest:
        raise CliError(
            "scenario digest mismatch: the solution was computed from different "
            f"scenario bytes (expected {digest[:12]}..., got {actual_digest[:12]}...)")
    problems = check_solution(scenario, solution)
    if problems:
        raise CliError(f"solution does not pass verify: {problems[0]}")
    try:
        outcome = run_attack(args.model, RewardModel.from_scenario(scenario), solution,
                             args.size, seed=args.seed, planned_alpha=scenario.alpha)
    except (SizeGuardError, ValueError) as exc:
        raise CliError(str(exc)) from exc
    report = {
        "scenario_sha256": actual_digest,
        "model": outcome.model,
        "requested_size": args.size,
        "removed": sorted(outcome.removed),
        "residual": outcome.residual,
        "f_S": solution.team_reward,
        "seed": outcome.seed,
    }
    text = _dump_json(report)
    if args.out:
        _write_text(args.out, text)
        print(f"wrote attack report (residual {outcome.residual}) to {args.out}")
    else:
        print(text, end="")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    doc = _read_json(args.spec)
    try:
        spec = bench.ExperimentSpec.from_document(doc)
        records = bench.run_experiment(spec, measure_time=not args.no_timing)
        summary = _dump_json(bench.summarize(records)) if args.out_summary else ""
    except (ValueError, SizeGuardError) as exc:
        raise CliError(str(exc)) from exc
    _write_text(args.out_csv, bench.records_to_csv(records))
    if args.out_summary:
        _write_text(args.out_summary, summary)
    print(f"wrote {len(records)} records to {args.out_csv}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    data = _read_bytes(args.scenario)
    report: dict = {"scenario": {"path": args.scenario, "metric_violations": []}, "ok": True}
    problems: list[str] = []
    try:
        scenario = load_scenario(data)
    except ScenarioError as exc:
        problems.append(str(exc))
        report["scenario"]["error"] = str(exc)
        if exc.report is not None:
            report["scenario"]["metric_violations"] = exc.report.entries()
            problems.extend(exc.report.entries())
    else:
        if args.solution:
            try:
                solution, _, sol_digest = solution_from_document(_read_json(args.solution))
            except CliError as exc:
                problems.append(f"solution: {exc}")
                report["solution"] = {"path": args.solution, "error": str(exc)}
            else:
                sol_problems = []
                if sol_digest != scenario_digest(data):
                    sol_problems.append("scenario digest mismatch")
                sol_problems.extend(check_solution(scenario, solution))
                report["solution"] = {"path": args.solution, "violations": sol_problems}
                problems.extend(sol_problems)
    report["ok"] = not problems
    if args.json:
        print(_dump_json(report), end="")
    else:
        if problems:
            for p in problems:
                print(f"FAIL: {p}")
        else:
            print("OK: all checks passed")
    return 0 if not problems else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmop",
        description="Plan budget-limited robot paths that survive worst-case robot loss.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a scenario file")
    p_gen.add_argument("--vertices", type=int, required=True)
    p_gen.add_argument("--robots", type=int, required=True)
    p_gen.add_argument("--alpha", type=int, required=True)
    p_gen.add_argument("--budget", type=float, required=True)
    p_gen.add_argument("--layout", choices=LAYOUTS, default="grid")
    p_gen.add_argument("--bumps", type=int, default=3)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--reward-kind", choices=REWARD_KINDS, default="modular")
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_gen)

    p_solve = sub.add_parser("solve", help="plan paths for a scenario")
    p_solve.add_argument("--scenario", required=True)
    p_solve.add_argument("--planner", choices=bench.PLANNER_NAMES, required=True)
    p_solve.add_argument("--subroutine", choices=SUBROUTINES, default="gcb")
    p_solve.add_argument("--out", required=True)
    p_solve.set_defaults(func=cmd_solve)

    p_attack = sub.add_parser("attack", help="attack a solved plan and score survivors")
    p_attack.add_argument("solution", help="solution document from 'solve'")
    p_attack.add_argument("--scenario", required=True)
    p_attack.add_argument("--model", choices=ATTACK_MODELS, required=True)
    p_attack.add_argument("--size", type=int, required=True)
    p_attack.add_argument("--seed", type=int, default=None)
    p_attack.add_argument("--out", default=None)
    p_attack.set_defaults(func=cmd_attack)

    p_bench = sub.add_parser("bench", help="run a seeded experiment sweep")
    p_bench.add_argument("--spec", required=True, help="experiment spec JSON")
    p_bench.add_argument("--out-csv", required=True)
    p_bench.add_argument("--out-summary", default=None)
    p_bench.add_argument("--no-timing", action="store_true",
                         help="zero the plan_ms column for byte-stable output")
    p_bench.set_defaults(func=cmd_bench)

    p_verify = sub.add_parser("verify", help="validate a scenario and optional solution")
    p_verify.add_argument("--scenario", required=True)
    p_verify.add_argument("--solution", default=None)
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, MemoryError) as exc:  # numpy's MemoryError names the array it refused
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
