"""Command-line surface: generate, solve, attack, bench, verify.

All documents are UTF-8 JSON with stable key order; the bench command also
emits RFC-4180 CSV. Every random choice flows from an explicit --seed flag.
Solution and attack documents embed a digest of the scenario bytes they were
computed from, so a stale or swapped scenario is refused instead of silently
mis-scored. Exit codes: 0 success, 1 validation/verification failure or a
request larger than memory, 2 usage error. Library errors become exit 1 and
one `error:` line in `main` alone; the commands only add context to them.
Every document is read through `graph.read_document`, so each `error:` or
`FAIL:` line about a document names its file. `read_solution` alone judges a
solution against its scenario; `verify` reports a solution it could not check.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from typing import Optional, Sequence

from .graph import (LAYOUTS, REWARD_KINDS, Path, Scenario, ScenarioError, check_keys,
                    dump_scenario, generate_scenario, load_json, load_scenario, read_document,
                    read_field, read_ints)
from .reward import RewardModel
from .orienteering import SUBROUTINES, OpSolverConfig, SizeGuardError
from .planner import PlannerLoopError, Solution, check_solution
from .attack import ATTACK_MODELS, run_attack
from . import bench


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


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


def _read_robots(doc: dict, key: str) -> frozenset[int]:
    first: dict[int, int] = {}  # robot -> the index that first lists it
    for i, robot in enumerate(read_ints(doc, key)):
        if first.setdefault(robot, i) != i:
            raise ScenarioError(f"{key}[{i}] repeats robot {robot} from {key}[{first[robot]}]")
    return frozenset(first)


def _check_all_keys(obj: dict, keys: set, what: str) -> None:
    """Refuse an object whose keys are not exactly `keys`, naming the unknown or missing ones."""
    check_keys(obj, keys, what)
    if set(obj) != keys:
        raise ScenarioError(f"missing {what} {sorted(keys - set(obj))}")


def load_solution(data: bytes) -> tuple[Solution, str]:
    """Rebuild (solution, scenario digest) from a solution document's bytes.

    Keys, types and every value a writer fixes are checked here (the planner, the
    loop count, repeated robots, the solver, the bound report's keys and eta);
    read_solution judges the solution against a scenario.
    """
    doc = load_json(data)
    if not isinstance(doc, dict):
        raise ScenarioError("expected a JSON object")
    _check_all_keys(doc, {"scenario_sha256", "planner", "solver", "paths", "s1_robots",
                          "s2_robots", "team_reward", "loop_iterations", "bound_report",
                          "bound_note"}, "solution keys")
    raw_paths = read_field(doc, "paths", list)
    paths, rewards = [], []
    for i in range(len(raw_paths)):
        where = f"paths[{i}]"
        entry = read_field(raw_paths, i, dict, "paths")
        check_keys(entry, {"robot", "vertices", "cost", "reward"}, f"keys in {where}")
        paths.append(Path(robot=read_field(entry, "robot", int, where),
                          vertices=tuple(read_ints(entry, "vertices", where)),
                          cost=read_field(entry, "cost", float, where)))
        rewards.append(read_field(entry, "reward", float, where))
    solution = Solution(
        paths=tuple(paths),
        s1_robots=_read_robots(doc, "s1_robots"),
        s2_robots=_read_robots(doc, "s2_robots"),
        team_reward=read_field(doc, "team_reward", float),
        loop_iterations=read_field(doc, "loop_iterations", int),
        per_path_rewards=tuple(rewards),
    )
    if solution.loop_iterations < 0:
        raise ScenarioError(f"loop_iterations must be >= 0, got {solution.loop_iterations}")
    planner = read_field(doc, "planner", str)
    if planner not in bench.PLANNER_NAMES:
        raise ScenarioError(f"unknown planner {planner!r}; expected one of {bench.PLANNER_NAMES}")
    solver = read_field(doc, "solver", dict)
    method = read_field(solver, "method", str, "solver")
    if method not in SUBROUTINES:
        raise ScenarioError(f"unknown solver.method {method!r}; expected one of {SUBROUTINES}")
    config = OpSolverConfig(method)
    read_field(solver, "eta", float, "solver")  # true equals 1.0 but is no number
    if solver != {"method": method, "eta": config.eta, "eta_note": config.eta_note}:
        raise ScenarioError(f"solver must be the method, eta and eta_note of the {method!r} "
                            f"solver, whose eta is {config.eta}")
    if doc["bound_report"] is not None:  # the solve writes its solver's eta into the report
        report = read_field(doc, "bound_report", dict)
        _check_all_keys(report, {f.name for f in dataclasses.fields(bench.BoundReport)},
                        "bound_report keys")
        if read_field(report, "eta", float, "bound_report") != config.eta:
            raise ScenarioError(f"bound_report.eta is {report['eta']}; the {method!r} "
                                f"solver's eta is {config.eta}")
    if doc["bound_note"] is not None:
        read_field(doc, "bound_note", str)
    return solution, read_field(doc, "scenario_sha256", str)


def read_solution(path: str, scenario: Scenario, data: bytes) -> tuple[Solution, list[str]]:
    """The solution at `path` and its problems against `scenario`, whose bytes are `data`."""
    (solution, digest), _ = read_document(path, load_solution)
    problems = [] if digest == scenario_digest(data) else ["scenario digest mismatch"]
    return solution, problems + check_solution(scenario, solution)


def cmd_gen(args: argparse.Namespace) -> int:
    scenario = generate_scenario(
        n_vertices=args.vertices, n_robots=args.robots, alpha=args.alpha,
        budget=args.budget, layout=args.layout, bumps=args.bumps, seed=args.seed,
        reward_kind=args.reward_kind)
    _write_text(args.out, dump_scenario(scenario).decode("utf-8"))
    print(f"wrote scenario with {args.vertices} vertices, {args.robots} robots to {args.out}")
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    scenario, data = read_document(args.scenario, load_scenario)
    solver = OpSolverConfig(method=args.subroutine)
    solution = bench.plan(args.planner, scenario, solver)

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

    doc = solution_to_document(solution, args.planner, solver, scenario_digest(data), bound,
                               bound_note)
    _write_text(args.out, _dump_json(doc))
    print(f"wrote solution (team reward {solution.team_reward}) to {args.out}")
    return 0


def cmd_attack(args: argparse.Namespace) -> int:
    scenario, data = read_document(args.scenario, load_scenario)
    solution, problems = read_solution(args.solution, scenario, data)
    if problems:
        raise ScenarioError(f"{args.solution}: {problems[0]}")
    outcome = run_attack(args.model, RewardModel.from_scenario(scenario), solution,
                         args.size, seed=args.seed, planned_alpha=scenario.alpha)
    report = {
        "scenario_sha256": scenario_digest(data),
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
    spec, _ = read_document(args.spec, lambda data: bench.ExperimentSpec.from_document(load_json(data)))
    records = bench.run_experiment(spec, measure_time=not args.no_timing)
    summary = _dump_json(bench.summarize(records)) if args.out_summary else ""
    _write_text(args.out_csv, bench.records_to_csv(records))
    if args.out_summary:
        _write_text(args.out_summary, summary)
    print(f"wrote {len(records)} records to {args.out_csv}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    report: dict = {"scenario": {"path": args.scenario, "metric_violations": []}, "ok": True}
    problems: list[str] = []
    scenario = None
    try:
        scenario, data = read_document(args.scenario, load_scenario)
    except ScenarioError as exc:
        problems.append(str(exc))
        report["scenario"]["error"] = str(exc)
        if exc.report is not None:
            report["scenario"]["metric_violations"] = exc.report.entries()
            problems.extend(exc.report.entries())
    if args.solution:
        try:
            if scenario is None:
                raise ScenarioError(f"{args.solution}: not checked: the scenario did not load")
            _, sol_problems = read_solution(args.solution, scenario, data)
        except ScenarioError as exc:
            problems.append(f"solution: {exc}")
            report["solution"] = {"path": args.solution, "error": str(exc)}
        else:
            report["solution"] = {"path": args.solution, "violations": sol_problems}
            problems.extend(f"{args.solution}: {p}" for p in sol_problems)
    report["ok"] = not problems
    if args.json:
        print(_dump_json(report), end="")
    else:
        print("\n".join(f"FAIL: {p}" for p in problems) or "OK: all checks passed")
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
    # ValueError covers ScenarioError, RewardError and numpy's refused array arguments;
    # OSError is a file that cannot be written; numpy's MemoryError names the array it
    # refused, a bare one names nothing.
    except (OSError, ValueError, SizeGuardError, PlannerLoopError, MemoryError) as exc:
        bare = isinstance(exc, MemoryError) and not str(exc)
        print(f"error: {'out of memory' if bare else exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
