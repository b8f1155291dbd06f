"""Command-line surface: generate, solve, attack, bench, verify.

All documents are UTF-8 JSON with stable key order; the bench command also
emits RFC-4180 CSV. Every random choice flows from an explicit --seed flag.
Solution and attack documents embed a digest of the scenario bytes they were
computed from, so a stale or swapped scenario is refused instead of silently
mis-scored. Exit codes: 0 success, 1 validation/verification failure or a
request larger than memory, 2 usage error. Library errors become exit 1 and
one `error:` line in `main` alone; the commands only add context to them.
Every document is read through `graph.read_document`, so each `error:` or
`FAIL:` line about a document names its file. A solution document must be what
the one writer, `solution_document`, writes for the choices it holds.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from typing import Optional, Sequence

from .graph import (LAYOUTS, REWARD_KINDS, Path, Scenario, ScenarioError, dump_scenario,
                    generate_scenario, load_json, load_scenario, path_cost, read_document,
                    read_field, read_ints)
from .reward import RewardModel, eval_team, eval_vertex_set
from .orienteering import SUBROUTINES, OpSolverConfig, SizeGuardError
from .planner import PlannerLoopError, Solution, check_solution
from .attack import ATTACK_MODELS, run_attack
from . import bench

_ABSENT = object()  # a key that a JSON object lacks


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


def solution_document(scenario: Scenario, data: bytes, solution: Solution, planner: str,
                      solver: OpSolverConfig) -> dict:
    """The document `rmop solve` writes for `solution`; `data` is its scenario's bytes."""
    model = RewardModel.from_scenario(scenario)
    bound = note = None
    if planner == "ng":
        note = "no guarantee fractions for the uncoordinated baseline"
    elif scenario.alpha == 0:
        note = "alpha is 0: no adversary, no robust fraction to report"
    else:
        try:
            bound = dataclasses.asdict(bench.bound_report(model, solution, solver.eta,
                                                          scenario.alpha, scenario.n_robots))
        except ValueError as exc:
            note = f"bound fractions unavailable: {exc}"
    return {
        "scenario_sha256": scenario_digest(data),
        "planner": planner,
        "solver": {"method": solver.method, "eta": solver.eta, "eta_note": solver.eta_note},
        "paths": [{"robot": p.robot, "vertices": list(p.vertices), "cost": p.cost,
                   "reward": eval_vertex_set(model, p.vertices)} for p in solution.paths],
        "s1_robots": sorted(solution.s1_robots),
        "s2_robots": sorted(solution.s2_robots),
        "team_reward": eval_team(model, solution.paths),
        "loop_iterations": solution.loop_iterations,
        "bound_report": bound,
        "bound_note": note,
    }


def _difference(got, want, name: str = "") -> Optional[str]:
    """Where the JSON value `got` first differs from `want`, each read as canonical JSON text.

    Objects are walked in `want`'s key order, then `got`'s other keys, sorted; arrays of
    one length item by item. So `true` is not `1.0`, and `-0.0` is not `0.0`.
    """
    if isinstance(got, dict) and isinstance(want, dict):
        parts = [(f"{name}.{k}" if name else k, got.get(k, _ABSENT), want.get(k, _ABSENT))
                 for k in [*want, *sorted(set(got) - set(want))]]
    elif isinstance(got, list) and isinstance(want, list) and len(got) == len(want):
        parts = [(f"{name}[{i}]", g, w) for i, (g, w) in enumerate(zip(got, want))]
    else:
        text = "missing" if got is _ABSENT else json.dumps(got, sort_keys=True)
        wanted = "no such key" if want is _ABSENT else json.dumps(want, sort_keys=True)
        return None if text == wanted else f"{name} is {text}; rmop solve writes {wanted}"
    return next(filter(None, (_difference(g, w, n) for n, g, w in parts)), None)


def _rebuild(doc, scenario: Scenario, data: bytes) -> tuple[Solution, list[str]]:
    """read_solution's work on the parsed document `doc`; a malformed choice raises."""
    if not isinstance(doc, dict):
        raise ScenarioError("expected a JSON object")
    planner = read_field(doc, "planner", str)
    if planner not in bench.PLANNER_NAMES:
        raise ScenarioError(f"unknown planner {planner!r}; expected one of {bench.PLANNER_NAMES}")
    method = read_field(read_field(doc, "solver", dict), "method", str, "solver")
    if method not in SUBROUTINES:
        raise ScenarioError(f"unknown solver.method {method!r}; expected one of {SUBROUTINES}")
    loops = read_field(doc, "loop_iterations", int)
    if loops < 0:
        raise ScenarioError(f"loop_iterations must be >= 0, got {loops}")
    raw_paths, paths = read_field(doc, "paths", list), []
    for i in range(len(raw_paths)):
        where = f"paths[{i}]"
        entry = read_field(raw_paths, i, dict, "paths")
        vertices = read_ints(entry, "vertices", where)
        try:
            cost = path_cost(scenario.graph, vertices)
        except ScenarioError as exc:  # an empty path, or a repeated or unknown vertex
            raise ScenarioError(f"{where}.vertices: {exc}") from exc
        paths.append(Path(read_field(entry, "robot", int, where), tuple(vertices), cost))
    s1 = frozenset(read_ints(doc, "s1_robots"))
    # Only a robust plan holds a redundancy set and loop passes; any other writes [] and 0.
    robust = planner == "rmop" and scenario.alpha > 0
    solution = Solution(tuple(paths), s1, loops) if robust else Solution(tuple(paths))
    fresh = doc.get("scenario_sha256") == scenario_digest(data)
    problems = ([] if fresh else ["scenario digest mismatch"]) + check_solution(scenario, solution)
    if not problems:
        written = solution_document(scenario, data, solution, planner, OpSolverConfig(method))
        problems = [p for p in [_difference(doc, written)] if p]
    if not problems and robust and not (loops and s1):
        key, want = ("s1_robots", "one robot") if loops else ("loop_iterations", "1")
        problems = [f"{key} is {json.dumps(doc[key])}; rmop solve writes at least {want}"]
    return solution, problems


def read_solution(path: str, scenario: Scenario, data: bytes) -> tuple[Solution, list[str]]:
    """The solution at `path` and its problems against `scenario`, whose bytes are `data`.

    Only the choices are read: the planner, `solver.method`, each path's robot and vertices,
    and a robust plan's `s1_robots` and `loop_iterations`, which must not be empty or 0. Once
    check_solution passes the solution they rebuild, the first key that differs from what
    `solution_document` writes is the one problem.
    """
    return read_document(path, lambda raw: _rebuild(load_json(raw), scenario, data))[0]


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
    doc = solution_document(scenario, data, bench.plan(args.planner, scenario, solver),
                            args.planner, solver)
    _write_text(args.out, _dump_json(doc))
    print(f"wrote solution (team reward {doc['team_reward']}) to {args.out}")
    return 0


def cmd_attack(args: argparse.Namespace) -> int:
    scenario, data = read_document(args.scenario, load_scenario)
    solution, problems = read_solution(args.solution, scenario, data)
    if problems:
        raise ScenarioError(f"{args.solution}: {problems[0]}")
    model = RewardModel.from_scenario(scenario)
    outcome = run_attack(args.model, model, solution, args.size, seed=args.seed,
                         planned_alpha=scenario.alpha)
    report = {
        "scenario_sha256": scenario_digest(data),
        "model": outcome.model,
        "requested_size": args.size,
        "removed": sorted(outcome.removed),
        "residual": outcome.residual,
        "f_S": eval_team(model, solution.paths),
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
