"""The three benchmark workloads: inputs from a seed, one sweep, and its checks.

Each workload has a `setup()` that builds and validates its inputs and a
`sweep(inputs, plans)` that runs the fixed list of operations those inputs
define once and returns what to check. `plans` is the list the runner fills
with (planner, scenario, solution) for every plan made, so every plan can be
re-checked with `check_solution` after the timed sweep.

Why these three (the prediction for each layer is in README.md):

- crossover: the paper's headline experiment, run through `rmop bench`.
  Nearly all of its time is `solve_op_gcb`, most of it in the pool stage of
  `solve_rmop`, which repeats for every attack size.
- large-map: a 300-vertex map read back through `load_scenario`. Only at
  this size does the O(|V|^3) metric check dominate set-up and memory, and
  each `solve_rmop` plans a single alpha, so there is no pool to reuse.
- coverage-attack: coverage rewards and 16 robots, so the exhaustive attack
  and the cell-union `eval_team` dominate instead of the solver.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from rmop import attack, bench, cli, graph, planner
from rmop.orienteering import OpSolverConfig
from rmop.reward import RewardModel

SOLVER = OpSolverConfig(method="gcb")
ATTACK_SIZES = [1, 2, 3, 4, 5, 6, 7, 8]
TOL = 1e-9

# sha256 of the outputs for (workload, size parameter, seed). Crossover pins
# (CSV, summary); the other workloads pin one digest over every path tuple,
# plan and residual. The 20-trial crossover pair is the reference sweep.
PINNED = {
    ("crossover", 20, 7): ("8c15cf22857756fa57b03ad607ecc04695e186e9bc29476bdf65fb87694f7cf6",
                           "c464c75d9851d836fbc037698e860379b4e5af4e68676040b6f8970fb6670395"),
    ("crossover", 8, 7): ("7379276e6a8310a8e17fe30d6bc069417e2863d25830cbf1bd9dc6a5f28bd687",
                          "4199b4e3b865811f966447f6e657afd287121cc16792ed253b080017bf71d2f8"),
    ("crossover", 1, 7): ("16f181aac7f98035be107d78a2cee3e9b1333fb92e1de1d51263d25befd2a7dc",
                          "e342b1de60efc94d27b86330cad61b21f9defb3e074d7981d2931390ceb35f23"),
    ("large-map", 4, 7): ("93b058898fd6eac241d8a7f9a9b9a627768c4dd6f58ad7604a6decfa5b4aab02",),
    ("large-map", 1, 7): ("591e55a60b52d29843b2efabc0b8757b1b324a7b94003a59583027cd36f478f0",),
    ("coverage-attack", 2, 7): (
        "92c456655007487da1a45e9398f26735a310962cfe60fbf9e86e19a96059dd97",),
    ("coverage-attack", 1, 7): (
        "3a7c6d512ca6998b8d0ce88666320689e2044bd88be85a7cb3f15a03bcd1f1da",),
}


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def derived_seed(*entropy: int) -> int:
    return int(np.random.SeedSequence(list(entropy)).generate_state(1)[0])


def experiment_document(scenario: dict, trials: int, seed: int) -> dict:
    return {
        "scenario": scenario,
        "planners": ["rmop", "sga", "ng"],
        "attacks": [{"model": "worst", "sizes": ATTACK_SIZES},
                    {"model": "greedy", "sizes": ATTACK_SIZES}],
        "trials": trials,
        "seed": seed,
    }


def plans_digest(plans) -> str:
    """One digest over every plan: planner, starts, alpha, and each path tuple."""
    h = hashlib.sha256()
    for name, scenario, solution in plans:
        h.update(f"{name} {scenario.alpha} {scenario.starts}\n".encode())
        for p in solution.paths:
            h.update(f"  {p.robot} {p.vertices} {p.cost!r}\n".encode())
    return h.hexdigest()


def csv_checks(text: str) -> tuple[list[float], list[str]]:
    """rmop residuals under the worst attack, and violations of the attack oracles.

    The exhaustive attack is the true worst case, so its residual never exceeds
    the greedy attack's on the same plan, and no residual exceeds the plan's
    own team reward.
    """
    rows = list(csv.DictReader(io.StringIO(text)))
    residuals = [float(r["residual"]) for r in rows
                 if r["planner"] == "rmop" and r["attack_model"] == "worst"]
    problems = []
    by_case: dict[tuple, dict[str, float]] = {}
    for r in rows:
        residual, f_s = float(r["residual"]), float(r["f_S"])
        if not 0.0 <= residual <= f_s + TOL:
            problems.append(f"residual {residual} outside [0, f_S={f_s}] in {r}")
        case = (r["trial"], r["planner"], r["attack_size"])
        by_case.setdefault(case, {})[r["attack_model"]] = residual
    for case, got in by_case.items():
        if "worst" in got and "greedy" in got and got["worst"] > got["greedy"] + TOL:
            problems.append(f"worst-case residual above greedy residual for {case}: {got}")
    return residuals, problems


@dataclass
class SweepOutcome:
    digest: tuple[str, ...]
    residuals: list[float]
    problems: list[str] = field(default_factory=list)


class Crossover:
    """The ROADMAP crossover spec, run in-process through `rmop bench --no-timing`."""

    name = "crossover"
    sizes = {"full": 8, "smoke": 1}
    scenario = {"vertices": 96, "robots": 10, "budget": 60.0, "layout": "grid",
                "bumps": 3, "seed": 1}

    def __init__(self, trials: int, seed: int, outdir: Path):
        self.size_key = trials
        self.trials = trials
        self.seed = seed
        self.spec_path = outdir / "crossover-spec.json"
        self.csv_path = outdir / "crossover.csv"
        self.summary_path = outdir / "crossover-summary.json"

    def setup(self):
        doc = experiment_document(self.scenario, self.trials, self.seed)
        self.spec_path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        spec = bench.ExperimentSpec.from_document(json.loads(self.spec_path.read_bytes()))
        spec.base_scenario()
        return spec

    def sweep(self, inputs, plans) -> SweepOutcome:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["bench", "--no-timing", "--spec", str(self.spec_path),
                             "--out-csv", str(self.csv_path),
                             "--out-summary", str(self.summary_path)])
        if code != 0:
            raise RuntimeError(f"rmop bench exited with {code}: {out.getvalue()}")
        text = self.csv_path.read_bytes()
        residuals, problems = csv_checks(text.decode("utf-8"))
        return SweepOutcome(digest=(sha256(text), sha256(self.summary_path.read_bytes())),
                            residuals=residuals, problems=problems)


class LargeMap:
    """A 300-vertex map dumped and read back, then planned for seeded start sets."""

    name = "large-map"
    sizes = {"full": 4, "smoke": 1}

    def __init__(self, start_sets: int, seed: int, outdir: Path):
        self.size_key = start_sets
        self.seed = seed
        self.start_seeds = [derived_seed(seed, i, 303) for i in range(start_sets)]

    def setup(self):
        generated = graph.generate_scenario(n_vertices=300, n_robots=10, alpha=3, budget=60.0,
                                            layout="grid", bumps=3, seed=1)
        data = graph.dump_scenario(generated)
        loaded = graph.load_scenario(data)
        if graph.dump_scenario(loaded) != data:
            raise RuntimeError("large-map scenario does not survive a dump/load round trip")
        return loaded

    def sweep(self, inputs, plans) -> SweepOutcome:
        residuals = []
        for start_seed in self.start_seeds:
            scenario = graph.resample_starts(inputs, start_seed)
            solution = planner.solve_rmop(scenario, SOLVER)
            plans.append(("rmop", scenario, solution))
            hit = attack.worst_case_attack(RewardModel.from_scenario(scenario), solution,
                                           scenario.alpha)
            residuals.append(hit.residual)
        text = plans_digest(plans) + "".join(f" {r!r}" for r in residuals)
        return SweepOutcome(digest=(sha256(text),), residuals=residuals)


class CoverageAttack:
    """Coverage rewards, 16 robots, every planner under worst and greedy attacks."""

    name = "coverage-attack"
    sizes = {"full": 2, "smoke": 1}
    scenario = {"vertices": 64, "robots": 16, "budget": 60.0, "layout": "uniform",
                "bumps": 3, "seed": 1, "reward_kind": "coverage"}

    def __init__(self, trials: int, seed: int, outdir: Path):
        self.size_key = trials
        self.seed = seed
        self.document = experiment_document(self.scenario, trials, seed)

    def setup(self):
        spec = bench.ExperimentSpec.from_document(self.document)
        spec.base_scenario()
        return spec

    def sweep(self, inputs, plans) -> SweepOutcome:
        records = bench.run_experiment(inputs, measure_time=False)
        text = bench.records_to_csv(records)
        residuals, problems = csv_checks(text)
        return SweepOutcome(digest=(sha256(plans_digest(plans) + text),),
                            residuals=residuals, problems=problems)


WORKLOADS = {w.name: w for w in (Crossover, LargeMap, CoverageAttack)}


def make(name: str, size: str, seed: int, outdir: Path):
    cls = WORKLOADS[name]
    return cls(cls.sizes[size], seed, outdir)


def pinned(workload) -> tuple[str, ...] | None:
    return PINNED.get((workload.name, workload.size_key, workload.seed))
