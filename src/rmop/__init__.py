"""Budget-limited multi-robot path planning that survives worst-case robot loss.

Plan paths for N robots on a metric graph, each within a travel budget, so
that the team reward remaining after an adversary removes the worst `alpha`
robots is provably close to the best achievable. Ships an exact single-robot
solver and bound calculators for verification, attack models for evaluation,
and a seeded benchmark harness; the exhaustive team-level max-min oracle that
checks the planners lives in the test suite, in `tests/oracles.py`.
"""

from .graph import (AREA_SIDE, MetricGraph, MetricReport, Path, Scenario, ScenarioError, Vertex,
                    dump_scenario, generate_scenario, load_scenario, path_cost, resample_starts,
                    scenario_from_document, scenario_to_document, verify_metric)
from .reward import (IncrementalEval, RewardError, RewardModel, eval_team, eval_vertex_set,
                     team_curvature, vertex_curvature)
from .orienteering import (EXACT_SIZE_LIMIT, GCB_ETA, OpSolverConfig, SizeGuardError,
                           solve_op, solve_op_exact, solve_op_gcb)
from .planner import PlannerLoopError, Solution, check_solution, sga, solve_rmop, solve_sga
from .attack import (ATTACK_MODELS, AttackOutcome, greedy_attack, random_attack, run_attack,
                     worst_case_attack)
from .bench import (AttackSpec, ExperimentRecord, ExperimentSpec, naive_greedy_baseline, plan,
                    records_to_csv, rmop_bound, run_experiment, sga_bound, summarize)

__version__ = "0.1.0"
