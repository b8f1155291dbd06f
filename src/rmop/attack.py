"""Adversary models: remove robots from a solved team and score the survivors.

The exhaustive attack is the ground-truth worst case (feasible because the
residual only depends on which robots survive, and teams are small); the
greedy attack is the scalable stand-in, never below the true worst case.
Random and partial attacks mirror the benchmark protocols for evaluating a
plan against adversaries weaker than the one it was built for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Optional

import numpy as np

from .planner import Solution
from .reward import RewardModel, eval_team
from .orienteering import SizeGuardError

SUBSET_GUARD = 10 ** 6

ATTACK_MODELS = ("worst", "greedy", "random", "partial")


@dataclass(frozen=True)
class AttackOutcome:
    removed: frozenset[int]
    residual: float
    model: str
    seed: Optional[int] = None


def _residual(model: RewardModel, solution: Solution, removed) -> float:
    survivors = [p for p in solution.paths if p.robot not in removed]
    return eval_team(model, survivors)


def _check_size(solution: Solution, size: int) -> None:
    for i, path in enumerate(solution.paths):
        if path.robot != i:
            raise ValueError(f"path {i} is labeled for robot {path.robot}; "
                             f"an attack needs paths labeled 0..{solution.n_robots - 1} in order")
    if size < 0:
        raise ValueError("attack size must be non-negative")
    if size >= solution.n_robots:
        raise ValueError(f"attack size must be < {solution.n_robots} robots, got {size}")


def check_subset_guard(name: str, n: int, size: int) -> None:
    """Refuse an exhaustive attack (`worst`, `partial`) over more than SUBSET_GUARD subsets."""
    if name in ("worst", "partial") and math.comb(n, size) > SUBSET_GUARD:
        raise SizeGuardError(f"C({n},{size}) removal subsets exceed the guard of {SUBSET_GUARD}; "
                             "use greedy_attack instead")


def worst_case_attack(model: RewardModel, solution: Solution, size: int) -> AttackOutcome:
    """Exhaustive minimization of the surviving team reward over removals.

    Enumerates all subsets of exactly `size` robots (monotonicity means a
    minimizer of full size always exists) and keeps the lexicographically
    smallest minimizer.
    """
    _check_size(solution, size)
    n = solution.n_robots
    check_subset_guard("worst", n, size)
    residual, removed = min((_residual(model, solution, c), c)
                            for c in combinations(range(n), size))
    return AttackOutcome(removed=frozenset(removed), residual=residual, model="worst-exhaustive")


def greedy_attack(model: RewardModel, solution: Solution, size: int) -> AttackOutcome:
    """Remove, one at a time, the robot whose loss hurts the survivors most."""
    _check_size(solution, size)
    removed: set[int] = set()
    for _ in range(size):
        candidates = [r for r in range(solution.n_robots) if r not in removed]
        # min keeps the first of equal residuals: the smallest robot id.
        removed.add(min(candidates, key=lambda r: _residual(model, solution, removed | {r})))
    return AttackOutcome(removed=frozenset(removed),
                         residual=_residual(model, solution, removed),
                         model="worst-greedy")


def random_attack(model: RewardModel, solution: Solution, size: int, seed: int) -> AttackOutcome:
    """Uniformly random removal of exactly `size` robots, deterministic per seed."""
    _check_size(solution, size)
    rng = np.random.default_rng(seed)
    removed = frozenset(int(r) for r in rng.choice(solution.n_robots, size=size, replace=False))
    return AttackOutcome(removed=removed, residual=_residual(model, solution, removed),
                         model="random", seed=seed)


def run_attack(name: str, model: RewardModel, solution: Solution, size: int,
               seed: Optional[int] = None, planned_alpha: Optional[int] = None) -> AttackOutcome:
    """Run the attack model `name` (one of ATTACK_MODELS) removing `size` robots.

    `random` draws its removal from `seed`. `partial` is the exhaustive attack
    on a plan built for `planned_alpha` losses, at a size no larger than that.
    """
    if name == "worst":
        return worst_case_attack(model, solution, size)
    if name == "greedy":
        return greedy_attack(model, solution, size)
    if name == "random":
        if seed is None:
            raise ValueError("random attacks require a seed (--seed)")
        if seed < 0:
            raise ValueError(f"random attack seed (--seed) must be >= 0, got {seed}")
        return random_attack(model, solution, size, seed=seed)
    if name == "partial":
        if planned_alpha is None:
            raise ValueError("partial attacks require planned_alpha")
        if size > planned_alpha:
            raise ValueError(f"actual_size {size} exceeds the planned attack size {planned_alpha}")
        return replace(worst_case_attack(model, solution, size), model="partial")
    raise ValueError(f"unknown attack model {name!r}; expected one of {ATTACK_MODELS}")
