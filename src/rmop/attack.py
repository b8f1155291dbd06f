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


def _least(model: RewardModel, solution: Solution, removals) -> tuple[float, tuple[int, ...]]:
    """(residual, removal) of least residual over the `removals` tuples; the first on ties."""
    return min(((eval_team(model, [p for p in solution.paths if p.robot not in removal]), removal)
                for removal in removals), key=lambda scored: scored[0])


def _check_size(name: str, solution: Solution, size: int) -> None:
    if size < 0:
        raise ValueError("attack size must be non-negative")
    if size >= solution.n_robots:
        raise ValueError(f"attack size must be < {solution.n_robots} robots, got {size}")
    check_subset_guard(name, solution.n_robots, size)


def check_subset_guard(name: str, n: int, size: int) -> None:
    """Refuse an exhaustive attack (`worst`, `partial`) over more than SUBSET_GUARD subsets."""
    if name in ("worst", "partial") and math.comb(n, size) > SUBSET_GUARD:
        raise SizeGuardError(f"C({n},{size}) removal subsets exceed the guard of {SUBSET_GUARD}; "
                             "use greedy_attack instead")


def worst_case_attack(model: RewardModel, solution: Solution, size: int) -> AttackOutcome:
    """Exhaustive minimization of the surviving team reward over all removals of exactly
    `size` robots (monotonicity means a minimizer of full size always exists); the
    lexicographically smallest minimizer wins."""
    _check_size("worst", solution, size)
    residual, removal = _least(model, solution, combinations(range(solution.n_robots), size))
    return AttackOutcome(removed=frozenset(removal), residual=residual, model="worst-exhaustive")


def greedy_attack(model: RewardModel, solution: Solution, size: int) -> AttackOutcome:
    """Remove, one at a time, the robot whose loss hurts the survivors most; ties go to
    the smallest id. Each step scores the one-robot extensions of the removal so far."""
    _check_size("greedy", solution, size)
    residual, removal = _least(model, solution, [()]) if size == 0 else (None, ())
    for _ in range(size):
        extensions = [removal + (r,) for r in range(solution.n_robots) if r not in removal]
        residual, removal = _least(model, solution, extensions)
    return AttackOutcome(removed=frozenset(removal), residual=residual, model="worst-greedy")


def random_attack(model: RewardModel, solution: Solution, size: int, seed: int) -> AttackOutcome:
    """Uniformly random removal of exactly `size` robots, deterministic per seed."""
    _check_size("random", solution, size)
    rng = np.random.default_rng(seed)
    residual, removal = _least(model, solution, [tuple(
        int(r) for r in rng.choice(solution.n_robots, size=size, replace=False))])
    return AttackOutcome(removed=frozenset(removal), residual=residual, model="random", seed=seed)


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
            raise ValueError(f"attack size {size} exceeds the planned attack size {planned_alpha}")
        return replace(worst_case_attack(model, solution, size), model="partial")
    raise ValueError(f"unknown attack model {name!r}; expected one of {ATTACK_MODELS}")
