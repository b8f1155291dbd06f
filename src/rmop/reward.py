"""Reward evaluation for vertex sets and robot-path teams.

Two reward kinds share one interface: modular (each vertex carries an
additive weight) and coverage (each vertex covers weighted cells; a cell
counts once however many selected vertices cover it). The team reward of a
path set is the reward of the union of their vertex sets, so nothing is
ever double counted. Masking zeroes chosen vertices without touching the
graph, which is how sequential planners hand "already collected" state to
the next robot. Models are immutable; masked variants are cheap views.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .graph import Path, Scenario


class RewardError(ValueError):
    """An evaluation was asked for an invalid vertex id or inconsistent model."""


@dataclass(frozen=True, eq=False)
class RewardModel:
    kind: str
    weights: tuple[float, ...]
    cells: tuple[tuple[tuple[int, float], ...], ...]
    masked: frozenset[int] = frozenset()

    def __post_init__(self):
        if self.kind not in ("modular", "coverage"):
            raise RewardError(f"unknown reward kind {self.kind!r}")
        if len(self.weights) != len(self.cells):
            raise RewardError("weights and cells must have one entry per vertex")
        for w in self.weights:
            if w < 0:
                raise RewardError("vertex weights must be non-negative")
        seen: dict[int, tuple[float, int]] = {}  # cell -> (weight, last vertex listing it)
        for v, per_vertex in enumerate(self.cells):
            for cell, w in per_vertex:
                if w < 0:
                    raise RewardError(f"cell {cell} has negative weight")
                first_w, last_v = seen.get(cell, (w, -1))
                if last_v == v:
                    raise RewardError(f"vertex {v} lists cell {cell} more than once")
                if first_w != w:
                    raise RewardError(f"cell {cell} has inconsistent weights {first_w} and {w}")
                seen[cell] = (w, v)

    @property
    def n(self) -> int:
        return len(self.weights)

    @classmethod
    def modular(cls, weights: Sequence[float], masked: Iterable[int] = ()) -> "RewardModel":
        w = tuple(float(x) for x in weights)
        return cls(kind="modular", weights=w, cells=((),) * len(w), masked=frozenset(masked))

    @classmethod
    def coverage(cls, cells: Sequence[Sequence[tuple[int, float]]],
                 masked: Iterable[int] = ()) -> "RewardModel":
        per_vertex = tuple(tuple((int(c), float(w)) for c, w in entry) for entry in cells)
        return cls(kind="coverage", weights=(0.0,) * len(per_vertex), cells=per_vertex,
                   masked=frozenset(masked))

    @classmethod
    def from_scenario(cls, scenario: Scenario) -> "RewardModel":
        vertices = scenario.graph.vertices
        if scenario.reward_kind == "modular":
            return cls.modular([v.reward for v in vertices])
        return cls.coverage([v.coverage for v in vertices])

    def with_masked(self, ids: Iterable[int]) -> "RewardModel":
        """Derived view whose listed vertices contribute exactly zero."""
        extra = frozenset(int(i) for i in ids)
        for i in extra:
            self._check_id(i)
        return RewardModel(kind=self.kind, weights=self.weights, cells=self.cells,
                           masked=self.masked | extra)

    def _check_id(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise RewardError(f"vertex id {v} out of range 0..{self.n - 1}")

    def singleton(self, v: int) -> float:
        self._check_id(v)
        if v in self.masked:
            return 0.0
        if self.kind == "modular":
            return self.weights[v]
        return sum(w for _, w in self.cells[v])


def eval_vertex_set(model: RewardModel, ids: Iterable[int]) -> float:
    """Reward of a vertex set: sum of unmasked weights, or covered-cell mass."""
    id_set = set(ids)
    for v in id_set:
        model._check_id(v)
    live = id_set - model.masked
    if model.kind == "modular":
        return sum(model.weights[v] for v in live)
    covered: dict[int, float] = {}
    for v in live:
        for cell, w in model.cells[v]:
            covered[cell] = w
    return sum(covered.values())


def eval_team(model: RewardModel, paths: Iterable[Path]) -> float:
    """Team reward: reward of the union of all path vertex sets."""
    union: set[int] = set()
    for p in paths:
        union.update(p.vertices)
    return eval_vertex_set(model, union)


@dataclass(frozen=True)
class CurvatureEstimate:
    """How far an evaluator is from additive, in [0, 1] (0 means modular)."""

    value: float
    ground_set_size: int
    skipped_zero_singletons: int


def curvature(ground_set: Sequence, evaluator: Callable[[Sequence], float]) -> CurvatureEstimate:
    """1 - min over elements of (h(V) - h(V minus v)) / h({v}).

    Elements whose singleton value is zero are skipped (the ratio is 0/0)
    and counted in the estimate; if every singleton is zero the value is 0.
    """
    elements = list(ground_set)
    if not elements:
        raise RewardError("curvature needs a non-empty ground set")
    h_full = evaluator(elements)
    worst = None
    skipped = 0
    for idx, v in enumerate(elements):
        single = evaluator([v])
        if single <= 0.0:
            skipped += 1
            continue
        rest = elements[:idx] + elements[idx + 1:]
        drop = h_full - evaluator(rest)
        ratio = drop / single
        if worst is None or ratio < worst:
            worst = ratio
    if worst is None:
        return CurvatureEstimate(value=0.0, ground_set_size=len(elements),
                                 skipped_zero_singletons=skipped)
    value = min(1.0, max(0.0, 1.0 - worst))
    return CurvatureEstimate(value=value, ground_set_size=len(elements),
                             skipped_zero_singletons=skipped)


def vertex_curvature(model: RewardModel) -> CurvatureEstimate:
    """Curvature of the single-robot reward over the whole vertex set."""
    ids = list(range(model.n))
    if model.kind == "modular":
        # Additive by construction: the leave-one-out drop equals the singleton.
        skipped = sum(1 for v in ids if model.singleton(v) <= 0.0)
        return CurvatureEstimate(value=0.0, ground_set_size=model.n,
                                 skipped_zero_singletons=skipped)
    return curvature(ids, lambda subset: eval_vertex_set(model, subset))


def team_curvature(model: RewardModel, paths: Sequence[Path]) -> CurvatureEstimate:
    """Curvature of the team reward with the given paths as the ground set.

    The true ground set (every feasible path) is exponential, so callers use
    the solution's own paths as a reported surrogate.
    """
    paths = list(paths)
    return curvature(list(range(len(paths))),
                     lambda idxs: eval_team(model, [paths[i] for i in idxs]))


class IncrementalEval:
    """Marginal-gain evaluator over a mutable vertex set.

    Tracks the running reward so solvers can query gains in O(cells covered)
    instead of re-evaluating whole sets. `value` always equals
    eval_vertex_set(model, members).
    """

    def __init__(self, model: RewardModel):
        self.model = model
        self.members: set[int] = set()
        self.value = 0.0
        self._cell_count: dict[int, int] = {}

    def gain(self, v: int) -> float:
        if v in self.members or v in self.model.masked:
            return 0.0
        if self.model.kind == "modular":
            return self.model.weights[v]
        return sum(w for cell, w in self.model.cells[v] if self._cell_count.get(cell, 0) == 0)

    def add(self, v: int) -> float:
        g = self.gain(v)
        if v not in self.members:
            self.members.add(v)
            if self.model.kind == "coverage" and v not in self.model.masked:
                for cell, _ in self.model.cells[v]:
                    self._cell_count[cell] = self._cell_count.get(cell, 0) + 1
            self.value += g
        return g

    def remove(self, v: int) -> None:
        self.members.remove(v)
        if v in self.model.masked:
            return
        if self.model.kind == "modular":
            self.value -= self.model.weights[v]
            return
        for cell, w in self.model.cells[v]:
            self._cell_count[cell] -= 1
            if self._cell_count[cell] == 0:
                del self._cell_count[cell]
                self.value -= w
