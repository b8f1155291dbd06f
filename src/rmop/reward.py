"""Reward evaluation for vertex sets and robot-path teams.

Every reward is a weighted coverage function: each vertex covers weighted
cells, and a set of vertices earns the weight of every cell at least one of
them covers, once. A modular reward is the case where every vertex covers
one private cell carrying its weight. The team reward of a path set is the
reward of the union of their vertex sets, so nothing is ever double
counted. Masking empties chosen vertices' cells without touching the graph,
which is how sequential planners hand "already collected" state to the next
robot. Models are immutable; masked variants share the other vertices' cells.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

from .graph import Path, RewardError, Scenario, check_cells


@dataclass(frozen=True, eq=False)
class RewardModel:
    """Vertex v covers the (cell, weight) pairs `cells[v]`.

    Build models from raw cells with `modular` or `coverage`, which run
    check_cells: every weight finite and non-negative, no cell listed twice by
    one vertex, and one weight per cell. `from_scenario` reads cells its
    MetricGraph already checked, and `with_masked` derives from a checked
    model; neither checks again.
    """

    cells: tuple[tuple[tuple[int, float], ...], ...]

    @property
    def n(self) -> int:
        return len(self.cells)

    @classmethod
    def modular(cls, weights: Sequence[float]) -> "RewardModel":
        """Additive weights: vertex v alone covers cell v, of weight weights[v]."""
        return cls.coverage([[(v, w)] for v, w in enumerate(weights)])

    @classmethod
    def coverage(cls, cells: Sequence[Sequence[tuple[int, float]]]) -> "RewardModel":
        per_vertex = tuple(tuple((operator.index(c), float(w)) for c, w in entry)
                           for entry in cells)
        check_cells(per_vertex)
        return cls(cells=per_vertex)

    @classmethod
    def from_scenario(cls, scenario: Scenario) -> "RewardModel":
        """The model `modular` or `coverage` builds from the vertices, without a second check.

        MetricGraph already stores rewards and weights as float and cells as int.
        """
        vertices = scenario.graph.vertices
        if scenario.reward_kind == "modular":
            return cls(cells=tuple(((v, vert.reward),) for v, vert in enumerate(vertices)))
        return cls(cells=tuple(vert.coverage for vert in vertices))

    def with_masked(self, ids: Iterable[int]) -> "RewardModel":
        """Derived model whose listed vertices cover nothing, so contribute exactly zero."""
        masked = frozenset(int(i) for i in ids)
        for i in masked:
            self._check_id(i)
        return RewardModel(cells=tuple(() if v in masked else entry
                                       for v, entry in enumerate(self.cells)))

    def _check_id(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise RewardError(f"vertex id {v} out of range 0..{self.n - 1}")

    def singleton(self, v: int) -> float:
        self._check_id(v)
        return sum(w for _, w in self.cells[v])

    @cached_property
    def _vertex_tables(self) -> tuple[tuple[float, ...], tuple[bool, ...]]:
        """Each vertex's singleton reward, and whether no other vertex covers any of its cells.

        Built on first use and kept with the model, so every solve on one model shares them.
        """
        sharers: dict[int, int] = {}
        for entry in self.cells:
            for cell, _ in entry:
                sharers[cell] = sharers.get(cell, 0) + 1
        singles = tuple(sum(w for _, w in entry) for entry in self.cells)
        private = tuple(all(sharers[cell] == 1 for cell, _ in entry) for entry in self.cells)
        return singles, private


def eval_vertex_set(model: RewardModel, ids: Iterable[int]) -> float:
    """Reward of a vertex set: the weight of the cells it covers, each once."""
    covered: dict[int, float] = {}
    for v in set(ids):
        model._check_id(v)
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
    singles, private = model._vertex_tables
    if all(private):
        # No cell is shared, so the reward is additive: every leave-one-out
        # drop equals the singleton.
        return CurvatureEstimate(value=0.0, ground_set_size=model.n,
                                 skipped_zero_singletons=sum(1 for s in singles if s <= 0.0))
    return curvature(list(range(model.n)), lambda subset: eval_vertex_set(model, subset))


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
    instead of re-evaluating whole sets; a vertex whose cells no other vertex
    covers gains its singleton reward until it joins. `value` always equals
    eval_vertex_set(model, members).
    """

    def __init__(self, model: RewardModel):
        self.model = model
        self.members: set[int] = set()
        self.value = 0.0
        self._cell_count: dict[int, int] = {}
        self._singles, self._private = model._vertex_tables

    def gain(self, v: int) -> float:
        if v in self.members:
            return 0.0
        if self._private[v]:
            return self._singles[v]
        count = self._cell_count
        return sum(w for cell, w in self.model.cells[v] if cell not in count)

    def add(self, v: int) -> float:
        g = self.gain(v)
        if v not in self.members:
            self.members.add(v)
            for cell, _ in self.model.cells[v]:
                self._cell_count[cell] = self._cell_count.get(cell, 0) + 1
            self.value += g
        return g

    def remove(self, v: int) -> None:
        self.members.remove(v)
        for cell, w in self.model.cells[v]:
            self._cell_count[cell] -= 1
            if self._cell_count[cell] == 0:
                del self._cell_count[cell]
                self.value -= w
