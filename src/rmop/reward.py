"""Reward evaluation for vertex sets and robot-path teams.

Every reward is a weighted coverage function: each vertex covers weighted
cells, and a set of vertices earns the weight of every cell at least one of
them covers, once. A modular reward is the case where every vertex covers
one private cell carrying its weight. The team reward of a path set is the
reward of the union of their vertex sets, so nothing is ever double
counted. Masking empties chosen vertices' cells without touching the graph,
which is how sequential planners hand "already collected" state to the next
robot. Models are immutable; a masked variant shares its parent's weight
vector and copies only the vertex × slot array.

A model is its array form, `weight` and `slots`, and every value is summed by
ascending cell id, so values, gains and curvatures agree to the last bit. A
vertex's singleton reward is its gain from the empty set, `IncrementalEval.gains`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .graph import Path, RewardError, Scenario


def _totals(weights: np.ndarray) -> np.ndarray:
    """Sums over the last axis, added left to right from 0.0: the one order of every reward.

    np.add.accumulate adds in sequence, np.sum pairwise; + 0.0 turns -0.0 into 0.0.
    """
    return np.add.accumulate(weights, axis=-1)[..., -1] + 0.0


@dataclass(frozen=True, eq=False)
class RewardModel:
    """Weighted coverage in read-only array form: cells renumbered 0..C-1 by ascending id.

    `weight[C]` is a zero-weight sentinel. Row v of `slots` lists vertex v's cells in
    ascending order, padded with C to a width of at least 1.

    Models come from `from_scenario`, which reads the cells the scenario's MetricGraph
    already typed and checked, and `with_masked` derives from such a model; neither
    checks again.
    """

    weight: np.ndarray
    slots: np.ndarray

    def __post_init__(self) -> None:
        for array in (self.weight, self.slots):
            array.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.slots)

    @classmethod
    def from_scenario(cls, scenario: Scenario) -> "RewardModel":
        """The model of the vertices' checked cells; modular vertex v covers one private cell, v."""
        vertices = scenario.graph.vertices
        cells = ([((v, vert.reward),) for v, vert in enumerate(vertices)]
                 if scenario.reward_kind == "modular" else [vert.coverage for vert in vertices])
        weights = dict(pair for entry in cells for pair in entry)
        dense = {c: i for i, c in enumerate(sorted(weights))}
        width = max(map(len, cells), default=0) or 1
        slots = np.array([sorted(dense[c] for c, _ in entry) + [len(dense)] * (width - len(entry))
                          for entry in cells], dtype=np.intp).reshape(len(cells), width)
        return cls(np.array([weights[c] for c in dense] + [0.0]), slots)

    def with_masked(self, ids: Iterable[int]) -> "RewardModel":
        """Derived model whose listed vertices cover nothing, so contribute exactly zero.

        It shares the parent's `weight`; the listed rows of `slots` point at the sentinel.
        """
        slots = self.slots.copy()
        slots[self._index(ids)] = len(self.weight) - 1
        return RewardModel(self.weight, slots)

    def _index(self, ids: Iterable[int]) -> np.ndarray:
        """`ids` as an index array, refused unless all are vertex ids 0..n-1."""
        idx = np.fromiter(ids, dtype=np.intp)
        if len(idx) and np.maximum.reduce(idx.view(np.uintp)) >= self.n:  # ids < 0 view as huge
            bad = idx[(idx < 0) | (idx >= self.n)][0]
            raise RewardError(f"vertex id {bad} out of range 0..{self.n - 1}")
        return idx


def eval_vertex_set(model: RewardModel, ids: Iterable[int]) -> float:
    """Reward of a vertex set: the weight of the cells it covers, each once."""
    covered = np.zeros(len(model.weight), dtype=bool)
    covered[model.slots[model._index(ids)]] = True
    covered[-1] = True  # the zero-weight sentinel: the sum is never empty, and adds 0.0 last
    return float(_totals(model.weight[covered]))


def eval_team(model: RewardModel, paths: Iterable[Path]) -> float:
    """Team reward: reward of the union of all path vertex sets."""
    return eval_vertex_set(model, [v for p in paths for v in p.vertices])


def _curvature(weight: np.ndarray, rows: np.ndarray) -> float:
    """1 - min over groups of (h(all) - h(all but the group)) / h(group), h the reward.

    The result lies in [0, 1], and 0 means modular. Row i of `rows` lists group i's
    cells, each once and ascending, padded with the sentinel. The drop is the weight of
    the cells no other group covers, read from cell counts. Groups of value zero are
    skipped (0/0); if all are, the value is 0.
    """
    if not len(rows):
        raise RewardError("curvature needs a non-empty ground set")
    own = weight[rows]
    single = _totals(own)
    own[np.bincount(rows.ravel(), minlength=len(weight))[rows] != 1] = 0.0
    counted = single > 0.0
    ratios = _totals(own)[counted] / single[counted]
    return min(1.0, max(0.0, 1.0 - float(ratios.min()))) if len(ratios) else 0.0


def vertex_curvature(model: RewardModel) -> float:
    """Curvature of the single-robot reward over the whole vertex set."""
    return _curvature(model.weight, model.slots)


def team_curvature(model: RewardModel, paths: Sequence[Path]) -> float:
    """Curvature of the team reward with the given paths as the ground set.

    The true ground set (every feasible path) is exponential, so callers use
    the solution's own paths as a reported surrogate.
    """
    weight = model.weight
    covers = np.zeros((len(paths), len(weight)), dtype=bool)
    for i, p in enumerate(paths):
        covers[i, model.slots[model._index(p.vertices)]] = True
    return _curvature(weight, np.where(covers, np.arange(len(weight)), len(weight) - 1))


class IncrementalEval:
    """The cells covered by a vertex set that a solver grows; its ids are not range-checked."""

    def __init__(self, model: RewardModel):
        self._weight, self._slots = model.weight, model.slots
        self._covered = np.zeros(len(self._weight), dtype=bool)

    def gains(self, ids: np.ndarray) -> np.ndarray:
        """Each vertex's marginal gain: the weight of its cells no member covers."""
        cells = self._slots[ids]
        w = self._weight[cells]
        w[self._covered[cells]] = 0.0
        return _totals(w)

    def values_with(self, ids: np.ndarray) -> np.ndarray:
        """The value of the members plus each vertex in turn, one per vertex."""
        members = np.flatnonzero(self._covered)
        cells = np.hstack([np.broadcast_to(members, (len(ids), len(members))), self._slots[ids]])
        cells.sort(axis=1, kind="stable")  # the sort code gcb's argsort already pages in
        w = self._weight[cells]
        w[:, 1:][cells[:, 1:] == cells[:, :-1]] = 0.0  # a cell listed twice counts once
        return _totals(w)

    def add(self, v: int) -> None:
        self._covered[self._slots[v]] = True
