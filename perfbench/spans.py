"""Span recording around the public functions of the rmop modules.

The benchmark does not change the package. It wraps each public function of
the layer modules from outside and rebinds the name in every rmop module
(and the package itself) that holds the same function object, so calls made
through `from .x import f` imports are caught too. Spans stay in flat
arrays while the run lasts and are written out once, when it ends.
"""

from __future__ import annotations

import importlib
import inspect
import math
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("graph", "reward", "orienteering", "planner", "attack", "bench", "cli")

# A call to this function starts a new trial: the spans of one trial share an id.
TRIAL_BOUNDARY = "graph.resample_starts"


def _start_of(args, kwargs):
    # solve_op(graph, model, start, budget, config, robot=0)
    return int(kwargs["start"] if "start" in kwargs else args[2])


def _subsets_of(args, kwargs):
    # worst_case_attack(model, solution, size, max_subsets=...)
    solution = kwargs["solution"] if "solution" in kwargs else args[1]
    size = kwargs["size"] if "size" in kwargs else args[2]
    return math.comb(solution.n_robots, size)


# Per-span integer recorded beside the timing for the counters that need it.
KEYS = {"orienteering.solve_op": _start_of, "attack.worst_case_attack": _subsets_of}


def layer_modules():
    return ([importlib.import_module(f"rmop.{name}") for name in LAYERS],
            importlib.import_module("rmop"))


def public_functions(module):
    """(name, function) for every public function defined in `module` itself."""
    return [(name, obj) for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")]


class Rebinder:
    """Replace function objects throughout the rmop modules; undo on restore()."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, replacements: dict) -> None:
        """`replacements` maps id(original function) -> wrapper."""
        modules, package = layer_modules()
        for module in modules + [package]:
            for name, obj in list(vars(module).items()):
                wrapper = replacements.get(id(obj))
                if wrapper is not None:
                    self._undo.append((module, name, obj))
                    setattr(module, name, wrapper)

    def restore(self) -> None:
        for module, name, obj in reversed(self._undo):
            setattr(module, name, obj)
        self._undo.clear()


class Tracer:
    """Records one span per call of every public layer function while active."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.trial = array("i")
        self.phase = array("i")
        self.key = array("q")
        self.active = False
        self.current_phase = -1
        self.current_trial = -1
        self._stack: list[int] = []
        self._rebinder = Rebinder()

    def install(self) -> None:
        modules, _ = layer_modules()
        replacements = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for name, fn in public_functions(module):
                replacements[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        self._rebinder.replace(replacements)

    def uninstall(self) -> None:
        self._rebinder.restore()

    def begin_phase(self, phase: int) -> None:
        self.current_phase = phase
        self.current_trial = -1
        self.active = True

    def end_phase(self) -> None:
        self.active = False

    def _wrap(self, qualname: str, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        key_of = KEYS.get(qualname)
        boundary = qualname == TRIAL_BOUNDARY
        stack = self._stack
        name, start, end, parent = self.name, self.start, self.end, self.parent
        trial, phase, key = self.trial, self.phase, self.key

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if boundary:
                self.current_trial += 1
            idx = len(start)
            name.append(name_id)
            parent.append(stack[-1] if stack else -1)
            trial.append(self.current_trial)
            phase.append(self.current_phase)
            key.append(key_of(args, kwargs) if key_of else -1)
            end.append(math.nan)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def arrays(self) -> dict:
        """The spans as numpy columns, with self time (duration minus children)."""
        cols = {k: np.array(getattr(self, k))
                for k in ("name", "start", "end", "parent", "trial", "phase", "key")}
        duration = cols["end"] - cols["start"]
        child = np.zeros_like(duration)
        has_parent = cols["parent"] >= 0
        np.add.at(child, cols["parent"][has_parent], duration[has_parent])
        cols["duration"] = duration
        cols["self"] = duration - child
        return cols

    def write(self, path) -> None:
        cols = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), **cols)


def load(path) -> dict:
    with np.load(path) as data:
        return {k: data[k] for k in data.files}


def check_tree(cols: dict, tol: float = 1e-9) -> list[str]:
    """Violations of span-tree shape: children inside parents, self time >= 0."""
    problems = []
    if np.isnan(cols["end"]).any():
        problems.append(f"{int(np.isnan(cols['end']).sum())} spans never ended")
    idx = np.flatnonzero(cols["parent"] >= 0)
    par = cols["parent"][idx]
    if (par >= idx).any():
        problems.append("a parent span starts after its child")
    if (cols["start"][idx] < cols["start"][par] - tol).any() or \
            (cols["end"][idx] > cols["end"][par] + tol).any():
        problems.append("a child span lies outside its parent")
    if (cols["phase"][idx] != cols["phase"][par]).any():
        problems.append("a child span belongs to another phase than its parent")
    if (cols["self"] < -tol).any():
        problems.append("a span has negative self time")
    return problems


def is_counter(metric: str) -> bool:
    """Deterministic work counters: they must repeat exactly from run to run."""
    return metric.endswith((".calls", ".solves", ".subsets", "unique_frac", ".spans"))


def phase_metrics(cols: dict, names: list[str], phase: int) -> dict[str, float]:
    """Counts and times of every traced function within one phase (a setup or a sweep)."""
    sel = np.flatnonzero(cols["phase"] == phase)
    name = cols["name"][sel]
    duration = cols["duration"][sel]
    ids = {qualname: i for i, qualname in enumerate(names)}
    calls = np.bincount(name, minlength=len(names))
    total = np.bincount(name, weights=duration, minlength=len(names))
    own = np.bincount(name, weights=cols["self"][sel], minlength=len(names))
    out: dict[str, float] = {}
    for qualname, i in ids.items():
        out[f"{qualname}.calls"] = int(calls[i])
        out[f"{qualname}.s"] = float(total[i])
        out[f"{qualname}.self_s"] = float(own[i])
    for layer in LAYERS:
        out[f"{layer}.self_s"] = float(sum(own[i] for q, i in ids.items()
                                           if q.startswith(layer + ".")))
    parents = cols["parent"][sel]
    parent_name = np.where(parents >= 0, cols["name"][parents], -1)
    solve_op = name == ids["orienteering.solve_op"]
    pool = solve_op & (parent_name == ids["planner.solve_rmop"])
    out["planner.pool.solves"] = int(pool.sum())
    out["planner.pool.s"] = float(duration[pool].sum())
    problems = set(zip(cols["trial"][sel][pool].tolist(), cols["key"][sel][pool].tolist()))
    out["planner.pool.unique_frac"] = len(problems) / max(int(pool.sum()), 1)
    out["planner.sga.solves"] = int((solve_op & (parent_name == ids["planner.sga"])).sum())
    worst = name == ids["attack.worst_case_attack"]
    out["attack.worst_case_attack.subsets"] = int(cols["key"][sel][worst].sum())
    out["trace.spans"] = int(len(sel))
    out["trace.self_s"] = float(cols["self"][sel].sum())
    return out


def combine_phases(per_phase: list[dict]) -> tuple[dict, list[str]]:
    """Median of each timing over phases; counters must agree exactly across phases."""
    combined = {}
    mismatches = []
    for metric in per_phase[0]:
        values = [p[metric] for p in per_phase]
        if is_counter(metric):
            if any(v != values[0] for v in values):
                mismatches.append(f"{metric} differs between phases: {values}")
            combined[metric] = values[0]
        else:
            combined[metric] = float(np.median(values))
    return combined, mismatches


def durations_ms(cols: dict, names: list[str], qualname: str, phases) -> np.ndarray:
    """Every call duration of one function, in ms, over the given phases."""
    mask = (cols["name"] == names.index(qualname)) & np.isin(cols["phase"], list(phases))
    return cols["duration"][mask] * 1000.0
